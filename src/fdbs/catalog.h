// FDBS catalog: base tables, scalar functions, table functions.
#ifndef FEDFLOW_FDBS_CATALOG_H_
#define FEDFLOW_FDBS_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <functional>

#include "common/result.h"
#include "common/table.h"
#include "fdbs/exec_context.h"
#include "fdbs/procedure.h"
#include "fdbs/scalar_function.h"
#include "fdbs/table_function.h"

namespace fedflow::fdbs {

/// Materializes an external table's current rows (a remote SQL subquery).
/// Providers charge their modeled cost to ctx.clock when set.
using ExternalTableProvider =
    std::function<Result<Table>(ExecContext& ctx)>;

/// Streaming variant: yields the same rows batch by batch, charging the
/// transfer cost incrementally as batches are pulled.
using ExternalTableStreamProvider =
    std::function<Result<RowSourcePtr>(ExecContext& ctx, size_t batch_size)>;

/// Catalog entry for a table served by a remote SQL source.
struct ExternalTable {
  std::string name;
  Schema schema;
  ExternalTableProvider provider;
  /// Optional; when set the executor prefers the streaming scan.
  ExternalTableStreamProvider stream_provider;
};

/// Name-keyed (case-insensitive) registry of all objects the FDBS knows.
/// Not thread-safe; the FDBS serializes DDL, and queries only read.
class Catalog {
 public:
  // --- base tables ---------------------------------------------------------
  Status CreateTable(const std::string& name, Schema schema);
  Status DropTable(const std::string& name);
  /// Mutable handle for INSERT; NotFound when absent.
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTableConst(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  // --- external tables (remote SQL sources) ---------------------------------
  /// Registers a table served by a remote SQL source. Name collisions with
  /// local tables are rejected.
  Status RegisterExternalTable(ExternalTable table);
  Status DropExternalTable(const std::string& name);
  /// NotFound when absent.
  Result<const ExternalTable*> GetExternalTable(const std::string& name) const;
  bool HasExternalTable(const std::string& name) const;

  // --- scalar functions ----------------------------------------------------
  Status RegisterScalarFunction(ScalarFunctionDef def);
  /// NotFound when absent.
  Result<const ScalarFunctionDef*> GetScalarFunction(
      const std::string& name) const;
  bool HasScalarFunction(const std::string& name) const;

  // --- table functions (UDTFs) --------------------------------------------
  Status RegisterTableFunction(std::shared_ptr<TableFunction> fn);
  Status DropTableFunction(const std::string& name);
  /// NotFound when absent.
  Result<TableFunction*> GetTableFunction(const std::string& name) const;

  // --- stored procedures (PSM) ----------------------------------------------
  Status RegisterProcedure(StoredProcedure procedure);
  Status DropProcedure(const std::string& name);
  /// NotFound when absent.
  Result<const StoredProcedure*> GetProcedure(const std::string& name) const;

  /// Names of all registered table functions (sorted; for introspection).
  std::vector<std::string> TableFunctionNames() const;

 private:
  static std::string Key(const std::string& name);

  std::map<std::string, Table> tables_;
  std::map<std::string, ExternalTable> external_tables_;
  std::map<std::string, ScalarFunctionDef> scalar_functions_;
  std::map<std::string, std::shared_ptr<TableFunction>> table_functions_;
  std::map<std::string, StoredProcedure> procedures_;
};

}  // namespace fedflow::fdbs

#endif  // FEDFLOW_FDBS_CATALOG_H_

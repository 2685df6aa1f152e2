#include "fdbs/catalog.h"

#include "common/strings.h"

namespace fedflow::fdbs {

std::string Catalog::Key(const std::string& name) { return ToUpper(name); }

Status Catalog::CreateTable(const std::string& name, Schema schema) {
  std::string key = Key(name);
  if (tables_.count(key) > 0 || external_tables_.count(key) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  tables_.emplace(key, Table(std::move(schema)));
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  if (tables_.erase(Key(name)) == 0) {
    return Status::NotFound("table not found: " + name);
  }
  return Status::OK();
}

Result<Table*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) return Status::NotFound("table not found: " + name);
  return &it->second;
}

Result<const Table*> Catalog::GetTableConst(const std::string& name) const {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) return Status::NotFound("table not found: " + name);
  return &it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(Key(name)) > 0;
}

Status Catalog::RegisterExternalTable(ExternalTable table) {
  std::string key = Key(table.name);
  if (tables_.count(key) > 0 || external_tables_.count(key) > 0) {
    return Status::AlreadyExists("table already exists: " + table.name);
  }
  external_tables_.emplace(std::move(key), std::move(table));
  return Status::OK();
}

Status Catalog::DropExternalTable(const std::string& name) {
  if (external_tables_.erase(Key(name)) == 0) {
    return Status::NotFound("external table not found: " + name);
  }
  return Status::OK();
}

Result<const ExternalTable*> Catalog::GetExternalTable(
    const std::string& name) const {
  auto it = external_tables_.find(Key(name));
  if (it == external_tables_.end()) {
    return Status::NotFound("external table not found: " + name);
  }
  return &it->second;
}

bool Catalog::HasExternalTable(const std::string& name) const {
  return external_tables_.count(Key(name)) > 0;
}

Status Catalog::RegisterScalarFunction(ScalarFunctionDef def) {
  std::string key = Key(def.name);
  if (scalar_functions_.count(key) > 0) {
    return Status::AlreadyExists("scalar function already exists: " + def.name);
  }
  scalar_functions_.emplace(key, std::move(def));
  return Status::OK();
}

Result<const ScalarFunctionDef*> Catalog::GetScalarFunction(
    const std::string& name) const {
  auto it = scalar_functions_.find(Key(name));
  if (it == scalar_functions_.end()) {
    return Status::NotFound("scalar function not found: " + name);
  }
  return &it->second;
}

bool Catalog::HasScalarFunction(const std::string& name) const {
  return scalar_functions_.count(Key(name)) > 0;
}

Status Catalog::RegisterTableFunction(std::shared_ptr<TableFunction> fn) {
  std::string key = Key(fn->name());
  if (table_functions_.count(key) > 0) {
    return Status::AlreadyExists("table function already exists: " +
                                 fn->name());
  }
  table_functions_.emplace(key, std::move(fn));
  return Status::OK();
}

Status Catalog::DropTableFunction(const std::string& name) {
  if (table_functions_.erase(Key(name)) == 0) {
    return Status::NotFound("table function not found: " + name);
  }
  return Status::OK();
}

Result<TableFunction*> Catalog::GetTableFunction(
    const std::string& name) const {
  auto it = table_functions_.find(Key(name));
  if (it == table_functions_.end()) {
    return Status::NotFound("table function not found: " + name);
  }
  return it->second.get();
}

Status Catalog::RegisterProcedure(StoredProcedure procedure) {
  std::string key = Key(procedure.name);
  if (procedures_.count(key) > 0) {
    return Status::AlreadyExists("procedure already exists: " +
                                 procedure.name);
  }
  procedures_.emplace(std::move(key), std::move(procedure));
  return Status::OK();
}

Status Catalog::DropProcedure(const std::string& name) {
  if (procedures_.erase(Key(name)) == 0) {
    return Status::NotFound("procedure not found: " + name);
  }
  return Status::OK();
}

Result<const StoredProcedure*> Catalog::GetProcedure(
    const std::string& name) const {
  auto it = procedures_.find(Key(name));
  if (it == procedures_.end()) {
    return Status::NotFound("procedure not found: " + name);
  }
  return &it->second;
}

std::vector<std::string> Catalog::TableFunctionNames() const {
  std::vector<std::string> names;
  names.reserve(table_functions_.size());
  for (const auto& [key, fn] : table_functions_) names.push_back(fn->name());
  return names;
}

}  // namespace fedflow::fdbs

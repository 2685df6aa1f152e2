// Workflow data containers. In a production-workflow system (FlowMark /
// MQSeries Workflow lineage) every activity reads an input container and
// writes an output container; data connectors move fields between them. Our
// container holds named slots, each one immutable Table behind a shared
// handle (scalars are 1x1 tables), which uniformly covers scalar parameters
// and table-valued function results. A handle is the unit of parameter
// transfer: the checkpoint, a helper input and a resume share the producing
// activity's table instead of copying it, and the table stays put on the
// heap however many slots are added after it.
#ifndef FEDFLOW_WFMS_CONTAINER_H_
#define FEDFLOW_WFMS_CONTAINER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/table.h"

namespace fedflow::wfms {

/// Named, ordered collection of shared tables. Used as the process-instance
/// data space: one slot per completed activity (its output container) plus
/// the process input fields.
class Container {
 public:
  /// Sets (or replaces) slot `name` to the shared `table`.
  void Set(const std::string& name, std::shared_ptr<const Table> table);

  /// Sets (or replaces) slot `name`, wrapping `table` in a new handle.
  void Set(const std::string& name, Table table);

  /// The slot's handle; NotFound when absent.
  Result<std::shared_ptr<const Table>> Get(const std::string& name) const;

  bool Has(const std::string& name) const;

  /// Slot names in insertion order.
  std::vector<std::string> Names() const;

  /// Wraps a scalar into a 1x1 table with column `column`.
  static Table WrapScalar(const std::string& column, const Value& value);

  /// Extracts a scalar from `table` column `column`; the table must have
  /// exactly one row (the paper's program activities take scalar inputs).
  static Result<Value> ExtractScalar(const Table& table,
                                     const std::string& column);

 private:
  std::vector<std::pair<std::string, std::shared_ptr<const Table>>> slots_;
};

}  // namespace fedflow::wfms

#endif  // FEDFLOW_WFMS_CONTAINER_H_

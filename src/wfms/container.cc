#include "wfms/container.h"

#include "common/strings.h"

namespace fedflow::wfms {

void Container::Set(const std::string& name,
                    std::shared_ptr<const Table> table) {
  for (auto& [slot_name, slot_table] : slots_) {
    if (EqualsIgnoreCase(slot_name, name)) {
      slot_table = std::move(table);
      return;
    }
  }
  slots_.emplace_back(name, std::move(table));
}

void Container::Set(const std::string& name, Table table) {
  Set(name, std::make_shared<const Table>(std::move(table)));
}

Result<std::shared_ptr<const Table>> Container::Get(
    const std::string& name) const {
  for (const auto& [slot_name, slot_table] : slots_) {
    if (EqualsIgnoreCase(slot_name, name)) return slot_table;
  }
  return Status::NotFound("container slot not found: " + name);
}

bool Container::Has(const std::string& name) const {
  for (const auto& [slot_name, slot_table] : slots_) {
    if (EqualsIgnoreCase(slot_name, name)) return true;
  }
  return false;
}

std::vector<std::string> Container::Names() const {
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [slot_name, slot_table] : slots_) {
    names.push_back(slot_name);
  }
  return names;
}

Table Container::WrapScalar(const std::string& column, const Value& value) {
  Schema schema;
  schema.AddColumn(column, value.is_null() ? DataType::kVarchar : value.type());
  Table t(schema);
  t.AppendRowUnchecked({value});
  return t;
}

Result<Value> Container::ExtractScalar(const Table& table,
                                       const std::string& column) {
  FEDFLOW_ASSIGN_OR_RETURN(size_t idx, table.schema().FindColumn(column));
  if (table.num_rows() != 1) {
    return Status::ExecutionError(
        "scalar input requires exactly one row, got " +
        std::to_string(table.num_rows()) + " (column " + column + ")");
  }
  return table.rows()[0][idx];
}

}  // namespace fedflow::wfms

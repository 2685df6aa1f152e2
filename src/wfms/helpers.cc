#include "wfms/helpers.h"

#include <cstdint>

namespace fedflow::wfms {

HelperFn MakeIdentityHelper() {
  return [](const std::vector<const Table*>& inputs) -> Result<Table> {
    if (inputs.size() != 1) {
      return Status::InvalidArgument("identity helper expects 1 input");
    }
    return *inputs[0];
  };
}

HelperFn MakeCastHelper(std::string column, DataType target) {
  return [column = std::move(column),
          target](const std::vector<const Table*>& inputs) -> Result<Table> {
    if (inputs.size() != 1) {
      return Status::InvalidArgument("cast helper expects 1 input");
    }
    const Table& in = *inputs[0];
    FEDFLOW_ASSIGN_OR_RETURN(size_t idx, in.schema().FindColumn(column));
    Schema schema;
    for (size_t c = 0; c < in.schema().num_columns(); ++c) {
      schema.AddColumn(in.schema().column(c).name,
                       c == idx ? target : in.schema().column(c).type);
    }
    Table out(schema);
    for (const Row& r : in.rows()) {
      Row row = r;
      FEDFLOW_ASSIGN_OR_RETURN(row[idx], row[idx].CastTo(target));
      out.AppendRowUnchecked(std::move(row));
    }
    return out;
  };
}

HelperFn MakeRenameHelper(std::vector<std::string> names) {
  return [names = std::move(names)](
             const std::vector<const Table*>& inputs) -> Result<Table> {
    if (inputs.size() != 1) {
      return Status::InvalidArgument("rename helper expects 1 input");
    }
    const Table& in = *inputs[0];
    if (in.schema().num_columns() != names.size()) {
      return Status::InvalidArgument("rename helper: arity mismatch");
    }
    Schema schema;
    for (size_t c = 0; c < names.size(); ++c) {
      schema.AddColumn(names[c], in.schema().column(c).type);
    }
    return Table(schema, in.rows());
  };
}

HelperFn MakeConcatHelper() {
  return [](const std::vector<const Table*>& inputs) -> Result<Table> {
    if (inputs.empty()) {
      return Status::InvalidArgument("concat helper expects >= 1 input");
    }
    Schema schema;
    Row row;
    for (const Table* in : inputs) {
      if (in->num_rows() != 1) {
        return Status::ExecutionError(
            "concat helper requires single-row inputs");
      }
      for (size_t c = 0; c < in->schema().num_columns(); ++c) {
        schema.AddColumn(in->schema().column(c).name,
                         in->schema().column(c).type);
        row.push_back(in->rows()[0][c]);
      }
    }
    Table out(schema);
    out.AppendRowUnchecked(std::move(row));
    return out;
  };
}

HelperFn MakeUnionAllHelper() {
  return [](const std::vector<const Table*>& inputs) -> Result<Table> {
    if (inputs.empty()) {
      return Status::InvalidArgument("union helper expects >= 1 input");
    }
    // Zero-column inputs come from dead-path-eliminated branches; skip them.
    const Schema* schema = nullptr;
    for (const Table* in : inputs) {
      if (in->schema().num_columns() > 0) {
        schema = &in->schema();
        break;
      }
    }
    if (schema == nullptr) return Table();
    Table out(*schema);
    for (const Table* in : inputs) {
      if (in->schema().num_columns() == 0) continue;
      if (in->schema().num_columns() != out.schema().num_columns()) {
        return Status::TypeError("union helper: arity mismatch");
      }
      // Inputs are borrowed: copy the rows once, then batch-append.
      FEDFLOW_RETURN_NOT_OK(out.AppendTableRows(Table(*in)));
    }
    return out;
  };
}

namespace {

/// Bucket-chained hash index over one join input's key column, in flat
/// vectors: no allocation per indexed row. A chain lists its rows in
/// descending row order (each insert becomes the chain head).
class KeyIndex {
 public:
  static constexpr size_t kEnd = static_cast<size_t>(-1);

  KeyIndex(const Table& table, size_t key) {
    const size_t n = table.num_rows();
    while ((size_t{1} << bits_) < 2 * n) ++bits_;
    heads_.assign(size_t{1} << bits_, kEnd);
    next_.resize(n);
    hashes_.resize(n);
    for (size_t r = 0; r < n; ++r) {
      const size_t h = table.rows()[r][key].Hash();
      hashes_[r] = h;
      next_[r] = heads_[Bucket(h)];
      heads_[Bucket(h)] = r;
    }
  }

  /// First row of the chain that may hold `hash`; kEnd when none.
  size_t First(size_t hash) const { return heads_[Bucket(hash)]; }
  size_t Next(size_t row) const { return next_[row]; }
  size_t HashOf(size_t row) const { return hashes_[row]; }

 private:
  /// Fibonacci hashing: the top `bits_` bits of the product depend on every
  /// bit of `hash`. Integer keys hash to themselves, so masking their low
  /// bits would put strided keys (multiples of the table size) in one chain.
  size_t Bucket(size_t hash) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ULL) >>
        (64 - bits_));
  }

  int bits_ = 1;  ///< log2 of the bucket count, at least 1
  std::vector<size_t> heads_;
  std::vector<size_t> next_;
  std::vector<size_t> hashes_;
};

Row Combine(const Row& left, const Row& right) {
  Row row;
  row.reserve(left.size() + right.size());
  row.insert(row.end(), left.begin(), left.end());
  row.insert(row.end(), right.begin(), right.end());
  return row;
}

/// The one hash join. A left and a right row match when their keys hash
/// alike and are SQL-equal (so NULL keys never match). The right rows are
/// indexed and the left rows probe the index; a chain walks its right rows
/// descending, so the output is left row ascending, then matching right row
/// descending.
Result<Table> HashJoin(const std::vector<const Table*>& inputs,
                       size_t left_key, size_t right_key) {
  if (inputs.size() != 2) {
    return Status::InvalidArgument("join helper expects 2 inputs");
  }
  const Table& left = *inputs[0];
  const Table& right = *inputs[1];
  if (left_key >= left.schema().num_columns() ||
      right_key >= right.schema().num_columns()) {
    return Status::Internal("join key index out of range");
  }
  const KeyIndex index(right, right_key);
  Table out(left.schema().Concat(right.schema()));
  for (const Row& lrow : left.rows()) {
    const Value& key = lrow[left_key];
    const size_t h = key.Hash();
    for (size_t r = index.First(h); r != KeyIndex::kEnd; r = index.Next(r)) {
      const Row& rrow = right.rows()[r];
      if (index.HashOf(r) != h || !key.SqlEquals(rrow[right_key])) continue;
      out.AppendRowUnchecked(Combine(lrow, rrow));
    }
  }
  return out;
}

}  // namespace

HelperFn MakeIndexJoinHelper(size_t left_index, size_t right_index) {
  return [left_index, right_index](
             const std::vector<const Table*>& inputs) -> Result<Table> {
    return HashJoin(inputs, left_index, right_index);
  };
}

HelperFn MakeJoinHelper(std::string left_column, std::string right_column) {
  return [lc = std::move(left_column), rc = std::move(right_column)](
             const std::vector<const Table*>& inputs) -> Result<Table> {
    if (inputs.size() != 2) {
      return Status::InvalidArgument("join helper expects 2 inputs");
    }
    FEDFLOW_ASSIGN_OR_RETURN(size_t li, inputs[0]->schema().FindColumn(lc));
    FEDFLOW_ASSIGN_OR_RETURN(size_t ri, inputs[1]->schema().FindColumn(rc));
    return HashJoin(inputs, li, ri);
  };
}

HelperFn MakeProjectHelper(std::vector<std::string> columns) {
  return [columns = std::move(columns)](
             const std::vector<const Table*>& inputs) -> Result<Table> {
    if (inputs.size() != 1) {
      return Status::InvalidArgument("project helper expects 1 input");
    }
    const Table& in = *inputs[0];
    Schema schema;
    std::vector<size_t> idx;
    for (const std::string& c : columns) {
      FEDFLOW_ASSIGN_OR_RETURN(size_t i, in.schema().FindColumn(c));
      idx.push_back(i);
      schema.AddColumn(in.schema().column(i).name, in.schema().column(i).type);
    }
    Table out(schema);
    for (const Row& r : in.rows()) {
      Row row;
      row.reserve(idx.size());
      for (size_t i : idx) row.push_back(r[i]);
      out.AppendRowUnchecked(std::move(row));
    }
    return out;
  };
}

HelperFn MakeConstHelper(std::string name, Value value) {
  return [name = std::move(name), value = std::move(value)](
             const std::vector<const Table*>&) -> Result<Table> {
    Schema schema;
    schema.AddColumn(name,
                     value.is_null() ? DataType::kVarchar : value.type());
    Table out(schema);
    out.AppendRowUnchecked({value});
    return out;
  };
}

}  // namespace fedflow::wfms

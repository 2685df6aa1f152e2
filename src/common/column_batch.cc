#include "common/column_batch.h"

#include <algorithm>

namespace fedflow {

Value ColumnData::GetValue(size_t row) const {
  if (generic_) return generics_[row];
  if (nulls_[row] != 0) return Value::Null();
  switch (type_) {
    case DataType::kNull:
      return Value::Null();  // unreachable: kNull columns are generic
    case DataType::kBool:
      return Value::Bool(bools_[row] != 0);
    case DataType::kInt:
      return Value::Int(ints_[row]);
    case DataType::kBigInt:
      return Value::BigInt(bigints_[row]);
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kVarchar:
      return Value::Varchar(strings_[row]);
  }
  return Value::Null();
}

void ColumnData::Reserve(size_t rows) {
  nulls_.reserve(rows);
  if (generic_) {
    generics_.reserve(rows);
    return;
  }
  switch (type_) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      bools_.reserve(rows);
      break;
    case DataType::kInt:
      ints_.reserve(rows);
      break;
    case DataType::kBigInt:
      bigints_.reserve(rows);
      break;
    case DataType::kDouble:
      doubles_.reserve(rows);
      break;
    case DataType::kVarchar:
      strings_.reserve(rows);
      break;
  }
}

void ColumnData::PushDefault() {
  if (generic_) {
    generics_.emplace_back();
    return;
  }
  switch (type_) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      bools_.push_back(0);
      break;
    case DataType::kInt:
      ints_.push_back(0);
      break;
    case DataType::kBigInt:
      bigints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kVarchar:
      strings_.emplace_back();
      break;
  }
}

void ColumnData::Degrade() {
  if (generic_) return;
  std::vector<Value> values;
  values.reserve(nulls_.size());
  for (size_t i = 0; i < nulls_.size(); ++i) {
    if (nulls_[i] != 0) {
      values.emplace_back();
      continue;
    }
    switch (type_) {
      case DataType::kNull:
        values.emplace_back();
        break;
      case DataType::kBool:
        values.push_back(Value::Bool(bools_[i] != 0));
        break;
      case DataType::kInt:
        values.push_back(Value::Int(ints_[i]));
        break;
      case DataType::kBigInt:
        values.push_back(Value::BigInt(bigints_[i]));
        break;
      case DataType::kDouble:
        values.push_back(Value::Double(doubles_[i]));
        break;
      case DataType::kVarchar:
        values.push_back(Value::Varchar(std::move(strings_[i])));
        break;
    }
  }
  bools_.clear();
  ints_.clear();
  bigints_.clear();
  doubles_.clear();
  strings_.clear();
  generics_ = std::move(values);
  generic_ = true;
}

void ColumnData::AppendNull() {
  nulls_.push_back(1);
  PushDefault();
}

void ColumnData::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if (!generic_ && v.type() != type_) Degrade();
  nulls_.push_back(0);
  if (generic_) {
    generics_.push_back(v);
    return;
  }
  switch (type_) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      bools_.push_back(v.AsBool() ? 1 : 0);
      break;
    case DataType::kInt:
      ints_.push_back(v.AsInt());
      break;
    case DataType::kBigInt:
      bigints_.push_back(v.AsBigInt());
      break;
    case DataType::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case DataType::kVarchar:
      strings_.push_back(v.AsVarchar());
      break;
  }
}

void ColumnData::AppendValueMove(Value&& v) {
  if (!generic_ && !v.is_null() && v.type() == DataType::kVarchar &&
      type_ == DataType::kVarchar) {
    nulls_.push_back(0);
    strings_.push_back(std::move(v).TakeVarchar());
    return;
  }
  if (generic_ && !v.is_null()) {
    nulls_.push_back(0);
    generics_.push_back(std::move(v));
    return;
  }
  AppendValue(v);
}

void ColumnData::AppendValueRepeated(const Value& v, size_t n) {
  if (n == 0) return;
  if (v.is_null()) {
    nulls_.insert(nulls_.end(), n, 1);
    if (generic_) {
      generics_.insert(generics_.end(), n, Value::Null());
    } else {
      switch (type_) {
        case DataType::kNull:
          break;
        case DataType::kBool:
          bools_.insert(bools_.end(), n, 0);
          break;
        case DataType::kInt:
          ints_.insert(ints_.end(), n, 0);
          break;
        case DataType::kBigInt:
          bigints_.insert(bigints_.end(), n, 0);
          break;
        case DataType::kDouble:
          doubles_.insert(doubles_.end(), n, 0.0);
          break;
        case DataType::kVarchar:
          strings_.insert(strings_.end(), n, std::string());
          break;
      }
    }
    return;
  }
  if (!generic_ && v.type() != type_) Degrade();
  nulls_.insert(nulls_.end(), n, 0);
  if (generic_) {
    generics_.insert(generics_.end(), n, v);
    return;
  }
  switch (type_) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      bools_.insert(bools_.end(), n, v.AsBool() ? 1 : 0);
      break;
    case DataType::kInt:
      ints_.insert(ints_.end(), n, v.AsInt());
      break;
    case DataType::kBigInt:
      bigints_.insert(bigints_.end(), n, v.AsBigInt());
      break;
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), n, v.AsDouble());
      break;
    case DataType::kVarchar:
      strings_.insert(strings_.end(), n, v.AsVarchar());
      break;
  }
}

void ColumnData::AppendRange(const ColumnData& src, size_t begin, size_t end) {
  if (begin >= end) return;
  if (generic_ == src.generic_ && type_ == src.type_) {
    nulls_.insert(nulls_.end(), src.nulls_.begin() + begin,
                  src.nulls_.begin() + end);
    if (generic_) {
      generics_.insert(generics_.end(), src.generics_.begin() + begin,
                       src.generics_.begin() + end);
      return;
    }
    switch (type_) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        bools_.insert(bools_.end(), src.bools_.begin() + begin,
                      src.bools_.begin() + end);
        break;
      case DataType::kInt:
        ints_.insert(ints_.end(), src.ints_.begin() + begin,
                     src.ints_.begin() + end);
        break;
      case DataType::kBigInt:
        bigints_.insert(bigints_.end(), src.bigints_.begin() + begin,
                        src.bigints_.begin() + end);
        break;
      case DataType::kDouble:
        doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                        src.doubles_.begin() + end);
        break;
      case DataType::kVarchar:
        strings_.insert(strings_.end(), src.strings_.begin() + begin,
                        src.strings_.begin() + end);
        break;
    }
    return;
  }
  for (size_t i = begin; i < end; ++i) AppendValue(src.GetValue(i));
}

void ColumnData::MoveAppend(ColumnData&& src) {
  if (src.size() == 0) return;
  if (size() == 0 && generic_ == src.generic_ && type_ == src.type_) {
    *this = std::move(src);
    return;
  }
  if (generic_ == src.generic_ && type_ == src.type_) {
    nulls_.insert(nulls_.end(), src.nulls_.begin(), src.nulls_.end());
    if (generic_) {
      generics_.insert(generics_.end(),
                       std::make_move_iterator(src.generics_.begin()),
                       std::make_move_iterator(src.generics_.end()));
      return;
    }
    switch (type_) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        bools_.insert(bools_.end(), src.bools_.begin(), src.bools_.end());
        break;
      case DataType::kInt:
        ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
        break;
      case DataType::kBigInt:
        bigints_.insert(bigints_.end(), src.bigints_.begin(),
                        src.bigints_.end());
        break;
      case DataType::kDouble:
        doubles_.insert(doubles_.end(), src.doubles_.begin(),
                        src.doubles_.end());
        break;
      case DataType::kVarchar:
        strings_.insert(strings_.end(),
                        std::make_move_iterator(src.strings_.begin()),
                        std::make_move_iterator(src.strings_.end()));
        break;
    }
    return;
  }
  AppendRange(src, 0, src.size());
}

void ColumnData::AppendGathered(const ColumnData& src,
                                const std::vector<uint32_t>& sel) {
  if (sel.empty()) return;
  if (generic_ != src.generic_ || type_ != src.type_) {
    for (uint32_t i : sel) AppendValue(src.GetValue(i));
    return;
  }
  nulls_.reserve(nulls_.size() + sel.size());
  for (uint32_t i : sel) nulls_.push_back(src.nulls_[i]);
  if (generic_) {
    generics_.reserve(generics_.size() + sel.size());
    for (uint32_t i : sel) generics_.push_back(src.generics_[i]);
    return;
  }
  switch (type_) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      bools_.reserve(bools_.size() + sel.size());
      for (uint32_t i : sel) bools_.push_back(src.bools_[i]);
      break;
    case DataType::kInt:
      ints_.reserve(ints_.size() + sel.size());
      for (uint32_t i : sel) ints_.push_back(src.ints_[i]);
      break;
    case DataType::kBigInt:
      bigints_.reserve(bigints_.size() + sel.size());
      for (uint32_t i : sel) bigints_.push_back(src.bigints_[i]);
      break;
    case DataType::kDouble:
      doubles_.reserve(doubles_.size() + sel.size());
      for (uint32_t i : sel) doubles_.push_back(src.doubles_[i]);
      break;
    case DataType::kVarchar:
      strings_.reserve(strings_.size() + sel.size());
      for (uint32_t i : sel) strings_.push_back(src.strings_[i]);
      break;
  }
}

ColumnData ColumnData::FromBigInts(std::vector<int64_t> vals,
                                   std::vector<uint8_t> nulls) {
  ColumnData col(DataType::kBigInt);
  col.bigints_ = std::move(vals);
  col.nulls_ = std::move(nulls);
  return col;
}

ColumnData ColumnData::FromDoubles(std::vector<double> vals,
                                   std::vector<uint8_t> nulls) {
  ColumnData col(DataType::kDouble);
  col.doubles_ = std::move(vals);
  col.nulls_ = std::move(nulls);
  return col;
}

Result<ColumnData> ColumnData::CastTo(DataType target) const {
  // Already uniformly the target type: the cast is the identity.
  if (!generic_ && type_ == target) return *this;
  const size_t n = size();
  // Typed widening loops — semantically identical to Value::CastTo for
  // these source/target pairs, minus the per-value boxing.
  if (!generic_ && type_ == DataType::kInt && target == DataType::kBigInt) {
    std::vector<int64_t> out(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (nulls_[i] == 0) out[i] = static_cast<int64_t>(ints_[i]);
    }
    return FromBigInts(std::move(out), nulls_);
  }
  if (!generic_ && type_ == DataType::kInt && target == DataType::kDouble) {
    std::vector<double> out(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (nulls_[i] == 0) out[i] = static_cast<double>(ints_[i]);
    }
    return FromDoubles(std::move(out), nulls_);
  }
  if (!generic_ && type_ == DataType::kBigInt && target == DataType::kDouble) {
    std::vector<double> out(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (nulls_[i] == 0) out[i] = static_cast<double>(bigints_[i]);
    }
    return FromDoubles(std::move(out), nulls_);
  }
  // Everything else (narrowing, parsing, generic columns): the scalar cast
  // per value, erroring at the first failing row like the row path.
  ColumnData out(target);
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Value v = GetValue(i);
    if (!v.is_null() && v.type() != target) {
      FEDFLOW_ASSIGN_OR_RETURN(v, v.CastTo(target));
    }
    out.AppendValueMove(std::move(v));
  }
  return out;
}

ColumnBatch::ColumnBatch(const Schema& schema) : schema_(schema) {
  columns_.reserve(schema_.num_columns());
  for (const Column& c : schema_.columns()) columns_.emplace_back(c.type);
}

ColumnBatch ColumnBatch::FromRows(const Schema& schema,
                                  std::vector<Row>&& rows) {
  ColumnBatch batch(schema);
  batch.Reserve(rows.size());
  for (Row& row : rows) {
    for (size_t c = 0; c < batch.columns_.size(); ++c) {
      batch.columns_[c].AppendValueMove(std::move(row[c]));
    }
  }
  batch.num_rows_ = rows.size();
  rows.clear();
  return batch;
}

ColumnBatch ColumnBatch::FromColumns(const Schema& schema,
                                     std::vector<ColumnData> columns,
                                     size_t rows) {
  ColumnBatch batch;
  batch.schema_ = schema;
  batch.columns_ = std::move(columns);
  batch.num_rows_ = rows;
  return batch;
}

ColumnBatch ColumnBatch::FromRowsCopy(const Schema& schema,
                                      const std::vector<Row>& rows) {
  ColumnBatch batch(schema);
  batch.Reserve(rows.size());
  for (const Row& row : rows) batch.AppendRow(row);
  return batch;
}

std::vector<Row> ColumnBatch::ToRows() const {
  std::vector<Row> rows(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) rows[r].reserve(columns_.size());
  for (const ColumnData& col : columns_) {
    for (size_t r = 0; r < num_rows_; ++r) rows[r].push_back(col.GetValue(r));
  }
  return rows;
}

std::vector<Row> ColumnBatch::TakeRows() {
  std::vector<Row> rows(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) rows[r].reserve(columns_.size());
  for (ColumnData& col : columns_) {
    const bool movable_strings =
        !col.is_generic() && col.type() == DataType::kVarchar;
    for (size_t r = 0; r < num_rows_; ++r) {
      if (movable_strings && !col.IsNull(r)) {
        rows[r].push_back(Value::Varchar(
            std::move(const_cast<std::string&>(col.string_data()[r]))));
      } else if (col.is_generic()) {
        rows[r].push_back(std::move(
            const_cast<std::vector<Value>&>(col.value_data())[r]));
      } else {
        rows[r].push_back(col.GetValue(r));
      }
    }
  }
  columns_.clear();
  for (const Column& c : schema_.columns()) columns_.emplace_back(c.type);
  num_rows_ = 0;
  return rows;
}

void ColumnBatch::Reserve(size_t rows) {
  for (ColumnData& col : columns_) col.Reserve(rows);
}

void ColumnBatch::AppendRow(const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendValue(row[c]);
  }
  ++num_rows_;
}

void ColumnBatch::AppendBatch(ColumnBatch&& other) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].MoveAppend(std::move(other.columns_[c]));
  }
  num_rows_ += other.num_rows_;
  other.num_rows_ = 0;
}

void ColumnBatch::AppendBatchRange(const ColumnBatch& src, size_t begin,
                                   size_t end) {
  if (begin >= end) return;
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRange(src.columns_[c], begin, end);
  }
  num_rows_ += end - begin;
}

void ColumnBatch::AppendSpliced(const Row& partial, ColumnBatch&& fn,
                                size_t offset) {
  const size_t m = fn.num_rows();
  const size_t fc = fn.num_columns();
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c >= offset && c < offset + fc) {
      columns_[c].MoveAppend(std::move(fn.mutable_column(c - offset)));
    } else {
      columns_[c].AppendValueRepeated(partial[c], m);
    }
  }
  num_rows_ += m;
}

void ColumnBatch::AppendSplicedRows(const Row& partial,
                                    const std::vector<Row>& rows, size_t begin,
                                    size_t end, size_t offset, size_t width) {
  if (begin >= end) return;
  const size_t m = end - begin;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c >= offset && c < offset + width) {
      ColumnData& col = columns_[c];
      for (size_t r = begin; r < end; ++r) {
        col.AppendValue(rows[r][c - offset]);
      }
    } else {
      columns_[c].AppendValueRepeated(partial[c], m);
    }
  }
  num_rows_ += m;
}

ColumnBatch ColumnBatch::Project(const Schema& schema, ColumnBatch&& src,
                                 const std::vector<size_t>& columns) {
  ColumnBatch out(schema);
  std::vector<int> first_dest(src.columns_.size(), -1);
  for (size_t i = 0; i < columns.size(); ++i) {
    const size_t c = columns[i];
    if (first_dest[c] < 0) {
      out.columns_[i] = std::move(src.columns_[c]);
      first_dest[c] = static_cast<int>(i);
    } else {
      // Duplicate projection of the same source column: copy from wherever
      // the first occurrence moved it.
      out.columns_[i] = out.columns_[static_cast<size_t>(first_dest[c])];
    }
  }
  out.num_rows_ = src.num_rows_;
  return out;
}

ColumnBatch ColumnBatch::Gather(const std::vector<uint32_t>& sel) const {
  ColumnBatch out(schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c].AppendGathered(columns_[c], sel);
  }
  out.num_rows_ = sel.size();
  return out;
}

void ColumnBatch::Truncate(size_t rows) {
  if (rows >= num_rows_) return;
  std::vector<uint32_t> sel(rows);
  for (size_t i = 0; i < rows; ++i) sel[i] = static_cast<uint32_t>(i);
  *this = Gather(sel);
}

}  // namespace fedflow

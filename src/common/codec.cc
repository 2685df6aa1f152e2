#include "common/codec.h"

#include <cstring>

namespace fedflow {

namespace {
// Wire tags for Value variants.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt = 2;
constexpr uint8_t kTagBigInt = 3;
constexpr uint8_t kTagDouble = 4;
constexpr uint8_t kTagVarchar = 5;
}  // namespace

void ByteWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutI64(int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(u >> (8 * i)));
}

void ByteWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutI64(static_cast<int64_t>(bits));
}

void ByteWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::PutValue(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      PutU8(kTagNull);
      break;
    case DataType::kBool:
      PutU8(kTagBool);
      PutU8(v.AsBool() ? 1 : 0);
      break;
    case DataType::kInt:
      PutU8(kTagInt);
      PutI64(v.AsInt());
      break;
    case DataType::kBigInt:
      PutU8(kTagBigInt);
      PutI64(v.AsBigInt());
      break;
    case DataType::kDouble:
      PutU8(kTagDouble);
      PutDouble(v.AsDouble());
      break;
    case DataType::kVarchar:
      PutU8(kTagVarchar);
      PutString(v.AsVarchar());
      break;
  }
}

void ByteWriter::PutRow(const Row& row) {
  PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) PutValue(v);
}

void ByteWriter::PutSchema(const Schema& schema) {
  PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const Column& c : schema.columns()) {
    PutString(c.name);
    PutU8(static_cast<uint8_t>(c.type));
  }
}

void ByteWriter::PutTable(const Table& table) {
  PutSchema(table.schema());
  PutU32(static_cast<uint32_t>(table.num_rows()));
  for (const Row& r : table.rows()) PutRow(r);
}

Result<uint8_t> ByteReader::GetU8() {
  if (pos_ + 1 > buf_.size()) return Status::ExecutionError("codec: truncated");
  return buf_[pos_++];
}

Result<uint32_t> ByteReader::GetU32() {
  if (pos_ + 4 > buf_.size()) return Status::ExecutionError("codec: truncated");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

Result<int64_t> ByteReader::GetI64() {
  if (pos_ + 8 > buf_.size()) return Status::ExecutionError("codec: truncated");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf_[pos_++]) << (8 * i);
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::GetDouble() {
  FEDFLOW_ASSIGN_OR_RETURN(int64_t bits, GetI64());
  double d;
  uint64_t u = static_cast<uint64_t>(bits);
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

Result<std::string> ByteReader::GetString() {
  FEDFLOW_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (pos_ + len > buf_.size()) return Status::ExecutionError("codec: truncated");
  std::string s(buf_.begin() + pos_, buf_.begin() + pos_ + len);
  pos_ += len;
  return s;
}

Result<Value> ByteReader::GetValue() {
  FEDFLOW_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagBool: {
      FEDFLOW_ASSIGN_OR_RETURN(uint8_t b, GetU8());
      return Value::Bool(b != 0);
    }
    case kTagInt: {
      FEDFLOW_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::Int(static_cast<int32_t>(v));
    }
    case kTagBigInt: {
      FEDFLOW_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::BigInt(v);
    }
    case kTagDouble: {
      FEDFLOW_ASSIGN_OR_RETURN(double v, GetDouble());
      return Value::Double(v);
    }
    case kTagVarchar: {
      FEDFLOW_ASSIGN_OR_RETURN(std::string s, GetString());
      return Value::Varchar(std::move(s));
    }
    default:
      return Status::ExecutionError("codec: bad value tag " +
                                    std::to_string(tag));
  }
}

Result<Row> ByteReader::GetRow() {
  FEDFLOW_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  // Each value costs at least its 1-byte tag: bound the wire-sized reserve.
  if (n > remaining()) return Status::ExecutionError("codec: truncated");
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    FEDFLOW_ASSIGN_OR_RETURN(Value v, GetValue());
    row.push_back(std::move(v));
  }
  return row;
}

Result<Schema> ByteReader::GetSchema() {
  FEDFLOW_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  Schema schema;
  for (uint32_t i = 0; i < n; ++i) {
    FEDFLOW_ASSIGN_OR_RETURN(std::string name, GetString());
    FEDFLOW_ASSIGN_OR_RETURN(uint8_t type, GetU8());
    if (type > static_cast<uint8_t>(DataType::kVarchar)) {
      return Status::ExecutionError("codec: bad type tag");
    }
    schema.AddColumn(std::move(name), static_cast<DataType>(type));
  }
  return schema;
}

Result<Table> ByteReader::GetTable() {
  FEDFLOW_ASSIGN_OR_RETURN(Schema schema, GetSchema());
  FEDFLOW_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  Table table(std::move(schema));
  for (uint32_t i = 0; i < n; ++i) {
    FEDFLOW_ASSIGN_OR_RETURN(Row row, GetRow());
    if (row.size() != table.schema().num_columns()) {
      return Status::ExecutionError("codec: row arity mismatch");
    }
    table.AppendRowUnchecked(std::move(row));
  }
  return table;
}

}  // namespace fedflow

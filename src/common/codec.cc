#include "common/codec.h"

#include <cstring>

#include "common/column_batch.h"

namespace fedflow {

namespace {
// Wire tags for Value variants.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt = 2;
constexpr uint8_t kTagBigInt = 3;
constexpr uint8_t kTagDouble = 4;
constexpr uint8_t kTagVarchar = 5;

/// Writes `v` little-endian at `out`; returns the end of the written bytes.
template <typename U>
uint8_t* StoreLe(U v, uint8_t* out) {
  for (size_t i = 0; i < sizeof(U); ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return out + sizeof(U);
}

/// Reads a little-endian U from in[0, sizeof(U)).
template <typename U>
U LoadLe(const uint8_t* in) {
  U v = 0;
  for (size_t i = 0; i < sizeof(U); ++i) v |= static_cast<U>(in[i]) << (8 * i);
  return v;
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint8_t* StoreString(const std::string& s, uint8_t* out) {
  out = StoreLe(static_cast<uint32_t>(s.size()), out);
  std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

/// Encoded size of one value: its tag plus its payload.
size_t EncodedSize(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return 1;
    case DataType::kBool:
      return 2;
    case DataType::kInt:
    case DataType::kBigInt:
    case DataType::kDouble:
      return 9;
    case DataType::kVarchar:
      return 5 + v.AsVarchar().size();
  }
  return 1;
}

size_t EncodedSize(const Row& row) {
  size_t n = 4;  // arity
  for (const Value& v : row) n += EncodedSize(v);
  return n;
}

size_t EncodedSize(const Schema& schema) {
  size_t n = 4;  // column count
  for (const Column& c : schema.columns()) n += 4 + c.name.size() + 1;
  return n;
}

/// The one value encoder: writes the tag and payload of `v` at `out` (which
/// has room for EncodedSize(v) bytes) and returns their end.
uint8_t* StoreValue(const Value& v, uint8_t* out) {
  switch (v.type()) {
    case DataType::kNull:
      *out = kTagNull;
      return out + 1;
    case DataType::kBool:
      out[0] = kTagBool;
      out[1] = v.AsBool() ? 1 : 0;
      return out + 2;
    case DataType::kInt:
      *out = kTagInt;
      return StoreLe(static_cast<uint64_t>(static_cast<int64_t>(v.AsInt())),
                     out + 1);
    case DataType::kBigInt:
      *out = kTagBigInt;
      return StoreLe(static_cast<uint64_t>(v.AsBigInt()), out + 1);
    case DataType::kDouble:
      *out = kTagDouble;
      return StoreLe(DoubleBits(v.AsDouble()), out + 1);
    case DataType::kVarchar:
      *out = kTagVarchar;
      return StoreString(v.AsVarchar(), out + 1);
  }
  return out;
}

uint8_t* StoreRow(const Row& row, uint8_t* out) {
  out = StoreLe(static_cast<uint32_t>(row.size()), out);
  for (const Value& v : row) out = StoreValue(v, out);
  return out;
}

uint8_t* StoreSchema(const Schema& schema, uint8_t* out) {
  out = StoreLe(static_cast<uint32_t>(schema.num_columns()), out);
  for (const Column& c : schema.columns()) {
    out = StoreString(c.name, out);
    *out++ = static_cast<uint8_t>(c.type);
  }
  return out;
}

Status Truncated() { return Status::ExecutionError("codec: truncated"); }

Status ArityMismatch() {
  return Status::ExecutionError("codec: row arity mismatch");
}

/// A bounds-checked read position. The decode loops work on a local copy,
/// so it stays in registers across the stores into their output.
struct Cursor {
  const uint8_t* at;
  const uint8_t* end;

  /// Consumes `n` bytes; null (and nothing consumed) when fewer are left.
  const uint8_t* Take(size_t n) {
    if (n > static_cast<size_t>(end - at)) return nullptr;
    const uint8_t* p = at;
    at += n;
    return p;
  }
};

/// The one value decoder: reads a tag and its payload and appends the typed
/// payload to `sink` (a ColumnData, or GetValue's one-Value sink). False,
/// with `*error` set, on a truncated buffer or a bad tag.
template <typename Sink>
bool DecodeValue(Cursor& in, Sink& sink, Status* error) {
  const uint8_t* tag = in.Take(1);
  const uint8_t* p = nullptr;
  if (tag == nullptr) {
    *error = Truncated();
    return false;
  }
  switch (*tag) {
    case kTagNull:
      sink.AppendNull();
      return true;
    case kTagBool:
      if ((p = in.Take(1)) == nullptr) break;
      sink.AppendBool(*p != 0);
      return true;
    case kTagInt:
      if ((p = in.Take(8)) == nullptr) break;
      sink.AppendInt(static_cast<int32_t>(LoadLe<uint64_t>(p)));
      return true;
    case kTagBigInt:
      if ((p = in.Take(8)) == nullptr) break;
      sink.AppendBigInt(static_cast<int64_t>(LoadLe<uint64_t>(p)));
      return true;
    case kTagDouble:
      if ((p = in.Take(8)) == nullptr) break;
      sink.AppendDouble(BitsDouble(LoadLe<uint64_t>(p)));
      return true;
    case kTagVarchar: {
      if ((p = in.Take(4)) == nullptr) break;
      const uint32_t len = LoadLe<uint32_t>(p);
      if ((p = in.Take(len)) == nullptr) break;
      sink.AppendVarchar(std::string(p, p + len));
      return true;
    }
    default:
      *error = Status::ExecutionError("codec: bad value tag " +
                                      std::to_string(*tag));
      return false;
  }
  *error = Truncated();
  return false;
}

/// DecodeValue sink of GetValue: boxes the payload into one Value.
struct ValueSink {
  Value value;
  void AppendNull() {}
  void AppendBool(bool v) { value = Value::Bool(v); }
  void AppendInt(int32_t v) { value = Value::Int(v); }
  void AppendBigInt(int64_t v) { value = Value::BigInt(v); }
  void AppendDouble(double v) { value = Value::Double(v); }
  void AppendVarchar(std::string&& v) { value = Value::Varchar(std::move(v)); }
};
}  // namespace

void ByteWriter::PutU32(uint32_t v) { StoreLe(v, Grow(4)); }

void ByteWriter::PutI64(int64_t v) {
  StoreLe(static_cast<uint64_t>(v), Grow(8));
}

void ByteWriter::PutString(const std::string& s) {
  StoreString(s, Grow(4 + s.size()));
}

void ByteWriter::PutValue(const Value& v) {
  StoreValue(v, Grow(EncodedSize(v)));
}

void ByteWriter::PutRow(const Row& row) {
  StoreRow(row, Grow(EncodedSize(row)));
}

void ByteWriter::PutSchema(const Schema& schema) {
  StoreSchema(schema, Grow(EncodedSize(schema)));
}

void ByteWriter::PutTable(const Table& table) {
  size_t n = EncodedSize(table.schema()) + 4;  // + row count
  for (const Row& r : table.rows()) n += EncodedSize(r);
  uint8_t* out = StoreSchema(table.schema(), Grow(n));
  out = StoreLe(static_cast<uint32_t>(table.num_rows()), out);
  for (const Row& r : table.rows()) out = StoreRow(r, out);
}

const uint8_t* ByteReader::Take(size_t n) {
  Cursor in{at_, end_};
  const uint8_t* p = in.Take(n);
  at_ = in.at;
  return p;
}

Result<uint8_t> ByteReader::GetU8() {
  const uint8_t* p = Take(1);
  if (p == nullptr) return Truncated();
  return *p;
}

Result<uint32_t> ByteReader::GetU32() {
  const uint8_t* p = Take(4);
  if (p == nullptr) return Truncated();
  return LoadLe<uint32_t>(p);
}

Result<int64_t> ByteReader::GetI64() {
  const uint8_t* p = Take(8);
  if (p == nullptr) return Truncated();
  return static_cast<int64_t>(LoadLe<uint64_t>(p));
}

Result<std::string> ByteReader::GetString() {
  FEDFLOW_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  const uint8_t* p = Take(len);
  if (p == nullptr) return Truncated();
  return std::string(p, p + len);
}

Result<Value> ByteReader::GetValue() {
  Cursor in{at_, end_};
  ValueSink sink;
  Status error;
  if (!DecodeValue(in, sink, &error)) return error;
  at_ = in.at;
  return std::move(sink.value);
}

Status ByteReader::GetRowsInto(size_t rows, std::vector<ColumnData>& columns) {
  Cursor in{at_, end_};
  Status error;
  for (size_t r = 0; r < rows; ++r) {
    const uint8_t* arity = in.Take(4);
    if (arity == nullptr) return Truncated();
    if (LoadLe<uint32_t>(arity) != columns.size()) return ArityMismatch();
    for (ColumnData& column : columns) {
      if (!DecodeValue(in, column, &error)) return error;
    }
  }
  at_ = in.at;
  return error;
}

Result<Row> ByteReader::GetRow() {
  FEDFLOW_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  // Each value costs at least its 1-byte tag: bound the wire-sized reserve.
  if (n > remaining()) return Truncated();
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    FEDFLOW_ASSIGN_OR_RETURN(Value v, GetValue());
    row.push_back(std::move(v));
  }
  return row;
}

Status ByteReader::GetRows(size_t rows, size_t width, std::vector<Row>& out) {
  for (size_t r = 0; r < rows; ++r) {
    FEDFLOW_ASSIGN_OR_RETURN(Row row, GetRow());
    if (row.size() != width) return ArityMismatch();
    out.push_back(std::move(row));
  }
  return Status::OK();
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
  FEDFLOW_RETURN_NOT_OK(
      GetRows(n, table.schema().num_columns(), table.mutable_rows()));
  return table;
}

}  // namespace fedflow

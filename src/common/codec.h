// Binary marshalling of values, rows and tables. Used by the simulated RMI
// channel between the FDBS-side UDTF processes, the controller, and the
// application systems — parameters really are serialized and deserialized on
// every remote call, as in the paper's prototype.
//
// Wire layout (little-endian): a value is a 1-byte type tag plus its payload
// (BOOL 1 byte, INT/BIGINT/DOUBLE 8 bytes, VARCHAR a 4-byte length and the
// bytes, NULL nothing); a row is a 4-byte arity plus its values; a table is
// its schema, a 4-byte row count and its rows.
#ifndef FEDFLOW_COMMON_CODEC_H_
#define FEDFLOW_COMMON_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/table.h"

namespace fedflow {

class ColumnData;

/// Append-only byte sink for encoding. Every Put sizes its bytes first and
/// grows the buffer once, then writes them — PutTable once for the whole
/// table.
class ByteWriter {
 public:
  void PutU32(uint32_t v);
  void PutI64(int64_t v);
  void PutString(const std::string& s);
  void PutValue(const Value& v);
  void PutRow(const Row& row);
  void PutSchema(const Schema& schema);
  void PutTable(const Table& table);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }
  /// Moves the encoded bytes out; the writer is empty afterwards.
  std::vector<uint8_t> TakeBuffer() && { return std::move(buf_); }

 private:
  /// Appends `n` bytes and returns where they start, for the caller to fill.
  uint8_t* Grow(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  std::vector<uint8_t> buf_;
};

/// Sequential byte source for decoding; every Get checks for truncation.
class ByteReader {
 public:
  /// Reads `buf`, which must outlive the reader and stay unmodified.
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : begin_(buf.data()), at_(begin_), end_(begin_ + buf.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<int64_t> GetI64();
  Result<std::string> GetString();
  Result<Value> GetValue();
  Result<Row> GetRow();
  Result<Schema> GetSchema();
  Result<Table> GetTable();

  /// Decodes `rows` rows of `width` values each and appends them to `out`.
  /// A row whose arity is not `width` is an error.
  Status GetRows(size_t rows, size_t width, std::vector<Row>& out);

  /// Decodes `rows` rows straight into `columns`, one per schema column,
  /// with no Row or Value in between. Each value's tag is checked like
  /// GetValue's; a value whose type is not its column's declared type
  /// degrades the column exactly as ColumnData::AppendValueMove would. A row
  /// whose arity is not columns.size() is an error.
  Status GetRowsInto(size_t rows, std::vector<ColumnData>& columns);

  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return at_ == end_; }

  /// Bytes consumed so far.
  size_t position() const { return static_cast<size_t>(at_ - begin_); }

  /// Bytes not yet consumed.
  size_t remaining() const { return static_cast<size_t>(end_ - at_); }

 private:
  /// Consumes `n` bytes; null (and nothing consumed) when fewer are left.
  const uint8_t* Take(size_t n);

  const uint8_t* begin_;
  const uint8_t* at_;
  const uint8_t* end_;
};

}  // namespace fedflow

#endif  // FEDFLOW_COMMON_CODEC_H_

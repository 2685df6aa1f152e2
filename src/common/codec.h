// Binary marshalling of values, rows and tables. Used by the simulated RMI
// channel between the FDBS-side UDTF processes, the controller, and the
// application systems — parameters really are serialized and deserialized on
// every remote call, as in the paper's prototype.
#ifndef FEDFLOW_COMMON_CODEC_H_
#define FEDFLOW_COMMON_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/table.h"

namespace fedflow {

/// Append-only byte sink for encoding.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);
  void PutString(const std::string& s);
  void PutValue(const Value& v);
  void PutRow(const Row& row);
  void PutSchema(const Schema& schema);
  void PutTable(const Table& table);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential byte source for decoding; every Get checks for truncation.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<Value> GetValue();
  Result<Row> GetRow();
  Result<Schema> GetSchema();
  Result<Table> GetTable();

  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return pos_ == buf_.size(); }

  /// Bytes not yet consumed.
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

}  // namespace fedflow

#endif  // FEDFLOW_COMMON_CODEC_H_

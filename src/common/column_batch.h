// Columnar batch representation: the cache-friendly counterpart of the
// row-oriented RowBatch. One ColumnData per schema column holds a typed
// vector (one std::vector<T> per DataType) plus a null map, so vectorized
// operators (filters, casts, the lateral splice) run tight loops over
// contiguous typed data instead of touching a std::variant per cell.
//
// The representation is lossless with respect to rows: a column whose
// values do not all carry the declared type (kNull-typed columns, mixed
// intermediate results) degrades to a generic Value vector, and
// FromRows/ToRows round-trip every batch bit-identically. Columnar execution
// is therefore a pure wall-clock optimization — it never changes results,
// row order, or the virtual-time cost model.
#ifndef FEDFLOW_COMMON_COLUMN_BATCH_H_
#define FEDFLOW_COMMON_COLUMN_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/table.h"
#include "common/value.h"

namespace fedflow {

/// One column of a ColumnBatch. Physically either "typed" — the vector
/// matching the declared DataType plus a parallel null map (one byte per row;
/// placeholder defaults keep the typed vector aligned at NULL positions) —
/// or "generic", a plain Value vector used when the declared type is kNull or
/// a value of a different type is appended (the degradation that keeps
/// row↔column conversion lossless).
class ColumnData {
 public:
  ColumnData() : ColumnData(DataType::kNull) {}
  explicit ColumnData(DataType declared)
      : type_(declared), generic_(declared == DataType::kNull) {}

  /// Declared column type (the schema type, not necessarily every value's).
  DataType type() const { return type_; }
  /// True when values live in the generic Value vector.
  bool is_generic() const { return generic_; }

  size_t size() const { return nulls_.size(); }
  bool IsNull(size_t row) const { return nulls_[row] != 0; }

  /// Reconstructs the row-form value at `row`.
  Value GetValue(size_t row) const;

  void Reserve(size_t rows);
  void AppendValue(const Value& v);
  /// Moves string payloads instead of copying them.
  void AppendValueMove(Value&& v);
  void AppendNull();
  /// Typed appends, each equal to AppendValueMove(Value::X(v)) minus the
  /// Value: a typed column of that type takes the payload directly, any
  /// other column boxes it or degrades exactly as AppendValueMove would.
  void AppendBool(bool v) {
    if (IsTyped(DataType::kBool)) {
      nulls_.push_back(0);
      bools_.push_back(v ? 1 : 0);
    } else {
      AppendValueMove(Value::Bool(v));
    }
  }
  void AppendInt(int32_t v) {
    if (IsTyped(DataType::kInt)) {
      nulls_.push_back(0);
      ints_.push_back(v);
    } else {
      AppendValueMove(Value::Int(v));
    }
  }
  void AppendBigInt(int64_t v) {
    if (IsTyped(DataType::kBigInt)) {
      nulls_.push_back(0);
      bigints_.push_back(v);
    } else {
      AppendValueMove(Value::BigInt(v));
    }
  }
  void AppendDouble(double v) {
    if (IsTyped(DataType::kDouble)) {
      nulls_.push_back(0);
      doubles_.push_back(v);
    } else {
      AppendValueMove(Value::Double(v));
    }
  }
  void AppendVarchar(std::string&& v) {
    if (IsTyped(DataType::kVarchar)) {
      nulls_.push_back(0);
      strings_.push_back(std::move(v));
    } else {
      AppendValueMove(Value::Varchar(std::move(v)));
    }
  }
  /// Appends `n` copies of `v` (the partial-row side of the lateral splice).
  void AppendValueRepeated(const Value& v, size_t n);
  /// Appends rows [begin, end) of `src`.
  void AppendRange(const ColumnData& src, size_t begin, size_t end);
  /// Appends all of `src`, moving storage when the representations match.
  void MoveAppend(ColumnData&& src);
  /// Appends src[sel[i]] for each selection index, in order.
  void AppendGathered(const ColumnData& src, const std::vector<uint32_t>& sel);

  /// Typed storage accessors; only the vector matching type() (or value_data
  /// when is_generic()) is populated.
  const std::vector<uint8_t>& null_map() const { return nulls_; }
  const std::vector<uint8_t>& bool_data() const { return bools_; }
  const std::vector<int32_t>& int_data() const { return ints_; }
  const std::vector<int64_t>& bigint_data() const { return bigints_; }
  const std::vector<double>& double_data() const { return doubles_; }
  const std::vector<std::string>& string_data() const { return strings_; }
  const std::vector<Value>& value_data() const { return generics_; }

  /// Kernel-output builders: adopt precomputed typed vectors. `nulls` must
  /// be the same length as `vals`; placeholder values at null positions are
  /// ignored.
  static ColumnData FromBigInts(std::vector<int64_t> vals,
                                std::vector<uint8_t> nulls);
  static ColumnData FromDoubles(std::vector<double> vals,
                                std::vector<uint8_t> nulls);

  /// Casts every value to `target` with Value::CastTo semantics (NULL casts
  /// to NULL; numeric widenings run as typed loops, everything else falls
  /// back to the scalar cast per value). Errors at the first failing row.
  Result<ColumnData> CastTo(DataType target) const;

 private:
  /// True when values of `type` go straight into typed storage.
  bool IsTyped(DataType type) const { return !generic_ && type_ == type; }
  /// Converts typed storage to the generic representation.
  void Degrade();
  /// Pushes a placeholder into the active storage (null positions).
  void PushDefault();

  DataType type_;
  bool generic_;
  std::vector<uint8_t> nulls_;  ///< null map: 1 = NULL, one byte per row
  std::vector<uint8_t> bools_;
  std::vector<int32_t> ints_;
  std::vector<int64_t> bigints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<Value> generics_;
};

/// A batch of rows stored column-wise. All columns have length num_rows().
class ColumnBatch {
 public:
  ColumnBatch() = default;
  explicit ColumnBatch(const Schema& schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  bool empty() const { return num_rows_ == 0; }

  const ColumnData& column(size_t c) const { return columns_[c]; }
  ColumnData& mutable_column(size_t c) { return columns_[c]; }

  /// Builds a batch from row form, moving the values out of `rows`.
  static ColumnBatch FromRows(const Schema& schema, std::vector<Row>&& rows);
  /// Copying variant (the source rows stay intact).
  static ColumnBatch FromRowsCopy(const Schema& schema,
                                  const std::vector<Row>& rows);
  /// Adopts `columns`, one per schema column, each `rows` long (the RMI
  /// response decoder fills them straight off the wire).
  static ColumnBatch FromColumns(const Schema& schema,
                                 std::vector<ColumnData> columns, size_t rows);

  /// Converts back to row form, copying values.
  std::vector<Row> ToRows() const;
  /// Converts back to row form, moving string payloads out; the batch is
  /// empty afterwards.
  std::vector<Row> TakeRows();

  void Reserve(size_t rows);
  void AppendRow(const Row& row);
  /// Column-wise append of a whole batch; storage is moved when shapes match.
  void AppendBatch(ColumnBatch&& other);
  /// Column-wise copy of rows [begin, end) of `src` (same schema width).
  void AppendBatchRange(const ColumnBatch& src, size_t begin, size_t end);

  /// The lateral-join inner loop in columnar form: appends fn.num_rows()
  /// combined rows that repeat `partial` everywhere except columns
  /// [offset, offset + fn.num_columns()), which take fn's columns (moved).
  void AppendSpliced(const Row& partial, ColumnBatch&& fn, size_t offset);

  /// The cross-scan inner loop: appends rows [begin, end) of `rows`
  /// (each of width `width`) spliced into `partial` at `offset`.
  void AppendSplicedRows(const Row& partial, const std::vector<Row>& rows,
                         size_t begin, size_t end, size_t offset,
                         size_t width);

  /// New batch holding rows sel[0], sel[1], ... in selection order.
  ColumnBatch Gather(const std::vector<uint32_t>& sel) const;

  /// New batch with `schema` adopting (moving) src's columns[i] for each i in
  /// `columns`, in order. Row count carries over from `src`.
  static ColumnBatch Project(const Schema& schema, ColumnBatch&& src,
                             const std::vector<size_t>& columns);

  /// Truncates to the first `rows` rows (no-op when already shorter).
  void Truncate(size_t rows);

 private:
  Schema schema_;
  std::vector<ColumnData> columns_;
  size_t num_rows_ = 0;
};

}  // namespace fedflow

#endif  // FEDFLOW_COMMON_COLUMN_BATCH_H_

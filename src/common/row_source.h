// Pull-based streaming of rows in fixed-size batches. A RowSource is the
// unit of composition for the execution pipeline: the FDBS FROM chain, the
// couplings (A-UDTF results streaming into the I-UDTF chain), the chunked
// RMI channel and the WfMS containers all speak this protocol, so
// intermediate results no longer have to be materialized as a full Table at
// every tier boundary. Materialization happens only at statement boundaries
// (DrainToTable) and inside inherently blocking operators (sorts, joins,
// aggregation).
#ifndef FEDFLOW_COMMON_ROW_SOURCE_H_
#define FEDFLOW_COMMON_ROW_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/column_batch.h"
#include "common/result.h"
#include "common/table.h"

namespace fedflow {

/// Default number of rows per pulled batch. Small enough to bound resident
/// intermediate state, large enough to amortize per-batch overhead.
inline constexpr size_t kDefaultRowBatchSize = 256;

/// One batch of rows pulled through a pipeline. All rows conform to the
/// producing source's schema(). An empty batch signals exhaustion.
struct RowBatch {
  std::vector<Row> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
};

/// Tracks how many rows are buffered inside a pipeline's operators at any
/// moment. Operators Acquire() rows when they buffer them and Release() when
/// the rows move downstream (or into the final result table), so
/// peak_resident_rows measures the peak *intermediate* row residency — the
/// quantity the streaming refactor bounds by O(batch size · pipeline depth)
/// where the materializing path held entire cross products.
struct PipelineStats {
  size_t resident_rows = 0;       ///< rows currently buffered in operators
  size_t peak_resident_rows = 0;  ///< high-water mark of resident_rows
  size_t batches_emitted = 0;     ///< total batches handed between operators
  size_t rows_emitted = 0;        ///< total rows handed between operators
  size_t columnar_batches = 0;    ///< batches that moved column-wise

  void Acquire(size_t n) {
    resident_rows += n;
    peak_resident_rows = std::max(peak_resident_rows, resident_rows);
  }
  void Release(size_t n) { resident_rows -= std::min(n, resident_rows); }
  void Emitted(const RowBatch& batch) {
    ++batches_emitted;
    rows_emitted += batch.size();
  }
  /// Columnar counterpart of Emitted(): same batch/row accounting so
  /// golden metrics do not depend on which representation a batch used,
  /// plus the columnar_batches count.
  void EmittedColumnar(size_t rows) {
    ++batches_emitted;
    ++columnar_batches;
    rows_emitted += rows;
  }
};

/// A pull-based producer of row batches.
class RowSource {
 public:
  virtual ~RowSource() = default;

  /// Schema every produced row conforms to.
  virtual const Schema& schema() const = 0;

  /// Pulls the next batch. An empty batch means the source is exhausted;
  /// subsequent calls keep returning empty batches.
  virtual Result<RowBatch> Next() = 0;

  /// Columnar fast path: pulls the next batch in column-wise form. The
  /// default implementation adapts Next(), so every source supports it;
  /// sources that produce columns natively override it to skip the row
  /// intermediate. A consumer must stick to one of Next()/NextColumns()
  /// for the lifetime of a source (they share the underlying cursor).
  virtual Result<ColumnBatch> NextColumns();

  /// Rows this source still expects to produce, when cheaply known.
  /// Purely a capacity-reservation hint — never used for control flow.
  virtual std::optional<size_t> SizeHint() const { return std::nullopt; }
};

using RowSourcePtr = std::unique_ptr<RowSource>;

/// Streams an owned table in batches of `batch_size` (a Table -> RowSource
/// adapter; the reverse adapter is DrainToTable).
RowSourcePtr MakeTableSource(Table table,
                             size_t batch_size = kDefaultRowBatchSize);

/// Streams a borrowed table; `table` must outlive the source.
RowSourcePtr MakeBorrowedTableSource(const Table* table,
                                     size_t batch_size = kDefaultRowBatchSize);

/// A source driven by a generator callback: each call yields the next batch
/// (empty = exhausted). The schema is copied into the source.
RowSourcePtr MakeGeneratorSource(Schema schema,
                                 std::function<Result<RowBatch>()> generate);

/// Streams an owned columnar batch in batches of `batch_size`. NextColumns()
/// slices column-wise; Next() falls back to row reconstruction.
RowSourcePtr MakeColumnSource(ColumnBatch batch,
                              size_t batch_size = kDefaultRowBatchSize);

/// Computes the surviving row indices of a columnar batch, in row order.
/// `sel` arrives empty; on success it holds the kept indices.
using SelectionFn =
    std::function<Status(const ColumnBatch&, std::vector<uint32_t>*)>;

/// Columnar filter operator: pulls column batches from `input`, applies
/// `select`, and emits the gathered survivors. Mirrors the row filter's
/// PipelineStats protocol (consume whole batch, emit only non-empty
/// outputs) so residency metrics are representation-independent.
RowSourcePtr MakeColumnarFilterSource(RowSourcePtr input, SelectionFn select,
                                      PipelineStats* stats = nullptr);

/// Columnar projection operator: emits `columns` of the input, in order.
RowSourcePtr MakeProjectionSource(RowSourcePtr input,
                                  std::vector<size_t> columns);

/// Drains `source` to a materialized table — a statement boundary. Rows are
/// moved, not copied.
Result<Table> DrainToTable(RowSource& source);
inline Result<Table> DrainToTable(const RowSourcePtr& source) {
  return DrainToTable(*source);
}

}  // namespace fedflow

#endif  // FEDFLOW_COMMON_ROW_SOURCE_H_

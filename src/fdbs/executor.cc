#include "fdbs/executor.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "common/dag.h"
#include "common/strings.h"
#include "fdbs/catalog.h"
#include "fdbs/database.h"
#include "obs/trace.h"

namespace fedflow::fdbs {

using sql::BinaryExpr;
using sql::CaseExpr;
using sql::ColumnRefExpr;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::FunctionCallExpr;
using sql::SelectItem;
using sql::SelectStmt;
using sql::TableRef;
using sql::TableRefKind;
using sql::UnaryExpr;

namespace {

/// Collects all column references in an expression tree.
void CollectColumnRefs(const Expr& expr,
                       std::vector<const ColumnRefExpr*>* out) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return;
    case ExprKind::kColumnRef:
      out->push_back(static_cast<const ColumnRefExpr*>(&expr));
      return;
    case ExprKind::kFunctionCall:
      for (const auto& arg :
           static_cast<const FunctionCallExpr&>(expr).args()) {
        CollectColumnRefs(*arg, out);
      }
      return;
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      CollectColumnRefs(*bin.left(), out);
      CollectColumnRefs(*bin.right(), out);
      return;
    }
    case ExprKind::kUnary:
      CollectColumnRefs(*static_cast<const UnaryExpr&>(expr).operand(), out);
      return;
    case ExprKind::kCase: {
      const auto& case_expr = static_cast<const CaseExpr&>(expr);
      for (const CaseExpr::Branch& b : case_expr.branches()) {
        CollectColumnRefs(*b.condition, out);
        CollectColumnRefs(*b.value, out);
      }
      if (case_expr.else_value() != nullptr) {
        CollectColumnRefs(*case_expr.else_value(), out);
      }
      return;
    }
  }
}

/// Collects aggregate calls (COUNT/SUM/...) in an expression tree.
void CollectAggregates(const Expr& expr,
                       std::vector<const FunctionCallExpr*>* out) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return;
    case ExprKind::kFunctionCall: {
      const auto& call = static_cast<const FunctionCallExpr&>(expr);
      if (Evaluator::IsAggregateName(call.name())) {
        out->push_back(&call);
        return;  // aggregates cannot nest
      }
      for (const auto& arg : call.args()) CollectAggregates(*arg, out);
      return;
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      CollectAggregates(*bin.left(), out);
      CollectAggregates(*bin.right(), out);
      return;
    }
    case ExprKind::kUnary:
      CollectAggregates(*static_cast<const UnaryExpr&>(expr).operand(), out);
      return;
    case ExprKind::kCase: {
      const auto& case_expr = static_cast<const CaseExpr&>(expr);
      for (const CaseExpr::Branch& b : case_expr.branches()) {
        CollectAggregates(*b.condition, out);
        CollectAggregates(*b.value, out);
      }
      if (case_expr.else_value() != nullptr) {
        CollectAggregates(*case_expr.else_value(), out);
      }
      return;
    }
  }
}

/// Output column name for a select expression without an explicit alias.
std::string DeriveName(const Expr& expr, size_t index) {
  if (expr.kind() == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr&>(expr).name();
  }
  if (expr.kind() == ExprKind::kFunctionCall) {
    return static_cast<const FunctionCallExpr&>(expr).name();
  }
  return "col" + std::to_string(index + 1);
}

/// Comparator state for sorting with error capture.
struct SortError {
  Status status = Status::OK();
};

/// Splits a predicate into its top-level AND conjuncts.
void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*expr);
    if (bin.op() == sql::BinaryOp::kAnd) {
      SplitConjuncts(bin.left(), out);
      SplitConjuncts(bin.right(), out);
      return;
    }
  }
  out->push_back(expr);
}

// ---------------------------------------------------------------------------
// The FROM chain as a pull-based pipeline. Each operator produces full-width
// combined rows (columns of not-yet-executed items are NULL) in batches of at
// most chain->batch_size rows, so only O(batch size · chain depth) rows are
// resident between the scans/function calls and the statement boundary —
// the old path materialized the entire intermediate cross product after
// every FROM item.
// ---------------------------------------------------------------------------

/// State shared by all operators of one chain (borrowed; outlives the drain).
struct ChainState {
  RowScope* scope = nullptr;
  Evaluator* eval = nullptr;
  fedflow::fdbs::ExecContext* ctx = nullptr;
  const Schema* combined_schema = nullptr;
  size_t batch_size = kDefaultRowBatchSize;
  PipelineStats* stats = nullptr;  // may be null

  void Emit(const RowBatch& batch) const {
    if (stats != nullptr && !batch.empty()) {
      stats->Acquire(batch.size());
      stats->Emitted(batch);
    }
  }
  /// Columnar counterpart of Emit: same residency accounting and batch
  /// cadence, plus the columnar-batch counter.
  void EmitColumnar(const ColumnBatch& batch) const {
    if (stats != nullptr && !batch.empty()) {
      stats->Acquire(batch.num_rows());
      stats->EmittedColumnar(batch.num_rows());
    }
  }
  void Consumed(size_t n) const {
    if (stats != nullptr) stats->Release(n);
  }
};

/// Emits the single all-NULL seed row the lateral chain starts from.
class SeedSource : public RowSource {
 public:
  SeedSource(const ChainState* chain, size_t width)
      : chain_(chain), width_(width) {}

  const Schema& schema() const override { return *chain_->combined_schema; }

  Result<RowBatch> Next() override {
    RowBatch batch;
    if (!emitted_) {
      emitted_ = true;
      batch.rows.emplace_back(width_, Value::Null());
      chain_->Emit(batch);
    }
    return batch;
  }

 private:
  const ChainState* chain_;
  size_t width_;
  bool emitted_ = false;
};

/// Crosses every input row with the rows of a (borrowed or owned) table —
/// base-table scans and pre-materialized external scans.
class CrossScanSource : public RowSource {
 public:
  CrossScanSource(const ChainState* chain, RowSourcePtr input,
                  const Table* base, size_t offset)
      : chain_(chain), input_(std::move(input)), base_(base), offset_(offset) {}

  /// Variant owning the scanned data (external tables fetched per scan).
  CrossScanSource(const ChainState* chain, RowSourcePtr input, Table owned,
                  size_t offset)
      : chain_(chain),
        input_(std::move(input)),
        owned_(std::move(owned)),
        base_(&owned_),
        offset_(offset) {}

  const Schema& schema() const override { return *chain_->combined_schema; }

  Result<RowBatch> Next() override {
    RowBatch out;
    const std::vector<Row>& base_rows = base_->rows();
    while (out.size() < chain_->batch_size) {
      if (in_pos_ == in_batch_.size()) {
        chain_->Consumed(in_batch_.size());
        if (input_done_) break;
        FEDFLOW_ASSIGN_OR_RETURN(in_batch_, input_->Next());
        in_pos_ = 0;
        base_pos_ = 0;
        if (in_batch_.empty()) {
          input_done_ = true;
          break;
        }
      }
      const Row& partial = in_batch_.rows[in_pos_];
      while (base_pos_ < base_rows.size() && out.size() < chain_->batch_size) {
        Row combined = partial;
        std::copy(base_rows[base_pos_].begin(), base_rows[base_pos_].end(),
                  combined.begin() + offset_);
        out.rows.push_back(std::move(combined));
        ++base_pos_;
      }
      if (base_pos_ == base_rows.size()) {
        base_pos_ = 0;
        ++in_pos_;
      }
    }
    chain_->Emit(out);
    return out;
  }

  /// Columnar twin of Next(): identical input cadence, resume state, and
  /// stats protocol; the inner loop splices column-wise instead of copying
  /// a Row per output row. An instance serves one of the two methods,
  /// depending on what its (unique) consumer pulls.
  Result<ColumnBatch> NextColumns() override {
    ColumnBatch out(*chain_->combined_schema);
    const std::vector<Row>& base_rows = base_->rows();
    const size_t base_width = base_->schema().num_columns();
    while (out.num_rows() < chain_->batch_size) {
      if (in_pos_ == in_batch_.size()) {
        chain_->Consumed(in_batch_.size());
        if (input_done_) break;
        FEDFLOW_ASSIGN_OR_RETURN(in_batch_, input_->Next());
        in_pos_ = 0;
        base_pos_ = 0;
        if (in_batch_.empty()) {
          input_done_ = true;
          break;
        }
      }
      const Row& partial = in_batch_.rows[in_pos_];
      const size_t take = std::min(base_rows.size() - base_pos_,
                                   chain_->batch_size - out.num_rows());
      out.AppendSplicedRows(partial, base_rows, base_pos_, base_pos_ + take,
                            offset_, base_width);
      base_pos_ += take;
      if (base_pos_ == base_rows.size()) {
        base_pos_ = 0;
        ++in_pos_;
      }
    }
    chain_->EmitColumnar(out);
    return out;
  }

 private:
  const ChainState* chain_;
  RowSourcePtr input_;
  Table owned_;
  const Table* base_;
  size_t offset_;
  RowBatch in_batch_;
  size_t in_pos_ = 0;
  size_t base_pos_ = 0;
  bool input_done_ = false;
};

/// Crosses the single seed row with a streamed external table: the only scan
/// shape where the remote data itself never needs to be materialized
/// federation-side (re-iteration is impossible with one input row).
class StreamScanSource : public RowSource {
 public:
  StreamScanSource(const ChainState* chain, RowSourcePtr input,
                   RowSourcePtr data, size_t offset)
      : chain_(chain),
        input_(std::move(input)),
        data_(std::move(data)),
        offset_(offset) {}

  const Schema& schema() const override { return *chain_->combined_schema; }

  Result<RowBatch> Next() override {
    if (!seeded_) {
      FEDFLOW_ASSIGN_OR_RETURN(RowBatch seed, input_->Next());
      if (seed.empty()) return RowBatch{};
      seed_ = std::move(seed.rows.front());
      chain_->Consumed(seed.size());
      seeded_ = true;
    }
    FEDFLOW_ASSIGN_OR_RETURN(RowBatch data, data_->Next());
    RowBatch out;
    out.rows.reserve(data.size());
    for (Row& r : data.rows) {
      Row combined = seed_;
      for (size_t c = 0; c < r.size(); ++c) {
        combined[offset_ + c] = std::move(r[c]);
      }
      out.rows.push_back(std::move(combined));
    }
    chain_->Emit(out);
    return out;
  }

  /// Columnar twin of Next(): the splice of the streamed columns into the
  /// seed row runs column-wise. The data source's default NextColumns
  /// adapter keeps cost accounting of non-columnar providers intact.
  Result<ColumnBatch> NextColumns() override {
    if (!seeded_) {
      FEDFLOW_ASSIGN_OR_RETURN(RowBatch seed, input_->Next());
      if (seed.empty()) return ColumnBatch(*chain_->combined_schema);
      seed_ = std::move(seed.rows.front());
      chain_->Consumed(seed.size());
      seeded_ = true;
    }
    FEDFLOW_ASSIGN_OR_RETURN(ColumnBatch data, data_->NextColumns());
    ColumnBatch out(*chain_->combined_schema);
    if (!data.empty()) {
      out.Reserve(data.num_rows());
      out.AppendSpliced(seed_, std::move(data), offset_);
    }
    chain_->EmitColumnar(out);
    return out;
  }

 private:
  const ChainState* chain_;
  RowSourcePtr input_;
  RowSourcePtr data_;
  size_t offset_;
  Row seed_;
  bool seeded_ = false;
};

/// The lateral apply: for each input row, evaluates the function arguments
/// against it and streams the invocation's result rows into combined rows.
class LateralApplySource : public RowSource {
 public:
  LateralApplySource(const ChainState* chain, RowSourcePtr input,
                     TableFunction* fn, const TableRef* ref, size_t offset,
                     std::vector<bool> visible)
      : chain_(chain),
        input_(std::move(input)),
        fn_(fn),
        ref_(ref),
        offset_(offset),
        visible_(std::move(visible)) {}

  const Schema& schema() const override { return *chain_->combined_schema; }

  Result<RowBatch> Next() override {
    RowBatch out;
    while (out.size() < chain_->batch_size) {
      if (fn_stream_ == nullptr) {
        if (in_pos_ == in_batch_.size()) {
          chain_->Consumed(in_batch_.size());
          if (input_done_) break;
          FEDFLOW_ASSIGN_OR_RETURN(in_batch_, input_->Next());
          in_pos_ = 0;
          if (in_batch_.empty()) {
            input_done_ = true;
            break;
          }
        }
        partial_ = std::move(in_batch_.rows[in_pos_++]);
        FEDFLOW_RETURN_NOT_OK(OpenStream());
      }
      Result<RowBatch> fn_batch = fn_stream_->Next();
      if (!fn_batch.ok()) {
        return fn_batch.status().WithContext("in table function " + ref_->name);
      }
      if (fn_batch->empty()) {
        fn_stream_.reset();
        continue;
      }
      for (Row& r : fn_batch->rows) {
        Row combined = partial_;
        for (size_t c = 0; c < r.size(); ++c) {
          combined[offset_ + c] = std::move(r[c]);
        }
        out.rows.push_back(std::move(combined));
      }
    }
    chain_->Emit(out);
    return out;
  }

  /// Columnar twin of Next(): the inner loop — repeat the partial row,
  /// adopt the function's result columns — becomes one column-wise splice
  /// per pulled function batch. Argument evaluation, the invocation span,
  /// and the virtual-time charges all run through the same OpenStream.
  Result<ColumnBatch> NextColumns() override {
    ColumnBatch out(*chain_->combined_schema);
    while (out.num_rows() < chain_->batch_size) {
      if (fn_stream_ == nullptr) {
        if (in_pos_ == in_batch_.size()) {
          chain_->Consumed(in_batch_.size());
          if (input_done_) break;
          FEDFLOW_ASSIGN_OR_RETURN(in_batch_, input_->Next());
          in_pos_ = 0;
          if (in_batch_.empty()) {
            input_done_ = true;
            break;
          }
        }
        partial_ = std::move(in_batch_.rows[in_pos_++]);
        FEDFLOW_RETURN_NOT_OK(OpenStream());
      }
      Result<ColumnBatch> fn_batch = fn_stream_->NextColumns();
      if (!fn_batch.ok()) {
        return fn_batch.status().WithContext("in table function " + ref_->name);
      }
      if (fn_batch->empty()) {
        fn_stream_.reset();
        continue;
      }
      out.AppendSpliced(partial_, std::move(*fn_batch), offset_);
    }
    chain_->EmitColumnar(out);
    return out;
  }

 private:
  /// Evaluates the arguments against partial_ and opens the function's
  /// result stream. Resolution runs under this item's visibility snapshot,
  /// exactly as when the chain was assembled item by item.
  Status OpenStream() {
    RowScope* scope = chain_->scope;
    scope->set_visibility_mask(&visible_);
    scope->set_row(&partial_);
    std::vector<Value> args;
    args.reserve(ref_->args.size());
    Status status = Status::OK();
    for (size_t a = 0; a < ref_->args.size(); ++a) {
      Result<Value> v = chain_->eval->Eval(*ref_->args[a], *scope);
      if (v.ok()) v = v->CastTo(fn_->params()[a].type);
      if (!v.ok()) {
        status = v.status();
        break;
      }
      args.push_back(std::move(*v));
    }
    scope->set_row(nullptr);
    scope->set_visibility_mask(nullptr);
    FEDFLOW_RETURN_NOT_OK(status);
    // One span per lateral A-UDTF step: covers the eager part of the
    // invocation (where the coupling charges its per-step costs).
    obs::SpanScope step(chain_->ctx->trace, "lateral:", ref_->name,
                        obs::Layer::kFdbs);
    Result<RowSourcePtr> stream =
        fn_->InvokeStream(args, *chain_->ctx, chain_->batch_size);
    if (!stream.ok()) {
      step.SetStatus(stream.status());
      return stream.status().WithContext("in table function " + ref_->name);
    }
    if ((*stream)->schema().num_columns() != fn_->result_schema().num_columns()) {
      return Status::Internal("table function " + ref_->name +
                              " returned wrong arity");
    }
    fn_stream_ = std::move(*stream);
    return Status::OK();
  }

  const ChainState* chain_;
  RowSourcePtr input_;
  TableFunction* fn_;
  const TableRef* ref_;
  size_t offset_;
  std::vector<bool> visible_;
  RowBatch in_batch_;
  size_t in_pos_ = 0;
  bool input_done_ = false;
  Row partial_;
  RowSourcePtr fn_stream_;
};

/// Applies pushed-down WHERE conjuncts to each row as it streams past.
class FilterSource : public RowSource {
 public:
  FilterSource(const ChainState* chain, RowSourcePtr input,
               std::vector<ExprPtr> conjuncts, std::vector<bool> visible)
      : chain_(chain),
        input_(std::move(input)),
        conjuncts_(std::move(conjuncts)),
        visible_(std::move(visible)) {}

  const Schema& schema() const override { return *chain_->combined_schema; }

  Result<RowBatch> Next() override {
    RowScope* scope = chain_->scope;
    while (true) {
      FEDFLOW_ASSIGN_OR_RETURN(RowBatch in, input_->Next());
      if (in.empty()) return in;
      RowBatch out;
      scope->set_visibility_mask(&visible_);
      Status status = Status::OK();
      for (Row& r : in.rows) {
        scope->set_row(&r);
        bool keep = true;
        for (const ExprPtr& conjunct : conjuncts_) {
          Result<Value> v = chain_->eval->Eval(*conjunct, *scope);
          if (!v.ok()) {
            status = v.status();
            break;
          }
          if (v->is_null() || v->type() != DataType::kBool || !v->AsBool()) {
            keep = false;
            break;
          }
        }
        if (!status.ok()) break;
        if (keep) out.rows.push_back(std::move(r));
      }
      scope->set_row(nullptr);
      scope->set_visibility_mask(nullptr);
      FEDFLOW_RETURN_NOT_OK(status);
      chain_->Consumed(in.size());
      // Keep pulling on a fully filtered batch: an empty batch would
      // prematurely signal exhaustion downstream.
      if (!out.empty()) {
        chain_->Emit(out);
        return out;
      }
    }
  }

 private:
  const ChainState* chain_;
  RowSourcePtr input_;
  std::vector<ExprPtr> conjuncts_;
  std::vector<bool> visible_;
};

}  // namespace

Result<std::vector<size_t>> SelectExecutor::LateralOrder(
    const SelectStmt& stmt, const std::vector<const Schema*>& item_schemas) {
  const size_t n = stmt.from.size();
  // deps[k] = set of item indices item k's arguments reference.
  std::vector<std::vector<size_t>> deps(n);
  for (size_t k = 0; k < n; ++k) {
    const TableRef& ref = stmt.from[k];
    if (ref.kind != TableRefKind::kTableFunction) continue;
    std::vector<const ColumnRefExpr*> refs;
    for (const ExprPtr& arg : ref.args) CollectColumnRefs(*arg, &refs);
    for (const ColumnRefExpr* cr : refs) {
      if (!cr->qualifier().empty()) {
        for (size_t j = 0; j < n; ++j) {
          if (j == k) continue;
          const std::string& alias =
              stmt.from[j].alias.empty() ? stmt.from[j].name
                                         : stmt.from[j].alias;
          if (EqualsIgnoreCase(alias, cr->qualifier())) {
            deps[k].push_back(j);
            break;
          }
        }
        // Qualifiers matching no FROM alias are parameter references of an
        // enclosing SQL function; they impose no ordering.
      } else {
        // Unqualified: a dependency only when exactly one other item
        // provides the column.
        size_t hit = SIZE_MAX;
        int count = 0;
        for (size_t j = 0; j < n; ++j) {
          if (j == k || item_schemas[j] == nullptr) continue;
          if (item_schemas[j]->IndexOf(cr->name()).has_value()) {
            hit = j;
            ++count;
          }
        }
        if (count == 1) deps[k].push_back(hit);
      }
    }
  }
  // Stable topological sort: among ready items pick the lowest original
  // index, preserving DB2's documented left-to-right processing where the
  // dependency structure allows it.
  dag::TopoSort sorted = dag::StableTopologicalSort(deps);
  if (!sorted.ok()) {
    return Status::InvalidArgument(
        "cyclic dependency between FROM-clause table functions; "
        "the UDTF approach cannot express cyclic mappings");
  }
  return std::move(sorted.order);
}

bool SelectExecutor::ConjunctApplicable(
    const sql::Expr& expr, RowScope* scope,
    const std::vector<bool>& visible) const {
  // A conjunct is applicable when all its column references resolve under
  // the current visibility mask (parameters always resolve).
  if (!ctx_->predicate_pushdown) return false;
  std::vector<const ColumnRefExpr*> refs;
  CollectColumnRefs(expr, &refs);
  for (const ColumnRefExpr* ref : refs) {
    // The reference must resolve unambiguously against the FULL schema —
    // otherwise an unqualified name could silently bind to the only
    // visible column although the statement is ambiguous overall —
    // and its binding must already have produced its columns.
    scope->set_visibility_mask(nullptr);
    const bool full_ok =
        scope->ResolveColumnType(ref->qualifier(), ref->name()).ok();
    scope->set_visibility_mask(&visible);
    if (!full_ok) return false;
    if (!scope->ResolveColumnType(ref->qualifier(), ref->name()).ok()) {
      return false;
    }
  }
  return true;
}

Result<Table> SelectExecutor::ExecuteFromChain(
    const SelectStmt& stmt, RowScope* scope, Schema* combined_schema,
    std::vector<sql::ExprPtr>* remaining_predicates,
    ColumnBatch* columnar_result, bool* result_is_columnar) {
  Catalog& catalog = db_->catalog();
  const size_t n = stmt.from.size();

  struct Item {
    const Schema* schema = nullptr;
    std::string alias;
    size_t offset = 0;
    const Table* base = nullptr;          // base table items
    TableFunction* fn = nullptr;          // table-function items
    const ExternalTable* ext = nullptr;   // external (remote SQL) items
  };
  std::vector<Item> items(n);
  std::vector<const Schema*> schemas(n, nullptr);
  size_t width = 0;
  for (size_t k = 0; k < n; ++k) {
    const TableRef& ref = stmt.from[k];
    Item& item = items[k];
    item.alias = ref.alias.empty() ? ref.name : ref.alias;
    if (ref.kind == TableRefKind::kBaseTable) {
      if (!catalog.HasTable(ref.name) && catalog.HasExternalTable(ref.name)) {
        // The scan itself (the "SQL subquery" shipped to the remote source)
        // runs when the pipeline is assembled below: streamed when the
        // source supports it, materialized otherwise.
        FEDFLOW_ASSIGN_OR_RETURN(item.ext,
                                 catalog.GetExternalTable(ref.name));
        item.schema = &item.ext->schema;
        schemas[k] = item.schema;
        item.offset = width;
        width += item.schema->num_columns();
        continue;
      }
      FEDFLOW_ASSIGN_OR_RETURN(const Table* t,
                               catalog.GetTableConst(ref.name));
      item.base = t;
      item.schema = &t->schema();
    } else {
      FEDFLOW_ASSIGN_OR_RETURN(TableFunction * fn,
                               catalog.GetTableFunction(ref.name));
      if (fn->params().size() != ref.args.size()) {
        return Status::InvalidArgument(
            ref.name + " expects " + std::to_string(fn->params().size()) +
            " argument(s), got " + std::to_string(ref.args.size()));
      }
      item.fn = fn;
      item.schema = &fn->result_schema();
    }
    schemas[k] = item.schema;
    item.offset = width;
    width += item.schema->num_columns();
  }
  // Reject duplicate correlation names.
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      if (EqualsIgnoreCase(items[a].alias, items[b].alias)) {
        return Status::InvalidArgument("duplicate correlation name: " +
                                       items[a].alias);
      }
    }
  }

  FEDFLOW_ASSIGN_OR_RETURN(std::vector<size_t> order,
                           LateralOrder(stmt, schemas));

  for (size_t k = 0; k < n; ++k) {
    scope->AddBinding(items[k].alias, items[k].schema, items[k].offset);
  }
  for (size_t k = 0; k < n; ++k) {
    for (const Column& c : items[k].schema->columns()) {
      combined_schema->AddColumn(c.name, c.type);
    }
  }

  std::vector<bool> visible(n, false);
  scope->set_visibility_mask(&visible);
  Evaluator eval(&catalog);

  // Predicate pushdown: WHERE conjuncts are applied as soon as every FROM
  // item they reference has produced its columns, pruning intermediate
  // results (and, for lateral functions, whole invocations).
  std::vector<sql::ExprPtr> pending_conjuncts;
  if (stmt.where != nullptr) {
    if (ctx_->predicate_pushdown) {
      SplitConjuncts(stmt.where, &pending_conjuncts);
    } else {
      pending_conjuncts.push_back(stmt.where);
    }
  }
  // Assemble the pull-based pipeline: seed -> (scan | lateral apply)
  // per FROM item in lateral order, with a filter operator after every item
  // that makes further WHERE conjuncts applicable. Rows flow through in
  // batches of ctx_->batch_size; nothing is materialized until the drain at
  // the bottom (the statement boundary).
  ChainState chain;
  chain.scope = scope;
  chain.eval = &eval;
  chain.ctx = ctx_;
  chain.combined_schema = combined_schema;
  chain.batch_size = ctx_->EffectiveBatchSize();
  chain.stats = ctx_->pipeline_stats;

  RowSourcePtr pipe = std::make_unique<SeedSource>(&chain, width);
  // True while the operator at the top of the pipe emits columnar batches
  // natively (chain operators and vectorized filters do; the seed and
  // row-at-a-time filters do not). Decides the drain mode below.
  bool pipe_columnar = false;
  for (size_t oi = 0; oi < order.size(); ++oi) {
    const size_t idx = order[oi];
    Item& item = items[idx];
    const TableRef& ref = stmt.from[idx];
    if (item.ext != nullptr) {
      if (oi == 0 && item.ext->stream_provider) {
        // First in the lateral order: crossed only with the single seed row,
        // so the remote rows can stream straight through without ever being
        // materialized on the federation side.
        Result<RowSourcePtr> data =
            item.ext->stream_provider(*ctx_, chain.batch_size);
        if (!data.ok()) {
          return data.status().WithContext("fetching external table " +
                                           ref.name);
        }
        if (!((*data)->schema() == item.ext->schema)) {
          return Status::Internal("external table " + ref.name +
                                  " returned a mismatching schema");
        }
        pipe = std::make_unique<StreamScanSource>(&chain, std::move(pipe),
                                                  std::move(*data),
                                                  item.offset);
      } else {
        // Re-scanned per input row: materialize once, scan many times.
        Result<Table> fetched = item.ext->provider(*ctx_);
        if (!fetched.ok()) {
          return fetched.status().WithContext("fetching external table " +
                                              ref.name);
        }
        if (!(fetched->schema() == item.ext->schema)) {
          return Status::Internal("external table " + ref.name +
                                  " returned a mismatching schema");
        }
        pipe = std::make_unique<CrossScanSource>(&chain, std::move(pipe),
                                                 std::move(*fetched),
                                                 item.offset);
      }
    } else if (item.base != nullptr) {
      pipe = std::make_unique<CrossScanSource>(&chain, std::move(pipe),
                                               item.base, item.offset);
    } else {
      // Arguments resolve under the visibility at this point in the chain
      // (item idx itself not yet visible) — snapshot the mask per operator.
      pipe = std::make_unique<LateralApplySource>(&chain, std::move(pipe),
                                                  item.fn, &ref, item.offset,
                                                  visible);
    }
    pipe_columnar = true;
    visible[idx] = true;
    std::vector<sql::ExprPtr> ready;
    for (auto it = pending_conjuncts.begin(); it != pending_conjuncts.end();) {
      if (ConjunctApplicable(**it, scope, visible)) {
        ready.push_back(*it);
        it = pending_conjuncts.erase(it);
      } else {
        ++it;
      }
    }
    if (!ready.empty()) {
      // Vectorize this filter point when EVERY ready conjunct compiles
      // (all-or-nothing: splitting one point into a vectorized and a row
      // filter would change the pipeline's batch cadence). Compilation
      // resolves names under the current visibility mask, so the compiled
      // predicates are position-based from here on.
      bool vectorized = false;
      if (ctx_->columnar) {
        auto preds = std::make_shared<std::vector<VectorPredicate>>();
        preds->reserve(ready.size());
        bool all_compiled = true;
        for (const sql::ExprPtr& conjunct : ready) {
          std::optional<VectorPredicate> p =
              VectorPredicate::Compile(*conjunct, *scope);
          if (!p.has_value()) {
            all_compiled = false;
            break;
          }
          preds->push_back(std::move(*p));
        }
        if (all_compiled) {
          PipelineStats* stats = ctx_->pipeline_stats;
          SelectionFn select = [preds, stats](
                                   const ColumnBatch& in,
                                   std::vector<uint32_t>* sel) -> Status {
            sel->resize(in.num_rows());
            std::iota(sel->begin(), sel->end(), 0);
            for (const VectorPredicate& p : *preds) {
              const size_t rows_in = sel->size();
              FEDFLOW_RETURN_NOT_OK(p.FilterSelection(in, sel));
              if (stats != nullptr) {
                stats->RecordFilter(p.label(), rows_in, sel->size());
              }
              if (sel->empty()) break;
            }
            return Status::OK();
          };
          pipe = MakeColumnarFilterSource(std::move(pipe), std::move(select),
                                          ctx_->pipeline_stats);
          vectorized = true;
        }
      }
      if (!vectorized) {
        pipe = std::make_unique<FilterSource>(&chain, std::move(pipe),
                                              std::move(ready), visible);
      }
      pipe_columnar = vectorized;
    }
  }
  scope->set_visibility_mask(nullptr);

  if (ctx_->columnar && pipe_columnar && columnar_result != nullptr) {
    // Columnar drain: the result stays column-wise all the way to the
    // projection in Execute(). Same pull cadence and stats as the row
    // drain below.
    ColumnBatch acc(*combined_schema);
    while (true) {
      FEDFLOW_ASSIGN_OR_RETURN(ColumnBatch batch, pipe->NextColumns());
      if (batch.empty()) break;
      const size_t pulled = batch.num_rows();
      acc.AppendBatch(std::move(batch));
      chain.Consumed(pulled);
    }
    *remaining_predicates = std::move(pending_conjuncts);
    *columnar_result = std::move(acc);
    *result_is_columnar = true;
    return Table(*combined_schema);
  }

  Table result(*combined_schema);
  while (true) {
    FEDFLOW_ASSIGN_OR_RETURN(RowBatch batch, pipe->Next());
    if (batch.empty()) break;
    const size_t pulled = batch.size();
    for (Row& r : batch.rows) result.AppendRowUnchecked(std::move(r));
    chain.Consumed(pulled);
  }
  *remaining_predicates = std::move(pending_conjuncts);
  return result;
}

Result<Table> SelectExecutor::Execute(const SelectStmt& stmt) {
  Catalog& catalog = db_->catalog();
  Evaluator eval(&catalog);

  RowScope scope;
  scope.set_params(params_);
  Schema combined_schema;
  std::vector<sql::ExprPtr> remaining_predicates;
  ColumnBatch columnar_input;
  bool input_is_columnar = false;
  FEDFLOW_ASSIGN_OR_RETURN(
      Table input,
      ExecuteFromChain(stmt, &scope, &combined_schema, &remaining_predicates,
                       &columnar_input, &input_is_columnar));
  const size_t width = combined_schema.num_columns();

  // WHERE conjuncts not already applied during the chain (e.g. when
  // pushdown is disabled, or for references the chain could not resolve —
  // the latter surface their resolution errors here).
  std::vector<Row> rows;
  if (!remaining_predicates.empty()) {
    if (input_is_columnar) {
      input.mutable_rows() = columnar_input.TakeRows();
      input_is_columnar = false;
    }
    for (Row& r : input.mutable_rows()) {
      scope.set_row(&r);
      bool keep_row = true;
      for (const sql::ExprPtr& pred : remaining_predicates) {
        FEDFLOW_ASSIGN_OR_RETURN(Value keep, eval.Eval(*pred, scope));
        if (keep.is_null() || keep.type() != DataType::kBool ||
            !keep.AsBool()) {
          keep_row = false;
          break;
        }
      }
      if (keep_row) rows.push_back(std::move(r));
    }
  } else if (!input_is_columnar) {
    rows = std::move(input.mutable_rows());
  }
  // (When input_is_columnar the rows stay column-wise until the fast-path
  // decision after the select list is expanded.)
  scope.set_row(nullptr);

  // Decide between plain projection and aggregation.
  std::vector<const FunctionCallExpr*> aggs;
  for (const SelectItem& item : stmt.items) {
    if (!item.is_star && item.expr) CollectAggregates(*item.expr, &aggs);
  }
  if (stmt.having) CollectAggregates(*stmt.having, &aggs);
  for (const auto& ob : stmt.order_by) CollectAggregates(*ob.expr, &aggs);
  const bool aggregate_mode = !aggs.empty() || !stmt.group_by.empty();

  // Expand the select list into output expressions.
  struct OutCol {
    std::string name;
    const Expr* expr = nullptr;       // null for direct column copies
    size_t direct_index = 0;          // combined-row position when expr null
    DataType type = DataType::kNull;
  };
  std::vector<OutCol> out_cols;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.is_star) {
      if (aggregate_mode) {
        return Status::InvalidArgument("SELECT * cannot be combined with "
                                       "aggregation");
      }
      bool matched = false;
      for (const RowScope::Binding& b : scope.bindings()) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(b.alias, item.star_qualifier)) {
          continue;
        }
        matched = true;
        for (size_t c = 0; c < b.schema->num_columns(); ++c) {
          OutCol col;
          col.name = b.schema->column(c).name;
          col.direct_index = b.offset + c;
          col.type = b.schema->column(c).type;
          out_cols.push_back(std::move(col));
        }
      }
      if (!matched) {
        return Status::NotFound("unknown correlation name: " +
                                item.star_qualifier);
      }
    } else {
      OutCol col;
      col.name = !item.alias.empty() ? item.alias
                                     : DeriveName(*item.expr, out_cols.size());
      col.expr = item.expr.get();
      FEDFLOW_ASSIGN_OR_RETURN(col.type, eval.InferType(*item.expr, scope));
      out_cols.push_back(std::move(col));
    }
  }

  Schema out_schema;
  for (const OutCol& c : out_cols) out_schema.AddColumn(c.name, c.type);

  if (input_is_columnar) {
    // Columnar fast path: a plain projection of chain columns — no WHERE
    // residue (checked above), no aggregation, DISTINCT, ORDER BY, or
    // computed select items — never needs row form: project, truncate to
    // the limit, coerce column-wise, materialize. Identical results to the
    // row path below (AppendRow's per-cell coercion, run per column).
    bool direct = !aggregate_mode && !stmt.distinct && stmt.order_by.empty();
    if (direct) {
      for (const OutCol& c : out_cols) {
        if (c.expr != nullptr) {
          direct = false;
          break;
        }
      }
    }
    if (direct) {
      std::vector<size_t> positions;
      positions.reserve(out_cols.size());
      for (const OutCol& c : out_cols) positions.push_back(c.direct_index);
      ColumnBatch proj = ColumnBatch::Project(
          out_schema, std::move(columnar_input), positions);
      size_t limit = proj.num_rows();
      if (stmt.limit.has_value()) {
        limit = std::min<size_t>(
            limit, static_cast<size_t>(std::max<int64_t>(0, *stmt.limit)));
      }
      proj.Truncate(limit);
      // Patch unknown output types from the data (same rule as the row
      // path: first non-null value within the limit, VARCHAR fallback).
      Schema final_schema;
      for (size_t c = 0; c < proj.num_columns(); ++c) {
        DataType t = out_schema.column(c).type;
        if (t == DataType::kNull) {
          const ColumnData& col = proj.column(c);
          DataType patched = DataType::kNull;
          for (size_t r = 0; r < proj.num_rows(); ++r) {
            if (!col.IsNull(r)) {
              patched = col.GetValue(r).type();
              break;
            }
          }
          t = patched == DataType::kNull ? DataType::kVarchar : patched;
        }
        final_schema.AddColumn(out_schema.column(c).name, t);
      }
      for (size_t c = 0; c < proj.num_columns(); ++c) {
        const ColumnData& col = proj.column(c);
        const DataType target = final_schema.column(c).type;
        if (col.is_generic() || col.type() != target) {
          FEDFLOW_ASSIGN_OR_RETURN(ColumnData casted, col.CastTo(target));
          proj.mutable_column(c) = std::move(casted);
        }
      }
      Table out(final_schema);
      out.mutable_rows() = proj.TakeRows();
      return out;
    }
    // General path: fall back to row form for expression evaluation,
    // aggregation, DISTINCT, or sorting.
    rows = columnar_input.TakeRows();
    input_is_columnar = false;
  }

  // Rows paired with their ORDER BY keys.
  struct Keyed {
    Row row;
    std::vector<Value> keys;
  };
  std::vector<Keyed> produced;

  // Resolves an ORDER BY expression: a bare (unqualified) column reference
  // matching an output column sorts by that output column; everything else
  // is evaluated in the current scope.
  auto order_key = [&](const sql::OrderItem& ob, const Row& out_row,
                       const RowScope& s) -> Result<Value> {
    if (ob.expr->kind() == ExprKind::kColumnRef) {
      const auto& cr = static_cast<const ColumnRefExpr&>(*ob.expr);
      if (cr.qualifier().empty()) {
        for (size_t c = 0; c < out_cols.size(); ++c) {
          if (EqualsIgnoreCase(out_cols[c].name, cr.name())) {
            return out_row[c];
          }
        }
      }
    }
    return eval.Eval(*ob.expr, s);
  };

  if (!aggregate_mode) {
    for (Row& r : rows) {
      scope.set_row(&r);
      Keyed k;
      k.row.reserve(out_cols.size());
      for (const OutCol& c : out_cols) {
        if (c.expr == nullptr) {
          k.row.push_back(r[c.direct_index]);
        } else {
          FEDFLOW_ASSIGN_OR_RETURN(Value v, eval.Eval(*c.expr, scope));
          k.row.push_back(std::move(v));
        }
      }
      for (const auto& ob : stmt.order_by) {
        FEDFLOW_ASSIGN_OR_RETURN(Value v, order_key(ob, k.row, scope));
        k.keys.push_back(std::move(v));
      }
      produced.push_back(std::move(k));
    }
    scope.set_row(nullptr);
  } else {
    // ---- aggregation ----
    // Group rows by the GROUP BY key values.
    std::map<std::string, size_t> group_index;
    std::vector<std::vector<size_t>> groups;  // row indices per group
    std::vector<Row> group_keys;              // evaluated GROUP BY values
    if (stmt.group_by.empty()) {
      groups.emplace_back();
      group_keys.emplace_back();
      for (size_t r = 0; r < rows.size(); ++r) groups[0].push_back(r);
    } else {
      for (size_t r = 0; r < rows.size(); ++r) {
        scope.set_row(&rows[r]);
        Row keyvals;
        std::string key;
        for (const ExprPtr& g : stmt.group_by) {
          FEDFLOW_ASSIGN_OR_RETURN(Value v, eval.Eval(*g, scope));
          key += v.ToString();
          key += '\x1f';
          keyvals.push_back(std::move(v));
        }
        auto [it, inserted] = group_index.emplace(key, groups.size());
        if (inserted) {
          groups.emplace_back();
          group_keys.push_back(std::move(keyvals));
        }
        groups[it->second].push_back(r);
      }
      scope.set_row(nullptr);
    }

    const Row null_row(width, Value::Null());
    for (size_t g = 0; g < groups.size(); ++g) {
      const std::vector<size_t>& members = groups[g];
      // Compute each aggregate over the group.
      std::map<const FunctionCallExpr*, Value> agg_values;
      for (const FunctionCallExpr* agg : aggs) {
        if (agg_values.count(agg) > 0) continue;
        const std::string name = ToUpper(agg->name());
        if (name == "COUNT" && agg->star_arg()) {
          agg_values[agg] = Value::BigInt(static_cast<int64_t>(members.size()));
          continue;
        }
        if (agg->args().size() != 1) {
          return Status::InvalidArgument(name + " expects one argument");
        }
        int64_t count = 0;
        double dsum = 0;
        int64_t isum = 0;
        bool all_int = true;
        Value best;  // MIN/MAX accumulator
        for (size_t r : members) {
          scope.set_row(&rows[r]);
          FEDFLOW_ASSIGN_OR_RETURN(Value v, eval.Eval(*agg->args()[0], scope));
          if (v.is_null()) continue;
          ++count;
          if (name == "COUNT") continue;  // only counts non-null values
          if (name == "MIN" || name == "MAX") {
            if (best.is_null()) {
              best = v;
            } else {
              FEDFLOW_ASSIGN_OR_RETURN(int cmp, v.Compare(best));
              if ((name == "MIN" && cmp < 0) || (name == "MAX" && cmp > 0)) {
                best = v;
              }
            }
          } else {
            FEDFLOW_ASSIGN_OR_RETURN(double d, v.ToDouble());
            dsum += d;
            if (v.type() == DataType::kDouble) {
              all_int = false;
            } else {
              FEDFLOW_ASSIGN_OR_RETURN(int64_t i, v.ToInt64());
              isum += i;
            }
          }
        }
        scope.set_row(nullptr);
        if (name == "COUNT") {
          agg_values[agg] = Value::BigInt(count);
        } else if (count == 0) {
          agg_values[agg] = Value::Null();
        } else if (name == "SUM") {
          agg_values[agg] =
              all_int ? Value::BigInt(isum) : Value::Double(dsum);
        } else if (name == "AVG") {
          agg_values[agg] = Value::Double(dsum / static_cast<double>(count));
        } else {
          agg_values[agg] = best;
        }
      }

      Evaluator group_eval(&catalog);
      group_eval.set_agg_resolver(
          [&agg_values](const FunctionCallExpr& call) -> Result<Value> {
            auto it = agg_values.find(&call);
            if (it == agg_values.end()) {
              return Status::Internal("unresolved aggregate call");
            }
            return it->second;
          });

      const Row& rep = members.empty() ? null_row : rows[members.front()];
      scope.set_row(&rep);

      if (stmt.having != nullptr) {
        FEDFLOW_ASSIGN_OR_RETURN(Value keep,
                                 group_eval.Eval(*stmt.having, scope));
        if (keep.is_null() || keep.type() != DataType::kBool ||
            !keep.AsBool()) {
          scope.set_row(nullptr);
          continue;
        }
      }

      Keyed k;
      k.row.reserve(out_cols.size());
      for (const OutCol& c : out_cols) {
        FEDFLOW_ASSIGN_OR_RETURN(Value v, group_eval.Eval(*c.expr, scope));
        k.row.push_back(std::move(v));
      }
      for (const auto& ob : stmt.order_by) {
        Result<Value> v = [&]() -> Result<Value> {
          if (ob.expr->kind() == ExprKind::kColumnRef) {
            const auto& cr = static_cast<const ColumnRefExpr&>(*ob.expr);
            if (cr.qualifier().empty()) {
              for (size_t c = 0; c < out_cols.size(); ++c) {
                if (EqualsIgnoreCase(out_cols[c].name, cr.name())) {
                  return k.row[c];
                }
              }
            }
          }
          return group_eval.Eval(*ob.expr, scope);
        }();
        FEDFLOW_RETURN_NOT_OK(v.status());
        k.keys.push_back(std::move(*v));
      }
      scope.set_row(nullptr);
      produced.push_back(std::move(k));
    }
  }

  // DISTINCT: keep the first occurrence of each row value combination.
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<Keyed> unique;
    unique.reserve(produced.size());
    for (Keyed& k : produced) {
      std::string key;
      for (const Value& v : k.row) {
        key += v.ToString();
        key += '\x1f';
      }
      if (seen.insert(std::move(key)).second) {
        unique.push_back(std::move(k));
      }
    }
    produced = std::move(unique);
  }

  // ORDER BY.
  if (!stmt.order_by.empty()) {
    SortError err;
    std::stable_sort(
        produced.begin(), produced.end(),
        [&](const Keyed& a, const Keyed& b) {
          if (!err.status.ok()) return false;
          for (size_t i = 0; i < stmt.order_by.size(); ++i) {
            // NULLs first in ascending order (Compare puts NULL lowest).
            Result<int> cmp = a.keys[i].Compare(b.keys[i]);
            if (!cmp.ok()) {
              // NULL vs NULL compares equal; real errors abort the sort.
              err.status = cmp.status();
              return false;
            }
            if (*cmp != 0) {
              return stmt.order_by[i].ascending ? *cmp < 0 : *cmp > 0;
            }
          }
          return false;
        });
    FEDFLOW_RETURN_NOT_OK(err.status);
  }

  // LIMIT.
  size_t limit = produced.size();
  if (stmt.limit.has_value()) {
    limit = std::min<size_t>(limit, static_cast<size_t>(
                                        std::max<int64_t>(0, *stmt.limit)));
  }

  // Materialize, patching unknown column types from the data.
  Table out(out_schema);
  std::vector<DataType> patched(out_cols.size(), DataType::kNull);
  for (size_t r = 0; r < limit; ++r) {
    for (size_t c = 0; c < out_cols.size(); ++c) {
      const Value& v = produced[r].row[c];
      if (patched[c] == DataType::kNull && !v.is_null()) {
        patched[c] = v.type();
      }
    }
  }
  Schema final_schema;
  for (size_t c = 0; c < out_cols.size(); ++c) {
    DataType t = out_schema.column(c).type;
    if (t == DataType::kNull) {
      t = patched[c] == DataType::kNull ? DataType::kVarchar : patched[c];
    }
    final_schema.AddColumn(out_schema.column(c).name, t);
  }
  out = Table(final_schema);
  for (size_t r = 0; r < limit; ++r) {
    FEDFLOW_RETURN_NOT_OK(out.AppendRow(std::move(produced[r].row)));
  }
  return out;
}

}  // namespace fedflow::fdbs

#include "sim/rmi.h"

#include <cstdint>
#include <memory>
#include <utility>

#include "common/codec.h"
#include "common/column_batch.h"

namespace fedflow::sim {

namespace {

/// Decodes a marshalled response buffer chunk by chunk. Next() decodes rows;
/// NextColumns() decodes each value straight into the typed column vectors,
/// with no Row in between. Every row must carry exactly the schema's width
/// of values. Chunk costs telescope over the reader's cursor: charging
/// MarshalCost(cursor after the chunk) - MarshalCost(cursor before) makes
/// the total exactly equal the one-shot MarshalCost of the whole buffer,
/// integer division notwithstanding.
class ResponseStreamSource : public RowSource {
 public:
  /// `reader` reads `buffer` and stands just past the header, which
  /// OpenResponseStream decoded and validated. Moving the vector keeps its
  /// bytes where the reader points.
  ResponseStreamSource(std::vector<uint8_t> buffer, ByteReader reader,
                       Schema schema, size_t num_rows, size_t batch_size,
                       const LatencyModel* model,
                       RmiChannel::ChunkCostFn on_chunk)
      : buffer_(std::move(buffer)),
        schema_(std::move(schema)),
        num_rows_(num_rows),
        batch_size_(batch_size),
        model_(model),
        on_chunk_(std::move(on_chunk)),
        reader_(reader) {}

  const Schema& schema() const override { return schema_; }

  Result<RowBatch> Next() override {
    RowBatch batch;
    const size_t take = std::min(batch_size_, num_rows_ - next_row_);
    batch.rows.reserve(take);
    FEDFLOW_RETURN_NOT_OK(
        reader_.GetRows(take, schema_.num_columns(), batch.rows));
    ChargeChunk(next_row_ + take);
    return batch;
  }

  /// Columnar variant: the same chunk (the wire format is row-major) and the
  /// same charges, but each value's tag and payload go straight into its
  /// column. The batch equals ColumnBatch::FromRows over Next()'s rows,
  /// degraded columns included.
  Result<ColumnBatch> NextColumns() override {
    const size_t take = std::min(batch_size_, num_rows_ - next_row_);
    std::vector<ColumnData> columns;
    columns.reserve(schema_.num_columns());
    for (const Column& c : schema_.columns()) {
      columns.emplace_back(c.type);
      columns.back().Reserve(take);
    }
    FEDFLOW_RETURN_NOT_OK(reader_.GetRowsInto(take, columns));
    ChargeChunk(next_row_ + take);
    return ColumnBatch::FromColumns(schema_, std::move(columns), take);
  }

  std::optional<size_t> SizeHint() const override {
    return num_rows_ - next_row_;
  }

 private:
  /// Advances the cursor to `end_row` and charges the marshalling cost of
  /// the newly decoded bytes (plus the one-time return base).
  void ChargeChunk(size_t end_row) {
    next_row_ = end_row;
    if (!on_chunk_) return;
    const size_t consumed = reader_.position();
    VDuration cost =
        model_->MarshalCost(consumed) - model_->MarshalCost(charged_bytes_);
    if (!charged_base_) {
      cost += model_->rmi_return_base_us;
      charged_base_ = true;
    }
    charged_bytes_ = consumed;
    if (cost > 0) on_chunk_(cost);
  }

  std::vector<uint8_t> buffer_;
  Schema schema_;
  size_t num_rows_;
  size_t batch_size_;
  const LatencyModel* model_;
  RmiChannel::ChunkCostFn on_chunk_;
  ByteReader reader_;
  size_t next_row_ = 0;
  size_t charged_bytes_ = 0;
  bool charged_base_ = false;
};

/// Opens the chunked decoder over a marshalled response. The header's row
/// count comes off the wire and sizes the decoder's reserves (rows, and
/// each column's vectors), so a count the remaining bytes cannot hold is
/// rejected as truncation: every row carries its 4-byte arity and a tag per
/// schema column.
Result<RowSourcePtr> OpenResponseStream(std::vector<uint8_t> buffer,
                                        size_t batch_size,
                                        const LatencyModel* model,
                                        RmiChannel::ChunkCostFn on_chunk) {
  ByteReader header(buffer);
  FEDFLOW_ASSIGN_OR_RETURN(Schema schema, header.GetSchema());
  FEDFLOW_ASSIGN_OR_RETURN(uint32_t num_rows, header.GetU32());
  if (num_rows > header.remaining() / (4 + schema.num_columns())) {
    return Status::ExecutionError("codec: truncated");
  }
  return RowSourcePtr(new ResponseStreamSource(
      std::move(buffer), header, std::move(schema), num_rows, batch_size,
      model, std::move(on_chunk)));
}

/// Status returned for an injected fault.
Status InjectedStatus(FaultInjector::Fault fault, const std::string& function) {
  switch (fault) {
    case FaultInjector::Fault::kNone:
      return Status::Internal("rmi: no fault to report");
    case FaultInjector::Fault::kTransient:
      return Status::Unavailable("rmi: transient failure invoking " +
                                 function);
    case FaultInjector::Fault::kPermanent:
      return Status::Unavailable("rmi: " + function +
                                 " is down (permanent outage)");
  }
  return Status::Internal("rmi: bad fault kind");
}

/// A failed call still spent the request leg, and the error response rides
/// back over the wire like any other (sized on the status message).
void FillFailureCosts(const LatencyModel* model, VDuration request_us,
                      const Status& failure, RmiChannel::CallCosts* costs) {
  if (costs == nullptr) return;
  costs->call_us = request_us;
  costs->return_us =
      model->rmi_return_base_us + model->MarshalCost(failure.message().size());
}

/// Opens and ends the client/server spans of one RMI attempt. Both spans end
/// at the session clock's time when the guard leaves scope, and a non-OK
/// outcome stamps each span's "status" attribute with the failing code —
/// kUnavailable/kDeadlineExceeded legs show up in traces instead of being
/// silently absent.
class RmiSpanGuard {
 public:
  explicit RmiSpanGuard(obs::TraceSession* trace)
      : trace_(trace != nullptr && trace->active() ? trace : nullptr) {}

  ~RmiSpanGuard() {
    if (trace_ == nullptr) return;
    if (server_ != 0) {
      trace_->Pop();
      if (!status_.ok()) trace_->tracer()->SetStatus(server_, status_);
      trace_->tracer()->EndSpan(server_, Now());
    }
    if (client_ != 0) {
      if (!status_.ok()) trace_->tracer()->SetStatus(client_, status_);
      trace_->tracer()->EndSpan(client_, Now());
    }
  }

  RmiSpanGuard(const RmiSpanGuard&) = delete;
  RmiSpanGuard& operator=(const RmiSpanGuard&) = delete;

  /// Opens the client-side call span and appends its propagated context to
  /// the marshalled request. Must run after the payload is fully written:
  /// wire costs are computed on the payload size alone, so the context rides
  /// out-of-band (the shape of a traceparent header) and traced runs charge
  /// exactly what untraced runs charge.
  void OpenClient(const std::string& function, ByteWriter& request) {
    if (trace_ == nullptr) return;
    client_ = trace_->tracer()->StartSpan("rmi:" + function, obs::Layer::kRmi,
                                          trace_->current(), Now());
    obs::TraceContext ctx = trace_->tracer()->ContextOf(client_);
    request.PutI64(static_cast<int64_t>(ctx.trace_id));
    request.PutI64(static_cast<int64_t>(ctx.span_id));
  }

  /// Opens the server-side serve span under the context decoded off the
  /// wire and makes it the session's current span while the handler runs —
  /// handler-side spans (workflow activities, local functions) parent under
  /// the serve span, which parents under the client call via propagation.
  void OpenServer(const std::string& function, const obs::TraceContext& ctx) {
    if (trace_ == nullptr) return;
    server_ = trace_->tracer()->StartRemoteSpan("serve:" + function,
                                                obs::Layer::kRmi, ctx, Now());
    if (server_ != 0) trace_->Push(server_);
  }

  void AddClientEvent(const std::string& name, const std::string& detail) {
    if (trace_ != nullptr && client_ != 0) {
      trace_->tracer()->AddEvent(client_, Now(), name, detail);
    }
  }

  void set_status(const Status& status) { status_ = status; }

 private:
  VTime Now() const {
    return trace_->clock() != nullptr ? trace_->clock()->now() : 0;
  }

  obs::TraceSession* trace_;
  obs::SpanId client_ = 0;
  obs::SpanId server_ = 0;
  Status status_;
};

/// The request leg + handler execution: marshal, decode on the callee side
/// (including any propagated trace context), consult the fault injector, run
/// the handler under the server span. `request_us_out` receives the modeled
/// request-leg cost.
Result<Table> ServeAttempt(const LatencyModel* model, FaultInjector* faults,
                           const std::string& function,
                           const std::vector<Value>& args,
                           const RmiChannel::Handler& handler,
                           RmiChannel::CallCosts* costs, RmiSpanGuard& guard,
                           VDuration* request_us_out) {
  ByteWriter request;
  request.PutString(function);
  request.PutRow(args);
  const size_t payload_bytes = request.size();
  guard.OpenClient(function, request);

  // Unmarshal on the callee side.
  ByteReader reader(request.buffer());
  FEDFLOW_ASSIGN_OR_RETURN(std::string remote_fn, reader.GetString());
  FEDFLOW_ASSIGN_OR_RETURN(Row remote_args, reader.GetRow());
  obs::TraceContext wire_ctx;
  if (!reader.AtEnd()) {
    FEDFLOW_ASSIGN_OR_RETURN(int64_t trace_id, reader.GetI64());
    FEDFLOW_ASSIGN_OR_RETURN(int64_t span_id, reader.GetI64());
    wire_ctx.trace_id = static_cast<uint64_t>(trace_id);
    wire_ctx.span_id = static_cast<obs::SpanId>(span_id);
  }
  if (!reader.AtEnd()) {
    return Status::Internal("rmi: trailing request bytes");
  }

  VDuration request_us =
      model->rmi_call_base_us + model->MarshalCost(payload_bytes);
  FaultInjector::Decision decision;
  if (faults != nullptr) decision = faults->Consult(function);
  request_us += decision.extra_latency_us;
  *request_us_out = request_us;
  if (decision.extra_latency_us > 0) {
    guard.AddClientEvent("latency spike",
                         std::to_string(decision.extra_latency_us) + " us");
  }
  if (decision.fault != FaultInjector::Fault::kNone) {
    Status failure = InjectedStatus(decision.fault, function);
    guard.AddClientEvent("fault injected", failure.message());
    guard.set_status(failure);
    FillFailureCosts(model, request_us, failure, costs);
    return failure;
  }

  guard.OpenServer(remote_fn, wire_ctx);
  Result<Table> result = handler(remote_fn, remote_args);
  if (!result.ok()) {
    guard.set_status(result.status());
    FillFailureCosts(model, request_us, result.status(), costs);
  }
  return result;
}

}  // namespace

Result<Table> RmiChannel::Invoke(const std::string& function,
                                 const std::vector<Value>& args,
                                 const Handler& handler, CallCosts* costs,
                                 obs::TraceSession* trace) const {
  VDuration return_us = 0;
  FEDFLOW_ASSIGN_OR_RETURN(
      RowSourcePtr source,
      InvokeStreaming(function, args, handler, SIZE_MAX, costs,
                      [&return_us](VDuration cost) { return_us += cost; },
                      trace));
  FEDFLOW_ASSIGN_OR_RETURN(Table result, DrainToTable(*source));
  if (costs != nullptr) costs->return_us = return_us;
  return result;
}

Result<RowSourcePtr> RmiChannel::InvokeStreaming(
    const std::string& function, const std::vector<Value>& args,
    const Handler& handler, size_t batch_size, CallCosts* costs,
    ChunkCostFn on_chunk, obs::TraceSession* trace) const {
  RmiSpanGuard guard(trace);
  VDuration request_us = 0;
  FEDFLOW_ASSIGN_OR_RETURN(Table result,
                           ServeAttempt(model_, faults_, function, args,
                                        handler, costs, guard, &request_us));

  if (costs != nullptr) {
    costs->call_us = request_us;
    costs->return_us = 0;  // the response leg arrives through on_chunk
  }

  ByteWriter response;
  response.PutTable(result);
  return OpenResponseStream(std::move(response).TakeBuffer(), batch_size,
                            model_, std::move(on_chunk));
}

Result<RowSourcePtr> RmiChannel::DecodeResponseBuffer(
    std::vector<uint8_t> buffer, size_t batch_size) const {
  return OpenResponseStream(std::move(buffer), batch_size, model_, nullptr);
}

}  // namespace fedflow::sim

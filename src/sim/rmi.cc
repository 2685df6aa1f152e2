#include "sim/rmi.h"

#include <memory>
#include <utility>

#include "common/codec.h"

namespace fedflow::sim {

namespace {

/// Decodes a marshalled response buffer chunk by chunk. `prefix_[i]` is the
/// cumulative buffer size after encoding row i; charging
/// MarshalCost(new cursor) - MarshalCost(old cursor) per chunk makes the
/// total exactly equal the one-shot MarshalCost of the whole buffer, integer
/// division notwithstanding.
class ResponseStreamSource : public RowSource {
 public:
  ResponseStreamSource(std::vector<uint8_t> buffer, Schema schema,
                       size_t num_rows, std::vector<size_t> prefix,
                       size_t header_bytes, size_t batch_size,
                       const LatencyModel* model,
                       RmiChannel::ChunkCostFn on_chunk)
      : buffer_(std::move(buffer)),
        schema_(std::move(schema)),
        num_rows_(num_rows),
        prefix_(std::move(prefix)),
        header_bytes_(header_bytes),
        batch_size_(batch_size),
        model_(model),
        on_chunk_(std::move(on_chunk)),
        reader_(buffer_) {
    // Skip the header; OpenResponseStream already validated it.
    (void)reader_.GetSchema();
    (void)reader_.GetU32();
  }

  const Schema& schema() const override { return schema_; }

  Result<RowBatch> Next() override {
    RowBatch batch;
    const size_t take = std::min(batch_size_, num_rows_ - next_row_);
    batch.rows.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      FEDFLOW_ASSIGN_OR_RETURN(Row row, reader_.GetRow());
      batch.rows.push_back(std::move(row));
    }
    ChargeChunk(next_row_ + take);
    return batch;
  }

  /// Columnar variant: decodes the same chunk (the wire format is row-major)
  /// straight into a column batch. Virtual-time charges are identical to
  /// Next() — the chunk boundary, not the batch layout, determines the cost.
  Result<ColumnBatch> NextColumns() override {
    const size_t take = std::min(batch_size_, num_rows_ - next_row_);
    std::vector<Row> rows;
    rows.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      FEDFLOW_ASSIGN_OR_RETURN(Row row, reader_.GetRow());
      rows.push_back(std::move(row));
    }
    ChargeChunk(next_row_ + take);
    return ColumnBatch::FromRows(schema_, std::move(rows));
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
    const size_t cum = end_row == 0 ? header_bytes_ : prefix_[end_row - 1];
    VDuration cost =
        model_->MarshalCost(cum) - model_->MarshalCost(charged_bytes_);
    if (!charged_base_) {
      cost += model_->rmi_return_base_us;
      charged_base_ = true;
    }
    charged_bytes_ = cum;
    if (cost > 0) on_chunk_(cost);
  }

  std::vector<uint8_t> buffer_;
  Schema schema_;
  size_t num_rows_;
  std::vector<size_t> prefix_;
  size_t header_bytes_;
  size_t batch_size_;
  const LatencyModel* model_;
  RmiChannel::ChunkCostFn on_chunk_;
  ByteReader reader_;
  size_t next_row_ = 0;
  size_t charged_bytes_ = 0;
  bool charged_base_ = false;
};

/// Opens the chunked decoder over a marshalled response. The header's row
/// count comes off the wire and sizes the decoder's reserves, so a count the
/// remaining bytes cannot hold (every row carries at least its 4-byte arity)
/// is rejected as truncation.
Result<RowSourcePtr> OpenResponseStream(std::vector<uint8_t> buffer,
                                        std::vector<size_t> prefix,
                                        size_t header_bytes,
                                        size_t batch_size,
                                        const LatencyModel* model,
                                        RmiChannel::ChunkCostFn on_chunk) {
  ByteReader header(buffer);
  FEDFLOW_ASSIGN_OR_RETURN(Schema schema, header.GetSchema());
  FEDFLOW_ASSIGN_OR_RETURN(uint32_t num_rows, header.GetU32());
  if (num_rows > header.remaining() / 4) {
    return Status::ExecutionError("codec: truncated");
  }
  return RowSourcePtr(new ResponseStreamSource(
      std::move(buffer), std::move(schema), num_rows, std::move(prefix),
      header_bytes, batch_size, model, std::move(on_chunk)));
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
  void OpenClient(const std::string& function, bool streaming,
                  ByteWriter& request) {
    if (trace_ == nullptr) return;
    client_ = trace_->tracer()->StartSpan("rmi:" + function, obs::Layer::kRmi,
                                          trace_->current(), Now());
    if (streaming) {
      trace_->tracer()->SetAttribute(client_, "streaming", "true");
    }
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

/// The request leg + handler execution shared by Invoke and InvokeStreaming:
/// marshal, decode on the callee side (including any propagated trace
/// context), consult the fault injector, run the handler under the server
/// span. `request_us_out` receives the modeled request-leg cost.
Result<Table> ServeAttempt(const LatencyModel* model, FaultInjector* faults,
                           const std::string& function,
                           const std::vector<Value>& args,
                           const RmiChannel::Handler& handler, bool streaming,
                           RmiChannel::CallCosts* costs, RmiSpanGuard& guard,
                           VDuration* request_us_out) {
  ByteWriter request;
  request.PutString(function);
  request.PutRow(args);
  const size_t payload_bytes = request.size();
  guard.OpenClient(function, streaming, request);

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
  RmiSpanGuard guard(trace);
  VDuration request_us = 0;
  FEDFLOW_ASSIGN_OR_RETURN(
      Table result, ServeAttempt(model_, faults_, function, args, handler,
                                 /*streaming=*/false, costs, guard,
                                 &request_us));

  // Marshal the response and unmarshal it on the caller side.
  ByteWriter response;
  response.PutTable(result);
  ByteReader response_reader(response.buffer());
  FEDFLOW_ASSIGN_OR_RETURN(Table reconstructed, response_reader.GetTable());

  if (costs != nullptr) {
    costs->call_us = request_us;
    costs->return_us =
        model_->rmi_return_base_us + model_->MarshalCost(response.size());
  }
  return reconstructed;
}

Result<RowSourcePtr> RmiChannel::InvokeStreaming(
    const std::string& function, const std::vector<Value>& args,
    const Handler& handler, size_t batch_size, CallCosts* costs,
    ChunkCostFn on_chunk, obs::TraceSession* trace) const {
  RmiSpanGuard guard(trace);
  VDuration request_us = 0;
  FEDFLOW_ASSIGN_OR_RETURN(
      Table result, ServeAttempt(model_, faults_, function, args, handler,
                                 /*streaming=*/true, costs, guard,
                                 &request_us));

  if (costs != nullptr) {
    costs->call_us = request_us;
    costs->return_us = 0;  // the response leg arrives through on_chunk
  }

  // Marshal the response exactly as PutTable would (same byte layout, so the
  // total wire size equals the non-streaming path's), recording the buffer
  // size at every row boundary for the per-chunk cost telescope.
  ByteWriter response;
  response.PutSchema(result.schema());
  response.PutU32(static_cast<uint32_t>(result.num_rows()));
  const size_t header_bytes = response.size();
  std::vector<size_t> prefix;
  prefix.reserve(result.num_rows());
  for (const Row& row : result.rows()) {
    response.PutRow(row);
    prefix.push_back(response.size());
  }

  return OpenResponseStream(response.buffer(), std::move(prefix),
                            header_bytes, batch_size, model_,
                            std::move(on_chunk));
}

Result<RowSourcePtr> RmiChannel::DecodeResponseBuffer(
    std::vector<uint8_t> buffer, size_t batch_size) const {
  // No cost callback: the prefix sums only feed chunk-cost accounting.
  return OpenResponseStream(std::move(buffer), {}, 0, batch_size, model_,
                            nullptr);
}

}  // namespace fedflow::sim

// Simulated RMI channel. Arguments and results really are marshalled through
// the binary codec (as in the paper's Java-RMI prototype), and the modeled
// wire cost depends on the marshalled size. An optional FaultInjector makes
// the channel unreliable: attempts can fail transiently or permanently
// (surfaced as Status::Unavailable) or suffer latency spikes.
#ifndef FEDFLOW_SIM_RMI_H_
#define FEDFLOW_SIM_RMI_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/row_source.h"
#include "common/table.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/latency.h"

namespace fedflow::sim {

/// A synchronous request/response channel with marshalling.
class RmiChannel {
 public:
  /// `faults` (optional) is consulted once per invocation attempt; null or
  /// profile-free injectors leave the channel reliable.
  explicit RmiChannel(const LatencyModel* model,
                      FaultInjector* faults = nullptr)
      : model_(model), faults_(faults) {}

  /// Server side of a call: receives the function name and unmarshalled
  /// arguments, returns the result table.
  using Handler = std::function<Result<Table>(
      const std::string& function, const std::vector<Value>& args)>;

  /// Costs of one round trip. Failed calls still have costs: the request leg
  /// was spent before the failure, and the error response travels back over
  /// the wire like any other (its size modeled on the status message).
  struct CallCosts {
    VDuration call_us = 0;    ///< request marshal + dispatch
    VDuration return_us = 0;  ///< response (or error) marshal + unmarshal
  };

  /// Invokes `handler` "remotely" and materializes its result: exactly
  /// InvokeStreaming drained in one chunk, with that chunk's cost in
  /// `costs->return_us` — there is one marshal path. On failure `costs`
  /// (optional) receives the request leg plus the error-response leg, so
  /// failed attempts are never free.
  ///
  /// `trace` (optional) activates trace-context propagation: the client call
  /// span's identity is marshalled into the request after the payload, the
  /// server side decodes it off the wire and parents its serve span (and the
  /// handler's spans) under the decoded context. Wire costs are computed on
  /// the payload size alone, so traced and untraced runs charge identical
  /// virtual time. Failed attempts stamp the span's "status" attribute with
  /// the failing Status code.
  Result<Table> Invoke(const std::string& function,
                       const std::vector<Value>& args, const Handler& handler,
                       CallCosts* costs,
                       obs::TraceSession* trace = nullptr) const;

  /// Receives the modeled wire cost of one response chunk as it is pulled.
  using ChunkCostFn = std::function<void(VDuration)>;

  /// Marshals `args`, unmarshals them on the callee side and runs the
  /// handler eagerly (`costs->call_us` receives the request cost). The
  /// handler's table is encoded into one buffer that moves into the
  /// returned stream, which decodes it `batch_size` rows at a time —
  /// NextColumns() straight into typed columns. `on_chunk` (optional) is
  /// called with each chunk's wire cost as it is pulled. Chunk costs
  /// telescope over the decoder's cursor: the bytes consumed after row i
  /// equal the encoder's size after row i, so a fully drained stream charges
  /// base + MarshalCost(buffer size), the base and the response header
  /// riding on the first chunk. On success `costs->return_us` stays 0 (the
  /// response leg arrives through on_chunk); on failure both legs are
  /// filled. A row whose arity is not the schema's width fails the pull.
  Result<RowSourcePtr> InvokeStreaming(const std::string& function,
                                       const std::vector<Value>& args,
                                       const Handler& handler,
                                       size_t batch_size, CallCosts* costs,
                                       ChunkCostFn on_chunk,
                                       obs::TraceSession* trace = nullptr) const;

  /// Test seam: wraps a raw marshalled response buffer in InvokeStreaming's
  /// decoder without running a handler and without charging costs.
  /// Malformed buffers (truncated rows, inflated row counts, row arities
  /// other than the schema's width) must surface as Status from the header
  /// check or from Next()/NextColumns(), never as UB.
  Result<RowSourcePtr> DecodeResponseBuffer(std::vector<uint8_t> buffer,
                                            size_t batch_size) const;

 private:
  const LatencyModel* model_;
  FaultInjector* faults_;
};

}  // namespace fedflow::sim

#endif  // FEDFLOW_SIM_RMI_H_

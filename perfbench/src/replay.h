// Layer replay: re-runs an engine run's rounds through each module's
// public functions, one call at a time, with a span around every call.
//
// The replay mirrors core::TaskRuntime's round loop on the same inputs —
// participant selection, behaviour gate, venue split, seeds, message ids,
// payload puts and reclamation — and drives a real flow::Dispatcher (same
// strategy, seed, link policy and behaviour hooks) on its own event loop
// into a sink that decodes and accumulates with ml::FedAvgAggregator. The
// cloud's round-closing decisions (trigger, deadline, quorum, abort) are
// taken from the engine's recorded rounds: each round closes at the
// virtual time the engine closed it. The replay then checks that it saw
// the same work: per round, the client count and sample total the engine
// aggregated, the same test log-loss, and at the end the same final model
// and flow counters. Any disagreement makes the replay unfaithful.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/task_runtime.h"
#include "data/example.h"
#include "flow/device_flow.h"
#include "trace.h"

namespace simdc::perfbench {

struct ReplayResult {
  /// False when the replay's work disagreed with the engine's; `mismatch`
  /// then describes the first disagreement.
  bool faithful = true;
  std::string mismatch;
  flow::DispatchStats dispatch;
  std::size_t messages_emitted = 0;
  std::size_t train_calls = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t bytes_written = 0;
  std::size_t arena_blocks_created = 0;
  std::size_t arena_blocks_recycled = 0;
  /// Events the replay's event loop executed.
  std::size_t events = 0;
};

/// Replays `engine_result`'s rounds of the experiment `config` on
/// `dataset`, starting at virtual time `start` (a tenant's admission time;
/// 0 for a solo run). Spans go to `tracer`.
ReplayResult ReplayRounds(const data::FederatedDataset& dataset,
                          const core::FlExperimentConfig& config,
                          const core::FlRunResult& engine_result,
                          SimTime start, Tracer& tracer);

}  // namespace simdc::perfbench

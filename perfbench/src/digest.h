// 64-bit result digest of a benchmark run.
//
// The benchmark's correctness check: every timed repeat of a workload must
// fold to the same digest as an untimed reference run, a parallelism = 1
// run and a run without the round-timing hook (the engine's determinism
// contract). FNV-1a over the raw bytes of every folded field, so a single
// flipped bit anywhere in the result changes the digest.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "core/multi_tenant.h"
#include "core/task_runtime.h"
#include "flow/device_flow.h"

namespace simdc::perfbench {

class Digest {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ = (state_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  void U64(std::uint64_t value) { Bytes(&value, sizeof(value)); }
  void F64(double value) { U64(std::bit_cast<std::uint64_t>(value)); }
  void F32(float value) {
    const auto bits = std::bit_cast<std::uint32_t>(value);
    Bytes(&bits, sizeof(bits));
  }
  void Floats(std::span<const float> values) {
    U64(values.size());
    Bytes(values.data(), values.size_bytes());
  }

  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

inline void Fold(Digest& d, const core::FlRunResult& result) {
  d.U64(result.rounds.size());
  for (const core::RoundMetrics& m : result.rounds) {
    d.U64(m.round);
    d.U64(static_cast<std::uint64_t>(m.time));
    d.F64(m.test_accuracy);
    d.F64(m.test_logloss);
    d.F64(m.train_accuracy);
    d.F64(m.train_logloss);
    d.U64(m.clients);
    d.U64(m.samples);
  }
  d.U64(result.messages_emitted);
  d.U64(result.messages_dropped);
  d.U64(result.skipped_unavailable);
  d.U64(result.rounds_degraded);
  d.U64(result.rounds_extended);
  d.U64(result.rounds_aborted);
  d.U64(result.model_dim);
  d.Floats(result.final_weights);
  d.F32(result.final_bias);
}

/// Counters only: the batch log's length is folded, its entries are not.
inline void Fold(Digest& d, const flow::DispatchStats& stats) {
  d.U64(stats.received);
  d.U64(stats.sent);
  d.U64(stats.dropped);
  d.U64(stats.retries);
  d.U64(stats.retry_successes);
  d.U64(stats.deadline_drops);
  d.U64(stats.churn_losses);
  d.U64(stats.batches_truncated);
  d.U64(stats.batches.size());
}

inline void Fold(Digest& d, const cloud::AggregationService& service) {
  d.U64(service.rounds_completed());
  d.U64(service.messages_received());
  d.U64(service.decode_failures());
  d.U64(service.stale_rejections());
  d.U64(service.store_errors());
  d.U64(service.deadline_commits());
  d.U64(service.round_extensions());
  d.U64(service.aborted_rounds());
}

inline void Fold(Digest& d, const core::TaskSlaReport& sla) {
  d.U64(sla.task.value());
  d.U64(sla.rounds);
  d.F64(sla.round_latency_mean_s);
  d.F64(sla.round_latency_max_s);
  d.F64(sla.round_latency_p50_s);
  d.F64(sla.round_latency_p95_s);
  d.F64(sla.round_latency_p99_s);
  d.U64(sla.retries);
  d.U64(sla.deadline_drops);
  d.U64(sla.churn_losses);
  d.U64(sla.rounds_degraded);
  d.U64(sla.rounds_extended);
  d.U64(sla.rounds_aborted);
  d.U64(sla.skipped_unavailable);
  d.U64(sla.messages_emitted);
  d.U64(sla.messages_dropped);
  d.U64(static_cast<std::uint64_t>(sla.submitted));
  d.U64(static_cast<std::uint64_t>(sla.admitted));
  d.U64(static_cast<std::uint64_t>(sla.completed));
  d.F64(sla.queue_wait_s);
  d.F64(sla.makespan_s);
}

inline void Fold(Digest& d, const core::TenantResult& tenant) {
  d.U64(tenant.id.value());
  d.U64(tenant.completed ? 1 : 0);
  d.U64(tenant.rejected ? 1 : 0);
  Fold(d, tenant.result);
  Fold(d, tenant.sla);
}

}  // namespace simdc::perfbench

// Cloud-side aggregation service.
//
// §VI-C1: "In real federated learning scenarios, the cloud usually does
// not know the exact number of participating devices or samples per
// training round in advance. Therefore, conditions must be set to trigger
// aggregation. Common triggers include reaching a threshold of total edge
// training samples or reaching scheduled times."
//
// The service is a DeviceFlow CloudEndpoint: it receives messages,
// accumulates the referenced model updates into a FedAvg aggregator, and
// publishes a new global model whenever its trigger fires
// (sample-threshold — Fig. 9a — or scheduled — Fig. 9b / Fig. 11).
//
// Every delivery runs one admission → commit → stage body. Admission
// books the message and applies the staleness verdict. On the decoded
// payload plane (flow::DecodePlane::kDecoded) the blob fetch + decode
// happened upstream, in parallel; undecoded deliveries (the legacy decode
// plane and per-message delivery) are decoded here, after admission, by
// the same BlobModelDecoder. The commit books a failed fetch/decode or a
// wrong-dimension model, and stages everything else as a {shared model,
// samples} entry in O(1). Staged entries are flushed into per-lane
// partial FedAvg aggregators on the worker pool, merged in fixed
// ascending-lane order, so per round the serial side does O(lanes·dim)
// merge work instead of O(msgs·dim) adds. The FedAvg cascade is
// order-invariant (see ml/fedavg.h), so lane count, flush timing and
// slicing are bit-invisible in every published model, counter and
// snapshot: the result equals one serial FedAvgAggregator fed the admitted
// updates in delivery order (pinned by AggregationPartialSumTest).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/payload_decoder.h"
#include "cloud/storage.h"
#include "common/clock.h"
#include "flow/device_flow.h"
#include "ml/fedavg.h"
#include "ml/lr_model.h"
#include "sim/event_loop.h"

namespace simdc {
class ThreadPool;
}  // namespace simdc

namespace simdc::cloud {

enum class AggregationTrigger {
  /// Aggregate when accumulated training samples reach a threshold.
  kSampleThreshold,
  /// Aggregate on a fixed schedule regardless of arrivals.
  kScheduled,
};

struct AggregationConfig {
  std::uint32_t model_dim = 0;
  AggregationTrigger trigger = AggregationTrigger::kSampleThreshold;
  /// kSampleThreshold: total edge training samples that trigger a round.
  std::size_t sample_threshold = 1000;
  /// kScheduled: aggregation period.
  SimDuration schedule_period = Seconds(60.0);
  /// Stop after this many aggregations (0 = unbounded).
  std::size_t max_rounds = 0;
  /// Reject updates whose message.round is older than the current
  /// aggregation round (production FL servers discard stale updates;
  /// keeps round timing faithful to the traffic curve, Fig. 9).
  bool reject_stale = false;
  /// Graceful degradation: quorum/deadline policy for rounds on a churning
  /// fleet. Engages only when BOTH round_quorum > 0 and round_deadline > 0
  /// (the defaults reproduce pre-policy behavior exactly — no deadline
  /// event is ever scheduled). When a round opened via OnRoundOpened
  /// passes its deadline: quorum met -> commit with the updates on hand
  /// (a "deadline commit", i.e. a degraded round); quorum missed ->
  /// extend the deadline up to max_round_extensions times; extensions
  /// exhausted -> abort the round (partial updates discarded, the
  /// round-abort callback fires so the driver can advance).
  std::size_t round_quorum = 0;
  SimDuration round_deadline = 0;
  /// Per-extension grace (0 = reuse round_deadline).
  SimDuration round_extension = 0;
  std::size_t max_round_extensions = 1;
};

/// One completed aggregation.
struct AggregationRecord {
  std::size_t round = 0;
  SimTime time = 0;
  std::size_t clients = 0;
  std::size_t samples = 0;
  /// Storage id of the published global model.
  BlobId model_blob;
};

/// Bit-exact image of an AggregationService mid-experiment — everything a
/// checkpoint needs to resume aggregation at a round boundary: completed
/// history, failure counters, the published global model's bits, and the
/// FedAvg accumulator (empty at quiescent boundaries, carried anyway so
/// the snapshot is a total function of the service).
struct AggregationSnapshot {
  std::vector<AggregationRecord> history;
  std::uint64_t messages_received = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t stale_rejections = 0;
  std::uint64_t store_errors = 0;
  /// Degradation accounting (quorum/deadline policy).
  std::uint64_t deadline_commits = 0;
  std::uint64_t round_extensions = 0;
  std::uint64_t aborted_rounds = 0;
  std::uint32_t model_dim = 0;
  std::vector<float> global_weights;
  float global_bias = 0.0f;
  std::vector<double> accumulator;
  /// Compensation planes of the order-invariant cascade (ml/fedavg.h);
  /// carried bit-exactly so recovery resumes the same represented sum.
  std::vector<double> accumulator_c1;
  std::vector<double> accumulator_c2;
  double bias_accumulator = 0.0;
  double bias_accumulator_c1 = 0.0;
  double bias_accumulator_c2 = 0.0;
  std::uint64_t accumulator_samples = 0;
  std::uint64_t accumulator_clients = 0;
};

class AggregationService final : public flow::CloudEndpoint {
 public:
  AggregationService(sim::EventLoop& loop, BlobStore& storage,
                     AggregationConfig config);

  /// Worker pool for the parallel flush of staged updates. Optional: with
  /// no pool (or a 1-thread pool) the flush accumulates serially, which is
  /// bit-identical (order-invariant cascade). The pool must outlive the
  /// service; flushes run only while the pool is otherwise idle (dispatch
  /// handlers run on the serial side, after any lockstep barrier).
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Arms the scheduled trigger (no-op for sample-threshold).
  void Start();
  void Stop() { stopped_ = true; }

  /// Round lifecycle hook for the quorum/deadline policy: the driver (the
  /// FL engine) calls this when a round opens at `t0`. Arms the round's
  /// deadline event at t0 + round_deadline; a no-op when the policy is
  /// disabled, so drivers can call it unconditionally.
  void OnRoundOpened(SimTime t0);

  /// Undecoded DeviceFlow delivery (legacy decode plane, per-message
  /// delivery): admission first, then fetch + decode inside this serial
  /// handler, then the shared commit. A stale message never reads the
  /// store.
  void Deliver(const flow::Message& message, SimTime arrival) override;

  /// Batched undecoded delivery: one dispatch tick in a single call. Each
  /// message is admitted in order with its own arrival stamp, so
  /// threshold-triggered aggregations record the same round time the
  /// per-message path would (the triggering message's arrival).
  void DeliverBatch(std::span<const flow::Message> messages,
                    std::span<const SimTime> arrivals) override;

  /// Decoded-plane delivery: payloads were fetched + decoded upstream
  /// (dispatch ticks, possibly on shard workers), so the serial side is
  /// only admission, counter commits and O(1) staging — it never touches
  /// BlobStore or FromBytes. A decode failure commits only if the update
  /// survives the reject_stale check, in delivery order (see
  /// flow::DecodedUpdate), exactly as on the undecoded path.
  void DeliverDecodedBatch(std::span<const flow::DecodedUpdate> updates,
                           std::span<const SimTime> arrivals) override;

  const ml::LrModel& global_model() const { return global_model_; }
  void SetGlobalModel(ml::LrModel model) { global_model_ = std::move(model); }

  const std::vector<AggregationRecord>& history() const { return history_; }
  std::size_t rounds_completed() const { return history_.size(); }
  std::size_t messages_received() const { return messages_received_; }
  std::size_t decode_failures() const { return decode_failures_; }
  std::size_t stale_rejections() const { return stale_rejections_; }
  /// Updates dropped because the store failed to serve their payload with
  /// anything other than kNotFound (I/O faults) — never bundled into
  /// decode_failures, so existing accounting is unchanged when no store
  /// faults occur.
  std::size_t store_errors() const { return store_errors_; }
  /// Samples/clients admitted to the open round: the aggregator's totals
  /// plus entries staged but not yet flushed.
  std::size_t pending_samples() const {
    return aggregator_.total_samples() + staged_samples_;
  }
  std::size_t pending_clients() const {
    return aggregator_.clients() + staged_clients_;
  }
  /// Degraded rounds committed at their deadline with quorum met.
  std::size_t deadline_commits() const { return deadline_commits_; }
  /// Deadline extensions granted to quorum-short rounds.
  std::size_t round_extensions() const { return round_extensions_; }
  /// Rounds aborted after exhausting extensions below quorum (their
  /// partial updates were discarded).
  std::size_t aborted_rounds() const { return aborted_rounds_; }

  /// Profiling (wall-clock, NOT part of any bit-identity surface): time
  /// spent in the O(dim) accumulate — flushes (lane accumulate + ascending
  /// merge).
  std::uint64_t serial_accumulate_ns() const { return serial_accumulate_ns_; }
  /// Batched-delivery handler time minus the accumulate share: admission,
  /// staleness verdicts, counter commits, staging.
  std::uint64_t serial_bookkeeping_ns() const { return serial_bookkeeping_ns_; }

  /// Bit-exact state image for checkpointing (see AggregationSnapshot).
  AggregationSnapshot Snapshot() const;
  /// Restores the service to a snapshot (recovery path). The snapshot's
  /// model_dim must match this service's configured dimension.
  void RestoreSnapshot(const AggregationSnapshot& snapshot);

  /// Fired after each aggregation with the new global model.
  using AggregateCallback =
      std::function<void(const AggregationRecord&, const ml::LrModel&)>;
  void set_on_aggregate(AggregateCallback callback) {
    on_aggregate_ = std::move(callback);
  }

  /// Fired when a round is aborted under the quorum/deadline policy, with
  /// the abort time; the driver records the degraded round and advances.
  using RoundAbortCallback = std::function<void(SimTime)>;
  void set_on_round_aborted(RoundAbortCallback callback) {
    on_round_aborted_ = std::move(callback);
  }

  /// Forces an aggregation now (used at experiment teardown).
  bool AggregateNow() { return AggregateAt(loop_.Now()); }

 private:
  bool DegradationActive() const {
    return config_.round_quorum > 0 && config_.round_deadline > 0;
  }
  void ArmDeadline(SimTime when);
  /// Deadline-event body: commit (quorum met), extend, or abort.
  void OnDeadline();
  void ArmSchedule();
  /// Runs a batch handler's per-message loop; its wall time minus the
  /// flushes inside it books as serial_bookkeeping_ns_.
  template <typename Item>
  void DeliverEach(std::span<const Item> items,
                   std::span<const SimTime> arrivals);
  /// Delivery bodies; `arrival` is the message's wire arrival stamp (==
  /// loop time in the per-message path, possibly ahead of loop time inside
  /// a batched tick). The undecoded one decodes after admission.
  void DeliverOne(const flow::Message& message, SimTime arrival);
  void DeliverOne(const flow::DecodedUpdate& update, SimTime arrival);
  /// Books the delivery and applies the staleness verdict; false when the
  /// message is dropped (service stopped, or stale under reject_stale).
  bool Admit(const flow::Message& message);
  /// Post-admission tail shared by every delivery: counts and logs a
  /// failed fetch/decode or a wrong-dimension model, else stages the
  /// update, checks the sample threshold on the combined (flushed +
  /// staged) totals and flushes at capacity.
  void Commit(const flow::DecodedUpdate& update, SimTime arrival);
  /// Drains staged entries into the aggregator: serially without a pool,
  /// else via per-lane partials on the pool merged in ascending-lane order.
  /// Bit-invisible either way (order-invariant cascade).
  void FlushPending();
  /// Drops staged entries (round abort / snapshot restore).
  void DiscardPending();
  /// Aggregates with an explicit round timestamp (`when` is recorded as
  /// AggregationRecord::time).
  bool AggregateAt(SimTime when);

  /// One admitted-but-unflushed update.
  struct StagedUpdate {
    std::shared_ptr<const ml::LrModel> model;
    std::size_t samples = 0;
  };
  /// Flush whenever this many entries are staged: bounds shared-payload
  /// retention and keeps flush slices cache-sized, without changing any
  /// published bit (flush timing is inside the invariance window).
  static constexpr std::size_t kFlushCap = 256;
  /// Partial-aggregator lane ceiling for one flush.
  static constexpr std::size_t kMaxLanes = 8;

  sim::EventLoop& loop_;
  BlobStore& storage_;
  /// Fetch + decode for undecoded deliveries (the decoded plane's decoder).
  BlobModelDecoder decoder_;
  AggregationConfig config_;
  ml::FedAvgAggregator aggregator_;
  ml::LrModel global_model_;
  std::vector<AggregationRecord> history_;
  AggregateCallback on_aggregate_;
  RoundAbortCallback on_round_aborted_;
  std::size_t messages_received_ = 0;
  std::size_t decode_failures_ = 0;
  std::size_t stale_rejections_ = 0;
  std::size_t store_errors_ = 0;
  /// Quorum/deadline policy state: the pending deadline event (cancelled
  /// when the round closes by trigger), the history length it was armed
  /// against (stale-event guard), and extensions used this round.
  sim::EventHandle deadline_event_ = 0;
  std::size_t deadline_round_ = 0;
  std::size_t extensions_used_ = 0;
  std::size_t deadline_commits_ = 0;
  std::size_t round_extensions_ = 0;
  std::size_t aborted_rounds_ = 0;
  /// Staged updates awaiting a flush, their running totals, the reusable
  /// per-lane partial aggregators, and the pool.
  std::vector<StagedUpdate> pending_;
  std::size_t staged_samples_ = 0;
  std::size_t staged_clients_ = 0;
  std::vector<ml::FedAvgAggregator> partials_;
  ThreadPool* pool_ = nullptr;
  /// Wall-clock profiling totals (see the accessors).
  std::uint64_t serial_accumulate_ns_ = 0;
  std::uint64_t serial_bookkeeping_ns_ = 0;
  bool stopped_ = false;
};

}  // namespace simdc::cloud

#include "replay.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

#include "cloud/payload_decoder.h"
#include "cloud/storage.h"
#include "common/rng.h"
#include "device/behavior.h"
#include "ml/fedavg.h"
#include "ml/metrics.h"
#include "ml/operators.h"
#include "sim/event_loop.h"

namespace simdc::perfbench {
namespace {

/// Decoder handed to the replay's dispatcher: the engine's own decoder
/// with a span around each call (the dispatcher decodes at tick time).
class TracedDecoder final : public flow::PayloadDecoder {
 public:
  TracedDecoder(const cloud::BlobStore& store, Tracer& tracer)
      : inner_(store), tracer_(tracer) {}
  flow::DecodedUpdate Decode(flow::Message message) const override {
    ScopedSpan span(&tracer_, "cloud.decode");
    return inner_.Decode(std::move(message));
  }

 private:
  cloud::BlobModelDecoder inner_;
  Tracer& tracer_;
};

class LayerReplay final : public flow::CloudEndpoint {
 public:
  LayerReplay(const data::FederatedDataset& dataset,
              const core::FlExperimentConfig& config,
              const core::FlRunResult& engine, Tracer& tracer)
      : dataset_(dataset),
        config_(config),
        engine_(engine),
        tracer_(tracer),
        decoder_(store_, tracer),
        dispatcher_(loop_, config.task, config.strategy, this, config.seed,
                    config.delivery_mode),
        global_(dataset.hash_dim),
        aggregator_(dataset.hash_dim) {
    if (config_.decode_plane == flow::DecodePlane::kDecoded) {
      dispatcher_.set_decoder(&decoder_);
    }
    // Same fault-plane wiring as TaskRuntime::ConfigureLinkPlane.
    dispatcher_.set_link_policy(config_.link);
    if (config_.behavior.enabled) {
      behavior_ = std::make_unique<device::BehaviorModel>(config_.behavior);
      const device::BehaviorModel* model = behavior_.get();
      dispatcher_.set_availability([model](DeviceId device, SimTime when) {
        return model->Available(device.value(), when);
      });
      if (config_.behavior.link_base_failure > 0.0 ||
          config_.behavior.link_diurnal_swing > 0.0) {
        dispatcher_.set_link_probability(
            [model](DeviceId device, SimTime when) {
              return model->LinkFailureProbability(device.value(), when);
            });
      }
    }
    BuildTrainEvalPool();
  }

  ReplayResult Run(SimTime start) {
    if (engine_.rounds.empty()) {
      Mismatch("engine recorded no rounds");
      return std::move(result_);
    }
    loop_.FastForwardTo(start);
    StartRound(0, start);
    {
      ScopedSpan span(&tracer_, "sim.loop");
      result_.events = loop_.Run();
    }
    Finish();
    return std::move(result_);
  }

  // CloudEndpoint: undecoded deliveries (legacy plane) decode here.
  void Deliver(const flow::Message& message, SimTime arrival) override {
    const flow::DecodedUpdate update = decoder_.Decode(message);
    DeliverDecodedBatch(std::span(&update, 1), std::span(&arrival, 1));
  }

  void DeliverDecodedBatch(std::span<const flow::DecodedUpdate> updates,
                           std::span<const SimTime> arrivals) override {
    (void)arrivals;
    if (done_) return;  // the engine stops its service after the last round
    ScopedSpan span(&tracer_, "cloud.deliver");
    for (const flow::DecodedUpdate& update : updates) {
      if (!update.decoded() || update.model->dim() != dataset_.hash_dim) {
        continue;
      }
      const std::size_t samples = std::max<std::size_t>(
          1, update.message.sample_count);
      ScopedSpan add(&tracer_, "ml.accumulate");
      (void)aggregator_.Add(*update.model, samples);
    }
  }

 private:
  void Mismatch(const std::string& what) {
    if (!result_.faithful) return;
    result_.faithful = false;
    result_.mismatch = what;
  }

  /// The engine's capped train-evaluation sample (TaskRuntime's
  /// constructor), so the replay's evaluate does the engine's work.
  void BuildTrainEvalPool() {
    Rng pool_rng = Rng(config_.seed).Split("train-eval-pool");
    for (const auto& device : dataset_.devices) {
      for (const auto& example : device.examples) {
        if (train_eval_pool_.size() < config_.eval_cap) {
          train_eval_pool_.push_back(example);
        } else {
          const auto j = static_cast<std::size_t>(pool_rng.UniformInt(
              0, static_cast<std::int64_t>(train_eval_pool_.size()) * 8));
          if (j < train_eval_pool_.size()) train_eval_pool_[j] = example;
        }
      }
    }
  }

  std::span<const data::Example> TestSpan() const {
    return std::span(dataset_.test_set.data(),
                     std::min(dataset_.test_set.size(), config_.eval_cap));
  }

  struct Trained {
    std::vector<std::byte> bytes;
    std::size_t samples = 0;
    SimDuration delay = 0;
    std::size_t device_index = 0;
  };

  void StartRound(std::size_t round, SimTime t0) {
    tracer_.set_round(static_cast<std::uint32_t>(round));
    ScopedSpan span(&tracer_, "core.round");
    if (config_.reclaim_payload_blobs && !round_blob_ids_.empty()) {
      for (const BlobId id : round_blob_ids_) (void)store_.Delete(id);
      round_blob_ids_.clear();
      (void)store_.ReclaimArena();
    }
    {
      ScopedSpan dispatch(&tracer_, "flow.dispatch");
      dispatcher_.OnRoundStart(round);
    }

    const std::size_t n = dataset_.devices.size();
    std::vector<std::size_t> participants;
    if (config_.participants_per_round == 0 ||
        config_.participants_per_round >= n) {
      participants.resize(n);
      for (std::size_t i = 0; i < n; ++i) participants[i] = i;
    } else {
      Rng round_rng = Rng(config_.seed).Split(round * 2654435761ULL + 17);
      participants =
          round_rng.SampleWithoutReplacement(n, config_.participants_per_round);
      std::sort(participants.begin(), participants.end());
    }
    if (behavior_ != nullptr) {
      std::erase_if(participants, [&](std::size_t index) {
        return !behavior_->Available(dataset_.devices[index].device.value(),
                                     t0);
      });
    }

    const auto logical_cut = static_cast<std::size_t>(
        config_.logical_fraction * static_cast<double>(n) + 0.5);
    scratch_.resize(participants.size());
    for (std::size_t slot = 0; slot < participants.size(); ++slot) {
      const std::size_t device_index = participants[slot];
      const data::DeviceData& shard = dataset_.devices[device_index];
      ml::LrModel local = global_;
      const auto op = ml::MakeLrOperator(device_index < logical_cut
                                             ? ml::OperatorVenue::kServer
                                             : ml::OperatorVenue::kMobile);
      ml::TrainConfig train = config_.train;
      train.shuffle_seed =
          SplitMix64(config_.seed ^ (device_index * 1000003ULL + round));
      {
        ScopedSpan train_span(&tracer_, "ml.train");
        op->Train(local, shard.examples, train);
      }
      ++result_.train_calls;
      Trained& out = scratch_[slot];
      {
        ScopedSpan encode(&tracer_, "ml.encode");
        out.bytes.resize(local.EncodedSize(config_.payload_codec));
        local.EncodeTo(out.bytes, config_.payload_codec);
      }
      result_.payload_bytes += out.bytes.size();
      out.samples = shard.examples.size();
      out.device_index = device_index;
      out.delay = Seconds(config_.compute_seconds) +
                  std::max<SimDuration>(0, Seconds(shard.response_delay_s));
    }

    SimDuration max_delay = 0;
    std::vector<sim::TimedEvent> uploads;
    uploads.reserve(scratch_.size());
    for (Trained& trained : scratch_) {
      max_delay = std::max(max_delay, trained.delay);
      const SimTime when = t0 + trained.delay;
      flow::Message message;
      message.id = MessageId(next_message_id_++);
      message.task = config_.task;
      message.device = dataset_.devices[trained.device_index].device;
      message.round = aggregations_;
      message.payload_bytes = static_cast<std::int64_t>(trained.bytes.size());
      {
        ScopedSpan put(&tracer_, "cloud.put");
        if (config_.reclaim_payload_blobs) {
          message.payload = store_.PutPooled(trained.bytes);
          round_blob_ids_.push_back(message.payload);
        } else {
          message.payload = store_.Put(std::move(trained.bytes));
        }
      }
      message.sample_count = trained.samples;
      message.created = when;
      ++result_.messages_emitted;
      uploads.push_back({when, [this, message = std::move(message)]() mutable {
                           ScopedSpan dispatch(&tracer_, "flow.dispatch");
                           dispatcher_.OnMessage(std::move(message));
                         }});
    }
    (void)loop_.ScheduleBulk(std::move(uploads));
    loop_.ScheduleAt(t0 + max_delay, [this, round] {
      ScopedSpan dispatch(&tracer_, "flow.dispatch");
      dispatcher_.OnRoundEnd(round);
    });
    const SimTime close = engine_.rounds[round].time;
    if (close < t0) {
      Mismatch("round " + std::to_string(round) + " closes before it opens");
    }
    loop_.ScheduleAt(close, [this, round] { Close(round); });
  }

  void Close(std::size_t round) {
    tracer_.set_round(static_cast<std::uint32_t>(round));
    ScopedSpan span(&tracer_, "core.round");
    const core::RoundMetrics& row = engine_.rounds[round];
    double test_logloss = 0.0;
    if (row.clients > 0) {
      if (aggregator_.clients() != row.clients ||
          aggregator_.total_samples() != row.samples) {
        std::ostringstream what;
        what << "round " << round << ": replay aggregated "
             << aggregator_.clients() << " clients / "
             << aggregator_.total_samples() << " samples, engine "
             << row.clients << " / " << row.samples;
        Mismatch(what.str());
      }
      Result<ml::LrModel> model = [this] {
        ScopedSpan aggregate(&tracer_, "ml.aggregate");
        return aggregator_.Aggregate();
      }();
      if (!model.ok()) {
        Mismatch("round " + std::to_string(round) + ": aggregate failed");
      } else {
        global_ = std::move(*model);
        ++aggregations_;
        ScopedSpan put(&tracer_, "cloud.put");
        (void)store_.Put(global_.ToBytes());
      }
      aggregator_.Reset();
      ScopedSpan evaluate(&tracer_, "ml.evaluate");
      test_logloss = ml::Evaluate(global_, TestSpan()).logloss;
      (void)ml::Evaluate(global_, train_eval_pool_);
    } else {
      // An aborted round (below quorum past its extensions) or a stalled,
      // empty one: the engine discards what arrived and keeps its model.
      const bool quorum = config_.round_quorum > 0 && config_.round_deadline > 0;
      const std::size_t limit = quorum ? config_.round_quorum : 1;
      if (aggregator_.clients() >= limit) {
        Mismatch("round " + std::to_string(round) + ": engine aborted with " +
                 std::to_string(aggregator_.clients()) +
                 " replayed arrivals pending");
      }
      aggregator_.Reset();
      ScopedSpan evaluate(&tracer_, "ml.evaluate");
      test_logloss = ml::Evaluate(global_, TestSpan()).logloss;
    }
    if (test_logloss != row.test_logloss) {
      Mismatch("round " + std::to_string(round) + ": test log-loss differs");
    }
    if (round + 1 < engine_.rounds.size()) {
      StartRound(round + 1, std::max(loop_.Now(), row.time));
    } else {
      done_ = true;
    }
  }

  void Finish() {
    result_.dispatch = dispatcher_.stats();
    result_.bytes_written = store_.bytes_written();
    result_.arena_blocks_created = store_.arena_blocks_created();
    result_.arena_blocks_recycled = store_.arena_blocks_recycled();
    if (!done_) Mismatch("replay ended before the engine's last round");
    if (result_.messages_emitted != engine_.messages_emitted ||
        result_.dispatch.dropped != engine_.messages_dropped) {
      Mismatch("emitted/dropped message counts differ");
    }
    const auto weights = global_.weights();
    if (engine_.final_weights.size() != weights.size() ||
        std::memcmp(engine_.final_weights.data(), weights.data(),
                    weights.size_bytes()) != 0 ||
        engine_.final_bias != global_.bias()) {
      Mismatch("final model differs");
    }
  }

  const data::FederatedDataset& dataset_;
  const core::FlExperimentConfig& config_;
  const core::FlRunResult& engine_;
  Tracer& tracer_;
  sim::EventLoop loop_;
  cloud::BlobStore store_;
  TracedDecoder decoder_;
  flow::Dispatcher dispatcher_;
  std::unique_ptr<device::BehaviorModel> behavior_;
  ml::LrModel global_;
  ml::FedAvgAggregator aggregator_;
  std::vector<data::Example> train_eval_pool_;
  std::vector<Trained> scratch_;
  std::vector<BlobId> round_blob_ids_;
  std::uint64_t next_message_id_ = 1;
  std::size_t aggregations_ = 0;
  bool done_ = false;
  ReplayResult result_;
};

}  // namespace

ReplayResult ReplayRounds(const data::FederatedDataset& dataset,
                          const core::FlExperimentConfig& config,
                          const core::FlRunResult& engine_result,
                          SimTime start, Tracer& tracer) {
  ScopedSpan span(&tracer, "replay");
  auto replay =
      std::make_unique<LayerReplay>(dataset, config, engine_result, tracer);
  return replay->Run(start);
}

}  // namespace simdc::perfbench

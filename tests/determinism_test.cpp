// Determinism suite for parallel federated rounds: the
// FlExperimentConfig::parallelism knob must never change results, only
// wall time. Each client trains from its own seed-derived RNG stream into
// a dedicated slot, and updates are reduced in fixed client-index order on
// the event loop, so runs at any worker count are bit-for-bit identical.
#include <gtest/gtest.h>

#include <cstring>

#include "cloud/payload_decoder.h"
#include "core/fl_engine.h"
#include "core/platform.h"
#include "data/synth_avazu.h"
#include "flow/rate_functions.h"
#include "flow/shard_merger.h"

namespace simdc::core {
namespace {

data::FederatedDataset Dataset(std::size_t devices = 120) {
  data::SynthConfig config;
  config.num_devices = devices;
  config.records_per_device_mean = 12;
  config.num_test_devices = 10;
  config.hash_dim = 1u << 12;
  config.seed = 33;
  return data::GenerateSyntheticAvazu(config);
}

FlExperimentConfig BaseConfig() {
  FlExperimentConfig config;
  config.rounds = 3;
  config.train.learning_rate = 0.05;
  config.train.epochs = 2;
  config.logical_fraction = 0.5;  // both kernels in play
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(30.0);
  config.seed = 7;
  return config;
}

FlRunResult RunWith(const data::FederatedDataset& dataset,
                    FlExperimentConfig config, std::size_t parallelism) {
  sim::EventLoop loop;
  config.parallelism = parallelism;
  FlEngine engine(loop, dataset, std::move(config));
  return engine.Run();
}

/// Bit-level equality: EXPECT_EQ on doubles is value equality, which is
/// what we want everywhere except the (impossible here) NaN case; weights
/// are compared as raw float vectors.
void ExpectIdentical(const FlRunResult& a, const FlRunResult& b,
                     std::size_t parallelism) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << "parallelism=" << parallelism;
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].round, b.rounds[i].round);
    EXPECT_EQ(a.rounds[i].time, b.rounds[i].time);
    EXPECT_EQ(a.rounds[i].clients, b.rounds[i].clients);
    EXPECT_EQ(a.rounds[i].samples, b.rounds[i].samples);
    EXPECT_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy);
    EXPECT_EQ(a.rounds[i].test_logloss, b.rounds[i].test_logloss);
    EXPECT_EQ(a.rounds[i].train_accuracy, b.rounds[i].train_accuracy);
    EXPECT_EQ(a.rounds[i].train_logloss, b.rounds[i].train_logloss);
  }
  EXPECT_EQ(a.messages_emitted, b.messages_emitted);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  ASSERT_EQ(a.final_weights.size(), b.final_weights.size());
  EXPECT_EQ(0, std::memcmp(a.final_weights.data(), b.final_weights.data(),
                           a.final_weights.size() * sizeof(float)))
      << "parallelism=" << parallelism;
  EXPECT_EQ(a.final_bias, b.final_bias) << "parallelism=" << parallelism;
}

TEST(DeterminismTest, ParallelRunsBitIdenticalToSequential) {
  const auto dataset = Dataset();
  const auto sequential = RunWith(dataset, BaseConfig(), 1);
  ASSERT_EQ(sequential.rounds.size(), 3u);
  for (const std::size_t parallelism : {2u, 4u, 8u}) {
    const auto parallel = RunWith(dataset, BaseConfig(), parallelism);
    ExpectIdentical(sequential, parallel, parallelism);
  }
}

TEST(DeterminismTest, DropoutAndPartialParticipationUnaffectedByWorkers) {
  // Dropout draws and participant sampling run on the event loop / round
  // RNG streams, never on worker threads — so they too must be invariant.
  const auto dataset = Dataset();
  auto config = BaseConfig();
  config.participants_per_round = 40;
  config.strategy = flow::RealtimeAccumulated{{1}, 0.3};
  const auto sequential = RunWith(dataset, config, 1);
  EXPECT_GT(sequential.messages_dropped, 0u);
  for (const std::size_t parallelism : {2u, 4u, 8u}) {
    ExpectIdentical(sequential, RunWith(dataset, config, parallelism),
                    parallelism);
  }
}

TEST(DeterminismTest, BatchedDeliveryBitIdenticalToPerMessageAtAllWidths) {
  // The message-plane rework (one MessageBatch event per dispatch tick
  // instead of one closure per message) must not change a single bit of
  // the run — at any parallelism. Exercise real multi-message batches
  // (threshold 5) with dropout, plus a sample-threshold trigger so rounds
  // close *inside* delivery ticks.
  const auto dataset = Dataset();
  auto config = BaseConfig();
  config.strategy = flow::RealtimeAccumulated{{5}, 0.2};
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;

  auto run = [&](flow::DeliveryMode mode, std::size_t parallelism) {
    auto c = config;
    c.delivery_mode = mode;
    return RunWith(dataset, c, parallelism);
  };
  const auto reference = run(flow::DeliveryMode::kPerMessage, 1);
  ASSERT_EQ(reference.rounds.size(), 3u);
  EXPECT_GT(reference.messages_dropped, 0u);
  for (const std::size_t parallelism : {1u, 2u, 4u, 8u}) {
    ExpectIdentical(reference, run(flow::DeliveryMode::kBatched, parallelism),
                    parallelism);
    ExpectIdentical(reference,
                    run(flow::DeliveryMode::kPerMessage, parallelism),
                    parallelism);
  }
}

// ---------- Sharded fleets ----------

/// Everything a sharded run must keep bit-identical across widths:
/// FlRunResult (round metrics incl. arrival-derived times, weights),
/// the merged dispatch stats (arrival ticks, drops, sends), and the
/// cloud-side admission counters.
struct ShardedOutcome {
  FlRunResult result;
  flow::DispatchStats stats;
  std::size_t messages_received = 0;
  std::size_t decode_failures = 0;
  std::size_t stale_rejections = 0;
};

FlExperimentConfig ShardableConfig() {
  auto config = BaseConfig();
  // Pass-through ticks + a disengaged rate limiter are the width-invariant
  // regime (see FlExperimentConfig::shards); message-keyed transmission
  // drops exercise the dropout plane.
  config.strategy = flow::RealtimeAccumulated{
      {1}, 0.25, flow::kShardWidthInvariantCapacity};
  return config;
}

ShardedOutcome RunShardedWith(const data::FederatedDataset& dataset,
                              FlExperimentConfig config, std::size_t shards,
                              std::size_t parallelism = 1) {
  sim::EventLoop loop;
  config.shards = shards;
  config.parallelism = parallelism;
  FlEngine engine(loop, dataset, std::move(config));
  ShardedOutcome out;
  out.result = engine.Run();
  out.stats = engine.dispatch_stats();
  out.messages_received = engine.aggregation().messages_received();
  out.decode_failures = engine.aggregation().decode_failures();
  out.stale_rejections = engine.aggregation().stale_rejections();
  return out;
}

void ExpectStatsIdentical(const flow::DispatchStats& a,
                          const flow::DispatchStats& b, std::size_t shards) {
  EXPECT_EQ(a.received, b.received) << "shards=" << shards;
  EXPECT_EQ(a.sent, b.sent) << "shards=" << shards;
  EXPECT_EQ(a.dropped, b.dropped) << "shards=" << shards;
  EXPECT_EQ(a.retries, b.retries) << "shards=" << shards;
  EXPECT_EQ(a.retry_successes, b.retry_successes) << "shards=" << shards;
  EXPECT_EQ(a.deadline_drops, b.deadline_drops) << "shards=" << shards;
  EXPECT_EQ(a.churn_losses, b.churn_losses) << "shards=" << shards;
  EXPECT_EQ(a.batches, b.batches) << "shards=" << shards;
  EXPECT_EQ(a.batch_keys, b.batch_keys) << "shards=" << shards;
  EXPECT_EQ(a.batches_truncated, b.batches_truncated) << "shards=" << shards;
}

void ExpectCountersIdentical(const ShardedOutcome& a, const ShardedOutcome& b,
                             std::size_t shards) {
  EXPECT_EQ(a.messages_received, b.messages_received) << "shards=" << shards;
  EXPECT_EQ(a.decode_failures, b.decode_failures) << "shards=" << shards;
  EXPECT_EQ(a.stale_rejections, b.stale_rejections) << "shards=" << shards;
}

TEST(ShardedDeterminismTest, WidthsBitIdenticalToUnshardedScheduled) {
  // Scheduled aggregation: rounds close on the cloud plane while uploads
  // stream through per-shard dispatchers. shards=1 takes the unsharded
  // code path (single loop, no merger) and is the reference.
  const auto dataset = Dataset();
  const auto reference = RunShardedWith(dataset, ShardableConfig(), 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto sharded = RunShardedWith(dataset, ShardableConfig(), shards);
    ExpectIdentical(reference.result, sharded.result, shards);
    ExpectStatsIdentical(reference.stats, sharded.stats, shards);
  }
}

TEST(ShardedDeterminismTest, WidthsBitIdenticalUnderThresholdTrigger) {
  // Sample-threshold rounds close INSIDE merged delivery ticks, and the
  // round timestamp is the triggering message's arrival — so this case
  // asserts arrival-stamp identity, not just final weights. Staleness
  // rejection makes the message→round assignment observable too.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;
  config.reject_stale = true;
  const auto reference = RunShardedWith(dataset, config, 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto sharded = RunShardedWith(dataset, config, shards);
    ExpectIdentical(reference.result, sharded.result, shards);
    ExpectStatsIdentical(reference.stats, sharded.stats, shards);
  }
}

TEST(ShardedDeterminismTest, PerMessageDeliveryMatchesBatchedAtAllWidths) {
  // The PR-3 delivery-mode contract must survive sharding: per-message
  // and batched shard dispatchers produce the same merged stream.
  const auto dataset = Dataset();
  const auto reference = RunShardedWith(dataset, ShardableConfig(), 1);
  for (const std::size_t shards : {2u, 4u}) {
    auto config = ShardableConfig();
    config.delivery_mode = flow::DeliveryMode::kPerMessage;
    const auto sharded = RunShardedWith(dataset, config, shards);
    ExpectIdentical(reference.result, sharded.result, shards);
    ExpectStatsIdentical(reference.stats, sharded.stats, shards);
  }
}

TEST(ShardedDeterminismTest, PoolAdvancedShardsMatchSequential) {
  // Shard loops advance on the training pool when parallelism provides
  // one; worker scheduling must never leak into results. Also exercises
  // partial participation so shard participant subsets vary per round.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.participants_per_round = 80;
  const auto sequential = RunShardedWith(dataset, config, 4, /*parallelism=*/1);
  EXPECT_GT(sequential.result.messages_dropped, 0u);
  for (const std::size_t parallelism : {2u, 4u, 8u}) {
    const auto pooled = RunShardedWith(dataset, config, 4, parallelism);
    ExpectIdentical(sequential.result, pooled.result, parallelism);
    ExpectStatsIdentical(sequential.stats, pooled.stats, parallelism);
  }
  // And the pooled sharded run still equals the unsharded reference.
  const auto reference = RunShardedWith(dataset, config, 1);
  ExpectIdentical(reference.result, sequential.result, 4);
}

TEST(ShardedDeterminismTest, SimultaneousUploadsStayWidthInvariant) {
  // Worst case for arrival stamping: EVERY device uploads at the same
  // microsecond. A finite capacity would serialize those collisions per
  // dispatcher (+1us steps), stamping them differently at each width;
  // the infinite-capacity regime gives zero serialization delay, so the
  // contract must hold even here. Threshold trigger makes the arrivals
  // observable as round timestamps.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 500;
  config.delay_fn = [](const data::DeviceData&, std::size_t, Rng&) {
    return Seconds(1.0);  // identical for every device, every round
  };
  const auto reference = RunShardedWith(dataset, config, 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto sharded = RunShardedWith(dataset, config, shards);
    ExpectIdentical(reference.result, sharded.result, shards);
    ExpectStatsIdentical(reference.stats, sharded.stats, shards);
  }
}

TEST(ShardedDeterminismTest, MultiMessageTicksDeterministicAtFixedWidth) {
  // Outside the width-invariance regime — multi-message thresholds and a
  // finite (default 700/s) capacity — sharded runs must still be fully
  // deterministic at a fixed width, round-start pumps must stamp at the
  // round time (never a lockstep-barrier artifact behind it), and round
  // timestamps must stay monotone.
  const auto dataset = Dataset();
  auto config = BaseConfig();
  config.strategy = flow::RealtimeAccumulated{{20, 100, 50}, 0.15};
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;
  const auto first = RunShardedWith(dataset, config, 4);
  const auto again = RunShardedWith(dataset, config, 4);
  ExpectIdentical(first.result, again.result, 4);
  ExpectStatsIdentical(first.stats, again.stats, 4);
  ASSERT_EQ(first.result.rounds.size(), 3u);
  SimTime last = 0;
  for (const auto& round : first.result.rounds) {
    EXPECT_GE(round.time, last);
    last = round.time;
  }
}

TEST(ShardedDeterminismTest, DecodedPlaneBitIdenticalToLegacyAtAllWidths) {
  // The decoded payload plane moves blob fetch + LrModel decode from the
  // serial AggregationService into the dispatch ticks (shard workers when
  // sharded). Against the legacy decode-in-handler plane, every bit of
  // the run — round metrics, weights, merged dispatch stats, admission
  // counters — must be identical at every shard width. reject_stale plus
  // a sample threshold makes the message→round admission (and therefore
  // the deferred-accounting order) observable.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;
  config.reject_stale = true;

  auto legacy_config = config;
  legacy_config.decode_plane = flow::DecodePlane::kLegacy;
  const auto reference = RunShardedWith(dataset, legacy_config, 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  EXPECT_GT(reference.stale_rejections, 0u);
  EXPECT_EQ(reference.decode_failures, 0u);

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    auto decoded_config = config;
    decoded_config.decode_plane = flow::DecodePlane::kDecoded;
    const auto decoded = RunShardedWith(dataset, decoded_config, shards);
    ExpectIdentical(reference.result, decoded.result, shards);
    ExpectStatsIdentical(reference.stats, decoded.stats, shards);
    ExpectCountersIdentical(reference, decoded, shards);
    // And legacy stays self-consistent at the same width.
    const auto legacy = RunShardedWith(dataset, legacy_config, shards);
    ExpectIdentical(reference.result, legacy.result, shards);
    ExpectCountersIdentical(reference, legacy, shards);
  }
}

TEST(ShardedDeterminismTest, PartialSumPlaneBitIdenticalAcrossWidths) {
  // The aggregation service stages admitted updates and accumulates them
  // into per-lane partial aggregators on the worker pool, merged in fixed
  // ascending order; which updates share a flush depends on the shard
  // width's tick grouping and the pool width. Against the serial width-1
  // run, every bit of the pool-flushed runs must be identical at every
  // shard width — the FedAvg cascade is order-invariant, so regrouping the
  // weighted sum is invisible. reject_stale + a sample threshold makes the
  // admission order observable (a mid-batch round close changes later
  // staleness verdicts), pinning the staged trigger point too.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;
  config.reject_stale = true;
  config.decode_plane = flow::DecodePlane::kDecoded;

  const auto reference = RunShardedWith(dataset, config, 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  EXPECT_GT(reference.stale_rejections, 0u);

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const auto pooled =
        RunShardedWith(dataset, config, shards, /*parallelism=*/4);
    ExpectIdentical(reference.result, pooled.result, shards);
    ExpectStatsIdentical(reference.stats, pooled.stats, shards);
    ExpectCountersIdentical(reference, pooled, shards);
  }
}

// ---------- Decode-failure accounting parity (flow-level harness) ----------

/// Outcome of pushing a hand-built message stream — valid, corrupt-blob,
/// missing-blob, stale and stale-with-bad-payload messages — through
/// dispatchers + shard merger into one AggregationService.
struct FailurePlaneOutcome {
  std::size_t received = 0;
  std::size_t decode_failures = 0;
  std::size_t stale_rejections = 0;
  std::size_t rounds = 0;
  std::vector<float> weights;
};

/// Runs the failure-mix stream at the given shard width on either payload
/// plane. Messages carry distinct timestamps and globally ordered ids, so
/// the (tick time, first id, shard) merge reproduces one canonical
/// delivery order at every width — counters must not depend on width or
/// plane.
FailurePlaneOutcome RunFailureMix(std::size_t shards, bool decoded_plane) {
  constexpr std::uint32_t kDim = 16;
  constexpr std::size_t kMessages = 24;
  sim::EventLoop cloud_loop;
  cloud::BlobStore store;
  cloud::AggregationConfig agg;
  agg.model_dim = kDim;
  agg.trigger = cloud::AggregationTrigger::kSampleThreshold;
  agg.sample_threshold = 30;  // fires mid-stream: later round-0 msgs stale
  agg.reject_stale = true;
  cloud::AggregationService service(cloud_loop, store, agg);
  cloud::BlobModelDecoder decoder(store);

  flow::ShardMerger merger(shards, &service, &cloud_loop);
  std::vector<std::unique_ptr<sim::EventLoop>> loops;
  std::vector<std::unique_ptr<flow::Dispatcher>> dispatchers;
  for (std::size_t s = 0; s < shards; ++s) {
    loops.push_back(std::make_unique<sim::EventLoop>());
    dispatchers.push_back(std::make_unique<flow::Dispatcher>(
        *loops[s], TaskId(1),
        flow::RealtimeAccumulated{{1}, 0.0,
                                  flow::kShardWidthInvariantCapacity},
        &merger.channel(s), /*seed=*/11));
    if (decoded_plane) dispatchers[s]->set_decoder(&decoder);
  }

  for (std::size_t i = 0; i < kMessages; ++i) {
    flow::Message m;
    m.id = MessageId(i + 1);
    m.task = TaskId(1);
    m.device = DeviceId(i + 1);
    m.sample_count = 5;
    switch (i % 6) {
      case 1:  // corrupt blob, fresh round
        m.payload = store.Put({std::byte{0x42}});
        break;
      case 2:  // missing blob, fresh round
        m.payload = BlobId(900000 + i);
        break;
      case 3: {  // valid payload but a round that is always stale
        ml::LrModel model(kDim);
        model.weights()[0] = static_cast<float>(i);
        m.round = 77;
        m.payload = store.Put(model.ToBytes());
        break;
      }
      case 4:  // corrupt blob AND always-stale round: must count stale
        m.round = 99;
        m.payload = store.Put({std::byte{0x01}, std::byte{0x02}});
        break;
      default: {  // valid, round 0 (stale once the threshold fires)
        ml::LrModel model(kDim);
        model.weights()[0] = static_cast<float>(i) * 0.5f;
        m.payload = store.Put(model.ToBytes());
        break;
      }
    }
    // Contiguous ranges, like data::PartitionDevices for equal blocks.
    const std::size_t per_shard = (kMessages + shards - 1) / shards;
    const std::size_t target = std::min(i / per_shard, shards - 1);
    flow::Dispatcher* dispatcher = dispatchers[target].get();
    loops[target]->ScheduleAt(
        Seconds(static_cast<double>(i + 1)),
        [dispatcher, m]() mutable { dispatcher->OnMessage(std::move(m)); });
  }
  for (auto& loop : loops) loop->Run();
  merger.DrainUpTo(Seconds(static_cast<double>(kMessages + 1)));

  FailurePlaneOutcome out;
  out.received = service.messages_received();
  out.decode_failures = service.decode_failures();
  out.stale_rejections = service.stale_rejections();
  out.rounds = service.rounds_completed();
  out.weights.assign(service.global_model().weights().begin(),
                     service.global_model().weights().end());
  return out;
}

TEST(ShardedDeterminismTest, DecodeFailureAccountingParityAcrossPlanes) {
  // Corrupt-blob and missing-blob messages — fresh and stale — must book
  // the same decode_failures / stale_rejections on the decoded plane, the
  // legacy plane, and every sharded merge of either, in the same order
  // (the deferred-accounting contract of flow::DecodedUpdate).
  const auto reference = RunFailureMix(1, /*decoded_plane=*/false);
  // The mix by construction: 4 corrupt/missing fresh-round failures
  // become decode failures only while their round is fresh; round-77/99
  // messages and post-aggregation round-0 messages are stale.
  EXPECT_GT(reference.decode_failures, 0u);
  EXPECT_GT(reference.stale_rejections, 0u);
  EXPECT_EQ(reference.received, 24u);
  EXPECT_GE(reference.rounds, 1u);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const bool decoded : {false, true}) {
      if (shards == 1 && !decoded) continue;  // the reference itself
      const auto outcome = RunFailureMix(shards, decoded);
      EXPECT_EQ(outcome.received, reference.received)
          << "shards=" << shards << " decoded=" << decoded;
      EXPECT_EQ(outcome.decode_failures, reference.decode_failures)
          << "shards=" << shards << " decoded=" << decoded;
      EXPECT_EQ(outcome.stale_rejections, reference.stale_rejections)
          << "shards=" << shards << " decoded=" << decoded;
      EXPECT_EQ(outcome.rounds, reference.rounds)
          << "shards=" << shards << " decoded=" << decoded;
      ASSERT_EQ(outcome.weights.size(), reference.weights.size());
      EXPECT_EQ(0, std::memcmp(outcome.weights.data(),
                               reference.weights.data(),
                               reference.weights.size() * sizeof(float)))
          << "shards=" << shards << " decoded=" << decoded;
    }
  }
}

TEST(ShardedDeterminismTest, ShardCountClampsToDevices) {
  // More fleets than devices must degrade gracefully to one device per
  // fleet, still bit-identical to the unsharded run.
  const auto dataset = Dataset(6);
  auto config = ShardableConfig();
  config.rounds = 2;
  const auto reference = RunShardedWith(dataset, config, 1);
  sim::EventLoop loop;
  auto wide = config;
  wide.shards = 64;
  wide.parallelism = 1;
  FlEngine engine(loop, dataset, wide);
  EXPECT_EQ(engine.shards(), 6u);
  const auto result = engine.Run();
  ExpectIdentical(reference.result, result, 64);
}

TEST(DeterminismTest, PlatformPoolMatchesPrivatePool) {
  // parallelism = 0 inherits the platform's shared pool; the result must
  // equal both the sequential run and a privately-pooled run.
  const auto dataset = Dataset(60);
  auto config = BaseConfig();
  config.rounds = 2;

  PlatformConfig platform_config;
  platform_config.worker_threads = 3;
  Platform platform(platform_config);
  auto inherited_config = config;
  inherited_config.parallelism = 0;
  const auto inherited = platform.RunFlExperiment(dataset, inherited_config);

  const auto sequential = RunWith(dataset, config, 1);
  ExpectIdentical(sequential, inherited, 0);
}

TEST(DeterminismTest, EngineOwnsPoolWhenWidthDiffers) {
  // A caller pool of the "wrong" width must not leak into training when
  // the experiment pins a different parallelism.
  const auto dataset = Dataset(60);
  auto config = BaseConfig();
  config.rounds = 2;
  ThreadPool caller_pool(2);

  auto run_with_pool = [&](std::size_t parallelism) {
    sim::EventLoop loop;
    auto pinned = config;
    pinned.parallelism = parallelism;
    FlEngine engine(loop, dataset, pinned, &caller_pool);
    return engine.Run();
  };
  const auto sequential = RunWith(dataset, config, 1);
  ExpectIdentical(sequential, run_with_pool(1), 1);   // knob forces sequential
  ExpectIdentical(sequential, run_with_pool(2), 2);   // matches caller pool
  ExpectIdentical(sequential, run_with_pool(5), 5);   // private 5-wide pool
}

}  // namespace
}  // namespace simdc::core

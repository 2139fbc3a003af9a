// Unit tests for the cloud services: blob storage, metrics database,
// aggregation service with both triggers and both payload planes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <thread>

#include "cloud/aggregation.h"
#include "common/thread_pool.h"
#include "cloud/database.h"
#include "cloud/payload_decoder.h"
#include "cloud/storage.h"
#include "ml/lr_model.h"
#include "sim/event_loop.h"

namespace simdc::cloud {
namespace {

std::vector<std::byte> Bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// ---------- BlobStore ----------

TEST(BlobStoreTest, PutGetDelete) {
  BlobStore store;
  const BlobId id = store.Put(Bytes({1, 2, 3}));
  EXPECT_TRUE(store.Contains(id));
  auto blob = store.Get(id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->size(), 3u);
  EXPECT_TRUE(store.Delete(id).ok());
  EXPECT_FALSE(store.Contains(id));
  EXPECT_FALSE(store.Get(id).ok());
  EXPECT_FALSE(store.Delete(id).ok());
}

TEST(BlobStoreTest, DistinctIds) {
  BlobStore store;
  const BlobId a = store.Put(Bytes({1}));
  const BlobId b = store.Put(Bytes({1}));
  EXPECT_NE(a, b);
  EXPECT_EQ(store.blob_count(), 2u);
}

TEST(BlobStoreTest, ByteAccounting) {
  BlobStore store;
  const BlobId a = store.Put(Bytes({1, 2, 3, 4}));
  store.Put(Bytes({5, 6}));
  EXPECT_EQ(store.total_bytes(), 6u);
  EXPECT_EQ(store.bytes_written(), 6u);
  (void)store.Get(a);
  EXPECT_EQ(store.bytes_read(), 4u);
  ASSERT_TRUE(store.Delete(a).ok());
  EXPECT_EQ(store.total_bytes(), 2u);
  EXPECT_EQ(store.bytes_written(), 6u);  // cumulative
}

TEST(BlobStoreTest, GetSharedAliasesWithoutCopy) {
  BlobStore store;
  const BlobId id = store.Put(Bytes({1, 2, 3, 4}));
  auto a = store.GetShared(id);
  auto b = store.GetShared(id);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both reads alias the one stored buffer — the whole point of the
  // shared-ownership hot path.
  EXPECT_EQ(a->data(), b->data());
  EXPECT_EQ(a->owner(), b->owner());
  EXPECT_EQ(a->size(), 4u);
  EXPECT_EQ(store.bytes_read(), 8u);  // still accounted per read
  EXPECT_FALSE(store.GetShared(BlobId(99)).ok());
}

TEST(BlobStoreTest, SharedBlobSurvivesDelete) {
  // A reader holding a SharedBlob must keep its bytes valid (and
  // bit-stable) across a concurrent Delete — the decode plane may still
  // be chewing on a blob the serial plane garbage-collects.
  BlobStore store;
  const BlobId id = store.Put(Bytes({7, 8, 9}));
  auto blob = store.GetShared(id);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_FALSE(store.Contains(id));
  ASSERT_EQ(blob->size(), 3u);
  EXPECT_EQ((*blob)[0], static_cast<std::byte>(7));
}

TEST(BlobStoreTest, PutPooledRoundTrip) {
  BlobStore store;
  const auto bytes = Bytes({10, 20, 30, 40, 50});
  const BlobId id = store.PutPooled(bytes);
  EXPECT_TRUE(store.Contains(id));
  auto copy = store.Get(id);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(*copy, bytes);
  EXPECT_EQ(store.bytes_written(), bytes.size());
  EXPECT_EQ(store.total_bytes(), bytes.size());
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_EQ(store.total_bytes(), 0u);
}

TEST(BlobStoreTest, PooledBlobsShareArenaBlocks) {
  // Consecutive pooled puts bump-allocate out of the same slab: one heap
  // block for many blobs is the whole point of the arena path.
  BlobStore store;
  const BlobId a = store.PutPooled(Bytes({1, 2, 3}));
  const BlobId b = store.PutPooled(Bytes({4, 5}));
  EXPECT_EQ(store.arena_blocks_created(), 1u);
  auto sa = store.GetShared(a);
  auto sb = store.GetShared(b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa->owner(), sb->owner());  // same backing slab
  // Deleting one blob leaves its neighbors readable and intact.
  ASSERT_TRUE(store.Delete(a).ok());
  auto again = store.Get(b);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)[0], static_cast<std::byte>(4));
}

TEST(BlobStoreTest, ReclaimArenaWhileSharedBlobHeld) {
  // The reset-while-held hazard: a reader still holding a SharedBlob into
  // an arena block must keep its bytes valid across Delete + ReclaimArena;
  // the block is only recycled once the last holder lets go.
  BlobStore store;
  const auto bytes = Bytes({42, 43, 44});
  const BlobId id = store.PutPooled(bytes);
  auto held = store.GetShared(id);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_EQ(store.ReclaimArena(), 0u);  // held: must NOT be recycled
  EXPECT_EQ(held->size(), 3u);
  EXPECT_EQ((*held)[0], static_cast<std::byte>(42));
  EXPECT_EQ((*held)[2], static_cast<std::byte>(44));
  *held = SharedBlob();  // drop the last reference
  EXPECT_EQ(store.ReclaimArena(), 1u);
  EXPECT_EQ(store.arena_blocks_recycled(), 1u);
  // The recycled block serves the next pooled put: no new slab.
  (void)store.PutPooled(bytes);
  EXPECT_EQ(store.arena_blocks_created(), 1u);
}

TEST(BlobStoreTest, SharedBlobOutlivesStoreDestruction) {
  SharedBlob standalone;
  SharedBlob pooled;
  {
    BlobStore store;
    auto a = store.GetShared(store.Put(Bytes({1, 2})));
    auto b = store.GetShared(store.PutPooled(Bytes({3, 4})));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    standalone = *a;
    pooled = *b;
  }
  EXPECT_EQ(standalone[1], static_cast<std::byte>(2));
  EXPECT_EQ(pooled[0], static_cast<std::byte>(3));
}

TEST(BlobStoreConcurrencyTest, ConcurrentPutGetDeleteStress) {
  // N writers Put/Delete while N readers Get/GetShared and decode — the
  // exact concurrency shape of the decoded payload plane (shard workers
  // fetch + decode while the serial plane publishes new globals). Run
  // under ASan/UBSan in CI, this is the data-race gate for BlobStore.
  BlobStore store;
  constexpr int kWriters = 3;
  constexpr int kReaders = 4;
  constexpr int kBlobsPerWriter = 200;
  ml::LrModel model(64);
  model.weights()[0] = 1.5f;
  const auto payload = model.ToBytes();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> max_id{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kBlobsPerWriter; ++i) {
        const BlobId id = store.Put(payload);
        std::uint64_t seen = max_id.load(std::memory_order_relaxed);
        while (seen < id.value() &&
               !max_id.compare_exchange_weak(seen, id.value(),
                                             std::memory_order_relaxed)) {
        }
        if (i % 3 == 0) (void)store.Delete(id);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::uint64_t probe = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t ceiling = max_id.load(std::memory_order_relaxed);
        if (ceiling == 0) continue;
        probe = probe % ceiling + 1;
        if (r % 2 == 0) {
          auto blob = store.GetShared(BlobId(probe));
          if (blob.ok()) {
            auto decoded = ml::LrModel::FromBytesShared(blob->span());
            ASSERT_TRUE(decoded.ok());
            ASSERT_EQ((*decoded)->weights()[0], 1.5f);
          }
        } else {
          auto blob = store.Get(BlobId(probe));
          if (blob.ok()) {
            ASSERT_EQ(blob->size(), payload.size());
          }
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  // Two thirds of each writer's blobs survive its own deletes.
  EXPECT_GT(store.blob_count(), 0u);
  EXPECT_EQ(store.bytes_written(),
            payload.size() * kWriters * kBlobsPerWriter);
}

// ---------- MetricsDatabase ----------

device::PerfSample Sample(TaskId task, PhoneId phone, double t_s,
                          device::ApkStage stage, double current_ma,
                          std::int64_t bandwidth) {
  device::PerfSample s;
  s.task = task;
  s.phone = phone;
  s.time = Seconds(t_s);
  s.stage = stage;
  s.current_ua = -static_cast<std::int64_t>(current_ma * 1000);
  s.voltage_mv = 3850;
  s.cpu_percent = 5.0;
  s.memory_kb = 30000;
  s.bandwidth_bytes = bandwidth;
  return s;
}

TEST(MetricsDatabaseTest, QueryFiltersByTaskAndPhone) {
  MetricsDatabase db;
  db.Record(Sample(TaskId(1), PhoneId(1), 0, device::ApkStage::kNoApk, 50, 0));
  db.Record(Sample(TaskId(1), PhoneId(2), 0, device::ApkStage::kNoApk, 50, 0));
  db.Record(Sample(TaskId(2), PhoneId(1), 0, device::ApkStage::kNoApk, 50, 0));
  EXPECT_EQ(db.QueryTask(TaskId(1)).size(), 2u);
  EXPECT_EQ(db.QueryPhone(TaskId(1), PhoneId(2)).size(), 1u);
  EXPECT_EQ(db.sample_count(), 3u);
}

TEST(MetricsDatabaseTest, StageAggregationIntegratesEnergy) {
  MetricsDatabase db;
  // 10 samples 1 s apart at 360 mA → 360 mA · 10 s = 1 mAh.
  for (int i = 0; i <= 10; ++i) {
    db.Record(Sample(TaskId(1), PhoneId(1), i, device::ApkStage::kTraining,
                     360.0, 1024 * i));
  }
  const auto stages = db.AggregateStages(TaskId(1), PhoneId(1));
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, device::ApkStage::kTraining);
  EXPECT_NEAR(stages[0].energy_mah, 1.1, 0.05);  // 11 samples × 1 s
  EXPECT_NEAR(stages[0].comm_kb, 10.0, 0.01);
  EXPECT_EQ(stages[0].samples, 11u);
}

TEST(MetricsDatabaseTest, AverageStagesAcrossPhones) {
  MetricsDatabase db;
  for (int phone = 1; phone <= 2; ++phone) {
    const double ma = phone == 1 ? 100.0 : 300.0;
    for (int i = 0; i <= 5; ++i) {
      db.Record(Sample(TaskId(1), PhoneId(phone), i,
                       device::ApkStage::kTraining, ma, 0));
    }
  }
  const auto avg = db.AverageStages(TaskId(1), {PhoneId(1), PhoneId(2)});
  ASSERT_EQ(avg.size(), 1u);
  // Mean of per-phone energies: (100+300)/2 mA over 6 s.
  EXPECT_NEAR(avg[0].energy_mah, 200.0 * 6.0 / 3600.0, 0.01);
}

TEST(MetricsDatabaseTest, ScalarSeries) {
  MetricsDatabase db;
  db.RecordScalar("loss", Seconds(1), 0.9);
  db.RecordScalar("loss", Seconds(2), 0.7);
  db.RecordScalar("acc", Seconds(1), 0.5);
  const auto loss = db.QueryScalar("loss");
  ASSERT_EQ(loss.size(), 2u);
  EXPECT_DOUBLE_EQ(loss[1].second, 0.7);
  EXPECT_TRUE(db.QueryScalar("nope").empty());
}

TEST(MetricsDatabaseTest, ScalarRowsPreserveGlobalInsertionOrder) {
  // Checkpoint replay depends on ScalarRows() returning the rows in the
  // exact order they were recorded, interleaved across series — not
  // grouped by series name.
  MetricsDatabase db;
  db.RecordScalar("loss", Seconds(1), 0.9);
  db.RecordScalar("acc", Seconds(1), 0.5);
  db.RecordScalar("loss", Seconds(2), 0.7);
  db.RecordScalar("acc", Seconds(2), 0.6);
  const auto rows = db.ScalarRows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(db.scalar_row_count(), 4u);
  EXPECT_EQ(rows[0].series, "loss");
  EXPECT_EQ(rows[1].series, "acc");
  EXPECT_EQ(rows[2].series, "loss");
  EXPECT_EQ(rows[3].series, "acc");
  EXPECT_DOUBLE_EQ(rows[2].value, 0.7);
}

TEST(MetricsDatabaseTest, FlushRestoreRoundTrips) {
  MetricsDatabase db;
  db.Record(Sample(TaskId(1), PhoneId(1), 0, device::ApkStage::kTraining,
                   360.0, 1024));
  db.Record(Sample(TaskId(1), PhoneId(2), 1, device::ApkStage::kTraining,
                   200.0, 2048));
  db.RecordScalar("loss", Seconds(1), 0.9);
  db.RecordScalar("loss", Seconds(2), 0.7);
  db.RecordScalar("acc", Seconds(2), 0.6);
  EXPECT_EQ(db.Flush(), 5u);  // 2 samples + 3 scalar rows

  MetricsDatabase restored;
  restored.Restore(db.Samples(), db.ScalarRows());
  EXPECT_EQ(restored.sample_count(), db.sample_count());
  EXPECT_EQ(restored.scalar_row_count(), db.scalar_row_count());
  EXPECT_EQ(restored.QueryTask(TaskId(1)).size(), 2u);
  const auto loss = restored.QueryScalar("loss");
  ASSERT_EQ(loss.size(), 2u);
  EXPECT_EQ(loss[0].first, Seconds(1));
  EXPECT_DOUBLE_EQ(loss[1].second, 0.7);
  const auto again = restored.ScalarRows();
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[2].series, "acc");
}

// ---------- AggregationService ----------

class AggregationTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kDim = 16;

  flow::Message Upload(BlobStore& store, float weight0, std::size_t samples,
                       std::uint64_t id, std::size_t round = 0) {
    ml::LrModel model(kDim);
    model.weights()[0] = weight0;
    flow::Message m;
    m.id = MessageId(id);
    m.task = TaskId(1);
    m.device = DeviceId(id);
    m.round = round;
    m.payload = store.Put(model.ToBytes());
    m.sample_count = samples;
    return m;
  }

  sim::EventLoop loop_;
  BlobStore store_;
};

TEST_F(AggregationTest, SampleThresholdTriggers) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 30;
  AggregationService service(loop_, store_, config);
  service.Start();

  service.Deliver(Upload(store_, 1.0f, 10, 1), 0);
  service.Deliver(Upload(store_, 2.0f, 10, 2), 0);
  EXPECT_EQ(service.rounds_completed(), 0u);  // 20 < 30
  service.Deliver(Upload(store_, 3.0f, 10, 3), 0);
  ASSERT_EQ(service.rounds_completed(), 1u);
  EXPECT_NEAR(service.global_model().weights()[0], 2.0, 1e-6);
  EXPECT_EQ(service.history()[0].clients, 3u);
  EXPECT_EQ(service.history()[0].samples, 30u);
  EXPECT_EQ(service.pending_samples(), 0u);  // aggregator reset
}

TEST_F(AggregationTest, BatchedDeliveryMatchesPerMessage) {
  // One DeliverBatch call crossing the sample threshold mid-batch must
  // produce the same rounds as the equivalent Deliver sequence — and the
  // round timestamp must be the *triggering message's* arrival, not the
  // batch event's time.
  auto run = [&](bool batched) {
    BlobStore store;
    AggregationConfig config;
    config.model_dim = kDim;
    config.trigger = AggregationTrigger::kSampleThreshold;
    config.sample_threshold = 30;
    AggregationService service(loop_, store, config);
    std::vector<flow::Message> messages;
    std::vector<SimTime> arrivals;
    for (std::uint64_t i = 0; i < 5; ++i) {
      messages.push_back(
          Upload(store, static_cast<float>(i + 1), 10, i + 1));
      arrivals.push_back(Seconds(1.0 + static_cast<double>(i)));
    }
    if (batched) {
      service.DeliverBatch(messages, arrivals);
    } else {
      for (std::size_t i = 0; i < messages.size(); ++i) {
        service.Deliver(messages[i], arrivals[i]);
      }
    }
    return service.history();
  };
  const auto batched = run(true);
  const auto per_message = run(false);
  ASSERT_EQ(batched.size(), 1u);
  ASSERT_EQ(per_message.size(), 1u);
  EXPECT_EQ(batched[0].time, Seconds(3.0));  // third message triggered
  EXPECT_EQ(batched[0].time, per_message[0].time);
  EXPECT_EQ(batched[0].clients, per_message[0].clients);
  EXPECT_EQ(batched[0].samples, per_message[0].samples);
}

TEST_F(AggregationTest, ScheduledTriggerFiresPeriodically) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(10.0);
  config.max_rounds = 3;
  AggregationService service(loop_, store_, config);
  service.Start();

  // Deliver a couple of updates before each tick.
  for (int round = 0; round < 3; ++round) {
    loop_.ScheduleAt(Seconds(10.0 * round + 1),
                     [&, round] {
                       service.Deliver(
                           Upload(store_, static_cast<float>(round), 5,
                                  static_cast<std::uint64_t>(round * 10 + 1)),
                           loop_.Now());
                     });
  }
  loop_.Run();
  EXPECT_EQ(service.rounds_completed(), 3u);
  EXPECT_EQ(service.history()[0].time, Seconds(10.0));
  EXPECT_EQ(service.history()[2].time, Seconds(30.0));
}

TEST_F(AggregationTest, ScheduledTickWithNothingPendingSkips) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(5.0);
  config.max_rounds = 2;
  AggregationService service(loop_, store_, config);
  service.Start();
  loop_.ScheduleAt(Seconds(6.0), [&] {
    service.Deliver(Upload(store_, 1.0f, 5, 1), loop_.Now());
  });
  loop_.RunUntil(Seconds(30.0));
  // First tick (t=5) had nothing; second tick (t=10) aggregated.
  ASSERT_EQ(service.rounds_completed(), 1u);
  EXPECT_EQ(service.history()[0].time, Seconds(10.0));
  service.Stop();
  loop_.Run();
}

TEST_F(AggregationTest, MissingBlobCountsAsDecodeFailure) {
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  flow::Message m;
  m.task = TaskId(1);
  m.payload = BlobId(999);  // never stored
  m.sample_count = 5;
  service.Deliver(m, 0);
  EXPECT_EQ(service.decode_failures(), 1u);
  EXPECT_EQ(service.pending_samples(), 0u);
}

TEST_F(AggregationTest, StoreIoErrorBooksAsStoreErrorNotDecodeFailure) {
  // A non-kNotFound store failure (durability-plane I/O fault) must land in
  // store_errors, not decode_failures — the payload exists, the read broke.
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  const flow::Message good = Upload(store_, 1.0f, 10, 1);
  const flow::Message faulted = Upload(store_, 2.0f, 10, 2);
  store_.set_read_fault_hook([&](BlobId id) -> Status {
    if (id == faulted.payload) return Unavailable("injected read fault");
    return Status::Ok();
  });

  service.Deliver(faulted, 0);
  EXPECT_EQ(service.store_errors(), 1u);
  EXPECT_EQ(service.decode_failures(), 0u);
  EXPECT_EQ(service.messages_received(), 1u);
  EXPECT_EQ(service.pending_samples(), 0u);  // update dropped, not absorbed

  // Healthy deliveries still flow, and a genuinely missing blob still books
  // as a decode failure alongside the I/O fault.
  service.Deliver(good, 0);
  EXPECT_EQ(service.pending_samples(), 10u);
  flow::Message missing;
  missing.task = TaskId(1);
  missing.payload = BlobId(999);  // never stored
  missing.sample_count = 5;
  service.Deliver(missing, 0);
  EXPECT_EQ(service.store_errors(), 1u);
  EXPECT_EQ(service.decode_failures(), 1u);
}

TEST_F(AggregationTest, DecoderMapsStoreFaultsToDistinctFailures) {
  // BlobModelDecoder must keep the taxonomy the serial side accounts on:
  // kNotFound → kMissingBlob, any other store error → kStoreError.
  const flow::Message ok_msg = Upload(store_, 1.0f, 10, 1);
  const flow::Message faulted = Upload(store_, 2.0f, 10, 2);
  flow::Message missing;
  missing.task = TaskId(1);
  missing.payload = BlobId(999);
  missing.sample_count = 5;
  store_.set_read_fault_hook([&](BlobId id) -> Status {
    if (id == faulted.payload) return Unavailable("injected read fault");
    return Status::Ok();
  });

  BlobModelDecoder decoder(store_);
  const flow::DecodedUpdate decoded = decoder.Decode(ok_msg);
  EXPECT_TRUE(decoded.decoded());
  EXPECT_EQ(decoded.failure, flow::DecodedUpdate::Failure::kNone);

  const flow::DecodedUpdate io_fault = decoder.Decode(faulted);
  EXPECT_FALSE(io_fault.decoded());
  EXPECT_EQ(io_fault.failure, flow::DecodedUpdate::Failure::kStoreError);
  EXPECT_EQ(io_fault.error.error().code(), ErrorCode::kUnavailable);

  const flow::DecodedUpdate gone = decoder.Decode(missing);
  EXPECT_FALSE(gone.decoded());
  EXPECT_EQ(gone.failure, flow::DecodedUpdate::Failure::kMissingBlob);

  // The decoded plane books them into the same counters as the legacy one.
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  const std::vector<flow::DecodedUpdate> updates = {decoded, io_fault, gone};
  const std::vector<SimTime> arrivals = {0, 0, 0};
  service.DeliverDecodedBatch(updates, arrivals);
  EXPECT_EQ(service.messages_received(), 3u);
  EXPECT_EQ(service.store_errors(), 1u);
  EXPECT_EQ(service.decode_failures(), 1u);
  EXPECT_EQ(service.pending_samples(), 10u);
}

TEST_F(AggregationTest, CorruptBlobRejected) {
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  flow::Message m;
  m.task = TaskId(1);
  m.payload = store_.Put(Bytes({1, 2, 3}));
  m.sample_count = 5;
  service.Deliver(m, 0);
  EXPECT_EQ(service.decode_failures(), 1u);
}

TEST_F(AggregationTest, WrongDimensionRejected) {
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  ml::LrModel other(kDim * 2);
  flow::Message m;
  m.task = TaskId(1);
  m.payload = store_.Put(other.ToBytes());
  m.sample_count = 5;
  service.Deliver(m, 0);
  EXPECT_EQ(service.decode_failures(), 1u);
}

TEST_F(AggregationTest, PublishesModelBlobAndCallback) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 5;
  AggregationService service(loop_, store_, config);
  std::size_t callbacks = 0;
  service.set_on_aggregate(
      [&](const AggregationRecord& record, const ml::LrModel& model) {
        ++callbacks;
        EXPECT_TRUE(store_.Contains(record.model_blob));
        EXPECT_EQ(model.dim(), kDim);
      });
  service.Deliver(Upload(store_, 4.0f, 5, 1), 0);
  EXPECT_EQ(callbacks, 1u);
}

// ---------- Decoded payload plane ----------

/// Same fixture, decoded-plane cases: the serial service receives
/// DecodedUpdates (payloads fetched + decoded upstream) and must keep
/// every counter and every bit identical to the legacy decode-in-handler
/// plane. Pinned by name in the CI sanitizer job.
class AggregationDecodedTest : public AggregationTest {
 protected:
  /// Pushes `messages` through a fresh service on the given plane and
  /// returns it for inspection.
  struct Outcome {
    std::size_t received = 0;
    std::size_t decode_failures = 0;
    std::size_t stale_rejections = 0;
    std::size_t rounds = 0;
    std::vector<AggregationRecord> history;
    std::vector<float> weights;
  };

  Outcome Run(BlobStore& store, const std::vector<flow::Message>& messages,
              const std::vector<SimTime>& arrivals, bool decoded,
              bool reject_stale) {
    AggregationConfig config;
    config.model_dim = kDim;
    config.trigger = AggregationTrigger::kSampleThreshold;
    config.sample_threshold = 30;
    config.reject_stale = reject_stale;
    AggregationService service(loop_, store, config);
    if (decoded) {
      BlobModelDecoder decoder(store);
      std::vector<flow::DecodedUpdate> updates;
      updates.reserve(messages.size());
      for (const auto& message : messages) {
        updates.push_back(decoder.Decode(message));
      }
      service.DeliverDecodedBatch(updates, arrivals);
    } else {
      service.DeliverBatch(messages, arrivals);
    }
    Outcome out;
    out.received = service.messages_received();
    out.decode_failures = service.decode_failures();
    out.stale_rejections = service.stale_rejections();
    out.rounds = service.rounds_completed();
    out.history = service.history();
    out.weights.assign(service.global_model().weights().begin(),
                       service.global_model().weights().end());
    return out;
  }

  static void ExpectSameOutcome(const Outcome& a, const Outcome& b) {
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.decode_failures, b.decode_failures);
    EXPECT_EQ(a.stale_rejections, b.stale_rejections);
    ASSERT_EQ(a.rounds, b.rounds);
    for (std::size_t r = 0; r < a.rounds; ++r) {
      EXPECT_EQ(a.history[r].time, b.history[r].time);
      EXPECT_EQ(a.history[r].clients, b.history[r].clients);
      EXPECT_EQ(a.history[r].samples, b.history[r].samples);
    }
    ASSERT_EQ(a.weights.size(), b.weights.size());
    EXPECT_EQ(0, std::memcmp(a.weights.data(), b.weights.data(),
                             a.weights.size() * sizeof(float)));
  }
};

TEST_F(AggregationDecodedTest, DecodedBatchMatchesLegacyWithFailures) {
  // A stream mixing valid updates, corrupt blobs, missing blobs, a
  // wrong-dimension model and a threshold crossing mid-batch must produce
  // identical counters, round records and global-model bits on both
  // planes.
  BlobStore store;
  std::vector<flow::Message> messages;
  std::vector<SimTime> arrivals;
  std::uint64_t id = 1;
  auto push = [&](flow::Message m) {
    arrivals.push_back(Seconds(static_cast<double>(id)));
    messages.push_back(std::move(m));
    ++id;
  };
  push(Upload(store, 1.0f, 10, id));
  {
    flow::Message corrupt;  // undecodable payload
    corrupt.id = MessageId(id);
    corrupt.task = TaskId(1);
    corrupt.payload = store.Put(Bytes({1, 2, 3}));
    corrupt.sample_count = 10;
    push(corrupt);
  }
  {
    flow::Message missing;  // payload never stored
    missing.id = MessageId(id);
    missing.task = TaskId(1);
    missing.payload = BlobId(424242);
    missing.sample_count = 10;
    push(missing);
  }
  push(Upload(store, 2.0f, 10, id));
  {
    ml::LrModel wrong(kDim * 2);  // decodes, but cannot accumulate
    flow::Message mismatch;
    mismatch.id = MessageId(id);
    mismatch.task = TaskId(1);
    mismatch.payload = store.Put(wrong.ToBytes());
    mismatch.sample_count = 10;
    push(mismatch);
  }
  push(Upload(store, 3.0f, 10, id));  // crosses the 30-sample threshold
  push(Upload(store, 4.0f, 10, id));  // lands in round 2's accumulator

  const auto legacy = Run(store, messages, arrivals, /*decoded=*/false,
                          /*reject_stale=*/false);
  const auto decoded = Run(store, messages, arrivals, /*decoded=*/true,
                           /*reject_stale=*/false);
  EXPECT_EQ(legacy.decode_failures, 3u);  // corrupt + missing + wrong dim
  EXPECT_EQ(legacy.stale_rejections, 0u);
  EXPECT_EQ(legacy.rounds, 1u);
  ExpectSameOutcome(legacy, decoded);
}

TEST_F(AggregationDecodedTest, StaleBadPayloadIsStaleNotDecodeFailure) {
  // The accounting-order contract: reject_stale is checked BEFORE the
  // (deferred) decode failure commits, so a stale message with a corrupt
  // or missing payload is a stale rejection on both planes — the decoded
  // plane must not book its speculative decode error.
  BlobStore store;
  std::vector<flow::Message> messages;
  std::vector<SimTime> arrivals;
  {
    flow::Message corrupt_stale;
    corrupt_stale.id = MessageId(1);
    corrupt_stale.task = TaskId(1);
    corrupt_stale.round = 7;  // history is empty: anything != 0 is stale
    corrupt_stale.payload = store.Put(Bytes({9, 9}));
    corrupt_stale.sample_count = 5;
    messages.push_back(corrupt_stale);
    arrivals.push_back(Seconds(1.0));
  }
  {
    flow::Message missing_stale;
    missing_stale.id = MessageId(2);
    missing_stale.task = TaskId(1);
    missing_stale.round = 9;
    missing_stale.payload = BlobId(777777);
    missing_stale.sample_count = 5;
    messages.push_back(missing_stale);
    arrivals.push_back(Seconds(2.0));
  }
  // Fresh-round bad payloads for contrast: these DO count as decode
  // failures on both planes.
  {
    flow::Message corrupt_fresh;
    corrupt_fresh.id = MessageId(3);
    corrupt_fresh.task = TaskId(1);
    corrupt_fresh.round = 0;
    corrupt_fresh.payload = store.Put(Bytes({1}));
    corrupt_fresh.sample_count = 5;
    messages.push_back(corrupt_fresh);
    arrivals.push_back(Seconds(3.0));
  }
  {
    flow::Message missing_fresh;
    missing_fresh.id = MessageId(4);
    missing_fresh.task = TaskId(1);
    missing_fresh.round = 0;
    missing_fresh.payload = BlobId(888888);
    missing_fresh.sample_count = 5;
    messages.push_back(missing_fresh);
    arrivals.push_back(Seconds(4.0));
  }

  const auto legacy = Run(store, messages, arrivals, /*decoded=*/false,
                          /*reject_stale=*/true);
  const auto decoded = Run(store, messages, arrivals, /*decoded=*/true,
                           /*reject_stale=*/true);
  EXPECT_EQ(legacy.stale_rejections, 2u);
  EXPECT_EQ(legacy.decode_failures, 2u);
  EXPECT_EQ(legacy.received, 4u);
  ExpectSameOutcome(legacy, decoded);
}

TEST_F(AggregationDecodedTest, StoppedServiceIgnoresDecodedDeliveries) {
  BlobStore store;
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store, config);
  service.Stop();
  BlobModelDecoder decoder(store);
  const std::vector<flow::DecodedUpdate> updates = {
      decoder.Decode(Upload(store, 1.0f, 5, 1))};
  const std::vector<SimTime> arrivals = {Seconds(1.0)};
  service.DeliverDecodedBatch(updates, arrivals);
  EXPECT_EQ(service.messages_received(), 0u);
  EXPECT_EQ(service.decode_failures(), 0u);
}

TEST_F(AggregationTest, StopIgnoresFurtherDeliveries) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1;
  AggregationService service(loop_, store_, config);
  service.Stop();
  service.Deliver(Upload(store_, 4.0f, 5, 1), 0);
  EXPECT_EQ(service.rounds_completed(), 0u);
  EXPECT_EQ(service.messages_received(), 0u);
}

TEST_F(AggregationTest, MaxRoundsHonored) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1;
  config.max_rounds = 2;
  AggregationService service(loop_, store_, config);
  for (std::uint64_t i = 0; i < 5; ++i) {
    service.Deliver(Upload(store_, 1.0f, 1, i), 0);
  }
  EXPECT_EQ(service.rounds_completed(), 2u);
}

// ---------- Partial-sum aggregation (staged updates, pooled flush) ----------

/// Parity suite for the service's staged partial-sum aggregation against
/// the legacy plane's serial inline adds, reproduced here by a test-local
/// oracle: one ml::FedAvgAggregator fed the admitted updates in delivery
/// order. Every counter, round record, published-model bit and snapshot
/// cascade plane must match, on every delivery path. Pinned by name in the
/// CI sanitizer and TSan jobs.
class AggregationPartialSumTest : public AggregationTest {
 protected:
  struct Outcome {
    std::size_t received = 0;
    std::size_t decode_failures = 0;
    std::size_t stale_rejections = 0;
    std::size_t store_errors = 0;
    std::vector<AggregationRecord> history;
    std::vector<float> weights;
    float bias = 0.0f;
    std::size_t pending_samples = 0;
    std::size_t pending_clients = 0;
    AggregationSnapshot snapshot;
  };

  /// Sample-threshold aggregation the legacy way: fetch, decode and add
  /// each admitted update inline, closing a round on the crossing update.
  class SerialOracle {
   public:
    SerialOracle(const BlobStore& store, std::size_t sample_threshold,
                 bool reject_stale)
        : store_(store),
          threshold_(sample_threshold),
          reject_stale_(reject_stale),
          aggregator_(kDim),
          global_(kDim) {}

    void Deliver(const flow::Message& message, SimTime arrival) {
      ++out_.received;
      if (reject_stale_ && message.round != out_.history.size()) {
        ++out_.stale_rejections;
        return;
      }
      auto blob = store_.Get(message.payload);
      if (!blob.ok()) {
        if (blob.error().code() == ErrorCode::kNotFound) {
          ++out_.decode_failures;
        } else {
          ++out_.store_errors;
        }
        return;
      }
      auto model = ml::LrModel::FromBytes(*blob);
      if (!model.ok() ||
          !aggregator_
               .Add(*model, std::max<std::size_t>(1, message.sample_count))
               .ok()) {
        ++out_.decode_failures;
        return;
      }
      if (aggregator_.total_samples() >= threshold_) AggregateAt(arrival);
    }

    void AggregateAt(SimTime when) {
      auto model = aggregator_.Aggregate();
      ASSERT_TRUE(model.ok());
      AggregationRecord record;
      record.round = out_.history.size() + 1;
      record.time = when;
      record.clients = aggregator_.clients();
      record.samples = aggregator_.total_samples();
      out_.history.push_back(record);
      global_ = std::move(*model);
      aggregator_.Reset();
    }

    Outcome Capture() const {
      Outcome out = out_;
      out.weights.assign(global_.weights().begin(), global_.weights().end());
      out.bias = global_.bias();
      out.pending_samples = aggregator_.total_samples();
      out.pending_clients = aggregator_.clients();
      AggregationSnapshot& s = out.snapshot;
      s.accumulator.assign(aggregator_.accumulator().begin(),
                           aggregator_.accumulator().end());
      s.accumulator_c1.assign(aggregator_.compensation1().begin(),
                              aggregator_.compensation1().end());
      s.accumulator_c2.assign(aggregator_.compensation2().begin(),
                              aggregator_.compensation2().end());
      s.bias_accumulator = aggregator_.bias_accumulator();
      s.bias_accumulator_c1 = aggregator_.bias_compensation1();
      s.bias_accumulator_c2 = aggregator_.bias_compensation2();
      s.accumulator_samples = aggregator_.total_samples();
      s.accumulator_clients = aggregator_.clients();
      return out;
    }

   private:
    const BlobStore& store_;
    std::size_t threshold_;
    bool reject_stale_;
    ml::FedAvgAggregator aggregator_;
    ml::LrModel global_;
    Outcome out_;
  };

  Outcome Oracle(const BlobStore& store,
                 const std::vector<flow::Message>& messages,
                 const std::vector<SimTime>& arrivals,
                 std::size_t sample_threshold, bool reject_stale = false) {
    SerialOracle oracle(store, sample_threshold, reject_stale);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      oracle.Deliver(messages[i], arrivals[i]);
    }
    return oracle.Capture();
  }

  /// The three ways a stream reaches the service.
  enum class Path { kDeliver, kDeliverBatch, kDecodedBatch };
  static constexpr Path kPaths[] = {Path::kDeliver, Path::kDeliverBatch,
                                    Path::kDecodedBatch};

  static void DeliverVia(Path path, AggregationService& service,
                         const BlobStore& store,
                         const std::vector<flow::Message>& messages,
                         const std::vector<SimTime>& arrivals) {
    switch (path) {
      case Path::kDeliver:
        for (std::size_t i = 0; i < messages.size(); ++i) {
          service.Deliver(messages[i], arrivals[i]);
        }
        return;
      case Path::kDeliverBatch:
        service.DeliverBatch(messages, arrivals);
        return;
      case Path::kDecodedBatch: {
        BlobModelDecoder decoder(store);
        std::vector<flow::DecodedUpdate> updates;
        updates.reserve(messages.size());
        for (const auto& message : messages) {
          updates.push_back(decoder.Decode(message));
        }
        service.DeliverDecodedBatch(updates, arrivals);
        return;
      }
    }
  }

  Outcome Run(BlobStore& store, const std::vector<flow::Message>& messages,
              const std::vector<SimTime>& arrivals, Path path,
              ThreadPool* pool, std::size_t sample_threshold,
              bool reject_stale = false) {
    AggregationConfig config;
    config.model_dim = kDim;
    config.trigger = AggregationTrigger::kSampleThreshold;
    config.sample_threshold = sample_threshold;
    config.reject_stale = reject_stale;
    AggregationService service(loop_, store, config);
    service.set_thread_pool(pool);
    DeliverVia(path, service, store, messages, arrivals);
    return Capture(service);
  }

  static Outcome Capture(const AggregationService& service) {
    Outcome out;
    out.received = service.messages_received();
    out.decode_failures = service.decode_failures();
    out.stale_rejections = service.stale_rejections();
    out.store_errors = service.store_errors();
    out.history = service.history();
    out.weights.assign(service.global_model().weights().begin(),
                       service.global_model().weights().end());
    out.bias = service.global_model().bias();
    out.pending_samples = service.pending_samples();
    out.pending_clients = service.pending_clients();
    out.snapshot = service.Snapshot();
    return out;
  }

  static void ExpectIdentical(const Outcome& a, const Outcome& b) {
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.decode_failures, b.decode_failures);
    EXPECT_EQ(a.stale_rejections, b.stale_rejections);
    EXPECT_EQ(a.store_errors, b.store_errors);
    EXPECT_EQ(a.pending_samples, b.pending_samples);
    EXPECT_EQ(a.pending_clients, b.pending_clients);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t r = 0; r < a.history.size(); ++r) {
      EXPECT_EQ(a.history[r].round, b.history[r].round);
      EXPECT_EQ(a.history[r].time, b.history[r].time);
      EXPECT_EQ(a.history[r].clients, b.history[r].clients);
      EXPECT_EQ(a.history[r].samples, b.history[r].samples);
    }
    ASSERT_EQ(a.weights.size(), b.weights.size());
    EXPECT_EQ(0, std::memcmp(a.weights.data(), b.weights.data(),
                             a.weights.size() * sizeof(float)));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a.bias),
              std::bit_cast<std::uint32_t>(b.bias));
    // Snapshot parity covers the cascade planes bit-for-bit.
    EXPECT_EQ(a.snapshot.accumulator, b.snapshot.accumulator);
    EXPECT_EQ(a.snapshot.accumulator_c1, b.snapshot.accumulator_c1);
    EXPECT_EQ(a.snapshot.accumulator_c2, b.snapshot.accumulator_c2);
    EXPECT_EQ(a.snapshot.bias_accumulator, b.snapshot.bias_accumulator);
    EXPECT_EQ(a.snapshot.bias_accumulator_c1, b.snapshot.bias_accumulator_c1);
    EXPECT_EQ(a.snapshot.bias_accumulator_c2, b.snapshot.bias_accumulator_c2);
    EXPECT_EQ(a.snapshot.accumulator_samples, b.snapshot.accumulator_samples);
    EXPECT_EQ(a.snapshot.accumulator_clients, b.snapshot.accumulator_clients);
  }

  /// Mixed stream: valid updates with varying magnitudes, a corrupt blob,
  /// a missing blob, a blob the store fails to serve, a wrong-dimension
  /// model, threshold crossings.
  void BuildAdversarialStream(BlobStore& store, std::size_t valid_count,
                              std::vector<flow::Message>& messages,
                              std::vector<SimTime>& arrivals) {
    std::uint64_t id = 1;
    auto push = [&](flow::Message m) {
      arrivals.push_back(Seconds(static_cast<double>(id)));
      messages.push_back(std::move(m));
      ++id;
    };
    for (std::size_t k = 0; k < valid_count; ++k) {
      const float w = static_cast<float>((k % 17) * 1000.0 - 8000.0) +
                      static_cast<float>(k) * 1e-4f;
      push(Upload(store, w, 1 + k % 7, id));
      if (k == valid_count / 3) {
        flow::Message corrupt;
        corrupt.id = MessageId(id);
        corrupt.task = TaskId(1);
        corrupt.payload = store.Put(Bytes({1, 2, 3}));
        corrupt.sample_count = 4;
        push(corrupt);
        const flow::Message faulted = Upload(store, 5.0f, 4, id);
        store.set_read_fault_hook([payload = faulted.payload](BlobId blob) {
          return blob == payload ? Unavailable("injected read fault")
                                 : Status::Ok();
        });
        push(faulted);
      }
      if (k == valid_count / 2) {
        flow::Message missing;
        missing.id = MessageId(id);
        missing.task = TaskId(1);
        missing.payload = BlobId(424242);
        missing.sample_count = 4;
        push(missing);
        ml::LrModel wrong(kDim * 2);
        flow::Message mismatch;
        mismatch.id = MessageId(id + 1);
        mismatch.task = TaskId(1);
        mismatch.payload = store.Put(wrong.ToBytes());
        mismatch.sample_count = 4;
        push(mismatch);
      }
    }
  }
};

TEST_F(AggregationPartialSumTest, MatchesLegacyPlaneAcrossFailuresAndRounds) {
  BlobStore store;
  std::vector<flow::Message> messages;
  std::vector<SimTime> arrivals;
  BuildAdversarialStream(store, 60, messages, arrivals);
  // Threshold 40 closes several rounds mid-batch; the tail stays pending.
  // Under reject_stale the round-0 messages after the first close are
  // stale, bad payloads among them — admission order becomes observable.
  for (const bool reject_stale : {false, true}) {
    const std::size_t read0 = store.bytes_read();
    const auto oracle = Oracle(store, messages, arrivals,
                               /*sample_threshold=*/40, reject_stale);
    const std::size_t oracle_read = store.bytes_read() - read0;
    EXPECT_GT(oracle.history.size(), 0u);
    if (reject_stale) {
      // Every bad payload arrives after the first close: all stale.
      EXPECT_GT(oracle.stale_rejections, 0u);
      EXPECT_EQ(oracle.decode_failures + oracle.store_errors, 0u);
    } else {
      EXPECT_GT(oracle.history.size(), 1u);
      EXPECT_GT(oracle.decode_failures, 0u);
      EXPECT_GT(oracle.store_errors, 0u);
      EXPECT_GT(oracle.pending_clients, 0u);  // staged tail visible
    }
    for (const Path path : kPaths) {
      SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)) +
                   " reject_stale " + std::to_string(reject_stale));
      const std::size_t before = store.bytes_read();
      ExpectIdentical(oracle, Run(store, messages, arrivals, path,
                                  /*pool=*/nullptr, /*sample_threshold=*/40,
                                  reject_stale));
      // Undecoded paths fetch only admitted messages, as the oracle does;
      // the decoded path's upstream decode is speculative by design.
      if (path != Path::kDecodedBatch) {
        EXPECT_EQ(store.bytes_read() - before, oracle_read);
      }
    }
  }
}

TEST_F(AggregationPartialSumTest, ParallelFlushMatchesLegacyBitForBit) {
  // The pool path: per-lane partials accumulated by ParallelFor and merged
  // ascending must publish the same bits as the serial oracle. At ~4
  // samples per update a 1500-sample round spans more than the flush cap
  // (256) of staged updates, so capacity flushes happen before the close.
  BlobStore store;
  std::vector<flow::Message> messages;
  std::vector<SimTime> arrivals;
  BuildAdversarialStream(store, 600, messages, arrivals);
  ThreadPool pool(4);
  const auto oracle =
      Oracle(store, messages, arrivals, /*sample_threshold=*/1500);
  ASSERT_GT(oracle.history.size(), 0u);
  EXPECT_GT(oracle.history[0].clients, 256u);
  for (const Path path : kPaths) {
    SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)));
    ExpectIdentical(oracle, Run(store, messages, arrivals, path, &pool,
                                /*sample_threshold=*/1500));
  }
}

TEST_F(AggregationPartialSumTest, MidRoundSnapshotRestoreContinuesIdentically) {
  // Cut a snapshot while updates are staged (no flush yet), restore into a
  // fresh service, deliver the rest: the recovered run must publish the
  // same bits as the uninterrupted serial oracle.
  BlobStore store;
  std::vector<flow::Message> messages;
  std::vector<SimTime> arrivals;
  BuildAdversarialStream(store, 40, messages, arrivals);
  const std::size_t cut = 17;
  const std::vector<flow::Message> head(messages.begin(),
                                        messages.begin() + cut);
  const std::vector<flow::Message> tail(messages.begin() + cut,
                                        messages.end());
  const std::vector<SimTime> head_arrivals(arrivals.begin(),
                                           arrivals.begin() + cut);
  const std::vector<SimTime> tail_arrivals(arrivals.begin() + cut,
                                           arrivals.end());

  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 500;  // nothing closes: all staged

  SerialOracle oracle(store, config.sample_threshold, false);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    oracle.Deliver(messages[i], arrivals[i]);
  }
  oracle.AggregateAt(loop_.Now());

  for (const Path path : kPaths) {
    SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)));
    AggregationService first(loop_, store, config);
    DeliverVia(path, first, store, head, head_arrivals);
    EXPECT_GT(first.pending_clients(), 0u);
    const AggregationSnapshot snapshot = first.Snapshot();

    AggregationService recovered(loop_, store, config);
    recovered.RestoreSnapshot(snapshot);
    EXPECT_EQ(recovered.pending_clients(), first.pending_clients());
    DeliverVia(path, recovered, store, tail, tail_arrivals);
    EXPECT_TRUE(recovered.AggregateNow());
    ExpectIdentical(oracle.Capture(), Capture(recovered));
  }
}

TEST_F(AggregationPartialSumTest, QuorumAndAbortSeeStagedUpdates) {
  // The deadline policy must read the combined (flushed + staged) totals:
  // a quorum met purely by staged updates commits, and an abort discards
  // the staged entries — on undecoded and decoded deliveries alike.
  for (const Path path : kPaths) {
    SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)));
    sim::EventLoop loop;
    BlobStore store;
    AggregationConfig config;
    config.model_dim = kDim;
    config.trigger = AggregationTrigger::kSampleThreshold;
    config.sample_threshold = 1000000;  // rounds close only via deadline
    config.round_quorum = 2;
    config.round_deadline = Seconds(10.0);
    config.max_round_extensions = 0;
    AggregationService service(loop, store, config);
    service.OnRoundOpened(0);
    loop.ScheduleAt(Seconds(1.0), [&] {
      DeliverVia(path, service, store,
                 {Upload(store, 1.0f, 3, 1), Upload(store, 3.0f, 5, 2)},
                 {Seconds(1.0), Seconds(1.0)});
    });
    loop.RunUntil(Seconds(11.0));
    // Two staged clients met the quorum at the deadline: degraded commit.
    ASSERT_EQ(service.rounds_completed(), 1u);
    EXPECT_EQ(service.deadline_commits(), 1u);
    EXPECT_EQ(service.history()[0].clients, 2u);
    EXPECT_EQ(service.history()[0].samples, 8u);
    EXPECT_EQ(service.global_model().weights()[0], 2.25f);  // (3 + 15) / 8
    EXPECT_EQ(service.pending_samples(), 0u);

    // Next round: one staged update below quorum, no extensions -> abort
    // discards the staged entry.
    bool aborted = false;
    service.set_on_round_aborted([&](SimTime) { aborted = true; });
    service.OnRoundOpened(Seconds(11.0));
    loop.ScheduleAt(Seconds(12.0), [&] {
      DeliverVia(path, service, store, {Upload(store, 2.0f, 4, 3)},
                 {Seconds(12.0)});
    });
    loop.RunUntil(Seconds(30.0));
    EXPECT_TRUE(aborted);
    EXPECT_EQ(service.aborted_rounds(), 1u);
    EXPECT_EQ(service.rounds_completed(), 1u);
    EXPECT_EQ(service.pending_samples(), 0u);
    EXPECT_EQ(service.pending_clients(), 0u);
  }
}

}  // namespace
}  // namespace simdc::cloud

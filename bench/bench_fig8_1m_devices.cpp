// Million-device memory-plane scale ladder (10k → 100k → 1M devices).
//
// Two planes, each climbed rung by rung with peak-RSS snapshots:
//
//  1. Fleet-state plane: PhoneMgr over the struct-of-arrays FleetStore.
//     Registers the whole rung, times registration, idle counting and the
//     O(log n) unregister/re-register churn path, and reports resident
//     bytes per device from the peak-RSS delta.
//
//  2. Engine payload plane: a real FlEngine run per rung with a fixed
//     1000-participant cohort, arena-pooled payload blobs
//     (reclaim_payload_blobs) and the decoded payload plane. The hard gate
//     is bit-identical FlRunResult across shard widths 1/2/4/8 at every
//     rung, plus fp32 reclaim == fp32 no-reclaim (arena recycling must not
//     change results) and width-invariance of the fp16/int8 codecs. Codec
//     byte accounting gates the wire-size reductions: per-update encoded
//     size int8 >= 3.9x and fp16 >= 1.9x smaller than fp32, confirmed by
//     measured BlobStore::bytes_written ratios.
//
// The 1M rung allocates roughly a GB and is opt-in: SIMDC_BENCH_1M=1.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/fl_engine.h"
#include "data/synth_avazu.h"
#include "device/fleet.h"
#include "ml/lr_model.h"
#include "phonemgr/phone_mgr.h"
#include "sim/event_loop.h"

namespace {

using namespace simdc;

constexpr std::uint32_t kHashDim = 1u << 10;

bool Run1mRung() {
  const char* env = std::getenv("SIMDC_BENCH_1M");
  return env != nullptr && std::string(env) != "0" && std::string(env) != "";
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void RecordOp(const std::string& op, double seconds) {
  bench::OpTimings::Instance().Record(
      op, static_cast<std::uint64_t>(seconds * 1e9));
}

// --- Plane 1: SoA fleet state ---------------------------------------------

bool FleetRung(std::size_t n) {
  sim::EventLoop loop;
  device::PhoneMgr mgr(loop);
  // Half local / half MSP, split evenly across grades, so both localities
  // and both grade free-lists carry real weight at every rung.
  auto specs = device::MakeLocalFleet(n / 4, n / 4, /*seed=*/7, /*first_id=*/1);
  auto msp = device::MakeMspFleet(n / 4, n - 3 * (n / 4), /*seed=*/8,
                                  /*first_id=*/n + 1);
  specs.insert(specs.end(), msp.begin(), msp.end());

  const std::uint64_t rss_before = bench::PeakRssBytes();
  auto start = std::chrono::steady_clock::now();
  mgr.RegisterFleet(specs);
  const double register_s = SecondsSince(start);
  RecordOp("fleet_register_" + std::to_string(n), register_s);
  const std::uint64_t rss_after = bench::PeakRssBytes();
  bench::OpRss::Instance().Record("fleet_rung_" + std::to_string(n),
                                  rss_after);
  const std::uint64_t delta =
      rss_after > rss_before ? rss_after - rss_before : 0;
  const double bytes_per_device = static_cast<double>(delta) / n;
  bench::OpRss::Instance().Record(
      "fleet_bytes_per_device_" + std::to_string(n),
      static_cast<std::uint64_t>(bytes_per_device));

  bool ok = mgr.TotalPhones() == specs.size();
  const std::size_t idle_before = mgr.CountIdle(device::DeviceGrade::kHigh) +
                                  mgr.CountIdle(device::DeviceGrade::kLow);
  ok = ok && idle_before == specs.size();

  // Churn: unregister a 1000-phone slice (O(log n) each — tombstones, no
  // index rebuild), then re-register it and check the counts knit back.
  const std::size_t churn = std::min<std::size_t>(1000, n / 2);
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < churn; ++i) {
    ok = ok && mgr.UnregisterPhone(specs[i].id).ok();
  }
  const double unregister_s = SecondsSince(start);
  RecordOp("fleet_unregister_1k_of_" + std::to_string(n), unregister_s);
  ok = ok && mgr.TotalPhones() == specs.size() - churn;
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < churn; ++i) {
    mgr.RegisterPhone(specs[i]);
  }
  RecordOp("fleet_reregister_1k_of_" + std::to_string(n),
           SecondsSince(start));
  ok = ok && mgr.TotalPhones() == specs.size();

  std::printf("%10zu %12.3f %14.3f %16.1f %10s\n", n, register_s,
              unregister_s * 1e3, bytes_per_device, ok ? "yes" : "NO");
  return ok;
}

// --- Plane 2: engine payload ladder ---------------------------------------

struct LadderRun {
  core::FlRunResult result;
  std::size_t bytes_written = 0;
  std::size_t arena_blocks_created = 0;
  std::size_t arena_blocks_recycled = 0;
  double wall_s = 0.0;
};

LadderRun TimedLadderRun(const data::FederatedDataset& dataset,
                         std::size_t shards, ml::PayloadCodec codec,
                         bool reclaim) {
  sim::EventLoop loop;
  core::FlExperimentConfig config;
  config.rounds = 2;
  config.train.learning_rate = 0.05;
  config.train.epochs = 1;
  config.logical_fraction = 1.0;
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(60.0);
  config.seed = 2026;
  config.parallelism = 4;
  // Fixed cohort: payload working-set memory stays rung-invariant while
  // the fleet-scale structures (dataset, selection) climb with the rung.
  config.participants_per_round = 1000;
  // Width-invariant regime (see FlExperimentConfig::shards).
  config.strategy = flow::RealtimeAccumulated{
      {1}, 0.1, flow::kShardWidthInvariantCapacity};
  config.shards = shards;
  config.decode_plane = flow::DecodePlane::kDecoded;
  config.payload_codec = codec;
  config.reclaim_payload_blobs = reclaim;
  LadderRun out;
  const auto start = std::chrono::steady_clock::now();
  core::FlEngine engine(loop, dataset, config);
  out.result = engine.Run();
  out.wall_s = SecondsSince(start);
  out.bytes_written = engine.storage().bytes_written();
  out.arena_blocks_created = engine.storage().arena_blocks_created();
  out.arena_blocks_recycled = engine.storage().arena_blocks_recycled();
  return out;
}

bool IdenticalRuns(const core::FlRunResult& a, const core::FlRunResult& b) {
  bool identical = a.final_weights == b.final_weights &&
                   a.final_bias == b.final_bias &&
                   a.messages_dropped == b.messages_dropped &&
                   a.rounds.size() == b.rounds.size();
  for (std::size_t r = 0; identical && r < a.rounds.size(); ++r) {
    identical = a.rounds[r].time == b.rounds[r].time &&
                a.rounds[r].clients == b.rounds[r].clients &&
                a.rounds[r].samples == b.rounds[r].samples;
  }
  return identical;
}

bool EngineRung(std::size_t n) {
  data::SynthConfig data_config;
  data_config.num_devices = n;
  data_config.records_per_device_mean = 2;
  data_config.num_test_devices = 20;
  data_config.hash_dim = kHashDim;
  data_config.seed = 5150 + n;
  const auto gen_start = std::chrono::steady_clock::now();
  const auto dataset = data::GenerateSyntheticAvazu(data_config);
  RecordOp("ladder_datagen_" + std::to_string(n), SecondsSince(gen_start));

  const std::string rung = std::to_string(n);
  bool ok = true;

  // Shard-width ladder at fp32 + reclaim: the hard bit-identity gate.
  const LadderRun ref =
      TimedLadderRun(dataset, 1, ml::PayloadCodec::kFp32, /*reclaim=*/true);
  RecordOp("ladder_" + rung + "_shards_1", ref.wall_s);
  std::printf("%10zu %8s %8zu %10.3f %12s %14zu %14zu\n", n, "fp32",
              std::size_t{1}, ref.wall_s, "-", ref.arena_blocks_created,
              ref.arena_blocks_recycled);
  for (const std::size_t shards :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const LadderRun run = TimedLadderRun(dataset, shards,
                                         ml::PayloadCodec::kFp32, true);
    RecordOp("ladder_" + rung + "_shards_" + std::to_string(shards),
             run.wall_s);
    const bool identical = IdenticalRuns(run.result, ref.result);
    ok = ok && identical;
    std::printf("%10zu %8s %8zu %10.3f %12s %14zu %14zu\n", n, "fp32",
                shards, run.wall_s, identical ? "yes" : "NO",
                run.arena_blocks_created, run.arena_blocks_recycled);
  }

  // Arena honesty: recycling payload blobs each round must not change the
  // run (no stragglers here: delays are a few seconds vs a 60 s period).
  const LadderRun keep =
      TimedLadderRun(dataset, 1, ml::PayloadCodec::kFp32, /*reclaim=*/false);
  const bool reclaim_identical = IdenticalRuns(keep.result, ref.result);
  ok = ok && reclaim_identical;
  std::printf("%10zu %8s %8zu %10.3f %12s %14zu %14zu  (no reclaim)\n", n,
              "fp32", std::size_t{1}, keep.wall_s,
              reclaim_identical ? "yes" : "NO", keep.arena_blocks_created,
              keep.arena_blocks_recycled);

  // Quantized codecs: width-invariant among themselves, and smaller on the
  // wire by the advertised factors.
  for (const auto codec : {ml::PayloadCodec::kFp16, ml::PayloadCodec::kInt8}) {
    const LadderRun narrow = TimedLadderRun(dataset, 1, codec, true);
    const LadderRun wide = TimedLadderRun(dataset, 4, codec, true);
    const bool identical = IdenticalRuns(narrow.result, wide.result);
    ok = ok && identical;
    RecordOp("ladder_" + rung + "_" + ml::ToString(codec) + "_shards_1",
             narrow.wall_s);
    const double measured_ratio =
        narrow.bytes_written > 0
            ? static_cast<double>(ref.bytes_written) / narrow.bytes_written
            : 0.0;
    const double floor = codec == ml::PayloadCodec::kInt8 ? 3.5 : 1.8;
    const bool bytes_ok = measured_ratio >= floor;
    ok = ok && bytes_ok;
    std::printf("%10zu %8s %8s %10.3f %12s   bytes_written %.2fx smaller %s\n",
                n, ml::ToString(codec), "1+4", narrow.wall_s + wide.wall_s,
                identical ? "yes" : "NO", measured_ratio,
                bytes_ok ? "(ok)" : "(BELOW FLOOR)");
  }

  bench::OpRss::Instance().RecordPeakNow("ladder_rung_" + rung);
  return ok;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fig. 8 extension — million-device memory plane (10k -> 100k -> 1M)");
  std::vector<std::size_t> rungs = {10'000, 100'000};
  if (Run1mRung()) {
    rungs.push_back(1'000'000);
  } else {
    std::printf("1M rung skipped (set SIMDC_BENCH_1M=1 to enable)\n");
  }

  bench::PrintHeader("Fleet-state plane: SoA FleetStore registration/churn");
  std::printf("%10s %12s %14s %16s %10s\n", "phones", "register s",
              "unreg 1k (ms)", "bytes/device", "ok");
  bench::PrintRule();
  bool fleet_ok = true;
  for (const std::size_t n : rungs) fleet_ok = fleet_ok && FleetRung(n);
  bench::PrintRule();
  std::printf("Fleet counts consistent across register/churn: %s\n",
              fleet_ok ? "PASS" : "FAIL");

  // Per-update wire sizes are a pure function of the model dimension; gate
  // the advertised codec reductions exactly before the measured runs.
  const ml::LrModel probe(kHashDim);
  const double fp32_size =
      static_cast<double>(probe.EncodedSize(ml::PayloadCodec::kFp32));
  const double fp16_ratio =
      fp32_size / probe.EncodedSize(ml::PayloadCodec::kFp16);
  const double int8_ratio =
      fp32_size / probe.EncodedSize(ml::PayloadCodec::kInt8);
  const bool codec_sizes_ok = int8_ratio >= 3.9 && fp16_ratio >= 1.9;
  std::printf(
      "\nPer-update encoded size (dim=%u): fp32 %zu B, fp16 %zu B (%.2fx), "
      "int8 %zu B (%.2fx): %s\n",
      kHashDim, probe.EncodedSize(ml::PayloadCodec::kFp32),
      probe.EncodedSize(ml::PayloadCodec::kFp16), fp16_ratio,
      probe.EncodedSize(ml::PayloadCodec::kInt8), int8_ratio,
      codec_sizes_ok ? "PASS (int8 >= 3.9x, fp16 >= 1.9x)" : "FAIL");

  bench::PrintHeader(
      "Engine payload plane: bit-identity ladder (1000-device cohort)");
  std::printf("%10s %8s %8s %10s %12s %14s %14s\n", "devices", "codec",
              "shards", "wall s", "identical", "arena created",
              "arena recycled");
  bench::PrintRule();
  bool engine_ok = true;
  for (const std::size_t n : rungs) engine_ok = engine_ok && EngineRung(n);
  bench::PrintRule();
  std::printf(
      "Bit-identical across shard widths 1/2/4/8, reclaim on/off, and codec\n"
      "width pairs at every rung: %s\n",
      engine_ok ? "REPRODUCED" : "NOT reproduced");

  bench::EmitOpTimings();
  return fleet_ok && codec_sizes_ok && engine_ok ? 0 : 1;
}

// SimDC benchmark program.
//
//   simdc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--commit <id>]
//
// --trace 0 (end to end): warms up with an untimed run without the round
// timing hook, runs the workload once at parallelism = 1, then repeats the
// full workload (set-up + Run) for --seconds and reports the end-to-end
// metrics. Every run's 64-bit result digest must agree.
//
// --trace 1 (per layer): runs the engine untraced and traced (round hook
// plus a timing FileIo on the durability plane), then replays the run's
// rounds layer by layer with spans (replay.h) and reports per-layer self
// times and counters.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A fuller artifact with provenance goes to <out-dir>.
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/thread_pool.h"
#include "core/fl_engine.h"
#include "core/multi_tenant.h"
#include "data/synth_avazu.h"
#include "digest.h"
#include "replay.h"
#include "stats.h"
#include "timing_io.h"
#include "trace.h"
#include "workloads.h"

#ifndef SIMDC_PERFBENCH_BUILD_TYPE
#define SIMDC_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SIMDC_PERFBENCH_COMPILER
#define SIMDC_PERFBENCH_COMPILER "unknown"
#endif

namespace simdc::perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

bool ParseOptions(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = std::stoi(value);
      } else if (key == "--out-dir") {
        options.out_dir = value;
      } else if (key == "--commit") {
        options.commit = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && options.seconds > 0 &&
         (options.trace == 0 || options.trace == 1);
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Round timing hook: FlExperimentConfig::delay_fn stamps the host time
/// of each round's first training call and returns the default delay
/// unchanged. Round r lasts from its stamp to round r + 1's.
class RoundClock {
 public:
  using DelayFn = std::function<SimDuration(const data::DeviceData&,
                                            std::size_t, Rng&)>;

  DelayFn Hook() {
    return [this](const data::DeviceData& device, std::size_t round, Rng&) {
      if (round >= stamped_.load(std::memory_order_acquire)) Stamp(round);
      return simdc::Seconds(device.response_delay_s);
    };
  }

  /// Host seconds of every round followed by another stamped round.
  std::vector<double> Intervals() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (std::size_t r = 0; r + 1 < starts_.size(); ++r) {
      if (starts_[r] >= 0 && starts_[r + 1] >= 0) {
        out.push_back(perfbench::Seconds(starts_[r + 1] - starts_[r]));
      }
    }
    return out;
  }

 private:
  void Stamp(std::size_t round) {
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    if (starts_.size() <= round) starts_.resize(round + 1, -1);
    if (starts_[round] < 0) starts_[round] = now;
    if (stamped_.load(std::memory_order_relaxed) < round + 1) {
      stamped_.store(round + 1, std::memory_order_release);
    }
  }

  mutable std::mutex mutex_;
  std::vector<std::int64_t> starts_;
  std::atomic<std::size_t> stamped_{0};
};

struct RunSettings {
  bool hook = false;
  /// Force parallelism = 1 (the determinism reference).
  bool serial = false;
  /// Durability-plane I/O override (traced run); null = real files.
  persist::FileIo* io = nullptr;
  /// Pre-built dataset; null = synthesize inside the timed set-up.
  const data::FederatedDataset* dataset = nullptr;
};

struct EngineRun {
  std::uint64_t digest = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::size_t updates = 0;
  std::vector<double> round_s;
  double final_test_logloss = 0.0;
  // Engine-side counters the traced run reports.
  std::vector<core::FlRunResult> results;  // one per tenant (or the run)
  std::vector<core::TaskSlaReport> slas;
  flow::DispatchStats dispatch;
  std::size_t storage_bytes_written = 0;
  std::uint64_t serial_accumulate_ns = 0;
  std::uint64_t serial_bookkeeping_ns = 0;
  std::size_t events = 0;
  std::size_t admission_passes = 0;
  std::size_t peak_active = 0;
};

double LastTestLogloss(const core::FlRunResult& result) {
  return result.rounds.empty() ? 0.0 : result.rounds.back().test_logloss;
}

EngineRun RunSingle(const Workload& w, const RunSettings& settings) {
  EngineRun run;
  const std::int64_t t0 = NowNs();
  data::FederatedDataset owned;
  if (settings.dataset == nullptr) owned = data::GenerateSyntheticAvazu(w.synth);
  const data::FederatedDataset& dataset =
      settings.dataset != nullptr ? *settings.dataset : owned;
  RoundClock clock;
  core::FlExperimentConfig config = w.fl;
  if (settings.serial) config.parallelism = 1;
  if (settings.hook) config.delay_fn = clock.Hook();
  config.durability.io = settings.io;
  sim::EventLoop loop;
  core::FlEngine engine(loop, dataset, std::move(config));
  const std::int64_t t1 = NowNs();
  core::FlRunResult result = engine.Run();
  const std::int64_t t2 = NowNs();

  run.setup_s = Seconds(t1 - t0);
  run.run_s = Seconds(t2 - t1);
  run.updates = result.messages_emitted;
  run.round_s = clock.Intervals();
  run.final_test_logloss = LastTestLogloss(result);
  run.dispatch = engine.dispatch_stats();
  Digest digest;
  Fold(digest, result);
  Fold(digest, run.dispatch);
  Fold(digest, engine.aggregation());
  run.digest = digest.value();
  run.storage_bytes_written = engine.storage().bytes_written();
  run.serial_accumulate_ns = engine.aggregation().serial_accumulate_ns();
  run.serial_bookkeeping_ns = engine.aggregation().serial_bookkeeping_ns();
  run.events = loop.processed();
  for (const sim::EventLoop* shard : engine.runtime().ShardLoops()) {
    run.events += shard->processed();
  }
  run.slas.push_back(engine.Sla());
  run.results.push_back(std::move(result));
  return run;
}

EngineRun RunMultiTenant(const Workload& w, const RunSettings& settings) {
  EngineRun run;
  const std::int64_t t0 = NowNs();
  data::FederatedDataset owned;
  if (settings.dataset == nullptr) owned = data::GenerateSyntheticAvazu(w.synth);
  const data::FederatedDataset& dataset =
      settings.dataset != nullptr ? *settings.dataset : owned;
  std::unique_ptr<ThreadPool> pool;
  if (!settings.serial) pool = std::make_unique<ThreadPool>(w.parallelism);
  std::vector<std::unique_ptr<RoundClock>> clocks;
  sim::EventLoop loop;
  sched::ResourceManager resources(
      w.fleet_bundles, {w.fleet_phones_per_grade, w.fleet_phones_per_grade});
  core::MultiTenantEngine engine(loop, resources, pool.get());
  for (std::size_t i = 0; i < w.tenants.size(); ++i) {
    core::TenantTask task = TenantTaskFor(w, i, dataset);
    if (settings.serial) task.fl.parallelism = 1;
    clocks.push_back(std::make_unique<RoundClock>());
    if (settings.hook) task.fl.delay_fn = clocks.back()->Hook();
    const Status submitted = engine.Submit(std::move(task));
    if (!submitted.ok()) {
      throw std::runtime_error("tenant submission failed: " +
                               submitted.ToString());
    }
  }
  const std::int64_t t1 = NowNs();
  std::vector<core::TenantResult> tenants = engine.Run(w.policy);
  const std::int64_t t2 = NowNs();

  run.setup_s = Seconds(t1 - t0);
  run.run_s = Seconds(t2 - t1);
  Digest digest;
  double logloss_sum = 0.0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const core::TenantResult& tenant = tenants[i];
    if (!tenant.completed) {
      throw std::runtime_error("tenant " + std::to_string(tenant.id.value()) +
                               " did not complete: " + tenant.detail);
    }
    Fold(digest, tenant);
    run.updates += tenant.result.messages_emitted;
    logloss_sum += LastTestLogloss(tenant.result);
    const std::vector<double> rounds = clocks[i]->Intervals();
    run.round_s.insert(run.round_s.end(), rounds.begin(), rounds.end());
    run.slas.push_back(tenant.sla);
    run.results.push_back(tenant.result);
  }
  digest.U64(engine.admission_passes());
  digest.U64(engine.peak_active_tenants());
  run.digest = digest.value();
  run.final_test_logloss =
      tenants.empty() ? 0.0 : logloss_sum / static_cast<double>(tenants.size());
  run.events = loop.processed();
  run.admission_passes = engine.admission_passes();
  run.peak_active = engine.peak_active_tenants();
  return run;
}

EngineRun RunOnce(const Workload& w, const RunSettings& settings) {
  return w.multi_tenant() ? RunMultiTenant(w, settings)
                          : RunSingle(w, settings);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

std::string Hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// One reported metric, in the order it is printed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool BuildIsRelease() {
  return std::string(SIMDC_PERFBENCH_BUILD_TYPE) == "Release";
}

std::string ProvenanceJson(const Options& options) {
  std::ostringstream out;
  out << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": " << Quote(SIMDC_PERFBENCH_BUILD_TYPE)
      << ", \"build_type_flag\": "
      << Quote(BuildIsRelease() ? "ok"
                                : "NOT Release: timings are not representative")
      << ", \"commit\": " << Quote(options.commit)
      << ", \"compiler\": " << Quote(SIMDC_PERFBENCH_COMPILER)
      << ", \"seed\": " << options.seed
      << ", \"workload\": " << Quote(options.workload)
      << ", \"seconds\": " << Num(options.seconds)
      << ", \"trace\": " << options.trace << "}";
  return out.str();
}

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra artifact fields (already JSON-encoded), keyed by name.
  std::vector<std::pair<std::string, std::string>> details;
};

Outcome EndToEnd(const Workload& w, const Options& options) {
  Outcome outcome;
  // Warm-up and determinism references: no round hook, then parallelism 1.
  const EngineRun reference = RunOnce(w, {});
  RunSettings serial_settings;
  serial_settings.serial = true;
  const EngineRun serial = RunOnce(w, serial_settings);
  const bool serial_agrees = serial.digest == reference.digest;

  std::vector<double> throughput, setup, rounds;
  std::size_t repeats = 0;
  const std::int64_t begin = NowNs();
  RunSettings timed_settings;
  timed_settings.hook = true;
  while (repeats < 3 || Seconds(NowNs() - begin) < options.seconds) {
    ++repeats;
    ++outcome.attempted;
    try {
      const EngineRun run = RunOnce(w, timed_settings);
      if (run.digest != reference.digest) {
        ++outcome.failed;
        std::fprintf(stderr, "repeat %zu: digest %s != reference %s\n",
                     repeats, Hex(run.digest).c_str(),
                     Hex(reference.digest).c_str());
        continue;
      }
      throughput.push_back(static_cast<double>(run.updates) / run.run_s);
      setup.push_back(run.setup_s);
      rounds.insert(rounds.end(), run.round_s.begin(), run.round_s.end());
    } catch (const std::exception& error) {
      ++outcome.failed;
      std::fprintf(stderr, "repeat %zu failed: %s\n", repeats, error.what());
    }
  }
  const double measured_s = Seconds(NowNs() - begin);
  outcome.correct = serial_agrees && outcome.failed == 0 && !rounds.empty();
  if (!serial_agrees) {
    std::fprintf(stderr, "parallelism=1 digest %s != reference %s\n",
                 Hex(serial.digest).c_str(), Hex(reference.digest).c_str());
  }

  const double tail_p = TailPercentile(rounds.size());
  const double failed_frac = static_cast<double>(outcome.failed) /
                             static_cast<double>(outcome.attempted);
  outcome.metrics = {
      {"updates_per_s", Median(throughput), "1/s"},
      {"round_s_p50", Median(rounds), "s"},
      {"round_s_tail", Percentile(rounds, tail_p), "s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"final_test_logloss", reference.final_test_logloss, "nats"},
      {"success_frac", 1.0 - failed_frac, "ratio"},
  };
  std::ostringstream samples;
  samples << "{\"timed_repeats\": " << repeats
          << ", \"measured_s\": " << Num(measured_s)
          << ", \"updates_per_s_repeats\": " << throughput.size()
          << ", \"setup_s_repeats\": " << setup.size()
          << ", \"round_samples\": " << rounds.size()
          << ", \"round_s_tail_percentile\": " << Num(tail_p)
          << ", \"failed_frac\": " << Num(failed_frac)
          << ", \"updates_per_run\": " << reference.updates
          << ", \"updates_per_s_each\": " << NumList(throughput)
          << ", \"setup_s_each\": " << NumList(setup) << "}";
  outcome.details.emplace_back("samples", samples.str());
  std::ostringstream digests;
  digests << "{\"reference_no_hook\": " << Quote(Hex(reference.digest))
          << ", \"parallelism_1\": " << Quote(Hex(serial.digest))
          << ", \"timed_all_agree\": "
          << (outcome.failed == 0 ? "true" : "false") << "}";
  outcome.details.emplace_back("digest", digests.str());
  std::printf("digest %s (parallelism=1 %s, %zu timed repeats %s)\n",
              Hex(reference.digest).c_str(), serial_agrees ? "agrees" : "DIFFERS",
              repeats, outcome.failed == 0 ? "agree" : "DISAGREE");
  std::printf("round_s_tail is p%g of %zu round samples\n", tail_p,
              rounds.size());
  return outcome;
}

/// Self-time span names that make up each reported layer.
const std::vector<std::pair<std::string, std::vector<std::string>>>& Layers() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      kLayers = {
          {"data.synth", {"data.synth"}},
          {"ml.train", {"ml.train"}},
          {"ml.encode", {"ml.encode"}},
          {"cloud.put", {"cloud.put"}},
          {"cloud.decode", {"cloud.decode"}},
          {"ml.accumulate", {"ml.accumulate", "ml.aggregate"}},
          {"ml.evaluate", {"ml.evaluate"}},
          {"flow.dispatch", {"flow.dispatch"}},
          {"sim.loop", {"sim.loop"}},
      };
  return kLayers;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Outcome Traced(const Workload& w, const Options& options) {
  Outcome outcome;
  Tracer tracer;
  data::FederatedDataset dataset;
  {
    ScopedSpan span(&tracer, "data.synth");
    dataset = data::GenerateSyntheticAvazu(w.synth);
  }
  // A warm-up run, then untraced and traced engine runs in alternation:
  // the tracing overhead is the difference of their mean Run times. The
  // last traced run supplies the engine-side counters.
  RunSettings untraced_settings;
  untraced_settings.dataset = &dataset;
  const EngineRun untraced = RunOnce(w, untraced_settings);
  RunSettings traced_settings = untraced_settings;
  traced_settings.hook = true;
  std::unique_ptr<TimingFileIo> timing;
  EngineRun traced;
  double untraced_sum_s = 0.0, traced_sum_s = 0.0;
  constexpr int kPairs = 2;
  outcome.attempted = 1 + 2 * kPairs;
  for (int pair = 0; pair < kPairs; ++pair) {
    const EngineRun plain = RunOnce(w, untraced_settings);
    untraced_sum_s += plain.run_s;
    if (plain.digest != untraced.digest) ++outcome.failed;
    timing = std::make_unique<TimingFileIo>(&persist::RealFileIo::Instance());
    traced_settings.io = timing.get();
    traced = RunOnce(w, traced_settings);
    traced_sum_s += traced.run_s;
    if (traced.digest != untraced.digest) ++outcome.failed;
  }
  const TimingFileIo& timing_io = *timing;
  const double overhead_s = (traced_sum_s - untraced_sum_s) / kPairs;
  const bool digests_agree = outcome.failed == 0;

  // Layer replay of every run (each tenant from its admission time).
  std::vector<ReplayResult> replays;
  std::string mismatch;
  for (std::size_t i = 0; i < traced.results.size(); ++i) {
    const core::FlExperimentConfig& config =
        w.multi_tenant() ? w.tenants[i] : w.fl;
    const SimTime start = w.multi_tenant() ? traced.slas[i].admitted : 0;
    replays.push_back(
        ReplayRounds(dataset, config, traced.results[i], start, tracer));
    const ReplayResult& replay = replays.back();
    const core::TaskSlaReport& sla = traced.slas[i];
    if (replay.faithful &&
        (replay.dispatch.retries != sla.retries ||
         replay.dispatch.churn_losses != sla.churn_losses ||
         replay.dispatch.deadline_drops != sla.deadline_drops)) {
      replays.back().faithful = false;
      replays.back().mismatch = "fault-plane counters differ from the SLA row";
    }
    if (!replays.back().faithful && mismatch.empty()) {
      mismatch = "run " + std::to_string(i) + ": " + replays.back().mismatch;
    }
  }
  flow::DispatchStats flow_stats;
  std::size_t ticks = 0, train_calls = 0, events = 0, bytes_written = 0;
  std::size_t arena_created = 0, arena_recycled = 0;
  std::uint64_t payload_bytes = 0;
  for (const ReplayResult& replay : replays) {
    flow_stats.received += replay.dispatch.received;
    flow_stats.sent += replay.dispatch.sent;
    flow_stats.retries += replay.dispatch.retries;
    flow_stats.retry_successes += replay.dispatch.retry_successes;
    flow_stats.churn_losses += replay.dispatch.churn_losses;
    ticks += replay.dispatch.batches.size() + replay.dispatch.batches_truncated;
    train_calls += replay.train_calls;
    payload_bytes += replay.payload_bytes;
    events += replay.events;
    bytes_written += replay.bytes_written;
    arena_created += replay.arena_blocks_created;
    arena_recycled += replay.arena_blocks_recycled;
  }
  if (!w.multi_tenant() && mismatch.empty() &&
      (flow_stats.received != traced.dispatch.received ||
       flow_stats.sent != traced.dispatch.sent ||
       bytes_written != traced.storage_bytes_written)) {
    mismatch = "flow or storage counters differ from the engine's";
  }
  const bool faithful = mismatch.empty();
  outcome.correct = digests_agree && faithful;
  if (!faithful) std::fprintf(stderr, "replay fidelity: %s\n", mismatch.c_str());

  // Self times. The traced wall time is synthesis + replay + the durable
  // I/O measured inside the traced engine run.
  const std::map<std::string, std::int64_t> self = tracer.SelfTimes();
  auto self_s = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : Seconds(it->second);
  };
  double traced_wall = 0.0;
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.parent < 0) traced_wall += Seconds(span.end_ns - span.start_ns);
  }
  const double persist_append = Seconds(timing_io.append_ns());
  const double persist_sync = Seconds(timing_io.sync_ns());
  const double persist_checkpoint = Seconds(timing_io.checkpoint_ns());
  const double persist_total = persist_append + persist_sync + persist_checkpoint;
  traced_wall += persist_total;
  std::map<std::string, double> layer_s;
  double attributed = persist_total;
  for (const auto& [layer, names] : Layers()) {
    double total = 0.0;
    for (const std::string& name : names) total += self_s(name);
    layer_s[layer] = total;
    attributed += total;
  }
  layer_s["persist"] = persist_total;
  const double unattributed = traced_wall - attributed;
  const double sim_loop_ns = layer_s["sim.loop"] * 1e9;

  double queue_wait = 0.0;
  for (const core::TaskSlaReport& sla : traced.slas) queue_wait += sla.queue_wait_s;
  if (w.multi_tenant()) queue_wait /= static_cast<double>(traced.slas.size());

  outcome.metrics = {
      {"data.synth_s", layer_s["data.synth"], "s"},
      {"ml.train_s", layer_s["ml.train"], "s"},
      {"ml.train_calls", static_cast<double>(train_calls), "count"},
      {"ml.encode_s", layer_s["ml.encode"], "s"},
      {"ml.payload_bytes", static_cast<double>(payload_bytes), "bytes"},
      {"cloud.put_s", layer_s["cloud.put"], "s"},
      {"cloud.bytes_written", static_cast<double>(bytes_written), "bytes"},
      {"cloud.decode_s", layer_s["cloud.decode"], "s"},
      {"cloud.arena_reuse_ratio",
       Ratio(static_cast<double>(arena_recycled),
             static_cast<double>(arena_created)),
       "ratio"},
      {"ml.accumulate_s", layer_s["ml.accumulate"], "s"},
      {"agg.serial_accumulate_s",
       Seconds(static_cast<std::int64_t>(traced.serial_accumulate_ns)), "s"},
      {"agg.serial_bookkeeping_s",
       Seconds(static_cast<std::int64_t>(traced.serial_bookkeeping_ns)), "s"},
      {"ml.evaluate_s", layer_s["ml.evaluate"], "s"},
      {"flow.dispatch_s", layer_s["flow.dispatch"], "s"},
      {"flow.ticks", static_cast<double>(ticks), "count"},
      {"flow.retries", static_cast<double>(flow_stats.retries), "count"},
      {"flow.churn_losses", static_cast<double>(flow_stats.churn_losses),
       "count"},
      {"flow.delivery_ratio",
       Ratio(static_cast<double>(flow_stats.sent),
             static_cast<double>(flow_stats.received)),
       "ratio"},
      {"flow.retry_success_ratio",
       Ratio(static_cast<double>(flow_stats.retry_successes),
             static_cast<double>(flow_stats.retries)),
       "ratio"},
      {"sim.events", static_cast<double>(traced.events), "count"},
      {"sim.event_ns", Ratio(sim_loop_ns, static_cast<double>(events)), "ns"},
      {"sim.loop_s", layer_s["sim.loop"], "s"},
      {"persist.append_s", persist_append, "s"},
      {"persist.sync_s", persist_sync, "s"},
      {"persist.checkpoint_s", persist_checkpoint, "s"},
      {"persist.bytes", static_cast<double>(timing_io.bytes()), "bytes"},
      {"persist.syncs", static_cast<double>(timing_io.syncs()), "count"},
      {"sched.admission_passes", static_cast<double>(traced.admission_passes),
       "count"},
      {"sched.peak_active", static_cast<double>(traced.peak_active), "count"},
      {"sched.queue_wait_s", queue_wait, "s"},
      {"core.unattributed_s", unattributed, "s"},
      {"core.traced_wall_s", traced_wall, "s"},
      {"trace.overhead_s", overhead_s, "s"},
  };

  // Layer shares of the traced wall time, and the stated predictions.
  std::ostringstream shares;
  shares << "{";
  bool first = true;
  for (const auto& [layer, seconds] : layer_s) {
    shares << (first ? "" : ", ") << Quote(layer) << ": "
           << Num(Ratio(seconds, traced_wall));
    first = false;
  }
  shares << ", \"core.unattributed\": " << Num(Ratio(unattributed, traced_wall))
         << "}";
  outcome.details.emplace_back("layer_shares", shares.str());
  auto share = [&](const char* layer) {
    return Ratio(layer_s[layer], traced_wall);
  };
  std::string prediction;
  bool holds = false;
  if (w.name == "cross_device_wide") {
    prediction = "accumulate + decode + encode exceed half the traced wall "
                 "time; persist is zero";
    holds = share("ml.accumulate") + share("cloud.decode") +
                    share("ml.encode") >
                0.5 &&
            persist_total == 0.0;
  } else if (w.name == "silo_dense_durable") {
    prediction = "train exceeds half the traced wall time; persist is non-zero";
    holds = share("ml.train") > 0.5 && persist_total > 0.0;
  } else {
    prediction = "flow dispatch + event loop exceed half the traced wall "
                 "time; persist is zero";
    holds = share("flow.dispatch") + share("sim.loop") > 0.5 &&
            persist_total == 0.0;
  }
  outcome.details.emplace_back(
      "prediction", "{\"text\": " + Quote(prediction) + ", \"holds\": " +
                        (holds ? "true" : "false") + "}");
  std::ostringstream fidelity;
  fidelity << "{\"faithful\": " << (faithful ? "true" : "false")
           << ", \"mismatch\": " << Quote(mismatch)
           << ", \"replayed_runs\": " << replays.size()
           << ", \"engine_digest_traced\": " << Quote(Hex(traced.digest))
           << ", \"engine_digest_untraced\": " << Quote(Hex(untraced.digest))
           << ", \"engine_run_traced_mean_s\": " << Num(traced_sum_s / kPairs)
           << ", \"engine_run_untraced_mean_s\": "
           << Num(untraced_sum_s / kPairs)
           << ", \"spans\": " << tracer.spans().size() << "}";
  outcome.details.emplace_back("replay", fidelity.str());
  core::TaskSlaReport faults;
  for (const core::TaskSlaReport& sla : traced.slas) {
    faults.rounds += sla.rounds;
    faults.rounds_degraded += sla.rounds_degraded;
    faults.rounds_extended += sla.rounds_extended;
    faults.rounds_aborted += sla.rounds_aborted;
    faults.deadline_drops += sla.deadline_drops;
    faults.skipped_unavailable += sla.skipped_unavailable;
    faults.messages_dropped += sla.messages_dropped;
  }
  std::ostringstream fault_json;
  fault_json << "{\"rounds\": " << faults.rounds
             << ", \"rounds_degraded\": " << faults.rounds_degraded
             << ", \"rounds_extended\": " << faults.rounds_extended
             << ", \"rounds_aborted\": " << faults.rounds_aborted
             << ", \"deadline_drops\": " << faults.deadline_drops
             << ", \"skipped_unavailable\": " << faults.skipped_unavailable
             << ", \"messages_dropped\": " << faults.messages_dropped << "}";
  outcome.details.emplace_back("fault_plane", fault_json.str());

  std::printf("digest %s (traced and untraced engine runs %s)\n",
              Hex(traced.digest).c_str(), digests_agree ? "agree" : "DIFFER");
  std::printf("replay %s; traced wall %.3f s over %zu spans\n",
              faithful ? "matches the engine's rounds" : "DOES NOT match",
              traced_wall, tracer.spans().size());
  std::printf("%-20s %10s %7s\n", "layer", "self_s", "share");
  for (const auto& [layer, seconds] : layer_s) {
    std::printf("%-20s %10.4f %6.1f%%\n", layer.c_str(), seconds,
                100.0 * Ratio(seconds, traced_wall));
  }
  std::printf("%-20s %10.4f %6.1f%%\n", "core.unattributed", unattributed,
              100.0 * Ratio(unattributed, traced_wall));
  std::printf("prediction (%s): %s\n", prediction.c_str(),
              holds ? "holds" : "does NOT hold");

  const std::string trace_path =
      options.out_dir + "/trace-" + w.name + ".tsv";
  if (!tracer.WriteTsv(trace_path)) {
    std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
  }
  return outcome;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: simdc_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--commit <id>]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string state_dir = options.out_dir + "/state";
  Workload workload;
  if (!MakeWorkload(options.workload, options.seed, state_dir, workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (!BuildIsRelease()) {
    std::fprintf(stderr, "warning: build type %s is not Release\n",
                 SIMDC_PERFBENCH_BUILD_TYPE);
  }
  // Degraded rounds and reclaimed stragglers are simulated behaviour; keep
  // the engine's per-event warnings out of the timed loop.
  Logger::Instance().set_level(LogLevel::kError);

  Outcome outcome = options.trace == 0 ? EndToEnd(workload, options)
                                       : Traced(workload, options);
  std::filesystem::remove_all(state_dir, ec);

  std::ostringstream artifact;
  artifact << "{\"provenance\": " << ProvenanceJson(options)
           << ", \"correct\": " << (outcome.correct ? "true" : "false")
           << ", \"attempted\": " << outcome.attempted
           << ", \"failed\": " << outcome.failed
           << ", \"metrics\": " << MetricsJson(outcome.metrics);
  for (const auto& [key, json] : outcome.details) {
    artifact << ", " << Quote(key) << ": " << json;
  }
  artifact << "}\n";
  const std::string artifact_path = options.out_dir + "/perfbench-" +
                                    workload.name + "-trace" +
                                    std::to_string(options.trace) + ".json";
  if (std::FILE* out = std::fopen(artifact_path.c_str(), "w")) {
    std::fputs(artifact.str().c_str(), out);
    std::fclose(out);
  }
  std::printf("provenance %s\n", ProvenanceJson(options).c_str());
  for (const Metric& metric : outcome.metrics) {
    std::printf("%-26s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false", outcome.attempted,
              outcome.failed, MetricsJson(outcome.metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace simdc::perfbench

int main(int argc, char** argv) {
  try {
    return simdc::perfbench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "simdc_perfbench: %s\n", error.what());
    return 1;
  }
}

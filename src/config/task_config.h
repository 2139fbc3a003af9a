// Textual task specifications.
//
// In the paper, users configure "device simulation targets, cloud service
// parameters, resource requirements, and operator flow configurations via
// the front-end graphical user interface" (§III-C). Headless deployments
// need the same information as data; this module parses a small INI-style
// format into TaskSpec / DispatchStrategy / FL experiment settings, with
// strict validation so malformed specs are rejected with precise errors.
//
// Example:
//
//   [task]
//   name = nightly-ctr
//   priority = 5
//   rounds = 10
//
//   [devices.high]
//   count = 500
//   benchmarking = 5
//   logical_bundles = 100
//   phones = 12
//
//   [devices.low]
//   count = 500
//   benchmarking = 5
//   logical_bundles = 100
//   phones = 8
//
//   [traffic]
//   strategy = interval
//   curve = normal
//   sigma = 1.0
//   interval_s = 60
//   failure_probability = 0.05
//
//   [aggregation]
//   trigger = scheduled
//   period_s = 120
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "cloud/aggregation.h"
#include "common/error.h"
#include "device/behavior.h"
#include "flow/decoded_update.h"
#include "flow/device_flow.h"
#include "flow/strategy.h"
#include "ml/lr_model.h"
#include "persist/durable_store.h"
#include "sched/task.h"

namespace simdc::config {

/// Parsed INI document: section → (key → value). Later duplicate keys win.
using IniDocument = std::map<std::string, std::map<std::string, std::string>>;

/// Parses INI text: `[section]` headers, `key = value` pairs, `#`/`;`
/// comments, blank lines. Keys outside a section go to section "".
Result<IniDocument> ParseIni(std::string_view text);

/// Typed accessors (NotFound / ParseError on failure).
Result<std::string> GetString(const IniDocument& doc,
                              const std::string& section,
                              const std::string& key);
Result<std::int64_t> GetInt(const IniDocument& doc, const std::string& section,
                            const std::string& key);
Result<double> GetDouble(const IniDocument& doc, const std::string& section,
                         const std::string& key);
/// Comma-separated list of non-negative integers.
Result<std::vector<std::size_t>> GetSizeList(const IniDocument& doc,
                                             const std::string& section,
                                             const std::string& key);

/// Builds a TaskSpec from the [task] and [devices.*] sections.
/// The task id is left unassigned (the platform assigns it on submit).
Result<sched::TaskSpec> LoadTaskSpec(const IniDocument& doc);

/// Builds a DeviceFlow strategy from the [traffic] section.
/// strategy = realtime | points | interval
///   realtime: thresholds = 20,100,50   failure_probability = 0.1
///   points:   at_s = 10,25,40          counts = 200,600,400
///             failure_probability, random_discard (optional)
///   interval: curve = normal|right_tail|sin|cos|pow2|pow10|diurnal
///             sigma (normal/right_tail), interval_s, failure_probability
Result<flow::DispatchStrategy> LoadStrategy(const IniDocument& doc);

/// Builds aggregation settings from the [aggregation] section.
/// trigger = scheduled | sample_threshold; period_s / threshold;
/// reject_stale = 0|1.
Result<cloud::AggregationConfig> LoadAggregation(const IniDocument& doc,
                                                 std::uint32_t model_dim);

/// Ceiling on [execution] parallelism: a spec may not ask for more worker
/// threads than this (thread creation past the OS limit would abort).
inline constexpr std::size_t kMaxParallelism = 256;

/// Execution knobs from the optional [execution] section.
struct ExecutionConfig {
  /// Worker threads for CPU-bound local training: 0 = inherit the
  /// platform's pool, 1 = sequential, N > 1 = exactly N workers
  /// (FlExperimentConfig::parallelism semantics; results are identical
  /// at every width).
  std::size_t parallelism = 0;
  /// Fleet shards: 0 or 1 = single fleet, N > 1 = partition the device
  /// population into N contiguous fleets with per-shard dispatchers
  /// merged deterministically (FlExperimentConfig::shards semantics;
  /// clamped to the device count by the engine).
  std::size_t shards = 0;
  /// Payload plane: decoded (default — dispatch ticks fetch + decode
  /// blobs in parallel, the serial aggregator only accumulates) or legacy
  /// (decode inside the serial delivery handler; the equivalence-test
  /// reference). Bit-identical results either way
  /// (FlExperimentConfig::decode_plane semantics).
  flow::DecodePlane decode_plane = flow::DecodePlane::kDecoded;
  /// Wire precision for device→cloud update payloads: fp32 (default —
  /// bit-identical to the historical format), fp16 (~2× smaller), or int8
  /// (per-tensor scale, ~4× smaller). Quantized payloads trade a bounded
  /// amount of update precision for memory/bandwidth at million-device
  /// scale (FlExperimentConfig::payload_codec semantics).
  ml::PayloadCodec payload_codec = ml::PayloadCodec::kFp32;
  /// When set, the engine deletes each round's update payload blobs at the
  /// round boundary and recycles the BlobStore arena, bounding steady-state
  /// blob memory to one round's working set. Off by default to preserve
  /// historical post-run storage accounting.
  bool reclaim_payload_blobs = false;
  /// Durability plane: off (default — in-memory store, bit-identical to
  /// the historical engine), log (append-only blob log, store contents
  /// survive a crash), or log+checkpoint (plus round-boundary aggregator
  /// checkpoints; a crashed run resumes bit-identically). See
  /// persist::DurableStore.
  persist::DurabilityMode durability = persist::DurabilityMode::kOff;
  /// Directory for the blob log and checkpoints; required when durability
  /// is not off.
  std::string durability_dir;
  /// Graceful round degradation (FlExperimentConfig semantics): a round
  /// past round_deadline_s commits if at least round_quorum updates
  /// arrived, else extends up to max_round_extensions times, else aborts.
  /// Engages only when both round_quorum and round_deadline_s are set.
  std::size_t round_quorum = 0;
  SimDuration round_deadline = 0;
  SimDuration round_extension = 0;
  std::size_t max_round_extensions = 1;
};

/// Reads [execution] (parallelism = N, shards = N,
/// decode_plane = decoded|legacy, payload_codec = fp32|fp16|int8,
/// reclaim_payload_blobs = 0|1, durability = off|log|log+checkpoint,
/// durability_dir = path, round_quorum = N, round_deadline_s = S,
/// round_extension_s = S, max_round_extensions = N). A missing section or
/// key yields the defaults; malformed or negative values, parallelism
/// above kMaxParallelism, and the removed aggregate-plane selector key
/// are rejected with InvalidArgument.
Result<ExecutionConfig> LoadExecution(const IniDocument& doc);

/// Reads the optional [behavior] section into a device::BehaviorConfig
/// (enabled = 0|1, seed, mean_availability, diurnal_amplitude,
/// diurnal_period_s, diurnal_phase, churn_rate, churn_horizon_s,
/// rejoin_fraction, churn_downtime_s, min_battery, battery_period_s,
/// link_base_failure, link_diurnal_swing). A missing section yields the
/// disabled default; probabilities must lie in [0, 1].
Result<device::BehaviorConfig> LoadBehavior(const IniDocument& doc);

/// Reads the optional [link] section into a flow::LinkPolicy
/// (transient_failure_probability, max_attempts, backoff_initial_s,
/// backoff_multiplier, backoff_max_s, upload_deadline_s). A missing
/// section yields the inactive default.
Result<flow::LinkPolicy> LoadLinkPolicy(const IniDocument& doc);

/// One-call convenience: parse text and build the TaskSpec.
Result<sched::TaskSpec> ParseTaskSpec(std::string_view text);

/// Everything one tenant's spec pins, loaded per spec — the multi-tenant
/// plane gives EACH task its own copy of these (its own Dispatcher link
/// policy, its own AggregationService quorum/deadline knobs), where the
/// single-task workflow historically applied one global set.
struct TenantSpecConfig {
  sched::TaskSpec spec;
  /// From [traffic]; pass-through default when the section is absent
  /// (has_strategy distinguishes "absent" from an explicit realtime{1}).
  flow::DispatchStrategy strategy = flow::RealtimeAccumulated{{1}, 0.0};
  bool has_strategy = false;
  /// From [link] / [behavior] / [execution]; inactive defaults when absent.
  flow::LinkPolicy link;
  device::BehaviorConfig behavior;
  ExecutionConfig execution;
  /// From [aggregation]; scheduled/60s default when absent.
  cloud::AggregationTrigger trigger = cloud::AggregationTrigger::kScheduled;
  std::size_t sample_threshold = 1000;
  SimDuration schedule_period = Seconds(60.0);
  bool reject_stale = false;
};

/// Loads one tenant's complete per-task configuration from a spec
/// document: [task]/[devices.*] (required), plus [traffic], [link],
/// [behavior], [execution] and [aggregation] (each optional, defaulting
/// as documented on TenantSpecConfig). Malformed present sections are
/// errors, never silently defaulted.
Result<TenantSpecConfig> LoadTenantSpec(const IniDocument& doc);

}  // namespace simdc::config

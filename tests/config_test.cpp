// Unit tests for the textual task-spec configuration (the headless
// substitute for the paper's GUI front-end).
#include <gtest/gtest.h>

#include "config/task_config.h"
#include "core/multi_tenant.h"
#include "sched/scheduler.h"

namespace simdc::config {
namespace {

constexpr const char* kFullSpec = R"(
# nightly CTR training task
[task]
name = nightly-ctr
priority = 5
rounds = 10

[devices.high]
count = 500
benchmarking = 5
logical_bundles = 100
phones = 12

[devices.low]
count = 500
benchmarking = 5
logical_bundles = 100
phones = 8

[traffic]
strategy = interval
curve = normal
sigma = 1.0
interval_s = 60
failure_probability = 0.05

[aggregation]
trigger = scheduled
period_s = 120
reject_stale = 1
)";

// ---------- INI parsing ----------

TEST(IniTest, ParsesSectionsAndKeys) {
  auto doc = ParseIni("[a]\nx = 1\ny = two words\n[b]\nz=3\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*GetString(*doc, "a", "x"), "1");
  EXPECT_EQ(*GetString(*doc, "a", "y"), "two words");
  EXPECT_EQ(*GetInt(*doc, "b", "z"), 3);
}

TEST(IniTest, CommentsAndBlankLines) {
  auto doc = ParseIni("# leading comment\n[s]\n; comment\nk = v  # trailing\n\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*GetString(*doc, "s", "k"), "v");
}

TEST(IniTest, LaterDuplicateWins) {
  auto doc = ParseIni("[s]\nk = 1\nk = 2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*GetInt(*doc, "s", "k"), 2);
}

TEST(IniTest, KeysOutsideSectionGoToRoot) {
  auto doc = ParseIni("k = root\n[s]\nk = nested\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*GetString(*doc, "", "k"), "root");
}

TEST(IniTest, MalformedInputsRejectedWithLineNumbers) {
  auto bad_header = ParseIni("[unclosed\nk = v\n");
  ASSERT_FALSE(bad_header.ok());
  EXPECT_NE(bad_header.error().message().find("line 1"), std::string::npos);
  EXPECT_FALSE(ParseIni("[]\n").ok());
  auto no_equals = ParseIni("[s]\njust words\n");
  ASSERT_FALSE(no_equals.ok());
  EXPECT_NE(no_equals.error().message().find("line 2"), std::string::npos);
  EXPECT_FALSE(ParseIni("[s]\n= value\n").ok());
}

TEST(IniTest, TypedAccessorErrors) {
  auto doc = ParseIni("[s]\nnum = abc\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(GetString(*doc, "missing", "k").error().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(GetString(*doc, "s", "missing").error().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(GetInt(*doc, "s", "num").error().code(), ErrorCode::kParseError);
  EXPECT_EQ(GetDouble(*doc, "s", "num").error().code(),
            ErrorCode::kParseError);
}

TEST(IniTest, SizeLists) {
  auto doc = ParseIni("[s]\nlist = 20, 100, 50\nbad = 1,x\nneg = -2\n");
  ASSERT_TRUE(doc.ok());
  auto list = GetSizeList(*doc, "s", "list");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list, (std::vector<std::size_t>{20, 100, 50}));
  EXPECT_FALSE(GetSizeList(*doc, "s", "bad").ok());
  EXPECT_FALSE(GetSizeList(*doc, "s", "neg").ok());
}

// ---------- TaskSpec loading ----------

TEST(TaskSpecTest, LoadsFullSpec) {
  auto task = ParseTaskSpec(kFullSpec);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->name, "nightly-ctr");
  EXPECT_EQ(task->priority, 5);
  EXPECT_EQ(task->rounds, 10u);
  ASSERT_EQ(task->requirements.size(), 2u);
  const auto& high =
      task->requirements[0].grade == device::DeviceGrade::kHigh
          ? task->requirements[0]
          : task->requirements[1];
  EXPECT_EQ(high.num_devices, 500u);
  EXPECT_EQ(high.benchmarking_phones, 5u);
  EXPECT_EQ(high.logical_bundles, 100u);
  EXPECT_EQ(high.phones, 12u);
}

TEST(TaskSpecTest, DefaultsApplyWhenOmitted) {
  auto task = ParseTaskSpec("[devices.high]\ncount = 10\n");
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->rounds, 1u);
  EXPECT_EQ(task->priority, 0);
  EXPECT_EQ(task->requirements[0].benchmarking_phones, 0u);
}

TEST(TaskSpecTest, RejectsInvalidSpecs) {
  EXPECT_FALSE(ParseTaskSpec("[task]\nname = empty\n").ok());  // no devices
  EXPECT_FALSE(ParseTaskSpec("[devices.medium]\ncount = 5\n").ok());
  EXPECT_FALSE(ParseTaskSpec("[devices.high]\ncount = 5\nbenchmarking = 9\n").ok());
  EXPECT_FALSE(
      ParseTaskSpec("[task]\nrounds = 0\n[devices.high]\ncount = 5\n").ok());
  EXPECT_FALSE(ParseTaskSpec("[devices.high]\nphones = 3\n").ok());  // no count
}

// ---------- Strategy loading ----------

TEST(StrategyTest, Realtime) {
  auto doc = ParseIni(
      "[traffic]\nstrategy = realtime\nthresholds = 20,100,50\n"
      "failure_probability = 0.1\n");
  ASSERT_TRUE(doc.ok());
  auto strategy = LoadStrategy(*doc);
  ASSERT_TRUE(strategy.ok());
  const auto* realtime = std::get_if<flow::RealtimeAccumulated>(&*strategy);
  ASSERT_NE(realtime, nullptr);
  EXPECT_EQ(realtime->thresholds, (std::vector<std::size_t>{20, 100, 50}));
  EXPECT_DOUBLE_EQ(realtime->failure_probability, 0.1);
}

TEST(StrategyTest, Points) {
  auto doc = ParseIni(
      "[traffic]\nstrategy = points\nat_s = 10,25,40\ncounts = 200,600,400\n"
      "random_discard = 3\n");
  ASSERT_TRUE(doc.ok());
  auto strategy = LoadStrategy(*doc);
  ASSERT_TRUE(strategy.ok());
  const auto* points = std::get_if<flow::TimePointDispatch>(&*strategy);
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->points.size(), 3u);
  EXPECT_EQ(points->points[1].when, Seconds(25.0));
  EXPECT_EQ(points->points[1].count, 600u);
  EXPECT_EQ(points->points[2].random_discard, 3u);
}

TEST(StrategyTest, IntervalCurves) {
  for (const char* curve :
       {"normal", "right_tail", "sin", "cos", "pow2", "pow10", "diurnal"}) {
    auto doc = ParseIni("[traffic]\nstrategy = interval\ncurve = " +
                        std::string(curve) + "\ninterval_s = 30\n");
    ASSERT_TRUE(doc.ok());
    auto strategy = LoadStrategy(*doc);
    ASSERT_TRUE(strategy.ok()) << curve;
    const auto* interval = std::get_if<flow::TimeIntervalDispatch>(&*strategy);
    ASSERT_NE(interval, nullptr) << curve;
    EXPECT_EQ(interval->interval, Seconds(30.0)) << curve;
    EXPECT_GE(interval->rate(interval->rate.domain_lo), 0.0);
  }
}

TEST(StrategyTest, RejectsInvalid) {
  auto bad = [](const std::string& body) {
    auto doc = ParseIni(body);
    EXPECT_TRUE(doc.ok());
    return !LoadStrategy(*doc).ok();
  };
  EXPECT_TRUE(bad("[traffic]\nstrategy = teleport\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = realtime\nthresholds = 0\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = realtime\nfailure_probability = 1.5\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = points\nat_s = 1,2\ncounts = 5\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = interval\ncurve = wiggle\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = interval\ncurve = normal\nsigma = -1\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = interval\ncurve = normal\ninterval_s = 0\n"));
  EXPECT_TRUE(bad("[missing]\nx = 1\n"));
}

// ---------- Aggregation loading ----------

TEST(AggregationConfigTest, Scheduled) {
  auto doc = ParseIni(
      "[aggregation]\ntrigger = scheduled\nperiod_s = 120\nreject_stale = 1\n");
  ASSERT_TRUE(doc.ok());
  auto config = LoadAggregation(*doc, 4096);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->trigger, cloud::AggregationTrigger::kScheduled);
  EXPECT_EQ(config->schedule_period, Seconds(120.0));
  EXPECT_TRUE(config->reject_stale);
  EXPECT_EQ(config->model_dim, 4096u);
}

TEST(AggregationConfigTest, SampleThreshold) {
  auto doc = ParseIni(
      "[aggregation]\ntrigger = sample_threshold\nthreshold = 5000\n");
  ASSERT_TRUE(doc.ok());
  auto config = LoadAggregation(*doc, 16);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->trigger, cloud::AggregationTrigger::kSampleThreshold);
  EXPECT_EQ(config->sample_threshold, 5000u);
  EXPECT_FALSE(config->reject_stale);
}

TEST(AggregationConfigTest, RejectsInvalid) {
  auto check = [](const std::string& body) {
    auto doc = ParseIni(body);
    EXPECT_TRUE(doc.ok());
    return !LoadAggregation(*doc, 16).ok();
  };
  EXPECT_TRUE(check("[aggregation]\ntrigger = magic\n"));
  EXPECT_TRUE(check("[aggregation]\ntrigger = scheduled\nperiod_s = 0\n"));
  EXPECT_TRUE(check("[aggregation]\ntrigger = scheduled\n"));  // no period
  EXPECT_TRUE(check("[aggregation]\ntrigger = sample_threshold\nthreshold = 0\n"));
}

// ---------- Execution loading ----------

TEST(ExecutionConfigTest, ParsesParallelism) {
  auto doc = ParseIni("[execution]\nparallelism = 4\n");
  ASSERT_TRUE(doc.ok());
  auto config = LoadExecution(*doc);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->parallelism, 4u);
  EXPECT_EQ(config->shards, 0u);  // single fleet unless asked
}

TEST(ExecutionConfigTest, ParsesShards) {
  auto doc = ParseIni("[execution]\nparallelism = 2\nshards = 8\n");
  ASSERT_TRUE(doc.ok());
  auto config = LoadExecution(*doc);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->parallelism, 2u);
  EXPECT_EQ(config->shards, 8u);

  auto alone = ParseIni("[execution]\nshards = 4\n");
  ASSERT_TRUE(alone.ok());
  auto alone_config = LoadExecution(*alone);
  ASSERT_TRUE(alone_config.ok());
  EXPECT_EQ(alone_config->parallelism, 0u);
  EXPECT_EQ(alone_config->shards, 4u);
}

TEST(ExecutionConfigTest, RejectsInvalidShards) {
  auto check = [](const std::string& body) {
    auto doc = ParseIni(body);
    EXPECT_TRUE(doc.ok());
    return !LoadExecution(*doc).ok();
  };
  EXPECT_TRUE(check("[execution]\nshards = -1\n"));
  EXPECT_TRUE(check("[execution]\nshards = many\n"));
}

TEST(ExecutionConfigTest, MissingSectionOrKeyYieldsDefaults) {
  auto empty = ParseIni("[task]\nname = x\n");
  ASSERT_TRUE(empty.ok());
  auto config = LoadExecution(*empty);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->parallelism, 0u);  // inherit the platform pool

  auto bare = ParseIni("[execution]\n");
  ASSERT_TRUE(bare.ok());
  auto bare_config = LoadExecution(*bare);
  ASSERT_TRUE(bare_config.ok());
  EXPECT_EQ(bare_config->parallelism, 0u);
  EXPECT_EQ(bare_config->shards, 0u);
}

TEST(ExecutionConfigTest, RejectsInvalidParallelism) {
  auto check = [](const std::string& body) {
    auto doc = ParseIni(body);
    EXPECT_TRUE(doc.ok());
    return !LoadExecution(*doc).ok();
  };
  EXPECT_TRUE(check("[execution]\nparallelism = -2\n"));
  EXPECT_TRUE(check("[execution]\nparallelism = lots\n"));
}

TEST(ExecutionConfigTest, ParsesDecodePlane) {
  auto decoded = ParseIni("[execution]\ndecode_plane = decoded\n");
  ASSERT_TRUE(decoded.ok());
  auto decoded_config = LoadExecution(*decoded);
  ASSERT_TRUE(decoded_config.ok());
  EXPECT_EQ(decoded_config->decode_plane, flow::DecodePlane::kDecoded);

  auto legacy = ParseIni("[execution]\nshards = 2\ndecode_plane = legacy\n");
  ASSERT_TRUE(legacy.ok());
  auto legacy_config = LoadExecution(*legacy);
  ASSERT_TRUE(legacy_config.ok());
  EXPECT_EQ(legacy_config->decode_plane, flow::DecodePlane::kLegacy);
  EXPECT_EQ(legacy_config->shards, 2u);

  // Missing key keeps the decoded default; junk is rejected loudly.
  auto missing = ParseIni("[execution]\nparallelism = 2\n");
  ASSERT_TRUE(missing.ok());
  auto missing_config = LoadExecution(*missing);
  ASSERT_TRUE(missing_config.ok());
  EXPECT_EQ(missing_config->decode_plane, flow::DecodePlane::kDecoded);

  auto junk = ParseIni("[execution]\ndecode_plane = sideways\n");
  ASSERT_TRUE(junk.ok());
  EXPECT_FALSE(LoadExecution(*junk).ok());
}

TEST(ExecutionConfigTest, RejectsRemovedAggregatePlaneKey) {
  // The INI loader ignores unknown keys, so the removed plane selector is
  // rejected by name: any value, even the one that used to be the default.
  for (const char* value : {"partial_sum", "legacy"}) {
    auto doc =
        ParseIni(std::string("[execution]\naggregate_plane = ") + value + "\n");
    ASSERT_TRUE(doc.ok());
    auto config = LoadExecution(*doc);
    ASSERT_FALSE(config.ok()) << value;
    EXPECT_EQ(config.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(config.error().ToString().find("aggregate_plane"),
              std::string::npos);
  }
}

TEST(ExecutionConfigTest, RejectsParallelismAboveCeiling) {
  // Parse only: a value this large must never reach a thread pool.
  auto doc = ParseIni("[execution]\nparallelism = 100000\n");
  ASSERT_TRUE(doc.ok());
  auto config = LoadExecution(*doc);
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.error().code(), ErrorCode::kInvalidArgument);

  auto at_ceiling = ParseIni("[execution]\nparallelism = " +
                             std::to_string(kMaxParallelism) + "\n");
  ASSERT_TRUE(at_ceiling.ok());
  auto ceiling_config = LoadExecution(*at_ceiling);
  ASSERT_TRUE(ceiling_config.ok());
  EXPECT_EQ(ceiling_config->parallelism, kMaxParallelism);
}

TEST(ExecutionConfigTest, ParsesPayloadCodec) {
  auto fp16 = ParseIni("[execution]\npayload_codec = fp16\n");
  ASSERT_TRUE(fp16.ok());
  auto fp16_config = LoadExecution(*fp16);
  ASSERT_TRUE(fp16_config.ok());
  EXPECT_EQ(fp16_config->payload_codec, ml::PayloadCodec::kFp16);

  auto int8 = ParseIni("[execution]\npayload_codec = INT8\n");  // case-folded
  ASSERT_TRUE(int8.ok());
  auto int8_config = LoadExecution(*int8);
  ASSERT_TRUE(int8_config.ok());
  EXPECT_EQ(int8_config->payload_codec, ml::PayloadCodec::kInt8);

  // Missing key keeps the bit-compatible fp32 default; junk is rejected.
  auto missing = ParseIni("[execution]\nparallelism = 2\n");
  ASSERT_TRUE(missing.ok());
  auto missing_config = LoadExecution(*missing);
  ASSERT_TRUE(missing_config.ok());
  EXPECT_EQ(missing_config->payload_codec, ml::PayloadCodec::kFp32);

  auto junk = ParseIni("[execution]\npayload_codec = fp8\n");
  ASSERT_TRUE(junk.ok());
  EXPECT_FALSE(LoadExecution(*junk).ok());
}

TEST(ExecutionConfigTest, ParsesReclaimPayloadBlobs) {
  auto on = ParseIni("[execution]\nreclaim_payload_blobs = 1\n");
  ASSERT_TRUE(on.ok());
  auto on_config = LoadExecution(*on);
  ASSERT_TRUE(on_config.ok());
  EXPECT_TRUE(on_config->reclaim_payload_blobs);

  auto off = ParseIni("[execution]\nreclaim_payload_blobs = 0\n");
  ASSERT_TRUE(off.ok());
  auto off_config = LoadExecution(*off);
  ASSERT_TRUE(off_config.ok());
  EXPECT_FALSE(off_config->reclaim_payload_blobs);

  auto missing = ParseIni("[execution]\n");
  ASSERT_TRUE(missing.ok());
  auto missing_config = LoadExecution(*missing);
  ASSERT_TRUE(missing_config.ok());
  EXPECT_FALSE(missing_config->reclaim_payload_blobs);  // off by default
}

TEST(ExecutionConfigTest, ParsesDurability) {
  auto log = ParseIni("[execution]\ndurability = log\ndurability_dir = /tmp/d\n");
  ASSERT_TRUE(log.ok());
  auto log_config = LoadExecution(*log);
  ASSERT_TRUE(log_config.ok());
  EXPECT_EQ(log_config->durability, persist::DurabilityMode::kLog);
  EXPECT_EQ(log_config->durability_dir, "/tmp/d");

  auto ckpt = ParseIni(
      "[execution]\ndurability = LOG+CHECKPOINT\ndurability_dir = state\n");
  ASSERT_TRUE(ckpt.ok());  // case-folded like the other enum keys
  auto ckpt_config = LoadExecution(*ckpt);
  ASSERT_TRUE(ckpt_config.ok());
  EXPECT_EQ(ckpt_config->durability, persist::DurabilityMode::kLogCheckpoint);

  auto off = ParseIni("[execution]\ndurability = off\n");
  ASSERT_TRUE(off.ok());
  auto off_config = LoadExecution(*off);
  ASSERT_TRUE(off_config.ok());  // off needs no directory
  EXPECT_EQ(off_config->durability, persist::DurabilityMode::kOff);

  // Missing key keeps the zero-overhead default.
  auto missing = ParseIni("[execution]\nparallelism = 2\n");
  ASSERT_TRUE(missing.ok());
  auto missing_config = LoadExecution(*missing);
  ASSERT_TRUE(missing_config.ok());
  EXPECT_EQ(missing_config->durability, persist::DurabilityMode::kOff);
  EXPECT_TRUE(missing_config->durability_dir.empty());
}

TEST(ExecutionConfigTest, RejectsBadDurability) {
  // Junk mode names are rejected loudly.
  auto junk = ParseIni("[execution]\ndurability = sometimes\n");
  ASSERT_TRUE(junk.ok());
  EXPECT_FALSE(LoadExecution(*junk).ok());

  // Durable modes without a directory have nowhere to write — reject at
  // load time rather than failing mid-run.
  auto no_dir = ParseIni("[execution]\ndurability = log\n");
  ASSERT_TRUE(no_dir.ok());
  auto no_dir_config = LoadExecution(*no_dir);
  ASSERT_FALSE(no_dir_config.ok());
  EXPECT_EQ(no_dir_config.error().code(), ErrorCode::kInvalidArgument);

  auto ckpt_no_dir = ParseIni("[execution]\ndurability = log+checkpoint\n");
  ASSERT_TRUE(ckpt_no_dir.ok());
  EXPECT_FALSE(LoadExecution(*ckpt_no_dir).ok());
}

// ---------- round trip into the platform types ----------

TEST(RoundTripTest, FullSpecProducesSchedulableTask) {
  auto task = ParseTaskSpec(kFullSpec);
  ASSERT_TRUE(task.ok());
  const auto request = sched::RequestFor(*task);
  EXPECT_EQ(request.logical_bundles, 200u);
  EXPECT_EQ(request.phones[0], 17u);  // 12 + 5 benchmarking
  EXPECT_EQ(request.phones[1], 13u);
}

// ---------- per-tenant specs (multi-tenant plane) ----------

constexpr const char* kLossyTenantSpec = R"(
[task]
name = lossy-tenant
priority = 7
rounds = 3

[devices.high]
count = 50
logical_bundles = 40
phones = 4

[link]
transient_failure_probability = 0.2
max_attempts = 4
backoff_initial_s = 2
upload_deadline_s = 120

[execution]
shards = 2
round_quorum = 25
round_deadline_s = 90
round_extension_s = 30
)";

constexpr const char* kCleanTenantSpec = R"(
[task]
name = clean-tenant
priority = 2
rounds = 1

[devices.high]
count = 20
logical_bundles = 16
phones = 2
)";

TEST(TenantSpecTest, TwoSpecsYieldTwoDistinctPolicies) {
  // The historical failure mode: [link] and round_quorum parsed per spec
  // but only one global set was applied. LoadTenantSpec must keep each
  // spec's policies separate — one lossy/quorum'd tenant, one default.
  auto lossy_doc = ParseIni(kLossyTenantSpec);
  auto clean_doc = ParseIni(kCleanTenantSpec);
  ASSERT_TRUE(lossy_doc.ok());
  ASSERT_TRUE(clean_doc.ok());
  auto lossy = LoadTenantSpec(*lossy_doc);
  auto clean = LoadTenantSpec(*clean_doc);
  ASSERT_TRUE(lossy.ok());
  ASSERT_TRUE(clean.ok());

  EXPECT_EQ(lossy->spec.name, "lossy-tenant");
  EXPECT_DOUBLE_EQ(lossy->link.transient_failure_probability, 0.2);
  EXPECT_EQ(lossy->link.max_attempts, 4u);
  EXPECT_EQ(lossy->link.upload_deadline, Seconds(120.0));
  EXPECT_TRUE(lossy->link.active());
  EXPECT_EQ(lossy->execution.round_quorum, 25u);
  EXPECT_EQ(lossy->execution.round_deadline, Seconds(90.0));
  EXPECT_EQ(lossy->execution.shards, 2u);

  EXPECT_EQ(clean->spec.name, "clean-tenant");
  EXPECT_DOUBLE_EQ(clean->link.transient_failure_probability, 0.0);
  EXPECT_EQ(clean->link.max_attempts, 1u);
  EXPECT_FALSE(clean->link.active());
  EXPECT_EQ(clean->execution.round_quorum, 0u);
  EXPECT_EQ(clean->execution.shards, 0u);

  // And the mapping into per-task experiments preserves the split.
  const auto lossy_fl = core::ExperimentFromTenantSpec(*lossy, 1);
  const auto clean_fl = core::ExperimentFromTenantSpec(*clean, 2);
  EXPECT_DOUBLE_EQ(lossy_fl.link.transient_failure_probability, 0.2);
  EXPECT_EQ(lossy_fl.round_quorum, 25u);
  EXPECT_EQ(lossy_fl.shards, 2u);
  EXPECT_EQ(lossy_fl.rounds, 3u);
  EXPECT_DOUBLE_EQ(clean_fl.link.transient_failure_probability, 0.0);
  EXPECT_EQ(clean_fl.round_quorum, 0u);
  EXPECT_EQ(clean_fl.shards, 1u);  // 0 in the spec → single fleet
  EXPECT_EQ(clean_fl.rounds, 1u);
}

TEST(TenantSpecTest, StrategyPresenceIsTracked) {
  auto with_traffic = ParseIni(
      "[task]\nname = t\nrounds = 1\n"
      "[devices.high]\ncount = 10\nlogical_bundles = 8\nphones = 1\n"
      "[traffic]\nstrategy = realtime\nthresholds = 5\n");
  ASSERT_TRUE(with_traffic.ok());
  auto spec = LoadTenantSpec(*with_traffic);
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->has_strategy);

  auto without_traffic = ParseIni(
      "[task]\nname = t\nrounds = 1\n"
      "[devices.high]\ncount = 10\nlogical_bundles = 8\nphones = 1\n");
  ASSERT_TRUE(without_traffic.ok());
  auto defaulted = LoadTenantSpec(*without_traffic);
  ASSERT_TRUE(defaulted.ok());
  EXPECT_FALSE(defaulted->has_strategy);
}

TEST(TenantSpecTest, MalformedPresentSectionsAreErrors) {
  // A present-but-broken [link] section must fail loudly, never default.
  auto bad_link = ParseIni(
      "[task]\nname = t\nrounds = 1\n"
      "[devices.high]\ncount = 10\nlogical_bundles = 8\nphones = 1\n"
      "[link]\ntransient_failure_probability = 1.5\n");
  ASSERT_TRUE(bad_link.ok());
  EXPECT_FALSE(LoadTenantSpec(*bad_link).ok());

  // A tenant with no [devices.*] section has nothing to schedule.
  auto no_devices = ParseIni("[task]\nname = t\nrounds = 1\n");
  ASSERT_TRUE(no_devices.ok());
  EXPECT_FALSE(LoadTenantSpec(*no_devices).ok());
}

}  // namespace
}  // namespace simdc::config

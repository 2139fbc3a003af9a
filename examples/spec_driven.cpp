// Spec-driven submission: run SimDC tasks from textual task specs — the
// headless equivalent of the paper's GUI workflow (§III-C).
//
// Each spec is one TENANT. Its [traffic], [link], [behavior],
// [aggregation] and [execution] sections configure THAT task alone —
// two specs with different [link] retry policies or round_quorum knobs
// genuinely run two different policies side by side on the shared fleet
// (historically the first spec's [execution] block was applied
// globally). Admission, fair allocation and per-task SLA rows come from
// the multi-tenant plane (core::MultiTenantEngine).
//
// Usage:
//   ./build/examples/spec_driven                # runs two built-in specs
//   ./build/examples/spec_driven a.ini b.ini    # runs specs from disk
#include <cstdio>
#include <fstream>
#include <sstream>

#include "config/task_config.h"
#include "core/platform.h"
#include "core/status.h"
#include "data/synth_avazu.h"

namespace {

constexpr const char* kNightlySpec = R"(
# High-priority nightly training job across both grades: lossy links with
# retries, and a round quorum so stragglers cannot stall the round.
[task]
name = nightly-ctr
priority = 9
rounds = 2

[devices.high]
count = 80
benchmarking = 2
logical_bundles = 96
phones = 6

[devices.low]
count = 60
benchmarking = 2
logical_bundles = 64
phones = 4

[link]
transient_failure_probability = 0.1
max_attempts = 3
backoff_initial_s = 2
backoff_multiplier = 2.0
backoff_max_s = 30

[execution]
parallelism = 2
shards = 2
decode_plane = decoded
round_quorum = 20
round_deadline_s = 90
round_extension_s = 30
)";

constexpr const char* kSmokeSpec = R"(
# Low-priority functional smoke test; clean links, no quorum — queued
# until the nightly job frees enough logical bundles.
[task]
name = smoke-test
priority = 1
rounds = 1

[devices.high]
count = 200
logical_bundles = 160
phones = 8
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace simdc;

  std::vector<std::string> spec_texts;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      std::ifstream file(argv[i]);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      spec_texts.push_back(buffer.str());
    }
  } else {
    spec_texts = {kNightlySpec, kSmokeSpec};
  }

  // Load each spec into its own complete per-task configuration: the
  // sched-plane TaskSpec plus every policy section the tenant pins.
  std::vector<config::TenantSpecConfig> specs;
  for (const auto& text : spec_texts) {
    auto doc = config::ParseIni(text);
    if (!doc.ok()) {
      std::fprintf(stderr, "spec rejected: %s\n",
                   doc.error().ToString().c_str());
      return 1;
    }
    auto spec = config::LoadTenantSpec(*doc);
    if (!spec.ok()) {
      std::fprintf(stderr, "spec rejected: %s\n",
                   spec.error().ToString().c_str());
      return 1;
    }
    specs.push_back(std::move(*spec));
  }

  core::Platform platform;

  // One shared dataset; every tenant trains its own model over it with
  // its own RNG streams, so tenants stay bit-independent.
  data::SynthConfig data_config;
  data_config.num_devices = 60;
  data_config.hash_dim = 1u << 12;
  const auto dataset = data::GenerateSyntheticAvazu(data_config);

  std::vector<core::TenantTask> tenants;
  for (auto& spec : specs) {
    spec.spec.id = platform.NextTaskId();
    core::TenantTask tenant;
    tenant.fl = core::ExperimentFromTenantSpec(
        spec, /*seed=*/1000 + spec.spec.id.value());
    tenant.spec = spec.spec;
    tenant.dataset = &dataset;
    std::printf(
        "submitting '%s' as %s (priority %d, %zu devices) — link retries "
        "x%zu @ p=%.2f, round_quorum %zu, shards %zu\n",
        spec.spec.name.c_str(), spec.spec.id.ToString().c_str(),
        spec.spec.priority, spec.spec.TotalDevices(),
        spec.link.max_attempts, spec.link.transient_failure_probability,
        spec.execution.round_quorum,
        std::max<std::size_t>(1, spec.execution.shards));
    tenants.push_back(std::move(tenant));
  }

  std::printf("\n%s\n", core::RenderStatus(platform).c_str());

  // Priority-greedy admission (the default policy); pass
  // mode = kWeightedFair + max_fleet_share to bound any tenant's slice.
  const auto results = platform.RunMultiTenantExperiment(std::move(tenants));

  for (const auto& tenant : results) {
    if (!tenant.completed) {
      std::printf("%s: NOT RUN (%s)\n", tenant.id.ToString().c_str(),
                  tenant.detail.c_str());
      continue;
    }
    const core::TaskSlaReport& sla = tenant.sla;
    std::printf(
        "%s: completed %zu rounds — queue wait %.1fs, makespan %.1fs, "
        "round latency p50/p95/p99 %.1f/%.1f/%.1f s, retries %zu, "
        "deadline drops %zu, degraded rounds %zu, extended rounds %zu, "
        "aborted rounds %zu\n",
        tenant.id.ToString().c_str(), sla.rounds, sla.queue_wait_s,
        sla.makespan_s, sla.round_latency_p50_s, sla.round_latency_p95_s,
        sla.round_latency_p99_s, sla.retries, sla.deadline_drops,
        sla.rounds_degraded, sla.rounds_extended, sla.rounds_aborted);
    for (const auto& round : tenant.result.rounds) {
      std::printf("  round %zu @ %5.1fs: test acc %.4f, logloss %.4f\n",
                  round.round, ToSeconds(round.time), round.test_accuracy,
                  round.test_logloss);
    }
  }
  std::printf("\n%s\n", core::RenderStatus(platform).c_str());
  return 0;
}

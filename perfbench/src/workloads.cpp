#include "workloads.h"

#include "common/rng.h"

namespace simdc::perfbench {
namespace {

/// Pass-through dispatch with a disengaged rate limiter: one message per
/// tick, the regime in which results are identical at every shard width.
flow::DispatchStrategy PassThrough() {
  return flow::RealtimeAccumulated{{1}, 0.0, flow::kShardWidthInvariantCapacity};
}

/// The paper's cross-device CTR scenario: many light devices, a wide dense
/// model, so per-client O(dim) payload work dominates a round.
void CrossDeviceWide(std::uint64_t seed, Workload& w) {
  w.synth.num_devices = 2000;
  w.synth.records_per_device_mean = 8.0;
  w.synth.num_test_devices = 1000;
  w.synth.hash_dim = 1u << 13;
  core::FlExperimentConfig& fl = w.fl;
  fl.rounds = 24;
  fl.train.learning_rate = 0.05;
  fl.train.epochs = 1;
  fl.logical_fraction = 0.5;
  fl.strategy = PassThrough();
  fl.trigger = cloud::AggregationTrigger::kScheduled;
  fl.schedule_period = Seconds(30.0);
  fl.shards = 4;
  fl.parallelism = w.parallelism;
  fl.reclaim_payload_blobs = true;
  fl.payload_codec = ml::PayloadCodec::kFp32;
  fl.seed = seed;
}

/// Cross-silo: few heavy devices, a small model and several local epochs,
/// so training dominates; durable log + checkpoints at every round.
void SiloDenseDurable(std::uint64_t seed, const std::string& state_dir,
                      Workload& w) {
  w.synth.num_devices = 200;
  w.synth.records_per_device_mean = 400.0;
  // 100 held-out devices (~40k records, all scored): a smaller test set
  // makes the final log-loss swing with the seed's few test devices.
  w.synth.num_test_devices = 100;
  w.synth.hash_dim = 1u << 10;
  core::FlExperimentConfig& fl = w.fl;
  fl.eval_cap = 40000;
  fl.rounds = 40;
  fl.train.learning_rate = 0.01;
  fl.train.epochs = 6;
  fl.logical_fraction = 0.5;
  fl.strategy = PassThrough();
  fl.trigger = cloud::AggregationTrigger::kScheduled;
  fl.schedule_period = Seconds(30.0);
  fl.parallelism = w.parallelism;
  fl.durability.mode = persist::DurabilityMode::kLogCheckpoint;
  fl.durability.dir = state_dir + "/silo_dense_durable";
  fl.seed = seed;
}

/// Eight tenants on one contended fleet: behaviour model, lossy retrying
/// links, quorum/deadline rounds, multi-message ticks and mixed codecs.
void MultiTenantFaults(std::uint64_t seed, Workload& w) {
  w.synth.num_devices = 3000;
  w.synth.records_per_device_mean = 10.0;
  w.synth.num_test_devices = 1000;
  w.synth.hash_dim = 1u << 10;
  // 20 phones per grade and 10 per tenant: at most two tenants run at once.
  w.fleet_bundles = 1000;
  w.fleet_phones_per_grade = 20;
  w.phones_per_tenant = 10;
  w.policy.mode = sched::ScheduleMode::kWeightedFair;
  static constexpr ml::PayloadCodec kCodecs[] = {
      ml::PayloadCodec::kFp32, ml::PayloadCodec::kFp16,
      ml::PayloadCodec::kInt8};
  for (std::uint64_t id = 1; id <= 8; ++id) {
    core::FlExperimentConfig fl;
    fl.task = TaskId(id);
    fl.seed = SplitMix64(seed * 8 + id);
    fl.rounds = 4;
    fl.train.learning_rate = 0.05;
    fl.train.epochs = 1;
    fl.logical_fraction = 0.5;
    fl.participants_per_round = 1000;
    fl.trigger = cloud::AggregationTrigger::kScheduled;
    fl.schedule_period = Seconds(30.0);
    fl.strategy = flow::RealtimeAccumulated{
        {4, 16, 8}, 0.02 * static_cast<double>(id % 3)};
    fl.payload_codec = kCodecs[id % 3];
    fl.behavior.enabled = true;
    fl.behavior.seed = fl.seed ^ 0x5eedULL;
    fl.behavior.mean_availability = 0.9;
    fl.behavior.diurnal_amplitude = 0.2;
    fl.behavior.diurnal_period = Seconds(900.0);
    fl.behavior.churn_rate = 0.1;
    fl.behavior.churn_horizon = Seconds(600.0);
    fl.behavior.rejoin_fraction = 0.5;
    fl.behavior.churn_downtime = Seconds(60.0);
    fl.behavior.link_base_failure = 0.05;
    fl.behavior.link_diurnal_swing = 0.05;
    fl.link.transient_failure_probability = 0.2;
    fl.link.max_attempts = 3;
    fl.link.backoff_initial = Seconds(2.0);
    fl.link.backoff_multiplier = 2.0;
    fl.link.backoff_max = Seconds(20.0);
    fl.link.upload_deadline = Seconds(25.0);
    if (id % 2 == 0) {
      // Even tenants close rounds at a deadline once a quorum arrived; the
      // strict quorum of every fourth tenant forces extensions and aborts.
      fl.round_quorum = id % 4 == 0 ? 930 : 700;
      fl.round_deadline = Seconds(12.0);
      fl.round_extension = Seconds(7.0);
      fl.max_round_extensions = 1;
    }
    w.tenants.push_back(std::move(fl));
  }
}

}  // namespace

bool MakeWorkload(const std::string& name, std::uint64_t seed,
                  const std::string& state_dir, Workload& out) {
  out = Workload{};
  out.name = name;
  out.synth.seed = seed;
  if (name == "cross_device_wide") {
    CrossDeviceWide(seed, out);
  } else if (name == "silo_dense_durable") {
    SiloDenseDurable(seed, state_dir, out);
  } else if (name == "multi_tenant_faults") {
    MultiTenantFaults(seed, out);
  } else {
    return false;
  }
  return true;
}

core::TenantTask TenantTaskFor(const Workload& workload, std::size_t index,
                               const data::FederatedDataset& dataset) {
  core::TenantTask task;
  task.fl = workload.tenants[index];
  task.spec.id = task.fl.task;
  task.spec.name = "tenant-" + std::to_string(task.fl.task.value());
  task.spec.priority = static_cast<int>(task.fl.task.value() % 3);
  task.spec.rounds = task.fl.rounds;
  sched::DeviceRequirement requirement;
  requirement.grade = device::DeviceGrade::kHigh;
  requirement.num_devices = dataset.devices.size();
  requirement.phones = workload.phones_per_tenant;
  requirement.logical_bundles = 10;
  task.spec.requirements.push_back(requirement);
  task.dataset = &dataset;
  return task;
}

}  // namespace simdc::perfbench

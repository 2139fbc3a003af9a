// The benchmark's three workloads: dataset shape plus engine configuration,
// all derived from the command-line seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/multi_tenant.h"
#include "data/synth_avazu.h"
#include "sched/scheduler.h"

namespace simdc::perfbench {

struct Workload {
  std::string name;
  data::SynthConfig synth;
  /// Single-tenant workloads: the one experiment FlEngine runs.
  core::FlExperimentConfig fl;
  /// Multi-tenant workload: one experiment per tenant (empty otherwise).
  std::vector<core::FlExperimentConfig> tenants;
  /// Shared fleet the tenants contend for, and the admission policy.
  std::size_t fleet_bundles = 0;
  std::size_t fleet_phones_per_grade = 0;
  std::size_t phones_per_tenant = 0;
  sched::SchedulePolicy policy;
  /// Worker threads of the engine's training pool.
  std::size_t parallelism = 4;

  bool multi_tenant() const { return !tenants.empty(); }
};

/// Builds workload `name` for `seed`; durable workloads keep their blob log
/// and checkpoints under `state_dir`. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed,
                  const std::string& state_dir, Workload& out);

/// Admission-plane submission of tenant `index` of a multi-tenant workload.
core::TenantTask TenantTaskFor(const Workload& workload, std::size_t index,
                               const data::FederatedDataset& dataset);

}  // namespace simdc::perfbench

#include "core/multi_tenant.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace simdc::core {

FlExperimentConfig ExperimentFromTenantSpec(
    const config::TenantSpecConfig& spec, std::uint64_t seed) {
  FlExperimentConfig fl;
  fl.task = spec.spec.id;
  fl.rounds = spec.spec.rounds;
  fl.seed = seed;
  if (spec.has_strategy) fl.strategy = spec.strategy;
  fl.link = spec.link;
  fl.behavior = spec.behavior;
  fl.trigger = spec.trigger;
  fl.sample_threshold = spec.sample_threshold;
  fl.schedule_period = spec.schedule_period;
  fl.reject_stale = spec.reject_stale;
  const config::ExecutionConfig& exec = spec.execution;
  fl.parallelism = exec.parallelism;
  fl.shards = exec.shards == 0 ? 1 : exec.shards;
  fl.decode_plane = exec.decode_plane;
  fl.payload_codec = exec.payload_codec;
  fl.reclaim_payload_blobs = exec.reclaim_payload_blobs;
  fl.durability.mode = exec.durability;
  fl.durability.dir = exec.durability_dir;
  fl.round_quorum = exec.round_quorum;
  fl.round_deadline = exec.round_deadline;
  fl.round_extension = exec.round_extension;
  fl.max_round_extensions = exec.max_round_extensions;
  return fl;
}

MultiTenantEngine::MultiTenantEngine(sim::EventLoop& loop,
                                     sched::ResourceManager& resources,
                                     ThreadPool* pool)
    : loop_(loop), resources_(resources), pool_(pool), scheduler_(resources) {}

Status MultiTenantEngine::Submit(TenantTask task) {
  if (task.dataset == nullptr) {
    return InvalidArgument("TenantTask: null dataset for " +
                           task.spec.id.ToString());
  }
  if (tenants_.count(task.spec.id) != 0) {
    return AlreadyExists("tenant already submitted: " +
                         task.spec.id.ToString());
  }
  // Per-task policies ride in task.fl; the engine only pins the identity
  // so the flow plane and the SLA rows agree on who the traffic belongs to.
  task.fl.task = task.spec.id;
  if (Status queued = queue_.Submit(task.spec); !queued.ok()) return queued;
  Tenant tenant;
  tenant.submitted = loop_.Now();
  tenant.task = std::move(task);
  tenants_.emplace(tenant.task.spec.id, std::move(tenant));
  return Status::Ok();
}

void MultiTenantEngine::Admit(Tenant& tenant, SimTime now) {
  tenant.admitted = true;
  ++active_;
  peak_active_ = std::max(peak_active_, active_);
  tenant.runtime = std::make_unique<TaskRuntime>(
      loop_, *tenant.task.dataset, tenant.task.fl, pool_);
  tenant.runtime->set_queue_times(tenant.submitted, now);
  Tenant* slot = &tenant;
  tenant.runtime->set_on_complete(
      [this, slot](SimTime when) { OnTenantComplete(*slot, when); });
  // Begin() starts round 0 at loop_.Now() — for tenants admitted by the
  // initial pass that is time 0, exactly what their solo run would see.
  tenant.runtime->Begin();
}

void MultiTenantEngine::OnTenantComplete(Tenant& tenant, SimTime when) {
  --active_;
  // Return the fleet slice, then re-arbitrate AS A CLOUD EVENT at the
  // completion time: the admission instant becomes part of the event
  // timeline (width- and parallelism-invariant) instead of depending on
  // where the driver's barrier boundaries happen to fall.
  if (const Status released = resources_.Release(tenant.frozen);
      !released.ok()) {
    SIMDC_LOG(kWarn, "MultiTenantEngine")
        << "release failed for " << tenant.task.spec.id.ToString() << ": "
        << released.ToString();
  }
  if (!queue_.empty()) {
    loop_.ScheduleAt(when, [this] { AdmissionPass(policy_); });
  }
}

void MultiTenantEngine::AdmissionPass(const sched::SchedulePolicy& policy) {
  ++admission_passes_;
  const SimTime now = loop_.Now();
  sched::ScheduleDecision decision = scheduler_.SchedulePassEx(queue_, policy);
  // Fair-share deadlock breaker: several queued tenants each demanding
  // more than their mutual fair share of an IDLE fleet would starve
  // forever (every pass grants each less than it needs). With nothing
  // running there is no fairness left to protect, so fall back to the
  // greedy priority pass, which admits the best-priority task that fits.
  if (policy.mode == sched::ScheduleMode::kWeightedFair &&
      decision.launched.empty() && active_ == 0 && !queue_.empty()) {
    sched::SchedulePolicy greedy = policy;
    greedy.mode = sched::ScheduleMode::kPriority;
    sched::ScheduleDecision retry = scheduler_.SchedulePassEx(queue_, greedy);
    decision.launched = std::move(retry.launched);
    for (auto& spec : retry.rejected) {
      decision.rejected.push_back(std::move(spec));
    }
  }
  for (const sched::TaskSpec& spec : decision.rejected) {
    Tenant& tenant = tenants_.at(spec.id);
    tenant.rejected = true;
  }
  // Launch in the scheduler's (priority desc, submission) order — the same
  // order their resources were frozen in, so the pass is one atomic
  // arbitration decision.
  for (const sched::TaskSpec& spec : decision.launched) {
    Tenant& tenant = tenants_.at(spec.id);
    tenant.frozen = sched::RequestFor(spec);
    Admit(tenant, now);
  }
}

void MultiTenantEngine::Drive() {
  // Dynamic lockstep — LockstepGroup generalized to N tenants with
  // changing membership (admissions add shard loops mid-run). Invariants
  // carried over: cloud plane first at each t0; shard horizons strictly
  // before the next cloud event and at most one feedback guard past t0;
  // barrier feedback can only schedule at or after the horizon (the guard
  // is the min over active tenants, so it under-promises — see below).
  std::vector<sim::EventLoop*> shard_loops;  // reused across iterations
  std::vector<std::size_t> executed;
  const SimDuration guard = global_guard_;
  for (;;) {
    // T0: globally earliest pending work — cloud events, any active
    // tenant's shard events, any buffered merge tick.
    SimTime t0 = loop_.NextEventTime();
    shard_loops.clear();
    for (auto& [id, tenant] : tenants_) {
      if (!tenant.admitted || !tenant.runtime->sharded()) continue;
      for (sim::EventLoop* shard : tenant.runtime->ShardLoops()) {
        t0 = std::min(t0, shard->NextEventTime());
        shard_loops.push_back(shard);
      }
      t0 = std::min(t0, tenant.runtime->merger()->NextTickTime());
    }
    if (t0 == sim::EventLoop::kNoEvent) break;

    // 1. Cloud plane first at T0. Unsharded tenants live entirely here;
    // admission passes and round feedback also fire here.
    loop_.RunUntil(t0);

    if (shard_loops.empty()) continue;  // re-derive membership + t0

    // 2. Horizon (LockstepGroup's rule, global min-guard): every event
    // the barrier's feedback can schedule on a shard loop sits at least
    // min-guard past the global t0 — tenant B's round opening (or first
    // round after admission) at tick.time >= t0 schedules uploads/flushes
    // at >= tick.time + compute_B >= t0 + min-guard >= horizon — so a
    // shorter guard than a tenant's own never lets feedback land behind
    // its shard clocks; it only shortens how far loops run ahead per
    // iteration.
    const SimTime cloud_next = loop_.NextEventTime();
    SimTime horizon = std::min(
        cloud_next - 1, t0 > sim::EventLoop::kNoEvent - 1 - guard
                            ? sim::EventLoop::kNoEvent - 1
                            : t0 + guard);
    horizon = std::max(horizon, t0);

    // 3. Advance every active tenant's shard loops to the shared horizon.
    // Loops touch only their own tenant's state (dispatchers write into
    // the tenant's own merger channels), so cross-tenant parallelism is
    // as safe as the intra-tenant kind.
    if (shard_loops.size() > 1 && pool_ != nullptr) {
      executed.assign(shard_loops.size(), 0);
      pool_->ParallelFor(shard_loops.size(), [&](std::size_t s) {
        executed[s] = shard_loops[s]->RunUntil(horizon);
      });
    } else {
      for (sim::EventLoop* shard : shard_loops) {
        (void)shard->RunUntil(horizon);
      }
    }

    // 4. Cross-tenant merge barrier: forward buffered ticks globally
    // earliest-first, ties in ascending task-id order, ONE tick at a time.
    // Each DrainOne mirrors the cloud clock to its tick time before
    // delivering, so every tenant's aggregator sees Now() == tick time —
    // the clock its solo run shows it — even when another tenant's later
    // tick has already been buffered. (Clock::AdvanceTo is monotone, so
    // an earlier-time tick after a later one would stall the mirror;
    // global earliest-first makes the mirror sequence non-decreasing.)
    for (;;) {
      flow::ShardMerger* best = nullptr;
      SimTime best_time = sim::EventLoop::kNoEvent;
      for (auto& [id, tenant] : tenants_) {
        if (!tenant.admitted || !tenant.runtime->sharded()) continue;
        flow::ShardMerger* merger = tenant.runtime->merger();
        const SimTime t = merger->NextTickTime();
        if (t < best_time) {  // strict less: earliest task id wins ties
          best_time = t;
          best = merger;
        }
      }
      if (best == nullptr || best_time > horizon) break;
      (void)best->DrainOne(horizon);
    }
  }
}

std::vector<TenantResult> MultiTenantEngine::Run(
    const sched::SchedulePolicy& policy) {
  SIMDC_CHECK(!running_, "MultiTenantEngine::Run is not reentrant");
  running_ = true;
  policy_ = policy;
  global_guard_ = 0;
  bool first = true;
  for (const auto& [id, tenant] : tenants_) {
    const SimDuration tenant_guard =
        std::max<SimDuration>(0, Seconds(tenant.task.fl.compute_seconds));
    global_guard_ = first ? tenant_guard : std::min(global_guard_,
                                                    tenant_guard);
    first = false;
  }
  // Initial arbitration before any event fires: contention-free tenants
  // all start round 0 at time 0, exactly like their solo runs.
  AdmissionPass(policy_);
  Drive();
  std::vector<TenantResult> results;
  results.reserve(tenants_.size());
  for (auto& [id, tenant] : tenants_) {
    TenantResult row;
    row.id = id;
    row.rejected = tenant.rejected;
    if (tenant.admitted) {
      SIMDC_CHECK(tenant.runtime->done(),
                  "MultiTenantEngine: tenant " << id.ToString()
                                               << " never completed");
      row.completed = true;
      row.result = tenant.runtime->Finalize();
      row.sla = tenant.runtime->Sla();
    } else if (tenant.rejected) {
      row.detail = "rejected by admission control";
    } else {
      row.detail = "never admitted";
    }
    results.push_back(std::move(row));
  }
  running_ = false;
  return results;
}

}  // namespace simdc::core

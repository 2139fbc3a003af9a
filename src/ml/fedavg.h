// FedAvg aggregation (McMahan et al., AISTATS 2017) — the aggregation
// strategy the paper uses for its CTR experiments (§II-A, §VI-A).
//
// The global objective is min_w Σ_k p_k F_k(w; D_k) with p_k proportional
// to client dataset sizes; one aggregation step averages client models
// weighted by their sample counts.
//
// Order invariance. The accumulator keeps each element as a three-term
// compensated cascade (sum, c1, c2): every Add runs two error-free TwoSum
// transforms and pushes the residual into c2, so the represented value
// sum + c1 + c2 tracks the exact Σ w_k·x_k[i] to a relative error of
// roughly n³·2⁻¹⁵⁹ (n = terms added). Reordering or regrouping the same
// multiset of updates perturbs the represented value only inside that
// window — ~2⁻⁹⁹ at a million updates — which is orders of magnitude
// below where the final double round-off (2⁻⁵³) and float publication
// (2⁻²⁴) can observe it. That is what lets the aggregation service's
// per-lane partial aggregators (cloud::AggregationService) accumulate in
// parallel and merge in any fixed order while reproducing one serial
// accumulate bit-for-bit; tests/ml_test.cpp pins the invariance with
// adversarial shuffles and shard splits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/restrict.h"
#include "ml/lr_model.h"

namespace simdc::ml {

/// One client's contribution to a round.
struct ClientUpdate {
  LrModel model;
  /// Number of local training samples (p_k numerator).
  std::size_t sample_count = 0;
  /// Identifier kept for diagnostics.
  std::uint64_t client_id = 0;
};

namespace kernels {

/// Scalar reference cascade: for each i, folds scale·weights[i] into the
/// (sum, c1, c2) triple with two TwoSum transforms. Defines the numerics
/// every other accumulate kernel must reproduce bit-for-bit.
void CascadeAddScalar(std::span<const float> weights, double scale,
                      std::span<double> sum, std::span<double> c1,
                      std::span<double> c2);

/// Production kernel: the same cascade as CascadeAddScalar over
/// restrict-qualified contiguous arrays — branch-free TwoSum per lane, no
/// aliasing checks, auto-vectorizable. Bit-identical to the scalar
/// reference (bench_micro_kernels asserts it; fedavg_add_scalar vs
/// fedavg_add_simd measures it).
void CascadeAdd(const float* SIMDC_RESTRICT weights, std::size_t n,
                double scale, double* SIMDC_RESTRICT sum,
                double* SIMDC_RESTRICT c1, double* SIMDC_RESTRICT c2);

/// Folds another cascade's three terms into (sum, c1, c2) — the exact
/// shard-reduce step. Restrict-qualified like CascadeAdd.
void CascadeMerge(const double* SIMDC_RESTRICT other_sum,
                  const double* SIMDC_RESTRICT other_c1,
                  const double* SIMDC_RESTRICT other_c2, std::size_t n,
                  double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
                  double* SIMDC_RESTRICT c2);

/// Rounds a cascade triple to one double; the fixed evaluation order
/// (low terms first) is part of the bit-identity contract.
inline double CascadeValue(double sum, double c1, double c2) {
  return sum + (c1 + c2);
}

}  // namespace kernels

/// Streaming FedAvg aggregator. Feed updates as they arrive (possibly
/// across a DeviceFlow-shaped schedule), then call Aggregate() when the
/// trigger condition fires. Accumulation is order-invariant (see the file
/// comment), so disjoint partial aggregators merged via MergeFrom produce
/// the same published model as one serial aggregator fed every update.
class FedAvgAggregator {
 public:
  explicit FedAvgAggregator(std::uint32_t dim)
      : accumulator_(dim), compensation1_(dim), compensation2_(dim) {}

  /// Adds one client model weighted by its sample count.
  Status Add(const LrModel& model, std::size_t sample_count);

  /// Folds `other`'s accumulated state into this aggregator (partial-sum
  /// reduction). Both must share a dimension. `other` is unchanged.
  void MergeFrom(const FedAvgAggregator& other);

  /// Weighted-average model of everything added since the last Reset.
  /// Fails when no samples were added.
  Result<LrModel> Aggregate() const;

  void Reset();

  std::size_t clients() const { return clients_; }
  std::size_t total_samples() const { return total_samples_; }

  /// Raw cascade state, exposed bit-exactly for checkpointing: the primary
  /// sums and the two compensation planes.
  std::span<const double> accumulator() const { return accumulator_; }
  std::span<const double> compensation1() const { return compensation1_; }
  std::span<const double> compensation2() const { return compensation2_; }
  double bias_accumulator() const { return bias_accumulator_; }
  double bias_compensation1() const { return bias_compensation1_; }
  double bias_compensation2() const { return bias_compensation2_; }

  /// Restores cascade state from a checkpoint. All three spans must match
  /// this aggregator's dimension.
  void Restore(std::span<const double> accumulator,
               std::span<const double> compensation1,
               std::span<const double> compensation2, double bias_accumulator,
               double bias_compensation1, double bias_compensation2,
               std::size_t total_samples, std::size_t clients) {
    SIMDC_CHECK(accumulator.size() == accumulator_.size() &&
                    compensation1.size() == accumulator_.size() &&
                    compensation2.size() == accumulator_.size(),
                "FedAvgAggregator::Restore: dimension mismatch");
    std::copy(accumulator.begin(), accumulator.end(), accumulator_.begin());
    std::copy(compensation1.begin(), compensation1.end(),
              compensation1_.begin());
    std::copy(compensation2.begin(), compensation2.end(),
              compensation2_.begin());
    bias_accumulator_ = bias_accumulator;
    bias_compensation1_ = bias_compensation1;
    bias_compensation2_ = bias_compensation2;
    total_samples_ = total_samples;
    clients_ = clients;
  }

 private:
  /// Per-element cascade: accumulator_ carries the primary sums of
  /// weight·sample_count terms, compensation1_/compensation2_ the two
  /// error planes (see kernels::CascadeAdd).
  std::vector<double> accumulator_;
  std::vector<double> compensation1_;
  std::vector<double> compensation2_;
  double bias_accumulator_ = 0.0;
  double bias_compensation1_ = 0.0;
  double bias_compensation2_ = 0.0;
  std::size_t total_samples_ = 0;
  std::size_t clients_ = 0;
  std::uint32_t dim() const {
    return static_cast<std::uint32_t>(accumulator_.size());
  }
};

/// One-shot convenience: FedAvg over a batch of updates.
Result<LrModel> FedAvg(std::span<const ClientUpdate> updates);

}  // namespace simdc::ml

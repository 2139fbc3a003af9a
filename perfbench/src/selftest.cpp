// Tests of the benchmark's own helpers: the result digest, the tail-
// percentile rule and the timing FileIo decorator.
//
//   simdc_perfbench_selftest <scratch-dir>
//
// Exits 0 when every check passes; prints each failure otherwise.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "digest.h"
#include "stats.h"
#include "timing_io.h"

namespace simdc::perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

core::FlRunResult SampleResult() {
  core::FlRunResult result;
  core::RoundMetrics round;
  round.round = 1;
  round.time = 30'000'000;
  round.test_logloss = 0.43;
  round.clients = 12;
  round.samples = 96;
  result.rounds.push_back(round);
  result.messages_emitted = 12;
  result.model_dim = 64;
  result.final_weights.assign(64, 0.25f);
  result.final_bias = -0.5f;
  return result;
}

std::uint64_t DigestOf(const core::FlRunResult& result) {
  Digest digest;
  Fold(digest, result);
  return digest.value();
}

void DigestTests() {
  const core::FlRunResult base = SampleResult();
  Check(DigestOf(base) == DigestOf(SampleResult()),
        "digest is a pure function of the result");
  for (const std::size_t index : {std::size_t{0}, std::size_t{37}}) {
    for (const int bit : {0, 13, 31}) {
      core::FlRunResult flipped = base;
      auto bits = std::bit_cast<std::uint32_t>(flipped.final_weights[index]);
      bits ^= 1u << bit;
      flipped.final_weights[index] = std::bit_cast<float>(bits);
      Check(DigestOf(flipped) != DigestOf(base),
            "flipping one weight bit changes the digest");
    }
  }
  core::FlRunResult moved = base;
  moved.rounds[0].clients += 1;
  Check(DigestOf(moved) != DigestOf(base),
        "a changed round client count changes the digest");
}

/// Brute force of the rule: the largest ladder percentile whose nearest-
/// rank value has at least kTailBeyond samples strictly above its rank.
void TailPercentileTests() {
  Check(TailPercentile(0) == 50.0, "no samples: median");
  Check(TailPercentile(10) == 50.0, "10 samples: median");
  Check(TailPercentile(20) == 50.0, "20 samples: p50 leaves exactly 10");
  Check(TailPercentile(99) == 50.0, "99 samples: p90 leaves only 9");
  Check(TailPercentile(100) == 90.0, "100 samples: p90 leaves exactly 10");
  Check(TailPercentile(999) == 90.0, "999 samples: p99 leaves only 9");
  Check(TailPercentile(1000) == 99.0, "1000 samples: p99");
  Check(TailPercentile(9999) == 99.0, "9999 samples: p99.9 leaves only 9");
  Check(TailPercentile(10000) == 99.9, "10000 samples: p99.9");
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 1100; ++n) sizes.push_back(n);
  for (std::size_t n = 9990; n <= 10010; ++n) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    const double p = TailPercentile(n);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
    // values[i] == i, so n - 1 - value counts the samples beyond it.
    const double beyond = static_cast<double>(n) - 1.0 - Percentile(values, p);
    if (n >= 20) {
      Check(beyond >= static_cast<double>(kTailBeyond),
            "tail percentile leaves >= 10 beyond");
    }
    for (const double rung : kTailLadder) {
      if (rung <= p) continue;
      Check(static_cast<double>(n) - 1.0 - Percentile(values, rung) <
                static_cast<double>(kTailBeyond),
            "every higher percentile leaves fewer than 10 beyond");
    }
  }
  Check(Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void TimingFileIoTests(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/log.bin";
  const std::vector<std::byte> bytes(100, std::byte{7});

  persist::FaultPlan plan;
  plan.seed = 3;
  plan.fail_sync_on = 2;
  plan.crash_on_append = 2;
  plan.torn_keep_bytes = 40;
  persist::FaultInjector bare(plan);
  persist::FaultInjector wrapped_inner(plan);
  TimingFileIo timed(&wrapped_inner);

  const std::string bare_path = dir + "/bare.bin";
  Check(bare.Append(bare_path, bytes).ok() == timed.Append(path, bytes).ok(),
        "first append passes through");
  const Status bare_sync1 = bare.Sync(bare_path);
  const Status timed_sync1 = timed.Sync(path);
  Check(bare_sync1.ok() && timed_sync1.ok(), "first sync succeeds");
  const Status bare_sync2 = bare.Sync(bare_path);
  const Status timed_sync2 = timed.Sync(path);
  Check(!bare_sync2.ok() && !timed_sync2.ok() &&
            bare_sync2.error().code() == timed_sync2.error().code(),
        "injected fsync failure passes through unchanged");
  Check(timed.syncs() == 2, "syncs counted");

  bool bare_crashed = false, timed_crashed = false;
  try {
    (void)bare.Append(bare_path, bytes);
  } catch (const persist::SimulatedCrash&) {
    bare_crashed = true;
  }
  try {
    (void)timed.Append(path, bytes);
  } catch (const persist::SimulatedCrash&) {
    timed_crashed = true;
  }
  Check(bare_crashed && timed_crashed,
        "injected crash propagates through the wrapper");
  const auto bare_size = bare.FileSize(bare_path);
  const auto timed_size = timed.FileSize(path);
  Check(bare_size.ok() && timed_size.ok() && *bare_size == *timed_size &&
            *timed_size == 140,
        "torn append leaves the same bytes behind");
  const auto bare_read = bare.ReadFile(bare_path);
  const auto timed_read = timed.ReadFile(path);
  Check(bare_read.ok() && timed_read.ok() && *bare_read == *timed_read,
        "reads pass through unchanged");
  Check(timed.bytes() == 200, "appended bytes counted, crashing one included");
  Check(timed.append_ns() > 0 && timed.sync_ns() > 0, "calls were timed");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace simdc::perfbench

int main(int argc, char** argv) {
  using namespace simdc::perfbench;
  const std::string dir =
      argc > 1 ? std::string(argv[1]) : std::string("perfbench-selftest");
  DigestTests();
  TailPercentileTests();
  TimingFileIoTests(dir);
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

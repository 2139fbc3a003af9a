// In-memory span recorder for the traced (per-layer) run.
//
// Spans are opened around calls into each module's public functions from
// the benchmark's own code. Each span has a name, start, end, parent and
// the FL round it belongs to; spans are buffered and written out when the
// run ends. A span's self time is its duration minus the time its direct
// children cover (children never overlap: the replay is single-threaded).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace simdc::perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t round = 0;
  };

  std::int32_t Open(const char* name) {
    Span span;
    span.name = name;
    span.parent = current_;
    span.round = round_;
    span.start_ns = NowNs();
    spans_.push_back(span);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }

  void Close(std::int32_t index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = NowNs();
    current_ = span.parent;
  }

  void set_round(std::uint32_t round) { round_ = round; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self nanoseconds summed per span name.
  std::map<std::string, std::int64_t> SelfTimes() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, std::int64_t> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] +=
          spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
    return self;
  }

  /// Writes one tab-separated line per span:
  /// index, name, start_ns, end_ns, parent, round.
  bool WriteTsv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "index\tname\tstart_ns\tend_ns\tparent\tround\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu\t%s\t%lld\t%lld\t%d\t%u\n", i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.round);
    }
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint32_t round_ = 0;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace simdc::perfbench

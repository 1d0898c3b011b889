// In-memory span recording for the traced run, and the self-time
// arithmetic that turns a span tree into a per-layer split.
//
// A span is one call into a layer: name ("<layer>.<what>"), host start and
// end, the span that caused it, and the query it belongs to. Spans are kept
// in memory while the traced run executes and are summarised when it ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr int kNoParent = -1;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = kNoParent;
  std::int64_t query = -1;
};

/// Thread-safe span store. Ids are indexes into spans().
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  int begin(std::string name, int parent, std::int64_t query);
  void end(int id);
  /// Appends a finished span (the self-tests build span trees with it).
  int add(Span s);

  std::vector<Span> spans() const;
  std::int64_t now_ns() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, int parent, std::int64_t query = -1)
      : rec_(rec), id_(rec != nullptr ? rec->begin(std::move(name), parent, query) : kNoParent) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                          std::int64_t lo, std::int64_t hi);

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (children may overlap when they ran in parallel).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::int64_t count = 0;
};

/// Per-name roll-up of self time, total time and count. Root spans (no
/// parent) are not layers: their self time is the wall time that no other
/// span covers, returned as `unattributed_ns`.
struct Rollup {
  std::map<std::string, LayerTotals> by_name;
  std::int64_t unattributed_ns = 0;
  std::int64_t root_ns = 0;
};
Rollup rollup(const std::vector<Span>& spans);

}  // namespace perfbench

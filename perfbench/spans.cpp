#include "spans.hpp"

#include <algorithm>

namespace perfbench {

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::begin(std::string name, int parent, std::int64_t query) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.query = query;
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

int SpanRecorder::add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                          std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (auto [s, e] : intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out[i] = (s.end_ns - s.start_ns) - union_length(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return out;
}

Rollup rollup(const std::vector<Span>& spans) {
  Rollup r;
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent == kNoParent) {
      r.unattributed_ns += self[i];
      r.root_ns += s.end_ns - s.start_ns;
      continue;
    }
    LayerTotals& t = r.by_name[s.name];
    t.self_ns += self[i];
    t.total_ns += s.end_ns - s.start_ns;
    ++t.count;
  }
  return r;
}

}  // namespace perfbench

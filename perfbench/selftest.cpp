// Self-tests for the benchmark's own arithmetic: order statistics, span
// self time with overlapping parallel children, and the digest comparator.
// Exits non-zero on the first failed check; run.py runs it before every
// benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "digest.hpp"
#include "spans.hpp"
#include "summary.hpp"

namespace {

int g_failed = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failed;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_summary() {
  using namespace perfbench;
  check(near(percentile({4, 1, 3, 2}, 0.5), 2.5), "percentile median of even count");
  check(near(percentile({1, 2, 3, 4, 5}, 0.9), 4.6), "percentile interpolates");
  check(near(percentile({7}, 0.99), 7.0), "percentile of one value");
  check(percentile({}, 0.5) == 0.0, "percentile of nothing");
  check(near(median({3, 1, 2}), 2.0), "median of odd count");
  // Reference values from Python's statistics.quantiles(v, n=4).
  Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25), "quartiles of 1..10");
  q = quartiles({3.0, 1.0});
  check(near(q.q1, 0.5) && near(q.q2, 2.0) && near(q.q3, 3.5), "quartiles of two values");
  q = quartiles({1.5, 2.5, 10.0, 4.0});
  check(near(q.q1, 1.75) && near(q.q2, 3.25) && near(q.q3, 8.5), "quartiles of four values");
  check(near(geomean({2.0, 8.0}), 4.0), "geomean");
  check(geomean({}) == 0.0, "geomean of nothing");
}

void test_spans() {
  using namespace perfbench;
  check(union_length({{0, 10}, {5, 15}, {20, 30}}, 0, 100) == 25, "union merges overlaps");
  check(union_length({{0, 10}, {5, 15}}, 8, 12) == 4, "union clips to the parent");
  check(union_length({{0, 10}, {10, 20}}, 0, 100) == 20, "union of touching intervals");

  // root [0,100) -> job A [10,60), job B [30,80) in parallel; A has a
  // child [20,40). A's self = 50 - 20; root's self = 100 - |[10,80)|.
  SpanRecorder rec;
  const int root = rec.add({"pass", 0, 100, kNoParent, -1});
  const int a = rec.add({"throttle.query", 10, 60, root, 1});
  rec.add({"throttle.query", 30, 80, root, 2});
  rec.add({"gpusim.run", 20, 40, a, 1});
  const std::vector<Span> spans = rec.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  check(self[0] == 30, "root self time excludes the union of parallel children");
  check(self[1] == 30, "child self time excludes its own child");
  check(self[2] == 50 && self[3] == 20, "leaf self time is its duration");

  const Rollup r = rollup(spans);
  check(r.unattributed_ns == 30 && r.root_ns == 100, "unattributed is the root's self time");
  check(r.by_name.at("throttle.query").count == 2 &&
            r.by_name.at("throttle.query").self_ns == 80 &&
            r.by_name.at("throttle.query").total_ns == 100,
        "roll-up sums self and total time per name");

  // A recorded span nests under the span that was open when it began.
  SpanRecorder live;
  {
    ScopedSpan outer(&live, "pass", kNoParent);
    ScopedSpan inner(&live, "request", outer.id(), 7);
  }
  const std::vector<Span> ls = live.spans();
  check(ls.size() == 2 && ls[1].parent == 0 && ls[1].query == 7, "scoped spans record parent");
  check(ls[0].start_ns <= ls[1].start_ns && ls[1].end_ns <= ls[0].end_ns, "scoped spans nest");
  ScopedSpan off(nullptr, "ignored", kNoParent);
  check(off.id() == kNoParent, "null recorder records nothing");
}

void test_digests() {
  using namespace perfbench;
  const std::vector<LaunchFacts> run = {{1000, 10, 5, 3, 2, 7, 400}, {2000, 1, 1, 1, 1, 1, 1}};
  const std::uint64_t d = digest_launches("baseline", run);
  check(d == digest_launches("baseline", run), "digest is deterministic");
  check(d != digest_launches("catt", run), "digest depends on the query kind");

  DigestMap expected = {{"max/atax/baseline", d}, {"max/atax/catt", 42}};
  check(parse_digests(format_digests(expected)) == expected, "digest text round-trips");
  check(compare_digests(expected, expected).empty(), "identical digests match");

  // One perturbed stat must count as a failure.
  std::vector<LaunchFacts> perturbed = run;
  perturbed[1].dram_lines += 1;
  DigestMap actual = expected;
  actual["max/atax/baseline"] = digest_launches("baseline", perturbed);
  std::vector<Mismatch> mm = compare_digests(expected, actual);
  check(mm.size() == 1 && mm[0].query == "max/atax/baseline" && mm[0].what == "differs",
        "a perturbed stat is a mismatch");

  actual = {{"max/atax/baseline", d}, {"max/bicg/baseline", 1}};
  mm = compare_digests(expected, actual);
  check(mm.size() == 2, "unexpected and missing queries are mismatches");

  bool threw = false;
  try {
    parse_digests("max/atax/baseline 12zz\n");
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw, "malformed digest text is rejected");
}

}  // namespace

int main() {
  test_summary();
  test_spans();
  test_digests();
  if (g_failed != 0) return 1;
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}

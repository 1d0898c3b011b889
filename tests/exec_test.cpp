// Execution-engine tests: the pool/sweep primitives, cache-key
// fingerprints, and the two end-to-end guarantees the engine makes —
// (a) a parallel BFTT sweep is bit-identical to a single-thread run, and
// (b) the SimCache dedupes duplicate candidates so they simulate once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/cache_key.hpp"
#include "exec/pool.hpp"
#include "exec/sim_cache.hpp"
#include "exec/sweep.hpp"
#include "harness/harness.hpp"
#include "throttle/runner.hpp"
#include "workloads/workload.hpp"

namespace catt {
namespace {

TEST(Pool, RunsAllSubmittedJobs) {
  exec::Pool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  exec::SweepEngine engine(pool);
  engine.for_each(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(Pool, DefaultJobsIsPositive) { EXPECT_GE(exec::Pool::default_jobs(), 1); }

/// Sets (or, for null, unsets) CATT_JOBS for one scope.
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    if (const char* old = std::getenv("CATT_JOBS")) saved_ = old;
    if (value != nullptr) {
      ::setenv("CATT_JOBS", value, 1);
    } else {
      ::unsetenv("CATT_JOBS");
    }
  }
  ~ScopedJobsEnv() {
    if (saved_) {
      ::setenv("CATT_JOBS", saved_->c_str(), 1);
    } else {
      ::unsetenv("CATT_JOBS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

int hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

TEST(Pool, DefaultJobsReadsPositiveCattJobs) {
  for (const auto& [text, want] :
       std::vector<std::pair<const char*, int>>{{"1", 1}, {"4", 4}, {"123", 123}}) {
    const ScopedJobsEnv env(text);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(exec::Pool::default_jobs(), want) << text;
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "") << text;
  }
}

TEST(Pool, DefaultJobsWithoutCattJobsIsHardwareConcurrency) {
  for (const char* text : {static_cast<const char*>(nullptr), ""}) {
    const ScopedJobsEnv env(text);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(exec::Pool::default_jobs(), hardware_jobs());
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  }
}

// Trailing junk, signs, blanks, zero and out-of-range values are all
// rejected with exactly one warning naming the value, then fall back to
// hardware concurrency.
TEST(Pool, DefaultJobsRejectsMalformedCattJobs) {
  for (const char* text : {"4x", "-2", "abc", "0", "+4", " 4", "4 ", "2.5",
                           "99999999999999999999", "2147483648"}) {
    const ScopedJobsEnv env(text);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(exec::Pool::default_jobs(), hardware_jobs()) << text;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(std::string("CATT_JOBS='") + text + "'"), std::string::npos)
        << text << ": " << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << text << ": " << err;
  }
}

TEST(SweepEngine, MapKeysResultsByCandidateIndex) {
  exec::Pool pool(3);
  exec::SweepEngine engine(pool);
  const std::vector<int> out =
      engine.map<int>(17, [](std::size_t i) { return static_cast<int>(i) * 2; });
  ASSERT_EQ(out.size(), 17u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i) * 2);
}

TEST(SweepEngine, RethrowsLowestIndexException) {
  exec::Pool pool(4);
  exec::SweepEngine engine(pool);
  try {
    engine.for_each(16, [](std::size_t i) {
      if (i == 3 || i == 11) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(Fingerprint, ArchAndOptionsDistinguishConfigurations) {
  const auto a = arch::GpuArch::titan_v(2);
  const auto b = arch::GpuArch::titan_v_32k_l1d(2);
  EXPECT_EQ(a.fingerprint(), arch::GpuArch::titan_v(2).fingerprint());
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), arch::GpuArch::titan_v(4).fingerprint());

  sim::SimOptions o1;
  sim::SimOptions o2;
  o2.tb_cap = 2;
  EXPECT_EQ(o1.fingerprint(), sim::SimOptions{}.fingerprint());
  EXPECT_NE(o1.fingerprint(), o2.fingerprint());
}

TEST(CacheKey, KernelHashCoversBodyAndResources) {
  const auto key_of = [](const ir::Kernel& k) { return exec::CacheKey{}.kernel(k).value(); };
  const wl::Workload& w = wl::find_workload("atax", 2);
  const ir::Kernel& k = w.kernels.at(0);
  ir::Kernel same = k.clone();
  EXPECT_EQ(key_of(k), key_of(same));

  ir::Kernel more_regs = k.clone();
  more_regs.regs_per_thread += 1;
  EXPECT_NE(key_of(k), key_of(more_regs));

  EXPECT_NE(key_of(w.kernels.at(0)), key_of(w.kernels.at(1)));
}

TEST(CacheKey, EngineVersionSaltSeedsEveryKey) {
  // A CacheKey with no fields is exactly the salt; a hand-rolled hash of a
  // *different* salt must diverge even with identical subsequent fields.
  const std::uint64_t empty = exec::CacheKey{}.value();
  EXPECT_EQ(empty, hash::Fnv1a{}.u32(exec::kEngineVersion).value());
  const std::uint64_t salted = exec::CacheKey{}.u64(7).value();
  const std::uint64_t other_salt =
      hash::Fnv1a{}.u32(exec::kEngineVersion + 1).u64(7).value();
  EXPECT_NE(salted, other_salt);
  EXPECT_EQ(salted, hash::Fnv1a{}.u32(exec::kEngineVersion).u64(7).value());
}

TEST(SimCache, CountsHitsAndMisses) {
  exec::SimCache cache;
  EXPECT_FALSE(cache.lookup(42).has_value());  // miss
  sim::KernelStats s;
  s.cycles = 7;
  cache.insert(42, s);
  const auto got = cache.lookup(42);  // hit
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->cycles, 7);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.contains(42));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

// (a) Parallel run must be bit-identical to a forced single-thread run:
// same sweep (factor order and cycle counts), same winner, same launches.
// The microbenchmark keeps the double sweep cheap; the property under
// test is engine plumbing (job ordering, result placement), which is
// workload-independent.
TEST(ExecEngine, ParallelBfttIdenticalToSingleThread) {
  const wl::Workload& w = wl::find_workload("l1dfull8w", 2);

  exec::Pool serial_pool(1);
  throttle::Runner serial(bench::max_l1d_arch(), &serial_pool);
  const auto expect = serial.bftt_sweep(w);

  exec::Pool parallel_pool(4);
  throttle::Runner parallel(bench::max_l1d_arch(), &parallel_pool);
  const auto got = parallel.bftt_sweep(w);

  EXPECT_EQ(got.factor.n_divisor, expect.factor.n_divisor);
  EXPECT_EQ(got.factor.tb_limit, expect.factor.tb_limit);
  EXPECT_EQ(got.best.total_cycles, expect.best.total_cycles);
  EXPECT_EQ(got.best.policy, expect.best.policy);
  EXPECT_EQ(got.unique_runs, expect.unique_runs);
  ASSERT_EQ(got.sweep.size(), expect.sweep.size());
  for (std::size_t i = 0; i < got.sweep.size(); ++i) {
    EXPECT_EQ(got.sweep[i].first.n_divisor, expect.sweep[i].first.n_divisor) << "cand " << i;
    EXPECT_EQ(got.sweep[i].first.tb_limit, expect.sweep[i].first.tb_limit) << "cand " << i;
    EXPECT_EQ(got.sweep[i].second, expect.sweep[i].second) << "cand " << i;
  }
  ASSERT_EQ(got.best.launches.size(), expect.best.launches.size());
  for (std::size_t i = 0; i < got.best.launches.size(); ++i) {
    EXPECT_EQ(got.best.launches[i].cycles, expect.best.launches[i].cycles);
    EXPECT_EQ(got.best.launches[i].l1.hits, expect.best.launches[i].l1.hits);
    EXPECT_EQ(got.best.launches[i].l1.accesses, expect.best.launches[i].l1.accesses);
  }
}

// (b) Duplicate candidates — factors that clamp to the same per-kernel
// transforms — are simulated once; the cache counters prove it.
TEST(ExecEngine, SimCacheDedupesDuplicateCandidates) {
  throttle::Runner r(bench::max_l1d_arch());
  const wl::Workload& w = wl::find_workload("lud", 2);
  const std::size_t n_entries = w.schedule.size();

  const auto first = r.bftt_sweep(w);
  // LUD's loops contain barriers, so warp-divisor variants collapse to the
  // same transformed kernel: the sweep has fewer distinct plans than
  // candidates, and exactly one simulation ran per distinct plan.
  EXPECT_LT(first.unique_runs, first.sweep.size());
  EXPECT_EQ(r.cache().misses(), first.unique_runs * n_entries);
  EXPECT_EQ(r.cache().hits(), 0u);

  // A repeated sweep re-simulates nothing: every plan is assembled from
  // the cache (one hit per launch), miss count unchanged.
  const auto second = r.bftt_sweep(w);
  EXPECT_EQ(second.best.total_cycles, first.best.total_cycles);
  EXPECT_EQ(r.cache().misses(), first.unique_runs * n_entries);
  EXPECT_EQ(r.cache().hits(), first.unique_runs * n_entries);
}

// The baseline is shared across policies through the cache: BFTT's
// identity candidate (N=1, uncapped) must not re-simulate it.
TEST(ExecEngine, BaselineSharedWithIdentityFixedCandidate) {
  throttle::Runner r(bench::max_l1d_arch());
  const wl::Workload& w = wl::find_workload("gsmv", 2);
  const auto base = r.run(w, throttle::Baseline{});
  const auto misses_after_base = r.cache().misses();
  const auto identity = r.run(w, throttle::Fixed{{1, 0}});
  EXPECT_EQ(identity.total_cycles, base.total_cycles);
  EXPECT_EQ(r.cache().misses(), misses_after_base);
  EXPECT_EQ(r.cache().hits(), w.schedule.size());
}

}  // namespace
}  // namespace catt

// Golden-trace regression tests for the bytecode warp VM (bytecode.hpp)
// and the homogeneous-warp trace dedup (dedup.hpp): both must reproduce
// the reference tree-walk interpreter's traces bit for bit — same event
// sequence, compute cycles, site ids, and coalesced transactions — for
// every registered workload kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "gpusim/bytecode.hpp"
#include "gpusim/dedup.hpp"
#include "gpusim/interp.hpp"
#include "gpusim/ref_interp.hpp"
#include "workloads/workload.hpp"

namespace catt::sim {
namespace {

constexpr int kLineBytes = 128;  // Titan V line size used by every bench

void expect_traces_equal(const std::vector<WarpTrace>& ref, const std::vector<WarpTrace>& got,
                         const std::string& label) {
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (std::size_t w = 0; w < ref.size(); ++w) {
    const WarpTrace& re = ref[w];
    const WarpTrace& ge = got[w];
    ASSERT_EQ(re.size(), ge.size()) << label << " warp " << w;
    for (std::size_t i = 0; i < re.size(); ++i) {
      const std::string at = label + " warp " + std::to_string(w) + " event " + std::to_string(i);
      ASSERT_EQ(static_cast<int>(re.kind(i)), static_cast<int>(ge.kind(i))) << at;
      ASSERT_EQ(re.cycles(i), ge.cycles(i)) << at;
      ASSERT_EQ(re.site(i), ge.site(i)) << at;
      ASSERT_EQ(re.is_store(i), ge.is_store(i)) << at;
      ASSERT_EQ(re.txn_count(i), ge.txn_count(i)) << at;
      for (std::uint32_t t = 0; t < re.txn_count(i); ++t) {
        ASSERT_EQ(re.txns(i)[t].line, ge.txns(i)[t].line) << at << " txn " << t;
        ASSERT_EQ(re.txns(i)[t].sectors, ge.txns(i)[t].sectors) << at << " txn " << t;
      }
    }
  }
}

void expect_sites_equal(const std::vector<MemSite>& ref, const std::vector<MemSite>& got,
                        const std::string& label) {
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].array, got[i].array) << label << " site " << i;
    EXPECT_EQ(ref[i].index_text, got[i].index_text) << label << " site " << i;
    EXPECT_EQ(ref[i].is_store, got[i].is_store) << label << " site " << i;
  }
}

/// Blocks worth sampling from a grid: first, middle, last (deduplicated).
std::vector<std::uint64_t> sample_blocks(std::uint64_t num_blocks) {
  std::set<std::uint64_t> s{0, num_blocks / 2, num_blocks - 1};
  return {s.begin(), s.end()};
}

// Every registered workload kernel, bytecode VM vs. tree-walk reference.
// Both interpreters execute the same sampled blocks on their own memory
// image, so functional state stays pairwise identical across the schedule
// even for data-dependent kernels.
TEST(VmGolden, AllWorkloadKernelsTraceIdentical) {
  for (const wl::Workload& w : wl::all_workloads(2)) {
    DeviceMemory mem_ref;
    DeviceMemory mem_vm;
    w.setup(mem_ref);
    w.setup(mem_vm);
    for (std::size_t e = 0; e < w.schedule.size(); ++e) {
      const wl::KernelRun& run = w.schedule[e];
      const ir::Kernel& k = w.kernel(run.kernel);
      const std::string label = w.name + "/" + run.kernel + "#" + std::to_string(e);
      RefKernelInterp ref(k, run.launch, run.params, mem_ref, kLineBytes);
      KernelInterp vm(k, run.launch, run.params, mem_vm, kLineBytes);
      for (std::uint64_t b : sample_blocks(run.launch.num_blocks())) {
        expect_traces_equal(ref.run_block(b), vm.run_block(b),
                            label + " block " + std::to_string(b));
      }
      expect_sites_equal(ref.sites(), vm.sites(), label);
    }
  }
}

// Dedup bit-identity on a pure multi-block kernel: rendered traces must
// equal the reference interpreter's output for every block, and a second
// launch under the same key must re-render from the cached entry.
TEST(VmDedup, RenderedTracesBitIdenticalAcrossLaunches) {
  const wl::Workload w = wl::make_atax(2);
  const wl::KernelRun& run = w.schedule.front();
  const ir::Kernel& k = w.kernel(run.kernel);
  ASSERT_TRUE(bc::trace_data_independent(k)) << "atax should be trace-pure";

  DeviceMemory mem_ref;
  DeviceMemory mem_vm;
  w.setup(mem_ref);
  w.setup(mem_vm);

  dedup::TraceDedup cache;
  const std::uint64_t key = 0x1234;

  for (int launch = 0; launch < 2; ++launch) {
    const std::string label = run.kernel + " launch " + std::to_string(launch);
    RefKernelInterp ref(k, run.launch, run.params, mem_ref, kLineBytes);
    KernelInterp vm(k, run.launch, run.params, mem_vm, kLineBytes);
    vm.set_functional(false);
    vm.enable_dedup(cache, key);
    for (std::uint64_t b = 0; b < run.launch.num_blocks(); ++b) {
      expect_traces_equal(ref.run_block(b), vm.run_block(b),
                          label + " block " + std::to_string(b));
    }
    expect_sites_equal(ref.sites(), vm.sites(), label);
    // Every atax warp symbolizes, so the generation pass renders its first
    // block too, and the second launch renders from the cached entry: no
    // warp of either launch runs on the VM.
    EXPECT_EQ(vm.warps_executed(), 0u) << label;
    EXPECT_EQ(vm.warps_rendered(),
              run.launch.num_blocks() * static_cast<std::uint64_t>(vm.warps_per_block()))
        << label;
  }
}

// Symbolize-first on a generation block that mixes proven and Bail'ed
// warps: corr_kernel's warps are partly block-affine, so its first block
// renders some warps and runs the rest on the VM, in warp order. Both
// blocks' traces and the site table (ids in first-encounter order) must
// match the reference interpreter bit for bit.
TEST(VmDedup, MixedRenderAndVmFirstBlockMatchesReference) {
  const wl::Workload w = wl::make_corr(2);
  const wl::KernelRun* run = nullptr;
  for (const wl::KernelRun& r : w.schedule) {
    if (r.kernel == "corr_kernel") run = &r;
  }
  ASSERT_NE(run, nullptr);
  const ir::Kernel& k = w.kernel(run->kernel);
  ASSERT_TRUE(bc::trace_data_independent(k)) << "corr_kernel should be trace-pure";
  ASSERT_EQ(run->launch.num_blocks(), 2u);

  DeviceMemory mem_ref;
  DeviceMemory mem_vm;
  w.setup(mem_ref);
  w.setup(mem_vm);
  dedup::TraceDedup cache;
  RefKernelInterp ref(k, run->launch, run->params, mem_ref, kLineBytes);
  KernelInterp vm(k, run->launch, run->params, mem_vm, kLineBytes);
  vm.set_functional(false);
  vm.enable_dedup(cache, 0x5eed);
  for (std::uint64_t b = 0; b < run->launch.num_blocks(); ++b) {
    expect_traces_equal(ref.run_block(b), vm.run_block(b),
                        "corr_kernel block " + std::to_string(b));
    if (b == 0) {
      // The generation block itself mixes renders and VM runs.
      EXPECT_GT(vm.warps_rendered(), 0u);
      EXPECT_GT(vm.warps_executed(), 0u);
    }
  }
  expect_sites_equal(ref.sites(), vm.sites(), "corr_kernel");
}

TEST(VmPurity, AtaxIsTracePureBfsIsNot) {
  const wl::Workload atax = wl::make_atax(2);
  for (const ir::Kernel& k : atax.kernels) {
    EXPECT_TRUE(bc::trace_data_independent(k)) << k.name;
  }
  // BFS consumes loaded frontier/edge values in branches and indexes.
  const wl::Workload bfs = wl::make_bfs(2);
  bool any_impure = false;
  for (const ir::Kernel& k : bfs.kernels) {
    any_impure = any_impure || !bc::trace_data_independent(k);
  }
  EXPECT_TRUE(any_impure);
}

}  // namespace
}  // namespace catt::sim

// Golden-trace regression tests for the bytecode warp VM (bytecode.hpp)
// and the homogeneous-warp trace dedup (dedup.hpp): both must reproduce
// the reference tree-walk interpreter's traces bit for bit — same event
// sequence, compute cycles, site ids, and coalesced transactions — for
// every registered workload kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "frontend/parser.hpp"
#include "gpusim/bytecode.hpp"
#include "gpusim/dedup.hpp"
#include "gpusim/interp.hpp"
#include "ref_interp.hpp"
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
      ASSERT_EQ(re.lane_work(i), ge.lane_work(i)) << at;
      if (re.kind(i) != EventKind::kMem) continue;
      const std::vector<Txn> rt = replayed_txns(re, i, kLineBytes);
      const std::vector<Txn> gt = replayed_txns(ge, i, kLineBytes);
      ASSERT_EQ(rt.size(), gt.size()) << at;
      for (std::size_t t = 0; t < rt.size(); ++t) {
        ASSERT_EQ(rt[t].line, gt[t].line) << at << " txn " << t;
        ASSERT_EQ(rt[t].sectors, gt[t].sectors) << at << " txn " << t;
      }
    }
    ASSERT_TRUE(re.div() == ge.div()) << label << " warp " << w << " divergence counters";
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
      RefKernelInterp ref(k, run.launch, run.params, mem_ref);
      KernelInterp vm(k, run.launch, run.params, mem_vm);
      for (std::uint64_t b : sample_blocks(run.launch.num_blocks())) {
        expect_traces_equal(ref.run_block(b), vm.run_block(b),
                            label + " block " + std::to_string(b));
      }
      expect_sites_equal(ref.sites(), vm.sites(), label);
    }
  }
}

// Dedup bit-identity on a pure multi-block kernel: every block's replay of
// the shared traces must equal the reference interpreter's output, and a
// second launch under the same key must replay the cached entry.
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
    RefKernelInterp ref(k, run.launch, run.params, mem_ref);
    KernelInterp vm(k, run.launch, run.params, mem_vm);
    vm.set_functional(false);
    vm.enable_dedup(cache, key);
    for (std::uint64_t b = 0; b < run.launch.num_blocks(); ++b) {
      expect_traces_equal(ref.run_block(b), vm.run_block(b),
                          label + " block " + std::to_string(b));
    }
    expect_sites_equal(ref.sites(), vm.sites(), label);
    // Every atax warp symbolizes, so the generation block replays the
    // shared traces too, and the second launch replays them from the
    // cached entry: no warp of either launch runs on the VM.
    EXPECT_EQ(vm.warps_executed(), 0u) << label;
    EXPECT_EQ(vm.warps_shared(),
              run.launch.num_blocks() * static_cast<std::uint64_t>(vm.warps_per_block()))
        << label;
  }
}

// Symbolize-first on a generation block that mixes proven and Bail'ed
// warps: corr_kernel's warps are partly block-affine, so its first block
// fixes the site ids of some shared traces and runs the rest on the VM, in
// warp order. Both blocks' traces and the site table (ids in
// first-encounter order) must match the reference interpreter bit for bit.
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
  RefKernelInterp ref(k, run->launch, run->params, mem_ref);
  KernelInterp vm(k, run->launch, run->params, mem_vm);
  vm.set_functional(false);
  vm.enable_dedup(cache, 0x5eed);
  for (std::uint64_t b = 0; b < run->launch.num_blocks(); ++b) {
    expect_traces_equal(ref.run_block(b), vm.run_block(b),
                        "corr_kernel block " + std::to_string(b));
    if (b == 0) {
      // The generation block itself mixes shared traces and VM runs.
      EXPECT_GT(vm.warps_shared(), 0u);
      EXPECT_GT(vm.warps_executed(), 0u);
    }
  }
  expect_sites_equal(ref.sites(), vm.sites(), "corr_kernel");
}

/// Runs every block of `k` under a fresh dedup key and checks each block's
/// replayed traces and the site table against the reference interpreter.
/// Returns the interpreter's (shared, executed) warp counts.
std::pair<std::uint64_t, std::uint64_t> expect_dedup_matches_reference(
    const ir::Kernel& k, const arch::LaunchConfig& launch, const expr::ParamEnv& params,
    const std::function<void(DeviceMemory&)>& setup, const std::string& label) {
  DeviceMemory mem_ref;
  DeviceMemory mem_vm;
  setup(mem_ref);
  setup(mem_vm);
  dedup::TraceDedup cache;
  RefKernelInterp ref(k, launch, params, mem_ref);
  KernelInterp vm(k, launch, params, mem_vm);
  vm.set_functional(false);
  vm.enable_dedup(cache, 0xb10c);
  for (std::uint64_t b = 0; b < launch.num_blocks(); ++b) {
    expect_traces_equal(ref.run_block(b), vm.run_block(b), label + " block " + std::to_string(b));
  }
  expect_sites_equal(ref.sites(), vm.sites(), label);
  return {vm.warps_shared(), vm.warps_executed()};
}

// A sector-aligned stride that is not line-aligned, like syr2k's C[i*N+j]
// under 16-wide blocks (dx = 16 floats = 64 B): one shared trace serves
// every block, and replay regroups the translated sectors into lines per
// block. The +8 load straddles a line boundary in odd blockIdx.x columns
// only, so one event replays to a different transaction count per block.
TEST(VmDedup, LineCrossingSectorStrideReplaysLikeReference) {
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void k(float *A, float *C, int N) {
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    C[i * N + j] = A[i * N + j + 8] * 2.0f;
}
)");
  ASSERT_TRUE(bc::trace_data_independent(k));
  const arch::LaunchConfig launch{{4, 3}, {16, 16}};
  const int n = 64;
  const auto setup = [&](DeviceMemory& mem) {
    mem.alloc_f32("A", static_cast<std::size_t>(n) * 48 + 8, 1.0f);
    mem.alloc_f32("C", static_cast<std::size_t>(n) * 48, 0.0f);
  };
  const auto [shared, executed] =
      expect_dedup_matches_reference(k, launch, {{"N", n}}, setup, "line-crossing");
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(shared, launch.num_blocks() * static_cast<std::uint64_t>(launch.warps_per_block(32)));

  // Block (0,0): each row's 16 loaded floats sit in one line; block (1,0):
  // they straddle two.
  DeviceMemory mem;
  setup(mem);
  dedup::TraceDedup cache;
  KernelInterp vm(k, launch, {{"N", n}}, mem);
  vm.set_functional(false);
  vm.enable_dedup(cache, 1);
  const auto load_txns = [&](const WarpTrace& t) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t.kind(i) == EventKind::kMem && !t.is_store(i)) return replayed_txns(t, i, kLineBytes).size();
    }
    return std::size_t{0};
  };
  EXPECT_EQ(load_txns(vm.run_block(0)[0]), 2u);
  EXPECT_EQ(load_txns(vm.run_block(1)[0]), 4u);
}

// A per-block delta that is not a whole sector (12 B per blockIdx.x) fails
// the proof, whether the access is a full warp's (warp 0) or one lane's
// (warp 1): both warps run on the VM in every block, output unchanged.
TEST(VmDedup, SectorMisalignedStrideFallsBackToVm) {
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void k(float *A, float *B, int N) {
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    if (threadIdx.x < 32) {
        B[t] = A[blockIdx.x * 3 + threadIdx.x];
    } else {
        if (threadIdx.x == 32) {
            B[t] = A[blockIdx.x * 3];
        }
    }
}
)");
  ASSERT_TRUE(bc::trace_data_independent(k));
  const arch::LaunchConfig launch{{8}, {64}};
  const auto setup = [](DeviceMemory& mem) {
    mem.alloc_f32("A", 8 * 3 + 32, 1.0f);
    mem.alloc_f32("B", 8 * 64, 0.0f);
  };
  const auto [shared, executed] =
      expect_dedup_matches_reference(k, launch, {{"N", 8}}, setup, "misaligned");
  EXPECT_EQ(shared, 0u);
  EXPECT_EQ(executed, launch.num_blocks() * 2);
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

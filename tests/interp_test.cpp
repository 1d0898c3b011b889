// Tests for the functional SIMT interpreter: correctness against CPU
// references, divergence masking, shared memory, coalescing in traces,
// and bounds checking.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "frontend/parser.hpp"
#include "gpusim/interp.hpp"

namespace catt::sim {
namespace {

TEST(Interp, AtaxMatchesCpuReference) {
  const int nx = 256;
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void atax1(float *A, float *x, float *tmp, int NX) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NX; j++) {
            tmp[i] += A[i * NX + j] * x[j];
        }
    }
}
)");
  DeviceMemory mem;
  std::vector<float> a(static_cast<std::size_t>(nx) * nx);
  std::vector<float> x(static_cast<std::size_t>(nx));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>((i * 7) % 11) * 0.25f;
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>((i * 3) % 5) * 0.5f;
  mem.alloc_f32("A", a);
  mem.alloc_f32("x", x);
  mem.alloc_f32("tmp", static_cast<std::size_t>(nx), 0.0f);

  const arch::LaunchConfig launch{{1}, {256}};
  KernelInterp interp(k, launch, {{"NX", nx}}, mem);
  interp.run_block(0);

  for (int i = 0; i < nx; ++i) {
    float ref = 0.0f;
    for (int j = 0; j < nx; ++j) {
      ref += a[static_cast<std::size_t>(i) * nx + j] * x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(mem.f32("tmp")[static_cast<std::size_t>(i)], ref, 1e-3f) << "row " << i;
  }
}

TEST(Interp, DivergentGuardMasksLanes) {
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(float *out, int N) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i % 2 == 0) {
        out[i] = 1.0f;
    } else {
        out[i] = 2.0f;
    }
}
)");
  DeviceMemory mem;
  mem.alloc_f32("out", 64, 0.0f);
  const arch::LaunchConfig launch{{1}, {64}};
  KernelInterp interp(k, launch, {{"N", 64}}, mem);
  interp.run_block(0);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(mem.f32("out")[static_cast<std::size_t>(i)], i % 2 == 0 ? 1.0f : 2.0f);
  }
}

TEST(Interp, PerLaneLoopTripCounts) {
  // Lane i iterates i times: out[i] = i.
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(float *out, int N) {
    int i = threadIdx.x;
    float acc = 0.0f;
    for (int j = 0; j < i; j++) {
        acc += 1.0f;
    }
    out[i] = acc;
}
)");
  DeviceMemory mem;
  mem.alloc_f32("out", 32, -1.0f);
  KernelInterp interp(k, {{1}, {32}}, {{"N", 32}}, mem);
  interp.run_block(0);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(mem.f32("out")[static_cast<std::size_t>(i)], static_cast<float>(i));
  }
}

TEST(Interp, RaggedBlockTail) {
  // 40 threads: second warp has only 8 active lanes.
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(float *out, int N) {
    int i = threadIdx.x;
    out[i] = 3.0f;
}
)");
  DeviceMemory mem;
  mem.alloc_f32("out", 40, 0.0f);
  KernelInterp interp(k, {{1}, {40}}, {{"N", 40}}, mem);
  auto traces = interp.run_block(0);
  EXPECT_EQ(traces.size(), 2u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(mem.f32("out")[static_cast<std::size_t>(i)], 3.0f);
  }
}

TEST(Interp, SharedMemoryWithinWarp) {
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(float *in, float *out, int N) {
    __shared__ float buf[32];
    int i = threadIdx.x;
    buf[i] = in[i] * 2.0f;
    __syncthreads();
    out[i] = buf[31 - i];
}
)");
  DeviceMemory mem;
  std::vector<float> in(32);
  for (int i = 0; i < 32; ++i) in[static_cast<std::size_t>(i)] = static_cast<float>(i);
  mem.alloc_f32("in", in);
  mem.alloc_f32("out", 32, 0.0f);
  KernelInterp interp(k, {{1}, {32}}, {{"N", 32}}, mem);
  interp.run_block(0);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(mem.f32("out")[static_cast<std::size_t>(i)], 2.0f * (31 - i));
  }
}

TEST(Interp, IntegerArraysAndDataDependentIndex) {
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(int *idx, float *data, float *out, int N) {
    int i = threadIdx.x;
    out[i] = data[idx[i]];
}
)");
  DeviceMemory mem;
  std::vector<std::int32_t> idx = {3, 1, 2, 0};
  std::vector<float> data = {10.0f, 11.0f, 12.0f, 13.0f};
  mem.alloc_i32("idx", idx);
  mem.alloc_f32("data", data);
  mem.alloc_f32("out", 4, 0.0f);
  KernelInterp interp(k, {{1}, {4}}, {{"N", 4}}, mem);
  interp.run_block(0);
  EXPECT_EQ(mem.f32("out")[0], 13.0f);
  EXPECT_EQ(mem.f32("out")[1], 11.0f);
  EXPECT_EQ(mem.f32("out")[2], 12.0f);
  EXPECT_EQ(mem.f32("out")[3], 10.0f);
}

TEST(Interp, CoalescingInTraces) {
  // Unit-stride access -> 1 line per warp; stride-32 -> 32 lines per warp.
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(float *A, float *B, float *out, int N) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] = A[i] + B[i * 32];
}
)");
  DeviceMemory mem;
  mem.alloc_f32("A", 32, 1.0f);
  mem.alloc_f32("B", 32 * 32, 2.0f);
  mem.alloc_f32("out", 32, 0.0f);
  KernelInterp interp(k, {{1}, {32}}, {{"N", 32}}, mem);
  auto traces = interp.run_block(0);
  ASSERT_EQ(traces.size(), 1u);

  std::map<std::string, std::size_t> lines_by_array;
  const WarpTrace& t0 = traces[0];
  for (std::size_t i = 0; i < t0.size(); ++i) {
    if (t0.kind(i) == EventKind::kMem && !t0.is_store(i)) {
      lines_by_array[interp.sites()[t0.site(i)].array] =
          t0.for_each_txn(i, /*sectors_per_line=*/4, [](const Txn&) {});
    }
  }
  EXPECT_EQ(lines_by_array.at("A"), 1u);
  EXPECT_EQ(lines_by_array.at("B"), 32u);
}

TEST(Interp, BarrierEventsEmitted) {
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(float *out, int N) {
    out[threadIdx.x] = 0.0f;
    __syncthreads();
    out[threadIdx.x] = 1.0f;
}
)");
  DeviceMemory mem;
  mem.alloc_f32("out", 64, 0.0f);
  KernelInterp interp(k, {{1}, {64}}, {{"N", 64}}, mem);
  auto traces = interp.run_block(0);
  int barriers = 0;
  int ends = 0;
  for (const auto& t : traces) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t.kind(i) == EventKind::kBarrier) ++barriers;
      if (t.kind(i) == EventKind::kEnd) ++ends;
    }
  }
  EXPECT_EQ(barriers, 2);  // one per warp
  EXPECT_EQ(ends, 2);
}

TEST(Interp, OutOfBoundsThrows) {
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(float *out, int N) {
    out[threadIdx.x + N] = 1.0f;
}
)");
  DeviceMemory mem;
  mem.alloc_f32("out", 16, 0.0f);
  KernelInterp interp(k, {{1}, {16}}, {{"N", 16}}, mem);
  EXPECT_THROW(interp.run_block(0), SimError);
}

TEST(Interp, MissingArrayOrParamThrows) {
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(float *out, int N) {
    out[0] = 1.0f;
}
)");
  DeviceMemory mem;
  EXPECT_THROW(KernelInterp(k, {{1}, {16}}, {{"N", 16}}, mem), SimError);
  mem.alloc_f32("out", 16, 0.0f);
  EXPECT_THROW(KernelInterp(k, {{1}, {16}}, {}, mem), SimError);
  KernelInterp ok(k, {{1}, {16}}, {{"N", 16}}, mem);
  EXPECT_THROW(ok.run_block(5), SimError);  // outside grid
}

TEST(Interp, Intrinsics32BitPrecision) {
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(float *out, int N) {
    out[threadIdx.x] = sqrtf(2.0f) + expf(1.0f);
}
)");
  DeviceMemory mem;
  mem.alloc_f32("out", 1, 0.0f);
  KernelInterp interp(k, {{1}, {1}}, {{"N", 1}}, mem);
  interp.run_block(0);
  EXPECT_NEAR(mem.f32("out")[0], std::sqrt(2.0f) + std::exp(1.0f), 1e-5f);
}

TEST(Interp, ComputeEventsCarryCost) {
  const ir::Kernel k = frontend::parse_kernel(R"(
__global__ void g(float *out, int N) {
    float a = 1.0f;
    float b = a * 2.0f + 3.0f;
    out[threadIdx.x] = b;
}
)");
  DeviceMemory mem;
  mem.alloc_f32("out", 32, 0.0f);
  KernelInterp interp(k, {{1}, {32}}, {{"N", 32}}, mem);
  auto traces = interp.run_block(0);
  std::uint64_t compute_cycles = 0;
  for (std::size_t i = 0; i < traces[0].size(); ++i) {
    if (traces[0].kind(i) == EventKind::kCompute) compute_cycles += traces[0].cycles(i);
  }
  EXPECT_GT(compute_cycles, 4u);
}

}  // namespace
}  // namespace catt::sim

// FBANK: polyphase FIR filter bank over a 2D-tiled signal matrix. Each
// block covers a (BANK rows x 32 cols) output tile: warp 0 is a producer
// warp that stages the whole tap table into shared memory (its global
// trace is block-invariant), and warps 1..BANK each convolve one signal
// row of the tile with their bank's taps (coalesced, blockIdx-parametric
// addressing in both grid dimensions).
//
// It is the suite's only producer/consumer warp-specialized kernel, and
// the only one with a warp (the producer) whose trace-dedup sector
// strides are all zero: every other workload indexes every array by
// global id, so block coordinates enter every warp's strides.
//
// Classification: CI. The inner loop's footprint is a couple of cache
// lines per warp (contiguous taps window), far under the L1D, so Eq. 6
// reports no recoverable contention and CATT must leave the kernel alone.
#include "common/rng.hpp"
#include "frontend/parser.hpp"
#include "workloads/workload.hpp"

namespace catt::wl {

namespace {

using arch::Dim3;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.next_float(0.0f, 1.0f);
  return v;
}

}  // namespace

Workload make_fbank(int num_sms) {
  const int taps = 32;   // FIR length (one tap row per bank)
  const int bank = 7;    // consumer warps per block (block is 32x8)
  const int w_cols = 256;
  const int tile_rows = 8 * num_sms;  // grid.y: 8 row tiles per SM
  const int rows = bank * tile_rows;
  static const char* kSrc = R"(
//@regs=24
__global__ void fbank_apply(float *sig, float *taps, float *out, int W, int TAPS, int BANK) {
    __shared__ float cf[224];
    if (threadIdx.y == 0) {
        for (int b = 0; b < BANK; b++) {
            cf[b * 32 + threadIdx.x] = taps[b * 32 + threadIdx.x];
        }
    }
    __syncthreads();
    if (threadIdx.y > 0) {
        int bk = threadIdx.y - 1;
        int row = blockIdx.y * BANK + bk;
        int col = blockIdx.x * 32 + threadIdx.x;
        float acc = 0.0f;
        for (int f = 0; f < TAPS; f++) {
            acc += cf[bk * 32 + f] * sig[row * (W + TAPS) + col + f];
        }
        out[row * W + col] = acc;
    }
}
)";
  Workload w;
  w.name = "fbank";
  w.description = "Polyphase FIR filter bank (producer-warp tap staging)";
  w.group = Group::kCI;
  w.kernels = frontend::parse_program(kSrc);
  const Dim3 block{32, 8};
  const Dim3 grid{static_cast<std::uint32_t>(w_cols / 32),
                  static_cast<std::uint32_t>(tile_rows)};
  const expr::ParamEnv params{{"W", w_cols}, {"TAPS", taps}, {"BANK", bank}};
  // Two passes (analysis + synthesis sweep of the same bank): repeats are
  // separate launches sharing one trace-dedup entry.
  w.schedule = {{"fbank_apply", {grid, block}, params, /*repeats=*/2}};
  w.setup = [rows, w_cols, taps, bank](sim::DeviceMemory& mem) {
    mem.alloc_f32("sig",
                  random_vec(static_cast<std::size_t>(rows) * (w_cols + taps), 0xFB01));
    mem.alloc_f32("taps", random_vec(static_cast<std::size_t>(bank) * 32, 0xFB02));
    mem.alloc_f32("out", static_cast<std::size_t>(rows) * w_cols, 0.0f);
  };
  return w;
}

}  // namespace catt::wl

// Homogeneous-warp trace dedup: block-parametric symbolic execution of a
// compiled bytecode program (bytecode.hpp).
//
// The paper's evaluated kernels are affine and warp-homogeneous, so warp w
// of block (bx,by,bz) usually generates the same event sequence as warp w
// of block (0,0,0) with every address shifted by a constant per-site
// delta. This module proves that property per warp instead of assuming
// it: each warp is executed once symbolically with blockIdx kept as a
// variable, every lane value an affine form b + cx*bx + cy*by + cz*bz.
// The attempt succeeds only if every branch/loop decision is uniform over
// the whole grid, every address is affine with lane-uniform coefficients,
// and every bounds check holds over the whole grid box. Warps that fail
// any condition (or touch anything non-affine) fall back to the concrete
// VM per block, so the result is bit-identical by construction, never
// heuristic. Symbolization runs before the first block under a key, so
// no block is executed concretely only to be re-derived.
//
// A symbolic pass costs about two concrete block runs and a render about
// a quarter of one, so dedup pays only from the third block under a key;
// the runner leaves the key at 0 (dedup off) below that.
//
// The cache is keyed by (kernel fingerprint, launch config, block-
// invariant params) — see PlanEntry::trace_key in the runner — and lives
// inside one Gpu (device-array base addresses are stable for its
// lifetime), so launches repeated within a plan run re-use both the site
// table and the parametric traces.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "arch/launch.hpp"
#include "gpusim/bytecode.hpp"
#include "gpusim/trace.hpp"

namespace catt::sim::dedup {

/// One event of a block-parametric warp trace. kMem events carry the
/// byte-address vector for block (0,0,0) (sorted) plus the per-block-
/// coordinate byte deltas; rendering adds the delta and redoes the
/// sector/line coalescing (the delta need not be sector-aligned).
struct ParamEvent {
  EventKind kind = EventKind::kCompute;
  std::uint32_t cycles = 0;                // kCompute
  std::uint32_t lanes = 0;                 // lane work (see WarpTrace::lane_work)
  std::int32_t slot = -1;                  // kMem: Program site slot
  bool is_store = false;                   // kMem
  std::int64_t dx = 0, dy = 0, dz = 0;     // kMem: byte delta per block coord
  std::vector<std::uint64_t> base_addrs;   // kMem: sorted byte addrs at (0,0,0)
};

struct ParamWarpTrace {
  bool valid = false;  // false => render impossible, use the concrete VM
  std::vector<ParamEvent> events;
  // Divergence counters are block-invariant for a provably-affine warp:
  // cond_mask() bails unless every branch decision is uniform over the
  // grid, so the mask history (and thus these counters and every event's
  // lane work) is identical in all rendered blocks.
  simt::DivCounters div;
};

/// Cached state for one (kernel, launch, params) fingerprint. The site
/// table is shared by renders and VM fallbacks so id assignment keeps the
/// interpreter's first-dynamic-encounter order across launches.
struct DedupEntry {
  bool generated = false;
  std::vector<ParamWarpTrace> warps;  // indexed by warp id within a block
  bc::SiteTable table;
};

/// Per-Gpu cache of dedup entries, keyed by the runner's trace key.
class TraceDedup {
 public:
  DedupEntry& entry(std::uint64_t key) { return entries_[key]; }

 private:
  std::map<std::uint64_t, DedupEntry> entries_;
};

/// Attempts block-parametric symbolic execution of every warp of a block.
/// Always returns one ParamWarpTrace per warp; a warp that cannot be
/// proven block-affine comes back invalid. If the kernel uses shared
/// memory and any warp fails, all warps are invalidated (warps read
/// shared data written by earlier warps of the same block, so a concrete
/// fallback warp would invalidate the symbolic shared state behind it).
std::vector<ParamWarpTrace> symbolize(const bc::Program& prog, const arch::LaunchConfig& launch);

/// Renders one parametric warp trace for a concrete block. `table`
/// resolves site slots to ids; the generation block's renders and VM
/// fallbacks assign them, in warp order, so later blocks only read it.
/// Transactions land in `pool` (shared by the block's warps).
WarpTrace render(const ParamWarpTrace& pt, const bc::Program& prog, bc::SiteTable& table,
                 const arch::Dim3& block_idx, int line_bytes,
                 const std::shared_ptr<TxnPool>& pool);

}  // namespace catt::sim::dedup

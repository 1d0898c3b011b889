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
// the whole grid, every address is affine with lane-uniform coefficients
// whose per-block byte deltas are whole 32 B sectors, and every bounds
// check holds over the whole grid box. A proven warp is compiled straight
// into the shared trace format (trace.hpp) with per-block sector strides,
// and every block replays that one trace in place. Warps that fail
// any condition (or touch anything non-affine) fall back to the concrete
// VM per block, so the result is bit-identical by construction, never
// heuristic. Symbolization runs before the first block under a key, so
// no block is executed concretely only to be re-derived.
//
// A symbolic pass costs about two concrete block runs and a shared warp
// next to nothing, so dedup pays only from the third block under a key;
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
#include <memory>
#include <vector>

#include "arch/launch.hpp"
#include "gpusim/bytecode.hpp"
#include "gpusim/trace.hpp"

namespace catt::sim::dedup {

/// One warp's block-parametric trace, in the shared trace format
/// (trace.hpp): every kMem event carries its sorted, distinct base sectors
/// at block (0,0,0) and the sector strides dedup proved. Divergence
/// counters are block-invariant for a proven warp: cond_mask() bails unless
/// every branch decision is uniform over the grid, so the mask history
/// (and thus these counters and every event's lane work) is identical in
/// all blocks.
struct ParamWarpTrace {
  std::shared_ptr<TraceData> trace;  // null => not proven, run on the VM
  /// Program site slot of each kMem event, in event order, until
  /// fix_sites() turns them into site ids.
  std::vector<std::int32_t> slots;
  bool sites_fixed = false;
};

/// Cached state for one (kernel, launch, params) fingerprint. The site
/// table is shared by proven warps and VM fallbacks so id assignment keeps
/// the interpreter's first-dynamic-encounter order across launches.
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

/// Resolves a proven warp's site slots to ids through `table`, in event
/// order. The generation block calls it for each proven warp in warp
/// order, interleaved with the VM fallbacks, so the numbering is the VM's
/// first-dynamic-encounter numbering; afterwards the trace is immutable.
void fix_sites(ParamWarpTrace& pt, const bc::Program& prog, bc::SiteTable& table);

}  // namespace catt::sim::dedup

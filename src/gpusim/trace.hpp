// Per-warp execution traces: the timed events the SM model replays. The
// functional interpreter (interp.hpp) hands out one trace per warp of each
// resident thread block, so memory stays bounded by occupancy rather than
// grid size.
//
// One format serves every producer. A WarpTrace is a handle on shared,
// immutable TraceData (the event columns) plus the coordinates of the block
// it replays for. Each kMem event stores its sorted, distinct 32 B base
// sectors and its per-block sector strides (sx, sy, sz): in block
// (bx, by, bz) the event touches base + sx*bx + sy*by + sz*bz. The bytecode
// VM emits zero strides (its trace is concrete for one block); trace dedup
// (dedup.hpp) emits the strides it proved, so every block of a key replays
// the same TraceData in place and a handle is a refcount bump. Sectors are
// grouped into cache-line transactions at replay (for_each_txn), so traces
// do not depend on the line size.
//
// Events are stored structure-of-arrays: the replay loop touches
// kind/payload columns as parallel flat vectors, and the sectors of all of
// a trace's memory events live in one flat array of 32-bit sector ids the
// events index into.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/launch.hpp"
#include "gpusim/simt.hpp"

namespace catt::sim {

enum class EventKind : std::uint8_t {
  kCompute,  // ALU/SFU work: warp busy for `cycles`
  kMem,      // one global-memory instruction, post-coalescing
  kBarrier,  // __syncthreads()
  kEnd,      // warp finished the kernel
};

/// One coalesced memory transaction: a cache line plus how many of its
/// 32 B sectors the warp actually touches (1..line/32). Misses are charged
/// DRAM bandwidth per sector (Volta's sectored fills), so divergent
/// accesses cost less bandwidth per line than coalesced ones.
struct Txn {
  std::uint64_t line = 0;
  std::uint8_t sectors = 1;
};

/// Per-block sector strides of one kMem event.
struct SectorStride {
  std::int64_t sx = 0, sy = 0, sz = 0;
};

/// The event columns of one warp trace. Built once by a producer, then
/// shared read-only by every WarpTrace handle on it.
class TraceData {
 public:
  std::size_t size() const { return kind_.size(); }
  EventKind kind(std::size_t i) const { return static_cast<EventKind>(kind_[i]); }
  std::uint32_t cycles(std::size_t i) const { return cycles_[i]; }
  std::uint16_t site(std::size_t i) const { return site_[i]; }
  bool is_store(std::size_t i) const { return store_[i] != 0; }
  std::uint32_t lane_work(std::size_t i) const { return lanes_[i]; }
  /// Base sectors of event `i` (empty unless kMem), ascending and distinct.
  /// Sector ids fit 32 bits because DeviceMemory caps the device address
  /// space at kAddressSpace = 2^37 bytes.
  const std::uint32_t* sectors_begin(std::size_t i) const { return sectors_.data() + first_[i]; }
  const std::uint32_t* sectors_end(std::size_t i) const {
    return sectors_.data() + (i + 1 < first_.size() ? first_[i + 1] : sectors_.size());
  }
  /// Zero for every event of a trace that is concrete for one block.
  SectorStride stride(std::size_t i) const {
    return i < strides_.size() ? strides_[i] : SectorStride{};
  }
  const simt::DivCounters& div() const { return div_; }

  // ---- emission ----

  /// Appends compute work under `active` lanes, merging into a directly
  /// preceding kCompute event (the interpreters' event-merge rule). The
  /// lane-work column merges additively, so the merged event's lane work
  /// stays the exact sum of cycles x active over the ops it covers even
  /// when the active mask changed between them.
  void push_compute(std::uint32_t cycles, std::uint32_t active) {
    if (!kind_.empty() && kind_.back() == static_cast<std::uint8_t>(EventKind::kCompute)) {
      cycles_.back() += cycles;
      lanes_.back() += cycles * active;
      return;
    }
    push_row(EventKind::kCompute, cycles, 0, false, cycles * active);
  }

  /// Appends a kMem event. `sorted` holds the instruction's `n` lane
  /// sectors (byte address / 32) in non-decreasing order; duplicates are
  /// dropped here. `lanes` is the pre-coalescing lane-access count and
  /// `stride` the sector strides per block coordinate (zero for a trace
  /// that is concrete for one block).
  void push_mem(std::uint16_t site, bool is_store, std::uint32_t lanes,
                const std::uint64_t* sorted, std::size_t n, const SectorStride& stride = {}) {
    push_row(EventKind::kMem, 0, site, is_store, lanes);
    for (std::size_t k = 0; k < n; ++k) {
      if (k == 0 || sorted[k] != sorted[k - 1]) {
        sectors_.push_back(static_cast<std::uint32_t>(sorted[k]));
      }
    }
    if (stride.sx != 0 || stride.sy != 0 || stride.sz != 0) {
      strides_.resize(size());
      strides_.back() = stride;
    }
  }

  void push_barrier() { push_row(EventKind::kBarrier, 0, 0, false, 0); }
  void push_end() { push_row(EventKind::kEnd, 0, 0, false, 0); }
  void set_div(const simt::DivCounters& d) { div_ = d; }
  /// Rewrites the site id of event `i` (dedup fixes a shared trace's ids
  /// once, in the generation block, before any handle replays it).
  void set_site(std::size_t i, std::uint16_t site) { site_[i] = site; }

 private:
  void push_row(EventKind k, std::uint32_t cycles, std::uint16_t site, bool store,
                std::uint32_t lanes) {
    kind_.push_back(static_cast<std::uint8_t>(k));
    store_.push_back(store ? 1 : 0);
    site_.push_back(site);
    cycles_.push_back(cycles);
    lanes_.push_back(lanes);
    first_.push_back(static_cast<std::uint32_t>(sectors_.size()));
  }

  std::vector<std::uint8_t> kind_;
  std::vector<std::uint8_t> store_;
  std::vector<std::uint16_t> site_;
  std::vector<std::uint32_t> cycles_;
  std::vector<std::uint32_t> lanes_;
  std::vector<std::uint32_t> first_;  // event i's sectors: [first_[i], first_[i+1])
  std::vector<std::uint32_t> sectors_;
  /// Per event, up to the last event with a non-zero stride; empty for a
  /// concrete trace, so the VM's traces pay nothing for it.
  std::vector<SectorStride> strides_;
  simt::DivCounters div_;
};

/// One warp's timed event sequence for one block: shared TraceData plus
/// the block coordinates its memory events are translated by. Copies are
/// refcount bumps; the replay side only reads.
class WarpTrace {
 public:
  WarpTrace() = default;
  explicit WarpTrace(std::shared_ptr<const TraceData> data, const arch::Dim3& block = {0, 0, 0})
      : data_(std::move(data)), bx_(block.x), by_(block.y), bz_(block.z) {}

  std::size_t size() const { return data_ ? data_->size() : 0; }
  bool empty() const { return size() == 0; }
  EventKind kind(std::size_t i) const { return data_->kind(i); }
  std::uint32_t cycles(std::size_t i) const { return data_->cycles(i); }
  std::uint16_t site(std::size_t i) const { return data_->site(i); }
  bool is_store(std::size_t i) const { return data_->is_store(i); }

  /// Per-lane work of event `i`: for kCompute, cycles x active lanes
  /// summed over the merged ops; for kMem, the lane accesses the
  /// instruction(s) issued before coalescing. Zero for barriers/end.
  std::uint32_t lane_work(std::size_t i) const { return data_->lane_work(i); }

  /// Divergence counters accumulated while the trace was built (identical
  /// whether it came from the VM, the reference interpreter, or dedup).
  const simt::DivCounters& div() const { return data_->div(); }

  /// Replays kMem event `i` for this handle's block: translates the base
  /// sectors by the block's stride sum, groups consecutive sectors of one
  /// line into a transaction and calls `f(const Txn&)` per transaction in
  /// ascending line order. Returns the transaction count — the paper's
  /// "off-chip memory requests (after coalescing)" (Figure 2's Y value).
  template <typename F>
  std::uint32_t for_each_txn(std::size_t i, std::uint64_t sectors_per_line, F&& f) const {
    const std::uint32_t* s = data_->sectors_begin(i);
    const std::uint32_t* const end = data_->sectors_end(i);
    if (s == end) return 0;
    // Wrapping arithmetic: strides may be negative, and every translated
    // sector is in bounds (dedup proved it), so the sum is exact mod 2^64.
    const SectorStride st = data_->stride(i);
    const std::uint64_t delta = static_cast<std::uint64_t>(st.sx) * bx_ +
                                static_cast<std::uint64_t>(st.sy) * by_ +
                                static_cast<std::uint64_t>(st.sz) * bz_;
    Txn txn{(*s + delta) / sectors_per_line, 1};
    // Sectors ascend, so a transaction ends at the first sector at or past
    // its line's end: one division per line, not per sector.
    std::uint64_t line_end = (txn.line + 1) * sectors_per_line;
    std::uint32_t n = 1;
    for (++s; s != end; ++s) {
      const std::uint64_t sector = *s + delta;
      if (sector < line_end) {
        ++txn.sectors;
        continue;
      }
      f(static_cast<const Txn&>(txn));
      ++n;
      txn = {sector / sectors_per_line, 1};
      line_end = (txn.line + 1) * sectors_per_line;
    }
    f(static_cast<const Txn&>(txn));
    return n;
  }

  /// Drops this handle's reference (finished warps are never replayed).
  void release() { data_.reset(); }

 private:
  std::shared_ptr<const TraceData> data_;
  std::uint32_t bx_ = 0, by_ = 0, bz_ = 0;
};

/// Static memory-instruction site (for reports and Figure 2 labels).
struct MemSite {
  std::string array;
  std::string index_text;
  bool is_store = false;
};

}  // namespace catt::sim

#include "gpusim/dedup.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>

#include "common/error.hpp"

namespace catt::sim::dedup {

namespace {

using bc::Ins;
using bc::kWarp;
using bc::Mask;
using bc::Op;
using bc::Program;

using I128 = __int128;

std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}
std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
}

/// Thrown when a warp cannot be proven block-affine; caught per warp.
struct Bail {};

/// Per-lane integer affine form over block coordinates:
/// value(l) = b[l] + cx[l]*bx + cy[l]*by + cz[l]*bz. Lanes in `poison`
/// hold unknown values (loaded data, non-affine results); they may flow
/// through arithmetic but must never reach a trace-relevant decision.
struct SInt {
  std::array<std::int64_t, kWarp> b{}, cx{}, cy{}, cz{};
  Mask poison = 0;
};

/// Per-lane float vector; block-dependent floats are simply poisoned
/// (float values never need to stay affine: they only matter when they
/// reach a comparison, and then they must be block-invariant anyway).
struct SFlt {
  std::array<double, kWarp> v{};
  Mask poison = 0;
};

/// Scalar symbolic values for shared-memory cells.
struct SSca {
  std::int64_t b = 0, cx = 0, cy = 0, cz = 0;
  bool poison = false;
};
struct SFSca {
  double v = 0.0;
  bool poison = false;
};

struct SymRec {
  std::int32_t slot;
  bool is_store;
  std::int64_t sx, sy, sz;  // sector strides; uniform across all accesses
  bool have_delta;
  std::vector<std::uint64_t> sectors;  // lane sectors at block (0,0,0)
};

class Symbolic {
 public:
  Symbolic(const Program& prog, const arch::LaunchConfig& launch)
      : p_(prog), launch_(launch) {
    ex_ = static_cast<std::int64_t>(launch.grid.x) - 1;
    ey_ = static_cast<std::int64_t>(launch.grid.y) - 1;
    ez_ = static_cast<std::int64_t>(launch.grid.z) - 1;
    si_.assign(static_cast<std::size_t>(p_.n_iregs), {});
    sf_.assign(static_cast<std::size_t>(p_.n_fregs), {});
    for (const auto& [reg, v] : p_.const_i) si_[reg].b.fill(v);
    for (const auto& [reg, v] : p_.const_f) sf_[reg].v.fill(v);
    // blockIdx registers carry unit coefficients on their own axis.
    si_[Program::kBidX].cx.fill(1);
    si_[Program::kBidY].cy.fill(1);
    si_[Program::kBidZ].cz.fill(1);
    shi_.resize(p_.shared.size());
    shf_.resize(p_.shared.size());
    for (std::size_t s = 0; s < p_.shared.size(); ++s) {
      const auto count = static_cast<std::size_t>(p_.shared[s].count);
      if (p_.shared[s].type == ir::ElemType::kF32) {
        shf_[s].assign(count, {});
      } else {
        shi_[s].assign(count, {});
      }
    }
  }

  ParamWarpTrace run_warp(int wid);

 private:
  // ---- affine range analysis over the grid box ----

  bool bdep(const SInt& a, int l) const {
    return a.cx[l] != 0 || a.cy[l] != 0 || a.cz[l] != 0;
  }

  I128 lo(const SInt& a, int l) const {
    I128 v = a.b[l];
    v += std::min<I128>(0, I128(a.cx[l]) * ex_);
    v += std::min<I128>(0, I128(a.cy[l]) * ey_);
    v += std::min<I128>(0, I128(a.cz[l]) * ez_);
    return v;
  }
  I128 hi(const SInt& a, int l) const {
    I128 v = a.b[l];
    v += std::max<I128>(0, I128(a.cx[l]) * ex_);
    v += std::max<I128>(0, I128(a.cy[l]) * ey_);
    v += std::max<I128>(0, I128(a.cz[l]) * ez_);
    return v;
  }

  /// Truth value of lane `l` if it is the same for every block; nullopt
  /// when the lane is poisoned or the sign of the value is block-dependent.
  std::optional<bool> truth(const SInt& a, int l) const {
    if (a.poison & (1u << l)) return std::nullopt;
    if (!bdep(a, l)) return a.b[l] != 0;
    const I128 l_ = lo(a, l);
    const I128 h_ = hi(a, l);
    if (l_ > 0 || h_ < 0) return true;
    if (l_ == 0 && h_ == 0) return false;
    return std::nullopt;
  }

  /// Uniform truth of a condition register over the active mask; bails if
  /// any active lane's truth depends on the block.
  Mask cond_mask(const Ins& ins, Mask active) const {
    Mask out = 0;
    if ((ins.t & 2) != 0) {
      const SFlt& a = sf_[ins.a];
      for (Mask m = active; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        if (a.poison & (1u << l)) throw Bail{};
        if (a.v[l] != 0.0) out |= 1u << l;
      }
      return out;
    }
    const SInt& a = si_[ins.a];
    for (Mask m = active; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const auto t = truth(a, l);
      if (!t) throw Bail{};
      if (*t) out |= 1u << l;
    }
    return out;
  }

  // ---- trace event capture ----

  SymRec& rec_for(std::int32_t slot, bool is_store) {
    for (auto& r : recs_) {
      if (r.slot == slot && r.is_store == is_store) return r;
    }
    recs_.push_back({slot, is_store, 0, 0, 0, false, {}});
    return recs_.back();
  }

  void flush() {
    for (auto& r : recs_) {
      std::sort(r.sectors.begin(), r.sectors.end());
      // Pre-dedup lane accesses: identical to the concrete VM's count
      // (one address per active lane per instruction). The site id is
      // fixed later, from the slot, in the generation block's warp order.
      out_->trace->push_mem(0, r.is_store, static_cast<std::uint32_t>(r.sectors.size()),
                            r.sectors.data(), r.sectors.size(), {r.sx, r.sy, r.sz});
      out_->slots.push_back(r.slot);
    }
    recs_.clear();
  }

  /// Records one global access: index must be affine and in bounds over
  /// the whole grid box, with lane-uniform block coefficients per record
  /// whose byte deltas are whole 32 B sectors (so every block's sectors
  /// are the base sectors plus one stride sum, and replay needs no
  /// per-lane work).
  void record_access(const Ins& ins, Mask active, bool is_store) {
    const bc::SiteSlot& slot = p_.sites[static_cast<std::size_t>(ins.x)];
    const DeviceArray& arr = *slot.array;
    const auto count = static_cast<I128>(arr.count());
    const auto elem = static_cast<std::int64_t>(ir::elem_size(arr.type));
    SymRec& rec = rec_for(ins.x, is_store);
    const SInt& idx = si_[ins.a];
    for (Mask m = active; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      if (idx.poison & (1u << l)) throw Bail{};
      if (lo(idx, l) < 0 || hi(idx, l) >= count) throw Bail{};
      const std::int64_t dx = wrap_mul(idx.cx[l], elem);
      const std::int64_t dy = wrap_mul(idx.cy[l], elem);
      const std::int64_t dz = wrap_mul(idx.cz[l], elem);
      if (!rec.have_delta) {
        if (dx % 32 != 0 || dy % 32 != 0 || dz % 32 != 0) throw Bail{};
        rec.sx = dx / 32;
        rec.sy = dy / 32;
        rec.sz = dz / 32;
        rec.have_delta = true;
      } else if (rec.sx * 32 != dx || rec.sy * 32 != dy || rec.sz * 32 != dz) {
        throw Bail{};
      }
      rec.sectors.push_back(
          (arr.base + static_cast<std::uint64_t>(idx.b[l]) * static_cast<std::uint64_t>(elem)) / 32);
    }
  }

  /// Concrete, block-invariant lane value — shared-memory indices must be
  /// this strong (the buffer is addressed identically in every block).
  std::int64_t concrete(const SInt& a, int l) const {
    if ((a.poison & (1u << l)) || bdep(a, l)) throw Bail{};
    return a.b[l];
  }

  const Program& p_;
  const arch::LaunchConfig& launch_;
  std::int64_t ex_ = 0, ey_ = 0, ez_ = 0;
  std::vector<SInt> si_;
  std::vector<SFlt> sf_;
  std::vector<std::vector<SSca>> shi_;
  std::vector<std::vector<SFSca>> shf_;
  std::vector<SymRec> recs_;
  ParamWarpTrace* out_ = nullptr;
};

ParamWarpTrace Symbolic::run_warp(int wid) {
  ParamWarpTrace pt;
  pt.trace = std::make_shared<TraceData>();
  out_ = &pt;
  recs_.clear();

  for (const std::uint16_t r : p_.var_iregs) si_[r] = {};
  for (const std::uint16_t r : p_.var_fregs) sf_[r] = {};

  const std::uint64_t threads = launch_.block.count();
  Mask full = 0;
  SInt& tx = si_[Program::kTidX];
  SInt& ty = si_[Program::kTidY];
  SInt& tz = si_[Program::kTidZ];
  tx = {};
  ty = {};
  tz = {};
  for (int l = 0; l < kWarp; ++l) {
    const std::uint64_t linear = static_cast<std::uint64_t>(wid) * kWarp + l;
    if (linear < threads) {
      full |= 1u << l;
      const arch::Dim3 t3 = arch::delinearize(linear, launch_.block);
      tx.b[l] = t3.x;
      ty.b[l] = t3.y;
      tz.b[l] = t3.z;
    }
  }

  simt::ReconvStack rs(full);

  std::size_t pc = 0;
  for (;;) {
    const Ins& ins = p_.code[pc];
    // Same invariant as the concrete VM: control ops refine the stack and
    // `continue`, so the active mask is constant within one instruction.
    const Mask cur = rs.active();
    switch (ins.op) {
      case Op::kAddI:
      case Op::kSubI: {
        SInt& d = si_[ins.dst];
        const SInt a = si_[ins.a];
        const SInt b = si_[ins.b];
        const bool sub = ins.op == Op::kSubI;
        for (int l = 0; l < kWarp; ++l) {
          if (sub) {
            d.b[l] = wrap_sub(a.b[l], b.b[l]);
            d.cx[l] = wrap_sub(a.cx[l], b.cx[l]);
            d.cy[l] = wrap_sub(a.cy[l], b.cy[l]);
            d.cz[l] = wrap_sub(a.cz[l], b.cz[l]);
          } else {
            d.b[l] = wrap_add(a.b[l], b.b[l]);
            d.cx[l] = wrap_add(a.cx[l], b.cx[l]);
            d.cy[l] = wrap_add(a.cy[l], b.cy[l]);
            d.cz[l] = wrap_add(a.cz[l], b.cz[l]);
          }
        }
        d.poison = a.poison | b.poison;
        break;
      }
      case Op::kMulI: {
        SInt& d = si_[ins.dst];
        const SInt a = si_[ins.a];
        const SInt b = si_[ins.b];
        Mask poison = a.poison | b.poison;
        for (int l = 0; l < kWarp; ++l) {
          const bool ab = bdep(a, l);
          const bool bb = bdep(b, l);
          if (ab && bb) {
            poison |= 1u << l;  // quadratic in block coords: not affine
            d.b[l] = 0;
            d.cx[l] = d.cy[l] = d.cz[l] = 0;
          } else if (ab) {
            d.b[l] = wrap_mul(a.b[l], b.b[l]);
            d.cx[l] = wrap_mul(a.cx[l], b.b[l]);
            d.cy[l] = wrap_mul(a.cy[l], b.b[l]);
            d.cz[l] = wrap_mul(a.cz[l], b.b[l]);
          } else {
            d.b[l] = wrap_mul(a.b[l], b.b[l]);
            d.cx[l] = wrap_mul(b.cx[l], a.b[l]);
            d.cy[l] = wrap_mul(b.cy[l], a.b[l]);
            d.cz[l] = wrap_mul(b.cz[l], a.b[l]);
          }
        }
        d.poison = poison;
        break;
      }
      case Op::kNegI: {
        SInt& d = si_[ins.dst];
        const SInt a = si_[ins.a];
        for (int l = 0; l < kWarp; ++l) {
          d.b[l] = wrap_sub(0, a.b[l]);
          d.cx[l] = wrap_sub(0, a.cx[l]);
          d.cy[l] = wrap_sub(0, a.cy[l]);
          d.cz[l] = wrap_sub(0, a.cz[l]);
        }
        d.poison = a.poison;
        break;
      }
      case Op::kMinI:
      case Op::kMaxI: {
        SInt& d = si_[ins.dst];
        const SInt a = si_[ins.a];
        const SInt b = si_[ins.b];
        const bool is_max = ins.op == Op::kMaxI;
        Mask poison = a.poison | b.poison;
        for (int l = 0; l < kWarp; ++l) {
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
          d.b[l] = 0;
          if (poison & (1u << l)) continue;
          // Identical coefficients: min/max distributes over the shared
          // affine part. Otherwise resolve by range separation.
          if (a.cx[l] == b.cx[l] && a.cy[l] == b.cy[l] && a.cz[l] == b.cz[l]) {
            d.cx[l] = a.cx[l];
            d.cy[l] = a.cy[l];
            d.cz[l] = a.cz[l];
            d.b[l] = is_max ? std::max(a.b[l], b.b[l]) : std::min(a.b[l], b.b[l]);
          } else if (hi(a, l) <= lo(b, l)) {
            const SInt& w = is_max ? b : a;
            d.b[l] = w.b[l];
            d.cx[l] = w.cx[l];
            d.cy[l] = w.cy[l];
            d.cz[l] = w.cz[l];
          } else if (hi(b, l) <= lo(a, l)) {
            const SInt& w = is_max ? a : b;
            d.b[l] = w.b[l];
            d.cx[l] = w.cx[l];
            d.cy[l] = w.cy[l];
            d.cz[l] = w.cz[l];
          } else {
            poison |= 1u << l;
          }
        }
        d.poison = poison;
        break;
      }
      case Op::kDivI:
      case Op::kModI: {
        SInt& d = si_[ins.dst];
        const SInt a = si_[ins.a];
        const SInt b = si_[ins.b];
        Mask poison = 0;
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          // The divisor decides whether every block faults identically;
          // it must be a known block-invariant value.
          if ((b.poison & (1u << l)) || bdep(b, l)) throw Bail{};
          if (b.b[l] == 0) throw Bail{};  // fallback reproduces the fault
          if ((a.poison & (1u << l)) || bdep(a, l)) {
            poison |= 1u << l;  // floor division is not affine in bx
            d.b[l] = 0;
            d.cx[l] = d.cy[l] = d.cz[l] = 0;
          } else {
            d.b[l] = ins.op == Op::kDivI ? a.b[l] / b.b[l] : a.b[l] % b.b[l];
            d.cx[l] = d.cy[l] = d.cz[l] = 0;
          }
        }
        // Inactive lanes keep stale register contents in the VM; mark them
        // poisoned so nothing trace-relevant can consume them.
        d.poison = poison | (d.poison & ~cur) | ~cur;
        break;
      }
      case Op::kAddF:
      case Op::kSubF:
      case Op::kMulF:
      case Op::kDivF:
      case Op::kMinF:
      case Op::kMaxF: {
        SFlt& d = sf_[ins.dst];
        const SFlt a = sf_[ins.a];
        const SFlt b = sf_[ins.b];
        for (int l = 0; l < kWarp; ++l) {
          double r = 0.0;
          switch (ins.op) {
            case Op::kAddF: r = a.v[l] + b.v[l]; break;
            case Op::kSubF: r = a.v[l] - b.v[l]; break;
            case Op::kMulF: r = a.v[l] * b.v[l]; break;
            case Op::kDivF: r = a.v[l] / b.v[l]; break;
            case Op::kMinF: r = std::min(a.v[l], b.v[l]); break;
            default: r = std::max(a.v[l], b.v[l]); break;
          }
          d.v[l] = static_cast<float>(r);
        }
        d.poison = a.poison | b.poison;
        break;
      }
      case Op::kNegF: {
        SFlt& d = sf_[ins.dst];
        const SFlt a = sf_[ins.a];
        for (int l = 0; l < kWarp; ++l) d.v[l] = -a.v[l];
        d.poison = a.poison;
        break;
      }
      case Op::kCmpI: {
        SInt& d = si_[ins.dst];
        const SInt a = si_[ins.a];
        const SInt b = si_[ins.b];
        const auto op = static_cast<expr::BinOp>(ins.t);
        Mask poison = a.poison | b.poison;
        for (int l = 0; l < kWarp; ++l) {
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
          d.b[l] = 0;
          if (poison & (1u << l)) continue;
          // diff = a - b; the comparison is block-uniform when the sign
          // of diff is determined over the whole grid box.
          SInt diff;
          diff.b[l] = wrap_sub(a.b[l], b.b[l]);
          diff.cx[l] = wrap_sub(a.cx[l], b.cx[l]);
          diff.cy[l] = wrap_sub(a.cy[l], b.cy[l]);
          diff.cz[l] = wrap_sub(a.cz[l], b.cz[l]);
          const I128 dl = lo(diff, l);
          const I128 dh = hi(diff, l);
          std::optional<bool> r;
          using expr::BinOp;
          switch (op) {
            case BinOp::kLt: r = dh < 0 ? std::optional(true) : dl >= 0 ? std::optional(false) : std::nullopt; break;
            case BinOp::kLe: r = dh <= 0 ? std::optional(true) : dl > 0 ? std::optional(false) : std::nullopt; break;
            case BinOp::kGt: r = dl > 0 ? std::optional(true) : dh <= 0 ? std::optional(false) : std::nullopt; break;
            case BinOp::kGe: r = dl >= 0 ? std::optional(true) : dh < 0 ? std::optional(false) : std::nullopt; break;
            case BinOp::kEq: r = (dl == 0 && dh == 0) ? std::optional(true)
                                 : (dl > 0 || dh < 0) ? std::optional(false)
                                                      : std::nullopt; break;
            case BinOp::kNe: r = (dl > 0 || dh < 0) ? std::optional(true)
                                 : (dl == 0 && dh == 0) ? std::optional(false)
                                                        : std::nullopt; break;
            default: r = std::nullopt; break;
          }
          if (!r) {
            poison |= 1u << l;
          } else {
            d.b[l] = *r ? 1 : 0;
          }
        }
        d.poison = poison;
        break;
      }
      case Op::kCmpF: {
        SInt& d = si_[ins.dst];
        const SFlt a = sf_[ins.a];
        const SFlt b = sf_[ins.b];
        const auto op = static_cast<expr::BinOp>(ins.t);
        for (int l = 0; l < kWarp; ++l) {
          bool r = false;
          const double x = a.v[l];
          const double y = b.v[l];
          using expr::BinOp;
          switch (op) {
            case BinOp::kLt: r = x < y; break;
            case BinOp::kLe: r = x <= y; break;
            case BinOp::kGt: r = x > y; break;
            case BinOp::kGe: r = x >= y; break;
            case BinOp::kEq: r = x == y; break;
            case BinOp::kNe: r = x != y; break;
            default: break;
          }
          d.b[l] = r ? 1 : 0;
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
        }
        d.poison = a.poison | b.poison;
        break;
      }
      case Op::kNotI:
      case Op::kBoolI: {
        SInt& d = si_[ins.dst];
        const SInt a = si_[ins.a];
        const bool invert = ins.op == Op::kNotI;
        Mask poison = 0;
        for (int l = 0; l < kWarp; ++l) {
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
          const auto t = truth(a, l);
          if (!t) {
            poison |= 1u << l;
            d.b[l] = 0;
          } else {
            d.b[l] = (*t != invert) ? 1 : 0;
          }
        }
        d.poison = poison;
        break;
      }
      case Op::kNotF:
      case Op::kBoolF: {
        SInt& d = si_[ins.dst];
        const SFlt a = sf_[ins.a];
        const bool invert = ins.op == Op::kNotF;
        for (int l = 0; l < kWarp; ++l) {
          d.b[l] = ((a.v[l] != 0.0) != invert) ? 1 : 0;
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
        }
        d.poison = a.poison;
        break;
      }
      case Op::kAndB:
      case Op::kOrB: {
        SInt& d = si_[ins.dst];
        const SInt a = si_[ins.a];
        const SInt b = si_[ins.b];
        const bool is_or = ins.op == Op::kOrB;
        Mask poison = 0;
        for (int l = 0; l < kWarp; ++l) {
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
          const auto at = truth(a, l);
          const auto bt = truth(b, l);
          if (!at || !bt) {
            poison |= 1u << l;
            d.b[l] = 0;
          } else {
            d.b[l] = (is_or ? (*at || *bt) : (*at && *bt)) ? 1 : 0;
          }
        }
        d.poison = poison;
        break;
      }
      case Op::kLogicalCut: {
        const bool is_or = (ins.t & 1) != 0;
        Mask rhs = 0;
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          std::optional<bool> t;
          if ((ins.t & 2) != 0) {
            const SFlt& a = sf_[ins.a];
            if (a.poison & (1u << l)) throw Bail{};
            t = a.v[l] != 0.0;
          } else {
            t = truth(si_[ins.a], l);
          }
          if (!t) throw Bail{};
          if (*t != is_or) rhs |= 1u << l;
        }
        rs.push_pred(rhs);
        if (rhs == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      }
      case Op::kLogicalEnd: {
        rs.pop_pred();
        const bool is_or = (ins.t & 1) != 0;
        SInt& d = si_[ins.dst];
        Mask poison = 0;
        for (int l = 0; l < kWarp; ++l) {
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
          std::optional<bool> at;
          if ((ins.t & 2) != 0) {
            const SFlt& a = sf_[ins.a];
            at = (a.poison & (1u << l)) ? std::nullopt : std::optional(a.v[l] != 0.0);
          } else {
            at = truth(si_[ins.a], l);
          }
          std::optional<bool> bt;
          if ((ins.t & 4) != 0) {
            const SFlt& b = sf_[ins.b];
            bt = (b.poison & (1u << l)) ? std::nullopt : std::optional(b.v[l] != 0.0);
          } else {
            bt = truth(si_[ins.b], l);
          }
          if (!at || !bt) {
            poison |= 1u << l;
            d.b[l] = 0;
          } else {
            d.b[l] = (is_or ? (*at || *bt) : (*at && *bt)) ? 1 : 0;
          }
        }
        d.poison = poison;
        break;
      }
      case Op::kCvtIF: {
        SFlt& d = sf_[ins.dst];
        const SInt a = si_[ins.a];
        Mask poison = a.poison;
        for (int l = 0; l < kWarp; ++l) {
          if (bdep(a, l)) {
            poison |= 1u << l;  // block-dependent floats are not tracked
            d.v[l] = 0.0;
          } else {
            d.v[l] = static_cast<double>(a.b[l]);
          }
        }
        d.poison = poison;
        break;
      }
      case Op::kCvtFI: {
        SInt& d = si_[ins.dst];
        const SFlt a = sf_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
          if (a.poison & (1u << l)) {
            d.poison |= 1u << l;
            d.b[l] = 0;
          } else {
            d.poison &= ~(1u << l);
            d.b[l] = static_cast<std::int64_t>(a.v[l]);
          }
        }
        break;
      }
      case Op::kCastF: {
        SFlt& d = sf_[ins.dst];
        const SFlt a = sf_[ins.a];
        for (int l = 0; l < kWarp; ++l) d.v[l] = static_cast<float>(a.v[l]);
        d.poison = a.poison;
        break;
      }
      case Op::kCall: {
        SFlt& d = sf_[ins.dst];
        const SFlt a = sf_[ins.a];
        const SFlt b = sf_[ins.b];
        const auto id = static_cast<bc::Intrinsic>(ins.t);
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          double r = 0.0;
          switch (id) {
            case bc::Intrinsic::kSqrtf: r = std::sqrt(a.v[l]); break;
            case bc::Intrinsic::kFabsf: r = std::fabs(a.v[l]); break;
            case bc::Intrinsic::kExpf: r = std::exp(a.v[l]); break;
            case bc::Intrinsic::kLogf: r = std::log(a.v[l]); break;
            case bc::Intrinsic::kPowf: r = std::pow(a.v[l], b.v[l]); break;
            case bc::Intrinsic::kFloorf: r = std::floor(a.v[l]); break;
            case bc::Intrinsic::kFminf: r = std::fmin(a.v[l], b.v[l]); break;
            case bc::Intrinsic::kFmaxf: r = std::fmax(a.v[l], b.v[l]); break;
          }
          d.v[l] = static_cast<float>(r);
          if ((a.poison | b.poison) & (1u << l)) {
            d.poison |= 1u << l;
          } else {
            d.poison &= ~(1u << l);
          }
        }
        break;
      }
      case Op::kWVarII: {
        SInt& d = si_[ins.dst];
        const SInt a = si_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d.b[l] = a.b[l];
          d.cx[l] = a.cx[l];
          d.cy[l] = a.cy[l];
          d.cz[l] = a.cz[l];
          d.poison = (d.poison & ~(1u << l)) | (a.poison & (1u << l));
        }
        break;
      }
      case Op::kWVarIF: {
        SFlt& d = sf_[ins.dst];
        const SInt a = si_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          if ((a.poison & (1u << l)) || bdep(a, l)) {
            d.poison |= 1u << l;
            d.v[l] = 0.0;
          } else {
            d.poison &= ~(1u << l);
            d.v[l] = static_cast<float>(static_cast<double>(a.b[l]));
          }
        }
        break;
      }
      case Op::kWVarFF: {
        SFlt& d = sf_[ins.dst];
        const SFlt a = sf_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d.v[l] = static_cast<float>(a.v[l]);
          d.poison = (d.poison & ~(1u << l)) | (a.poison & (1u << l));
        }
        break;
      }
      case Op::kWVarFI: {
        SInt& d = si_[ins.dst];
        const SFlt a = sf_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d.cx[l] = d.cy[l] = d.cz[l] = 0;
          if (a.poison & (1u << l)) {
            d.poison |= 1u << l;
            d.b[l] = 0;
          } else {
            d.poison &= ~(1u << l);
            d.b[l] = static_cast<std::int64_t>(a.v[l]);
          }
        }
        break;
      }
      case Op::kStepVar: {
        SInt& d = si_[ins.dst];
        const SInt a = si_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d.b[l] = wrap_add(d.b[l], a.b[l]);
          d.cx[l] = wrap_add(d.cx[l], a.cx[l]);
          d.cy[l] = wrap_add(d.cy[l], a.cy[l]);
          d.cz[l] = wrap_add(d.cz[l], a.cz[l]);
          d.poison |= a.poison & (1u << l);
        }
        break;
      }
      case Op::kLoadG: {
        record_access(ins, cur, /*is_store=*/false);
        // Loaded data is unknown; poison the destination lanes.
        if ((ins.t & 1) != 0) {
          sf_[ins.dst].poison |= cur;
        } else {
          si_[ins.dst].poison |= cur;
        }
        break;
      }
      case Op::kStoreG:
        record_access(ins, cur, /*is_store=*/true);
        break;
      case Op::kLoadSh: {
        const SInt& idx = si_[ins.a];
        const auto s = static_cast<std::size_t>(ins.x);
        if (p_.shared[s].type == ir::ElemType::kF32) {
          auto& buf = shf_[s];
          SFlt& d = sf_[ins.dst];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = concrete(idx, l);
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) throw Bail{};
            d.v[l] = buf[static_cast<std::size_t>(x)].v;
            d.poison = (d.poison & ~(1u << l)) |
                       (buf[static_cast<std::size_t>(x)].poison ? (1u << l) : 0);
          }
        } else {
          auto& buf = shi_[s];
          SInt& d = si_[ins.dst];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = concrete(idx, l);
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) throw Bail{};
            const SSca& c = buf[static_cast<std::size_t>(x)];
            d.b[l] = c.b;
            d.cx[l] = c.cx;
            d.cy[l] = c.cy;
            d.cz[l] = c.cz;
            d.poison = (d.poison & ~(1u << l)) | (c.poison ? (1u << l) : 0);
          }
        }
        break;
      }
      case Op::kStoreSh: {
        const SInt& idx = si_[ins.a];
        const auto s = static_cast<std::size_t>(ins.x);
        const bool val_f = (ins.t & 2) != 0;
        if (p_.shared[s].type == ir::ElemType::kF32) {
          auto& buf = shf_[s];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = concrete(idx, l);
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) throw Bail{};
            SFSca c;
            if (val_f) {
              c.v = static_cast<float>(sf_[ins.b].v[l]);
              c.poison = (sf_[ins.b].poison & (1u << l)) != 0;
            } else {
              const SInt& v = si_[ins.b];
              if ((v.poison & (1u << l)) || bdep(v, l)) {
                c.poison = true;
              } else {
                c.v = static_cast<float>(static_cast<double>(v.b[l]));
              }
            }
            buf[static_cast<std::size_t>(x)] = c;
          }
        } else {
          auto& buf = shi_[s];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = concrete(idx, l);
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) throw Bail{};
            SSca c;
            if (val_f) {
              const SFlt& v = sf_[ins.b];
              if (v.poison & (1u << l)) {
                c.poison = true;
              } else {
                c.b = static_cast<std::int64_t>(v.v[l]);
              }
            } else {
              const SInt& v = si_[ins.b];
              c.b = v.b[l];
              c.cx = v.cx[l];
              c.cy = v.cy[l];
              c.cz = v.cz[l];
              c.poison = (v.poison & (1u << l)) != 0;
            }
            // int32 truncation: exact only for block-invariant in-range
            // values; anything else becomes unknown.
            if (!c.poison && (c.cx != 0 || c.cy != 0 || c.cz != 0)) {
              c = SSca{0, 0, 0, 0, true};
            } else if (!c.poison) {
              c.b = static_cast<std::int32_t>(c.b);
            }
            buf[static_cast<std::size_t>(x)] = c;
          }
        }
        break;
      }
      case Op::kCompute:
        out_->trace->push_compute(static_cast<std::uint32_t>(ins.x), rs.active_lanes());
        break;
      case Op::kFlush:
        flush();
        break;
      case Op::kBarrier:
        out_->trace->push_barrier();
        break;
      case Op::kJump:
        pc = static_cast<std::size_t>(ins.x);
        continue;
      case Op::kIfBegin: {
        const Mask m1 = cond_mask(ins, cur);
        rs.begin_if(m1);
        if (m1 == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      }
      case Op::kElse:
        rs.to_else();
        if (rs.active() == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      case Op::kIfEnd:
        rs.end_if();
        break;
      case Op::kLoopEnter:
        rs.enter_loop();
        break;
      case Op::kLoopBranch: {
        const Mask next = cond_mask(ins, cur);
        rs.loop_branch(next);
        if (next == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      }
      case Op::kLoopExit:
        rs.exit_loop();
        break;
      case Op::kError:
        throw Bail{};  // the fallback VM raises the error per block
      case Op::kEnd:
        pt.trace->set_div(rs.counters());
        pt.trace->push_end();
        out_ = nullptr;
        return pt;
    }
    ++pc;
  }
}

}  // namespace

std::vector<ParamWarpTrace> symbolize(const bc::Program& prog, const arch::LaunchConfig& launch) {
  Symbolic sym(prog, launch);
  const int warps = launch.warps_per_block(kWarp);
  std::vector<ParamWarpTrace> out;
  out.reserve(static_cast<std::size_t>(warps));
  bool any_failed = false;
  for (int w = 0; w < warps; ++w) {
    try {
      out.push_back(sym.run_warp(w));
    } catch (const Bail&) {
      out.push_back({});
      any_failed = true;
    }
  }
  // Cross-warp shared-memory flow: a concrete fallback warp invalidates
  // the symbolic shared state every later warp was proven against.
  if (any_failed && !prog.shared.empty()) {
    for (auto& pt : out) pt = {};
  }
  return out;
}

void fix_sites(ParamWarpTrace& pt, const bc::Program& prog, bc::SiteTable& table) {
  TraceData& t = *pt.trace;
  std::size_t k = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.kind(i) == EventKind::kMem) t.set_site(i, table.id_for(prog, pt.slots[k++]));
  }
  pt.slots.clear();
  pt.sites_fixed = true;
}

}  // namespace catt::sim::dedup

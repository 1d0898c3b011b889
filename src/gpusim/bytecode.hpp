// Bytecode warp VM: the kernel IR is flattened once per launch into a
// linear register-file program, and warps execute as a tight dispatch loop
// over 32-wide lane vectors instead of a recursive AST walk.
//
// The compiler performs three launch-time optimizations, none of which may
// change the generated trace (Compute events come from the same static
// per-statement cost tables the tree-walk interpreter used):
//  * constant folding — scalar kernel parameters and blockDim/gridDim are
//    launch constants, so bound checks like `i < NX` fold their right side
//    and float constant arithmetic collapses (replicating the simulator's
//    compute-in-double-round-to-float semantics exactly);
//  * loop-invariant hoisting — pure, non-faulting subexpressions that only
//    reference variables not written inside a loop move to that loop's
//    preheader (e.g. the `i * NX` of `A[i * NX + j]` leaves the j-loop);
//  * strength reduction falls out of the two above: affine index forms are
//    left as a single add of a hoisted register against the loop counter.
//
// Faithfulness rules (the golden-trace tests in vm_test.cpp pin these):
//  * non-faulting arithmetic executes full-width (all 32 lanes) with
//    wrapping integer semantics, since inactive-lane results are never
//    observable; ops that can fault or invoke UB (integer div/mod, float->
//    int casts, loads/stores, variable merges) stay under the active mask;
//  * float math is computed in double and rounded through float on every
//    operation, matching the interpreter's 32-bit device model;
//  * memory sites get their ids lazily at first dynamic encounter, in the
//    exact order the tree-walk interpreter would assign them.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/launch.hpp"
#include "expr/affine.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/trace.hpp"
#include "ir/ir.hpp"

namespace catt::sim::bc {

constexpr int kWarp = 32;
using Mask = std::uint32_t;

enum class Op : std::uint8_t {
  // Integer ALU (full-width, wrapping; inactive lanes hold garbage).
  kAddI, kSubI, kMulI, kNegI, kMinI, kMaxI,
  // Integer division (masked: faults on zero divisors, message in y).
  kDivI, kModI,
  // Float ALU (full-width; double math rounded through float).
  kAddF, kSubF, kMulF, kDivF, kMinF, kMaxF, kNegF,
  // Comparisons (t = expr::BinOp subcode; int 0/1 result, full-width).
  kCmpI, kCmpF,
  // Logical ops on truthiness (int 0/1 results, full-width).
  kNotI, kNotF, kBoolI, kBoolF, kAndB, kOrB,
  // Short-circuit &&/|| whose right side may fault: kLogicalCut pushes the
  // mask, refines it to the lanes that still need the right side, and jumps
  // to the matching kLogicalEnd when none do; kLogicalEnd pops the mask and
  // combines both truth vectors. t bits: 1 = ||, 2 = lhs float, 4 = rhs float.
  kLogicalCut, kLogicalEnd,
  // Conversions. kCvtIF is exact (full-width); kCvtFI is masked (float->
  // int casts are UB out of range); kCastF rounds through float.
  kCvtIF, kCvtFI, kCastF,
  // Math intrinsic call (t = Intrinsic id; float args in a/b, full-width).
  kCall,
  // Masked variable writes dst <- a with the interpreter's conversion
  // rules (II: int<-int, IF: float<-int, FF: float<-float rounding,
  // FI: int<-float).
  kWVarII, kWVarIF, kWVarFF, kWVarFI,
  // Masked loop-variable increment: dst.i += a.i.
  kStepVar,
  // Memory (masked; x = site slot for global, shared slot for shared).
  // t bit 1: element is float; t bit 2 (stores): value register is float.
  kLoadG, kLoadSh, kStoreG, kStoreSh,
  // Trace events.
  kCompute,  // x = cycles
  kFlush, kBarrier,
  // Structured control flow (x = jump target after assembly).
  kJump,
  kIfBegin,   // a = cond (t bit 2: float); jumps to kElse when no lane is true
  kElse,      // switches to the pending else mask; jumps to kIfEnd when empty
  kIfEnd,
  kLoopEnter, // pushes the entry mask
  kLoopBranch,// a = cond; refines the mask, jumps to kLoopExit when empty
  kLoopExit,  // pops the entry mask
  // Deferred runtime error (y = message): the tree-walk interpreter only
  // faults when the offending statement actually executes, so compile-time
  // errors in dead code must not fire early.
  kError,
  kEnd,
};

enum class Intrinsic : std::uint8_t {
  kSqrtf, kFabsf, kExpf, kLogf, kPowf, kFloorf, kFminf, kFmaxf,
};

struct Ins {
  Op op = Op::kEnd;
  std::uint8_t t = 0;
  std::uint16_t dst = 0, a = 0, b = 0;
  std::int32_t x = 0;  // jump target / slot index / cycles
  std::int32_t y = 0;  // error-string index
};

/// One static global-memory instruction. The DeviceArray pointer is
/// resolved at compile time (programs live no longer than their interp,
/// and no allocation happens during a run).
struct SiteSlot {
  DeviceArray* array = nullptr;
  std::string array_name;
  std::string index_text;
  bool is_store = false;
};

struct SharedSlot {
  std::string name;
  ir::ElemType type = ir::ElemType::kF32;
  std::int64_t count = 0;
};

struct Program {
  std::string kernel_name;
  std::vector<Ins> code;
  int n_iregs = 0;
  int n_fregs = 0;
  // Fixed registers filled by the runtime: 0..2 = threadIdx.{x,y,z} lane
  // vectors (per warp), 3..5 = blockIdx.{x,y,z} broadcasts (per block).
  static constexpr std::uint16_t kTidX = 0, kTidY = 1, kTidZ = 2;
  static constexpr std::uint16_t kBidX = 3, kBidY = 4, kBidZ = 5;
  std::vector<std::pair<std::uint16_t, std::int64_t>> const_i;
  std::vector<std::pair<std::uint16_t, double>> const_f;
  /// Variable registers (from write_var): zeroed at every warp start —
  /// the interpreter's fresh WVal slots read 0 on never-written lanes.
  std::vector<std::uint16_t> var_iregs, var_fregs;
  std::vector<SiteSlot> sites;
  std::vector<SharedSlot> shared;
  std::vector<std::string> strings;
};

/// Per-statement cost tables (the seed interpreter's static cost model,
/// keyed by Stmt pointer; see KernelInterp's constructor walk).
struct CostTables {
  const std::map<const void*, std::uint32_t>* stmt_cost = nullptr;
  const std::map<const void*, std::uint32_t>* loop_iter_cost = nullptr;
};

/// Flattens `kernel` for one launch. Throws catt::SimError for unknown
/// arrays; value-dependent errors (unbound variables, bad operators) are
/// compiled into kError instructions so they fire with the tree-walk
/// interpreter's timing.
Program compile(const ir::Kernel& kernel, const arch::LaunchConfig& launch,
                const expr::ParamEnv& params, DeviceMemory& mem, const CostTables& costs);

/// Runtime site-id table: ids are assigned lazily the first time a site
/// slot records an access, preserving the interpreter's first-dynamic-
/// encounter numbering. Shared across launches by the trace-dedup cache.
struct SiteTable {
  std::vector<MemSite> sites;
  std::vector<std::int32_t> slot_to_id;  // -1 = not yet assigned

  std::uint16_t id_for(const Program& p, std::int32_t slot) {
    if (slot_to_id.empty()) slot_to_id.assign(p.sites.size(), -1);
    std::int32_t& id = slot_to_id[static_cast<std::size_t>(slot)];
    if (id < 0) {
      id = static_cast<std::int32_t>(sites.size());
      const SiteSlot& s = p.sites[static_cast<std::size_t>(slot)];
      sites.push_back({s.array_name, s.index_text, s.is_store});
    }
    return static_cast<std::uint16_t>(id);
  }
};

/// Executes one block's warps over a compiled program. Register planes,
/// shared buffers and the coalescer's per-site scratch are allocated once
/// and reused across instructions, warps and blocks.
class Vm {
 public:
  Vm(const Program& prog, const arch::LaunchConfig& launch, bool functional);

  /// Selects the block: fills blockIdx registers and zeroes shared memory.
  void set_block(std::uint64_t block_linear);

  /// Toggles functional global-memory effects (see KernelInterp).
  void set_functional(bool on) { functional_ = on; }

  /// Runs warp `wid` of the current block and returns its trace (zero
  /// sector strides: it is concrete for this block).
  WarpTrace run_warp(int wid, SiteTable& sites);

 private:
  /// Lane sectors one site has recorded since the last flush point.
  struct SiteAccess {
    std::uint16_t site = 0;
    bool is_store = false;
    std::vector<std::uint64_t> sectors;
  };
  SiteAccess& access_for(std::uint16_t site, bool is_store);
  void flush(TraceData& t);

  const Program& p_;
  arch::LaunchConfig launch_;
  bool functional_;
  std::uint64_t block_linear_ = 0;
  std::vector<std::array<std::int64_t, kWarp>> ir_;
  std::vector<std::array<double, kWarp>> fr_;
  std::vector<std::vector<float>> shf_;         // by shared slot
  std::vector<std::vector<std::int32_t>> shi_;  // by shared slot
  /// Coalescer scratch: the first `open_` entries are the sites recorded
  /// since the last flush; the rest keep their capacity for reuse.
  std::vector<SiteAccess> access_;
  std::size_t open_ = 0;
};

/// True when every trace the kernel can generate (event sequence, compute
/// cycles, coalesced addresses, faults) is independent of the *values*
/// loaded from memory: no loaded value flows into an array index, a
/// branch/loop condition, a loop step, or an integer divisor. This is the
/// soundness condition for skipping functional execution (and for the
/// block-parametric trace dedup built on top of it).
bool trace_data_independent(const ir::Kernel& kernel);

}  // namespace catt::sim::bc

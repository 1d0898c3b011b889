// Reference functional SIMT interpreter: the original recursive tree-walk
// implementation, kept as the golden oracle for the bytecode warp VM and
// trace dedup (see gpusim/bytecode.hpp, gpusim/dedup.hpp). It is built
// only into the tests (library catt_ref_interp); production code uses
// KernelInterp. vm_test.cpp and fuzz_kernel_test.cpp assert, for every
// registered workload kernel and every fuzzed one, that the VM produces
// bit-identical traces and memory effects.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/launch.hpp"
#include "expr/affine.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/trace.hpp"
#include "ir/ir.hpp"

namespace catt::sim {

class RefKernelInterp {
 public:
  /// Binds a kernel to memory and launch parameters. `params` supplies the
  /// scalar arguments; every array parameter must already be allocated in
  /// `mem`. Throws catt::SimError on missing arrays.
  RefKernelInterp(const ir::Kernel& kernel, const arch::LaunchConfig& launch,
                  const expr::ParamEnv& params, DeviceMemory& mem);

  /// Executes block `block_linear` (row-major over the grid) functionally
  /// and returns one trace per warp of the block.
  std::vector<WarpTrace> run_block(std::uint64_t block_linear);

  const std::vector<MemSite>& sites() const { return sites_; }
  const arch::LaunchConfig& launch() const { return launch_; }
  int warps_per_block() const;

 private:
  struct Impl;
  friend struct Impl;

  std::uint16_t site_id(const void* key, const std::string& array, const std::string& index_text,
                        bool is_store);

  const ir::Kernel& kernel_;
  arch::LaunchConfig launch_;
  expr::ParamEnv params_;
  DeviceMemory& mem_;

  std::map<const void*, std::uint16_t> site_ids_;
  std::vector<MemSite> sites_;
  /// Static per-statement compute cost, keyed by Stmt pointer.
  std::map<const void*, std::uint32_t> stmt_cost_;
  /// Per-iteration overhead (condition + increment) for loops.
  std::map<const void*, std::uint32_t> loop_iter_cost_;
};

/// The line transactions kMem event `i` of `t` replays to (the sequence
/// WarpTrace::for_each_txn feeds the timing model), for trace comparisons.
inline std::vector<Txn> replayed_txns(const WarpTrace& t, std::size_t i, int line_bytes) {
  std::vector<Txn> out;
  t.for_each_txn(i, static_cast<std::uint64_t>(line_bytes) / 32,
                 [&](const Txn& txn) { out.push_back(txn); });
  return out;
}

}  // namespace catt::sim

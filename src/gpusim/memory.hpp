// Device global memory: named arrays laid out in one flat byte-address
// space so cache indexing behaves like real hardware (different arrays
// occupy different, line-aligned address ranges).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace catt::sim {

/// One allocated device array.
struct DeviceArray {
  std::string name;
  ir::ElemType type = ir::ElemType::kF32;
  std::uint64_t base = 0;  // byte address of element 0
  std::vector<float> f;    // used when type == kF32
  std::vector<std::int32_t> i;  // used when type == kI32

  std::size_t count() const { return type == ir::ElemType::kF32 ? f.size() : i.size(); }
};

/// Global-memory arena. Arrays are allocated once per experiment and shared
/// by all kernel launches of an application run.
class DeviceMemory {
 public:
  /// Page alignment between arrays; keeps distinct arrays in distinct
  /// cache lines and gives stable set-index behaviour.
  static constexpr std::uint64_t kAlign = 256;
  /// Size of the device byte-address space: 2^32 sectors of 32 B (128 GiB,
  /// ten times the modelled Titan V's 12 GB), so trace events store sector
  /// ids in 32 bits. Every array is backed by host memory, so only a host
  /// with more RAM than this could reach the cap.
  static constexpr std::uint64_t kAddressSpace = std::uint64_t{32} << 32;

  DeviceArray& alloc_f32(const std::string& name, std::size_t count, float fill = 0.0f);
  DeviceArray& alloc_f32(const std::string& name, std::vector<float> data);
  DeviceArray& alloc_i32(const std::string& name, std::vector<std::int32_t> data);
  DeviceArray& alloc_i32(const std::string& name, std::size_t count, std::int32_t fill = 0);

  // Allocation throws catt::SimError past kAddressSpace.

  /// Lookup; throws catt::SimError if absent.
  DeviceArray& array(const std::string& name);
  const DeviceArray& array(const std::string& name) const;
  bool has(const std::string& name) const { return index_.contains(name); }

  /// Resets all element values (not the layout); used between repetitions.
  void fill_f32(const std::string& name, float v);

  std::span<const float> f32(const std::string& name) const;
  std::span<const std::int32_t> i32(const std::string& name) const;

 private:
  DeviceArray& emplace(DeviceArray a);

  std::vector<DeviceArray> arrays_;
  std::map<std::string, std::size_t> index_;
  std::uint64_t next_base_ = kAlign;
};

}  // namespace catt::sim

#include "gpusim/memory.hpp"

#include "common/error.hpp"
#include "common/units.hpp"

namespace catt::sim {

DeviceArray& DeviceMemory::emplace(DeviceArray a) {
  if (index_.contains(a.name)) throw SimError("array already allocated: " + a.name);
  a.base = next_base_;
  const std::size_t bytes = a.count() * ir::elem_size(a.type);
  const std::uint64_t end = next_base_ + round_up<std::uint64_t>(bytes, kAlign) + kAlign;
  if (end > kAddressSpace) {
    throw SimError("device address space exhausted allocating " + a.name);
  }
  next_base_ = end;
  index_[a.name] = arrays_.size();
  arrays_.push_back(std::move(a));
  return arrays_.back();
}

DeviceArray& DeviceMemory::alloc_f32(const std::string& name, std::size_t count, float fill) {
  DeviceArray a;
  a.name = name;
  a.type = ir::ElemType::kF32;
  a.f.assign(count, fill);
  return emplace(std::move(a));
}

DeviceArray& DeviceMemory::alloc_f32(const std::string& name, std::vector<float> data) {
  DeviceArray a;
  a.name = name;
  a.type = ir::ElemType::kF32;
  a.f = std::move(data);
  return emplace(std::move(a));
}

DeviceArray& DeviceMemory::alloc_i32(const std::string& name, std::vector<std::int32_t> data) {
  DeviceArray a;
  a.name = name;
  a.type = ir::ElemType::kI32;
  a.i = std::move(data);
  return emplace(std::move(a));
}

DeviceArray& DeviceMemory::alloc_i32(const std::string& name, std::size_t count,
                                     std::int32_t fill) {
  DeviceArray a;
  a.name = name;
  a.type = ir::ElemType::kI32;
  a.i.assign(count, fill);
  return emplace(std::move(a));
}

DeviceArray& DeviceMemory::array(const std::string& name) {
  auto it = index_.find(name);
  if (it == index_.end()) throw SimError("no such device array: " + name);
  return arrays_[it->second];
}

const DeviceArray& DeviceMemory::array(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) throw SimError("no such device array: " + name);
  return arrays_[it->second];
}

void DeviceMemory::fill_f32(const std::string& name, float v) {
  DeviceArray& a = array(name);
  if (a.type != ir::ElemType::kF32) throw SimError("fill_f32 on int array " + name);
  std::fill(a.f.begin(), a.f.end(), v);
}

std::span<const float> DeviceMemory::f32(const std::string& name) const {
  const DeviceArray& a = array(name);
  if (a.type != ir::ElemType::kF32) throw SimError(name + " is not f32");
  return a.f;
}

std::span<const std::int32_t> DeviceMemory::i32(const std::string& name) const {
  const DeviceArray& a = array(name);
  if (a.type != ir::ElemType::kI32) throw SimError(name + " is not i32");
  return a.i;
}

}  // namespace catt::sim

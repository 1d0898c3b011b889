#include "digest.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"

namespace perfbench {

std::uint64_t digest_launches(const std::string& tag, const std::vector<LaunchFacts>& launches) {
  catt::hash::Fnv1a h;
  h.str(tag).size(launches.size());
  for (const LaunchFacts& f : launches) {
    h.i64(f.cycles)
        .u64(f.l1_hits)
        .u64(f.l1_misses)
        .u64(f.l2_hits)
        .u64(f.l2_misses)
        .u64(f.dram_lines)
        .u64(f.warp_insts);
  }
  return h.value();
}

std::string hex16(std::uint64_t v) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(v));
  return hex;
}

std::string format_digests(const DigestMap& m) {
  std::string out;
  for (const auto& [query, d] : m) out += query + " " + hex16(d) + "\n";
  return out;
}

DigestMap parse_digests(const std::string& text) {
  DigestMap m;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || line.size() - sp - 1 != 16) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    std::size_t used = 0;
    const std::uint64_t d = std::stoull(line.substr(sp + 1), &used, 16);
    if (used != 16) throw std::runtime_error("malformed digest line: " + line);
    m[line.substr(0, sp)] = d;
  }
  return m;
}

std::vector<Mismatch> compare_digests(const DigestMap& expected, const DigestMap& actual) {
  std::vector<Mismatch> out;
  for (const auto& [query, d] : actual) {
    const auto it = expected.find(query);
    if (it == expected.end()) {
      out.push_back({query, "unexpected"});
    } else if (it->second != d) {
      out.push_back({query, "differs"});
    }
  }
  for (const auto& [query, d] : expected) {
    if (actual.find(query) == actual.end()) out.push_back({query, "missing"});
  }
  return out;
}

}  // namespace perfbench

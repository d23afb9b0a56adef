#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <functional>
#include <fstream>

#include "bench.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> v) {
  const std::size_t n = v.size();
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2), v.end());
  const double hi = v[n / 2];
  if (n % 2 == 1) return hi;
  return (hi + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2))) / 2;
}

double percentile(std::vector<double> v, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t i = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
  return v[i];
}

namespace {
constexpr std::size_t kSpeedTable = std::size_t{1} << 18;  // 1 MB of u32
constexpr int kSpeedSteps = 500'000;
/// The loop's time on the reference host (README.md), fastest observed.
constexpr double kReferenceSpeedNs = 3.15e6;
}  // namespace

host_speed::host_speed() : table_(kSpeedTable) {
  for (std::size_t i = 0; i < kSpeedTable; ++i) {
    table_[i] = static_cast<std::uint32_t>((i * 2654435761u) & (kSpeedTable - 1));
  }
}

void host_speed::sample() {
  const std::uint64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ULL, acc = 0;
  std::uint32_t j = 0;
  for (int i = 0; i < kSpeedSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    j = table_[(j ^ static_cast<std::uint32_t>(x)) & (kSpeedTable - 1)];
    acc += j;
  }
  sink_ += acc;
  ns_.push_back(static_cast<double>(now_ns() - t0));
}

double host_speed::slowdown() const {
  return ns_.empty() ? 1.0 : median(ns_) / kReferenceSpeedNs;
}

std::uint32_t tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::pair<double, double> tracer::total(const std::string& name) const {
  double ns = 0, items = 0;
  for (const auto& s : spans_) {
    if (names_[s.name] == name) {
      ns += static_cast<double>(s.end_ns - s.start_ns);
      items += static_cast<double>(s.items);
    }
  }
  return {ns, items};
}

std::vector<double> tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (names_[s.name] == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

bool tracer::write(const std::string& path, const std::string& header_json) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << header_json << '\n';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << names_[s.name] << "\",\"parent\":";
    if (s.parent == kNoParent) {
      f << "null";
    } else {
      f << s.parent;
    }
    f << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"items\":" << s.items
      << "}\n";
  }
  return static_cast<bool>(f);
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void trim_free_memory() { malloc_trim(0); }

std::string context_json() {
  return std::string("{\"nproc\": ") + std::to_string(usable_cpus()) +
         ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"compiler\": \"" __VERSION__
         "\", \"simd\": \"" +
         memento::simd::tier_name(memento::simd::active()) + "\"}";
}

}  // namespace perfbench

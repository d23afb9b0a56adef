// Input generation for the benchmark, independent of the program's own trace
// generators (src/trace/), so that a change to the program cannot change a
// workload. Everything here is a pure function of the seed it is given.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/packet.hpp"

namespace perfbench {

/// splitmix64 finalizer: a bijection on 64-bit words.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64 stream.
class rng {
 public:
  explicit rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  /// Uniform in [0, 1).
  double uniform() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Zipf(alpha) over ranks 1..n by rejection-inversion (Hormann & Derflinger
/// 1996): O(1) per sample and no table, so millions of flows cost nothing
/// to set up.
class zipf {
 public:
  zipf(std::uint64_t n, double alpha) : n_(static_cast<double>(n)), s_(alpha) {
    h_x1_ = h_integral(1.5) - 1.0;
    h_n_ = h_integral(n_ + 0.5);
    cut_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
  }

  /// A rank in [1, n]; rank 1 is the heaviest.
  std::uint64_t sample(rng& r) const noexcept {
    for (;;) {
      const double u = h_n_ + r.uniform() * (h_x1_ - h_n_);
      const double x = h_integral_inverse(u);
      double k = std::floor(x + 0.5);
      if (k < 1.0) k = 1.0;
      if (k > n_) k = n_;
      if (k - x <= cut_ || u >= h_integral(k + 0.5) - h(k)) {
        return static_cast<std::uint64_t>(k);
      }
    }
  }

 private:
  [[nodiscard]] double h(double x) const noexcept { return std::exp(-s_ * std::log(x)); }
  [[nodiscard]] double h_integral(double x) const noexcept {
    const double lx = std::log(x);
    return helper2((1.0 - s_) * lx) * lx;
  }
  [[nodiscard]] double h_integral_inverse(double x) const noexcept {
    double t = x * (1.0 - s_);
    if (t < -1.0) t = -1.0;
    return std::exp(helper1(t) * x);
  }
  static double helper1(double x) noexcept {  // log1p(x) / x
    return std::abs(x) > 1e-8 ? std::log1p(x) / x : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
  }
  static double helper2(double x) noexcept {  // expm1(x) / x
    return std::abs(x) > 1e-8 ? std::expm1(x) / x
                              : 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
  }

  double n_, s_, h_x1_ = 0, h_n_ = 0, cut_ = 0;
};

/// The (src, dst) pair of flow `rank` under a seed-specific scramble.
/// Source addresses stay in 1.0.0.0-223.255.255.255, so the /8 subnets the
/// flood uses (240 and up) never carry trace traffic.
[[nodiscard]] inline memento::packet flow_packet(std::uint64_t rank, std::uint64_t salt) noexcept {
  const std::uint64_t h = mix64(rank * 0x9e3779b97f4a7c15ULL ^ salt);
  const auto hi = static_cast<std::uint32_t>(h >> 32);
  const std::uint32_t src = (1u << 24) + hi % (223u << 24);
  return memento::packet{src, static_cast<std::uint32_t>(h)};
}

/// A trace of n packets whose flows follow Zipf(alpha) over `flows` ranks.
[[nodiscard]] inline std::vector<memento::packet> zipf_trace(std::uint64_t flows, double alpha,
                                                             std::size_t n,
                                                             std::uint64_t seed) {
  const zipf z(flows, alpha);
  rng r(seed);
  const std::uint64_t salt = mix64(seed ^ 0x5eed5a17ULL);
  std::vector<memento::packet> out(n);
  for (auto& p : out) p = flow_packet(z.sample(r), salt);
  return out;
}

// --- the flood ---------------------------------------------------------------
// Fixed, seed-independent: the flooding /8s, their hosts and the interleave
// are constants, so the detection delay depends on the seed only through
// the background traffic. The pass runs kFloodEpisodes episodes of one
// window each; episode e floods two fresh /8s from a quarter of the way in,
// so the delays sample the sketch's frame phase at several points.

inline constexpr std::size_t kFloodEpisodes = 8;
inline constexpr std::size_t kFloodSubnetsPerEpisode = 2;
inline constexpr std::size_t kFloodFlowsPerSubnet = 64;
/// Flood packets per 10 packets while an episode floods (30%: 15% per
/// subnet, three times the appliance's block bar).
inline constexpr std::size_t kFloodPer10 = 3;

/// The k-th flooding /8 of episode e: 240 and up, never trace traffic.
[[nodiscard]] constexpr std::uint32_t flood_subnet(std::size_t episode, std::size_t k) noexcept {
  return static_cast<std::uint32_t>(240 + kFloodSubnetsPerEpisode * episode + k);
}

/// The j-th flood packet of episode e (cycling through its subnets' hosts).
[[nodiscard]] inline memento::packet flood_packet(std::size_t episode, std::uint64_t j) noexcept {
  const std::uint64_t flow = j % (kFloodSubnetsPerEpisode * kFloodFlowsPerSubnet);
  const std::uint32_t subnet = flood_subnet(episode, flow % kFloodSubnetsPerEpisode);
  const std::uint64_t host = mix64(0xf100d000ULL + flow);
  return memento::packet{(subnet << 24) | static_cast<std::uint32_t>(host & 0xffffff),
                         static_cast<std::uint32_t>(host >> 32)};
}

/// The flood pass: the background trace again (wrapping), with episode e's
/// flood interleaved over packets [e*L + L/4, (e+1)*L).
class flood_pass {
 public:
  flood_pass(const std::vector<memento::packet>& background, std::uint64_t episode_len)
      : bg_(background), len_(episode_len) {}

  [[nodiscard]] std::uint64_t size() const noexcept { return kFloodEpisodes * len_; }
  [[nodiscard]] std::uint64_t episode_len() const noexcept { return len_; }
  [[nodiscard]] std::uint64_t flood_start(std::size_t e) const noexcept {
    return e * len_ + len_ / 4;
  }

  /// The next min(n, remaining) packets of the pass, into `out`.
  void next(std::vector<memento::packet>& out, std::size_t n) {
    out.clear();
    for (; n > 0 && at_ < size(); --n, ++at_) {
      const std::size_t e = at_ / len_;
      const std::uint64_t start = flood_start(e);
      if (at_ >= start && (at_ - start) % 10 < kFloodPer10) {
        out.push_back(flood_packet(e, flood_j_++));
      } else {
        out.push_back(bg_[bg_at_++ % bg_.size()]);
      }
    }
  }

 private:
  const std::vector<memento::packet>& bg_;
  std::uint64_t len_;
  std::uint64_t at_ = 0, bg_at_ = 0, flood_j_ = 0;
};

}  // namespace perfbench

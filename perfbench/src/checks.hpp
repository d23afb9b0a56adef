// Output checks of the benchmark, written as pure functions over the
// program's answers and the benchmark's own exact counts, so that the
// negative tests can hand each one a deliberately wrong answer.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace perfbench {

/// Exact sliding-window counter: a ring buffer of the last W keys plus a
/// count per key, O(1) per arrival (the exact counter of
/// Koutsiamanis & Efraimidis, arXiv 1103.0116).
template <typename Key, typename Hash = std::hash<Key>>
class exact_window_counter {
 public:
  explicit exact_window_counter(std::size_t window) : window_(window) { ring_.reserve(window); }

  void add(const Key& k) {
    if (ring_.size() < window_) {
      ring_.push_back(k);
    } else {
      Key& slot = ring_[head_];
      auto it = counts_.find(slot);
      if (--it->second == 0) counts_.erase(it);
      slot = k;
      head_ = (head_ + 1) % window_;
    }
    ++counts_[k];
  }

  [[nodiscard]] std::uint64_t count(const Key& k) const {
    const auto it = counts_.find(k);
    return it == counts_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::unordered_map<Key, std::uint64_t, Hash>& counts() const {
    return counts_;
  }

 private:
  std::size_t window_;
  std::size_t head_ = 0;
  std::vector<Key> ring_;
  std::unordered_map<Key, std::uint64_t, Hash> counts_;
};

/// The one-sided sliding-window guarantee at tau = 1:
/// exact <= estimate <= exact + width.
[[nodiscard]] inline bool estimate_within(double exact, double estimate, double width) {
  return exact <= estimate && estimate <= exact + width;
}

/// Keys whose exact window count reaches `bar` but that `reported` lacks.
template <typename Key, typename Hash, typename Set>
[[nodiscard]] std::size_t missed_heavy_hitters(
    const std::unordered_map<Key, std::uint64_t, Hash>& exact, double bar, const Set& reported) {
  std::size_t missed = 0;
  for (const auto& [key, count] : exact) {
    if (static_cast<double>(count) >= bar && reported.count(key) == 0) ++missed;
  }
  return missed;
}

/// Exact packet accounting of the appliance: every packet fed was ingested
/// by some core, and reached its shard unless it was mitigated.
[[nodiscard]] inline bool accounting_ok(std::uint64_t fed, std::uint64_t ingested,
                                        std::uint64_t stream_length,
                                        std::uint64_t mitigated) {
  return fed == ingested && ingested == stream_length + mitigated;
}

/// Share of |estimate - exact| errors inside `envelope` (Theorem 5.2).
[[nodiscard]] inline double share_within(std::span<const double> errors, double envelope) {
  if (errors.empty()) return 0.0;
  std::size_t inside = 0;
  for (const double e : errors) inside += std::abs(e) <= envelope ? 1 : 0;
  return static_cast<double>(inside) / static_cast<double>(errors.size());
}

/// Packets from the flood's start until the first burst end at which every
/// flooding subnet was blocked, or nullopt when that never happened.
/// `blocked_after[b]` says whether all were blocked after burst b, which
/// ended at packet `burst_end[b]` (exclusive).
[[nodiscard]] inline std::optional<std::uint64_t> detection_delay(
    const std::vector<bool>& blocked_after, const std::vector<std::uint64_t>& burst_end,
    std::uint64_t flood_start) {
  for (std::size_t b = 0; b < blocked_after.size(); ++b) {
    if (burst_end[b] > flood_start && blocked_after[b]) return burst_end[b] - flood_start;
  }
  return std::nullopt;
}

/// A restore that must be refused (a truncated or corrupted image).
template <typename T>
[[nodiscard]] bool rejected(const std::optional<T>& restored) {
  return !restored.has_value();
}

/// Delta-channel agreement: the delta controller rejected nothing and each
/// probe answer lies within `bar` of the full-report controller's.
[[nodiscard]] inline bool delta_agrees(std::uint64_t rejected_reports,
                                       std::span<const double> delta_answers,
                                       std::span<const double> full_answers, double bar) {
  if (rejected_reports != 0 || delta_answers.size() != full_answers.size()) return false;
  for (std::size_t i = 0; i < delta_answers.size(); ++i) {
    if (std::abs(delta_answers[i] - full_answers[i]) > bar) return false;
  }
  return true;
}

}  // namespace perfbench

// Shared plumbing of the benchmark: clocks, order statistics, the result
// record every workload fills, and the span tracer of the traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile q in (0, 1] of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// How slow the host ran during a run, against the reference host: a fixed
/// loop (xorshift plus dependent loads in a 1 MB table, so both the core and
/// its caches count) is timed before every timed phase of every round, and
/// the median of those times is set against the loop's time on the
/// reference host. A run's time metrics are divided by it (rates multiplied),
/// so a run the host slowed throughout (other tenants) does not read as a
/// slower program; a slower program still does, since the loop does not
/// call it.
class host_speed {
 public:
  host_speed();
  /// Times the loop once.
  void sample();
  /// > 1 when the host ran slower than the reference host.
  [[nodiscard]] double slowdown() const;

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> ns_;
  std::uint64_t sink_ = 0;
};

/// Resident memory of this process now, in MB.
[[nodiscard]] double rss_mb();
/// Hands the heap memory the benchmark freed back to the system, so that
/// buffers of its own checks do not stay resident and count as the
/// program's in peak_rss_mb.
void trim_free_memory();

/// Knobs of one run.
struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and a short clock: runs every check, measures nothing
  /// worth reporting. Set by the benchmark's own tests.
  bool short_mode = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

/// What one workload run produced: check outcomes, operation counts and
/// metrics by name.
class result {
 public:
  /// Records one output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) failures_.push_back(what);
  }
  void put(const std::string& name, double value) { metrics_[name] = value; }
  /// A time metric as the reference host would have measured it: a time
  /// over `slowdown`, a rate times it. The measured figure is kept as
  /// "raw.<name>".
  void put_scaled(const std::string& name, double raw, double slowdown, bool rate = false) {
    put(name, rate ? raw * slowdown : raw / slowdown);
    put("raw." + name, raw);
  }
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second;
  }
  /// Counts timed operations of the run (bursts, queries, saves, ...).
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts program calls that failed (a restore that refused an intact
  /// image, a report that did not decode, ...).
  void fail(std::uint64_t n = 1) { failed_ += n; }

  /// The program's memory: resident memory above what the process held once
  /// its inputs were made. The workload sets the baseline then and samples
  /// at the moments the program holds the most; peak_rss_mb is the largest
  /// sample.
  void rss_baseline() { rss_base_ = rss_mb(); }
  void sample_rss() { rss_peak_ = std::max(rss_peak_, rss_mb() - rss_base_); }
  [[nodiscard]] double rss_peak() const { return rss_peak_; }

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::size_t checks() const { return checks_; }

 private:
  std::vector<std::string> failures_;
  std::map<std::string, double> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t checks_ = 0;
  double rss_base_ = 0.0;
  double rss_peak_ = 0.0;
};

/// Span recorder of the traced run: spans are kept in memory and written
/// out once at the end. A disabled tracer records nothing and costs one
/// branch per call.
class tracer {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  struct span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t items;  ///< packets / keys / bytes the call handled
  };

  explicit tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Opens a span and returns its id (kNoParent when tracing is off).
  std::uint32_t open(const char* name, std::uint32_t parent = kNoParent) {
    if (!on_) return kNoParent;
    spans_.push_back({intern(name), parent, now_ns(), 0, 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t id, std::uint64_t items = 0) {
    if (id == kNoParent) return;
    spans_[id].end_ns = now_ns();
    spans_[id].items = items;
  }

  /// Total duration and items of every span with this name.
  [[nodiscard]] std::pair<double, double> total(const std::string& name) const;
  /// Durations (ns) of every span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Writes every span as one JSON object per line; false on I/O failure.
  bool write(const std::string& path, const std::string& header_json) const;

 private:
  std::uint32_t intern(const char* name);

  bool on_;
  std::vector<span> spans_;
  std::vector<std::string> names_;
};

/// RAII span for the common "time this call" case.
class scoped_span {
 public:
  scoped_span(tracer& t, const char* name, std::uint32_t parent = tracer::kNoParent)
      : t_(t), id_(t.open(name, parent)) {}
  ~scoped_span() { t_.close(id_, items_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  void items(std::uint64_t n) noexcept { items_ = n; }
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  tracer& t_;
  std::uint32_t id_;
  std::uint64_t items_ = 0;
};

/// CPUs this process may run on.
[[nodiscard]] unsigned usable_cpus();
/// nproc, build type, compiler and SIMD tier as one JSON object.
[[nodiscard]] std::string context_json();

// --- workloads ---------------------------------------------------------------

void run_hh_backbone(const options& opt, result& res, tracer& tr);
void run_hhh_sampled(const options& opt, result& res, tracer& tr);
void run_state_transfer(const options& opt, result& res, tracer& tr);

}  // namespace perfbench

// Phases every workload runs on its own traffic: the appliance block
// (inline and pull pipelines, the flood pass, their checks), the delta
// summary channel, and the timed v2 checkpoint loop.
//
// A workload's timed phases run interleaved, in rounds: each round gives
// every phase one slice of the run's clock, so every metric samples the
// whole run. A host that slows down for seconds at a time (other tenants)
// then slows a few repetitions of every phase instead of all of one, and
// each time metric is the median of its repetitions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "pipeline/pipeline.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/packet.hpp"
#include "trace/packet_ring.hpp"
#include "util/wire.hpp"

namespace perfbench {

inline constexpr std::size_t kBurst = 4096;       ///< packets per timed burst
inline constexpr std::size_t kPullBurst = 256;    ///< run_pull's burst
inline constexpr std::size_t kPullThreads = 2;    ///< cores of the parallel phase
inline constexpr std::size_t kChunk = 64 * 1024;  ///< checkpoint sink/source chunk

/// Rounds a run's timed phases are split into.
[[nodiscard]] inline int rounds(const options& opt) { return opt.short_mode ? 2 : 40; }

/// Bursts per ingest repetition: the share of the run's clock the phase gets
/// at `nominal_mpps`, the rate this workload's ingest runs at on the
/// reference host (see README.md), split over the rounds.
[[nodiscard]] inline std::size_t bursts_per_rep(const options& opt, double share,
                                                double nominal_mpps) {
  const double packets = opt.seconds * share * nominal_mpps * 1e6 / rounds(opt);
  return std::max<std::size_t>(1, static_cast<std::size_t>(packets / 4096.0));
}

/// Timed bursts of an ingest phase, one repetition per round.
class burst_series {
 public:
  /// One repetition: `bursts` calls of `step()` (one program call on one
  /// burst, returning its packet count), each timed. The count is fixed, not
  /// the time, so the program's state after every repetition - and every
  /// figure read from it later - depends on the seed alone.
  template <typename Step>
  void rep(std::size_t bursts, Step&& step) {
    one r;
    std::uint64_t pkts = 0;
    double ns = 0.0;
    for (std::size_t i = 0; i < bursts; ++i) {
      const std::uint64_t t0 = now_ns();
      pkts += step();
      r.burst_ns.push_back(static_cast<double>(now_ns() - t0));
      ns += r.burst_ns.back();
    }
    r.mpps = static_cast<double>(pkts) / ns * 1e3;
    packets_ += pkts;
    busy_ns_ += ns;
    bursts_ += r.burst_ns.size();
    reps_.push_back(std::move(r));
  }

  /// ingest_mpps (median of the repetitions) and the burst p50/p99 over
  /// every burst, as reference-host equivalents (see result::put_scaled).
  void put(result& res, double slowdown) const;

  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_; }
  [[nodiscard]] double ns_per_packet() const noexcept {
    return busy_ns_ / static_cast<double>(packets_);
  }
  [[nodiscard]] std::size_t bursts() const noexcept { return bursts_; }

 private:
  struct one {
    double mpps = 0.0;
    std::vector<double> burst_ns;
  };
  std::vector<one> reps_;
  std::uint64_t packets_ = 0;
  double busy_ns_ = 0.0;
  std::size_t bursts_ = 0;
};

/// Runs `call()` for `seconds` (at least once) and returns the fastest call
/// in ms - the call's own time, without the interrupts and neighbours that
/// stretch single sub-millisecond calls by tens of percent from run to run;
/// adds the number of calls to `calls`.
template <typename Call>
double timed_calls(double seconds, std::uint64_t& calls, Call&& call) {
  std::vector<double> ms;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const std::uint64_t t0 = now_ns();
    call();
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  } while (now_ns() < deadline);
  calls += ms.size();
  return *std::min_element(ms.begin(), ms.end());
}

// --- the appliance block -----------------------------------------------------

/// The appliance every workload drives with its own traffic: a 2-shard
/// pipeline (W = 2^20, k = 4096, tau = 1, detection every 8192 packets per
/// core, observe mode). The inline pipeline runs process() on the calling
/// thread; the pull pipeline runs run_pull on kPullThreads cores over
/// pre-steered rings.
class appliance {
 public:
  appliance(const std::vector<memento::packet>& trace, const options& opt, result& res,
            tracer& tr);

  [[nodiscard]] static memento::pipeline_config config(bool short_mode);

  /// Construction, rss_steer and both warm-up windows. Returns the seconds
  /// spent in the program's calls.
  double setup();

  /// The flood pass through the inline pipeline (see gen.hpp), checking
  /// pipeline::blocks after each burst; reports detect_delay_pkts, then
  /// checks the inline pipeline against the exact windows of the pass and
  /// hands the checks' buffers back to the system.
  void flood_pass() {
    run_flood_pass();
    trim_free_memory();
  }

  /// The next burst of the trace (wrapping) for the inline pipeline.
  std::span<const memento::packet> next_inline_burst();
  void feed_inline(std::span<const memento::packet> burst) {
    inline_->process(burst);
    fed_inline_ += burst.size();
  }

  /// One timed run_pull repetition.
  void parallel_round(double seconds);
  /// Reports pipeline.parallel_mpps and the per-core metrics, then checks the pull
  /// pipeline against each core's exact window.
  void finish_parallel();

  [[nodiscard]] memento::pipeline<>& inline_pipeline() { return *inline_; }
  [[nodiscard]] std::uint64_t fed_inline() const { return fed_inline_; }
  [[nodiscard]] std::size_t cursor() const { return cursor_; }

 private:
  void run_flood_pass();
  void check_shards(const memento::sharded_memento<>& front,
                    const std::vector<std::vector<std::uint64_t>>& windows, const char* which);

  const std::vector<memento::packet>& trace_;
  const options& opt_;
  result& res_;
  tracer& tr_;
  memento::pipeline_config cfg_;
  std::unique_ptr<memento::pipeline<>> inline_;
  std::unique_ptr<memento::pipeline<>> pull_;
  std::vector<memento::packet_ring> rings_;
  std::size_t cursor_ = 0;  ///< next trace packet for the inline pipeline
  std::uint64_t fed_inline_ = 0;
  std::vector<double> pull_mpps_, core_min_, core_max_;
};

// --- the delta summary channel -----------------------------------------------

struct delta_outcome {
  double delta_report_kb = 0;    ///< mean steady-state delta report
  double full_report_kb = 0;     ///< mean full report
  double changed_entries = 0;    ///< mean changed entries per delta
  double observe_ns_per_pkt = 0;
  std::uint64_t rejected = 0;    ///< reports the delta controller refused
  std::uint64_t failed = 0;      ///< reports that did not decode
  std::size_t comparisons = 0;   ///< times the two controllers were compared
  bool agrees = true;
};

/// Four vantages (round-robin spray) each run a delta_summary_point at a
/// fixed cadence. The channel's controller must agree, within one change bar
/// per vantage, with a reference controller fed a full summary of the same
/// vantage state at every report. `drop_report` > 0 drops that delta report
/// (the negative test of the channel check).
delta_outcome run_delta_channel(const std::vector<memento::packet>& trace, bool short_mode,
                                std::size_t drop_report = 0);
void put_delta(result& res, const delta_outcome& d);

// --- the v2 checkpoint loop --------------------------------------------------

/// Streams `obj` through a chunked wire::sink into `image`; returns the
/// sink's peak buffered bytes.
template <typename T>
std::size_t stream_out(const T& obj, std::vector<std::uint8_t>& image) {
  image.clear();
  memento::wire::sink sink(
      [&](std::span<const std::uint8_t> chunk) {
        image.insert(image.end(), chunk.begin(), chunk.end());
        return true;
      },
      kChunk);
  if (!memento::snapshot::stream_save(obj, sink)) image.clear();
  return sink.peak_buffered();
}

/// Restores a T from `image` through a chunk-feeding wire::source.
template <typename T>
std::optional<T> stream_in(std::span<const std::uint8_t> image) {
  std::size_t at = 0;
  memento::wire::source src(
      [&](std::uint8_t* dst, std::size_t want) {
        const std::size_t n = std::min(want, image.size() - at);
        std::memcpy(dst, image.data() + at, n);
        at += n;
        return n;
      },
      kChunk);
  return memento::snapshot::stream_restore<T>(src);
}

/// Whether `restored` re-saves to exactly the v2 bytes of `image`.
template <typename T>
[[nodiscard]] bool resaves_identically(const T& restored, std::span<const std::uint8_t> image) {
  std::vector<std::uint8_t> again;
  stream_out(restored, again);
  return !image.empty() && std::ranges::equal(again, image);
}

/// Whether `restore` refuses both damaged copies of a non-empty `image`: its
/// first half, and the whole with one bit flipped in the middle. A restore
/// that skipped validation to go faster would accept them.
template <typename Restore>
[[nodiscard]] bool refuses_damage(std::span<const std::uint8_t> image, Restore&& restore) {
  if (image.empty()) return false;
  std::vector<std::uint8_t> flipped(image.begin(), image.end());
  flipped[flipped.size() / 2] ^= 0x10;
  return rejected(restore(image.first(image.size() / 2))) &&
         rejected(restore(std::span<const std::uint8_t>(flipped)));
}

/// Timed v2 save/restore pairs of one object, one repetition per round,
/// plus the checks every checkpoint must pass.
template <typename T>
class checkpoint_series {
 public:
  /// Save/restore pairs of `obj` for `seconds` (at least one pair). The
  /// process's memory is sampled after the round's first restore, while the
  /// original, its image and the restored copy are all held.
  void round(const T& obj, double seconds, result& res, tracer& tr) {
    std::vector<double> save, restore;
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    do {
      std::uint64_t t0 = now_ns();
      {
        scoped_span s(tr, "snapshot.save");
        peak_ = stream_out(obj, image_);
        s.items(image_.size());
      }
      save.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      image_bytes_.push_back(static_cast<double>(image_.size()));
      std::optional<T> back;
      t0 = now_ns();
      {
        scoped_span s(tr, "snapshot.restore");
        back = stream_in<T>(image_);
      }
      restore.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      res.attempt(2);
      if (!back) {
        res.fail();
        res.check(false, "checkpoint: v2 image restores");
        return;
      }
      if (restore.size() == 1) res.sample_rss();
      if (!checked_) {
        res.check(resaves_identically(*back, image_),
                  "checkpoint: restored copy re-saves to identical v2 bytes");
        checked_ = true;
      }
    } while (now_ns() < deadline);
    save_ms_.push_back(median(save));
    restore_ms_.push_back(median(restore));
  }

  /// Reports save_ms and restore_ms (reference-host equivalents, see
  /// result::put_scaled), checkpoint_mb and the sink's peak buffer, and
  /// checks that a truncated and a bit-flipped image are refused.
  void finish(result& res, double slowdown) {
    res.put_scaled("save_ms", median(save_ms_), slowdown);
    res.put_scaled("restore_ms", median(restore_ms_), slowdown);
    // The image's size follows the sketch's frame phase (Space-Saving is
    // flushed every frame), so the figure is the mean over every save.
    double bytes = 0.0;
    for (const double b : image_bytes_) bytes += b;
    res.put("checkpoint_mb",
            bytes / static_cast<double>(image_bytes_.size()) / (1024.0 * 1024.0));
    res.put("snapshot.peak_buffered_kb", static_cast<double>(peak_) / 1024.0);
    res.check(refuses_damage(image_, stream_in<T>),
              "checkpoint: truncated and bit-flipped images refused");
  }

 private:
  std::vector<std::uint8_t> image_;
  std::vector<double> save_ms_, restore_ms_, image_bytes_;
  std::size_t peak_ = 0;
  bool checked_ = false;
};

/// Per-layer split of a checkpoint of `whole` into its sketches `parts`:
/// each part's own v2 save/restore, the framing (the whole restore minus the
/// parts', timed in the same repetitions), bytes per counter, and a
/// standalone Space-Saving the size of one part, filled from `fill_keys` and
/// restored on its own.
template <typename Whole, typename Sketch>
void snapshot_layers(const Whole& whole, const std::vector<const Sketch*>& parts,
                     const std::vector<std::uint64_t>& fill_keys, result& res) {
  std::vector<double> save, restore, whole_restore;
  std::vector<std::uint8_t> image, whole_image;
  stream_out(whole, whole_image);
  std::size_t counters = 0;
  for (const Sketch* p : parts) counters += p->counters();
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t t0 = now_ns();
    res.check(stream_in<Whole>(whole_image).has_value(), "snapshot layers: the whole restores");
    whole_restore.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    double s_ms = 0, r_ms = 0;
    for (const Sketch* p : parts) {
      t0 = now_ns();
      stream_out(*p, image);
      s_ms += static_cast<double>(now_ns() - t0) / 1e6;
      t0 = now_ns();
      const auto back = stream_in<Sketch>(image);
      r_ms += static_cast<double>(now_ns() - t0) / 1e6;
      res.check(back.has_value(), "snapshot layers: a part restores on its own");
    }
    save.push_back(s_ms);
    restore.push_back(r_ms);
  }
  res.put("snapshot.shard_save_ms", median(save));
  res.put("snapshot.shard_restore_ms", median(restore));
  res.put("snapshot.frame_ms", median(whole_restore) - median(restore));
  res.put("snapshot.bytes_per_counter",
          static_cast<double>(whole_image.size()) / static_cast<double>(counters));

  memento::space_saving<std::uint64_t> ss(parts.front()->counters());
  for (std::size_t i = 0; i < fill_keys.size() && ss.size() < ss.capacity(); i += 1024) {
    ss.add_batch(fill_keys.data() + i, std::min<std::size_t>(1024, fill_keys.size() - i));
  }
  std::vector<double> ss_restore;
  stream_out(ss, image);
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    const auto back = stream_in<memento::space_saving<std::uint64_t>>(image);
    ss_restore.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    res.check(back.has_value(), "snapshot layers: standalone Space-Saving restores");
  }
  res.put("sketch.restore_ms", median(ss_restore));
}

/// Per-layer metrics every workload derives from its spans.
inline void common_layers(result& res, const tracer& tr) {
  const auto [steer_ns, steered] = tr.total("trace.steer");
  res.put("trace.steer_ns_per_pkt", steered > 0 ? steer_ns / steered : 0.0);
}

/// Times `full()` against `per_part()` (the same query asked of each part):
/// reports core.shard_heavy_hitters_ms and shard.merge_ms (the rest).
template <typename Full, typename Parts>
void merge_layers(result& res, Full&& full, Parts&& per_part) {
  std::vector<double> whole, parts;
  for (int rep = 0; rep < 15; ++rep) {
    std::uint64_t t0 = now_ns();
    full();
    whole.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    t0 = now_ns();
    per_part();
    parts.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  res.put("core.shard_heavy_hitters_ms", median(parts));
  res.put("shard.merge_ms", median(whole) - median(parts));
}

}  // namespace perfbench

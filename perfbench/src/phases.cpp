#include "phases.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "gen.hpp"
#include "hierarchy/prefix1d.hpp"
#include "netwide/summary_channel.hpp"

namespace perfbench {

using memento::packet;

void burst_series::put(result& res, double slowdown) const {
  res.attempt(bursts_);
  std::vector<double> mpps, ns;
  for (const one& r : reps_) {
    mpps.push_back(r.mpps);
    ns.insert(ns.end(), r.burst_ns.begin(), r.burst_ns.end());
  }
  res.put_scaled("ingest_mpps", median(mpps), slowdown, /*rate=*/true);
  res.put_scaled("burst_p50_us", percentile(ns, 0.50) / 1e3, slowdown);
  res.put_scaled("burst_p99_us", percentile(ns, 0.99) / 1e3, slowdown);
}

// --- appliance ---------------------------------------------------------------

appliance::appliance(const std::vector<packet>& trace, const options& opt, result& res,
                     tracer& tr)
    : trace_(trace), opt_(opt), res_(res), tr_(tr), cfg_(config(opt.short_mode)) {}

memento::pipeline_config appliance::config(bool short_mode) {
  memento::pipeline_config c;
  c.sharding.window_size = short_mode ? std::uint64_t{1} << 15 : std::uint64_t{1} << 20;
  c.sharding.counters = short_mode ? 2048 : 4096;
  c.sharding.tau = 1.0;
  c.sharding.seed = 0xA11CE;
  c.sharding.shards = kPullThreads;
  c.detect_stride = short_mode ? 1024 : 8192;
  return c;  // mitigation defaults: block at 5%, observe mode
}

double appliance::setup() {
  double secs = 0.0;
  std::uint64_t t0 = now_ns();
  inline_ = std::make_unique<memento::pipeline<>>(cfg_);
  pull_ = std::make_unique<memento::pipeline<>>(cfg_);
  secs += static_cast<double>(now_ns() - t0) / 1e9;

  // The pull rings hold two windows of the trace, which they replay
  // cyclically: enough for every core's window to see fresh packets, small
  // enough that the rings do not outweigh the sketches in peak_rss_mb.
  const std::span<const packet> steered(trace_.data(),
                                        std::min<std::size_t>(trace_.size(),
                                                              2 * cfg_.sharding.window_size));
  t0 = now_ns();
  {
    scoped_span s(tr_, "trace.steer");
    auto per_core = memento::rss_steer(steered, pull_->cores(),
                                       [this](const packet& p) { return pull_->core_of(p); });
    for (auto& slice : per_core) rings_.emplace_back(std::move(slice));
    s.items(steered.size());
  }
  secs += static_cast<double>(now_ns() - t0) / 1e9;

  // Warm-up: one full window through each pipeline before anything is timed.
  const std::uint64_t window = cfg_.sharding.window_size;
  while (fed_inline_ < window) {
    const auto burst = next_inline_burst();
    t0 = now_ns();
    feed_inline(burst);
    secs += static_cast<double>(now_ns() - t0) / 1e9;
  }
  auto warm = [&] {
    for (std::size_t c = 0; c < pull_->cores(); ++c) {
      if (pull_->report(c).ingested < pull_->frontend().shard(c).window_size()) return false;
    }
    return true;
  };
  while (!warm()) secs += pull_->run_pull(rings_, 0.02, kPullBurst);
  res_.sample_rss();
  return secs;
}

std::span<const packet> appliance::next_inline_burst() {
  const std::size_t n = std::min(kBurst, trace_.size() - cursor_);
  const std::span<const packet> burst(trace_.data() + cursor_, n);
  cursor_ = (cursor_ + n) % trace_.size();
  return burst;
}

void appliance::run_flood_pass() {
  perfbench::flood_pass pass(trace_, cfg_.sharding.window_size);
  const std::size_t cores = inline_->cores();
  auto blocked = [&](std::size_t e) {
    for (std::size_t k = 0; k < kFloodSubnetsPerEpisode; ++k) {
      for (std::size_t c = 0; c < cores; ++c) {
        if (!inline_->blocks(c, flood_subnet(e, k))) return false;
      }
    }
    return true;
  };
  // Per episode: whether all its subnets were blocked after each burst.
  std::vector<std::vector<bool>> after(kFloodEpisodes);
  std::vector<std::vector<std::uint64_t>> ends(kFloodEpisodes);
  std::vector<packet> burst, tail;  // tail: the last two episodes, for the checks
  const std::uint64_t len = pass.episode_len();
  for (std::uint64_t at = 0; at < pass.size(); at += burst.size()) {
    pass.next(burst, kBurst);
    feed_inline(burst);
    const std::size_t e = at / len;
    after[e].push_back(blocked(e));
    ends[e].push_back(at + burst.size());
    if (e + 2 >= kFloodEpisodes) tail.insert(tail.end(), burst.begin(), burst.end());
  }
  double delays = 0.0;
  bool all_detected = true, all_held = true;
  for (std::size_t e = 0; e < kFloodEpisodes; ++e) {
    const auto delay = detection_delay(after[e], ends[e], pass.flood_start(e));
    all_detected = all_detected && delay.has_value();
    all_held = all_held && !after[e].empty() && after[e].back();
    delays += static_cast<double>(delay.value_or(0));
  }
  res_.check(all_detected, "appliance: the pipeline blocks every flooding subnet");
  res_.check(all_held, "appliance: every flooding subnet is still blocked when its flood ends");
  res_.put("detect_delay_pkts", delays / static_cast<double>(kFloodEpisodes));

  // Each shard's window lies inside the last two episodes of the pass.
  const auto& front = inline_->frontend();
  std::vector<std::vector<std::uint64_t>> windows(cores);
  std::vector<std::vector<std::uint64_t>> routed(cores);
  for (const packet& p : tail) routed[inline_->core_of(p)].push_back(memento::flow_id(p));
  for (std::size_t c = 0; c < cores; ++c) {
    const std::size_t w = std::min<std::size_t>(front.shard(c).window_size(), routed[c].size());
    windows[c].assign(routed[c].end() - static_cast<std::ptrdiff_t>(w), routed[c].end());
  }
  check_shards(front, windows, "inline pipeline");
  std::uint64_t ingested = 0, mitigated = 0;
  for (std::size_t c = 0; c < cores; ++c) {
    ingested += inline_->report(c).ingested;
    mitigated += inline_->report(c).mitigated;
  }
  res_.check(accounting_ok(fed_inline_, ingested, front.stream_length(), mitigated),
             "inline pipeline: fed == sum ingested == sum stream_length + mitigated");
}

void appliance::parallel_round(double seconds) {
  if (usable_cpus() < kPullThreads + 1) {
    throw std::runtime_error("parallel phase needs " + std::to_string(kPullThreads + 1) +
                             " cpus, this host has " + std::to_string(usable_cpus()));
  }
  const std::size_t cores = pull_->cores();
  std::vector<std::uint64_t> before(cores);
  std::uint64_t bursts_before = 0;
  for (std::size_t c = 0; c < cores; ++c) {
    before[c] = pull_->report(c).ingested;
    bursts_before += pull_->report(c).bursts;
  }
  double wall = 0.0;
  {
    scoped_span s(tr_, "pipeline.run_pull");
    wall = pull_->run_pull(rings_, seconds, kPullBurst);
  }
  std::uint64_t total = 0, bursts = 0;
  double lo = 1e300, hi = 0.0;
  for (std::size_t c = 0; c < cores; ++c) {
    const auto rep = pull_->report(c);
    const double m = static_cast<double>(rep.ingested - before[c]) / wall / 1e6;
    lo = std::min(lo, m);
    hi = std::max(hi, m);
    total += rep.ingested - before[c];
    bursts += rep.bursts;
  }
  res_.attempt(bursts - bursts_before);
  pull_mpps_.push_back(static_cast<double>(total) / wall / 1e6);
  core_min_.push_back(lo);
  core_max_.push_back(hi);
}

void appliance::finish_parallel() {
  const std::size_t cores = pull_->cores();
  res_.put("pipeline.parallel_mpps", median(pull_mpps_));
  res_.put("pipeline.core_mpps_min", median(core_min_));
  res_.put("pipeline.core_mpps_max", median(core_max_));
  std::uint64_t most = 0, sum = 0;
  for (std::size_t c = 0; c < cores; ++c) {
    most = std::max(most, pull_->report(c).ingested);
    sum += pull_->report(c).ingested;
  }
  res_.put("shard.load_ratio",
           static_cast<double>(most) * static_cast<double>(cores) / static_cast<double>(sum));

  // packet_ring::next_burst in isolation, on a copy of core 0's ring.
  memento::packet_ring ring(std::vector<packet>(rings_[0].packets().begin(),
                                                rings_[0].packets().end()));
  const std::size_t calls = opt_.short_mode ? 1 << 12 : 1 << 18;
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < calls; ++i) sink += ring.next_burst(kPullBurst).size();
  const double ns = static_cast<double>(now_ns() - t0);
  res_.put("trace.next_burst_ns", sink > 0 ? ns / static_cast<double>(calls) : 0.0);

  // Core c's stream is its slice, cyclically, for `ingested` packets.
  const auto& front = pull_->frontend();
  std::vector<std::vector<std::uint64_t>> windows(cores);
  std::uint64_t fed = 0, ingested = 0, mitigated = 0;
  for (std::size_t c = 0; c < cores; ++c) {
    const auto slice = rings_[c].packets();
    const auto rep = pull_->report(c);
    const std::uint64_t n = rep.ingested;
    const std::uint64_t w = std::min<std::uint64_t>(front.shard(c).window_size(), n);
    for (std::uint64_t i = n - w; i < n; ++i) {
      windows[c].push_back(memento::flow_id(slice[i % slice.size()]));
    }
    fed += rings_[c].offered();
    ingested += rep.ingested;
    mitigated += rep.mitigated;
  }
  check_shards(front, windows, "pull pipeline");
  res_.check(accounting_ok(fed, ingested, front.stream_length(), mitigated),
             "pull pipeline: fed == sum ingested == sum stream_length + mitigated");
}

void appliance::check_shards(const memento::sharded_memento<>& front,
                             const std::vector<std::vector<std::uint64_t>>& windows,
                             const char* which) {
  constexpr double kTheta = 1e-3;
  std::unordered_set<std::uint64_t> reported;
  for (const auto& hh : front.heavy_hitters(kTheta)) reported.insert(hh.key);
  const double bar = kTheta * static_cast<double>(front.window_size());
  rng r(0xc4ec4);
  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    const auto& shard = front.shard(s);
    const auto& keys = windows[s];
    exact_window_counter<std::uint64_t> exact(shard.window_size());
    for (const std::uint64_t k : keys) exact.add(k);

    // Probes: the true top flows, a random sample of the window, absent keys.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> by_count(exact.counts().begin(),
                                                                  exact.counts().end());
    const std::size_t top = std::min<std::size_t>(16, by_count.size());
    std::partial_sort(by_count.begin(), by_count.begin() + static_cast<std::ptrdiff_t>(top),
                      by_count.end(), [](const auto& a, const auto& b) {
                        return a.second > b.second;
                      });
    std::vector<std::uint64_t> probes;
    for (std::size_t i = 0; i < top; ++i) probes.push_back(by_count[i].first);
    for (int i = 0; i < 256 && !keys.empty(); ++i) probes.push_back(keys[r.below(keys.size())]);
    for (int i = 0; i < 64; ++i) {
      probes.push_back(memento::flow_id(packet{(250u << 24) | static_cast<std::uint32_t>(
                                                                  r.next() & 0xffffff),
                                               static_cast<std::uint32_t>(r.next())}));
    }
    std::size_t bad = 0;
    for (const std::uint64_t k : probes) {
      bad += estimate_within(static_cast<double>(exact.count(k)), shard.query(k),
                             shard.estimate_width())
                 ? 0
                 : 1;
    }
    res_.check(keys.size() == std::min<std::uint64_t>(shard.window_size(),
                                                      shard.stream_length()),
               std::string(which) + ": shard " + std::to_string(s) + " window rebuilt whole");
    res_.check(bad == 0, std::string(which) + ": exact <= query <= exact + width on shard " +
                             std::to_string(s) + " (" + std::to_string(bad) + " of " +
                             std::to_string(probes.size()) + " probes outside)");
    const std::size_t missed = missed_heavy_hitters(exact.counts(), bar, reported);
    res_.check(missed == 0, std::string(which) + ": heavy_hitters misses " +
                                std::to_string(missed) + " true heavy hitters on shard " +
                                std::to_string(s));
  }
}

// --- delta summary channel ---------------------------------------------------

delta_outcome run_delta_channel(const std::vector<packet>& trace, bool short_mode,
                                std::size_t drop_report) {
  using H = memento::source_hierarchy;
  using report_t = memento::netwide::delta_summary_report<std::uint64_t>;
  constexpr std::size_t kVantages = 4;
  const std::uint64_t local_window = short_mode ? 1u << 12 : 1u << 18;
  const std::size_t counters = short_mode ? 5 * 64 : 5 * 512;
  const std::uint64_t cadence = short_mode ? 1024 : 16384;
  const std::size_t rounds = short_mode ? 12 : 24;
  const std::size_t total = kVantages * (local_window + rounds * cadence);
  const std::size_t block = kVantages * 1024;
  const std::size_t round = kVantages * cadence;

  memento::netwide::delta_summary_config delta_cfg;
  delta_cfg.resync_every = 16;
  delta_cfg.cadence_packets = cadence;
  std::vector<memento::netwide::delta_summary_point<H>> points;
  for (std::uint32_t v = 0; v < kVantages; ++v) {
    points.emplace_back(v, local_window, counters, memento::netwide::budget_model{}, delta_cfg,
                        0xde17a);
  }
  // cdelta hears the channel; cfull is the reference fed a full summary of
  // the same vantage state every time the channel reports.
  memento::netwide::delta_summary_controller<H> cdelta, cfull;

  std::vector<std::uint64_t> probes;
  for (std::size_t i = 0; i < 64; ++i) {
    const packet& p = trace[(i * 7919) % trace.size()];
    for (std::size_t d = 0; d < H::hierarchy_size; ++d) probes.push_back(H::key_at(p, d));
  }
  const double bar = static_cast<double>(points[0].algorithm().inner().overflow_threshold()) *
                     static_cast<double>(H::hierarchy_size) / points[0].algorithm().tau();

  delta_outcome out;
  double observe_ns = 0.0, delta_bytes = 0.0, full_bytes = 0.0, changed = 0.0;
  std::size_t steady_deltas = 0, full_reports = 0, delta_seen = 0;
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> sent;  // (packet, payload)
  for (std::size_t at = 0; at < total; at += block) {
    // The channel's own cost: observe() on every packet of the block, minus
    // the reference summaries built when a vantage reports.
    sent.clear();
    double reference_ns = 0.0;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = at; i < at + block; ++i) {
      auto& point = points[i % kVantages];
      auto payload = point.observe(trace[i % trace.size()]);
      if (!payload) continue;
      const std::uint64_t r0 = now_ns();
      report_t reference;
      reference.origin = point.id();
      reference.epoch = point.reports_sent();
      reference.kind = memento::netwide::summary_kind::full;
      reference.summary = memento::window_summary<std::uint64_t>::from_hhh(point.algorithm());
      cfull.on_report(std::move(reference));
      sent.emplace_back(i, std::move(*payload));
      reference_ns += static_cast<double>(now_ns() - r0);
    }
    observe_ns += static_cast<double>(now_ns() - t0) - reference_ns;

    for (auto& [i, bytes] : sent) {
      auto report = memento::netwide::decode_delta_summary_report<std::uint64_t>(bytes);
      if (!report) {
        out.agrees = false;
        ++out.failed;
        continue;
      }
      if (report->kind == memento::netwide::summary_kind::full) {
        full_bytes += static_cast<double>(bytes.size());
        ++full_reports;
      } else {
        ++delta_seen;
        if (i / kVantages >= local_window) {  // steady state: the vantage's window is full
          delta_bytes += static_cast<double>(bytes.size());
          changed += static_cast<double>(report->changed.size());
          ++steady_deltas;
        }
        if (delta_seen == drop_report) continue;  // lost on the wire
      }
      cdelta.on_report(std::move(*report));
    }
    if ((at + block) % round == 0 && at + block > kVantages * local_window) {
      std::vector<double> a, b;
      for (const std::uint64_t k : probes) {
        a.push_back(cdelta.query_point(k));
        b.push_back(cfull.query_point(k));
      }
      out.agrees = out.agrees && delta_agrees(cdelta.reports_rejected(), a, b,
                                              bar * static_cast<double>(kVantages));
      ++out.comparisons;
    }
  }
  out.rejected = cdelta.reports_rejected();
  out.observe_ns_per_pkt = observe_ns / static_cast<double>(total);
  out.delta_report_kb = steady_deltas ? delta_bytes / static_cast<double>(steady_deltas) / 1024 : 0;
  out.full_report_kb = full_reports ? full_bytes / static_cast<double>(full_reports) / 1024 : 0;
  out.changed_entries = steady_deltas ? changed / static_cast<double>(steady_deltas) : 0;
  return out;
}

void put_delta(result& res, const delta_outcome& d) {
  res.fail(d.failed);
  res.check(d.rejected == 0,
            "delta channel: the controller rejects no report on a lossless stream");
  res.check(d.comparisons > 0 && d.agrees,
            "delta channel: answers within one change bar per vantage of the full-report "
            "controller (" + std::to_string(d.comparisons) + " comparisons)");
  res.check(d.delta_report_kb > 0, "delta channel: steady-state delta reports were sent");
  res.put("delta_report_kb", d.delta_report_kb);
  res.put("netwide.full_report_kb", d.full_report_kb);
  res.put("netwide.changed_entries", d.changed_entries);
  res.put("netwide.observe_ns_per_pkt", d.observe_ns_per_pkt);
}

}  // namespace perfbench

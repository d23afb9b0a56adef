// hhh_sampled: a skewed trace (Zipf 1.4 over 2^16 (src, dst) flows) through
// h_memento<two_dim_hierarchy> at tau = 1/16 - the paper's Fig. 6 regime,
// where the compacted update_batch_sampled kernel and the hierarchy solver
// do the work and Space-Saving sees few updates. The shard and pipeline
// layers are bypassed on the subject; the appliance block runs on the same
// traffic for the parallel and detection metrics.
#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "bench.hpp"
#include "core/h_memento.hpp"
#include "gen.hpp"
#include "hierarchy/prefix2d.hpp"
#include "phases.hpp"

namespace perfbench {

void run_hhh_sampled(const options& opt, result& res, tracer& tr) {
  using H = memento::two_dim_hierarchy;
  using memento::packet;
  const bool sh = opt.short_mode;
  const auto trace = zipf_trace(1u << 16, 1.4, sh ? 1u << 19 : 4'000'000, opt.seed);
  const memento::h_memento_config hcfg{sh ? 1u << 18 : 1u << 20, 25 * 512, 1.0 / 16, 1e-3,
                                       0x4848};
  res.rss_baseline();
  // At full size, above the Alg. 2 sampling compensation (2 Z sqrt(V W),
  // ~12% of W), so output() admits prefixes on their estimates, not on the
  // slack alone. The short mode's smaller W widens the envelope to ~17% of
  // W, so its theta is lower, to keep the heaviest pair (~32% of the
  // traffic) above the recall bar.
  const double theta = sh ? 0.1 : 0.2;

  std::size_t cursor = 0;
  std::uint64_t fed = 0;
  auto next = [&] {
    const std::size_t n = std::min(kBurst, trace.size() - cursor);
    const std::span<const packet> burst(trace.data() + cursor, n);
    cursor = (cursor + n) % trace.size();
    fed += n;
    return burst;
  };

  double setup = 0.0;
  std::uint64_t t0 = now_ns();
  memento::h_memento<H> hm(hcfg);
  while (fed < hcfg.window_size) hm.update_batch(next());
  setup += static_cast<double>(now_ns() - t0) / 1e9;
  appliance app(trace, opt, res, tr);
  setup += app.setup();
  res.put("setup_s", setup);
  app.flood_pass();

  // Timed rounds: the batched hierarchical kernel, the 2-D HHH output, v2
  // checkpoints and run_pull on two cores. A 2-D H-Memento has no v2
  // (streamed) format - prefix2d keys have no u64 column codec - so the
  // checkpoint measured here is the appliance's 2-shard frontend after this
  // workload's traffic.
  const auto& front = app.inline_pipeline().frontend();
  burst_series ingest;
  checkpoint_series<memento::sharded_memento<>> ck;
  std::vector<double> query_ms;
  std::uint64_t queries = 0;
  std::size_t hhh = 0;
  const int n = rounds(opt);
  host_speed speed;
  const std::size_t ingest_bursts = bursts_per_rep(opt, 0.35, 140);
  for (int r = 0; r < n; ++r) {
    speed.sample();
    ingest.rep(ingest_bursts, [&] {
      const auto burst = next();
      hm.update_batch(burst);
      return burst.size();
    });
    speed.sample();
    query_ms.push_back(
        timed_calls(opt.seconds * 0.15 / n, queries, [&] { hhh = hm.output(theta).size(); }));
    speed.sample();
    ck.round(front, opt.seconds * 0.15 / n, res, tr);
    app.parallel_round(opt.seconds * 0.35 / n);
  }
  res.sample_rss();
  const double slowdown = speed.slowdown();
  res.put("host.slowdown", slowdown);
  ingest.put(res, slowdown);
  res.attempt(queries);
  res.put_scaled("query_ms", median(query_ms), slowdown);
  res.put("core.candidates", static_cast<double>(hm.candidate_count()));
  ck.finish(res, slowdown);
  app.finish_parallel();

  if (tr.on()) {
    burst_series traced;
    for (int r = 0; r < n; ++r) {
      traced.rep(ingest_bursts, [&] {
        const auto burst = next();
        scoped_span s(tr, "core.hhh_update");
        hm.update_batch(burst);
        s.items(burst.size());
        return burst.size();
      });
    }
    const auto [ns, pkts] = tr.total("core.hhh_update");
    res.put("core.hhh_update_ns_per_pkt", ns / pkts);
    res.put("tracing.overhead_ns_per_pkt", traced.ns_per_packet() - ingest.ns_per_packet());
    std::uint64_t calls = 0;
    std::size_t monitored = 0;
    const double enumerate = timed_calls(0.2, calls, [&] {
      monitored += hm.inner().monitored_keys().size();
    });
    res.put("hierarchy.enumerate_ms", enumerate);
    res.put("hierarchy.solve_ms", median(query_ms) - enumerate);
    res.put("hierarchy.hhh_count", static_cast<double>(hhh));
    std::vector<const memento::memento_sketch<std::uint64_t>*> parts;
    for (std::size_t s = 0; s < front.num_shards(); ++s) parts.push_back(&front.shard(s));
    std::vector<std::uint64_t> keys;
    for (const packet& p : trace) keys.push_back(memento::flow_id(p));
    snapshot_layers(front, parts, keys, res);
  }

  // Checks against the exact window: the last W packets fed, which are the
  // trace read cyclically from its start.
  const std::uint64_t window = hm.window_size();
  res.check(hm.stream_length() == fed, "hhh: stream_length equals the packets fed");
  std::unordered_map<std::uint64_t, std::uint64_t> pairs;
  std::vector<packet> in_window;
  for (std::uint64_t i = fed - window; i < fed; ++i) {
    const packet& p = trace[i % trace.size()];
    ++pairs[memento::flow_id(p)];
    in_window.push_back(p);
  }
  rng r(0x4848c);
  std::unordered_map<memento::prefix2d, std::uint64_t> probes;
  for (int i = 0; i < 100; ++i) {
    const packet& p = in_window[r.below(in_window.size())];
    for (std::size_t lvl = 0; lvl < H::hierarchy_size; ++lvl) {
      probes.emplace(H::key_at(p, lvl), 0);
    }
  }
  for (const auto& [id, count] : pairs) {
    const packet p{static_cast<std::uint32_t>(id >> 32), static_cast<std::uint32_t>(id)};
    for (std::size_t lvl = 0; lvl < H::hierarchy_size; ++lvl) {
      const auto it = probes.find(H::key_at(p, lvl));
      if (it != probes.end()) it->second += count;
    }
  }
  const double envelope = static_cast<double>(H::hierarchy_size) * hm.inner().estimate_width() +
                          4.0 * std::sqrt(hm.sampling_ratio() * static_cast<double>(window));
  // Both checks below must be able to fail: the envelope well inside the
  // window, and at least one pair above the recall bar.
  res.check(envelope < 0.25 * static_cast<double>(window),
            "hhh: the Theorem 5.2 envelope (" + std::to_string(envelope) +
                ") is below a quarter of W");
  std::vector<std::vector<double>> errors(H::num_levels);
  for (const auto& [key, count] : probes) {
    errors[H::depth(key)].push_back(hm.query(key) - static_cast<double>(count));
  }
  for (std::size_t lvl = 0; lvl < H::num_levels; ++lvl) {
    const double share = share_within(errors[lvl], envelope);
    res.check(share >= 0.98, "hhh: " + std::to_string(100 * share) +
                                 "% of probed prefixes at lattice level " + std::to_string(lvl) +
                                 " within the Theorem 5.2 envelope (need 98%)");
  }
  std::unordered_set<std::uint64_t> reported;
  for (const auto& e : hm.output(theta)) {
    if (H::depth(e.key) == 0) reported.insert(memento::flow_id(packet{e.key.src, e.key.dst}));
  }
  const double bar = theta * static_cast<double>(window) + envelope;
  std::uint64_t top = 0;
  for (const auto& [id, count] : pairs) top = std::max(top, count);
  res.check(static_cast<double>(top) >= bar,
            "hhh: the heaviest (src,dst) pair (" + std::to_string(top) +
                ") lies above theta*W plus the envelope (" + std::to_string(bar) + ")");
  const std::size_t missed = missed_heavy_hitters(pairs, bar, reported);
  res.check(missed == 0, "hhh: output misses " + std::to_string(missed) +
                             " (src,dst) pairs above theta*W plus the envelope");

  put_delta(res, run_delta_channel(trace, sh));
  common_layers(res, tr);
}

}  // namespace perfbench

// hh_backbone: a heavy-tailed trace (Zipf 1.0 over ~4M flows) through the
// appliance, every packet a Full update (tau = 1). The inline pipeline is
// the subject: pipeline::process ingest, heavy_hitters queries, v2
// checkpoints of its 2-shard frontend. The traced run replays the same
// bursts layer by layer through public calls.
#include <unordered_map>

#include "bench.hpp"
#include "gen.hpp"
#include "hierarchy/prefix1d.hpp"
#include "lb/mitigation_policy.hpp"
#include "phases.hpp"

namespace perfbench {

namespace {

using memento::packet;
using traits = memento::flow_key_traits;

constexpr double kTheta = 1e-3;  ///< heavy_hitters threshold of the query phase

/// One burst of the traced replay: the pipeline's stages as public calls,
/// each in a span under the burst's root span.
void replay_burst(std::span<const packet> burst, const memento::pipeline_config& cfg,
                  memento::sharded_memento<>& front,
                  std::vector<memento::lb::mitigation_policy>& policies,
                  std::vector<std::uint64_t>& credit, std::vector<std::vector<packet>>& routed,
                  std::vector<std::vector<std::uint64_t>>& keys,
                  std::unordered_map<std::uint64_t, double>& shares, tracer& tr) {
  const std::size_t n = burst.size();
  const std::size_t cores = front.num_shards();
  for (auto& k : keys) k.clear();
  scoped_span root(tr, "replay.burst");
  root.items(n);
  {
    scoped_span s(tr, "shard.partition", root.id());
    for (auto& r : routed) r.clear();
    for (const packet& p : burst) routed[front.shard_of(traits::key_of(p))].push_back(p);
    s.items(n);
  }
  for (std::size_t c = 0; c < cores; ++c) {
    if (routed[c].empty()) continue;
    {
      scoped_span s(tr, "pipeline.parse", root.id());
      for (const packet& p : routed[c]) keys[c].push_back(traits::key_of(p));
      s.items(keys[c].size());
    }
    {
      scoped_span s(tr, "core.update", root.id());
      front.shard_mut(c).update_batch(keys[c].data(), keys[c].size());
      s.items(keys[c].size());
    }
    credit[c] += routed[c].size();
    while (credit[c] >= cfg.detect_stride) {
      credit[c] -= cfg.detect_stride;
      scoped_span s(tr, "lb.sweep", root.id());
      const auto& shard = front.shard(c);
      const double window = static_cast<double>(shard.window_size());
      shares.clear();
      shard.for_each_candidate([&](std::uint64_t key, double est) {
        shares[memento::prefix1d::make_key(traits::src_of(key), 3)] += est / window;
      });
      s.items(policies[c].evaluate(shares).size());
    }
  }
}

/// Replays `bursts` bursts of `trace` from `cursor` layer by layer on `front`
/// (partition, key_of, per-shard update_batch, detect sweeps at the
/// pipeline's stride), with a span around each public call. Also times
/// space_saving::add_batch on the same per-shard keys in isolation.
void traced_replay(const std::vector<packet>& trace, std::size_t cursor, std::size_t bursts,
                   const memento::pipeline_config& cfg, memento::sharded_memento<>& front,
                   tracer& tr) {
  const std::size_t cores = front.num_shards();
  std::vector<memento::lb::mitigation_policy> policies(
      cores, memento::lb::mitigation_policy(cfg.mitigation));
  std::vector<memento::space_saving<std::uint64_t>> isolated(
      cores, memento::space_saving<std::uint64_t>(front.shard(0).counters()));
  std::vector<std::uint64_t> credit(cores, 0);
  std::vector<std::vector<packet>> routed(cores);
  std::vector<std::vector<std::uint64_t>> keys(cores);
  std::unordered_map<std::uint64_t, double> shares;
  for (std::size_t b = 0; b < bursts; ++b) {
    const std::size_t n = std::min(kBurst, trace.size() - cursor);
    const std::span<const packet> burst(trace.data() + cursor, n);
    cursor = (cursor + n) % trace.size();
    replay_burst(burst, cfg, front, policies, credit, routed, keys, shares, tr);
    for (std::size_t c = 0; c < cores; ++c) {
      scoped_span s(tr, "sketch.add_batch");
      isolated[c].add_batch(keys[c].data(), keys[c].size());
      s.items(keys[c].size());
    }
  }
}

}  // namespace

void run_hh_backbone(const options& opt, result& res, tracer& tr) {
  const bool sh = opt.short_mode;
  const auto trace =
      zipf_trace(sh ? 1u << 16 : 4'000'000, 1.0, sh ? 1u << 18 : 4'000'000, opt.seed);
  const auto cfg = appliance::config(sh);
  res.rss_baseline();

  appliance app(trace, opt, res, tr);
  res.put("setup_s", app.setup());
  const std::uint64_t warmed = app.fed_inline();
  app.flood_pass();
  auto& pipe = app.inline_pipeline();
  const auto& front = pipe.frontend();

  // Timed rounds: pipeline::process ingest with every stage inline,
  // heavy_hitters over the merged shards, v2 checkpoints of the frontend,
  // and run_pull on two cores.
  const std::size_t start = app.cursor();
  burst_series ingest;
  checkpoint_series<memento::sharded_memento<>> ck;
  std::vector<double> query_ms;
  std::uint64_t queries = 0;
  std::size_t reported = 0;
  const int n = rounds(opt);
  host_speed speed;
  const std::size_t ingest_bursts = bursts_per_rep(opt, 0.35, 22);
  for (int r = 0; r < n; ++r) {
    speed.sample();
    ingest.rep(ingest_bursts, [&] {
      const auto burst = app.next_inline_burst();
      app.feed_inline(burst);
      return burst.size();
    });
    speed.sample();
    query_ms.push_back(timed_calls(opt.seconds * 0.10 / n, queries,
                                   [&] { reported += pipe.heavy_hitters(kTheta).size(); }));
    speed.sample();
    ck.round(front, opt.seconds * 0.15 / n, res, tr);
    app.parallel_round(opt.seconds * 0.40 / n);
  }
  res.sample_rss();
  const double slowdown = speed.slowdown();
  res.put("host.slowdown", slowdown);
  ingest.put(res, slowdown);
  res.attempt(queries);
  res.put_scaled("query_ms", median(query_ms), slowdown);
  res.check(reported > 0, "query: heavy_hitters reports the trace's top flows");
  res.put("core.candidates", static_cast<double>(front.candidate_count()));
  ck.finish(res, slowdown);
  app.finish_parallel();

  if (tr.on()) {
    // The same warm-up, flood pass and bursts, replayed call by call on a
    // twin frontend.
    memento::sharded_memento<> twin(cfg.sharding);
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < warmed; ++i) keys.push_back(memento::flow_id(trace[i]));
    twin.update_batch(keys.data(), keys.size());
    flood_pass pass(trace, cfg.sharding.window_size);
    std::vector<packet> burst;
    for (pass.next(burst, kBurst); !burst.empty(); pass.next(burst, kBurst)) {
      keys.clear();
      for (const packet& p : burst) keys.push_back(memento::flow_id(p));
      twin.update_batch(keys.data(), keys.size());
    }
    traced_replay(trace, start, ingest.bursts(), cfg, twin, tr);
    std::vector<std::uint8_t> a, c;
    stream_out(front, a);
    stream_out(twin, c);
    res.check(!a.empty() && a == c,
              "traced replay: v2 save bytes identical to the untraced process() run");

    const double pkts = static_cast<double>(ingest.packets());
    const double untraced = ingest.ns_per_packet();
    const double partition = tr.total("shard.partition").first / pkts;
    const double parse = tr.total("pipeline.parse").first / pkts;
    const double update = tr.total("core.update").first / pkts;
    const double sweeps = tr.total("lb.sweep").first / pkts;
    res.put("shard.partition_ns_per_pkt", partition);
    res.put("core.update_ns_per_pkt", update);
    res.put("pipeline.unattributed_ns_per_pkt", untraced - partition - parse - update - sweeps);
    res.put("tracing.overhead_ns_per_pkt", tr.total("replay.burst").first / pkts - untraced);
    const auto [add_ns, add_keys] = tr.total("sketch.add_batch");
    res.put("sketch.add_batch_ns_per_key", add_keys > 0 ? add_ns / add_keys : 0.0);
    const auto sweep_ns = tr.durations("lb.sweep");
    res.put("lb.sweep_us", sweep_ns.empty() ? 0.0 : median(sweep_ns) / 1e3);
    res.put("lb.sweeps", static_cast<double>(sweep_ns.size()));

    merge_layers(
        res, [&] { (void)front.heavy_hitters(kTheta); },
        [&] {
          for (std::size_t s = 0; s < front.num_shards(); ++s) {
            const double scaled = kTheta * static_cast<double>(front.window_size()) /
                                  static_cast<double>(front.shard(s).window_size());
            (void)front.shard(s).heavy_hitters(scaled);
          }
        });
    std::vector<const memento::memento_sketch<std::uint64_t>*> parts;
    for (std::size_t s = 0; s < front.num_shards(); ++s) parts.push_back(&front.shard(s));
    keys.clear();
    for (const packet& p : trace) keys.push_back(memento::flow_id(p));
    snapshot_layers(front, parts, keys, res);
  }

  put_delta(res, run_delta_channel(trace, sh));
  common_layers(res, tr);
}

}  // namespace perfbench

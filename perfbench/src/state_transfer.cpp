// state_transfer: an 8-shard sharded_memento with 2^20 counters, filled from
// a flatter trace (Zipf 0.8 over 2^24 flows), then repeated v2 checkpoint
// saves and restores. wire/compress and flat_hash::rebuild_placed do the
// work - in bulk here, and in small frequent reports in the delta channel
// every workload runs. Ingest is set-up on this workload.
#include "bench.hpp"
#include "gen.hpp"
#include "phases.hpp"

namespace perfbench {

void run_state_transfer(const options& opt, result& res, tracer& tr) {
  using memento::packet;
  using frontend = memento::sharded_memento<>;
  const bool sh = opt.short_mode;
  const auto trace =
      zipf_trace(sh ? 1u << 20 : 1u << 24, 0.8, sh ? 1u << 18 : 4'000'000, opt.seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(trace.size());
  for (const packet& p : trace) keys.push_back(memento::flow_id(p));
  res.rss_baseline();

  const memento::shard_config scfg{sh ? std::uint64_t{1} << 18 : std::uint64_t{8} << 20,
                                   sh ? std::size_t{8} << 10 : std::size_t{1} << 20, 1.0,
                                   0x57a7e, 8};
  const std::uint64_t fill = sh ? 1u << 19 : 12'000'000;
  constexpr double kTheta = 1e-4;

  std::size_t cursor = 0;
  auto next = [&] {
    const std::size_t n = std::min(kBurst, keys.size() - cursor);
    const std::span<const std::uint64_t> burst(keys.data() + cursor, n);
    cursor = (cursor + n) % keys.size();
    return burst;
  };

  double setup = 0.0;
  std::uint64_t t0 = now_ns();
  frontend front(scfg);
  setup += static_cast<double>(now_ns() - t0) / 1e9;
  for (std::uint64_t fed = 0; fed < fill;) {
    const auto burst = next();
    t0 = now_ns();
    front.update_batch(burst);
    setup += static_cast<double>(now_ns() - t0) / 1e9;
    fed += burst.size();
  }
  appliance app(trace, opt, res, tr);
  setup += app.setup();
  res.put("setup_s", setup);
  app.flood_pass();

  // Timed rounds: v2 checkpoints of the full frontend (the subject), further
  // ingest bursts, heavy_hitters over eight shards, run_pull on two cores.
  burst_series ingest;
  checkpoint_series<frontend> ck;
  std::vector<double> query_ms;
  std::uint64_t queries = 0;
  const int n = rounds(opt);
  host_speed speed;
  const std::size_t ingest_bursts = bursts_per_rep(opt, 0.25, 6);
  for (int r = 0; r < n; ++r) {
    speed.sample();
    ck.round(front, opt.seconds * 0.45 / n, res, tr);
    speed.sample();
    ingest.rep(ingest_bursts, [&] {
      const auto burst = next();
      front.update_batch(burst);
      return burst.size();
    });
    speed.sample();
    query_ms.push_back(
        timed_calls(opt.seconds * 0.10 / n, queries, [&] { (void)front.heavy_hitters(kTheta); }));
    app.parallel_round(opt.seconds * 0.20 / n);
  }
  res.sample_rss();
  const double slowdown = speed.slowdown();
  res.put("host.slowdown", slowdown);
  ingest.put(res, slowdown);
  res.attempt(queries);
  res.put_scaled("query_ms", median(query_ms), slowdown);
  res.put("core.candidates", static_cast<double>(front.candidate_count()));
  ck.finish(res, slowdown);
  app.finish_parallel();

  if (tr.on()) {
    burst_series traced;
    for (int r = 0; r < n; ++r) {
      traced.rep(ingest_bursts, [&] {
        const auto burst = next();
        scoped_span s(tr, "frontend.update_batch");
        front.update_batch(burst);
        s.items(burst.size());
        return burst.size();
      });
    }
    res.put("tracing.overhead_ns_per_pkt", traced.ns_per_packet() - ingest.ns_per_packet());
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
    snapshot_layers(front, parts, keys, res);
  }

  // A restored copy must be indistinguishable from the original.
  std::vector<std::uint8_t> image;
  stream_out(front, image);
  if (auto restored = stream_in<frontend>(image)) {
    const auto a = front.heavy_hitters(kTheta);
    const auto c = restored->heavy_hitters(kTheta);
    bool same = a.size() == c.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].key == c[i].key && a[i].estimate == c[i].estimate;
    }
    res.check(same, "state transfer: restored copy answers heavy_hitters identically");
    rng r(0x57a7e);
    std::size_t differ = 0;
    for (int i = 0; i < 320; ++i) {
      const std::uint64_t k = i < 256 ? keys[r.below(keys.size())] : r.next();
      differ += front.query(k) == restored->query(k) ? 0 : 1;
    }
    res.check(differ == 0, "state transfer: restored copy answers every probe query identically");
    for (int i = 0; i < 64; ++i) {
      const auto burst = next();
      front.update_batch(burst);
      restored->update_batch(burst);
    }
    std::vector<std::uint8_t> x, y;
    stream_out(front, x);
    stream_out(*restored, y);
    res.check(!x.empty() && x == y,
              "state transfer: original and restored copy stay byte-identical after the same "
              "further bursts");
  } else {
    res.check(false, "state transfer: v2 image restores");
  }
  put_delta(res, run_delta_channel(trace, sh));
  common_layers(res, tr);
}

}  // namespace perfbench

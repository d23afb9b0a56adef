// The benchmark's own tests.
//
//   * Short mode: every workload runs on small inputs with a short clock and
//     must pass every output check and report every end-to-end metric.
//   * Negative tests: each check is handed a deliberately wrong result (an
//     estimate below the exact count, a heavy hitter removed, a flipped
//     checkpoint byte, a dropped delta report, ...) and must fail.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "gen.hpp"
#include "metrics.hpp"
#include "phases.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "  ok  " : "  FAIL", what.c_str());
  if (!ok) ++failures;
}

void short_mode(const char* workload, bool trace) {
  options opt;
  opt.workload = workload;
  opt.seed = 7;
  opt.seconds = 1.5;
  opt.trace = trace;
  opt.short_mode = true;
  result res;
  tracer tr(trace);
  find_workload(workload)(opt, res, tr);
  res.put("peak_rss_mb", res.rss_peak());
  for (const auto& f : res.failures()) std::printf("        %s\n", f.c_str());
  expect(res.failed() == 0 && res.attempted() > 0,
         std::string(workload) + (trace ? " (traced)" : "") + ": no program call fails (" +
             std::to_string(res.attempted()) + " attempted)");
  expect(res.correct() && res.checks() > 0,
         std::string(workload) + (trace ? " (traced)" : "") + ": every output check passes (" +
             std::to_string(res.checks()) + " checks)");
  if (trace) return;
  bool all = true;
  for (const metric_def& m : kEndToEnd) {
    const bool ok = res.has(m.name) && std::isfinite(res.get(m.name)) && res.get(m.name) > 0;
    if (!ok) std::printf("        %s = %g\n", m.name, res.get(m.name));
    all = all && ok;
  }
  expect(all, std::string(workload) + ": every end-to-end metric measured and above 0");
}

void negative() {
  // Bounds: an estimate lowered below the exact count, or above exact + width.
  expect(estimate_within(100, 130, 40), "bounds: a correct estimate passes");
  expect(!estimate_within(100, 99, 40), "bounds: an estimate below the exact count fails");
  expect(!estimate_within(100, 141, 40), "bounds: an estimate above exact + width fails");

  // Recall: a heavy hitter removed from the answer.
  std::unordered_map<std::uint64_t, std::uint64_t> exact{{1, 500}, {2, 300}, {3, 5}};
  std::unordered_set<std::uint64_t> reported{1, 2};
  expect(missed_heavy_hitters(exact, 100.0, reported) == 0, "recall: a full answer passes");
  reported.erase(2);
  expect(missed_heavy_hitters(exact, 100.0, reported) == 1, "recall: a removed heavy hitter fails");

  // Accounting: a packet lost between feed and shards.
  expect(accounting_ok(1000, 1000, 990, 10), "accounting: exact books pass");
  expect(!accounting_ok(1000, 999, 989, 10), "accounting: a lost packet fails");
  expect(!accounting_ok(1000, 1000, 991, 10), "accounting: a double-counted packet fails");

  // Flood: a subnet never blocked.
  expect(detection_delay({false, true}, {10, 20}, 5).value_or(0) == 15,
         "flood: the delay counts from the flood's start");
  expect(!detection_delay({false, false}, {10, 20}, 5), "flood: never blocked fails");

  // Envelope: too many estimates outside it.
  std::vector<double> errs(100, 1.0);
  expect(share_within(errs, 2.0) >= 0.98, "envelope: estimates inside pass");
  for (int i = 0; i < 3; ++i) errs[static_cast<std::size_t>(i)] = 10.0;
  expect(share_within(errs, 2.0) < 0.98, "envelope: 3% outside fails");

  // Checkpoint: the workloads' re-save and refusal checks, handed a wrong
  // image, a changed restore and a restore that skips validation.
  using frontend = memento::sharded_memento<>;
  frontend front(memento::shard_config{1 << 12, 256, 1.0, 3, 4});
  const auto trace = zipf_trace(1 << 12, 1.0, 1 << 14, 3);
  std::vector<std::uint64_t> keys;
  for (const auto& p : trace) keys.push_back(memento::flow_id(p));
  front.update_batch(keys.data(), keys.size());
  std::vector<std::uint8_t> image;
  stream_out(front, image);
  auto back = stream_in<frontend>(image);
  expect(back.has_value() && resaves_identically(*back, image),
         "checkpoint: an intact image restores and re-saves identically");
  std::vector<std::uint8_t> flipped = image;
  flipped[flipped.size() / 3] ^= 0x01;
  expect(!resaves_identically(*back, flipped),
         "checkpoint: a flipped checkpoint byte fails the re-save check");
  frontend changed = *back;
  changed.update_batch(keys.data(), 1);
  expect(!resaves_identically(changed, image),
         "checkpoint: a restore that changed the state fails the re-save check");
  expect(refuses_damage(image, stream_in<frontend>),
         "checkpoint: v2 restore refuses the damaged images");
  // Hands back the intact state whatever bytes it is given.
  const auto lenient = [&](std::span<const std::uint8_t>) { return stream_in<frontend>(image); };
  expect(!refuses_damage(image, lenient),
         "checkpoint: a restore that accepts damaged images fails the refusal check");

  // Delta channel: a dropped report desyncs the controller.
  result ok_res, bad_res;
  put_delta(ok_res, run_delta_channel(trace, true));
  expect(ok_res.correct(), "delta channel: a lossless stream passes");
  put_delta(bad_res, run_delta_channel(trace, true, /*drop_report=*/3));
  expect(!bad_res.correct(), "delta channel: a dropped delta report fails");
  const std::vector<double> a{10, 20}, b{10, 25};
  expect(!delta_agrees(0, a, b, 4.0), "delta channel: an answer beyond the bar fails");
  expect(!delta_agrees(1, a, a, 4.0), "delta channel: a rejected report fails");
}

}  // namespace

int main() {
  std::printf("negative tests\n");
  negative();
  std::printf("short mode\n");
  for (const char* w : {"hh_backbone", "hhh_sampled", "state_transfer"}) {
    short_mode(w, false);
    short_mode(w, true);
  }
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}

// perfbench: one workload per process. Prints a context line, then as its
// last line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
//
//   perfbench --workload hh_backbone --seed 1 --seconds 10 --trace 0
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>

#include "bench.hpp"
#include "metrics.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <hh_backbone|hhh_sampled|"
               "state_transfer> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--spans") {
      opt.spans_path = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse(argc, argv);
  const workload_fn run = find_workload(opt.workload);
  if (run == nullptr) usage(("unknown workload " + opt.workload).c_str());

  result res;
  tracer tr(opt.trace);
  try {
    run(opt, res, tr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  res.put("peak_rss_mb", res.rss_peak());

  const std::string context = context_json();
  std::printf("perfbench context %s, host slowdown %.4f\n", context.c_str(),
              res.get("host.slowdown"));
  if (!opt.trace) {
    // The gated time metrics are reference-host equivalents (times over the
    // host slowdown, rates times it); these are the figures as measured.
    std::string raw;
    for (const metric_def& m : kEndToEnd) {
      const std::string name = std::string("raw.") + m.name;
      if (!res.has(name)) continue;
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s%s %.6g %s", raw.empty() ? "" : ", ", m.name,
                    res.get(name), m.unit);
      raw += buf;
    }
    std::printf("perfbench measured %s\n", raw.c_str());
  }
  if (tr.on() && !opt.spans_path.empty()) {
    const std::string header = "{\"workload\": \"" + opt.workload +
                               "\", \"seed\": " + std::to_string(opt.seed) +
                               ", \"context\": " + context + "}";
    if (!tr.write(opt.spans_path, header)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", opt.spans_path.c_str());
      return 1;
    }
  }
  for (const auto& f : res.failures()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("perfbench %s: %zu checks, %zu did not hold\n", opt.workload.c_str(),
              res.checks(), res.failures().size());

  std::string metrics;
  const std::span<const metric_def> defs =
      opt.trace ? std::span<const metric_def>(kPerLayer) : std::span<const metric_def>(kEndToEnd);
  for (const metric_def& m : defs) {
    const double v = res.get(m.name);
    if (!opt.trace && !res.has(m.name)) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n", opt.workload.c_str(), m.name);
      return 1;
    }
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name);
      return 1;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, v, m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              res.correct() ? "true" : "false",
              static_cast<unsigned long long>(res.attempted()),
              static_cast<unsigned long long>(res.failed()), metrics.c_str());
  return 0;  // an incorrect run still reports, with "correct": false
}

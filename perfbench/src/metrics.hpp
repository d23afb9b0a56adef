// The metric tables: names and units as BENCHMARK.json lists them, and the
// workload registry.
#pragma once

#include <string>

#include "bench.hpp"

namespace perfbench {

struct metric_def {
  const char* name;
  const char* unit;
};

inline constexpr metric_def kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},     {"ingest_mpps", "Mpps"},
    {"burst_p50_us", "us"},    {"burst_p99_us", "us"},
    {"query_ms", "ms"},        {"detect_delay_pkts", "packets"},
    {"save_ms", "ms"},         {"restore_ms", "ms"},      {"checkpoint_mb", "MB"},
    {"delta_report_kb", "KB"},
};

/// Per-layer metrics; a layer a workload bypasses reports 0.
inline constexpr metric_def kPerLayer[] = {
    {"trace.steer_ns_per_pkt", "ns"},
    {"trace.next_burst_ns", "ns"},
    {"shard.partition_ns_per_pkt", "ns"},
    {"shard.load_ratio", "ratio"},
    {"shard.merge_ms", "ms"},
    {"pipeline.unattributed_ns_per_pkt", "ns"},
    {"pipeline.parallel_mpps", "Mpps"},
    {"pipeline.core_mpps_min", "Mpps"},
    {"pipeline.core_mpps_max", "Mpps"},
    {"core.update_ns_per_pkt", "ns"},
    {"core.hhh_update_ns_per_pkt", "ns"},
    {"core.candidates", "count"},
    {"core.shard_heavy_hitters_ms", "ms"},
    {"sketch.add_batch_ns_per_key", "ns"},
    {"sketch.restore_ms", "ms"},
    {"hierarchy.enumerate_ms", "ms"},
    {"hierarchy.solve_ms", "ms"},
    {"hierarchy.hhh_count", "count"},
    {"lb.sweep_us", "us"},
    {"lb.sweeps", "count"},
    {"snapshot.shard_save_ms", "ms"},
    {"snapshot.shard_restore_ms", "ms"},
    {"snapshot.frame_ms", "ms"},
    {"snapshot.bytes_per_counter", "B"},
    {"snapshot.peak_buffered_kb", "KB"},
    {"netwide.observe_ns_per_pkt", "ns"},
    {"netwide.changed_entries", "count"},
    {"netwide.full_report_kb", "KB"},
    {"tracing.overhead_ns_per_pkt", "ns"},
};

using workload_fn = void (*)(const options&, result&, tracer&);

[[nodiscard]] inline workload_fn find_workload(const std::string& name) {
  if (name == "hh_backbone") return run_hh_backbone;
  if (name == "hhh_sampled") return run_hhh_sampled;
  if (name == "state_transfer") return run_state_transfer;
  return nullptr;
}

}  // namespace perfbench

// The benchmark's workloads. Each runs in its own process, makes its
// inputs from RunOptions::seed before any timing starts, and fills a
// RunResult with every end-to-end metric (untraced run) or every
// per-layer metric (traced run) it measures.
#ifndef SAGDFN_PERFBENCH_WORKLOADS_H_
#define SAGDFN_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"

namespace sagdfn::perfbench {

/// The end-to-end metrics every workload reports, in output order.
/// Their meaning per workload is spelled out in perfbench/README.md.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
/// Every per-layer metric, in output order. A workload that bypasses a
/// layer reports 0 for it: the layer did no work there.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Orders `result`'s metrics as the specs list them, fills every metric a
/// workload did not produce with 0, and flags an unknown name as a bug.
void Canonicalize(RunResult* result);

/// One rung of the serve-207 ladder: open-loop Poisson arrivals of
/// single-window requests at a fixed offered rate.
struct ServeRung {
  const char* name;
  double rate_rps;
  /// Seconds between gate-passing publishes during the rung (0: none).
  double publish_every_s;
  /// Share of the run's seconds spent measuring this rung.
  double share;
};
const std::vector<ServeRung>& ServeRungs();
/// serve-207: the low/mid/high ladder through one TenantRouter tenant
/// serving the 207-node metr-la model.
RunResult RunServe(const RunOptions& options);

/// 100k-node tick stream: writes the two SAGM snapshots and the frame
/// sequence (run in its own process so its memory is not the stream's).
int PrepareStream(const RunOptions& options);
RunResult RunStream(const RunOptions& options);

/// Trainer::Train on the 2000-node London scenario.
RunResult RunTrain(const RunOptions& options);

}  // namespace sagdfn::perfbench

#endif  // SAGDFN_PERFBENCH_WORKLOADS_H_

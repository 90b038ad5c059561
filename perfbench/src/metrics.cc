// The benchmark's metric lists. BENCHMARK.json names the same metrics in
// the same order; perfbench/run.py refuses a result whose names differ.
#include <algorithm>
#include <map>

#include "workloads.h"

namespace sagdfn::perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"cpu_ms_per_item", "ms"},
      {"forecast_mae", "units"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      // serve-207 (traced ladder; engine figures at the mid rung)
      {"serve.tenant_router.submit_us.p50", "us"},
      {"serve.tenant_router.submit_us.tail", "us"},
      {"serve.request_ms.p50.low", "ms"},
      {"serve.request_ms.tail.low", "ms"},
      {"serve.request.slo_met.low", "count"},
      {"serve.request_ms.p50.mid", "ms"},
      {"serve.request_ms.tail.mid", "ms"},
      {"serve.request.slo_met.mid", "count"},
      {"serve.request_ms.p50.high", "ms"},
      {"serve.request_ms.tail.high", "ms"},
      {"serve.request.slo_met.high", "count"},
      {"serve.request_ms.tail_pct.low", "pct"},
      {"serve.request.max_rps_at_slo", "rps"},
      {"serve.request.backlog_growing.high", "count"},
      {"serve.generator.late_ms.tail.high", "ms"},
      {"serve.engine.capacity_rps", "rps"},
      {"serve.engine.batch_size.mean", "count"},
      {"serve.engine.compute_ms.p50", "ms"},
      {"serve.engine.compute_ms.p99", "ms"},
      {"serve.engine.compute_ms_per_req", "ms"},
      {"serve.engine.busy_frac", "ratio"},
      {"serve.engine.noncompute_share", "ratio"},
      {"serve.engine.queue_depth.p50", "count"},
      {"serve.engine.queue_depth.max", "count"},
      {"serve.engine.contention_ratio", "ratio"},
      {"serve.engine.failed", "count"},
      {"serve.registry.publish_ms", "ms"},
      {"serve.registry.rollbacks", "count"},
      {"serve.frozen_model.first_request_after_swap_ms", "ms"},
      {"serve.frozen_model.plan_cache_size", "count"},
      {"serve.frozen_model.plan_evictions", "count"},
      {"core.rollout_plan.instructions.b1", "count"},
      {"core.rollout_plan.scratch_bytes.b1", "bytes"},
      {"core.rollout_plan.scratch_bytes.b8", "bytes"},
      // stream-100k (the traced half)
      {"serve.forecast_cache.tick_ms.p50", "ms"},
      {"serve.forecast_cache.tick_ms.tail", "ms"},
      {"serve.forecast_cache.tick_inc_ms.p50", "ms"},
      {"serve.forecast_cache.tick_inc_ms.tail", "ms"},
      {"serve.forecast_cache.tick_full_ms.p50", "ms"},
      {"serve.forecast_cache.full_share", "ratio"},
      {"serve.forecast_cache.start_lag_ms.tail", "ms"},
      {"serve.forecast_cache.read_us.p50", "us"},
      {"serve.forecast_cache.read_us.tail", "us"},
      {"serve.forecast_cache.hit_ratio", "ratio"},
      {"serve.forecast_cache.invalidations", "count"},
      {"nn.serialization.load_mapped_ms", "ms"},
      {"core.rollout_plan.first_tick_ms.full", "ms"},
      {"core.rollout_plan.first_tick_ms.incremental", "ms"},
      {"graph.csr.nnz", "count"},
      {"core.rollout_plan.bytes_per_tick", "bytes"},
      {"core.rollout_plan.instructions.incremental", "count"},
      // train-2000 (the traced epoch)
      {"data.batch_ms", "ms"},
      {"core.sagdfn.forward_ms", "ms"},
      {"core.sns.sample_ms", "ms"},
      {"core.sagdfn.adjacency_ms", "ms"},
      {"core.ssma.forward_ms", "ms"},
      {"core.sagdfn.encoder_ms", "ms"},
      {"core.sagdfn.decoder_ms", "ms"},
      {"core.fast_gconv.forward_ms", "ms"},
      {"autograd.loss_ms", "ms"},
      {"autograd.backward_ms", "ms"},
      {"optim.clip_ms", "ms"},
      {"optim.step_ms", "ms"},
      {"core.trainer.step_self_ms", "ms"},
      {"core.trainer.val_ms", "ms"},
      {"core.trainer.ckpt_save_ms", "ms"},
      {"core.trainer.skipped_batches", "count"},
      // every workload
      {"utils.arena.high_water_bytes", "bytes"},
      {"utils.parallel.threads", "count"},
      {"bench.trace_overhead_ms", "ms"},
      {"bench.spans", "count"},
  };
  return specs;
}

namespace {

void Order(const std::vector<MetricSpec>& specs, std::vector<Metric>* metrics,
           RunResult* result) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : *metrics) {
    const bool known =
        std::any_of(specs.begin(), specs.end(), [&](const MetricSpec& s) {
          return m.name == s.name && m.unit == s.unit;
        });
    if (!known) result->Fail("metric " + m.name + " [" + m.unit + "] is not declared");
    by_name[m.name] = m;
  }
  metrics->clear();
  for (const MetricSpec& s : specs) {
    const auto it = by_name.find(s.name);
    metrics->push_back(it != by_name.end() ? it->second
                                           : Metric{s.name, 0.0, s.unit});
  }
}

}  // namespace

void Canonicalize(RunResult* result) {
  Order(EndToEndMetrics(), &result->end_to_end, result);
  Order(PerLayerMetrics(), &result->per_layer, result);
}

}  // namespace sagdfn::perfbench

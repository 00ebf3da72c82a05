#ifndef ENODE_PERFBENCH_LAYER_MAP_H
#define ENODE_PERFBENCH_LAYER_MAP_H

/**
 * @file
 * Which end-to-end metric, on which workload, each per-layer metric
 * should move. Written down before any optimisation is measured; the
 * traced run prints it beside the numbers.
 */

#include <string_view>

namespace perfbench {

struct LayerLink
{
    std::string_view prefix; ///< per-layer metric name or name prefix
    std::string_view moves;
};

constexpr LayerLink kLayerMap[] = {
    // The MLP f is served on mixed-open, the conv f on conv-closed.
    // throughput_rps and latency_p50_ms are in the JSON line; goodput_rps,
    // ok_ratio, latency_p99_ms and worst_stream_p99_ms are printed.
    {"nn.f_eval_us", "latency_p50_ms and goodput_rps on mixed-open; "
                     "not conv-closed"},
    {"nn.linear_", "latency_p50_ms and goodput_rps on mixed-open; "
                   "not conv-closed"},
    {"nn.tanh_us", "latency_p50_ms and goodput_rps on mixed-open; "
                   "not conv-closed"},
    {"nn.concat_time_us",
     "latency_p50_ms on mixed-open; not conv-closed"},
    {"nn.conv2d_", "throughput_rps on conv-closed; not mixed-open"},
    {"nn.group_norm_us",
     "throughput_rps on conv-closed; not mixed-open"},
    {"nn.relu_us", "throughput_rps on conv-closed; not mixed-open"},
    {"nn.layer_closure", "validity: layer times explain nn.f_eval_us"},
    {"tensor.heap_allocs_per_req",
     "latency_p99_ms on every workload"},
    {"ode.trials_per_point.", "goodput_rps on mixed-open"},
    {"ode.", "throughput_rps on conv-closed; latency_p50_ms "
             "on mixed-open"},
    {"core.forward_ms.p50",
     "throughput_rps on conv-closed (matches runtime.solve_ms.p50)"},
    {"core.", "goodput_rps on mixed-open"},
    {"runtime.queue_wait_ms.",
     "worst_stream_p99_ms and latency_p99_ms on mixed-open"},
    {"runtime.batch_size.mean",
     "goodput_rps and latency_p50_ms on mixed-open"},
    {"runtime.coalesce_wait_ms.",
     "goodput_rps and latency_p50_ms on mixed-open"},
    {"runtime.degraded_ratio",
     "goodput_rps and latency_p50_ms on mixed-open"},
    {"runtime.", "latency_p50_ms and throughput_rps on every "
                 "workload"},
    {"queue.", "latency_p99_ms on mixed-open"},
    {"cache.", "goodput_rps on mixed-open (no cache elsewhere)"},
    {"admission.", "goodput_rps and ok_ratio on mixed-open"},
    {"train.", "train.steps_per_s, and latency_p50_ms through worker "
               "residency, on mixed-open"},
    {"loadgen.", "validity: how late the open-loop generator ran"},
    {"trace.overhead_ratio", "validity: traced / untraced Ok per second"},
    {"closure.misses", "validity: closure checks that missed"},
};

/** The first entry whose prefix starts `metric`; empty when none. */
constexpr std::string_view
layerMoves(std::string_view metric)
{
    for (const LayerLink &l : kLayerMap)
        if (metric.substr(0, l.prefix.size()) == l.prefix)
            return l.moves;
    return {};
}

} // namespace perfbench

#endif // ENODE_PERFBENCH_LAYER_MAP_H

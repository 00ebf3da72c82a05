/**
 * @file
 * Serving-runtime throughput and latency under load.
 *
 * Closed loop: a fixed population of synchronous clients (submit, wait,
 * repeat) drives servers with 1/2/4/8 workers; throughput should scale
 * with the worker count until the machine runs out of cores.
 *
 * Open loop: requests arrive on a Poisson process at a fraction of the
 * measured closed-loop capacity; reported latency percentiles show the
 * queueing-delay knee as offered load approaches saturation, plus the
 * admission rejections once the bounded queue overflows past it.
 *
 * Batch sweep: the same closed-loop population against a single worker
 * with ServerOptions::maxBatch swept over 1/2/4/8/16. One worker
 * isolates the coalescing win — extra throughput can only come from the
 * batched solve sharing f-evaluation weight traversals, not from more
 * cores. Results land in BENCH_serving.json for scripted checks, with
 * p50/p99 per stream beside the pooled pair: closed-loop client c
 * submits on stream c % 4, and under the default LaterStreamFirst
 * policy stream 0 waits behind the others.
 *
 * A note on the batch-sweep p50: median latency *rises* at large
 * maxBatch even as throughput and p99 improve. That is inherent to
 * coalescing under a closed loop, not a collect-window cost (occupancy
 * is full and the per-batch coalesce wait — also reported — stays well
 * under the window budget): every request in a batch completes when the
 * whole batched solve does, so the median request's latency is the
 * duration of a large batched solve, which grows with batch size. The
 * tail improves for the same reason — with most of the client
 * population served per dispatch, almost nothing queues behind a
 * dispatch, so the queue-wait component that dominated p99 collapses.
 *
 * Repeat-traffic sweep: closed loop against one cache-enabled worker
 * with the fraction of byte-identical resubmissions swept over
 * 0/0.5/0.9/1.0. Exact repeats ride the dedup tier (no solve at all);
 * the non-repeat remainder are near-duplicates that miss the exact tier
 * but warm-start from the dt-schedule tier. A separate warm-start
 * comparison isolates tier 2 with the ConstantInit controller (the
 * paper's expensive per-point search baseline): same traffic, cache off
 * vs warm tier only, reporting accepted-trials per evaluation point.
 */

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "ode/step_control.h"
#include "runtime/inference_server.h"

#include "bench_common.h"

using namespace enode;

namespace {

constexpr std::uint64_t kSeed = 20230228;
constexpr std::size_t kDim = 16;
/** Closed-loop client c submits on stream c % kStreams. */
constexpr std::size_t kStreams = 4;

std::unique_ptr<NodeModel>
makeServedModel()
{
    Rng rng(kSeed);
    return NodeModel::makeMlp(/*num_layers=*/2, kDim, /*hidden=*/64,
                              /*f_depth=*/2, rng);
}

ServerOptions
baseOptions(std::size_t workers)
{
    ServerOptions opts;
    opts.numWorkers = workers;
    opts.queueCapacity = 4096;
    opts.ivp.tolerance = 1e-4;
    opts.ivp.initialDt = 0.05;
    return opts;
}

Tensor
makeInput(Rng &rng)
{
    return Tensor::randn(Shape{kDim}, rng, 0.5f);
}

/** End-to-end latency percentiles of one stream's responses. */
struct StreamLatency
{
    double p50Ms = 0.0;
    double p99Ms = 0.0;
};
using StreamLatencies = std::array<StreamLatency, kStreams>;

struct ClientRun
{
    double seconds = 0.0;
    StreamLatencies streams;
};

/**
 * Closed loop: `clients` synchronous producers (submit, wait, repeat),
 * each sending `per_client` requests, input(c, j) for client c's j-th.
 * Latencies are kept per stream: the default LaterStreamFirst policy
 * serves higher streams first, and a pooled p99 would hide how long
 * the lowest stream starves.
 */
template <typename InputFn>
ClientRun
runClients(InferenceServer &server, std::size_t clients,
           std::size_t per_client, InputFn input)
{
    std::vector<std::vector<double>> latencies(clients);
    const auto start = RuntimeClock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; c++) {
        threads.emplace_back([&, c] {
            for (std::size_t j = 0; j < per_client; j++) {
                auto sub = server.submit(
                    input(c, j), static_cast<std::uint32_t>(c % kStreams));
                if (sub.accepted)
                    latencies[c].push_back(sub.result.get().totalMs);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    ClientRun run;
    run.seconds =
        std::chrono::duration<double>(RuntimeClock::now() - start).count();
    for (std::size_t s = 0; s < kStreams; s++) {
        SampleSeries series;
        for (std::size_t c = s; c < clients; c += kStreams)
            for (double ms : latencies[c])
                series.add(ms);
        run.streams[s] = {series.percentile(50.0), series.percentile(99.0)};
    }
    return run;
}

/** "a / b / c / d": one p99 per stream, for the tables. */
std::string
streamP99s(const StreamLatencies &streams)
{
    std::string text;
    for (std::size_t s = 0; s < kStreams; s++)
        text += (s ? " / " : "") + Table::num(streams[s].p99Ms);
    return text;
}

std::vector<Tensor>
makeClosedLoopInputs()
{
    Rng rng(kSeed + 7);
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < 64; i++)
        inputs.push_back(makeInput(rng));
    return inputs;
}

struct ClosedLoopResult
{
    double throughputRps = 0.0;
    MetricsSummary metrics;
};

/** Closed loop: `clients` synchronous producers, `total` requests. */
ClosedLoopResult
runClosedLoop(std::size_t workers, std::size_t clients, std::size_t total)
{
    InferenceServer server(makeServedModel, baseOptions(workers));
    const std::vector<Tensor> inputs = makeClosedLoopInputs();
    const std::size_t per_client = total / clients;
    const ClientRun run = runClients(
        server, clients, per_client, [&](std::size_t c, std::size_t j) {
            return inputs[(c * per_client + j) % inputs.size()];
        });
    server.stop();

    ClosedLoopResult result;
    result.metrics = server.metrics().summary();
    result.throughputRps =
        static_cast<double>(result.metrics.completed) / run.seconds;
    return result;
}

struct OpenLoopResult
{
    double offeredRps = 0.0;
    MetricsSummary metrics;
};

/** Open loop: Poisson arrivals at `rate_rps` for `total` requests. */
OpenLoopResult
runOpenLoop(std::size_t workers, double rate_rps, std::size_t total)
{
    InferenceServer server(makeServedModel, baseOptions(workers));
    Rng rng(kSeed + 13);
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < 64; i++)
        inputs.push_back(makeInput(rng));

    std::vector<std::future<InferResponse>> futures;
    futures.reserve(total);
    auto next = RuntimeClock::now();
    for (std::size_t i = 0; i < total; i++) {
        // Exponential interarrival: -ln(U)/rate.
        const double gap =
            -std::log(1.0 - rng.uniform()) / rate_rps;
        next += std::chrono::duration_cast<RuntimeClock::duration>(
            std::chrono::duration<double>(gap));
        std::this_thread::sleep_until(next);
        auto sub = server.submit(inputs[i % inputs.size()],
                                 static_cast<std::uint32_t>(i % 4));
        if (sub.accepted)
            futures.push_back(std::move(sub.result));
    }
    for (auto &future : futures)
        future.get();
    server.stop();

    OpenLoopResult result;
    result.offeredRps = rate_rps;
    result.metrics = server.metrics().summary();
    return result;
}

struct ServingPoint
{
    std::size_t maxBatch = 1;
    double requestsPerSec = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double meanOccupancy = 1.0;
    double coalesceWaitP50Ms = 0.0;
    StreamLatencies streams;
};

/**
 * Closed loop against one worker with micro-batching at `max_batch`.
 * The client population stays fixed across the sweep, so every point
 * sees the same offered load; only the coalescing changes.
 */
ServingPoint
runBatchSweepPoint(std::size_t max_batch, std::size_t clients,
                   std::size_t total)
{
    ServerOptions opts = baseOptions(/*workers=*/1);
    opts.maxBatch = max_batch;
    opts.batchWaitUs = 2000.0;
    InferenceServer server(makeServedModel, opts);
    const std::vector<Tensor> inputs = makeClosedLoopInputs();
    const std::size_t per_client = total / clients;
    const ClientRun run = runClients(
        server, clients, per_client, [&](std::size_t c, std::size_t j) {
            return inputs[(c * per_client + j) % inputs.size()];
        });
    server.stop();

    const MetricsSummary m = server.metrics().summary();
    ServingPoint point;
    point.maxBatch = max_batch;
    point.requestsPerSec = static_cast<double>(m.completed) / run.seconds;
    point.p50Ms = m.totalP50Ms;
    point.p99Ms = m.totalP99Ms;
    // maxBatch 1 bypasses the batcher entirely (the solo path), so the
    // occupancy gauge never ticks; a solo request is a batch of one.
    point.meanOccupancy =
        m.batchesDispatched > 0 ? m.batchOccupancyMean : 1.0;
    point.coalesceWaitP50Ms = m.coalesceWaitP50Ms;
    point.streams = run.streams;
    return point;
}

// ---------------------------------------------------------------------
// Repeat-traffic sweep (two-tier solve cache)
// ---------------------------------------------------------------------

struct RepeatPoint
{
    double hitRate = 0.0;
    double requestsPerSec = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::uint64_t exactHits = 0;
    std::uint64_t warmHits = 0;
    std::uint64_t singleFlightWaits = 0;
    StreamLatencies streams;
};

ServerOptions
cachedOptions()
{
    ServerOptions opts = baseOptions(/*workers=*/1);
    opts.cache.enabled = true;
    opts.cache.exactCapacity = 4096;
    opts.cache.warmCapacity = 512;
    opts.cache.signatureQuantum = 0.25;
    return opts;
}

/**
 * Pre-generated request mix for one repeat-traffic point: with
 * probability `hit_rate` a request resubmits one of 8 hot tensors byte
 * for byte (an exact-tier repeat); otherwise it perturbs a hot tensor
 * slightly — bytewise fresh, so it must be solved, but statistically
 * close enough to land in the hot tensor's warm-start bucket.
 */
std::vector<Tensor>
makeRepeatTraffic(double hit_rate, std::size_t total)
{
    Rng rng(kSeed + 29);
    std::vector<Tensor> hot;
    for (std::size_t i = 0; i < 8; i++)
        hot.push_back(makeInput(rng));

    std::vector<Tensor> traffic;
    traffic.reserve(total);
    for (std::size_t i = 0; i < total; i++) {
        const Tensor &base = hot[i % hot.size()];
        if (rng.uniform() < hit_rate) {
            Tensor repeat(base.shape());
            repeat.copyFrom(base);
            traffic.push_back(std::move(repeat));
        } else {
            Tensor near(base.shape());
            near.copyFrom(base);
            for (std::size_t k = 0; k < near.numel(); k++)
                near.data()[k] +=
                    static_cast<float>(rng.uniform() - 0.5) * 2e-3f;
            traffic.push_back(std::move(near));
        }
    }
    return traffic;
}

RepeatPoint
runRepeatTrafficPoint(double hit_rate, std::size_t clients,
                      std::size_t total)
{
    InferenceServer server(makeServedModel, cachedOptions());
    const std::vector<Tensor> traffic = makeRepeatTraffic(hit_rate, total);
    const std::size_t per_client = total / clients;
    const ClientRun run = runClients(
        server, clients, per_client, [&](std::size_t c, std::size_t j) {
            return traffic[c * per_client + j];
        });
    server.stop();

    const MetricsSummary m = server.metrics().summary();
    const SolveCache *cache = server.solveCache();
    RepeatPoint point;
    point.hitRate = hit_rate;
    point.requestsPerSec = static_cast<double>(m.completed) / run.seconds;
    point.p50Ms = m.totalP50Ms;
    point.p99Ms = m.totalP99Ms;
    point.streams = run.streams;
    point.exactHits = cache->exactHits();
    point.warmHits = cache->warmHits();
    point.singleFlightWaits = cache->singleFlightWaits();
    return point;
}

struct WarmComparison
{
    double coldTrialsPerPoint = 0.0;
    double warmTrialsPerPoint = 0.0;
    double coldSolveP50Ms = 0.0;
    double warmSolveP50Ms = 0.0;
};

/**
 * Tier-2 isolation: the same near-duplicate traffic served twice with
 * the ConstantInit controller — once with the cache off (every point
 * restarts the stepsize search from scratch) and once with only the
 * warm tier on (exactCapacity 0 forces every request through a real
 * solve, so the delta is pure dt-schedule replay).
 */
WarmComparison
runWarmComparison(std::size_t total)
{
    WarmComparison cmp;
    for (const bool warm : {false, true}) {
        ServerOptions opts = cachedOptions();
        opts.cache.enabled = warm;
        opts.cache.exactCapacity = 0;
        opts.ivp.tolerance = 1e-5;
        opts.ivp.initialDt = 0.4; // deliberately poor start per point
        InferenceServer server(makeServedModel, opts, [] {
            return std::make_unique<ConstantInitController>();
        });
        const std::vector<Tensor> traffic =
            makeRepeatTraffic(/*hit_rate=*/0.0, total);
        for (const Tensor &input : traffic) {
            auto sub = server.submit(input);
            if (sub.accepted)
                sub.result.get();
        }
        server.stop();
        const MetricsSummary m = server.metrics().summary();
        if (warm) {
            cmp.warmTrialsPerPoint = m.trialsPerPointWarm;
            cmp.warmSolveP50Ms = m.solveP50Ms;
        } else {
            cmp.coldTrialsPerPoint = m.trialsPerPointCold;
            cmp.coldSolveP50Ms = m.solveP50Ms;
        }
    }
    return cmp;
}

/** `, "streams": [...]`: per-stream p50/p99 beside the pooled pair. */
void
writeStreams(std::ostream &out, const StreamLatencies &streams)
{
    out << ", \"streams\": [";
    for (std::size_t s = 0; s < kStreams; s++)
        out << (s ? ", " : "") << "{\"stream\": " << s
            << ", \"p50_ms\": " << streams[s].p50Ms
            << ", \"p99_ms\": " << streams[s].p99Ms << "}";
    out << "]";
}

void
writeServingReport(const std::vector<ServingPoint> &points,
                   const std::vector<RepeatPoint> &repeats,
                   const WarmComparison &warm,
                   const std::string &path = "BENCH_serving.json")
{
    std::ofstream out(path, std::ios::trunc);
    out << "{\n  \"machine\": " << bench::machineJson()
        << ",\n  \"serving\": [\n";
    for (std::size_t i = 0; i < points.size(); i++) {
        const ServingPoint &p = points[i];
        out << "    {\"name\": \"serving/batch=" << p.maxBatch
            << "\", \"max_batch\": " << p.maxBatch << ", "
            << std::fixed << std::setprecision(2)
            << "\"requests_per_sec\": " << p.requestsPerSec
            << ", \"p50_ms\": " << std::setprecision(3) << p.p50Ms
            << ", \"p99_ms\": " << p.p99Ms;
        writeStreams(out, p.streams);
        out << ", \"coalesce_wait_p50_ms\": " << p.coalesceWaitP50Ms
            << ", \"mean_batch_occupancy\": " << std::setprecision(2)
            << p.meanOccupancy << "}"
            << (i + 1 < points.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"repeat_traffic\": [\n";
    for (std::size_t i = 0; i < repeats.size(); i++) {
        const RepeatPoint &p = repeats[i];
        out << "    {\"name\": \"repeat/hit=" << std::fixed
            << std::setprecision(2) << p.hitRate
            << "\", \"hit_rate\": " << p.hitRate
            << ", \"requests_per_sec\": " << p.requestsPerSec
            << ", \"p50_ms\": " << std::setprecision(3) << p.p50Ms
            << ", \"p99_ms\": " << p.p99Ms;
        writeStreams(out, p.streams);
        out << ", \"exact_hits\": " << p.exactHits
            << ", \"warm_hits\": " << p.warmHits
            << ", \"single_flight_waits\": " << p.singleFlightWaits << "}"
            << (i + 1 < repeats.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"warm_start\": {\n" << std::fixed
        << std::setprecision(3)
        << "    \"cold_trials_per_point\": " << warm.coldTrialsPerPoint
        << ",\n    \"warm_trials_per_point\": " << warm.warmTrialsPerPoint
        << ",\n    \"cold_solve_p50_ms\": " << warm.coldSolveP50Ms
        << ",\n    \"warm_solve_p50_ms\": " << warm.warmSolveP50Ms
        << "\n  }\n}\n";
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Warn);

    const std::size_t total = 384;
    const std::size_t clients = 16;

    Table closed("Closed-loop throughput (16 synchronous clients, " +
                 std::to_string(total) + " requests)");
    closed.setHeader({"workers", "req/s", "speedup", "p50 ms", "p95 ms",
                      "p99 ms", "mean f-evals"});

    double base_rps = 0.0;
    double four_worker_rps = 0.0;
    for (std::size_t workers : {1u, 2u, 4u, 8u}) {
        auto r = runClosedLoop(workers, clients, total);
        if (workers == 1)
            base_rps = r.throughputRps;
        if (workers == 4)
            four_worker_rps = r.throughputRps;
        closed.addRow({std::to_string(workers),
                       Table::num(r.throughputRps, 1),
                       Table::ratio(r.throughputRps / base_rps),
                       Table::num(r.metrics.totalP50Ms),
                       Table::num(r.metrics.totalP95Ms),
                       Table::num(r.metrics.totalP99Ms),
                       Table::num(r.metrics.meanFEvals, 1)});
    }
    closed.print();
    const unsigned cores = std::thread::hardware_concurrency();
    const double speedup = four_worker_rps / base_rps;
    if (cores >= 4) {
        std::printf("\n4-worker vs 1-worker closed-loop speedup: %.2fx "
                    "%s\n\n",
                    speedup, speedup > 2.0 ? "(PASS >2x)" : "(below 2x!)");
    } else {
        std::printf("\n4-worker vs 1-worker closed-loop speedup: %.2fx "
                    "(machine exposes %u core%s; worker scaling is "
                    "core-bound — run on >=4 cores to observe the >2x "
                    "target)\n\n",
                    speedup, cores, cores == 1 ? "" : "s");
    }

    // Open loop against 4 workers at fractions of measured capacity.
    Table open("Open-loop latency vs offered load (4 workers, Poisson "
               "arrivals)");
    open.setHeader({"load", "offered req/s", "p50 ms", "p95 ms", "p99 ms",
                    "queue-wait p95 ms", "rejected"});
    for (double load : {0.3, 0.6, 0.9}) {
        const double rate = load * four_worker_rps;
        auto r = runOpenLoop(4, rate, total / 2);
        open.addRow({Table::percent(load, 0), Table::num(rate, 1),
                     Table::num(r.metrics.totalP50Ms),
                     Table::num(r.metrics.totalP95Ms),
                     Table::num(r.metrics.totalP99Ms),
                     Table::num(r.metrics.queueWaitP95Ms),
                     Table::integer(static_cast<long long>(
                         r.metrics.rejected))});
    }
    open.print();

    // Batch sweep: one worker, fixed closed-loop population, maxBatch
    // swept. Throughput gains isolate the batched-solve coalescing win.
    const std::size_t sweep_clients = 32;
    const std::size_t sweep_total = 256;
    Table sweep("Micro-batching sweep (1 worker, " +
                std::to_string(sweep_clients) + " closed-loop clients, " +
                std::to_string(sweep_total) + " requests)");
    sweep.setHeader({"max batch", "req/s", "speedup", "p50 ms", "p99 ms",
                     "p99 ms by stream 0/1/2/3", "mean occupancy"});
    std::vector<ServingPoint> points;
    double batch1_rps = 0.0;
    double batch8_rps = 0.0;
    for (std::size_t max_batch : {1u, 2u, 4u, 8u, 16u}) {
        ServingPoint p =
            runBatchSweepPoint(max_batch, sweep_clients, sweep_total);
        if (max_batch == 1)
            batch1_rps = p.requestsPerSec;
        if (max_batch == 8)
            batch8_rps = p.requestsPerSec;
        sweep.addRow({std::to_string(max_batch),
                      Table::num(p.requestsPerSec, 1),
                      Table::ratio(p.requestsPerSec / batch1_rps),
                      Table::num(p.p50Ms), Table::num(p.p99Ms),
                      streamP99s(p.streams), Table::num(p.meanOccupancy)});
        points.push_back(p);
    }
    sweep.print();
    const double batch_speedup = batch8_rps / batch1_rps;
    std::printf("\nbatch-8 vs batch-1 throughput on one worker: %.2fx %s\n",
                batch_speedup,
                batch_speedup >= 2.0 ? "(PASS >=2x)" : "(below 2x!)");

    // Repeat-traffic sweep: one cache-enabled worker, hit rate swept.
    Table repeat("Repeat-traffic sweep (1 worker, two-tier solve cache, " +
                 std::to_string(sweep_clients) + " clients, " +
                 std::to_string(sweep_total) + " requests)");
    repeat.setHeader({"hit rate", "req/s", "speedup", "p50 ms", "p99 ms",
                      "p99 ms by stream 0/1/2/3", "exact hits", "warm hits",
                      "dedup waits"});
    std::vector<RepeatPoint> repeats;
    double miss_rps = 0.0;
    for (double hit_rate : {0.0, 0.5, 0.9, 1.0}) {
        RepeatPoint p = runRepeatTrafficPoint(hit_rate, sweep_clients,
                                              sweep_total);
        if (hit_rate == 0.0)
            miss_rps = p.requestsPerSec;
        repeat.addRow(
            {Table::percent(hit_rate, 0), Table::num(p.requestsPerSec, 1),
             Table::ratio(p.requestsPerSec / miss_rps),
             Table::num(p.p50Ms), Table::num(p.p99Ms), streamP99s(p.streams),
             Table::integer(static_cast<long long>(p.exactHits)),
             Table::integer(static_cast<long long>(p.warmHits)),
             Table::integer(static_cast<long long>(p.singleFlightWaits))});
        repeats.push_back(p);
    }
    repeat.print();
    const double hit_speedup =
        repeats.back().requestsPerSec / miss_rps;
    std::printf("\nall-repeat vs all-miss throughput: %.2fx %s\n",
                hit_speedup,
                hit_speedup >= 5.0 ? "(PASS >=5x)" : "(below 5x!)");

    // Warm-start isolation: dt-schedule replay vs per-point search.
    const WarmComparison warm = runWarmComparison(/*total=*/96);
    std::printf("\nwarm-start trials/point: cold %.2f -> warm %.2f "
                "(%.0f%% fewer); solve p50 %.3f ms -> %.3f ms\n",
                warm.coldTrialsPerPoint, warm.warmTrialsPerPoint,
                100.0 * (1.0 - warm.warmTrialsPerPoint /
                                   warm.coldTrialsPerPoint),
                warm.coldSolveP50Ms, warm.warmSolveP50Ms);

    writeServingReport(points, repeats, warm);
    std::printf("wrote BENCH_serving.json\n");
    return 0;
}

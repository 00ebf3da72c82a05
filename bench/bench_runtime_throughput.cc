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
 *
 * Every load point is repeated kRepeats times on a fresh server, each
 * run lasting about kPointSeconds; tables and BENCH_serving.json report
 * the median of the repeats, and the JSON adds the interquartile range
 * of throughput, p50 and p99 as `*_iqr` fields. Each point must rest on
 * enough traffic that two runs of the binary agree: at a few tens of
 * milliseconds per point they disagreed by 28%. Open-loop arrivals stop
 * after kPointSeconds. A closed-loop run instead gives every client a
 * fixed request quota and ends when the last client has finished it,
 * sized from probe runs so the run lasts about kPointSeconds: under
 * LaterStreamFirst a saturating closed loop serves the lower streams
 * only once the higher ones run dry, so a time-bounded run would leave
 * them nearly unserved and the pooled percentiles would describe stream
 * 3 alone. With quotas every stream is served in full, and the
 * per-stream p99 and max show how long the lower streams wait.
 */

#include <algorithm>
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
/** Target wall time of one run of a load point. */
constexpr double kPointSeconds = 1.0;
/** Per-client quota of the first probe run sizing a closed-loop point. */
constexpr std::size_t kProbePerClient = 16;
/** Runs per load point; the report takes their median. */
constexpr int kRepeats = 3;

/** Median and interquartile range of one metric over a point's runs. */
struct Spread
{
    double median = 0.0;
    double iqr = 0.0;
};

/** kRepeats runs of one load point, each on a fresh server. */
template <typename Run>
struct Repeated
{
    std::vector<Run> runs;

    template <typename Field>
    Spread spread(Field field) const
    {
        SampleSeries series;
        for (const Run &r : runs)
            series.add(field(r));
        return {series.percentile(50.0),
                series.percentile(75.0) - series.percentile(25.0)};
    }

    template <typename Field>
    double median(Field field) const
    {
        return spread(field).median;
    }
};

template <typename RunFn>
auto
repeatPoint(RunFn run) -> Repeated<decltype(run())>
{
    Repeated<decltype(run())> point;
    for (int i = 0; i < kRepeats; i++)
        point.runs.push_back(run());
    return point;
}

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
    double maxMs = 0.0;
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
            latencies[c].reserve(per_client);
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
        run.streams[s] = {series.percentile(50.0), series.percentile(99.0),
                          series.max()};
    }
    return run;
}

/**
 * kRepeats runs of a closed-loop point at one per-client quota, each on
 * a fresh server: run(per_client) serves `per_client` requests from each
 * client and returns a Run with its wall `seconds`. Probe runs,
 * discarded, size the quota first: starting at kProbePerClient, each
 * scales it by how far the probe fell short of kPointSeconds (at most
 * 10x a step, since a short probe misreads the rate) until one lasts
 * kPointSeconds.
 */
template <typename RunFn>
auto
repeatClosedPoint(RunFn run)
    -> Repeated<decltype(run(std::size_t{}))>
{
    std::size_t per_client = kProbePerClient;
    for (;;) {
        const auto probe = run(per_client);
        if (probe.seconds >= kPointSeconds)
            break;
        const double scale =
            std::min(10.0, 1.1 * kPointSeconds / probe.seconds);
        per_client = static_cast<std::size_t>(
            std::ceil(scale * static_cast<double>(per_client)));
    }
    return repeatPoint([&] { return run(per_client); });
}

/** Per-stream medians of the runs' per-stream p50, p99 and max. */
template <typename Run>
StreamLatencies
medianStreams(const Repeated<Run> &point)
{
    StreamLatencies streams;
    for (std::size_t s = 0; s < kStreams; s++)
        streams[s] = {
            point.median([s](const Run &r) { return r.streams[s].p50Ms; }),
            point.median([s](const Run &r) { return r.streams[s].p99Ms; }),
            point.median([s](const Run &r) { return r.streams[s].maxMs; })};
    return streams;
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

/** "a / b / c / d": one max per stream, for the tables. */
std::string
streamMaxes(const StreamLatencies &streams)
{
    std::string text;
    for (std::size_t s = 0; s < kStreams; s++)
        text += (s ? " / " : "") + Table::num(streams[s].maxMs, 1);
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
    double seconds = 0.0;
    MetricsSummary metrics;
};

/** Closed loop: `clients` synchronous producers, `per_client` each. */
ClosedLoopResult
runClosedLoop(std::size_t workers, std::size_t clients,
              std::size_t per_client)
{
    InferenceServer server(makeServedModel, baseOptions(workers));
    const std::vector<Tensor> inputs = makeClosedLoopInputs();
    const ClientRun run = runClients(
        server, clients, per_client, [&](std::size_t c, std::size_t j) {
            return inputs[(c * per_client + j) % inputs.size()];
        });
    server.stop();

    ClosedLoopResult result;
    result.metrics = server.metrics().summary();
    result.seconds = run.seconds;
    result.throughputRps =
        static_cast<double>(result.metrics.completed) / run.seconds;
    return result;
}

struct OpenLoopResult
{
    double offeredRps = 0.0;
    MetricsSummary metrics;
};

/** Open loop: Poisson arrivals at `rate_rps` for kPointSeconds. */
OpenLoopResult
runOpenLoop(std::size_t workers, double rate_rps)
{
    InferenceServer server(makeServedModel, baseOptions(workers));
    Rng rng(kSeed + 13);
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < 64; i++)
        inputs.push_back(makeInput(rng));

    std::vector<std::future<InferResponse>> futures;
    auto next = RuntimeClock::now();
    const auto stop =
        next + std::chrono::duration_cast<RuntimeClock::duration>(
                   std::chrono::duration<double>(kPointSeconds));
    for (std::size_t i = 0;; i++) {
        // Exponential interarrival: -ln(U)/rate.
        const double gap =
            -std::log(1.0 - rng.uniform()) / rate_rps;
        next += std::chrono::duration_cast<RuntimeClock::duration>(
            std::chrono::duration<double>(gap));
        if (next >= stop)
            break;
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
    double seconds = 0.0;
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
                   std::size_t per_client)
{
    ServerOptions opts = baseOptions(/*workers=*/1);
    opts.maxBatch = max_batch;
    opts.batchWaitUs = 2000.0;
    InferenceServer server(makeServedModel, opts);
    const std::vector<Tensor> inputs = makeClosedLoopInputs();
    const ClientRun run = runClients(
        server, clients, per_client, [&](std::size_t c, std::size_t j) {
            return inputs[(c * per_client + j) % inputs.size()];
        });
    server.stop();

    const MetricsSummary m = server.metrics().summary();
    ServingPoint point;
    point.maxBatch = max_batch;
    point.seconds = run.seconds;
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
    double seconds = 0.0;
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

/** The 8 hot tensors repeat traffic is drawn around. */
std::vector<Tensor>
makeHotInputs(Rng &rng)
{
    std::vector<Tensor> hot;
    for (std::size_t i = 0; i < 8; i++)
        hot.push_back(makeInput(rng));
    return hot;
}

/**
 * Request i of a repeat-traffic mix: with probability `hit_rate` it
 * resubmits hot tensor i % 8 byte for byte (an exact-tier repeat);
 * otherwise it perturbs that tensor slightly — bytewise fresh, so it
 * must be solved, but statistically close enough to land in the hot
 * tensor's warm-start bucket.
 */
Tensor
makeRepeatRequest(const std::vector<Tensor> &hot, double hit_rate,
                  std::size_t i, Rng &rng)
{
    const Tensor &base = hot[i % hot.size()];
    Tensor request(base.shape());
    request.copyFrom(base);
    if (rng.uniform() >= hit_rate)
        for (std::size_t k = 0; k < request.numel(); k++)
            request.data()[k] +=
                static_cast<float>(rng.uniform() - 0.5) * 2e-3f;
    return request;
}

/** Pre-generated mix of `total` repeat-traffic requests. */
std::vector<Tensor>
makeRepeatTraffic(double hit_rate, std::size_t total)
{
    Rng rng(kSeed + 29);
    const std::vector<Tensor> hot = makeHotInputs(rng);
    std::vector<Tensor> traffic;
    traffic.reserve(total);
    for (std::size_t i = 0; i < total; i++)
        traffic.push_back(makeRepeatRequest(hot, hit_rate, i, rng));
    return traffic;
}

/**
 * One repeat-traffic run: each client draws its requests on the fly
 * from its own generator, so the mix holds whatever quota the point is
 * sized to.
 */
RepeatPoint
runRepeatTrafficPoint(double hit_rate, std::size_t clients,
                      std::size_t per_client)
{
    InferenceServer server(makeServedModel, cachedOptions());
    Rng hot_rng(kSeed + 29);
    const std::vector<Tensor> hot = makeHotInputs(hot_rng);
    std::vector<Rng> rngs;
    for (std::size_t c = 0; c < clients; c++)
        rngs.emplace_back(kSeed + 1000 + c);
    const ClientRun run = runClients(
        server, clients, per_client, [&](std::size_t c, std::size_t j) {
            return makeRepeatRequest(hot, hit_rate, j * clients + c,
                                     rngs[c]);
        });
    server.stop();

    const MetricsSummary m = server.metrics().summary();
    const SolveCache *cache = server.solveCache();
    RepeatPoint point;
    point.hitRate = hit_rate;
    point.seconds = run.seconds;
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

/** `, "streams": [...]`: per-stream p50/p99/max beside the pooled pair. */
void
writeStreams(std::ostream &out, const StreamLatencies &streams)
{
    out << ", \"streams\": [";
    for (std::size_t s = 0; s < kStreams; s++)
        out << (s ? ", " : "") << "{\"stream\": " << s
            << ", \"p50_ms\": " << streams[s].p50Ms
            << ", \"p99_ms\": " << streams[s].p99Ms
            << ", \"max_ms\": " << streams[s].maxMs << "}";
    out << "]";
}

/**
 * `"requests_per_sec": m, "requests_per_sec_iqr": q, ...` for
 * throughput, p50 and p99 (median and IQR over the point's runs), then
 * the per-stream medians.
 */
template <typename Point>
void
writeLoadFields(std::ostream &out, const Repeated<Point> &point)
{
    const auto field = [&](const char *key, int precision, auto get) {
        const Spread s = point.spread(get);
        out << ", \"" << key << "\": " << std::setprecision(precision)
            << s.median << ", \"" << key << "_iqr\": " << s.iqr;
    };
    out << std::fixed;
    field("requests_per_sec", 2,
          [](const Point &p) { return p.requestsPerSec; });
    field("p50_ms", 3, [](const Point &p) { return p.p50Ms; });
    field("p99_ms", 3, [](const Point &p) { return p.p99Ms; });
    writeStreams(out, medianStreams(point));
}

void
writeServingReport(const std::vector<Repeated<ServingPoint>> &points,
                   const std::vector<Repeated<RepeatPoint>> &repeats,
                   const WarmComparison &warm,
                   const std::string &path = "BENCH_serving.json")
{
    std::ofstream out(path, std::ios::trunc);
    out << "{\n  \"machine\": " << bench::machineJson()
        << ",\n  \"point_seconds\": " << std::fixed
        << std::setprecision(1) << kPointSeconds
        << ",\n  \"repeats\": " << kRepeats << ",\n  \"serving\": [\n";
    for (std::size_t i = 0; i < points.size(); i++) {
        const Repeated<ServingPoint> &p = points[i];
        const std::size_t max_batch = p.runs.front().maxBatch;
        out << "    {\"name\": \"serving/batch=" << max_batch
            << "\", \"max_batch\": " << max_batch;
        writeLoadFields(out, p);
        out << ", \"coalesce_wait_p50_ms\": " << std::setprecision(3)
            << p.median([](const ServingPoint &r) {
                   return r.coalesceWaitP50Ms;
               })
            << ", \"mean_batch_occupancy\": " << std::setprecision(2)
            << p.median([](const ServingPoint &r) {
                   return r.meanOccupancy;
               })
            << "}" << (i + 1 < points.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"repeat_traffic\": [\n";
    for (std::size_t i = 0; i < repeats.size(); i++) {
        const Repeated<RepeatPoint> &p = repeats[i];
        const double hit_rate = p.runs.front().hitRate;
        out << "    {\"name\": \"repeat/hit=" << std::fixed
            << std::setprecision(2) << hit_rate
            << "\", \"hit_rate\": " << hit_rate;
        writeLoadFields(out, p);
        out << std::setprecision(0) << ", \"exact_hits\": "
            << p.median([](const RepeatPoint &r) {
                   return static_cast<double>(r.exactHits);
               })
            << ", \"warm_hits\": "
            << p.median([](const RepeatPoint &r) {
                   return static_cast<double>(r.warmHits);
               })
            << ", \"single_flight_waits\": "
            << p.median([](const RepeatPoint &r) {
                   return static_cast<double>(r.singleFlightWaits);
               })
            << "}" << (i + 1 < repeats.size() ? ",\n" : "\n");
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

    const std::size_t clients = 16;
    const std::string period = "~" + Table::num(kPointSeconds, 1) +
                               " s x " + std::to_string(kRepeats) +
                               " runs, median";

    Table closed("Closed-loop throughput (" + std::to_string(clients) +
                 " synchronous clients, " + period + ")");
    closed.setHeader({"workers", "req/s", "req/s IQR", "speedup", "p50 ms",
                      "p95 ms", "p99 ms", "mean f-evals"});

    double base_rps = 0.0;
    double four_worker_rps = 0.0;
    for (std::size_t workers : {1u, 2u, 4u, 8u}) {
        const auto r = repeatClosedPoint([&](std::size_t quota) {
            return runClosedLoop(workers, clients, quota);
        });
        const Spread rps = r.spread(
            [](const ClosedLoopResult &c) { return c.throughputRps; });
        const auto metric = [&](double MetricsSummary::*field) {
            return r.median([field](const ClosedLoopResult &c) {
                return c.metrics.*field;
            });
        };
        if (workers == 1)
            base_rps = rps.median;
        if (workers == 4)
            four_worker_rps = rps.median;
        closed.addRow({std::to_string(workers), Table::num(rps.median, 1),
                       Table::num(rps.iqr, 1),
                       Table::ratio(rps.median / base_rps),
                       Table::num(metric(&MetricsSummary::totalP50Ms)),
                       Table::num(metric(&MetricsSummary::totalP95Ms)),
                       Table::num(metric(&MetricsSummary::totalP99Ms)),
                       Table::num(metric(&MetricsSummary::meanFEvals), 1)});
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
               "arrivals, " + period + ")");
    open.setHeader({"load", "offered req/s", "p50 ms", "p95 ms", "p99 ms",
                    "queue-wait p95 ms", "rejected"});
    for (double load : {0.3, 0.6, 0.9}) {
        const double rate = load * four_worker_rps;
        const auto r = repeatPoint([&] { return runOpenLoop(4, rate); });
        const auto metric = [&](auto field) {
            return r.median([field](const OpenLoopResult &o) {
                return static_cast<double>(o.metrics.*field);
            });
        };
        open.addRow({Table::percent(load, 0), Table::num(rate, 1),
                     Table::num(metric(&MetricsSummary::totalP50Ms)),
                     Table::num(metric(&MetricsSummary::totalP95Ms)),
                     Table::num(metric(&MetricsSummary::totalP99Ms)),
                     Table::num(metric(&MetricsSummary::queueWaitP95Ms)),
                     Table::integer(static_cast<long long>(
                         metric(&MetricsSummary::rejected)))});
    }
    open.print();

    // Batch sweep: one worker, fixed closed-loop population, maxBatch
    // swept. Throughput gains isolate the batched-solve coalescing win.
    const std::size_t sweep_clients = 32;
    Table sweep("Micro-batching sweep (1 worker, " +
                std::to_string(sweep_clients) + " closed-loop clients, " +
                period + ")");
    sweep.setHeader({"max batch", "req/s", "req/s IQR", "speedup", "p50 ms",
                     "p99 ms", "p99 ms by stream 0/1/2/3",
                     "max ms by stream 0/1/2/3", "mean occupancy"});
    std::vector<Repeated<ServingPoint>> points;
    double batch1_rps = 0.0;
    double batch8_rps = 0.0;
    for (std::size_t max_batch : {1u, 2u, 4u, 8u, 16u}) {
        auto p = repeatClosedPoint([&](std::size_t quota) {
            return runBatchSweepPoint(max_batch, sweep_clients, quota);
        });
        const Spread rps =
            p.spread([](const ServingPoint &r) { return r.requestsPerSec; });
        if (max_batch == 1)
            batch1_rps = rps.median;
        if (max_batch == 8)
            batch8_rps = rps.median;
        sweep.addRow(
            {std::to_string(max_batch), Table::num(rps.median, 1),
             Table::num(rps.iqr, 1), Table::ratio(rps.median / batch1_rps),
             Table::num(p.median([](const ServingPoint &r) { return r.p50Ms; })),
             Table::num(p.median([](const ServingPoint &r) { return r.p99Ms; })),
             streamP99s(medianStreams(p)), streamMaxes(medianStreams(p)),
             Table::num(p.median(
                 [](const ServingPoint &r) { return r.meanOccupancy; }))});
        points.push_back(std::move(p));
    }
    sweep.print();
    const double batch_speedup = batch8_rps / batch1_rps;
    std::printf("\nbatch-8 vs batch-1 throughput on one worker: %.2fx %s\n",
                batch_speedup,
                batch_speedup >= 2.0 ? "(PASS >=2x)" : "(below 2x!)");

    // Repeat-traffic sweep: one cache-enabled worker, hit rate swept.
    Table repeat("Repeat-traffic sweep (1 worker, two-tier solve cache, " +
                 std::to_string(sweep_clients) + " clients, " + period +
                 ")");
    repeat.setHeader({"hit rate", "req/s", "req/s IQR", "speedup", "p50 ms",
                      "p99 ms", "p99 ms by stream 0/1/2/3", "exact hits",
                      "warm hits", "dedup waits"});
    std::vector<Repeated<RepeatPoint>> repeats;
    double miss_rps = 0.0;
    double hit_rps = 0.0;
    for (double hit_rate : {0.0, 0.5, 0.9, 1.0}) {
        auto p = repeatClosedPoint([&](std::size_t quota) {
            return runRepeatTrafficPoint(hit_rate, sweep_clients, quota);
        });
        const Spread rps =
            p.spread([](const RepeatPoint &r) { return r.requestsPerSec; });
        if (hit_rate == 0.0)
            miss_rps = rps.median;
        hit_rps = rps.median;
        const auto count = [&](std::uint64_t RepeatPoint::*field) {
            return Table::integer(static_cast<long long>(
                p.median([field](const RepeatPoint &r) {
                    return static_cast<double>(r.*field);
                })));
        };
        repeat.addRow(
            {Table::percent(hit_rate, 0), Table::num(rps.median, 1),
             Table::num(rps.iqr, 1), Table::ratio(rps.median / miss_rps),
             Table::num(p.median([](const RepeatPoint &r) { return r.p50Ms; })),
             Table::num(p.median([](const RepeatPoint &r) { return r.p99Ms; })),
             streamP99s(medianStreams(p)), count(&RepeatPoint::exactHits),
             count(&RepeatPoint::warmHits),
             count(&RepeatPoint::singleFlightWaits)});
        repeats.push_back(std::move(p));
    }
    repeat.print();
    const double hit_speedup = hit_rps / miss_rps;
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

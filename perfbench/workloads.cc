// The workloads, their pre-generated requests, set-up, and the
// closed- and open-loop load generators.

#include <chrono>
#include <deque>
#include <future>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "harness.h"
#include "workloads/load_gen.h"

using namespace enode;

namespace perfbench {

namespace {

/** Weights are fixed; the run seed varies only the inputs. */
constexpr std::uint64_t kModelSeed = 20231101;

/** The served MLP: 2 integration layers, dim 16, hidden 64, f depth 2. */
constexpr std::size_t kMlpDim = 16, kMlpHidden = 64, kMlpDepth = 2;
/** The conv NODE: 4 channels on a 10x10 map, 2 conv layers per f. */
constexpr std::size_t kConvChannels = 4, kConvMap = 10, kConvDepth = 2;
constexpr std::size_t kLayers = 2;

/**
 * mixed-open traffic. LoadGen's bursts run at 4x the mean rate a quarter
 * of the time, so at this mean the bursts ask for about half of what the
 * two workers serve solo (NodeModel::forward p50 0.84 ms on a 4-vCPU Xeon
 * guest, about 2400 req/s); the trainer's tasks and the cache misses
 * after each publish still push some requests past their deadline or
 * into a shed (about 2%). At 600-1400 req/s the bursts saturate the
 * workers, and a few percent of host speed then moved p50 by a third and
 * p99 twofold, so runs minutes apart could not be compared.
 *
 * Burst phases are short so a run holds hundreds of them: with 50 ms
 * bursts the offered count of a 10 s run varied by 19% (quartile spread)
 * between seeds.
 *
 * The rest of the mix is an assumption, not taken from a measured trace
 * or a published study: 25 ms mean deadlines with LoadGen's default
 * +/-50% jitter, a hot set of 64 inputs, 40% exact repeats of it, 30%
 * near-duplicates of it (noise 0.01, inside its warm-start bucket) and
 * 30% fresh inputs, of which those LoadGen flags stiff (its default 20%)
 * are drawn at 4x the scale. Each run prints the share of every input
 * class it generated.
 */
constexpr double kMixedRate = 300.0;
constexpr std::uint32_t kMixedStreams = 4;
constexpr double kDeadlineMeanMs = 25.0;
constexpr double kBurstOnSec = 0.01, kBurstOffSec = 0.03;
constexpr std::size_t kHotSet = 64;
constexpr double kHotShare = 0.4, kNearShare = 0.3;
constexpr float kNearNoise = 0.01f;
constexpr float kFreshScale = 0.5f, kStiffScale = 2.0f;

/**
 * Fresh closed-loop inputs per second of run: conv-closed serves 50-70
 * req/s on a 4-vCPU Xeon guest, so the pool wraps only for a server
 * about four times as fast.
 */
constexpr double kClosedPoolPerSec = 300.0;

/** Warm-up requests per set-up; their inputs are never measured. */
constexpr std::size_t kWarmupMlp = 256, kWarmupConv = 8;

/**
 * mixed-open training load: steps started per second on a fixed
 * schedule, so the training work offered does not depend on how much
 * idle worker time a run happens to have.
 */
constexpr double kTrainStepsPerSec = 10.0;

/** Weight versions the bitwise gate keeps, sampled over the run. */
constexpr std::size_t kKeptVersions = 32;

/** Upper bound on waiting for one response before the run fails. */
constexpr auto kResolveTimeout = std::chrono::seconds(60);

/** In flight on conv-closed: per worker, one solving and one queued. */
constexpr std::size_t kConvInFlight = 4;

const Workload kWorkloads[] = {
    {"mixed-open", false, Load::Open, 0, kMixedRate, 8, true, true, true},
    {"conv-closed", true, Load::Closed, kConvInFlight, 0.0, 1, false, false,
     false},
};

Shape
inputShape(const Workload &w)
{
    return w.conv ? Shape{kConvChannels, kConvMap, kConvMap}
                  : Shape{kMlpDim};
}

ServerOptions
serverOptions(const Workload &w, bool trace)
{
    ServerOptions o;
    o.numWorkers = kWorkers;
    o.queueCapacity = 1024;
    o.ivp = servingIvp();
    o.maxBatch = w.maxBatch;
    o.cache.enabled = w.cache;
    o.overload.enabled = w.admission;
    // The soak bench's tuned controller; stream 1, the lowest inference
    // stream, is the one brownout relaxes and sheds first.
    o.overload.targetDelayMs = 15.0;
    o.overload.minDwellMs = 50.0;
    o.overload.ewmaAlpha = 0.3;
    o.overload.lowPriorityMax = 1;
    o.traceEnabled = trace;
    return o;
}

double
msBetween(RuntimeClock::time_point a, RuntimeClock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

RuntimeClock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<RuntimeClock::duration>(
        std::chrono::duration<double>(seconds));
}

/** Submit `r` and record how the submit went. */
Record
submitOne(InferenceServer &server, const Request &r, std::size_t index,
          RuntimeClock::time_point start,
          RuntimeClock::time_point deadline,
          std::future<InferResponse> &future)
{
    Record rec;
    rec.request = index;
    const auto t0 = RuntimeClock::now();
    InferenceServer::Submission sub = server.submit(r.input, r.stream,
                                                    deadline);
    const auto t1 = RuntimeClock::now();
    rec.submitMs = msBetween(start, t0);
    rec.submitUs = msBetween(t0, t1) * 1e3;
    rec.accepted = sub.accepted;
    if (sub.accepted)
        future = std::move(sub.result);
    return rec;
}

/** Wait for a response and keep its Reply; false when it did not
 *  arrive in time. */
bool
resolve(std::future<InferResponse> &future, const Request &q, Record &rec)
{
    if (future.wait_for(kResolveTimeout) != std::future_status::ready)
        return false;
    const InferResponse r = future.get();
    Reply &out = rec.reply;
    out.status = r.status;
    out.deadlineMet = r.deadlineMet;
    out.degraded = r.degraded;
    out.cacheHit = r.cacheHit;
    out.warmStarted = r.warmStarted;
    out.brownoutRelaxed = r.brownoutRelaxed;
    out.queueWaitMs = r.queueWaitMs;
    out.solveMs = r.solveMs;
    out.totalMs = r.totalMs;
    out.batchSize = r.batchSize;
    out.modelVersion = r.modelVersion;
    out.trials = r.stats.trials;
    out.evalPoints = r.stats.evalPoints;
    if (r.status == RequestStatus::Ok) {
        out.outputOk = r.output.shape().dims() == q.input.shape().dims() &&
                       r.output.isFinite();
        out.outputDigest = hashTensor(r.output);
    }
    rec.resolved = true;
    return true;
}

std::vector<TrainExample>
trainBatch(const Served &s, std::uint64_t step)
{
    constexpr std::size_t kBatch = 4;
    std::vector<TrainExample> batch;
    for (std::size_t i = 0; i < kBatch; i++)
        batch.push_back(s.trainPool[(step * kBatch + i) % s.trainPool.size()]);
    return batch;
}

/**
 * Keep a published version for the bitwise gate: a uniform sample of
 * kKeptVersions of all publishes (reservoir sampling), beside version 0,
 * so the bench holds a fixed number of snapshots however fast the
 * trainer publishes.
 */
void
keepVersion(Served &s, std::uint64_t version)
{
    std::lock_guard<std::mutex> lock(s.versionsMutex);
    const std::uint64_t seen = ++s.versionsPublished;
    if (s.versions.size() <= kKeptVersions) {
        s.versions[version] = s.server->registry().at(version);
        return;
    }
    const std::uint64_t slot = s.versionRng.nextBelow(seen);
    if (slot >= kKeptVersions)
        return;
    // Version 0 is the first key; published ones follow it.
    s.versions.erase(std::next(s.versions.begin(), 1 + slot));
    s.versions[version] = s.server->registry().at(version);
}

/** Step the trainer once and keep the version it published, if any. */
TrainStepOutcome
trainStep(Served &s, std::uint64_t step)
{
    TrainStepOutcome out = s.trainer->step(trainBatch(s, step));
    if (out.publishedVersion != 0)
        keepVersion(s, out.publishedVersion);
    return out;
}

void
runClosed(Served &s, const std::vector<Request> &requests, RunResult &r)
{
    InferenceServer &server = *s.server;
    r.before = readCounters(s);
    std::deque<std::pair<std::size_t, std::future<InferResponse>>> ring;
    std::size_t next = 0;
    const auto start = RuntimeClock::now();
    const auto end = start + toDuration(r.seconds);
    for (;;) {
        while (ring.size() < s.workload->inFlight &&
               RuntimeClock::now() < end) {
            const std::size_t index = next % requests.size();
            if (next == r.records.size())
                r.records.emplace_back();
            std::future<InferResponse> future;
            r.records[next] = submitOne(server, requests[index], index,
                                        start,
                                        RuntimeClock::time_point::max(),
                                        future);
            if (r.records[next].accepted)
                ring.emplace_back(next, std::move(future));
            next++;
        }
        if (ring.empty())
            break;
        // One generator thread cannot wait on "any" future; the oldest
        // is the next to finish on a single FIFO stream.
        Record &oldest = r.records[ring.front().first];
        if (!resolve(ring.front().second, requests[oldest.request],
                     oldest)) {
            r.stalled = true;
            break;
        }
        ring.pop_front();
    }
    r.records.resize(next);
    if (!r.stalled)
        server.stop();
    r.queuePeak = server.queue().peakSize();
    r.after = readCounters(s);
}

void
runOpen(Served &s, const std::vector<Request> &requests, RunResult &r)
{
    InferenceServer &server = *s.server;
    r.before = readCounters(s);
    std::vector<std::future<InferResponse>> &futures = r.pending;
    // Responses are collected as they become ready at the head of the
    // schedule, so finished ones do not pile up until the end.
    std::size_t harvested = 0;
    const auto harvestReady = [&](std::size_t upTo) {
        for (; harvested < upTo; harvested++) {
            Record &rec = r.records[harvested];
            if (!rec.accepted)
                continue;
            if (futures[harvested].wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                return;
            resolve(futures[harvested], requests[harvested], rec);
        }
    };

    const SteadyClock clock;
    const auto start = RuntimeClock::now();
    const OpenLoopPacer<SteadyClock> pacer(clock, start);

    // The trainer thread starts a step every 1/kTrainStepsPerSec seconds
    // of the window (at once when it is behind); each publish hot-swaps
    // the workers' weights under inference traffic.
    std::vector<double> stepEndMs;
    std::jthread trainer;
    if (s.trainer) {
        trainer = std::jthread([&](std::stop_token stop) {
            const double periodMs = 1e3 / kTrainStepsPerSec;
            for (std::uint64_t step = 0;
                 !stop.stop_requested() &&
                 static_cast<double>(step) * periodMs < r.seconds * 1e3;
                 step++) {
                pacer.awaitDue(static_cast<double>(step) * periodMs);
                const auto t0 = RuntimeClock::now();
                const TrainStepOutcome out = trainStep(s, step);
                const auto t1 = RuntimeClock::now();
                r.trainStepMs.push_back(msBetween(t0, t1));
                stepEndMs.push_back(msBetween(start, t1));
                r.trainTaskFailures += out.tasksFailed;
            }
        });
    }

    for (std::size_t i = 0; i < requests.size(); i++) {
        const Request &q = requests[i];
        const double late = pacer.awaitDue(q.atMs);
        const auto due = pacer.dueTime(q.atMs);
        const auto deadline =
            q.deadlineBudgetMs > 0.0
                ? due + toDuration(q.deadlineBudgetMs / 1e3)
                : RuntimeClock::time_point::max();
        r.records[i] = submitOne(server, q, i, start, deadline, futures[i]);
        r.records[i].lateMs = late;
        harvestReady(i);
    }
    if (trainer.joinable()) {
        trainer.request_stop();
        trainer.join();
    }
    for (double endMs : stepEndMs)
        r.trainSteps += endMs <= r.seconds * 1e3 ? 1 : 0;

    for (std::size_t i = harvested; i < r.records.size() && !r.stalled; i++)
        if (r.records[i].accepted)
            r.stalled = !resolve(futures[i], requests[i], r.records[i]);
    if (!r.stalled)
        server.stop();
    r.queuePeak = server.queue().peakSize();
    r.after = readCounters(s);
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::string
workloadNames()
{
    std::string names;
    for (const Workload &w : kWorkloads)
        names += (names.empty() ? "" : ", ") + std::string(w.name);
    return names;
}

std::unique_ptr<NodeModel>
makeModel(const Workload &w)
{
    Rng rng(kModelSeed);
    return w.conv ? NodeModel::makeConv(kLayers, kConvChannels, kConvDepth,
                                        rng)
                  : NodeModel::makeMlp(kLayers, kMlpDim, kMlpHidden,
                                       kMlpDepth, rng);
}

IvpOptions
servingIvp()
{
    IvpOptions opts = servingIvpDefaults();
    opts.tolerance = 1e-4;
    opts.initialDt = 0.05;
    return opts;
}

std::vector<Request>
makeRequests(const Workload &w, std::uint64_t seed, double seconds)
{
    std::vector<Request> out;
    const Shape shape = inputShape(w);
    if (w.load == Load::Closed) {
        const auto n =
            static_cast<std::size_t>(kClosedPoolPerSec * seconds) + 64;
        Rng rng(seed);
        out.resize(n);
        for (std::size_t i = 0; i < n; i++) {
            out[i].input = Tensor::randn(shape, rng, kFreshScale);
            out[i].inputId = i;
        }
        return out;
    }

    LoadGenOptions gen;
    gen.process = ArrivalProcess::Bursty;
    gen.ratePerSec = w.ratePerSec;
    gen.seed = seed;
    gen.numStreams = kMixedStreams;
    gen.deadlineMeanMs = kDeadlineMeanMs;
    gen.burstOnSec = kBurstOnSec;
    gen.burstOffSec = kBurstOffSec;
    // The burst phases are random, so a schedule of `seconds` offers a
    // seed-dependent count (10% quartile spread over 10 s). Take exactly
    // rate * seconds arrivals and scale their times so the next one would
    // fall on the window's end: every seed offers the stated mean rate,
    // in the same bursty pattern.
    std::vector<ArrivalEvent> events =
        LoadGen(gen).schedule(2.0 * seconds + 1.0);
    const auto offered = static_cast<std::size_t>(w.ratePerSec * seconds);
    if (events.size() <= offered)
        throw std::runtime_error("mixed-open: schedule too short");
    const double scale = seconds * 1e3 / events[offered].atMs;
    events.resize(offered);
    for (ArrivalEvent &ev : events)
        ev.atMs *= scale;

    Rng hotRng(seed ^ 0x486f74536574ull);
    std::vector<Tensor> hot;
    for (std::size_t i = 0; i < kHotSet; i++)
        hot.push_back(Tensor::randn(shape, hotRng, kFreshScale));

    out.resize(events.size());
    for (std::size_t i = 0; i < events.size(); i++) {
        const ArrivalEvent &ev = events[i];
        Request &q = out[i];
        q.atMs = ev.atMs;
        // Stream 0 is the trainer's; inference uses 1..kMixedStreams.
        q.stream = ev.stream + 1;
        q.deadlineBudgetMs = ev.deadlineBudgetMs;
        Rng rng(ev.inputSeed);
        const double pick = rng.uniform();
        const std::size_t k = rng.nextBelow(kHotSet);
        if (pick < kHotShare) {
            q.kind = InputKind::Hot;
            q.input = hot[k];
            q.inputId = k;
            continue;
        }
        q.inputId = kHotSet + i;
        if (pick < kHotShare + kNearShare) {
            q.kind = InputKind::Near;
            q.input = hot[k];
            const Tensor noise = Tensor::randn(shape, rng, kNearNoise);
            for (std::size_t j = 0; j < q.input.numel(); j++)
                q.input.data()[j] += noise.data()[j];
        } else {
            // The stiff flavor scales the state into steeper regions of
            // f, so the solve takes more and smaller steps.
            q.kind = ev.stiff ? InputKind::Stiff : InputKind::Fresh;
            q.input = Tensor::randn(shape, rng,
                                    ev.stiff ? kStiffScale : kFreshScale);
        }
    }
    return out;
}

Served::~Served()
{
    trainer.reset();
    if (server)
        server->stop();
}

std::unique_ptr<Served>
setUp(const Workload &w, std::uint64_t seed, bool trace)
{
    auto s = std::make_unique<Served>();
    s->workload = &w;
    s->server = std::make_unique<InferenceServer>(
        [&w] { return makeModel(w); }, serverOptions(w, trace));
    s->versions[0] = s->server->registry().at(0);
    s->versionRng = Rng(seed ^ 0x56657273696f6eull);

    const Shape shape = inputShape(w);
    if (w.training) {
        TrainingOptions t;
        t.learningRate = 0.01;
        t.batchSize = 4;
        // Every publish invalidates the cache and adds a snapshot the
        // bitwise gate keeps; every 16th step is several per second.
        t.publishEvery = 16;
        t.stream = 0;
        t.ivp.tolerance = 1e-3;
        t.ivp.initialDt = 0.1;
        s->trainer = std::make_unique<TrainingService>(*s->server,
                                                       makeModel(w), t);
        Rng rng(seed ^ 0x547261696eull);
        for (std::size_t i = 0; i < 64; i++) {
            TrainExample ex;
            ex.input = Tensor::randn(shape, rng, 0.5f);
            ex.target = ex.input * 0.5f;
            s->trainPool.push_back(std::move(ex));
        }
    }

    // Warm-up: replicas, workspaces and caches fill on inputs the
    // measured run never sends.
    Rng rng(seed ^ 0x5761726d7570ull);
    const std::size_t n = w.conv ? kWarmupConv : kWarmupMlp;
    const std::size_t inFlight = std::max<std::size_t>(w.inFlight, 8);
    std::deque<std::future<InferResponse>> ring;
    for (std::size_t i = 0; i < n; i++) {
        const std::uint32_t stream =
            w.load == Load::Open ? 1 + static_cast<std::uint32_t>(i % 4) : 0;
        auto sub = s->server->submit(Tensor::randn(shape, rng, 0.5f), stream);
        if (sub.accepted)
            ring.push_back(std::move(sub.result));
        while (ring.size() >= inFlight || (i + 1 == n && !ring.empty())) {
            ring.front().wait();
            ring.pop_front();
        }
    }
    if (s->trainer)
        trainStep(*s, 0);
    return s;
}

ServerCounters
readCounters(const Served &served)
{
    const InferenceServer &server = *served.server;
    ServerCounters c;
    c.metrics = server.metrics().summary();
    if (const SolveCache *cache = server.solveCache()) {
        c.exactHits = cache->exactHits();
        c.warmHits = cache->warmHits();
        c.cacheMisses = cache->misses();
        c.singleFlightWaits = cache->singleFlightWaits();
    }
    if (const AdmissionController *adm = server.admission()) {
        c.sheds = adm->sheds();
        c.transitions = adm->transitions();
        for (int level = 0; level < 4; level++)
            c.residencyMs[level] = adm->levelResidencyMs(level);
    }
    c.published = server.registry().published();
    c.swaps = server.registry().swapsApplied();
    return c;
}

RunResult
prepareRun(const Workload &w, const std::vector<Request> &requests,
           double seconds)
{
    RunResult r;
    r.seconds = seconds;
    // One record per request (closed loop: per pooled input; only a run
    // that wraps the pool adds more), resized and so touched here.
    r.records.resize(requests.size());
    if (w.load == Load::Open)
        r.pending.resize(requests.size());
    return r;
}

void
runLoad(Served &served, const std::vector<Request> &requests, RunResult &run)
{
    if (served.workload->load == Load::Closed)
        runClosed(served, requests, run);
    else
        runOpen(served, requests, run);
}

} // namespace perfbench

#ifndef ENODE_PERFBENCH_BENCH_H
#define ENODE_PERFBENCH_BENCH_H

/**
 * @file
 * Declarations shared by the benchmark's translation units: the
 * workloads, the pre-generated requests, one served configuration, the
 * record of a measured run, and the result maps the report prints.
 */

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/node_model.h"
#include "runtime/inference_server.h"
#include "runtime/training_service.h"

namespace perfbench {

enum class Load
{
    Closed, ///< a fixed number of requests in flight
    Open,   ///< a seeded arrival schedule, sent on time
};

/** One workload: a model, a server configuration and a traffic mix. */
struct Workload
{
    const char *name;
    bool conv;             ///< conv NODE (else the served MLP)
    Load load;
    std::size_t inFlight;  ///< closed loop: requests kept in flight
    double ratePerSec;     ///< open loop: mean arrival rate
    std::size_t maxBatch;
    bool cache;
    bool admission;
    bool training;
};

/** The workload named `name`, or null. */
const Workload *findWorkload(const std::string &name);

/** Names of every workload, for usage messages. */
std::string workloadNames();

/** Server workers in every workload. */
constexpr std::size_t kWorkers = 2;

/** The workload's model, built from a fixed weight seed. */
std::unique_ptr<enode::NodeModel> makeModel(const Workload &w);

/** Solver options every workload serves with. */
enode::IvpOptions servingIvp();

/** Where an open-loop input came from. */
enum class InputKind
{
    Fresh, ///< drawn for this request alone
    Stiff, ///< fresh, drawn at a larger scale (LoadGen's stiff flag)
    Hot,   ///< a byte-for-byte repeat of a hot-set input
    Near,  ///< a hot-set input plus small noise
};

/** One request, generated before timing starts. */
struct Request
{
    enode::Tensor input;
    InputKind kind = InputKind::Fresh;
    /** Equal ids mean bitwise-equal inputs (the hot set's repeats). */
    std::uint64_t inputId = 0;
    std::uint32_t stream = 0;
    /** Open loop: due time from the start of the run. */
    double atMs = 0.0;
    /** Open loop: deadline budget from the due time; 0 = none. */
    double deadlineBudgetMs = 0.0;
};

/**
 * The workload's requests for a run of `seconds`: the open-loop schedule,
 * or a pool of fresh inputs the closed loop walks through.
 */
std::vector<Request> makeRequests(const Workload &w, std::uint64_t seed,
                                  double seconds);

/** A built, warmed server (and trainer) ready to measure. */
struct Served
{
    Served() = default;
    ~Served();
    Served(const Served &) = delete;
    Served &operator=(const Served &) = delete;

    const Workload *workload = nullptr;
    std::unique_ptr<enode::InferenceServer> server;
    /** Declared after `server`: it must be destroyed first. */
    std::unique_ptr<enode::TrainingService> trainer;
    std::vector<enode::TrainExample> trainPool;

    /** Weight versions the bitwise gate checks against: version 0 and a
     *  fixed-size uniform sample of the published ones. */
    std::mutex versionsMutex;
    std::map<std::uint64_t, std::shared_ptr<const enode::WeightSnapshot>>
        versions;
    std::uint64_t versionsPublished = 0;
    enode::Rng versionRng;
};

/**
 * Set-up, the part setup_s times: model build, server (and trainer)
 * construction, and a fixed warm-up of requests the run never reuses.
 */
std::unique_ptr<Served> setUp(const Workload &w, std::uint64_t seed,
                              bool trace);

/**
 * What the bench keeps of one InferResponse: the fields the metrics read,
 * the output screened for finiteness and shape, and a digest of its
 * bytes for the bitwise gate. Keeping the digest instead of the tensor
 * keeps every record the same small size.
 */
struct Reply
{
    enode::RequestStatus status = enode::RequestStatus::Cancelled;
    bool deadlineMet = false;
    bool degraded = false;
    bool cacheHit = false;
    bool warmStarted = false;
    bool brownoutRelaxed = false;
    double queueWaitMs = 0.0;
    double solveMs = 0.0;
    double totalMs = 0.0;
    std::size_t batchSize = 0;
    std::uint64_t modelVersion = 0;
    std::uint64_t trials = 0;
    std::uint64_t evalPoints = 0;
    /** Finite and shaped like the input (Ok responses). */
    bool outputOk = false;
    /** hashTensor of the output: shape and bytes. */
    enode::Hash128 outputDigest;
};

/** One request as the run saw it. */
struct Record
{
    std::size_t request = 0; ///< index into the request list
    bool accepted = false;
    bool resolved = false;   ///< its future delivered a response
    double submitMs = 0.0;   ///< submit time from the start of the run
    double submitUs = 0.0;   ///< time spent inside submit()
    double lateMs = 0.0;     ///< open loop: generator lateness
    Reply reply;
};

/** Counter values read from the server before and after a run. */
struct ServerCounters
{
    enode::MetricsSummary metrics;
    std::uint64_t exactHits = 0, warmHits = 0, cacheMisses = 0,
                  singleFlightWaits = 0;
    std::uint64_t sheds = 0, transitions = 0;
    double residencyMs[4] = {0.0, 0.0, 0.0, 0.0};
    std::uint64_t published = 0, swaps = 0;
};

ServerCounters readCounters(const Served &served);

/** Everything a measured run leaves behind for metrics and checks. */
struct RunResult
{
    std::vector<Record> records;
    /** Open loop: each accepted request's future until it is collected. */
    std::vector<std::future<enode::InferResponse>> pending;
    double seconds = 0.0; ///< the measurement window
    ServerCounters before, after;
    std::size_t queuePeak = 0;
    /** Training steps that finished inside the window, and their times. */
    std::uint64_t trainSteps = 0;
    std::vector<double> trainStepMs;
    std::uint64_t trainTaskFailures = 0;
    /** A response did not arrive in time; the server was left running,
     *  since stopping it would wait on the stuck worker. */
    bool stalled = false;
};

/**
 * The storage a run of `seconds` fills, allocated before set-up so that
 * peak_rss_mb, measured from there, leaves the bench's records out.
 */
RunResult prepareRun(const Workload &w, const std::vector<Request> &requests,
                     double seconds);

/** Drive the workload's load against `served` for run.seconds. */
void runLoad(Served &served, const std::vector<Request> &requests,
             RunResult &run);

/** Outcome of the correctness and reconciliation gates. */
struct GateReport
{
    bool ok = true;
    std::vector<std::string> failures;
    std::size_t bitwiseChecked = 0;
    std::size_t bitwiseEligible = 0;
    /** Eligible responses served on a weight version the bench kept. */
    std::size_t bitwiseOnKeptVersion = 0;
    std::size_t versionsKept = 0;
    std::uint64_t versionsPublished = 0;
    std::size_t hitsMatchedWarmOwner = 0;
    std::size_t shapeChecked = 0;
    /** Operations that failed: Failed/Cancelled terminals plus outputs
     *  that broke a gate. */
    std::size_t failedOps = 0;
};

/**
 * Check a finished run (server stopped): outputs against a
 * single-threaded NodeModel::forward on the response's weight version
 * where the runtime promises bitwise identity, finiteness and shape
 * elsewhere, and the terminal and submit reconciliations.
 */
GateReport verifyRun(Served &served, const std::vector<Request> &requests,
                     const RunResult &run);

/** A named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** One reported metric: name, value and unit, its sample count, a note. */
struct Row
{
    std::string name;
    Metric metric;
    std::size_t samples = 0;
    std::string note;
};

/** Per-layer numbers from replaying the workload on the bench thread. */
struct ReplayResult
{
    std::vector<Row> rows;
    /** Human-readable lines (bases, FLOP model, closure detail). */
    std::vector<std::string> notes;
    double odeMsPerReqP50 = 0.0; ///< solveIvp total per request
    double forwardMsP50 = 0.0;   ///< NodeModel::forward per request
    double layerClosure = 0.0;
};

/**
 * Replay the workload's own distinct inputs (up to 1024 MLP, 48 conv) through
 * NodeModel::forward / forwardBatched (core), solveIvp with a timed
 * OdeFunction (ode), and layer-by-layer forward calls (nn, tensor),
 * within about `budgetSec` seconds.
 */
ReplayResult replayLayers(const Workload &w,
                          const std::vector<Request> &requests,
                          double budgetSec);

/** Machine and build facts printed with every result. */
std::string provenanceJson(const Workload &w, std::uint64_t seed,
                           double seconds, bool trace);

} // namespace perfbench

#endif // ENODE_PERFBENCH_BENCH_H

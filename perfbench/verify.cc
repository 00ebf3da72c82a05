// Correctness and reconciliation gates over a finished run.

#include <string>

#include "bench.h"

using namespace enode;

namespace perfbench {

namespace {

/** Reference forwards per run: every response when the run has fewer
 *  bitwise-eligible ones, else an even stride through them. */
constexpr std::size_t kMaxReferenceMlp = 1500, kMaxReferenceConv = 48;

/**
 * The runtime promises bitwise identity with a solo forward for clean
 * solves, solo or batched, and for exact-cache hits. Warm-started,
 * brownout-relaxed and degraded answers are only promised finite.
 */
bool
bitwisePromised(const Reply &r)
{
    return r.status == RequestStatus::Ok && !r.degraded &&
           !r.brownoutRelaxed && (r.cacheHit || !r.warmStarted);
}

} // namespace

GateReport
verifyRun(Served &served, const std::vector<Request> &requests,
          const RunResult &run)
{
    GateReport g;
    auto fail = [&g](const std::string &why) {
        g.ok = false;
        if (g.failures.size() < 20)
            g.failures.push_back(why);
    };

    // Terminal reconciliation, over the server's whole life.
    const MetricsSummary &m = run.after.metrics;
    if (m.admitted != m.completed + m.expired + m.failed + m.cancelled + m.shed)
        fail("terminal reconciliation: admitted " +
             std::to_string(m.admitted) + " != completed + expired + "
             "failed + cancelled + shed = " +
             std::to_string(m.completed + m.expired + m.failed +
                            m.cancelled + m.shed));

    // Every submit the bench made is one the server accepted or refused.
    const std::uint64_t admitted =
        run.after.metrics.admitted - run.before.metrics.admitted;
    const std::uint64_t rejected =
        run.after.metrics.rejected - run.before.metrics.rejected;
    std::uint64_t accepted = 0;
    for (const Record &rec : run.records)
        accepted += rec.accepted ? 1 : 0;
    if (run.records.size() != admitted + rejected || accepted != admitted)
        fail("submit reconciliation: attempted " +
             std::to_string(run.records.size()) + ", accepted " +
             std::to_string(accepted) + ", server admitted " +
             std::to_string(admitted) + " + rejected " +
             std::to_string(rejected));

    // Warm-started solves publish into the exact tier too, so a hit may
    // carry a warm-started owner's value rather than a cold solve's.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Hash128>>
        warmOwners;
    std::vector<std::size_t> eligible;
    const std::uint64_t latest = served.server->registry().latestVersion();
    for (std::size_t i = 0; i < run.records.size(); i++) {
        const Record &rec = run.records[i];
        if (!rec.accepted)
            continue;
        if (!rec.resolved) {
            fail("request " + std::to_string(rec.request) +
                 " never reached a terminal state");
            g.failedOps++;
            continue;
        }
        const Reply &r = rec.reply;
        if (r.status == RequestStatus::Failed ||
            r.status == RequestStatus::Cancelled) {
            g.failedOps++;
            continue;
        }
        if (r.status != RequestStatus::Ok)
            continue;
        g.shapeChecked++;
        if (!r.outputOk) {
            fail("request " + std::to_string(rec.request) +
                 ": output not finite or wrong shape");
            g.failedOps++;
            continue;
        }
        if (r.modelVersion > latest) {
            fail("request " + std::to_string(rec.request) +
                 " stamped with version " + std::to_string(r.modelVersion) +
                 ", never published");
            g.failedOps++;
            continue;
        }
        if (r.warmStarted && !r.cacheHit)
            warmOwners[{requests[rec.request].inputId, r.modelVersion}]
                .push_back(r.outputDigest);
        if (bitwisePromised(r))
            eligible.push_back(i);
    }

    // Reference forwards, grouped by weight version, for the responses
    // served on a version the bench kept.
    std::map<std::uint64_t, std::shared_ptr<const WeightSnapshot>> kept;
    {
        std::lock_guard<std::mutex> lock(served.versionsMutex);
        kept = served.versions;
        g.versionsPublished = served.versionsPublished;
    }
    g.versionsKept = kept.size();
    g.bitwiseEligible = eligible.size();
    std::erase_if(eligible, [&](std::size_t i) {
        return !kept.contains(run.records[i].reply.modelVersion);
    });
    g.bitwiseOnKeptVersion = eligible.size();
    const std::size_t cap = served.workload->conv ? kMaxReferenceConv
                                                  : kMaxReferenceMlp;
    const std::size_t stride =
        std::max<std::size_t>(1, (eligible.size() + cap - 1) / cap);
    std::map<std::uint64_t, std::vector<std::size_t>> byVersion;
    for (std::size_t k = 0; k < eligible.size(); k += stride)
        byVersion[run.records[eligible[k]].reply.modelVersion].push_back(
            eligible[k]);

    auto reference = makeModel(*served.workload);
    FixedFactorController ctrl;
    const IvpOptions opts = servingIvp();
    const ButcherTableau &tableau = served.server->tableau();
    for (const auto &[version, indices] : byVersion) {
        ModelRegistry::applyTo(*kept.at(version), *reference);
        for (std::size_t i : indices) {
            const Record &rec = run.records[i];
            const Request &q = requests[rec.request];
            const NodeForwardResult ref =
                reference->forward(q.input, tableau, ctrl, opts);
            g.bitwiseChecked++;
            const Reply &r = rec.reply;
            if (ref.status == SolveStatus::Ok &&
                hashTensor(ref.output) == r.outputDigest)
                continue;
            bool ownerMatch = false;
            if (r.cacheHit) {
                auto it = warmOwners.find({q.inputId, version});
                if (it != warmOwners.end())
                    for (const Hash128 &owner : it->second)
                        ownerMatch = ownerMatch || owner == r.outputDigest;
            }
            if (ownerMatch) {
                g.hitsMatchedWarmOwner++;
                continue;
            }
            fail("request " + std::to_string(rec.request) + " (version " +
                 std::to_string(version) +
                 (r.cacheHit ? ", cache hit" : "") + ", batch " +
                 std::to_string(r.batchSize) +
                 ") differs bitwise from NodeModel::forward");
            g.failedOps++;
        }
    }
    return g;
}

} // namespace perfbench

/**
 * @file
 * The serving benchmark: one workload per run, driven against the public
 * InferenceServer / TrainingService API from one load-generator thread
 * (plus the trainer thread on mixed-open) and two server workers.
 *
 *   perfbench --workload <mixed-open|conv-closed>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * --trace 0 measures the end-to-end metrics with tracing off, beside a
 * host-speed probe (host_speed.h); the JSON line restates set-up time,
 * latency and closed-loop throughput at the nominal host speed, so that
 * the drift of a shared host between runs does not read as a change in
 * the program.
 * --trace 1 alternates untraced runs and runs with the span tracer armed
 * (ServerOptions::traceEnabled), takes the runtime, queue, cache,
 * admission and train numbers from the last traced run, reports the
 * throughput ratio between the two kinds as the tracing overhead, and
 * replays the workload's inputs on the bench thread for the core, ode,
 * nn and tensor numbers.
 *
 * Both modes check the outputs and reconcile every request, print a
 * table with units and sample counts, a provenance line, and last a JSON
 * line {"correct", "attempted", "failed", "metrics"}. A failed gate
 * makes the exit code 1.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <string>

#include "bench.h"
#include "common/logging.h"
#include "common/trace_span.h"
#include "harness.h"
#include "host_speed.h"
#include "layer_map.h"

using namespace enode;
using namespace perfbench;

namespace {

/** Set-ups per end-to-end run; setup_s is their median. */
constexpr int kSetups = 9;

/**
 * Mean CPU time of a reference chunk (host_speed.h) on the nominal host:
 * a 4-vCPU KVM guest on an Intel Xeon (Sapphire Rapids) host under its
 * usual neighbours' load. The reported metrics are restated for it.
 */
constexpr double kNominalConvChunkUs = 200.0, kNominalMlpChunkUs = 100.0;

struct Args
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <%s> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why.c_str(), workloadNames().c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        std::size_t used = v.size();
        try {
            if (flag == "--workload") {
                a.workload = findWorkload(v);
                if (!a.workload)
                    usage("unknown workload " + v);
            } else if (flag == "--seed") {
                a.seed = std::stoull(v, &used);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v, &used);
                if (!(a.seconds >= 1.0 && a.seconds <= 60.0))
                    usage("--seconds must be in [1, 60]");
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace must be 0 or 1");
                a.trace = v == "1";
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::exception &) {
            usage("bad number for " + flag);
        }
        if (used != v.size())
            usage("bad number for " + flag);
    }
    if (!a.workload)
        usage("--workload is required");
    return a;
}

/** Resident set of this process and its peak (VmRSS, VmHWM), in MB. */
struct Memory
{
    double rssMb = 0.0;
    double peakMb = 0.0;
};

Memory
readMemory()
{
    Memory m;
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return m;
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
        unsigned long kb = 0;
        if (std::sscanf(line, "VmRSS: %lu kB", &kb) == 1)
            m.rssMb = static_cast<double>(kb) / 1024.0;
        else if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1)
            m.peakMb = static_cast<double>(kb) / 1024.0;
    }
    std::fclose(f);
    return m;
}

/** Restart the peak (VmHWM) from the current resident set; Linux only. */
bool
resetPeak()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

void
printRows(const char *title, const std::vector<Row> &rows)
{
    std::printf("\n%s\n", title);
    std::printf("  %-42s %14s  %-8s %9s  %s\n", "metric", "value", "unit",
                "samples", "note");
    for (const Row &r : rows)
        std::printf("  %-42s %14.6g  %-8s %9zu  %s\n", r.name.c_str(),
                    r.metric.value, r.metric.unit.c_str(), r.samples,
                    r.note.c_str());
}

/** The last stdout line: exactly correct, attempted, failed, metrics. */
void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Row> &rows)
{
    std::string s = "{\"correct\": " + std::string(correct ? "true" : "false");
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < rows.size(); i++)
        s += (i ? ", \"" : "\"") + rows[i].name + "\": {\"value\": " +
             number(rows[i].metric.value) + ", \"unit\": \"" +
             rows[i].metric.unit + "\"}";
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

/** What users of the server saw in one measured run. */
struct Outcome
{
    std::size_t ok = 0, good = 0;
    double okPerSec = 0.0, goodPerSec = 0.0;
    Distribution latency;
    /** latency at the nominal host speed: see outcomeOf. */
    Distribution latencyAtRef;
    Distribution worstStream;
    std::uint32_t worstStreamId = 0;
    std::size_t attempted = 0, notOk = 0;
};

/**
 * Closed loop: responses count when they completed inside the window and
 * latency is the server's admission-to-completion time. Open loop: every
 * request was due inside the window and latency runs from its due time.
 * Latency samples are Ok responses; every other terminal (and every
 * refused submit) counts against ok_ratio instead.
 */
Outcome
outcomeOf(const Workload &w, const std::vector<Request> &requests,
          const RunResult &run, const HostSpeed &host = {})
{
    Outcome o;
    const double endMs = run.seconds * 1e3;
    std::vector<Completion> done;
    std::vector<double> latency, atRef;
    std::map<std::uint32_t, std::vector<double>> byStream;
    o.attempted = run.records.size();
    for (const Record &rec : run.records) {
        const bool ok = rec.accepted && rec.resolved &&
                        rec.reply.status == RequestStatus::Ok;
        o.notOk += ok ? 0 : 1;
        if (!rec.accepted || !rec.resolved)
            continue;
        const Reply &r = rec.reply;
        if (w.load == Load::Closed) {
            done.push_back({rec.submitMs, r.totalMs, ok});
            if (rec.submitMs + r.totalMs > endMs)
                continue;
        }
        if (!ok)
            continue;
        const double ms = w.load == Load::Open
                              ? dueLatencyMs(rec.lateMs, r.totalMs)
                              : r.totalMs;
        latency.push_back(ms);
        // At the nominal host speed: on the closed loop every part of the
        // latency is solving, this request's or those queued ahead of it.
        // On the open loop only the solve is restated; lateness, queue
        // wait (mostly the batch window) and the rest stay wall-clock.
        atRef.push_back(w.load == Load::Open
                            ? ms - r.solveMs + host.atNominalTime(r.solveMs)
                            : host.atNominalTime(ms));
        byStream[requests[rec.request].stream].push_back(ms);
        o.ok++;
        o.good += r.deadlineMet ? 1 : 0;
    }
    o.latency = distributionOf(std::move(latency));
    o.latencyAtRef = distributionOf(std::move(atRef));
    for (auto &[stream, samples] : byStream) {
        Distribution d = distributionOf(std::move(samples));
        if (d.tail >= o.worstStream.tail) {
            o.worstStream = d;
            o.worstStreamId = stream;
        }
    }
    o.okPerSec = w.load == Load::Closed
                     ? tallyWindow(done, 0.0, endMs).okPerSecond()
                     : static_cast<double>(o.ok) / run.seconds;
    o.goodPerSec = w.load == Load::Closed
                       ? o.okPerSec
                       : static_cast<double>(o.good) / run.seconds;
    return o;
}

/** Every end-to-end metric as measured; printed, not in the JSON. */
std::vector<Row>
measuredRows(const Outcome &o, double setupS, std::size_t setups)
{
    const Ratio okRatio{static_cast<double>(o.attempted - o.notOk),
                        static_cast<double>(o.attempted), "Ok responses",
                        "attempted submits"};
    return {
        {"throughput_rps.measured", {o.okPerSec, "1/s"}, o.ok,
         "Ok responses / s"},
        {"goodput_rps", {o.goodPerSec, "1/s"}, o.good,
         "Ok and deadline met / s"},
        {"latency_p50_ms.measured", {o.latency.p50, "ms"}, o.latency.n,
         "Ok only"},
        {"latency_p99_ms", {o.latency.tail, "ms"}, o.latency.n,
         o.latency.tailName + " of the run"},
        {"worst_stream_p99_ms", {o.worstStream.tail, "ms"}, o.worstStream.n,
         "stream " + std::to_string(o.worstStreamId) + ", " +
             o.worstStream.tailName + " of the run"},
        {"ok_ratio", {okRatio.value(), "ratio"}, o.attempted,
         okRatio.describe()},
        {"setup_s.measured", {setupS, "s"}, setups, "median of set-ups"},
    };
}

/**
 * The JSON metrics. Set-up time and median latency are restated at the
 * nominal host speed: on the open loop only the solve in each latency
 * (see outcomeOf), since deadlines, lateness and batch windows are
 * wall-clock. Throughput is restated on the closed loop, where the
 * server's capacity sets it (rate / factor); on the open loop the
 * schedule sets it, so it is reported as measured. The server's memory
 * does not depend on host speed. The tails are printed only: in
 * mixed-open's bursts a few percent of host speed moved p99 by a third or
 * more, so its run-to-run spread is wider than a usable bound.
 */
std::vector<Row>
reportedRows(const Workload &w, const Outcome &o, const HostSpeed &host,
             double setupS, std::size_t setups, double rssMb,
             const std::string &rssNote)
{
    const bool closed = w.load == Load::Closed;
    return {
        {"throughput_rps",
         {closed ? host.atNominalRate(o.okPerSec) : o.okPerSec, "1/s"},
         o.ok,
         closed ? "throughput_rps.measured at nominal host speed"
                : "throughput_rps.measured: open loop, the schedule sets it"},
        {"latency_p50_ms", {o.latencyAtRef.p50, "ms"}, o.latencyAtRef.n,
         closed ? "latency_p50_ms.measured at nominal host speed"
                : "p50 with each solve at nominal host speed"},
        {"peak_rss_mb", {rssMb, "MB"}, 1, rssNote},
        {"setup_s", {host.atNominalTime(setupS), "s"}, setups,
         "setup_s.measured at nominal host speed"},
    };
}

double
median(std::vector<double> v)
{
    return distributionOf(std::move(v)).p50;
}

void
printGates(const char *label, const GateReport &g)
{
    std::printf("gates (%s): %s; bitwise %zu of %zu eligible responses "
                "(%zu of them on the %zu weight versions kept of %llu "
                "published + v0) checked against NodeModel::forward (%zu "
                "exact hits matched their warm-started owner), %zu Ok "
                "outputs checked finite and shaped\n",
                label, g.ok ? "PASS" : "FAIL", g.bitwiseChecked,
                g.bitwiseEligible, g.bitwiseOnKeptVersion, g.versionsKept,
                static_cast<unsigned long long>(g.versionsPublished),
                g.hitsMatchedWarmOwner, g.shapeChecked);
    for (const std::string &f : g.failures)
        std::printf("  gate failure: %s\n", f.c_str());
}

/**
 * The open-loop input mix as generated, and how each class was served.
 * The intended shares (40% hot repeats, 30% near-duplicates, 30% fresh,
 * LoadGen's stiff share of those) are assumptions; this prints what the
 * seed actually produced.
 */
void
printInputMix(const std::vector<Request> &requests, const RunResult &run)
{
    struct Tally
    {
        const char *name;
        std::size_t offered = 0, ok = 0, exactHit = 0, warm = 0;
    };
    Tally t[] = {{"fresh"}, {"stiff"}, {"hot"}, {"near"}};
    for (const Record &rec : run.records) {
        Tally &k = t[static_cast<int>(requests[rec.request].kind)];
        k.offered++;
        const Reply &r = rec.reply;
        if (!rec.resolved || r.status != RequestStatus::Ok)
            continue;
        k.ok++;
        k.exactHit += r.cacheHit ? 1 : 0;
        k.warm += r.warmStarted && !r.cacheHit ? 1 : 0;
    }
    std::printf("\ninput mix (shares of %zu offered; Ok, exact-hit and "
                "warm-started shares of the class):\n",
                run.records.size());
    const auto share = [](std::size_t n, std::size_t of) {
        return of ? static_cast<double>(n) / static_cast<double>(of) : 0.0;
    };
    for (const Tally &k : t)
        std::printf("  %-6s offered %.4f  Ok %.4f  exact hit %.4f  "
                    "warm-started %.4f\n",
                    k.name, share(k.offered, run.records.size()),
                    share(k.ok, k.offered), share(k.exactHit, k.offered),
                    share(k.warm, k.offered));
}

/** A closure check either passes or is reported as a miss. */
struct Closure
{
    std::string name;
    bool pass;
    std::string detail;
};

/** The runtime, queue, cache, admission and train layers of a run. */
std::vector<Row>
runtimeRows(const Workload &w, const std::vector<Request> &requests,
            const RunResult &run, std::vector<Closure> &closures)
{
    std::vector<double> submitUs, late, queue, solve, other, batch;
    std::vector<double> tppWarm, tppCold;
    std::map<std::uint32_t, std::vector<double>> queueByStream;
    std::size_t ok = 0, degraded = 0, solved = 0, split = 0;
    double worstSplitMs = 0.0;
    for (const Record &rec : run.records) {
        submitUs.push_back(rec.submitUs);
        late.push_back(rec.lateMs);
        if (!rec.resolved)
            continue;
        const Reply &r = rec.reply;
        solved += (r.status == RequestStatus::Ok && !r.cacheHit) ||
                          r.status == RequestStatus::Failed
                      ? 1
                      : 0;
        if (r.status != RequestStatus::Ok)
            continue;
        ok++;
        degraded += r.degraded ? 1 : 0;
        // Per response, queue + solve + other == total with other >= 0.
        const double rest = r.totalMs - r.queueWaitMs - r.solveMs;
        if (rest < -1e-6) {
            split++;
            worstSplitMs = std::min(worstSplitMs, rest);
        }
        if (r.cacheHit)
            continue;
        queue.push_back(r.queueWaitMs);
        queueByStream[requests[rec.request].stream].push_back(r.queueWaitMs);
        solve.push_back(r.solveMs);
        other.push_back(rest);
        batch.push_back(static_cast<double>(r.batchSize));
        if (r.evalPoints > 0)
            (r.warmStarted ? tppWarm : tppCold)
                .push_back(static_cast<double>(r.trials) /
                           static_cast<double>(r.evalPoints));
    }
    closures.push_back(
        {"queue + solve + other == total per response", split == 0,
         std::to_string(split) + " of " + std::to_string(ok) +
             " Ok responses had queue + solve > total (worst other " +
             number(worstSplitMs) + " ms)"});

    const Distribution dSubmit = distributionOf(submitUs);
    const Distribution dLate = distributionOf(late);
    const Distribution dQueue = distributionOf(queue);
    const Distribution dSolve = distributionOf(solve);
    Distribution worstQueue;
    for (auto &[stream, v] : queueByStream) {
        Distribution d = distributionOf(std::move(v));
        if (d.tail >= worstQueue.tail)
            worstQueue = d;
    }
    const Distribution dBatch = distributionOf(batch);
    const Distribution dTrain = distributionOf(run.trainStepMs);
    const auto mean = [](const std::vector<double> &v) {
        return distributionOf(v).mean;
    };

    const ServerCounters &a = run.after, &b = run.before;
    const double lookups =
        static_cast<double>((a.exactHits - b.exactHits) +
                            (a.singleFlightWaits - b.singleFlightWaits) +
                            (a.cacheMisses - b.cacheMisses));
    const Ratio exact{static_cast<double>(a.exactHits - b.exactHits),
                      lookups, "exact hits", "exact-tier lookups"};
    const Ratio warm{static_cast<double>(a.warmHits - b.warmHits),
                     static_cast<double>(solved), "warm hits",
                     "solves (one warm lookup each)"};
    const Ratio shed{static_cast<double>(a.sheds - b.sheds),
                     static_cast<double>(a.metrics.admitted -
                                         b.metrics.admitted),
                     "shed", "admitted"};
    const Ratio degradedRatio{static_cast<double>(degraded),
                              static_cast<double>(ok), "degraded", "Ok"};
    double residency[4], totalResidency = 0.0;
    for (int l = 0; l < 4; l++) {
        residency[l] = a.residencyMs[l] - b.residencyMs[l];
        totalResidency += residency[l];
    }
    const auto level = [&](int l) {
        return Ratio{residency[l], totalResidency,
                     "ms at level " + std::to_string(l), "ms observed"};
    };
    const bool trains = w.training;
    const bool admits = w.admission;

    return {
        {"runtime.submit_us.p50", {dSubmit.p50, "us"}, dSubmit.n,
         "timed InferenceServer::submit"},
        {"runtime.submit_us.p99", {dSubmit.tail, "us"}, dSubmit.n,
         dSubmit.tailName},
        {"runtime.queue_wait_ms.p50", {dQueue.p50, "ms"}, dQueue.n,
         "solved Ok responses"},
        {"runtime.queue_wait_ms.p99", {dQueue.tail, "ms"}, dQueue.n,
         dQueue.tailName},
        {"runtime.queue_wait_ms.worst_stream_p99", {worstQueue.tail, "ms"},
         worstQueue.n, worstQueue.tailName + " of the worst stream"},
        {"runtime.solve_ms.p50", {dSolve.p50, "ms"}, dSolve.n, ""},
        {"runtime.solve_ms.p99", {dSolve.tail, "ms"}, dSolve.n,
         dSolve.tailName},
        {"runtime.other_ms.p50", {distributionOf(other).p50, "ms"},
         other.size(), "totalMs - queue wait - solve"},
        {"runtime.batch_size.mean", {dBatch.mean, "count"}, dBatch.n,
         "requests per batched solve, per solved response"},
        {"runtime.coalesce_wait_ms.p50",
         {a.metrics.coalesceWaitP50Ms, "ms"}, a.metrics.batchesDispatched,
         w.maxBatch > 1 ? "MetricsSummary, whole server life"
                        : "absent: maxBatch 1"},
        {"runtime.degraded_ratio", {degradedRatio.value(), "ratio"}, ok,
         degradedRatio.describe()},
        {"queue.peak_depth", {static_cast<double>(run.queuePeak), "count"},
         1, "RequestQueue::peakSize"},
        {"queue.rejected",
         {static_cast<double>(a.metrics.rejected - b.metrics.rejected),
          "count"},
         run.records.size(), "backpressure refusals in the run"},
        {"cache.exact_hit_ratio", {exact.value(), "ratio"},
         static_cast<std::size_t>(lookups),
         w.cache ? exact.describe() : "absent: cache off"},
        {"cache.warm_hit_ratio", {warm.value(), "ratio"}, solved,
         w.cache ? warm.describe() : "absent: cache off"},
        {"cache.single_flight_waits",
         {static_cast<double>(a.singleFlightWaits - b.singleFlightWaits),
          "count"},
         static_cast<std::size_t>(lookups), w.cache ? "" : "absent"},
        {"admission.shed_ratio", {shed.value(), "ratio"},
         static_cast<std::size_t>(shed.den),
         admits ? shed.describe() : "absent: admission off"},
        {"admission.transitions_per_s",
         {static_cast<double>(a.transitions - b.transitions) / run.seconds,
          "1/s"},
         1, admits ? "brownout level changes" : "absent"},
        {"admission.level_residency.L1", {level(1).value(), "ratio"}, 1,
         admits ? level(1).describe() : "absent"},
        {"admission.level_residency.L2", {level(2).value(), "ratio"}, 1,
         admits ? level(2).describe() : "absent"},
        {"admission.level_residency.L3", {level(3).value(), "ratio"}, 1,
         admits ? level(3).describe() : "absent"},
        {"train.step_ms.p50", {dTrain.p50, "ms"}, dTrain.n,
         trains ? "timed TrainingService::step" : "absent: no training"},
        {"train.step_ms.p99", {dTrain.tail, "ms"}, dTrain.n,
         trains ? dTrain.tailName : "absent"},
        {"train.task_failures",
         {static_cast<double>(run.trainTaskFailures), "count"}, dTrain.n,
         trains ? "" : "absent"},
        {"train.steps_per_s",
         {static_cast<double>(run.trainSteps) / run.seconds, "1/s"},
         run.trainSteps, trains ? "steps finished inside the window"
                                : "absent"},
        {"ode.trials_per_point.warm", {mean(tppWarm), "count"},
         tppWarm.size(), "mean trials / eval point, warm-started solves"},
        {"ode.trials_per_point.cold", {mean(tppCold), "count"},
         tppCold.size(), "mean trials / eval point, cold solves"},
        {"loadgen.late_ms.p99", {dLate.tail, "ms"}, dLate.n,
         w.load == Load::Open ? dLate.tailName : "absent: closed loop"},
        {"loadgen.late_ms.max", {dLate.max, "ms"}, dLate.n,
         w.load == Load::Open ? "" : "absent: closed loop"},
    };
}

/** --trace 0: set up kSetups times, measure once, check, report. */
int
runEndToEnd(const Args &args)
{
    const Workload &w = *args.workload;
    const std::vector<Request> requests =
        makeRequests(w, args.seed, args.seconds);
    RunResult run = prepareRun(w, requests, args.seconds);

    // peak_rss_mb is the server's part: the peak from set-up on, less
    // what the bench already holds here (its inputs and run records).
    malloc_trim(0);
    const Memory base = readMemory();
    const bool peakReset = resetPeak();

    // The probe times the host from the first set-up to the end of the
    // run, on a thread of its own beside the server and the generator.
    const bool conv = w.conv;
    HostSpeedProbe probe(conv ? ReferenceKind::Conv : ReferenceKind::Mlp);
    std::vector<double> setupS;
    std::unique_ptr<Served> served;
    for (int i = 0; i < kSetups; i++) {
        served.reset();
        const auto t0 = std::chrono::steady_clock::now();
        served = setUp(w, args.seed, false);
        setupS.push_back(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }

    runLoad(*served, requests, run);
    probe.stop();
    const Memory after = readMemory();
    const GateReport gates = verifyRun(*served, requests, run);
    if (run.stalled)
        (void)served.release(); // its stuck worker would block teardown
    const Distribution chunks = distributionOf(probe.chunkUs());
    const HostSpeed host{conv ? kNominalConvChunkUs : kNominalMlpChunkUs,
                         chunks.mean};
    const Outcome o = outcomeOf(w, requests, run, host);
    const std::string rssNote =
        "VmHWM " + number(after.peakMb) + " - VmRSS before set-up " +
        number(base.rssMb) +
        (peakReset ? "" : "; peak not reset, includes input generation");
    const double setupMedian = median(setupS);
    const std::vector<Row> rows =
        reportedRows(w, o, host, setupMedian, setupS.size(),
                     after.peakMb - base.rssMb, rssNote);

    std::printf("perfbench %s: seed %llu, %.1f s window, end-to-end "
                "(tracing off)\n",
                w.name, static_cast<unsigned long long>(args.seed),
                args.seconds);
    printRows("end-to-end metrics as measured",
              measuredRows(o, setupMedian, setupS.size()));
    std::printf("\nhost factor %.4f = %g us nominal / %.4f us mean CPU "
                "time of %zu %s reference chunks (median %.4f us), timed "
                "every %lld ms from set-up to the end of the run\n",
                host.factor(), host.nominalUs, chunks.mean, chunks.n,
                conv ? "conv" : "MLP", chunks.p50,
                static_cast<long long>(HostSpeedProbe::kPeriod.count()));
    printRows("reported metrics (the JSON line)", rows);
    std::printf("\nfailed_ratio = %s\n",
                Ratio{static_cast<double>(o.notOk),
                      static_cast<double>(o.attempted),
                      "non-Ok terminals and refusals", "attempted submits"}
                    .describe()
                    .c_str());
    if (w.training)
        std::printf("train_steps_per_s = %.4f (%llu steps in the window)\n",
                    static_cast<double>(run.trainSteps) / args.seconds,
                    static_cast<unsigned long long>(run.trainSteps));
    if (w.load == Load::Open)
        printInputMix(requests, run);
    printGates("end-to-end run", gates);
    std::printf("%s\n", provenanceJson(w, args.seed, args.seconds, false)
                            .c_str());
    printResult(gates.ok, run.records.size(), gates.failedOps, rows);
    return gates.ok ? 0 : 1;
}

/** Measure one configuration for --trace 1 and check it. */
struct Phase
{
    RunResult run;
    GateReport gates;
    Outcome outcome;
};

Phase
measure(const Workload &w, const std::vector<Request> &requests,
        std::uint64_t seed, double seconds, bool trace)
{
    auto served = setUp(w, seed, trace);
    Phase p;
    p.run = prepareRun(w, requests, seconds);
    runLoad(*served, requests, p.run);
    p.gates = verifyRun(*served, requests, p.run);
    p.outcome = outcomeOf(w, requests, p.run);
    if (p.run.stalled)
        (void)served.release(); // its stuck worker would block teardown
    return p;
}

/**
 * --trace 1: untraced and traced runs alternate (U T U T, a quarter of
 * --seconds each, so drift in machine speed hits both sides alike), then
 * the layer replay. Runtime-side layer numbers come from the last traced
 * run; every run is gated.
 */
int
runTraced(const Args &args)
{
    const Workload &w = *args.workload;
    const double window = args.seconds / 4.0;
    const std::vector<Request> requests =
        makeRequests(w, args.seed, window);

    std::vector<Phase> phases;
    for (int i = 0; i < 4; i++)
        phases.push_back(measure(w, requests, args.seed, window, i % 2 == 1));
    const Phase &traced = phases.back();
    const std::size_t traceEvents = Tracer::instance().snapshot().size();
    const std::uint64_t traceDropped = Tracer::instance().dropped();

    std::vector<Closure> closures;
    std::vector<Row> rows = runtimeRows(w, requests, traced.run, closures);
    const ReplayResult replay = replayLayers(w, requests, args.seconds / 2.0);

    const Ratio overhead{
        phases[1].outcome.okPerSec + phases[3].outcome.okPerSec,
        phases[0].outcome.okPerSec + phases[2].outcome.okPerSec,
        "Ok/s traced (2 runs)", "Ok/s untraced (2 runs)"};
    const Ratio odeVsCore{replay.odeMsPerReqP50, replay.forwardMsP50,
                          "ms solveIvp per request p50",
                          "ms NodeModel::forward p50"};
    closures.push_back({"ode f-time + self-time accounts for "
                        "core.forward_ms",
                        odeVsCore.value() >= 0.9 && odeVsCore.value() <= 1.1,
                        odeVsCore.describe() + " (pass: 0.9..1.1)"});
    closures.push_back({"nn.layer_closure >= 0.9",
                        replay.layerClosure >= 0.9,
                        "layer_closure " + number(replay.layerClosure)});
    std::size_t misses = 0;
    for (const Closure &c : closures)
        misses += c.pass ? 0 : 1;

    rows.insert(rows.end(), replay.rows.begin(), replay.rows.end());
    rows.push_back({"trace.overhead_ratio", {overhead.value(), "ratio"}, 4,
                    overhead.describe()});
    rows.push_back({"closure.misses",
                    {static_cast<double>(misses), "count"}, closures.size(),
                    "closure checks that missed"});

    std::printf("perfbench %s: seed %llu, traced run (4 alternating %.1f s "
                "runs, untraced first, then the layer replay)\n",
                w.name, static_cast<unsigned long long>(args.seed), window);
    printRows("per-layer metrics", rows);
    std::printf("\nwhat each layer metric should move:\n");
    for (const Row &r : rows)
        std::printf("  %-42s %s\n", r.name.c_str(),
                    std::string(layerMoves(r.name)).c_str());
    std::printf("\nOk/s of the runs in order (untraced, traced, untraced, "
                "traced): %s, %s, %s, %s\n",
                number(phases[0].outcome.okPerSec).c_str(),
                number(phases[1].outcome.okPerSec).c_str(),
                number(phases[2].outcome.okPerSec).c_str(),
                number(phases[3].outcome.okPerSec).c_str());
    std::printf("tracer: %zu span events kept, %llu dropped\n",
                traceEvents, static_cast<unsigned long long>(traceDropped));
    for (const std::string &n : replay.notes)
        std::printf("%s\n", n.c_str());
    for (const Row &r : rows)
        if (r.name == "runtime.solve_ms.p50")
            std::printf("core.forward_ms.p50 %.4f vs runtime.solve_ms.p50 "
                        "%.4f (expected to match on closed loops)\n",
                        replay.forwardMsP50, r.metric.value);
    for (const Closure &c : closures)
        std::printf("closure %s: %s (%s)\n", c.pass ? "PASS" : "MISS",
                    c.name.c_str(), c.detail.c_str());
    bool ok = true;
    std::size_t attempted = 0, failed = 0;
    for (std::size_t i = 0; i < phases.size(); i++) {
        printGates(i % 2 ? "traced run" : "untraced run", phases[i].gates);
        ok = ok && phases[i].gates.ok;
        attempted += phases[i].run.records.size();
        failed += phases[i].gates.failedOps;
    }
    std::printf("%s\n",
                provenanceJson(w, args.seed, args.seconds, true).c_str());
    printResult(ok, attempted, failed, rows);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Brownout transitions log warnings; they would flood the output.
    setLogLevel(LogLevel::Silent);
    const Args args = parseArgs(argc, argv);
    const int code = args.trace ? runTraced(args) : runEndToEnd(args);
    // A stalled request leaves a worker busy; do not wait on teardown.
    std::fflush(stdout);
    std::_Exit(code);
}

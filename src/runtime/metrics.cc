#include "runtime/metrics.h"

#include "common/logging.h"

namespace enode {

void
MetricsRegistry::recordAdmitted()
{
    std::lock_guard<std::mutex> lock(mutex_);
    admitted_++;
}

void
MetricsRegistry::recordRejected()
{
    std::lock_guard<std::mutex> lock(mutex_);
    rejected_++;
}

void
MetricsRegistry::recordWatchdogTrip()
{
    std::lock_guard<std::mutex> lock(mutex_);
    watchdogTrips_++;
}

void
MetricsRegistry::recordBatchDispatch(std::size_t size)
{
    ENODE_ASSERT(size >= 1, "a dispatched batch carries >= 1 request");
    std::lock_guard<std::mutex> lock(mutex_);
    batchesDispatched_++;
    batchedRequests_ += size;
    batchSize_.add(static_cast<double>(size));
}

void
MetricsRegistry::recordCoalesceWait(double ms, bool windowSkipped)
{
    std::lock_guard<std::mutex> lock(mutex_);
    coalesceWaitMs_.add(ms);
    if (windowSkipped)
        windowsSkipped_++;
}

void
MetricsRegistry::recordPartialFailure()
{
    std::lock_guard<std::mutex> lock(mutex_);
    partialFailures_++;
}

void
MetricsRegistry::countFailureClassLocked(SolveStatus status)
{
    switch (status) {
      case SolveStatus::Ok:
        return;
      case SolveStatus::NonFinite:
        solveNonFinite_++;
        return;
      case SolveStatus::StepUnderflow:
        solveStepUnderflow_++;
        return;
      case SolveStatus::TrialBudgetExhausted:
        solveTrialBudget_++;
        return;
      case SolveStatus::EvalBudgetExhausted:
        solveEvalBudget_++;
        return;
      case SolveStatus::DeadlineExceeded:
        solveDeadline_++;
        return;
    }
    ENODE_PANIC("unknown SolveStatus");
}

void
MetricsRegistry::recordCompletion(const InferResponse &response)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!response.deadlineMet)
        deadlineMisses_++;
    retries_ += response.retries;
    switch (response.status) {
      case RequestStatus::Ok:
        completed_++;
        if (response.brownoutRelaxed)
            brownoutRelaxed_++;
        queueWaitMs_.add(response.queueWaitMs);
        solveMs_.add(response.solveMs);
        totalMs_.add(response.totalMs);
        if (response.cacheHit) {
            // No solver work behind this response; feeding its zero
            // stats into the solver series would make cache hits look
            // like impossibly cheap solves.
            cacheHits_++;
        } else {
            fEvals_.add(static_cast<double>(response.stats.fEvals));
            trials_.add(static_cast<double>(response.stats.trials));
            if (response.warmStarted)
                warmStarted_++;
            if (response.stats.evalPoints > 0) {
                const double tpp =
                    static_cast<double>(response.stats.trials) /
                    static_cast<double>(response.stats.evalPoints);
                (response.warmStarted ? trialsPerPointWarm_
                                      : trialsPerPointCold_)
                    .add(tpp);
            }
        }
        if (response.degraded) {
            degraded_++;
            degradedMs_.add(response.totalMs);
            countFailureClassLocked(response.solveStatus);
        }
        return;
      case RequestStatus::DeadlineExceeded:
        expired_++;
        return;
      case RequestStatus::Failed:
        failed_++;
        countFailureClassLocked(response.solveStatus);
        return;
      case RequestStatus::Cancelled:
        // Shutdown routes each undrained request here exactly once;
        // this is the only place cancellations are counted.
        cancelled_++;
        return;
      case RequestStatus::Shed:
        // Refused at submit by admission control: counted admitted (a
        // decision was taken), terminal here, never queued or solved.
        shed_++;
        return;
    }
    ENODE_PANIC("unknown RequestStatus");
}

MetricsSummary
MetricsRegistry::summary() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSummary s;
    s.admitted = admitted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.cancelled = cancelled_;
    s.deadlineMisses = deadlineMisses_;
    s.expired = expired_;
    s.failed = failed_;
    s.shed = shed_;
    s.brownoutRelaxed = brownoutRelaxed_;
    s.degraded = degraded_;
    s.retries = retries_;
    s.watchdogTrips = watchdogTrips_;
    s.solveNonFinite = solveNonFinite_;
    s.solveStepUnderflow = solveStepUnderflow_;
    s.solveTrialBudget = solveTrialBudget_;
    s.solveEvalBudget = solveEvalBudget_;
    s.solveDeadline = solveDeadline_;
    s.queueWaitP50Ms = queueWaitMs_.percentile(50.0);
    s.queueWaitP95Ms = queueWaitMs_.percentile(95.0);
    s.queueWaitP99Ms = queueWaitMs_.percentile(99.0);
    s.solveP50Ms = solveMs_.percentile(50.0);
    s.solveP95Ms = solveMs_.percentile(95.0);
    s.solveP99Ms = solveMs_.percentile(99.0);
    s.totalP50Ms = totalMs_.percentile(50.0);
    s.totalP95Ms = totalMs_.percentile(95.0);
    s.totalP99Ms = totalMs_.percentile(99.0);
    s.totalMaxMs = totalMs_.max();
    s.degradedP50Ms = degradedMs_.percentile(50.0);
    s.degradedP95Ms = degradedMs_.percentile(95.0);
    s.degradedP99Ms = degradedMs_.percentile(99.0);
    s.meanFEvals = fEvals_.mean();
    s.meanTrials = trials_.mean();
    s.cacheHits = cacheHits_;
    s.warmStarted = warmStarted_;
    s.trialsPerPointWarm = trialsPerPointWarm_.mean();
    s.trialsPerPointCold = trialsPerPointCold_.mean();
    s.batchesDispatched = batchesDispatched_;
    s.batchedRequests = batchedRequests_;
    s.partialFailures = partialFailures_;
    s.windowsSkipped = windowsSkipped_;
    s.batchOccupancyMean =
        batchesDispatched_ ? static_cast<double>(batchedRequests_) /
                                 static_cast<double>(batchesDispatched_)
                           : 0.0;
    s.coalesceWaitP50Ms = coalesceWaitMs_.percentile(50.0);
    s.coalesceWaitP95Ms = coalesceWaitMs_.percentile(95.0);
    s.coalesceWaitP99Ms = coalesceWaitMs_.percentile(99.0);
    s.batchSizeCounts.resize(batchSize_.bins());
    for (std::size_t i = 0; i < batchSize_.bins(); i++)
        s.batchSizeCounts[i] = batchSize_.binCount(i);
    return s;
}

StatGroup
MetricsRegistry::snapshot(const std::string &group_name) const
{
    const MetricsSummary s = summary();
    StatGroup group(group_name);
    group.set("requests.admitted", static_cast<double>(s.admitted));
    group.set("requests.rejected", static_cast<double>(s.rejected));
    group.set("requests.completed", static_cast<double>(s.completed));
    group.set("requests.cancelled", static_cast<double>(s.cancelled));
    group.set("requests.expired", static_cast<double>(s.expired));
    group.set("requests.failed", static_cast<double>(s.failed));
    group.set("requests.shed", static_cast<double>(s.shed));
    group.set("requests.brownout_relaxed",
              static_cast<double>(s.brownoutRelaxed));
    group.set("requests.deadline_misses",
              static_cast<double>(s.deadlineMisses));
    group.set("solve.non_finite", static_cast<double>(s.solveNonFinite));
    group.set("solve.step_underflow",
              static_cast<double>(s.solveStepUnderflow));
    group.set("solve.trial_budget",
              static_cast<double>(s.solveTrialBudget));
    group.set("solve.eval_budget", static_cast<double>(s.solveEvalBudget));
    group.set("solve.deadline_exceeded",
              static_cast<double>(s.solveDeadline));
    group.set("solve.degraded", static_cast<double>(s.degraded));
    group.set("solve.retries", static_cast<double>(s.retries));
    group.set("watchdog.trips", static_cast<double>(s.watchdogTrips));
    group.set("latency.queue_wait.p50_ms", s.queueWaitP50Ms);
    group.set("latency.queue_wait.p95_ms", s.queueWaitP95Ms);
    group.set("latency.queue_wait.p99_ms", s.queueWaitP99Ms);
    group.set("latency.solve.p50_ms", s.solveP50Ms);
    group.set("latency.solve.p95_ms", s.solveP95Ms);
    group.set("latency.solve.p99_ms", s.solveP99Ms);
    group.set("latency.total.p50_ms", s.totalP50Ms);
    group.set("latency.total.p95_ms", s.totalP95Ms);
    group.set("latency.total.p99_ms", s.totalP99Ms);
    group.set("latency.total.max_ms", s.totalMaxMs);
    group.set("latency.degraded.p50_ms", s.degradedP50Ms);
    group.set("latency.degraded.p95_ms", s.degradedP95Ms);
    group.set("latency.degraded.p99_ms", s.degradedP99Ms);
    group.set("solver.mean_f_evals", s.meanFEvals);
    group.set("solver.mean_trials", s.meanTrials);
    group.set("requests.cache_hits", static_cast<double>(s.cacheHits));
    group.set("requests.warm_started", static_cast<double>(s.warmStarted));
    group.set("solver.trials_per_point.warm_mean", s.trialsPerPointWarm);
    group.set("solver.trials_per_point.cold_mean", s.trialsPerPointCold);
    group.set("batch.dispatched", static_cast<double>(s.batchesDispatched));
    group.set("batch.requests", static_cast<double>(s.batchedRequests));
    group.set("batch.partial_failure",
              static_cast<double>(s.partialFailures));
    group.set("batch.window_skipped", static_cast<double>(s.windowsSkipped));
    group.set("batch.occupancy_mean", s.batchOccupancyMean);
    group.set("batch.wait.p50_ms", s.coalesceWaitP50Ms);
    group.set("batch.wait.p95_ms", s.coalesceWaitP95Ms);
    group.set("batch.wait.p99_ms", s.coalesceWaitP99Ms);
    // Only populated bins, so a batch-of-1 server does not dump 32 zero
    // rows into every snapshot.
    for (std::size_t i = 0; i < s.batchSizeCounts.size(); i++)
        if (s.batchSizeCounts[i] > 0)
            group.set("batch.size.bin_" + std::to_string(i + 1),
                      static_cast<double>(s.batchSizeCounts[i]));
    return group;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    admitted_ = 0;
    rejected_ = 0;
    completed_ = 0;
    cancelled_ = 0;
    deadlineMisses_ = 0;
    expired_ = 0;
    failed_ = 0;
    shed_ = 0;
    brownoutRelaxed_ = 0;
    degraded_ = 0;
    retries_ = 0;
    watchdogTrips_ = 0;
    solveNonFinite_ = 0;
    solveStepUnderflow_ = 0;
    solveTrialBudget_ = 0;
    solveEvalBudget_ = 0;
    solveDeadline_ = 0;
    batchesDispatched_ = 0;
    batchedRequests_ = 0;
    partialFailures_ = 0;
    windowsSkipped_ = 0;
    queueWaitMs_.reset();
    solveMs_.reset();
    totalMs_.reset();
    degradedMs_.reset();
    fEvals_.reset();
    trials_.reset();
    coalesceWaitMs_.reset();
    cacheHits_ = 0;
    warmStarted_ = 0;
    trialsPerPointWarm_.reset();
    trialsPerPointCold_.reset();
    batchSize_.reset();
}

} // namespace enode

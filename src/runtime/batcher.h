#ifndef ENODE_RUNTIME_BATCHER_H
#define ENODE_RUNTIME_BATCHER_H

/**
 * @file
 * Dynamic micro-batching collector.
 *
 * Sits between the RequestQueue and the worker pool: a worker asks the
 * batcher for its next unit of work and receives a *batch* of
 * compatible requests instead of a single entry. The batcher pops a
 * seed request, then takes every compatible request until the batch is
 * full, the supply ends, or an incompatible request shows up (which is
 * requeued under its original admission order, so it seeds the next
 * batch of whichever collector pops it first — an idle peer at once —
 * and is never reordered behind later arrivals of its own class).
 *
 * The batcher is work-conserving: where the supply ends depends on
 * whether another collector is parked in the blocking seed pop. If one
 * is, the batch takes only what is already queued and ships — a new
 * arrival is served sooner by the idle peer than by a batch that waits
 * for it. Only when no peer is parked (every other worker solving, in
 * its own window, or training; or a single worker) does the batch hold
 * a collect window open for at most maxWaitUs to wait for company.
 *
 * Compatibility means the requests can share one batched solve:
 * identical input shape. Model and solver options are server-wide, so
 * shape is the only per-request axis; the predicate is centralized in
 * compatible() should that change.
 *
 * Deadline hygiene: the solo path fails requests whose deadline lapsed
 * while queued. The batcher applies the same screen at every pop *and*
 * once more when the window closes, so a request that expired while
 * the batch waited for company is failed (counted `expired`), never
 * solved. Expired entries ride back in CollectedBatch::expired — and
 * the seed hunt never *blocks* while holding them: once anything has
 * been diverted, an empty queue ships the casualties immediately
 * rather than delaying their terminal responses until the next
 * arrival (or shutdown).
 */

#include <atomic>
#include <vector>

#include "runtime/admission.h"
#include "runtime/request_queue.h"
#include "runtime/solve_cache.h"

namespace enode {

/** What one collect() returns: a coherent batch plus its casualties. */
struct CollectedBatch
{
    /** Compatible, unexpired requests; solve these together. */
    std::vector<QueueEntry> entries;
    /** Requests whose deadline lapsed at pop or during the window. */
    std::vector<QueueEntry> expired;
    /**
     * Requests whose exact-cache entry became ready while they queued
     * (screened at pop against the solve cache). They never consume a
     * batch slot or seed a window; the worker answers each from the
     * cache — re-checking at dispatch, since the entry may have been
     * evicted between the screen and the answer.
     */
    std::vector<QueueEntry> cacheHits;
    /** When the seed request was popped (start of the window). */
    RuntimeClock::time_point firstPop{};
    /** Window duration: seed pop to window close. 0 for maxBatch 1. */
    double collectWaitMs = 0.0;
    /** True when the window was skipped because a peer collector was
     *  parked: the batch holds only what was already queued. */
    bool windowSkipped = false;
};

/**
 * Thread-safe batch collector over a RequestQueue.
 *
 * Multiple workers call collect() concurrently; each gets its own
 * batch. The only shared state besides the queue is the count of
 * parked collectors: an incompatible request that closes a window goes
 * back into the queue (RequestQueue::requeue), so the batcher holds no
 * entries of its own between collects. With maxBatch 1 the collector
 * degenerates to a plain pop with the deadline screen applied.
 */
class Batcher
{
  public:
    /**
     * @param queue Source of requests (owned by the server).
     * @param maxBatch Upper bound on entries per batch (>= 1).
     * @param maxWaitUs Collect-window budget in microseconds; how long
     *        a seeded batch may wait for company when no peer collector
     *        is parked. Only meaningful when maxBatch > 1.
     * @param cache Optional solve cache: keyed requests whose exact
     *        entry is ready at pop are diverted to
     *        CollectedBatch::cacheHits instead of occupying the batch.
     * @param admission Optional overload controller: at brownout level
     *        >= 2 the collect window is scaled down (latency drains
     *        ahead of coalescing efficiency under load). Consulted once
     *        per window open.
     */
    Batcher(RequestQueue &queue, std::size_t maxBatch, double maxWaitUs,
            SolveCache *cache = nullptr,
            const AdmissionController *admission = nullptr);

    /**
     * Block for the next batch.
     * @return false when the queue is closed and drained — the worker
     *         should exit. When true, entries,
     *         expired and/or cacheHits hold at least one request.
     */
    bool collect(CollectedBatch &out);

    std::size_t maxBatch() const { return maxBatch_; }
    double maxWaitUs() const { return maxWaitUs_; }
    /** Collectors currently blocked in the seed pop. */
    std::size_t parkedCollectors() const
    {
        return parked_.load(std::memory_order_relaxed);
    }

  private:
    /** True when a and b may share one batched solve. */
    static bool compatible(const QueueEntry &a, const QueueEntry &b);

    /** True when the entry should be answered from the exact cache. */
    bool cacheReady(const QueueEntry &entry) const;

    RequestQueue &queue_;
    const std::size_t maxBatch_;
    const double maxWaitUs_;
    SolveCache *const cache_;
    const AdmissionController *const admission_;

    /** Collectors inside the blocking seed pop (idle workers). */
    std::atomic<std::size_t> parked_{0};
};

} // namespace enode

#endif // ENODE_RUNTIME_BATCHER_H

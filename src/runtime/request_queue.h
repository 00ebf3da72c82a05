#ifndef ENODE_RUNTIME_REQUEST_QUEUE_H
#define ENODE_RUNTIME_REQUEST_QUEUE_H

/**
 * @file
 * Bounded MPMC priority queue for inference requests.
 *
 * Admission is non-blocking: when the queue is at capacity tryPush
 * rejects immediately and the caller reports backpressure to the
 * client — the producer is never parked indefinitely, matching the
 * hardware selector's reject-on-full state buffers. Consumers block in
 * pop until work arrives or the queue is closed.
 *
 * Ordering reuses the sim's SelectPolicy so software serving and the
 * hardware model agree on what priority means:
 *  - LaterStreamFirst: highest stream tag first (the paper's rule),
 *    tighter deadline breaking ties, then admission order.
 *  - Fifo: strict admission order.
 */

#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <vector>

#include "runtime/request.h"
#include "sim/priority_selector.h"

namespace enode {

/** A queued request plus its completion channel and admission record. */
struct QueueEntry
{
    InferRequest request;
    std::promise<InferResponse> promise;
    RuntimeClock::time_point enqueueTime;
    std::uint64_t seq = 0; ///< admission order, assigned by the queue
};

/** Outcome of a bounded-wait pop (see RequestQueue::popUntil). */
enum class PopStatus
{
    Ok,       ///< an entry was dequeued
    TimedOut, ///< deadline passed with the queue still open and empty
    Closed,   ///< queue closed and fully drained
};

/** Bounded multi-producer multi-consumer priority queue. */
class RequestQueue
{
  public:
    /**
     * @param capacity Maximum queued (undisbatched) requests.
     * @param policy Dispatch order (shared with the hardware sim).
     */
    RequestQueue(std::size_t capacity, SelectPolicy policy);

    /**
     * Offer an entry. Never blocks.
     * @return false when the queue is full or closed; the entry is left
     *         untouched so the caller can fail it appropriately.
     */
    bool tryPush(QueueEntry &entry);

    /**
     * Take the highest-priority entry, blocking while the queue is open
     * and empty.
     * @return false when the queue is closed and fully drained.
     */
    bool pop(QueueEntry &out);

    /**
     * Like pop, but give up at `deadline`: the batching collector uses
     * this to bound how long an open batch waits for company. Returns
     * Ok with an entry, TimedOut when the deadline passed on an open
     * empty queue, or Closed once the queue is closed and drained.
     * A deadline already passed never waits: an empty open queue
     * returns TimedOut at once.
     */
    PopStatus popUntil(QueueEntry &out, RuntimeClock::time_point deadline);

    /**
     * Put back an entry popped from this queue that the consumer could
     * not use (the batcher's window-closing incompatible arrival). It
     * keeps its original seq, so dispatch order is as if it had never
     * left; it was already admitted, so neither capacity nor closure
     * turns it away (pop still delivers after close). Wakes one
     * waiting consumer.
     */
    void requeue(QueueEntry &&entry);

    /**
     * Close the queue: all further pushes fail and blocked consumers
     * wake. With drain=true queued entries stay poppable; with
     * drain=false they are removed and returned so the caller can
     * cancel them.
     */
    std::vector<QueueEntry> close(bool drain);

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    SelectPolicy policy() const { return policy_; }
    bool closed() const;

    /** Producers turned away by a full queue since construction. */
    std::uint64_t rejected() const;
    /** Producers turned away because the queue was closed. Kept apart
     *  from rejected(): backpressure is a capacity signal, a closed
     *  queue is lifecycle — conflating them (or dropping the count, as
     *  an earlier version did) breaks counter reconciliation. */
    std::uint64_t closedRejected() const;
    /** Peak queue occupancy since construction. */
    std::size_t peakSize() const;

  private:
    /** Heap order: true when a dispatches *after* b. */
    bool dispatchesAfter(const QueueEntry &a, const QueueEntry &b) const;
    /** Heap insert and remove-first; the caller holds mutex_. */
    void pushLocked(QueueEntry &&entry);
    void popLocked(QueueEntry &out);

    const std::size_t capacity_;
    const SelectPolicy policy_;

    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::vector<QueueEntry> heap_; ///< max-heap under dispatchesAfter
    bool closed_ = false;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t closedRejected_ = 0;
    std::size_t peakSize_ = 0;
};

} // namespace enode

#endif // ENODE_RUNTIME_REQUEST_QUEUE_H

#ifndef ENODE_COMMON_TRACE_SPAN_H
#define ENODE_COMMON_TRACE_SPAN_H

/**
 * @file
 * Low-overhead span tracing with Chrome trace-event export.
 *
 * The runtime's time-resolved claims (solver trial dynamics, pipeline
 * wavefronts, the serving degradation ladder) are *traces*, not end-of-
 * request summaries. This module records them: hot paths open RAII
 * TraceSpans that land as {name, category, tid, start_ns, dur_ns, args}
 * events in per-thread ring buffers, and the process-wide Tracer
 * stitches the rings on demand into a Chrome trace-event JSON that
 * chrome://tracing and Perfetto load directly.
 *
 * Overhead discipline (same as fault_injection.h): the tracer is
 * compiled in always, and when *disarmed* every probe is a single
 * relaxed atomic load — no allocation, no branch on shared state, no
 * clock read. When armed, recording is one clock read plus a copy into
 * a preallocated thread-local ring under an almost-always-uncontended
 * per-ring mutex (contended only while a snapshot stitches). Rings
 * drop the *oldest* events on overflow, so the newest window of
 * activity is always retained.
 *
 * Event strings (name / category / arg keys) must be string literals
 * or otherwise outlive the tracer arming: events store the pointers,
 * never copies, to keep recording allocation-free.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace enode {

/** Maximum key/value pairs attached to one event. */
constexpr std::size_t kMaxTraceArgs = 4;

/** One named numeric event argument (key must outlive the arming). */
struct TraceArg
{
    const char *key;
    double value;
};

/** One recorded span or instant event. */
struct TraceEvent
{
    const char *name = nullptr;     ///< static string, e.g. "solve.trial"
    const char *category = nullptr; ///< static string, e.g. "solver"
    std::uint32_t tid = 0;          ///< tracer-assigned thread id
    std::int64_t startNs = 0;       ///< relative to the arm() epoch
    std::int64_t durNs = 0;         ///< span duration; < 0 = instant event
    std::uint32_t numArgs = 0;
    TraceArg args[kMaxTraceArgs] = {};

    bool instant() const { return durNs < 0; }
};

/**
 * Process-wide span tracer. arm() starts a recording generation with
 * freshly sized rings; disarm() stops recording but keeps the events,
 * so a server can disarm at shutdown and still export the trace.
 * Thread-safe throughout: recording threads touch only their own ring
 * (plus one registration under the tracer mutex per thread per
 * generation), and snapshot/export take each ring's mutex in turn.
 */
class Tracer
{
  public:
    /** Default per-thread ring capacity (events). */
    static constexpr std::size_t kDefaultRingCapacity = 1 << 13;

    static Tracer &instance();

    /** Start a recording generation; previous events are discarded. */
    void arm(std::size_t ring_capacity = kDefaultRingCapacity);

    /** Stop recording; recorded events stay available for export. */
    void disarm();

    /** The disarmed fast path: one relaxed atomic load. */
    bool
    armed() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /** Nanoseconds since the current generation's arm() call. */
    std::int64_t nowNs() const;

    /** Convert a steady_clock time point to tracer-epoch nanoseconds. */
    std::int64_t toNs(std::chrono::steady_clock::time_point tp) const;

    /**
     * Record one event into the calling thread's ring (drops it when
     * the tracer was never armed for this thread). tid is assigned by
     * the tracer; the caller fills everything else.
     */
    void record(const TraceEvent &event);

    /** Record an instant event (a point in time, e.g. a watchdog trip). */
    void instant(const char *name, const char *category,
                 std::initializer_list<TraceArg> args = {});

    /**
     * Name the calling thread in exported traces ("worker-0", ...).
     * Sticky: applies to the current ring and to any ring the thread
     * registers in later generations. While armed it registers the
     * thread's ring, so the name is exported even if the thread never
     * records an event.
     */
    void setThreadName(const std::string &name);

    /** All recorded events, stitched across threads, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Events overwritten by ring wraparound in this generation. */
    std::uint64_t dropped() const;

    /** Rings registered in this generation (= threads that recorded or
     *  were named while armed). */
    std::size_t threadCount() const;

    /**
     * Write the Chrome trace-event JSON ("traceEvents" array of "X"
     * complete and "i" instant events plus thread-name metadata).
     * Load the file in chrome://tracing or https://ui.perfetto.dev.
     */
    void exportChromeTrace(std::ostream &os) const;

    /** exportChromeTrace into a string. */
    std::string chromeTraceJson() const;

  private:
    struct Ring
    {
        explicit Ring(std::size_t capacity, std::uint32_t tid_,
                      std::string name_)
            : events(capacity), tid(tid_), name(std::move(name_))
        {
        }

        mutable std::mutex mutex;
        std::vector<TraceEvent> events; ///< fixed-capacity ring storage
        std::uint64_t head = 0;         ///< total events ever written
        std::uint32_t tid;
        std::string name; ///< exported thread name (may be empty)
    };

    Tracer() = default;

    /** The calling thread's ring for this generation (null if none). */
    Ring *localRing();

    std::atomic<bool> armed_{false};
    /** Epoch of the current generation, ns since steady_clock epoch. */
    std::atomic<std::int64_t> epochNs_{0};

    mutable std::mutex mutex_; ///< guards rings_ / capacity_ / nextTid_
    std::vector<std::shared_ptr<Ring>> rings_;
    /** Bumped by arm(); threads compare it lock-free to their cached
     *  ring's generation, so steady-state recording never touches the
     *  tracer mutex — only each thread's own ring mutex. */
    std::atomic<std::uint64_t> generation_{0};
    std::size_t capacity_ = kDefaultRingCapacity;
    std::uint32_t nextTid_ = 0;
};

/**
 * RAII span: opens at construction, records at destruction (or at an
 * explicit finish()). When the tracer is disarmed the constructor is a
 * single relaxed atomic load and every other member is an inert branch
 * on a stack bool — the hot-path contract the alloc-counting tests
 * assert.
 *
 *   TraceSpan span("solve.trial", "solver");
 *   ...work...
 *   span.arg("dt", dt);
 */
class TraceSpan
{
  public:
    TraceSpan(const char *name, const char *category)
    {
        Tracer &tracer = Tracer::instance();
        if (!tracer.armed())
            return; // disarmed: one relaxed load, nothing else
        live_ = true;
        event_.name = name;
        event_.category = category;
        event_.startNs = tracer.nowNs();
    }

    ~TraceSpan() { finish(); }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach a numeric argument (ignored beyond kMaxTraceArgs). */
    void
    arg(const char *key, double value)
    {
        if (!live_ || event_.numArgs >= kMaxTraceArgs)
            return;
        event_.args[event_.numArgs++] = {key, value};
    }

    /** Close the span now instead of at scope exit. */
    void
    finish()
    {
        if (!live_)
            return;
        live_ = false;
        Tracer &tracer = Tracer::instance();
        event_.durNs = tracer.nowNs() - event_.startNs;
        tracer.record(event_);
    }

  private:
    TraceEvent event_;
    bool live_ = false;
};

} // namespace enode

#endif // ENODE_COMMON_TRACE_SPAN_H

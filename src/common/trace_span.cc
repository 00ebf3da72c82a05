#include "common/trace_span.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace enode {

namespace {

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The calling thread's view of the tracer: which generation it has a
 * ring for, and the sticky thread name applied at registration. Held as
 * a shared_ptr so a ring outlives its thread — the tracer stitches
 * rings of already-joined workers.
 */
struct LocalSlot
{
    std::uint64_t generation = 0; ///< 0 never matches a live generation
    std::shared_ptr<void> ring;   ///< actually Tracer::Ring
    std::string pendingName;
};

LocalSlot &
localSlot()
{
    thread_local LocalSlot slot;
    return slot;
}

/** Minimal JSON string escaping for names we do not control strictly. */
void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << ' ';
            else
                os << c;
        }
    }
    os << '"';
}

/** JSON has no NaN/Inf literals; ship them as strings. */
void
writeJsonNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << v;
    else if (std::isnan(v))
        os << "\"nan\"";
    else
        os << (v > 0 ? "\"inf\"" : "\"-inf\"");
}

void
writeArgs(std::ostream &os, const TraceEvent &e)
{
    os << "\"args\":{";
    for (std::uint32_t a = 0; a < e.numArgs; a++) {
        if (a > 0)
            os << ',';
        writeJsonString(os, e.args[a].key);
        os << ':';
        writeJsonNumber(os, e.args[a].value);
    }
    os << '}';
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::arm(std::size_t ring_capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = std::max<std::size_t>(1, ring_capacity);
    rings_.clear();
    nextTid_ = 0;
    generation_.fetch_add(1, std::memory_order_relaxed);
    epochNs_.store(steadyNowNs(), std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
}

void
Tracer::disarm()
{
    // Events stay exportable; the next arm() discards them.
    armed_.store(false, std::memory_order_release);
}

std::int64_t
Tracer::nowNs() const
{
    return steadyNowNs() - epochNs_.load(std::memory_order_relaxed);
}

std::int64_t
Tracer::toNs(std::chrono::steady_clock::time_point tp) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               tp.time_since_epoch())
               .count() -
           epochNs_.load(std::memory_order_relaxed);
}

Tracer::Ring *
Tracer::localRing()
{
    LocalSlot &slot = localSlot();
    // Steady state: the cached ring matches the live generation and no
    // lock beyond the ring's own mutex is ever taken.
    if (slot.ring != nullptr &&
        slot.generation == generation_.load(std::memory_order_acquire))
        return static_cast<Ring *>(slot.ring.get());

    std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_.load(std::memory_order_relaxed))
        return nullptr; // disarmed mid-span: drop the event
    // First record of this thread in this generation: register a fresh
    // ring (the only allocation tracing ever performs, once per thread
    // per arming).
    auto ring = std::make_shared<Ring>(capacity_, nextTid_++,
                                       slot.pendingName);
    rings_.push_back(ring);
    slot.generation = generation_.load(std::memory_order_relaxed);
    slot.ring = ring;
    return ring.get();
}

void
Tracer::record(const TraceEvent &event)
{
    Ring *ring = localRing();
    if (ring == nullptr)
        return;
    std::lock_guard<std::mutex> lock(ring->mutex);
    TraceEvent &slot = ring->events[ring->head % ring->events.size()];
    slot = event;
    slot.tid = ring->tid;
    ring->head++;
}

void
Tracer::instant(const char *name, const char *category,
                std::initializer_list<TraceArg> args)
{
    if (!armed())
        return;
    TraceEvent e;
    e.name = name;
    e.category = category;
    e.startNs = nowNs();
    e.durNs = -1;
    for (const TraceArg &a : args) {
        if (e.numArgs >= kMaxTraceArgs)
            break;
        e.args[e.numArgs++] = a;
    }
    record(e);
}

void
Tracer::setThreadName(const std::string &name)
{
    localSlot().pendingName = name;
    // While armed, register the thread's ring now rather than at its
    // first event, so a named thread that records nothing (a worker that
    // stayed idle) still appears in the export.
    Ring *ring = localRing();
    if (ring == nullptr)
        return;
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->name = name;
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::vector<std::shared_ptr<Ring>> rings;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rings = rings_;
    }
    std::vector<TraceEvent> out;
    for (const auto &ring : rings) {
        std::lock_guard<std::mutex> lock(ring->mutex);
        const std::size_t cap = ring->events.size();
        const std::uint64_t n = std::min<std::uint64_t>(ring->head, cap);
        // Oldest surviving event first: the ring holds the newest
        // `cap` events ending at head - 1.
        for (std::uint64_t i = ring->head - n; i < ring->head; i++)
            out.push_back(ring->events[i % cap]);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.startNs != b.startNs)
                             return a.startNs < b.startNs;
                         // Enclosing span first so viewers nest properly.
                         return a.durNs > b.durNs;
                     });
    return out;
}

std::uint64_t
Tracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t dropped = 0;
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        const std::uint64_t cap = ring->events.size();
        if (ring->head > cap)
            dropped += ring->head - cap;
    }
    return dropped;
}

std::size_t
Tracer::threadCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rings_.size();
}

void
Tracer::exportChromeTrace(std::ostream &os) const
{
    const std::vector<TraceEvent> events = snapshot();
    std::vector<std::pair<std::uint32_t, std::string>> names;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &ring : rings_) {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            if (!ring->name.empty())
                names.emplace_back(ring->tid, ring->name);
        }
    }

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto &[tid, name] : names) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
           << tid << ",\"args\":{\"name\":";
        writeJsonString(os, name);
        os << "}}";
    }
    for (const TraceEvent &e : events) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":";
        writeJsonString(os, e.name != nullptr ? e.name : "");
        os << ",\"cat\":";
        writeJsonString(os, e.category != nullptr ? e.category : "");
        // Chrome trace timestamps are microseconds.
        os << ",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
           << static_cast<double>(e.startNs) / 1e3;
        if (e.instant()) {
            os << ",\"ph\":\"i\",\"s\":\"t\"";
        } else {
            os << ",\"ph\":\"X\",\"dur\":"
               << static_cast<double>(e.durNs) / 1e3;
        }
        os << ',';
        writeArgs(os, e);
        os << '}';
    }
    os << "]}";
}

std::string
Tracer::chromeTraceJson() const
{
    std::ostringstream oss;
    exportChromeTrace(oss);
    return oss.str();
}

} // namespace enode

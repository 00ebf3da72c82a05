#ifndef ENODE_PERFBENCH_HARNESS_H
#define ENODE_PERFBENCH_HARNESS_H

/**
 * @file
 * The benchmark's own accounting, kept free of the eNODE library so
 * harness_test.cc can check it on synthetic samples and a fake clock:
 *
 *  - percentiles by nearest rank, and the tail rule: report p99 when at
 *    least ten samples lie beyond it, otherwise the highest percentile
 *    that has ten samples beyond it, named as such;
 *  - ratios that carry their numerator and base;
 *  - closed-loop window accounting: a response counts when it completed
 *    inside the measurement window;
 *  - open-loop pacing: each arrival is sent at its due time, and how late
 *    the generator ran is measured against that due time;
 *  - restating a run's times and rates at a nominal host speed.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/** Samples that must lie strictly beyond a reported tail percentile. */
constexpr std::size_t kTailSamples = 10;

/**
 * Nearest-rank percentile of ascending `sorted`, with the percentile in
 * tenths (990 = p99): the smallest sample with at least that share of the
 * samples at or below it. Integer rank arithmetic, so p99 of 1000 samples
 * is exactly the 990th and ten samples lie beyond it. 0 when empty.
 */
inline double
percentileSorted(const std::vector<double> &sorted, unsigned tenths)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t n = sorted.size();
    std::size_t rank = (static_cast<std::size_t>(tenths) * n + 999) / 1000;
    rank = std::clamp<std::size_t>(rank, 1, n);
    return sorted[rank - 1];
}

/**
 * The tail percentile (in tenths) to report for n samples: 990 when
 * n >= 1000, otherwise the highest tenth-percentile that still leaves
 * kTailSamples beyond it. 0 means no percentile qualifies (n <= 10); the
 * caller then reports the maximum and names it "max".
 */
inline unsigned
tailTenths(std::size_t n)
{
    if (n <= kTailSamples)
        return 0;
    const std::size_t t = 1000 * (n - kTailSamples) / n;
    return static_cast<unsigned>(std::min<std::size_t>(990, t));
}

/** "p99", "p98.7", or "max" (tenths == 0). */
inline std::string
percentileName(unsigned tenths)
{
    if (tenths == 0)
        return "max";
    char buf[16];
    if (tenths % 10 == 0)
        std::snprintf(buf, sizeof buf, "p%u", tenths / 10);
    else
        std::snprintf(buf, sizeof buf, "p%u.%u", tenths / 10, tenths % 10);
    return buf;
}

/** Median and tail of one latency-like sample set. */
struct Distribution
{
    std::size_t n = 0;
    double p50 = 0.0;
    /** The tail the sample supports (see tailTenths) and its name. */
    double tail = 0.0;
    std::string tailName = "max";
    double max = 0.0;
    double mean = 0.0;
};

inline Distribution
distributionOf(std::vector<double> samples)
{
    Distribution d;
    d.n = samples.size();
    if (samples.empty())
        return d;
    std::sort(samples.begin(), samples.end());
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    d.mean = sum / static_cast<double>(d.n);
    d.p50 = percentileSorted(samples, 500);
    d.max = samples.back();
    const unsigned tail = tailTenths(d.n);
    d.tail = tail == 0 ? d.max : percentileSorted(samples, tail);
    d.tailName = percentileName(tail);
    return d;
}

/**
 * A ratio that keeps its numerator and base, so every printed ratio
 * says what it is a share of. An empty base makes the ratio undefined;
 * value() then reports 0 and defined() is false.
 */
struct Ratio
{
    double num = 0.0;
    double den = 0.0;
    std::string numName;
    std::string denName;

    bool defined() const { return den > 0.0; }
    double value() const { return defined() ? num / den : 0.0; }

    /** "0.8123 = 1234 exact hits / 1519 exact-tier lookups". */
    std::string
    describe() const
    {
        char buf[256];
        if (!defined())
            std::snprintf(buf, sizeof buf, "undefined (%g %s / 0 %s)", num,
                          numName.c_str(), denName.c_str());
        else
            std::snprintf(buf, sizeof buf, "%.4f = %g %s / %g %s", value(),
                          num, numName.c_str(), den, denName.c_str());
        return buf;
    }
};

/** One finished request as the window accounting sees it. */
struct Completion
{
    double submitMs = 0.0; ///< submit time, from the start of the run
    double totalMs = 0.0;  ///< server-measured admission-to-completion
    bool ok = false;       ///< terminal status was Ok
};

/** What fell inside a closed-loop measurement window [startMs, endMs]. */
struct WindowTally
{
    std::size_t okInWindow = 0;   ///< Ok, completed inside the window
    std::size_t notOkInWindow = 0; ///< non-Ok, completed inside it
    std::size_t beforeWindow = 0; ///< completed before startMs
    std::size_t afterWindow = 0;  ///< completed after endMs (drained)
    double seconds = 0.0;

    double
    okPerSecond() const
    {
        return seconds > 0.0 ? static_cast<double>(okInWindow) / seconds
                             : 0.0;
    }
};

/**
 * Closed-loop accounting, the source of throughput_rps: a request
 * completes at submitMs + totalMs, and counts toward the window's
 * throughput only when that instant lies in [startMs, endMs]. Requests
 * still in flight when the window closes are drained for the correctness
 * checks but excluded here, so the drain tail never inflates or deflates
 * the rate.
 */
inline WindowTally
tallyWindow(const std::vector<Completion> &done, double startMs,
            double endMs)
{
    WindowTally t;
    t.seconds = (endMs - startMs) / 1e3;
    for (const Completion &c : done) {
        const double at = c.submitMs + c.totalMs;
        if (at < startMs)
            t.beforeWindow++;
        else if (at > endMs)
            t.afterWindow++;
        else if (c.ok)
            t.okInWindow++;
        else
            t.notOkInWindow++;
    }
    return t;
}

/**
 * A run's host speed against a reference: how long a fixed reference
 * chunk took during the run (mean CPU time) against how long it takes on
 * the nominal host. atNominal*() restate a run's numbers as they would
 * read on the nominal host: a host running 20% slow (measured = 1.25 x
 * nominal) has its times multiplied by 0.8 and its rates by 1.25. Both
 * undefined inputs (no chunk timed) leave values as measured.
 */
struct HostSpeed
{
    double nominalUs = 0.0;
    double measuredUs = 0.0;

    /** nominal / measured: 1 on the nominal host, < 1 on a slower one. */
    double
    factor() const
    {
        return nominalUs > 0.0 && measuredUs > 0.0 ? nominalUs / measuredUs
                                                   : 1.0;
    }

    double atNominalTime(double t) const { return t * factor(); }
    double atNominalRate(double perSec) const { return perSec / factor(); }
};

/** Latency of an open-loop request, timed from when it was due. */
inline double
dueLatencyMs(double latenessMs, double totalMs)
{
    return latenessMs + totalMs;
}

/** The real clock: steady_clock and a sleeping wait. */
struct SteadyClock
{
    using time_point = std::chrono::steady_clock::time_point;
    time_point now() const { return std::chrono::steady_clock::now(); }
    void sleepUntil(time_point tp) const { std::this_thread::sleep_until(tp); }
};

/**
 * Open-loop pacer over a clock with now() and sleepUntil(). awaitDue()
 * waits for an arrival's due time (start + atMs) and returns how late
 * the generator is for it: 0 when it woke on time, more when an earlier
 * submit or a late wake-up held it past the due time. The arrival is sent
 * right after, so the request's latency from its due time is the
 * lateness plus the server-side total.
 */
template <class Clock>
class OpenLoopPacer
{
  public:
    OpenLoopPacer(const Clock &clock, typename Clock::time_point start)
        : clock_(clock), start_(start)
    {
    }

    typename Clock::time_point
    dueTime(double atMs) const
    {
        return start_ +
               std::chrono::duration_cast<
                   typename Clock::time_point::duration>(
                   std::chrono::duration<double, std::milli>(atMs));
    }

    double
    awaitDue(double atMs) const
    {
        const auto due = dueTime(atMs);
        if (clock_.now() < due)
            clock_.sleepUntil(due);
        const double late =
            std::chrono::duration<double, std::milli>(clock_.now() - due)
                .count();
        return std::max(0.0, late);
    }

  private:
    const Clock &clock_;
    typename Clock::time_point start_;
};

} // namespace perfbench

#endif // ENODE_PERFBENCH_HARNESS_H

// Tests of the benchmark's own accounting (harness.h). run.py runs them
// before every benchmark run; a failure stops the run.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "harness.h"

using namespace perfbench;

namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; i++)
        v[i] = static_cast<double>(i + 1);
    return v;
}

/** Counts the samples strictly greater than `value`. */
std::size_t
beyond(const std::vector<double> &sorted, double value)
{
    std::size_t k = 0;
    for (double s : sorted)
        k += s > value ? 1 : 0;
    return k;
}

/** A manual clock: time moves only when the test or a sleep moves it. */
struct FakeClock
{
    using duration = std::chrono::nanoseconds;
    using time_point =
        std::chrono::time_point<std::chrono::steady_clock, duration>;

    time_point now() const { return t; }

    void
    sleepUntil(time_point tp) const
    {
        if (t < tp)
            t = tp;
        t += wakeDelay;
    }

    void advanceMs(double ms) const
    {
        t += std::chrono::duration_cast<duration>(
            std::chrono::duration<double, std::milli>(ms));
    }

    mutable time_point t{};
    duration wakeDelay{0};
};

} // namespace

TEST(Percentile, NearestRankOnRamp)
{
    const auto v = ramp(1000);
    EXPECT_EQ(percentileSorted(v, 500), 500.0);
    EXPECT_EQ(percentileSorted(v, 990), 990.0);
    EXPECT_EQ(percentileSorted(v, 1000), 1000.0);
    EXPECT_EQ(percentileSorted({}, 990), 0.0);
    EXPECT_EQ(percentileSorted({7.0}, 10), 7.0);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt)
{
    EXPECT_EQ(tailTenths(1000), 990u);
    EXPECT_EQ(tailTenths(5000), 990u);
    EXPECT_EQ(tailTenths(999), 989u);
    EXPECT_EQ(tailTenths(500), 980u);
    EXPECT_EQ(tailTenths(100), 900u);
    EXPECT_EQ(tailTenths(11), 90u);
    EXPECT_EQ(tailTenths(10), 0u);
    EXPECT_EQ(tailTenths(0), 0u);
}

TEST(Percentile, ReportedTailAlwaysLeavesTenBeyond)
{
    for (std::size_t n : {11u, 12u, 57u, 99u, 100u, 101u, 333u, 998u, 999u,
                          1000u, 1001u, 4321u}) {
        const auto v = ramp(n);
        const unsigned t = tailTenths(n);
        ASSERT_GT(t, 0u) << n;
        EXPECT_GE(beyond(v, percentileSorted(v, t)), kTailSamples) << n;
        // The next tenth up would leave fewer than ten (unless capped).
        if (t < 990) {
            EXPECT_LT(beyond(v, percentileSorted(v, t + 1)), kTailSamples)
                << n;
        }
    }
}

TEST(Percentile, NamesSayWhichPercentile)
{
    EXPECT_EQ(percentileName(990), "p99");
    EXPECT_EQ(percentileName(987), "p98.7");
    EXPECT_EQ(percentileName(0), "max");

    const Distribution big = distributionOf(ramp(2000));
    EXPECT_EQ(big.tailName, "p99");
    EXPECT_EQ(big.tail, 1980.0);
    EXPECT_EQ(big.p50, 1000.0);

    const Distribution small = distributionOf(ramp(200));
    EXPECT_EQ(small.tailName, "p95");
    EXPECT_EQ(small.tail, 190.0);

    const Distribution tiny = distributionOf(ramp(5));
    EXPECT_EQ(tiny.tailName, "max");
    EXPECT_EQ(tiny.tail, 5.0);
}

TEST(RatioMath, CarriesItsBase)
{
    Ratio r{3.0, 4.0, "exact hits", "exact-tier lookups"};
    EXPECT_TRUE(r.defined());
    EXPECT_DOUBLE_EQ(r.value(), 0.75);
    EXPECT_EQ(r.describe(), "0.7500 = 3 exact hits / 4 exact-tier lookups");
}

TEST(RatioMath, EmptyBaseIsUndefinedNotZeroOverZero)
{
    Ratio r{0.0, 0.0, "sheds", "admitted"};
    EXPECT_FALSE(r.defined());
    EXPECT_EQ(r.value(), 0.0);
    EXPECT_EQ(r.describe(), "undefined (0 sheds / 0 admitted)");
}

TEST(ClosedLoopWindow, CountsOnlyCompletionsInsideTheWindow)
{
    // Window [1000, 3000] ms = 2 s.
    const std::vector<Completion> done = {
        {900.0, 50.0, true},    // completes at 950: before the window
        {990.0, 20.0, true},    // submitted before, completes inside
        {1500.0, 1.0, true},    // inside
        {2000.0, 5.0, false},   // inside, not Ok
        {2999.0, 1.0, true},    // completes exactly at the end: inside
        {2999.5, 1.0, true},    // completes after the end: drained
        {3100.0, 1.0, true},    // submitted after: never counted
    };
    const WindowTally t = tallyWindow(done, 1000.0, 3000.0);
    EXPECT_EQ(t.beforeWindow, 1u);
    EXPECT_EQ(t.okInWindow, 3u);
    EXPECT_EQ(t.notOkInWindow, 1u);
    EXPECT_EQ(t.afterWindow, 2u);
    EXPECT_DOUBLE_EQ(t.seconds, 2.0);
    EXPECT_DOUBLE_EQ(t.okPerSecond(), 1.5);
}

TEST(ClosedLoopWindow, EmptyWindowHasNoRate)
{
    const WindowTally t = tallyWindow({}, 5.0, 5.0);
    EXPECT_EQ(t.okPerSecond(), 0.0);
}

TEST(OpenLoopPacer, OnTimeArrivalsAreNotLate)
{
    FakeClock clock;
    OpenLoopPacer<FakeClock> pacer(clock, clock.now());
    EXPECT_EQ(pacer.awaitDue(10.0), 0.0);
    EXPECT_EQ(clock.now() - FakeClock::time_point{},
              std::chrono::milliseconds(10));
    EXPECT_EQ(pacer.awaitDue(25.0), 0.0);
    EXPECT_EQ(clock.now() - FakeClock::time_point{},
              std::chrono::milliseconds(25));
}

TEST(OpenLoopPacer, SlowSubmitMakesLaterArrivalsLate)
{
    FakeClock clock;
    OpenLoopPacer<FakeClock> pacer(clock, clock.now());
    // Due at 0, 1, 2 ms; each submit takes 1.5 ms of generator time.
    std::vector<double> late;
    for (double at : {0.0, 1.0, 2.0}) {
        late.push_back(pacer.awaitDue(at));
        clock.advanceMs(1.5);
    }
    EXPECT_DOUBLE_EQ(late[0], 0.0);
    EXPECT_DOUBLE_EQ(late[1], 0.5);
    EXPECT_DOUBLE_EQ(late[2], 1.0);
    // Latency from the due time charges that wait to the request.
    EXPECT_DOUBLE_EQ(dueLatencyMs(late[2], 4.0), 5.0);
}

TEST(OpenLoopPacer, LateWakeUpCountsAsLateness)
{
    FakeClock clock;
    clock.wakeDelay = std::chrono::microseconds(80);
    OpenLoopPacer<FakeClock> pacer(clock, clock.now());
    EXPECT_NEAR(pacer.awaitDue(3.0), 0.08, 1e-12);
    // Already past due: no sleep, so no extra wake-up delay.
    clock.advanceMs(2.0);
    EXPECT_NEAR(pacer.awaitDue(4.0), 1.08, 1e-12);
}

TEST(HostSpeed, SlowHostTimesShrinkAndRatesGrow)
{
    // The reference chunk took 250 us against 200 us nominal: the host
    // ran at 0.8 of nominal speed.
    const HostSpeed h{200.0, 250.0};
    EXPECT_DOUBLE_EQ(h.factor(), 0.8);
    EXPECT_DOUBLE_EQ(h.atNominalTime(50.0), 40.0);
    EXPECT_DOUBLE_EQ(h.atNominalRate(80.0), 100.0);
    // Rate x time is unchanged, so a closed loop's Little's law holds.
    EXPECT_DOUBLE_EQ(h.atNominalRate(80.0) * h.atNominalTime(0.025),
                     80.0 * 0.025);
}

TEST(HostSpeed, NothingTimedLeavesValuesAsMeasured)
{
    const HostSpeed none{200.0, 0.0};
    EXPECT_DOUBLE_EQ(none.factor(), 1.0);
    EXPECT_DOUBLE_EQ(none.atNominalTime(7.0), 7.0);
    EXPECT_DOUBLE_EQ(none.atNominalRate(7.0), 7.0);
}

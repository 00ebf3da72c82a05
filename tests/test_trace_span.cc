/**
 * @file
 * Span tracer: disarmed inertness, recording, ring wraparound,
 * multi-thread stitching, and Chrome trace-event JSON export (parsed by
 * a minimal in-test JSON reader, so a malformed export fails here
 * before it fails in Perfetto).
 */

#include <cctype>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace_span.h"

namespace enode {
namespace {

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON parser — just enough to validate the
// exporter's output shape. Throws std::runtime_error on malformed
// input, which the tests surface as failures.

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }

    bool has(const std::string &key) const
    {
        return object.count(key) > 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            throw std::runtime_error("trailing garbage");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            pos_++;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            throw std::runtime_error("unexpected end");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected '") + c + "'");
        pos_++;
    }

    JsonValue
    parseValue()
    {
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        if (c == 't' || c == 'f')
            return parseBool();
        if (c == 'n')
            return parseNull();
        return parseNumber();
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            pos_++;
            return v;
        }
        for (;;) {
            JsonValue key = parseString();
            expect(':');
            v.object[key.str] = parseValue();
            if (peek() == ',') {
                pos_++;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            pos_++;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue());
            if (peek() == ',') {
                pos_++;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    throw std::runtime_error("bad escape");
                const char esc = text_[pos_++];
                switch (esc) {
                  case 'n':
                    c = '\n';
                    break;
                  case 't':
                    c = '\t';
                    break;
                  default:
                    c = esc;
                }
            }
            v.str += c;
        }
        if (pos_ >= text_.size())
            throw std::runtime_error("unterminated string");
        pos_++; // closing quote
        return v;
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            v.boolean = false;
            pos_ += 5;
        } else {
            throw std::runtime_error("bad literal");
        }
        return v;
    }

    JsonValue
    parseNull()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            throw std::runtime_error("bad literal");
        pos_ += 4;
        return JsonValue{};
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            pos_++;
        if (pos_ == start)
            throw std::runtime_error("bad number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = std::stod(text_.substr(start, pos_ - start));
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

/** Re-arm for every test so generations do not leak across tests. */
class TraceSpanTest : public ::testing::Test
{
  protected:
    void TearDown() override { Tracer::instance().disarm(); }
};

TEST_F(TraceSpanTest, DisarmedSpansRecordNothing)
{
    Tracer &tracer = Tracer::instance();
    tracer.arm(64);
    tracer.disarm();
    {
        TraceSpan span("ghost", "test");
        span.arg("x", 1.0);
    }
    tracer.instant("ghost.instant", "test");
    EXPECT_TRUE(tracer.snapshot().empty());
    EXPECT_FALSE(tracer.armed());
}

TEST_F(TraceSpanTest, SpanRecordsNameCategoryArgsAndDuration)
{
    Tracer &tracer = Tracer::instance();
    tracer.arm(64);
    {
        TraceSpan span("unit.work", "test");
        span.arg("alpha", 1.5);
        span.arg("beta", -2.0);
    }
    tracer.disarm();
    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 1u);
    const TraceEvent &e = events[0];
    EXPECT_STREQ(e.name, "unit.work");
    EXPECT_STREQ(e.category, "test");
    EXPECT_GE(e.durNs, 0);
    EXPECT_FALSE(e.instant());
    ASSERT_EQ(e.numArgs, 2u);
    EXPECT_STREQ(e.args[0].key, "alpha");
    EXPECT_DOUBLE_EQ(e.args[0].value, 1.5);
    EXPECT_DOUBLE_EQ(e.args[1].value, -2.0);
}

TEST_F(TraceSpanTest, EventsSurviveDisarmUntilNextArm)
{
    Tracer &tracer = Tracer::instance();
    tracer.arm(64);
    { TraceSpan span("keep.me", "test"); }
    tracer.disarm();
    EXPECT_EQ(tracer.snapshot().size(), 1u);
    tracer.arm(64); // new generation discards the old events
    EXPECT_TRUE(tracer.snapshot().empty());
}

TEST_F(TraceSpanTest, RingWraparoundKeepsNewestEvents)
{
    Tracer &tracer = Tracer::instance();
    const std::size_t cap = 16;
    tracer.arm(cap);
    const int total = 50;
    for (int i = 0; i < total; i++)
        tracer.instant("tick", "test", {{"i", static_cast<double>(i)}});
    tracer.disarm();
    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), cap);
    EXPECT_EQ(tracer.dropped(), static_cast<std::uint64_t>(total) - cap);
    // The surviving window is exactly the newest `cap` instants.
    for (std::size_t k = 0; k < cap; k++) {
        ASSERT_EQ(events[k].numArgs, 1u);
        EXPECT_DOUBLE_EQ(events[k].args[0].value,
                         static_cast<double>(total - cap + k));
    }
}

TEST_F(TraceSpanTest, StitchesThreadsWithDistinctTidsSortedByStart)
{
    Tracer &tracer = Tracer::instance();
    tracer.arm(256);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([t] {
            Tracer::instance().setThreadName("stitch-" +
                                             std::to_string(t));
            for (int i = 0; i < kPerThread; i++) {
                TraceSpan span("stitch.work", "test");
                span.arg("thread", static_cast<double>(t));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    tracer.disarm();

    // Rings survive their threads: stitching happens after every join.
    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(tracer.threadCount(), static_cast<std::size_t>(kThreads));
    std::map<std::uint32_t, int> per_tid;
    for (std::size_t i = 0; i < events.size(); i++) {
        per_tid[events[i].tid]++;
        if (i > 0) {
            EXPECT_LE(events[i - 1].startNs, events[i].startNs);
        }
    }
    ASSERT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
    for (const auto &[tid, count] : per_tid)
        EXPECT_EQ(count, kPerThread);
}

TEST_F(TraceSpanTest, ThreadNamedWhileArmedIsExportedWithoutEvents)
{
    // A server worker names itself at start and may never serve a
    // request; its lane must still show up in the exported trace.
    Tracer &tracer = Tracer::instance();
    tracer.arm(16);
    std::thread idle([] { Tracer::instance().setThreadName("idle-worker"); });
    idle.join();
    tracer.disarm();

    EXPECT_TRUE(tracer.snapshot().empty());
    EXPECT_EQ(tracer.threadCount(), 1u);
    EXPECT_NE(tracer.chromeTraceJson().find("idle-worker"), std::string::npos);
}

TEST_F(TraceSpanTest, ExportedJsonParsesAndNestsSpans)
{
    Tracer &tracer = Tracer::instance();
    tracer.arm(64);
    tracer.setThreadName("exporter");
    {
        TraceSpan outer("outer.op", "test");
        outer.arg("depth", 0.0);
        {
            TraceSpan inner("inner.op", "test");
            inner.arg("depth", 1.0);
        }
    }
    tracer.instant("marker", "test", {{"kind", 7.0}});
    tracer.disarm();

    const std::string json = tracer.chromeTraceJson();
    JsonValue root = JsonParser(json).parse();
    const JsonValue &trace_events = root.at("traceEvents");
    ASSERT_EQ(trace_events.kind, JsonValue::Kind::Array);

    const JsonValue *outer = nullptr;
    const JsonValue *inner = nullptr;
    const JsonValue *marker = nullptr;
    const JsonValue *thread_meta = nullptr;
    for (const JsonValue &e : trace_events.array) {
        const std::string &name = e.at("name").str;
        if (name == "outer.op")
            outer = &e;
        else if (name == "inner.op")
            inner = &e;
        else if (name == "marker")
            marker = &e;
        else if (name == "thread_name")
            thread_meta = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(marker, nullptr);
    ASSERT_NE(thread_meta, nullptr);

    EXPECT_EQ(outer->at("ph").str, "X");
    EXPECT_EQ(inner->at("ph").str, "X");
    EXPECT_EQ(marker->at("ph").str, "i");
    EXPECT_EQ(marker->at("s").str, "t");
    EXPECT_EQ(thread_meta->at("ph").str, "M");
    EXPECT_EQ(thread_meta->at("args").at("name").str, "exporter");

    // Containment: the inner span's [ts, ts+dur] lies within the
    // outer's, which is what makes viewers nest them.
    const double outer_ts = outer->at("ts").number;
    const double outer_end = outer_ts + outer->at("dur").number;
    const double inner_ts = inner->at("ts").number;
    const double inner_end = inner_ts + inner->at("dur").number;
    EXPECT_GE(inner_ts, outer_ts);
    EXPECT_LE(inner_end, outer_end);

    EXPECT_DOUBLE_EQ(outer->at("args").at("depth").number, 0.0);
    EXPECT_DOUBLE_EQ(inner->at("args").at("depth").number, 1.0);
    EXPECT_DOUBLE_EQ(marker->at("args").at("kind").number, 7.0);
}

TEST_F(TraceSpanTest, ExportHandlesNonFiniteArgValues)
{
    Tracer &tracer = Tracer::instance();
    tracer.arm(16);
    tracer.instant("weird", "test",
                   {{"nan", std::nan("")},
                    {"inf", std::numeric_limits<double>::infinity()}});
    tracer.disarm();
    // JSON has no NaN/Inf literals; the exporter must still produce a
    // parseable document (values shipped as strings).
    JsonValue root = JsonParser(tracer.chromeTraceJson()).parse();
    const JsonValue &events = root.at("traceEvents");
    const JsonValue *weird = nullptr;
    for (const JsonValue &e : events.array)
        if (e.at("name").str == "weird")
            weird = &e;
    ASSERT_NE(weird, nullptr);
    EXPECT_EQ(weird->at("args").at("nan").str, "nan");
    EXPECT_EQ(weird->at("args").at("inf").str, "inf");
}

TEST_F(TraceSpanTest, ExplicitFinishRecordsOnceAndDisarmsSpan)
{
    Tracer &tracer = Tracer::instance();
    tracer.arm(16);
    {
        TraceSpan span("finish.once", "test");
        span.finish();
        span.arg("late", 1.0); // after finish: ignored
    } // destructor must not record a second event
    tracer.disarm();
    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].numArgs, 0u);
}

} // namespace
} // namespace enode

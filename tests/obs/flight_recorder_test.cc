/**
 * @file
 * Flight recorder tests: structured events, ring wraparound,
 * dump-on-error latching, span context attached to events, and
 * lapping writers that must never yield a torn event.
 */

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.hh"
#include "obs/span.hh"
#include "test_util.hh"

using namespace livephase;
using namespace livephase::obs;

namespace
{

/** Enable obs for one test and restore the previous state. */
class ScopedObsEnable
{
  public:
    ScopedObsEnable() : was(enabled()) { setEnabled(true); }
    ~ScopedObsEnable() { setEnabled(was); }

  private:
    bool was;
};

TEST(FlightRecorder, RecordsStructuredEvents)
{
    FlightRecorder rec(64);
    rec.record(Severity::Warn, "test.event",
               {{"count", uint64_t{42}},
                {"what", "a-string"},
                {"ratio", 0.5}});
    const auto events = rec.snapshotEvents();
    ASSERT_EQ(events.size(), 1u);
    const auto &e = events[0];
    EXPECT_EQ(e.sev, Severity::Warn);
    EXPECT_STREQ(e.name, "test.event");
    ASSERT_EQ(e.nfields, 3u);
    EXPECT_STREQ(e.fields[0].key, "count");
    EXPECT_STREQ(e.fields[0].value, "42");
    EXPECT_STREQ(e.fields[1].key, "what");
    EXPECT_STREQ(e.fields[1].value, "a-string");
    EXPECT_STREQ(e.fields[2].key, "ratio");
    EXPECT_GT(e.tid, 0u);
}

TEST(FlightRecorder, WraparoundKeepsNewestInOrder)
{
    FlightRecorder rec(8);
    for (uint64_t i = 0; i < 20; ++i)
        rec.record(Severity::Info, "tick", {{"i", i}});
    EXPECT_EQ(rec.recorded(), 20u);
    EXPECT_EQ(rec.capacity(), 8u);

    const auto events = rec.snapshotEvents();
    ASSERT_EQ(events.size(), 8u);
    // Oldest-first and contiguous: events 12..19 survive.
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 12 + i);
        EXPECT_STREQ(events[i].fields[0].value,
                     std::to_string(12 + i).c_str());
    }
}

TEST(FlightRecorder, DumpRendersEveryEvent)
{
    FlightRecorder rec(16);
    rec.record(Severity::Error, "boom", {{"why", "testing"}});
    std::ostringstream os;
    rec.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("ERROR"), std::string::npos);
    EXPECT_NE(text.find("boom"), std::string::npos);
    EXPECT_NE(text.find("why=testing"), std::string::npos);
}

TEST(FlightRecorder, AutoDumpLatchesPerReason)
{
    FlightRecorder rec(16);
    std::ostringstream os;
    rec.setDumpSink(&os);
    rec.record(Severity::Error, "bad.thing");

    EXPECT_TRUE(rec.autoDump("reason-a"));
    EXPECT_FALSE(rec.autoDump("reason-a")); // latched
    EXPECT_TRUE(rec.autoDump("reason-b"));  // distinct reason
    rec.resetDumpLatches();
    EXPECT_TRUE(rec.autoDump("reason-a")); // re-armed

    const std::string text = os.str();
    EXPECT_NE(text.find("reason-a"), std::string::npos);
    EXPECT_NE(text.find("bad.thing"), std::string::npos);
    rec.setDumpSink(nullptr);
}

TEST(FlightRecorder, EventsCarryActiveSpanPath)
{
    ScopedObsEnable on;
    FlightRecorder rec(16);
    {
        OBS_SPAN("outer");
        {
            OBS_SPAN("inner");
            rec.record(Severity::Info, "inside");
        }
    }
    rec.record(Severity::Info, "outside");
    const auto events = rec.snapshotEvents();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].span, "outer/inner");
    EXPECT_STREQ(events[1].span, "");
}

TEST(FlightRecorder, ConcurrentRecordingLosesNothing)
{
    FlightRecorder rec(4096);
    constexpr size_t THREADS = 8;
    constexpr size_t EVENTS = 400; // 3200 < capacity: none evicted
    std::vector<std::thread> threads;
    for (size_t t = 0; t < THREADS; ++t) {
        threads.emplace_back([&rec, t] {
            for (size_t i = 0; i < EVENTS; ++i)
                rec.record(Severity::Debug, "spin",
                           {{"t", static_cast<uint64_t>(t)}});
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(rec.recorded(), THREADS * EVENTS);
    EXPECT_EQ(rec.snapshotEvents().size(), THREADS * EVENTS);
}

TEST(FlightRecorder, TruncatesOverlongStringsSafely)
{
    FlightRecorder rec(4);
    const std::string long_name(200, 'n');
    const std::string long_value(200, 'v');
    rec.record(Severity::Info, long_name.c_str(),
               {{"key", long_value}});
    const auto events = rec.snapshotEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(std::string(events[0].name).size(),
              FlightRecorder::NAME_LEN);
    EXPECT_EQ(std::string(events[0].fields[0].value).size(),
              FlightRecorder::VALUE_LEN);
}

/** True when every character of the event's name, keys and values
 *  is `letter`, i.e. it was written by one writer alone. */
bool
uniform(const FlightRecorder::Event &e, char letter)
{
    auto all = [letter](const char *s, size_t len) {
        return std::string(s) == std::string(len, letter);
    };
    if (e.nfields != FlightRecorder::MAX_FIELDS ||
        !all(e.name, FlightRecorder::NAME_LEN))
        return false;
    for (const auto &f : e.fields)
        if (!all(f.key, FlightRecorder::KEY_LEN) ||
            !all(f.value, FlightRecorder::VALUE_LEN))
            return false;
    return true;
}

TEST(FlightRecorder, LappingWritersNeverYieldTornEvents)
{
    // One slot and four writers: every record laps the others, so a
    // reader that accepts a slot two writers filled at once sees a
    // mix of letters.
    FlightRecorder rec(1);
    constexpr int WRITERS = 4;
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < WRITERS; ++w) {
        writers.emplace_back([&rec, &stop, w] {
            const char letter = static_cast<char>('a' + w);
            const std::string name(FlightRecorder::NAME_LEN, letter);
            const std::string key(FlightRecorder::KEY_LEN, letter);
            const std::string value(FlightRecorder::VALUE_LEN, letter);
            const FlightRecorder::FieldArg field(key.c_str(), value);
            while (!stop.load(std::memory_order_relaxed))
                rec.record(Severity::Info, name.c_str(),
                           {field, field, field, field});
        });
    }

    uint64_t returned = 0, torn = 0;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (std::chrono::steady_clock::now() < until) {
        for (const auto &e : rec.snapshotEvents()) {
            ++returned;
            if (!uniform(e, e.name[0]))
                ++torn;
        }
    }
    stop = true;
    for (std::thread &t : writers)
        t.join();

    EXPECT_EQ(torn, 0u) << "of " << returned << " events returned";
    EXPECT_GT(returned, 0u);
}

} // namespace

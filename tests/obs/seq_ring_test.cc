/**
 * @file
 * SeqRing tests (obs/seq_ring.hh): drop-oldest order, reset, and
 * lazily backed slot storage. The torn-read tests for its three
 * users live with them (FlightRecorder.LappingWritersNeverYield...,
 * Trace.SnapshotDuringRecording..., Profiler.SnapshotDuringSampling...).
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "obs/profiler.hh"
#include "obs/seq_ring.hh"
#include "test_util.hh"

using namespace livephase;
using namespace livephase::obs;

namespace
{

struct Rec
{
    uint64_t a = 0;
    uint64_t b = 0;
};

/** Anonymous resident memory now minus `before`, KiB (negative
 *  when it shrank). File-backed pages, such as code paged in by a
 *  first call, do not count. */
long
rssGrowthKib(size_t before)
{
    return static_cast<long>(test::procStatusKib("RssAnon")) -
           static_cast<long>(before);
}

std::vector<uint64_t>
seqsOf(const SeqRing<Rec> &ring)
{
    std::vector<uint64_t> seqs;
    ring.read([&seqs](uint64_t seq, const Rec &rec) {
        EXPECT_EQ(rec.a, seq);
        EXPECT_EQ(rec.b, ~seq);
        seqs.push_back(seq);
    });
    return seqs;
}

TEST(SeqRing, KeepsNewestRecordsOldestFirst)
{
    SeqRing<Rec> ring(5);
    for (uint64_t i = 0; i < 12; ++i)
        ring.push({i, ~i});
    EXPECT_EQ(ring.recorded(), 12u);
    EXPECT_EQ(seqsOf(ring), (std::vector<uint64_t>{7, 8, 9, 10, 11}));
}

TEST(SeqRing, ResetDropsRecordsAndRestartsSeq)
{
    SeqRing<Rec> ring(4);
    for (uint64_t i = 0; i < 6; ++i)
        ring.push({i, ~i});
    ring.reset();
    EXPECT_EQ(ring.recorded(), 0u);
    EXPECT_TRUE(seqsOf(ring).empty());
    ring.push({0, ~uint64_t{0}});
    EXPECT_EQ(seqsOf(ring), (std::vector<uint64_t>{0}));
}

TEST(SeqRing, UnwrittenSlotsAreNotResident)
{
    const long ring_kib = Profiler::DEFAULT_RING_SLOTS *
                          (sizeof(StackSample) + 8) / 1024;
    {
        // A stopped profiler never writes its rings: registering
        // eight threads must not back eight rings with memory.
        // A warm-up round first, so the heap's bookkeeping for the
        // registry is already in place when the measured one runs.
        Profiler profiler;
        std::vector<uint64_t> ids;
        const auto registerEight = [&profiler, &ids] {
            for (int i = 0; i < 8; ++i)
                ids.push_back(profiler.registerCurrentThread("idle"));
        };
        const auto unregisterAll = [&profiler, &ids] {
            for (uint64_t id : ids)
                profiler.unregisterCurrentThread(id);
            ids.clear();
            profiler.reset();
        };
        registerEight();
        unregisterAll();
        const size_t before = test::procStatusKib("RssAnon");
        registerEight();
        const long grown = rssGrowthKib(before);
        EXPECT_LT(grown, ring_kib / 2)
            << "8 registrations grew RSS by " << grown << " KiB; one "
            << "ring is " << ring_kib << " KiB";
        unregisterAll();
    }

    // The measurement can see a ring: filling one backs it.
    SeqRing<StackSample> ring(Profiler::DEFAULT_RING_SLOTS);
    const size_t before = test::procStatusKib("RssAnon");
    StackSample sample;
    for (size_t i = 0; i < ring.capacity(); ++i)
        ring.push(sample);
    EXPECT_GE(rssGrowthKib(before), ring_kib / 2);
}

} // namespace

/**
 * @file
 * Tests for the GPHT predictor — pattern learning, LRU replacement,
 * last-value fallback, the paper's convergence claims, the
 * set-associative PHT geometries, a golden bit-identity oracle
 * over the whole SPEC2000 suite, a differential test against a
 * plain linear-scan reference model and a lockstep check of the
 * rolling GPHR hash against copies reloaded from saved state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <istream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/gpht_predictor.hh"
#include "core/last_value_predictor.hh"
#include "core/phase_classifier.hh"
#include "workload/spec2000.hh"
#include "test_util.hh"

namespace livephase
{
namespace
{

/** Drive a predictor over a sequence; return #correct and #scored. */
std::pair<int, int>
score(PhasePredictor &p, const std::vector<PhaseId> &seq)
{
    p.reset();
    int correct = 0, scored = 0;
    PhaseId pending = INVALID_PHASE;
    for (PhaseId actual : seq) {
        if (pending != INVALID_PHASE) {
            ++scored;
            if (pending == actual)
                ++correct;
        }
        p.observePhase(actual);
        pending = p.predict();
    }
    return {correct, scored};
}

std::vector<PhaseId>
repeatPattern(const std::vector<PhaseId> &period, size_t times)
{
    std::vector<PhaseId> seq;
    for (size_t i = 0; i < times; ++i)
        seq.insert(seq.end(), period.begin(), period.end());
    return seq;
}

TEST(Gpht, ColdPredictorIsInvalid)
{
    GphtPredictor p(8, 128);
    EXPECT_EQ(p.predict(), INVALID_PHASE);
}

TEST(Gpht, ActsAsLastValueUntilGphrFills)
{
    GphtPredictor p(4, 16);
    p.observePhase(2);
    EXPECT_EQ(p.predict(), 2);
    p.observePhase(5);
    EXPECT_EQ(p.predict(), 5);
    p.observePhase(1);
    EXPECT_EQ(p.predict(), 1);
}

TEST(Gpht, LearnsAlternatingPatternPerfectly)
{
    // 1,2,1,2,... defeats last value completely; the GPHT must
    // converge to 100% after warm-up.
    GphtPredictor p(4, 16);
    const auto seq = repeatPattern({1, 2}, 100);
    auto [correct, scored] = score(p, seq);
    // Allow the learning prefix; after that, perfect.
    EXPECT_GE(correct, scored - 12);
}

TEST(Gpht, LearnsLongPeriodicPattern)
{
    GphtPredictor p(8, 128);
    const auto seq = repeatPattern({1, 1, 4, 4, 1, 1, 5, 5, 3, 3}, 40);
    auto [correct, scored] = score(p, seq);
    const double acc = double(correct) / scored;
    EXPECT_GT(acc, 0.9);

    // Last value manages only ~50% on the same sequence.
    LastValuePredictor lv;
    auto [lv_correct, lv_scored] = score(lv, seq);
    EXPECT_LT(double(lv_correct) / lv_scored, 0.55);
}

TEST(Gpht, RelearnsAfterRegionChange)
{
    GphtPredictor p(8, 128);
    auto seq = repeatPattern({1, 3, 1, 3}, 50);
    const auto region_b = repeatPattern({2, 6, 6, 2}, 50);
    seq.insert(seq.end(), region_b.begin(), region_b.end());
    // Return to region A: patterns must still be resident.
    const auto region_a = repeatPattern({1, 3, 1, 3}, 25);
    seq.insert(seq.end(), region_a.begin(), region_a.end());
    auto [correct, scored] = score(p, seq);
    EXPECT_GT(double(correct) / scored, 0.85);
}

TEST(Gpht, ConstantInputIsPerfectAfterFirst)
{
    GphtPredictor p(8, 128);
    const std::vector<PhaseId> seq(200, 4);
    auto [correct, scored] = score(p, seq);
    EXPECT_EQ(correct, scored);
}

TEST(Gpht, NeverWorseThanLastValueOnRandomInput)
{
    // On pattern-free input the GPHT must degrade gracefully to
    // last-value behaviour (paper: fallback guarantees worst-case
    // parity). Allow a small learning tax.
    Rng rng(77);
    std::vector<PhaseId> seq;
    for (int i = 0; i < 2000; ++i)
        seq.push_back(static_cast<PhaseId>(rng.uniformInt(1, 6)));

    GphtPredictor gpht(8, 1024);
    LastValuePredictor lv;
    auto [g_correct, g_scored] = score(gpht, seq);
    auto [l_correct, l_scored] = score(lv, seq);
    ASSERT_EQ(g_scored, l_scored);
    EXPECT_GE(g_correct, l_correct - l_scored / 20);
}

TEST(Gpht, SingleEntryPhtConvergesToLastValue)
{
    // Paper Figure 5: with 1 PHT entry nearly every lookup misses,
    // so predictions equal GPHR[0] (last value).
    GphtPredictor gpht(8, 1);
    LastValuePredictor lv;
    Rng rng(5);
    std::vector<PhaseId> seq;
    for (int i = 0; i < 500; ++i)
        seq.push_back(static_cast<PhaseId>(rng.uniformInt(1, 6)));
    // Compare prediction streams sample by sample.
    gpht.reset();
    lv.reset();
    int disagreements = 0;
    for (PhaseId actual : seq) {
        gpht.observePhase(actual);
        lv.observePhase(actual);
        if (gpht.predict() != lv.predict())
            ++disagreements;
    }
    // Identical except when the single entry happens to hit.
    EXPECT_LT(disagreements, 25);
}

TEST(Gpht, PhtOccupancyIsBounded)
{
    GphtPredictor p(4, 8);
    Rng rng(9);
    for (int i = 0; i < 500; ++i)
        p.observePhase(static_cast<PhaseId>(rng.uniformInt(1, 6)));
    EXPECT_LE(p.phtOccupancy(), 8u);
    EXPECT_GT(p.phtOccupancy(), 0u);
}

TEST(Gpht, LruReplacementEvictsColdPatterns)
{
    // Depth 2, capacity 3: the cycle 1,1,2 produces exactly three
    // distinct history patterns, which all fit — lookups hit. Then
    // flood with fresh patterns and check LRU replacements occur.
    GphtPredictor p(2, 3);
    for (int i = 0; i < 30; ++i) {
        p.observePhase(1);
        p.observePhase(1);
        p.observePhase(2);
    }
    const auto hits_before = p.stats().hits;
    EXPECT_GT(hits_before, 0u);
    for (PhaseId ph : {3, 4, 5, 6, 3, 5, 4, 6})
        p.observePhase(ph);
    EXPECT_GT(p.stats().replacements, 0u);
}

TEST(Gpht, StatsAccounting)
{
    GphtPredictor p(2, 16);
    const auto seq = repeatPattern({1, 2, 3}, 20);
    score(p, seq);
    const auto &s = p.stats();
    EXPECT_GT(s.lookups, 0u);
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.insertions, 0u);
    EXPECT_LE(s.hits, s.lookups);
    EXPECT_EQ(s.hits + s.insertions, s.lookups);
}

TEST(Gpht, ResetRestoresColdState)
{
    GphtPredictor p(4, 32);
    for (int i = 0; i < 50; ++i)
        p.observePhase(1 + (i % 3));
    p.reset();
    EXPECT_EQ(p.predict(), INVALID_PHASE);
    EXPECT_EQ(p.phtOccupancy(), 0u);
    EXPECT_EQ(p.stats().lookups, 0u);
    EXPECT_EQ(p.gphrContents(),
              std::vector<PhaseId>(4, INVALID_PHASE));
}

TEST(Gpht, GphrShiftsNewestFirst)
{
    GphtPredictor p(3, 8);
    p.observePhase(1);
    p.observePhase(2);
    p.observePhase(3);
    EXPECT_EQ(p.gphrContents(), (std::vector<PhaseId>{3, 2, 1}));
    p.observePhase(4);
    EXPECT_EQ(p.gphrContents(), (std::vector<PhaseId>{4, 3, 2}));
}

TEST(Gpht, NameEncodesConfiguration)
{
    EXPECT_EQ(GphtPredictor(8, 1024).name(), "GPHT_8_1024");
    EXPECT_EQ(GphtPredictor(8, 128).name(), "GPHT_8_128");
}

TEST(Gpht, InvalidConfigIsFatal)
{
    EXPECT_FAILURE(GphtPredictor(0, 128));
    EXPECT_FAILURE(GphtPredictor(8, 0));
}

/**
 * Property sweep: for every (depth, entries) configuration, a
 * periodic pattern whose windows are unambiguous converges to
 * high accuracy once the PHT can hold the period's patterns.
 */
class GphtConfigSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(GphtConfigSweep, PeriodicPatternAccuracy)
{
    const auto [depth, entries] = GetParam();
    GphtPredictor p(depth, entries);
    // Period 8 with all circular 4-grams distinct: depth >= 4
    // disambiguates fully.
    const auto seq = repeatPattern({1, 1, 2, 2, 1, 1, 5, 5}, 60);
    auto [correct, scored] = score(p, seq);
    const double acc = double(correct) / scored;
    if (depth >= 4 && entries >= 8) {
        // Window disambiguates the period and all patterns fit:
        // near perfect.
        EXPECT_GT(acc, 0.9) << "depth=" << depth
                            << " entries=" << entries;
    } else if (depth >= 2 || entries == 1) {
        // Degraded configurations (partial pattern coverage, or
        // miss-dominated tables falling back to last value) must
        // still clearly beat random guessing.
        EXPECT_GT(acc, 0.3) << "depth=" << depth
                            << " entries=" << entries;
    } else {
        // depth 1 with a large PHT is the known pathological
        // corner: single-phase histories are deeply ambiguous and
        // stale trained predictions can lag systematically. Sanity
        // only.
        EXPECT_GE(acc, 0.0);
        EXPECT_LE(acc, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GphtConfigSweep,
    ::testing::Combine(::testing::Values(size_t(1), size_t(2),
                                         size_t(4), size_t(8),
                                         size_t(12)),
                       ::testing::Values(size_t(1), size_t(8),
                                         size_t(64), size_t(128),
                                         size_t(1024))));

TEST(SetAssocGpht, GeometryAndName)
{
    GphtPredictor p(8, 32, 4);
    EXPECT_EQ(p.phtEntries(), 128u);
    EXPECT_EQ(p.sets(), 32u);
    EXPECT_EQ(p.ways(), 4u);
    EXPECT_EQ(p.gphrDepth(), 8u);
    EXPECT_EQ(p.name(), "GPHTsa_8_32x4");
}

TEST(SetAssocGpht, LearnsPeriodicPatterns)
{
    GphtPredictor p(8, 32, 4);
    const auto seq =
        repeatPattern({1, 1, 4, 4, 1, 1, 5, 5, 3, 3}, 50);
    auto [correct, scored] = score(p, seq);
    EXPECT_GT(double(correct) / scored, 0.9);
}

TEST(SetAssocGpht, MatchesFullyAssociativeAtEqualCapacity)
{
    // Same capacity, structured workload: the hashed design should
    // track the fully associative one closely.
    GphtPredictor hashed(8, 32, 4);
    GphtPredictor full(8, 128);
    const auto seq =
        repeatPattern({1, 2, 2, 6, 6, 1, 3, 3, 1, 2, 5, 5}, 60);
    auto [h_correct, n1] = score(hashed, seq);
    auto [f_correct, n2] = score(full, seq);
    ASSERT_EQ(n1, n2);
    EXPECT_GE(h_correct, f_correct - n1 / 20);
}

TEST(SetAssocGpht, DirectMappedSuffersConflicts)
{
    // 128 sets x 1 way vs 32 x 4: same capacity, but the
    // direct-mapped table cannot keep colliding patterns resident.
    // With many distinct patterns, the 4-way design replaces less
    // or hits more.
    Rng rng(3);
    std::vector<PhaseId> period;
    for (int i = 0; i < 40; ++i)
        period.push_back(static_cast<PhaseId>(rng.uniformInt(1, 6)));
    const auto seq = repeatPattern(period, 30);

    GphtPredictor direct(8, 128, 1);
    GphtPredictor assoc(8, 32, 4);
    auto [d_correct, n1] = score(direct, seq);
    auto [a_correct, n2] = score(assoc, seq);
    ASSERT_EQ(n1, n2);
    // Associativity never hurts on this workload.
    EXPECT_GE(a_correct, d_correct);
}

TEST(SetAssocGpht, FallsBackToLastValueBeforeWarmup)
{
    GphtPredictor p(4, 8, 2);
    p.observePhase(3);
    EXPECT_EQ(p.predict(), 3);
    p.observePhase(5);
    EXPECT_EQ(p.predict(), 5);
}

TEST(SetAssocGpht, StatsAreConsistent)
{
    GphtPredictor p(4, 4, 2);
    const auto seq = repeatPattern({1, 2, 3, 4, 5, 6}, 40);
    score(p, seq);
    const auto &s = p.stats();
    EXPECT_GT(s.lookups, 0u);
    EXPECT_EQ(s.hits + s.insertions, s.lookups);
}

TEST(SetAssocGpht, ResetRestoresColdState)
{
    GphtPredictor p(4, 8, 2);
    for (int i = 0; i < 40; ++i)
        p.observePhase(1 + i % 4);
    p.reset();
    EXPECT_EQ(p.predict(), INVALID_PHASE);
    EXPECT_EQ(p.phtOccupancy(), 0u);
    EXPECT_EQ(p.stats().lookups, 0u);
}

TEST(SetAssocGpht, InvalidGeometryIsFatal)
{
    EXPECT_FAILURE(GphtPredictor(0, 8, 2));
    EXPECT_FAILURE(GphtPredictor(8, 0, 2));
    EXPECT_FAILURE(GphtPredictor(8, 8, 0));
}

/** Property: across geometries of equal capacity, accuracy on a
 *  structured workload stays within a band of the full-assoc
 *  reference. */
class GeometrySweep
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(GeometrySweep, NearFullAssociativeAccuracy)
{
    const auto [sets, ways] = GetParam();
    GphtPredictor hashed(8, sets, ways);
    GphtPredictor full(8, sets * ways);
    const auto seq =
        repeatPattern({1, 1, 2, 2, 1, 1, 5, 5, 3, 3, 6, 6}, 60);
    auto [h_correct, n1] = score(hashed, seq);
    auto [f_correct, n2] = score(full, seq);
    ASSERT_EQ(n1, n2);
    EXPECT_GE(h_correct, f_correct - n1 / 10)
        << sets << "x" << ways;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(std::pair<size_t, size_t>{128, 1},
                      std::pair<size_t, size_t>{64, 2},
                      std::pair<size_t, size_t>{32, 4},
                      std::pair<size_t, size_t>{16, 8},
                      std::pair<size_t, size_t>{8, 16}));

/** Every per-sample prediction and the final Stats of one predictor
 *  run cold over each SPEC2000 generator (2000 samples, seed 1). */
struct SuiteRun
{
    std::vector<PhaseId> predictions;
    std::vector<uint64_t> counters; ///< lookups, hits, insertions,
                                    ///< replacements per generator
};

SuiteRun
runSuite(GphtPredictor &p)
{
    const PhaseClassifier classifier = PhaseClassifier::table1();
    SuiteRun run;
    for (const SpecBenchmark &bench : Spec2000Suite::all()) {
        const IntervalTrace trace = bench.makeTrace(2000, 1);
        p.reset();
        for (size_t i = 0; i < trace.size(); ++i) {
            p.observe(classifier.sample(trace.at(i).mem_per_uop));
            run.predictions.push_back(p.predict());
        }
        const auto &s = p.stats();
        run.counters.insert(run.counters.end(), {s.lookups, s.hits,
                                                 s.insertions,
                                                 s.replacements});
    }
    return run;
}

/** FNV-1a over a SuiteRun, one 8-byte little-endian word per
 *  value. */
uint64_t
digest(const SuiteRun &run)
{
    uint64_t hash = 1469598103934665603ULL;
    auto fold = [&hash](uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (word >> (8 * i)) & 0xff;
            hash *= 1099511628211ULL;
        }
    };
    for (PhaseId id : run.predictions)
        fold(static_cast<uint32_t>(id));
    for (uint64_t c : run.counters)
        fold(c);
    return hash;
}

/** One PHT geometry and the digest its runSuite() must produce. */
struct GoldenCase
{
    size_t depth;
    size_t sets; ///< 0: the two-argument (fully associative) form
    size_t ways;
    uint64_t digest;
};

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << "depth " << c.depth << ", ";
    if (c.sets == 0)
        *os << "fully associative " << c.ways;
    else
        *os << c.sets << "x" << c.ways;
}

class GphtGolden : public ::testing::TestWithParam<GoldenCase>
{
};

/**
 * Bit-identity oracle. The constants were recorded from the
 * separate fully associative and set-associative GPHT classes this
 * one class replaced, so any change to lookup, training, victim
 * order or statistics shows up here.
 */
TEST_P(GphtGolden, SuiteDigestIsUnchanged)
{
    const GoldenCase c = GetParam();
    GphtPredictor p = c.sets == 0 ? GphtPredictor(c.depth, c.ways)
                                  : GphtPredictor(c.depth, c.sets,
                                                  c.ways);
    EXPECT_EQ(digest(runSuite(p)), c.digest) << p.name();
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GphtGolden,
    ::testing::Values(
        GoldenCase{1, 0, 128, 0xc4e14d139a4b6839ULL},
        GoldenCase{2, 0, 128, 0x1582a3368bbf0d71ULL},
        GoldenCase{4, 0, 128, 0x43c952df08a46654ULL},
        GoldenCase{6, 0, 128, 0x95bb54f0598afefaULL},
        GoldenCase{8, 0, 128, 0xb39f53f47e988a28ULL},
        GoldenCase{12, 0, 128, 0xac069f153e19f0b7ULL},
        GoldenCase{16, 0, 128, 0x60c7c4cfbb1341b7ULL},
        GoldenCase{8, 0, 1024, 0xa5faf571ae93f008ULL},
        GoldenCase{8, 128, 1, 0x40971798520233a1ULL},
        GoldenCase{8, 64, 2, 0xa0da8bfe7fdeb978ULL},
        GoldenCase{8, 32, 4, 0x7fefc00da166e716ULL},
        GoldenCase{8, 16, 8, 0xe6990e0870890777ULL},
        GoldenCase{8, 1, 128, 0xb39f53f47e988a28ULL}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        const GoldenCase &c = info.param;
        return c.sets == 0
            ? "full_" + std::to_string(c.depth) + "_" +
                std::to_string(c.ways)
            : "sa_" + std::to_string(c.depth) + "_" +
                std::to_string(c.sets) + "x" + std::to_string(c.ways);
    });

TEST(Gpht, OneSetIsTheFullyAssociativeTable)
{
    for (const auto &[depth, entries] :
         {std::pair<size_t, size_t>{8, 128}, {4, 8}, {12, 1024}}) {
        GphtPredictor full(depth, entries);
        GphtPredictor one_set(depth, 1, entries);
        EXPECT_EQ(one_set.name(), full.name());
        const SuiteRun a = runSuite(full);
        const SuiteRun b = runSuite(one_set);
        EXPECT_EQ(a.predictions, b.predictions) << full.name();
        EXPECT_EQ(a.counters, b.counters) << full.name();
    }
}

/**
 * Reference model for the differential tests: the GPHT as the paper
 * describes it, with one tag vector per entry, a linear scan over
 * every tag of the set and the first-invalid-else-oldest victim
 * rule. It shares only the set hash with GphtPredictor, so any
 * shortcut in the real lookup that changes which entry is found
 * shows up as a diverging prediction or counter.
 */
struct ReferenceGpht
{
    size_t depth, sets, ways;
    std::vector<PhaseId> gphr; ///< newest first
    size_t fill = 0;
    std::vector<std::vector<PhaseId>> tags;
    std::vector<int64_t> ages; ///< -1 = invalid
    std::vector<PhaseId> preds;
    int64_t clock = 0;
    int64_t pending = -1;
    GphtPredictor::Stats stats;

    ReferenceGpht(size_t d, size_t s, size_t w)
        : depth(d), sets(s), ways(w), gphr(d, INVALID_PHASE),
          tags(s * w, std::vector<PhaseId>(d, INVALID_PHASE)),
          ages(s * w, -1), preds(s * w, INVALID_PHASE)
    {
    }

    size_t setBase() const
    {
        uint64_t hash = 1469598103934665603ULL;
        for (PhaseId p : gphr) {
            hash ^= static_cast<uint32_t>(p);
            hash *= 1099511628211ULL;
        }
        return static_cast<size_t>(hash % sets) * ways;
    }

    PhaseId step(PhaseId phase)
    {
        if (pending >= 0)
            preds[static_cast<size_t>(pending)] = phase;
        pending = -1;
        gphr.insert(gphr.begin(), phase);
        gphr.pop_back();
        fill = std::min(fill + 1, depth);
        if (fill < depth)
            return phase;
        ++stats.lookups;
        const size_t base = setBase();
        for (size_t e = base; e < base + ways; ++e) {
            if (ages[e] >= 0 && tags[e] == gphr) {
                ++stats.hits;
                ages[e] = ++clock;
                pending = static_cast<int64_t>(e);
                return preds[e] != INVALID_PHASE ? preds[e] : phase;
            }
        }
        size_t victim = base;
        for (size_t e = base; e < base + ways; ++e) {
            if (ages[e] < 0) {
                victim = e;
                break;
            }
            if (ages[e] < ages[victim])
                victim = e;
        }
        if (ages[victim] >= 0)
            ++stats.replacements;
        ++stats.insertions;
        tags[victim] = gphr;
        preds[victim] = INVALID_PHASE;
        ages[victim] = ++clock;
        pending = static_cast<int64_t>(victim);
        return phase;
    }

    size_t occupancy() const
    {
        return static_cast<size_t>(std::count_if(
            ages.begin(), ages.end(), [](int64_t a) { return a >= 0; }));
    }

    /** Read a `GPHT-STATE 1` text (fully associative only). */
    void load(std::istream &is)
    {
        std::string magic;
        int version = 0;
        size_t d = 0, n = 0;
        PhaseId prediction = INVALID_PHASE;
        is >> magic >> version >> d >> n >> fill >> clock >> pending >>
            prediction;
        ASSERT_EQ(magic, "GPHT-STATE");
        ASSERT_EQ(d, depth);
        ASSERT_EQ(n, sets * ways);
        for (PhaseId &p : gphr)
            is >> p;
        for (size_t e = 0; e < n; ++e) {
            is >> ages[e] >> preds[e];
            tags[e].assign(depth, INVALID_PHASE);
            if (ages[e] >= 0)
                for (PhaseId &p : tags[e])
                    is >> p;
        }
        ASSERT_TRUE(is) << "malformed state text";
        stats = {};
    }
};

void
expectSameStats(const GphtPredictor::Stats &got,
                const GphtPredictor::Stats &want, size_t step)
{
    EXPECT_EQ(got.lookups, want.lookups) << "step " << step;
    EXPECT_EQ(got.hits, want.hits) << "step " << step;
    EXPECT_EQ(got.insertions, want.insertions) << "step " << step;
    EXPECT_EQ(got.replacements, want.replacements) << "step " << step;
}

/**
 * Drive `p` and `ref` in lockstep over `seq`, alternating single
 * observe() steps with batched runs of up to 64, and compare every
 * prediction and every Stats field. Stops at the first divergence.
 */
void
expectLockstep(GphtPredictor &p, ReferenceGpht &ref,
               const std::vector<PhaseId> &seq)
{
    std::vector<PhaseSample> samples;
    std::vector<PhaseId> got;
    for (size_t i = 0; i < seq.size();) {
        const size_t n = (i / 64) % 2 == 0
            ? 1 : std::min<size_t>(1 + i % 64, seq.size() - i);
        samples.clear();
        for (size_t k = 0; k < n; ++k)
            samples.push_back({seq[i + k], 0.0});
        got.assign(n, INVALID_PHASE);
        p.observeAndPredictBatch(samples, got);
        for (size_t k = 0; k < n; ++k) {
            const PhaseId want = ref.step(seq[i + k]);
            ASSERT_EQ(got[k], want)
                << p.name() << " diverged at step " << i + k;
        }
        i += n;
        ASSERT_EQ(p.predict(), got.back());
        expectSameStats(p.stats(), ref.stats, i);
        ASSERT_FALSE(::testing::Test::HasFailure())
            << p.name() << " counters diverged at step " << i;
    }
    EXPECT_EQ(p.phtOccupancy(), ref.occupancy()) << p.name();
    EXPECT_EQ(p.gphrContents(), ref.gphr) << p.name();
}

/** `size` distinct phases: small ids, ids near INT_MAX and negative
 *  ids, so every byte of a PhaseId feeds the hash. */
std::vector<PhaseId>
alphabet(size_t size)
{
    std::vector<PhaseId> ids;
    for (size_t i = 0; i < size; ++i) {
        const PhaseId k = static_cast<PhaseId>(i / 3 + 1);
        ids.push_back(i % 3 == 0 ? k : i % 3 == 1 ? INT_MAX - k : -k);
    }
    return ids;
}

/** Seeded stream mixing repeated loops (PHT hits) with random runs
 *  (misses, installs and, once the table is full, replacements). */
std::vector<PhaseId>
mixedStream(const std::vector<PhaseId> &ids, size_t length,
            uint64_t seed)
{
    Rng rng(seed);
    auto draw = [&] {
        return ids[static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(ids.size()) - 1))];
    };
    std::vector<PhaseId> seq;
    while (seq.size() < length) {
        const size_t run = static_cast<size_t>(rng.uniformInt(1, 200));
        if (rng.chance(0.5)) {
            std::vector<PhaseId> loop(
                static_cast<size_t>(rng.uniformInt(1, 24)));
            for (PhaseId &p : loop)
                p = draw();
            for (size_t k = 0; k < run; ++k)
                seq.push_back(loop[k % loop.size()]);
        } else {
            for (size_t k = 0; k < run; ++k)
                seq.push_back(draw());
        }
    }
    seq.resize(length);
    return seq;
}

struct DiffCase
{
    size_t depth;
    size_t sets;
    size_t ways;
    size_t alphabet;
};

void
PrintTo(const DiffCase &c, std::ostream *os)
{
    *os << "depth " << c.depth << ", " << c.sets << "x" << c.ways
        << ", " << c.alphabet << " phases";
}

class GphtDifferential : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(GphtDifferential, MatchesLinearScanReference)
{
    const DiffCase c = GetParam();
    const std::vector<PhaseId> ids = alphabet(c.alphabet);
    for (uint64_t seed = 1; seed <= 2; ++seed) {
        GphtPredictor p(c.depth, c.sets, c.ways);
        ReferenceGpht ref(c.depth, c.sets, c.ways);
        expectLockstep(p, ref, mixedStream(ids, 12000, seed));
        if (HasFailure())
            return;
        // Where there are more patterns than entries, the table was
        // driven past capacity and replacement was exercised.
        size_t patterns = 1;
        for (size_t i = 0; i < c.depth && patterns <= c.sets * c.ways;
             ++i)
            patterns *= c.alphabet;
        if (patterns > c.sets * c.ways) {
            EXPECT_GT(p.stats().replacements, 0u) << p.name();
        }
        EXPECT_GT(p.stats().hits, 0u) << p.name();

        // reset() must clear the fingerprints with everything else.
        p.reset();
        ReferenceGpht cold(c.depth, c.sets, c.ways);
        expectLockstep(p, cold, mixedStream(ids, 2000, seed + 100));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GphtDifferential,
    ::testing::ValuesIn([] {
        // 8x1024 fully associative: about four same-fingerprint
        // candidates per lookup once full, so collisions are certain.
        const DiffCase shapes[] = {{8, 1, 1024, 0}, {8, 1, 128, 0},
                                   {8, 16, 8, 0},   {1, 1, 128, 0},
                                   {1, 16, 8, 0},   {16, 1, 128, 0},
                                   {16, 16, 8, 0}};
        std::vector<DiffCase> cases;
        for (DiffCase c : shapes)
            for (size_t a : {2, 6, 300}) {
                c.alphabet = a;
                cases.push_back(c);
            }
        return cases;
    }()),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        const DiffCase &c = info.param;
        return "d" + std::to_string(c.depth) + "_" +
            std::to_string(c.sets) + "x" + std::to_string(c.ways) +
            "_a" + std::to_string(c.alphabet);
    });

TEST(GphtDifferential, LoadedStateMatchesReference)
{
    // Depth 2, four entries: invalid holes at 0 and 2 ahead of valid
    // entries, and entries 1 and 3 holding the same tag [1, 2] with
    // different predictions. Fingerprints are not in the text, so
    // loadState() must rebuild them, and the lookup must still pick
    // the lower index.
    const std::string state = "GPHT-STATE 1\n"
                              "2 4\n"
                              "2 7 -1 2\n"
                              "2 9 \n"
                              "-1 0\n"
                              "5 3 1 2\n"
                              "-1 0\n"
                              "7 4 1 2\n";
    GphtPredictor p(2, 4);
    std::istringstream in(state);
    p.loadState(in);
    ReferenceGpht ref(2, 1, 4);
    std::istringstream ref_in(state);
    ref.load(ref_in);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_EQ(p.phtOccupancy(), 2u);

    // Observing 1 makes the GPHR [1, 2]: both valid entries match
    // and entry 1 (prediction 3) must win over entry 3 (4).
    std::vector<PhaseId> seq = {1};
    // Then misses fill the holes (0 before 2) and evict entry 3,
    // the oldest once entry 1 has been touched.
    for (PhaseId ph : {5, 6, 5, 9, 1, 2, 1})
        seq.push_back(ph);
    const std::vector<PhaseId> tail =
        mixedStream({1, 2, 5, 6, 9}, 3000, 7);
    seq.insert(seq.end(), tail.begin(), tail.end());
    {
        GphtPredictor probe = p;
        probe.observePhase(1);
        EXPECT_EQ(probe.predict(), 3) << "the first match by index";
    }
    expectLockstep(p, ref, seq);
}

struct RollCase
{
    size_t depth;
    size_t alphabet;
};

void
PrintTo(const RollCase &c, std::ostream *os)
{
    *os << "depth " << c.depth << ", " << c.alphabet << " phases";
}

class GphtRollingHash : public ::testing::TestWithParam<RollCase>
{
};

/**
 * step() rolls the GPHR's hash forward one shift at a time, while
 * loadState() recomputes it and every entry's fingerprint from
 * scratch. If the two hashes disagreed, a reloaded copy would miss
 * entries the live predictor hits (or the other way round), and its
 * predictions or Stats would drift from the live one's. Every 97
 * steps the copy is reloaded from the live state; in between, the
 * live predictor runs batched and the copy one observe() at a time.
 */
TEST_P(GphtRollingHash, ReloadedCopyStaysInLockstep)
{
    const RollCase c = GetParam();
    const std::vector<PhaseId> seq =
        mixedStream(alphabet(c.alphabet), 6000, 5);
    GphtPredictor live(c.depth, 128);
    GphtPredictor copy(c.depth, 128);
    std::vector<PhaseSample> window;
    std::vector<PhaseId> got;
    for (size_t at = 0; at < seq.size(); at += 97) {
        std::stringstream state;
        live.saveState(state);
        copy.loadState(state);
        const GphtPredictor::Stats base = live.stats();

        const size_t n = std::min<size_t>(97, seq.size() - at);
        window.clear();
        for (size_t k = 0; k < n; ++k)
            window.push_back({seq[at + k], 0.0});
        got.assign(n, INVALID_PHASE);
        live.observeAndPredictBatch(window, got);
        for (size_t k = 0; k < n; ++k) {
            copy.observe(window[k]);
            ASSERT_EQ(copy.predict(), got[k])
                << live.name() << " diverged at step " << at + k;
        }
        const GphtPredictor::Stats &s = live.stats();
        GphtPredictor::Stats delta;
        delta.lookups = s.lookups - base.lookups;
        delta.hits = s.hits - base.hits;
        delta.insertions = s.insertions - base.insertions;
        delta.replacements = s.replacements - base.replacements;
        expectSameStats(copy.stats(), delta, at + n);
        std::stringstream live_text, copy_text;
        live.saveState(live_text);
        copy.saveState(copy_text);
        ASSERT_EQ(copy_text.str(), live_text.str()) << "step " << at + n;
        ASSERT_FALSE(HasFailure());
    }
    EXPECT_GT(live.stats().hits, 0u) << live.name();
    EXPECT_GT(live.stats().insertions, 0u) << live.name();
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndAlphabets, GphtRollingHash,
    ::testing::ValuesIn([] {
        std::vector<RollCase> cases;
        for (size_t depth : {1, 8, 16})
            for (size_t a : {2, 6, 300})
                cases.push_back({depth, a});
        return cases;
    }()),
    [](const ::testing::TestParamInfo<RollCase> &info) {
        return "d" + std::to_string(info.param.depth) + "_a" +
            std::to_string(info.param.alphabet);
    });

} // namespace
} // namespace livephase

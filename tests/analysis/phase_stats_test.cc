/**
 * @file
 * Tests for phase-behaviour statistics and GPHT state persistence.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/phase_stats.hh"
#include "core/gpht_predictor.hh"
#include "workload/spec2000.hh"
#include "test_util.hh"

namespace livephase
{
namespace
{

IntervalTrace
traceFromLevels(const std::vector<double> &levels)
{
    IntervalTrace t("levels");
    for (double m : levels) {
        Interval ivl;
        ivl.uops = 100e6;
        ivl.mem_per_uop = m;
        t.append(ivl);
    }
    return t;
}

TEST(PhaseStats, OccupancyAndRuns)
{
    // Phases: 1,1,1,6,6,1 -> phase 1: 4 samples, 2 runs (3 and 1);
    // phase 6: 2 samples, 1 run of 2.
    const IntervalTrace t = traceFromLevels(
        {0.001, 0.001, 0.001, 0.05, 0.05, 0.001});
    const PhaseStats stats =
        computePhaseStats(t, PhaseClassifier::table1());
    EXPECT_EQ(stats.total_samples, 6u);
    EXPECT_EQ(stats.of(1).samples, 4u);
    EXPECT_EQ(stats.of(1).runs, 2u);
    EXPECT_DOUBLE_EQ(stats.of(1).mean_run_length, 2.0);
    EXPECT_EQ(stats.of(1).max_run_length, 3u);
    EXPECT_NEAR(stats.of(1).residency, 4.0 / 6.0, 1e-12);
    EXPECT_EQ(stats.of(6).samples, 2u);
    EXPECT_EQ(stats.of(6).runs, 1u);
    EXPECT_EQ(stats.of(6).max_run_length, 2u);
    EXPECT_EQ(stats.of(3).samples, 0u);
    EXPECT_EQ(stats.phasesVisited(), 2);
}

TEST(PhaseStats, TransitionMatrixAndRate)
{
    const IntervalTrace t = traceFromLevels(
        {0.001, 0.001, 0.001, 0.05, 0.05, 0.001});
    const PhaseStats stats =
        computePhaseStats(t, PhaseClassifier::table1());
    // Boundaries: 1->1, 1->1, 1->6, 6->6, 6->1.
    EXPECT_EQ(stats.transition_counts[0][0], 2u);
    EXPECT_EQ(stats.transition_counts[0][5], 1u);
    EXPECT_EQ(stats.transition_counts[5][5], 1u);
    EXPECT_EQ(stats.transition_counts[5][0], 1u);
    EXPECT_NEAR(stats.transition_rate, 2.0 / 5.0, 1e-12);
}

TEST(PhaseStats, ConstantTraceHasZeroEntropy)
{
    const IntervalTrace t =
        traceFromLevels(std::vector<double>(40, 0.012));
    const PhaseStats stats =
        computePhaseStats(t, PhaseClassifier::table1());
    EXPECT_DOUBLE_EQ(stats.transition_rate, 0.0);
    EXPECT_DOUBLE_EQ(stats.conditionalEntropyBits(), 0.0);
    EXPECT_EQ(stats.of(3).runs, 1u);
    EXPECT_EQ(stats.of(3).max_run_length, 40u);
}

TEST(PhaseStats, AlternationHasZeroConditionalEntropy)
{
    // 1,6,1,6: next phase is fully determined by the current one.
    std::vector<double> levels;
    for (int i = 0; i < 40; ++i)
        levels.push_back(i % 2 == 0 ? 0.001 : 0.05);
    const PhaseStats stats = computePhaseStats(
        traceFromLevels(levels), PhaseClassifier::table1());
    EXPECT_DOUBLE_EQ(stats.transition_rate, 1.0);
    EXPECT_NEAR(stats.conditionalEntropyBits(), 0.0, 1e-12);
}

TEST(PhaseStats, FairCoinHasOneBitOfEntropy)
{
    // Phases 1 and 6 in a balanced, maximally unpredictable
    // alternation pattern: 1,1,6,6 repeated gives each current
    // phase a 50/50 successor split.
    std::vector<double> levels;
    for (int i = 0; i < 400; ++i)
        levels.push_back((i / 2) % 2 == 0 ? 0.001 : 0.05);
    const PhaseStats stats = computePhaseStats(
        traceFromLevels(levels), PhaseClassifier::table1());
    EXPECT_NEAR(stats.conditionalEntropyBits(), 1.0, 0.02);
}

TEST(PhaseStats, ExplainsLastValueAccuracy)
{
    // Last-value accuracy == 1 - transition rate, by construction.
    const IntervalTrace applu =
        Spec2000Suite::byName("applu_in").makeTrace(500, 1);
    const PhaseStats stats =
        computePhaseStats(applu, PhaseClassifier::table1());
    EXPECT_GT(stats.transition_rate, 0.4);
    EXPECT_GT(stats.phasesVisited(), 2);
}

TEST(PhaseStats, ValidationAndAccessors)
{
    IntervalTrace empty("empty");
    EXPECT_FAILURE(
        computePhaseStats(empty, PhaseClassifier::table1()));
    const PhaseStats stats = computePhaseStats(
        traceFromLevels({0.001}), PhaseClassifier::table1());
    EXPECT_FAILURE(stats.of(0));
    EXPECT_FAILURE(stats.of(7));
    EXPECT_DOUBLE_EQ(stats.transition_rate, 0.0);
}

TEST(GphtPersistence, SaveLoadRoundTripPreservesPredictions)
{
    GphtPredictor original(8, 64);
    const std::vector<PhaseId> period{1, 1, 4, 4, 1, 1, 5, 5};
    for (int rep = 0; rep < 30; ++rep)
        for (PhaseId p : period)
            original.observePhase(p);

    std::stringstream state;
    original.saveState(state);
    GphtPredictor restored(8, 64);
    restored.loadState(state);

    // Both predictors must now behave identically on a further
    // pass over the pattern.
    for (int rep = 0; rep < 3; ++rep) {
        for (PhaseId p : period) {
            original.observePhase(p);
            restored.observePhase(p);
            EXPECT_EQ(original.predict(), restored.predict());
        }
    }
    EXPECT_EQ(original.phtOccupancy(), restored.phtOccupancy());
    EXPECT_EQ(original.gphrContents(), restored.gphrContents());
}

TEST(GphtPersistence, WarmStartSkipsRelearning)
{
    // A freshly loaded predictor must predict the learned pattern
    // correctly right away (modulo the one pending training step).
    GphtPredictor trained(8, 64);
    const std::vector<PhaseId> period{1, 2, 1, 6, 1, 2, 1, 5};
    for (int rep = 0; rep < 40; ++rep)
        for (PhaseId p : period)
            trained.observePhase(p);
    std::stringstream state;
    trained.saveState(state);

    GphtPredictor warm(8, 64);
    warm.loadState(state);
    int correct = 0, scored = 0;
    PhaseId pending = warm.predict();
    for (int rep = 0; rep < 4; ++rep) {
        for (PhaseId p : period) {
            if (pending != INVALID_PHASE) {
                ++scored;
                if (pending == p)
                    ++correct;
            }
            warm.observePhase(p);
            pending = warm.predict();
        }
    }
    EXPECT_GE(correct, scored - 2);
}

TEST(GphtPersistence, RejectsCorruptOrMismatchedState)
{
    GphtPredictor p(8, 64);
    {
        std::stringstream garbage("not a state file");
        EXPECT_FAILURE(p.loadState(garbage));
    }
    {
        GphtPredictor other(4, 64);
        std::stringstream state;
        other.saveState(state);
        EXPECT_FAILURE(p.loadState(state)); // depth mismatch
    }
    {
        GphtPredictor other(8, 128);
        std::stringstream state;
        other.saveState(state);
        EXPECT_FAILURE(p.loadState(state)); // capacity mismatch
    }
    {
        std::stringstream truncated("GPHT-STATE 1\n8 64\n");
        EXPECT_FAILURE(p.loadState(truncated));
    }
}

TEST(GphtPersistence, SavedTextIsUnchanged)
{
    // Golden `GPHT-STATE 1` text: a restart must be able to load
    // state saved by earlier builds, and they must load ours.
    GphtPredictor p(3, 10);
    for (PhaseId ph : {1, 2, 1, 3, 1, 2, 1, 3, 2, 2, 4, 1, 2})
        p.observePhase(ph);
    std::stringstream state;
    p.saveState(state);
    const std::string golden = "GPHT-STATE 1\n"
                               "3 10\n"
                               "3 11 8 2\n"
                               "2 1 4 \n"
                               "5 3 1 2 1\n"
                               "6 2 3 1 2\n"
                               "3 2 1 3 1\n"
                               "4 1 2 1 3\n"
                               "7 2 2 3 1\n"
                               "8 4 2 2 3\n"
                               "9 1 4 2 2\n"
                               "10 2 1 4 2\n"
                               "11 0 2 1 4\n"
                               "-1 0\n";
    EXPECT_EQ(state.str(), golden);

    GphtPredictor restored(3, 10);
    restored.loadState(state);
    std::stringstream again;
    restored.saveState(again);
    EXPECT_EQ(again.str(), golden);
}

/** `GPHT-STATE 1` text of a (3, 10) predictor that has learned
 *  nothing: every PHT row invalid. */
const char *const COLD_3X10_STATE = "GPHT-STATE 1\n"
                                    "3 10\n"
                                    "0 0 -1 0\n"
                                    "0 0 0 \n"
                                    "-1 0\n"
                                    "-1 0\n"
                                    "-1 0\n"
                                    "-1 0\n"
                                    "-1 0\n"
                                    "-1 0\n"
                                    "-1 0\n"
                                    "-1 0\n"
                                    "-1 0\n"
                                    "-1 0\n";

TEST(GphtPersistence, ColdAndResetPredictorsSaveAllInvalidRows)
{
    // The PHT holds only the rows installed so far; the rows it has
    // not grown to must still be written, as invalid ones.
    GphtPredictor cold(3, 10);
    std::stringstream cold_state;
    cold.saveState(cold_state);
    EXPECT_EQ(cold_state.str(), COLD_3X10_STATE);

    GphtPredictor reset(3, 10);
    for (PhaseId ph : {1, 2, 1, 3, 1, 2, 1, 3, 2, 2, 4, 1, 2})
        reset.observePhase(ph);
    reset.reset();
    std::stringstream reset_state;
    reset.saveState(reset_state);
    EXPECT_EQ(reset_state.str(), COLD_3X10_STATE);
}

TEST(GphtPersistence, HolesAndPendingTrainPastLastValidEntryLoad)
{
    // Hand-written state: invalid rows between valid ones (one with
    // a stale prediction), and pending_train on an invalid row after
    // the last valid entry. The expected text and predictions were
    // recorded from the full-size table this format was made for.
    const std::string holes = "GPHT-STATE 1\n"
                              "3 10\n"
                              "3 7 6 2\n"
                              "2 1 4 \n"
                              "5 3 1 2 1\n"
                              "-1 0\n"
                              "6 2 3 1 2\n"
                              "-1 4\n"
                              "7 1 2 1 3\n"
                              "-1 0\n"
                              "-1 0\n"
                              "-1 0\n"
                              "-1 0\n"
                              "-1 0\n";
    GphtPredictor p(3, 10);
    std::stringstream in(holes);
    p.loadState(in);
    std::stringstream loaded;
    p.saveState(loaded);
    EXPECT_EQ(loaded.str(), holes);
    EXPECT_EQ(p.phtOccupancy(), 3u);

    const PhaseId seq[] = {1, 2, 1, 3, 2, 2, 4, 1, 3, 1, 2, 1};
    std::string predictions;
    for (size_t i = 0; i < 32; ++i) {
        p.observePhase(seq[i % 12]);
        predictions += std::to_string(p.predict());
    }
    EXPECT_EQ(predictions, "32222241311312132241312312132241");
    EXPECT_EQ(p.stats().lookups, 32u);
    EXPECT_EQ(p.stats().hits, 8u);
    EXPECT_EQ(p.stats().insertions, 24u);
    EXPECT_EQ(p.stats().replacements, 17u);

    std::stringstream after;
    p.saveState(after);
    EXPECT_EQ(after.str(), "GPHT-STATE 1\n"
                           "3 10\n"
                           "3 39 9 1\n"
                           "1 4 2 \n"
                           "34 3 1 2 1\n"
                           "30 1 2 1 3\n"
                           "32 2 1 1 2\n"
                           "33 1 2 1 1\n"
                           "29 2 1 3 1\n"
                           "35 2 3 1 2\n"
                           "36 2 2 3 1\n"
                           "37 4 2 2 3\n"
                           "38 1 4 2 2\n"
                           "39 0 1 4 2\n");
}

TEST(GphtPersistence, SetAssociativeStateIsFatal)
{
    // Version 1 has no field for ways, so a set-associative table
    // can be neither saved nor restored.
    GphtPredictor p(8, 32, 4);
    std::stringstream state;
    EXPECT_FAILURE(p.saveState(state));
    GphtPredictor full(8, 128);
    full.saveState(state);
    EXPECT_FAILURE(p.loadState(state));
}

TEST(GphtPersistence, RejectedStateLeavesPredictorUntouched)
{
    // A load that fails part-way must not half-apply: afterwards the
    // predictor saves the same text as before and goes on exactly
    // like a copy that never tried to load.
    GphtPredictor trained(8, 64);
    const std::vector<PhaseId> period{1, 2, 1, 6, 1, 2, 1, 5, 3};
    for (int rep = 0; rep < 20; ++rep)
        for (PhaseId p : period)
            trained.observePhase(p);
    std::stringstream saved;
    trained.saveState(saved);
    const std::string before = saved.str();

    // Line 3 is "fill clock pending_train prediction": point
    // pending_train at row 64 of a 64-row table, and keep the rest.
    std::vector<std::string> lines;
    for (std::string line; std::getline(saved, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u + 64u);
    std::istringstream fields(lines[2]);
    std::string fill, clock, pending, prediction;
    fields >> fill >> clock >> pending >> prediction;
    ASSERT_NE(pending, "-1") << "the trained state has a pending row";
    std::string bad_pending;
    for (size_t i = 0; i < lines.size(); ++i)
        bad_pending += (i == 2 ? fill + " " + clock + " 64 " + prediction
                               : lines[i]) + "\n";
    // A PHT cut off after ten of its 64 rows.
    std::string truncated;
    for (size_t i = 0; i < 4 + 10; ++i)
        truncated += lines[i] + "\n";

    for (const std::string &bad : {bad_pending, truncated}) {
        GphtPredictor p = trained;
        std::istringstream in(bad);
        EXPECT_FAILURE(p.loadState(in));
        std::stringstream after;
        p.saveState(after);
        EXPECT_EQ(after.str(), before);

        GphtPredictor untouched = trained;
        for (size_t i = 0; i < 32; ++i) {
            // Half the known loop, then phases it has not seen.
            const PhaseId ph = i < 16 ? period[i % period.size()]
                                      : static_cast<PhaseId>(i % 7 + 1);
            p.observePhase(ph);
            untouched.observePhase(ph);
            ASSERT_EQ(p.predict(), untouched.predict()) << "step " << i;
        }
        EXPECT_EQ(p.stats().lookups, untouched.stats().lookups);
        EXPECT_EQ(p.stats().hits, untouched.stats().hits);
        EXPECT_EQ(p.stats().insertions, untouched.stats().insertions);
        EXPECT_EQ(p.stats().replacements,
                  untouched.stats().replacements);
    }
}

} // namespace
} // namespace livephase

/**
 * @file
 * Microbenchmarks backing the paper's "no visible overheads" claim.
 *
 * The deployed handler runs once per 100M instructions (~100 ms on
 * the prototype); these google-benchmark measurements show the cost
 * of each handler ingredient — classification, predictor update,
 * policy lookup, the full kernel-module PMI body — is nanoseconds
 * to microseconds on a modern host, orders of magnitude below the
 * sampling period.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "core/dvfs_policy.hh"
#include "core/fixed_window_predictor.hh"
#include "core/gpht_predictor.hh"
#include "core/last_value_predictor.hh"
#include "core/phase_classifier.hh"
#include "core/variable_window_predictor.hh"
#include "cpu/core.hh"
#include "kernel/phase_kernel_module.hh"
#include "workload/spec2000.hh"

using namespace livephase;

namespace
{

void
BM_PhaseClassification(benchmark::State &state)
{
    const PhaseClassifier classifier = PhaseClassifier::table1();
    Rng rng(1);
    double m = 0.0;
    for (auto _ : state) {
        m = rng.uniform(0.0, 0.06);
        benchmark::DoNotOptimize(classifier.classify(m));
    }
}
BENCHMARK(BM_PhaseClassification);

void
BM_LastValuePredictor(benchmark::State &state)
{
    LastValuePredictor predictor;
    Rng rng(2);
    for (auto _ : state) {
        predictor.observePhase(
            static_cast<PhaseId>(rng.uniformInt(1, 6)));
        benchmark::DoNotOptimize(predictor.predict());
    }
}
BENCHMARK(BM_LastValuePredictor);

void
BM_FixedWindowPredictor(benchmark::State &state)
{
    FixedWindowPredictor predictor(
        static_cast<size_t>(state.range(0)));
    Rng rng(3);
    for (auto _ : state) {
        predictor.observePhase(
            static_cast<PhaseId>(rng.uniformInt(1, 6)));
        benchmark::DoNotOptimize(predictor.predict());
    }
}
BENCHMARK(BM_FixedWindowPredictor)->Arg(8)->Arg(128);

void
BM_VariableWindowPredictor(benchmark::State &state)
{
    VariableWindowPredictor predictor(128, 0.005);
    Rng rng(4);
    for (auto _ : state) {
        const double m = rng.uniform(0.0, 0.04);
        predictor.observe(PhaseSample{
            PhaseClassifier::table1().classify(m), m});
        benchmark::DoNotOptimize(predictor.predict());
    }
}
BENCHMARK(BM_VariableWindowPredictor);

/** The deployed predictor: observe + associative lookup + predict. */
void
BM_GphtPredictorUpdate(benchmark::State &state)
{
    GphtPredictor predictor(8,
                            static_cast<size_t>(state.range(0)));
    // A repetitive pattern keeps the PHT realistically full and the
    // lookups mostly hitting, as on a real workload.
    const PhaseId pattern[] = {1, 1, 4, 4, 1, 1, 5, 5, 3, 3};
    size_t i = 0;
    for (auto _ : state) {
        predictor.observePhase(pattern[i++ % 10]);
        benchmark::DoNotOptimize(predictor.predict());
    }
}
BENCHMARK(BM_GphtPredictorUpdate)->Arg(64)->Arg(128)->Arg(1024);

/** Worst case: nearly every lookup misses, so each one searches the
 *  full PHT and then picks the LRU victim over every entry. 128
 *  entries is the deployed size, 1024 the evaluated one. */
void
BM_GphtPredictorMissPath(benchmark::State &state)
{
    GphtPredictor predictor(8, static_cast<size_t>(state.range(0)));
    Rng rng(5);
    for (auto _ : state) {
        predictor.observePhase(
            static_cast<PhaseId>(rng.uniformInt(1, 6)));
        benchmark::DoNotOptimize(predictor.predict());
    }
}
BENCHMARK(BM_GphtPredictorMissPath)->Arg(128)->Arg(1024);

/** Set-associative variant: miss path scans only one set's ways,
 *  bounding the in-handler worst case regardless of capacity. */
void
BM_SetAssocGphtMissPath(benchmark::State &state)
{
    GphtPredictor predictor(8, static_cast<size_t>(state.range(0)), 4);
    Rng rng(6);
    for (auto _ : state) {
        predictor.observePhase(
            static_cast<PhaseId>(rng.uniformInt(1, 6)));
        benchmark::DoNotOptimize(predictor.predict());
    }
}
BENCHMARK(BM_SetAssocGphtMissPath)->Arg(32)->Arg(256);

/** One serving session's life: a fresh clone of the never-trained
 *  deployed 8x128 prototype, as a session open makes, driven through
 *  the first 512 intervals of applu (a variable SPEC stream; it
 *  installs 75 entries) in batches of 16. The PHT starts empty and
 *  grows as it installs, so this prices the growth steps that the
 *  warm rows above never take. */
void
BM_GphtColdSession(benchmark::State &state)
{
    constexpr size_t LIFE = 512, BATCH = 16;
    const PhaseClassifier classifier = PhaseClassifier::table1();
    std::vector<PhaseSample> samples;
    for (const Interval &ivl :
         Spec2000Suite::byName("applu_in").makeTrace(LIFE, 1))
        samples.push_back(classifier.sample(ivl.mem_per_uop));
    const GphtPredictor prototype(8, 128);
    std::vector<PhaseId> predictions(BATCH);
    for (auto _ : state) {
        const PredictorPtr session = prototype.clone();
        for (size_t at = 0; at < LIFE; at += BATCH)
            session->observeAndPredictBatch(
                std::span<const PhaseSample>(samples).subspan(at, BATCH),
                predictions);
        benchmark::DoNotOptimize(predictions.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(LIFE));
}
BENCHMARK(BM_GphtColdSession);

/** The variable-stream serving mix (perfbench's uds-k256-variable
 *  generators): one warmed deployed 8x128 predictor per stream,
 *  each fed its classified phases in batches of 256. About 93% of
 *  lookups hit, so unlike the miss-path rows this mostly prices
 *  the fingerprint filter and the tag compares behind it. Reported
 *  as ns_per_interval. */
void
BM_GphtVariableMix(benchmark::State &state)
{
    constexpr size_t LENGTH = 4096, BATCH = 256;
    const PhaseClassifier classifier = PhaseClassifier::table1();
    std::vector<std::vector<PhaseSample>> streams;
    std::vector<GphtPredictor> predictors;
    for (const char *name :
         {"gcc_200", "gcc_scilab", "gcc_integrate", "gcc_expr",
          "gcc_166", "bzip2_program", "bzip2_source", "bzip2_graphic",
          "applu_in", "equake_in", "mgrid_in", "parser_ref"}) {
        std::vector<PhaseSample> samples;
        for (const Interval &ivl :
             Spec2000Suite::byName(name).makeTrace(LENGTH, 1))
            samples.push_back(classifier.sample(ivl.mem_per_uop));
        streams.push_back(std::move(samples));
        predictors.emplace_back(8, 128);
    }
    std::vector<PhaseId> predictions(BATCH);
    auto replay = [&] {
        for (size_t s = 0; s < streams.size(); ++s)
            for (size_t at = 0; at < LENGTH; at += BATCH)
                predictors[s].observeAndPredictBatch(
                    std::span<const PhaseSample>(streams[s])
                        .subspan(at, BATCH),
                    predictions);
    };
    replay(); // warm: each table has learned its stream
    for (auto _ : state) {
        replay();
        benchmark::DoNotOptimize(predictions.data());
        benchmark::ClobberMemory();
    }
    // A rate of intervals per nanosecond, inverted: ns per interval.
    state.counters["ns_per_interval"] = benchmark::Counter(
        1e-9 * static_cast<double>(state.iterations() *
                                   streams.size() * LENGTH),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GphtVariableMix);

void
BM_PolicyLookup(benchmark::State &state)
{
    const PhaseClassifier classifier = PhaseClassifier::table1();
    const DvfsPolicy policy =
        DvfsPolicy::table2(classifier, DvfsTable::pentiumM());
    PhaseId phase = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy.settingForPhase(phase));
        phase = phase % 6 + 1;
    }
}
BENCHMARK(BM_PolicyLookup);

/**
 * Full platform: one 100M-uop sampling period including the entire
 * PMI handler body (counter stop/read, classify, GPHT update,
 * policy lookup, PERF_CTL write, logging, re-arm). The per-period
 * simulation cost measured here bounds the real handler's work.
 */
void
BM_FullSamplingPeriod(benchmark::State &state)
{
    Core core;
    PhaseKernelModule::Config cfg;
    cfg.sample_uops = 100'000'000;
    PhaseKernelModule module(core, makeGphtGovernor(
        core.dvfs().table()), cfg);
    module.load();
    Interval ivl;
    ivl.uops = 100e6;
    ivl.core_ipc = 1.2;
    size_t i = 0;
    for (auto _ : state) {
        ivl.mem_per_uop = (i++ % 2 == 0) ? 0.002 : 0.035;
        core.execute(ivl);
        benchmark::DoNotOptimize(module.samplesTaken());
    }
}
BENCHMARK(BM_FullSamplingPeriod);

} // namespace

BENCHMARK_MAIN();

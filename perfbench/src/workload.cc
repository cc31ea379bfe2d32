#include "workload.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "service/session_manager.hh"
#include "workload/spec2000.hh"

namespace perfbench
{

using namespace livephase;
using namespace livephase::service;

namespace
{

std::vector<WorkloadSpec>
makeTable()
{
    std::vector<std::string> all_generators;
    for (const SpecBenchmark &bench : Spec2000Suite::all())
        all_generators.push_back(bench.name());

    return {
        // Per-frame cost dominates: flat Q1 streams whose GPHT PHT
        // hit rate is 1.00, one interval per frame.
        {"uds-k1-stable", false, 1,
         {"crafty_in", "eon_cook", "eon_kajiya", "eon_rushmeier",
          "mesa_ref", "vortex_lendian2", "sixtrack_in",
          "vortex_lendian1"},
         8, 8192, 256, 16384},
        // Per-interval core work dominates: the variable streams,
        // whose GPHT misses walk the PHT tags.
        {"uds-k256-variable", false, 256,
         {"gcc_200", "gcc_scilab", "gcc_integrate", "gcc_expr",
          "gcc_166", "bzip2_program", "bzip2_source",
          "bzip2_graphic", "applu_in", "equake_in", "mgrid_in",
          "parser_ref"},
         12, 256, 4, 98304},
        // Many live sessions, session churn and a fixed frame rate.
        {"fleet-churn", true, 16, all_generators, 768, 32, 0, 4096},
    };
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    static const std::vector<WorkloadSpec> table = makeTable();
    for (const WorkloadSpec &spec : table)
        if (spec.name == name)
            return &spec;
    return nullptr;
}

RecordView
Inputs::records(const Slot &slot, size_t b) const
{
    return RecordView(streams[slot.stream])
        .subspan(slot.offset + b * batch, batch);
}

std::span<const IntervalResult>
Inputs::expected(const Slot &slot, size_t b) const
{
    return std::span<const IntervalResult>(slot.expected)
        .subspan(b * batch, batch);
}

Inputs
makeInputs(const WorkloadSpec &spec, uint64_t seed)
{
    const size_t slice = spec.life_batches * spec.batch;
    if (spec.trace_samples < slice)
        fatal("workload %s: trace shorter than a session life",
              spec.name.c_str());

    Inputs in;
    in.batch = spec.batch;
    for (const std::string &name : spec.generators) {
        const IntervalTrace trace =
            Spec2000Suite::byName(name).makeTrace(spec.trace_samples,
                                                  seed);
        std::vector<IntervalRecord> records;
        records.reserve(trace.size());
        for (size_t i = 0; i < trace.size(); ++i) {
            const Interval &ivl = trace.at(i);
            records.push_back({ivl.uops, ivl.mem_per_uop * ivl.uops,
                               static_cast<uint64_t>(i)});
        }
        in.streams.push_back(std::move(records));
    }

    // The oracle: a fresh session of the service's own pipeline
    // (same classifier, policy and GPHT geometry as the daemon's
    // defaults) fed the same batches the benchmark will send.
    SessionManager oracle;
    Rng rng(seed ^ 0x70657266'62656e63ULL);
    const uint64_t offsets = spec.trace_samples - slice + 1;
    in.slots.resize(spec.slots);
    for (size_t i = 0; i < spec.slots; ++i) {
        Slot &slot = in.slots[i];
        slot.stream = i % in.streams.size();
        slot.offset = static_cast<size_t>(rng.next() % offsets);
        slot.expected.resize(slice);
        auto [status, session] = oracle.open(PredictorKind::Gpht);
        if (status != Status::Ok)
            fatal("oracle session: %s", statusName(status));
        for (size_t b = 0; b < spec.life_batches; ++b)
            session->processBatch(
                in.records(slot, b),
                std::span<IntervalResult>(slot.expected)
                    .subspan(b * spec.batch, spec.batch));
        oracle.close(session->id());
    }
    return in;
}

} // namespace perfbench

/**
 * @file
 * Benchmark workloads and their inputs.
 *
 * A workload is a traffic mix: which SPEC-shaped generators the
 * sessions replay (src/workload/spec2000.hh), the batch size K, the
 * number of session slots, and how long a session lives before the
 * client closes it and opens a replacement. Every input is a pure
 * function of (workload, seed); the server only ever receives the
 * resulting frames.
 *
 * Each slot replays one fixed slice of one generator's trace. A
 * session lives exactly one slice (`life_batches` batches), so the
 * oracle is one expected result sequence per slot: a replacement
 * session restarts cold on the same slice and must answer the same
 * bytes again.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hh"

namespace perfbench
{

using livephase::service::IntervalRecord;
using livephase::service::IntervalResult;
using livephase::service::RecordView;

struct WorkloadSpec
{
    std::string name;
    /** Open loop: frames are sent on a fixed schedule. Closed
     *  loop: each connection sends its next frame when the last
     *  one is answered. */
    bool open_loop = false;
    /** Intervals per SubmitBatch frame (K). */
    size_t batch = 1;
    /** Generator names, assigned to slots round-robin. */
    std::vector<std::string> generators;
    /** Live sessions at any time. */
    size_t slots = 0;
    /** Batches a session submits before it is closed and replaced. */
    size_t life_batches = 0;
    /** Closed loop: batches each slot submits before timing starts.
     *  Open loop: ignored; slot i instead starts (i mod
     *  life_batches) batches into its first life, so replacements
     *  are spread evenly over the run. */
    size_t warmup_batches = 0;
    /** Samples generated per generator trace. */
    size_t trace_samples = 0;
};

/** The benchmark's workloads; nullptr for an unknown name. */
const WorkloadSpec *findWorkload(const std::string &name);

/** One session slot: the slice it replays and the oracle for it. */
struct Slot
{
    size_t stream = 0; ///< index into Inputs::streams
    size_t offset = 0; ///< first record of the slice
    /** Expected results for the whole slice, computed offline by a
     *  fresh Session::processBatch on the same records and
     *  batches. */
    std::vector<IntervalResult> expected;
};

struct Inputs
{
    size_t batch = 1;
    std::vector<std::vector<IntervalRecord>> streams;
    std::vector<Slot> slots;

    /** Records of batch `b` of a slot's slice. */
    RecordView records(const Slot &slot, size_t b) const;

    /** Expected results of batch `b` of a slot's slice. */
    std::span<const IntervalResult> expected(const Slot &slot,
                                             size_t b) const;
};

/** Generate the traces and precompute the oracle. */
Inputs makeInputs(const WorkloadSpec &spec, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH

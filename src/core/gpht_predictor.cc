#include "core/gpht_predictor.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/logging.hh"

namespace livephase
{

GphtPredictor::GphtPredictor(size_t gphr_depth, size_t sets,
                             size_t ways)
    : depth(gphr_depth), num_sets(sets), num_ways(ways),
      capacity(sets * ways)
{
    if (depth == 0)
        fatal("GphtPredictor: GPHR depth must be non-zero");
    if (num_sets == 0 || num_ways == 0)
        fatal("GphtPredictor: PHT geometry %zux%zu has no entries",
              num_sets, num_ways);
    gphr.assign(depth, INVALID_PHASE);
    tags.assign(capacity * depth, INVALID_PHASE);
    ages.assign(capacity, -1);
    preds.assign(capacity, INVALID_PHASE);
    gphr_fill = 0;
    lru_clock = 0;
    pending_train = -1;
    current_prediction = INVALID_PHASE;
}

void
GphtPredictor::observe(const PhaseSample &sample)
{
    step(sample);
}

void
GphtPredictor::observeAndPredictBatch(
    std::span<const PhaseSample> samples,
    std::span<PhaseId> predictions)
{
    if (samples.size() != predictions.size())
        fatal("GPHT batch: %zu samples vs %zu slots",
              samples.size(), predictions.size());
    for (size_t i = 0; i < samples.size(); ++i) {
        step(samples[i]);
        predictions[i] = current_prediction;
    }
}

void
GphtPredictor::step(const PhaseSample &sample)
{
    // 1. Train the entry consulted (or installed) last period with
    //    the phase that actually followed its pattern.
    if (pending_train >= 0)
        preds[static_cast<size_t>(pending_train)] = sample.phase;
    pending_train = -1;

    // 2. Shift the observed phase into the GPHR.
    for (size_t i = depth - 1; i > 0; --i)
        gphr[i] = gphr[i - 1];
    gphr[0] = sample.phase;
    if (gphr_fill < depth)
        ++gphr_fill;

    // 3. Until the GPHR holds a full pattern there is nothing to
    //    index the PHT with: behave as last-value.
    if (gphr_fill < depth) {
        current_prediction = gphr[0];
        return;
    }

    // 4. Associative lookup within the GPHR's set.
    ++counters.lookups;
    const size_t base = setBase();
    const int64_t hit = lookup(base);
    if (hit >= 0) {
        ++counters.hits;
        const size_t entry = static_cast<size_t>(hit);
        ages[entry] = ++lru_clock;
        // An entry installed on a miss has not been trained yet; its
        // prediction is invalid until its pattern recurs after one
        // training step. Fall back to last-value in that window.
        current_prediction = preds[entry] != INVALID_PHASE
            ? preds[entry] : gphr[0];
        pending_train = hit;
        return;
    }

    // 5. Miss: predict last value and install the current pattern.
    current_prediction = gphr[0];
    const size_t victim = victimIndex(base);
    if (ages[victim] >= 0)
        ++counters.replacements;
    ++counters.insertions;
    std::copy(gphr.begin(), gphr.end(), &tags[victim * depth]);
    preds[victim] = INVALID_PHASE;
    ages[victim] = ++lru_clock;
    pending_train = static_cast<int64_t>(victim);
}

PhaseId
GphtPredictor::predict() const
{
    return current_prediction;
}

void
GphtPredictor::reset()
{
    std::fill(gphr.begin(), gphr.end(), INVALID_PHASE);
    gphr_fill = 0;
    std::fill(tags.begin(), tags.end(), INVALID_PHASE);
    std::fill(ages.begin(), ages.end(), -1);
    std::fill(preds.begin(), preds.end(), INVALID_PHASE);
    lru_clock = 0;
    pending_train = -1;
    current_prediction = INVALID_PHASE;
    counters = Stats{};
}

std::string
GphtPredictor::name() const
{
    if (num_sets == 1)
        return "GPHT_" + std::to_string(depth) + "_" +
            std::to_string(capacity);
    return "GPHTsa_" + std::to_string(depth) + "_" +
        std::to_string(num_sets) + "x" + std::to_string(num_ways);
}

size_t
GphtPredictor::phtOccupancy() const
{
    return static_cast<size_t>(std::count_if(
        ages.begin(), ages.end(), [](int64_t age) { return age >= 0; }));
}

std::vector<PhaseId>
GphtPredictor::gphrContents() const
{
    return gphr;
}

void
GphtPredictor::saveState(std::ostream &os) const
{
    if (num_sets > 1)
        fatal("GphtPredictor::saveState: %s is set-associative; the "
              "state format holds only fully associative tables",
              name().c_str());
    os << "GPHT-STATE 1\n";
    os << depth << ' ' << capacity << '\n';
    os << gphr_fill << ' ' << lru_clock << ' ' << pending_train
       << ' ' << current_prediction << '\n';
    for (PhaseId p : gphr)
        os << p << ' ';
    os << '\n';
    for (size_t e = 0; e < capacity; ++e) {
        os << ages[e] << ' ' << preds[e];
        // Only valid entries carry their depth tag phases.
        if (ages[e] >= 0)
            for (size_t i = 0; i < depth; ++i)
                os << ' ' << tags[e * depth + i];
        os << '\n';
    }
}

void
GphtPredictor::loadState(std::istream &is)
{
    if (num_sets > 1)
        fatal("GphtPredictor::loadState: %s is set-associative; the "
              "state format holds only fully associative tables",
              name().c_str());
    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != "GPHT-STATE" ||
        version != 1) {
        fatal("GphtPredictor::loadState: bad header");
    }
    size_t saved_depth = 0, saved_capacity = 0;
    if (!(is >> saved_depth >> saved_capacity))
        fatal("GphtPredictor::loadState: truncated geometry");
    if (saved_depth != depth || saved_capacity != capacity)
        fatal("GphtPredictor::loadState: geometry mismatch "
              "(saved %zux%zu, this %zux%zu)", saved_depth,
              saved_capacity, depth, capacity);
    if (!(is >> gphr_fill >> lru_clock >> pending_train >>
          current_prediction) ||
        gphr_fill > depth ||
        pending_train >= static_cast<int64_t>(capacity)) {
        fatal("GphtPredictor::loadState: corrupt predictor state");
    }
    for (PhaseId &p : gphr)
        if (!(is >> p))
            fatal("GphtPredictor::loadState: truncated GPHR");
    for (size_t e = 0; e < capacity; ++e) {
        if (!(is >> ages[e] >> preds[e]))
            fatal("GphtPredictor::loadState: truncated PHT");
        PhaseId *tag = &tags[e * depth];
        std::fill(tag, tag + depth, INVALID_PHASE);
        if (ages[e] >= 0)
            for (size_t i = 0; i < depth; ++i)
                if (!(is >> tag[i]))
                    fatal("GphtPredictor::loadState: truncated tag");
    }
    counters = Stats{};
}

size_t
GphtPredictor::setBase() const
{
    if (num_sets == 1)
        return 0;
    // FNV-1a over the history register; cheap and well mixed for
    // the tiny phase alphabet.
    uint64_t hash = 1469598103934665603ULL;
    for (PhaseId p : gphr) {
        hash ^= static_cast<uint64_t>(static_cast<uint32_t>(p));
        hash *= 1099511628211ULL;
    }
    return static_cast<size_t>(hash % num_sets) * num_ways;
}

int64_t
GphtPredictor::lookup(size_t base) const
{
    const PhaseId *key = gphr.data();
    for (size_t e = base; e < base + num_ways; ++e) {
        const PhaseId *tag = &tags[e * depth];
        // Most tags already differ in the newest phase; test it
        // before paying for the full compare.
        if (tag[0] == key[0] && ages[e] >= 0 &&
            std::equal(tag + 1, tag + depth, key + 1))
            return static_cast<int64_t>(e);
    }
    return -1;
}

size_t
GphtPredictor::victimIndex(size_t base) const
{
    size_t victim = base;
    for (size_t e = base; e < base + num_ways; ++e) {
        if (ages[e] < 0)
            return e; // invalid entry available
        if (ages[e] < ages[victim])
            victim = e;
    }
    return victim;
}

} // namespace livephase

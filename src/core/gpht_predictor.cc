#include "core/gpht_predictor.hh"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
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
    oldest_power = 1;
    for (size_t i = 1; i < depth; ++i)
        oldest_power *= ROLL_BASE;
    gphr.assign(depth, INVALID_PHASE);
    gphr_hash = rollingHash(gphr.data());
    clearTable();
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

    // 2. Shift the observed phase into the GPHR, and roll its hash:
    //    drop the oldest phase's term, age the rest, add the new one.
    const uint64_t oldest = static_cast<uint32_t>(gphr[depth - 1]);
    gphr_hash = static_cast<uint32_t>(sample.phase) +
        ROLL_BASE * (gphr_hash - oldest * oldest_power);
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
    const size_t base = num_sets == 1
        ? 0
        : static_cast<size_t>(setHash(gphr.data()) % num_sets) *
            num_ways;
    const uint8_t fp = fingerprint(gphr_hash);
    const int64_t hit = lookup(base, fp);
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
    if (victim == ages.size())
        growTable(std::min(capacity,
                           std::max(FIRST_ROWS, 2 * ages.size())));
    if (ages[victim] >= 0)
        ++counters.replacements;
    ++counters.insertions;
    std::copy(gphr.begin(), gphr.end(), &tags[victim * depth]);
    fps[victim] = fp;
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
    gphr_hash = rollingHash(gphr.data());
    gphr_fill = 0;
    clearTable();
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
        // Rows the table has not grown to yet are invalid.
        if (e >= ages.size()) {
            os << -1 << ' ' << INVALID_PHASE << '\n';
            continue;
        }
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
    // Parse into a fresh predictor and take it over only once every
    // field has checked out, so a rejected stream (fatal() may
    // return by throwing) leaves this one as it was. The table is
    // full size: the saved rows may have holes, and pending_train
    // may point at any row below capacity.
    GphtPredictor loaded(depth, capacity);
    loaded.growTable(capacity);
    if (!(is >> loaded.gphr_fill >> loaded.lru_clock >>
          loaded.pending_train >> loaded.current_prediction) ||
        loaded.gphr_fill > depth || loaded.lru_clock < 0 ||
        loaded.pending_train < -1 ||
        loaded.pending_train >= static_cast<int64_t>(capacity)) {
        fatal("GphtPredictor::loadState: corrupt predictor state");
    }
    for (PhaseId &p : loaded.gphr)
        if (!(is >> p))
            fatal("GphtPredictor::loadState: truncated GPHR");
    for (size_t e = 0; e < capacity; ++e) {
        int64_t &age = loaded.ages[e];
        if (!(is >> age >> loaded.preds[e]))
            fatal("GphtPredictor::loadState: truncated PHT");
        if (age < -1 || age > loaded.lru_clock)
            fatal("GphtPredictor::loadState: PHT row %zu has age "
                  "%lld outside [-1, %lld]", e,
                  static_cast<long long>(age),
                  static_cast<long long>(loaded.lru_clock));
        PhaseId *tag = &loaded.tags[e * depth];
        if (age >= 0) {
            for (size_t i = 0; i < depth; ++i)
                if (!(is >> tag[i]))
                    fatal("GphtPredictor::loadState: truncated tag");
            loaded.fps[e] = fingerprint(rollingHash(tag));
        }
    }
    loaded.gphr_hash = rollingHash(loaded.gphr.data());
    *this = std::move(loaded);
}

uint64_t
GphtPredictor::setHash(const PhaseId *tag) const
{
    // FNV-1a; its % sets places patterns in sets, which the
    // set-associative golden digests pin.
    uint64_t hash = 1469598103934665603ULL;
    for (size_t i = 0; i < depth; ++i) {
        hash ^= static_cast<uint64_t>(static_cast<uint32_t>(tag[i]));
        hash *= 1099511628211ULL;
    }
    return hash;
}

uint64_t
GphtPredictor::rollingHash(const PhaseId *tag) const
{
    // Horner's rule from the oldest phase: the same sum step()
    // maintains one shift at a time.
    uint64_t hash = 0;
    for (size_t i = depth; i-- > 0;)
        hash = hash * ROLL_BASE + static_cast<uint32_t>(tag[i]);
    return hash;
}
int64_t
GphtPredictor::lookup(size_t base, uint8_t fp) const
{
    // Only entries whose fingerprint matches can hold the GPHR; the
    // byte scan skips the rest without touching their tags.
    const size_t stop = std::min(base + num_ways, fps.size());
    if (base >= stop)
        return -1; // nothing installed yet (and no memchr on null)
    const PhaseId *key = gphr.data();
    const uint8_t *c = fps.data() + base;
    const uint8_t *const end = fps.data() + stop;
    while ((c = static_cast<const uint8_t *>(std::memchr(
                c, fp, static_cast<size_t>(end - c)))) != nullptr) {
        const size_t e = static_cast<size_t>(c - fps.data());
        const PhaseId *tag = &tags[e * depth];
        // Inline: most candidates match, and a libc memcmp call
        // costs more than comparing a few phases.
        size_t i = 0;
        while (i < depth && tag[i] == key[i])
            ++i;
        if (i == depth && ages[e] >= 0)
            return static_cast<int64_t>(e);
        ++c;
    }
    return -1;
}

size_t
GphtPredictor::victimIndex(size_t base) const
{
    const size_t stop = std::min(base + num_ways, ages.size());
    size_t victim = base;
    int64_t oldest = std::numeric_limits<int64_t>::max();
    for (size_t e = base; e < stop; ++e) {
        const int64_t age = ages[e];
        if (age < 0)
            return e; // invalid entry available
        if (age < oldest) {
            oldest = age;
            victim = e;
        }
    }
    // A table that has not grown to capacity installs at its end.
    return stop < base + num_ways ? stop : victim;
}

void
GphtPredictor::clearTable()
{
    tags.clear();
    ages.clear();
    preds.clear();
    fps.clear();
    if (num_sets > 1)
        growTable(capacity);
}

void
GphtPredictor::growTable(size_t rows)
{
    // reserve() first so a step capped at capacity allocates exactly
    // that, not the vector's own doubling.
    tags.reserve(rows * depth);
    tags.resize(rows * depth, INVALID_PHASE);
    ages.reserve(rows);
    ages.resize(rows, -1);
    preds.reserve(rows);
    preds.resize(rows, INVALID_PHASE);
    fps.reserve(rows);
    fps.resize(rows, 0);
}

} // namespace livephase

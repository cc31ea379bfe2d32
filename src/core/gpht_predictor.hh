/**
 * @file
 * Global Phase History Table (GPHT) predictor — the paper's core
 * contribution (Section 3, Figure 1).
 *
 * Structurally a software analogue of a global two-level branch
 * predictor (Yeh & Patt): a Global Phase History Register (GPHR)
 * shift register holds the last `depth` observed phases; its contents
 * associatively index a Pattern History Table (PHT) whose entries
 * store previously seen phase patterns together with the phase that
 * followed them ("next phase" prediction).
 *
 * Per sampling period (driven from the PMI handler):
 *  1. the phase observed for the ending period is shifted into the
 *     GPHR;
 *  2. the GPHR is looked up among the valid PHT entries of its set
 *     (all of them when the PHT is fully associative): compare
 *     fingerprints, then tags;
 *  3. on a match the stored prediction is used, and that entry is
 *     re-trained next period with the phase that actually follows;
 *  4. on a mismatch the predictor falls back to last-value
 *     (GPHR[0]) and installs the current GPHR into the PHT, evicting
 *     the least-recently-used entry when the table is full.
 *
 * The fall-back guarantees the GPHT never does worse than the
 * last-value predictor on pattern-free workloads, while repetitive
 * phase patterns (loops) are captured exactly.
 *
 * Section 3.2 notes that "holding and associatively searching
 * through a 1024 entry PHT may be undesirable" on a real system;
 * the paper's answer is to shrink the table to 128 entries. The
 * orthogonal answer from cache design is table geometry: hash the
 * GPHR into one of `sets` buckets and search only that bucket's
 * `ways` entries (LRU within the set). A fully associative PHT is
 * the one-set case. `bench_ablation_gpht_assoc` measures the
 * accuracy cost of fewer ways at equal capacity.
 *
 * Within a set the search is a filter, not a change of answer: each
 * entry keeps a one-byte fingerprint of its tag, and full tags are
 * compared only where the fingerprint matches the GPHR's. The first
 * match by index wins, exactly as in a plain scan of the tags. The
 * fingerprint comes from a rolling hash of the GPHR, updated in O(1)
 * as each phase shifts in, the way branch predictors fold their
 * global history; a finalizer mixes it so that the byte filters well
 * even for the six-phase alphabet. The set index is a separate
 * FNV-1a hash of the GPHR, computed only when there is more than one
 * set.
 *
 * A fully associative PHT holds only the entries installed so far:
 * its arrays start empty and grow geometrically on install, capped
 * at the configured capacity, so a short-lived session pays for the
 * patterns it has seen rather than for all 128 (Section 3.2's
 * concern about holding the table). Entries are never invalidated,
 * so they fill a prefix and install at its end, the same slot the
 * "first invalid" rule picks in a full-size table. A set-associative
 * PHT is allocated at full size, because each set's slots sit at
 * fixed offsets.
 */

#ifndef LIVEPHASE_CORE_GPHT_PREDICTOR_HH
#define LIVEPHASE_CORE_GPHT_PREDICTOR_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/predictor.hh"

namespace livephase
{

/**
 * Pattern-based phase predictor with last-value fallback.
 */
class GphtPredictor : public PhasePredictor
{
  public:
    /** Aggregate lookup statistics, for evaluation and tests. */
    struct Stats
    {
        uint64_t lookups = 0;      ///< PHT lookups (GPHR full)
        uint64_t hits = 0;         ///< tag matches
        uint64_t insertions = 0;   ///< entries installed on miss
        uint64_t replacements = 0; ///< insertions that evicted LRU
    };

    /**
     * Fully associative PHT: the one-set case of the constructor
     * below.
     *
     * @param gphr_depth  history length (paper default 8); fatal()
     *                    when 0.
     * @param pht_entries table capacity (1024 evaluated, 128
     *                    deployed); fatal() when 0.
     */
    GphtPredictor(size_t gphr_depth, size_t pht_entries)
        : GphtPredictor(gphr_depth, 1, pht_entries)
    {
    }

    /**
     * Set-associative PHT of `sets` x `ways` entries.
     *
     * @param gphr_depth history length; fatal() when 0.
     * @param sets       number of hash buckets; fatal() when 0.
     * @param ways       entries per bucket; fatal() when 0.
     */
    GphtPredictor(size_t gphr_depth, size_t sets, size_t ways);

    void observe(const PhaseSample &sample) override;
    PhaseId predict() const override;
    void observeAndPredictBatch(std::span<const PhaseSample> samples,
                                std::span<PhaseId> predictions)
        override;
    void reset() override;
    std::string name() const override;

    PredictorPtr clone() const override
    {
        return std::make_unique<GphtPredictor>(*this);
    }

    /** Configured GPHR depth. */
    size_t gphrDepth() const { return depth; }

    /** Configured PHT capacity (sets x ways). */
    size_t phtEntries() const { return capacity; }

    /** Number of hash buckets (1 = fully associative). */
    size_t sets() const { return num_sets; }

    /** Entries per bucket. */
    size_t ways() const { return num_ways; }

    /** Number of currently valid PHT entries. */
    size_t phtOccupancy() const;

    /** Lookup statistics since construction/reset. */
    const Stats &stats() const { return counters; }

    /** Current GPHR contents, newest first (for logs/inspection). */
    std::vector<PhaseId> gphrContents() const;

    /**
     * Serialize the learned state (GPHR + PHT + LRU ordering) to a
     * text stream, so a deployed module can warm-start the
     * predictor across unload/reload instead of relearning every
     * pattern ("reconfiguration after system deployment, with
     * minimal intrusion" — paper Section 6.3). The format has no
     * field for ways, so fatal() when sets() > 1.
     */
    void saveState(std::ostream &os) const;

    /**
     * Restore state saved by saveState(). fatal() when the stream
     * is malformed, was saved from a predictor with different
     * (depth, entries) geometry, or sets() > 1. A rejected stream
     * leaves the predictor as it was.
     */
    void loadState(std::istream &is);

  private:
    /** Non-virtual observe() body, the unit the batched loop
     *  iterates without per-step dispatch. */
    void step(const PhaseSample &sample);

    /** FNV-1a over `depth` phases; over the GPHR, hash % sets is
     *  the set index. Not run when the PHT has one set. */
    uint64_t setHash(const PhaseId *tag) const;

    /** Rolling hash sum(tag[i] * ROLL_BASE^i) mod 2^64 over `depth`
     *  phases, tag[0] the newest, computed from scratch. step()
     *  keeps the GPHR's up to date in O(1) instead. */
    uint64_t rollingHash(const PhaseId *tag) const;

    /** One-byte fingerprint of a tag: the top byte of its rolling
     *  hash after an xor-shift-multiply finalizer. The raw hash's
     *  top byte is poorly mixed for small phase ids. */
    static uint8_t fingerprint(uint64_t rolled)
    {
        rolled ^= rolled >> 29;
        rolled *= 0xbf58476d1ce4e5b9ULL;
        return static_cast<uint8_t>(rolled >> 56);
    }

    /** Odd multiplier of the rolling hash (2^64 / golden ratio). */
    static constexpr uint64_t ROLL_BASE = 0x9e3779b97f4a7c15ULL;

    /** First entry in [base, min(base + ways, size)) whose tag
     *  matches the GPHR, or -1; `fp` is the GPHR's fingerprint. */
    int64_t lookup(size_t base, uint8_t fp) const;

    /** Entry in [base, base + ways) to (re)fill: first invalid,
     *  else the current table size when the set runs past it (the
     *  table must grow), else the first with the strictly oldest
     *  age. */
    size_t victimIndex(size_t base) const;

    /** Empty PHT: no rows when fully associative, every row
     *  (invalid) when set-associative. */
    void clearTable();

    /** Extend the PHT to `rows` rows; the new ones are invalid. */
    void growTable(size_t rows);

    /** Rows of a one-set table's first allocation. A median
     *  serving session installs about 15 entries, so one 16-row
     *  block (720 B at depth 8) holds it whole, and a table reaches
     *  128 rows in three doublings. Starting at one row would
     *  reallocate all four arrays on most early misses. */
    static constexpr size_t FIRST_ROWS = 16;

    size_t depth;
    size_t num_sets;
    size_t num_ways;
    size_t capacity;
    std::vector<PhaseId> gphr; ///< gphr[0] = most recent
    size_t gphr_fill;
    uint64_t gphr_hash;    ///< rollingHash() of the GPHR
    uint64_t oldest_power; ///< ROLL_BASE^(depth - 1)
    // The PHT, one row per entry: tags[e * depth, (e + 1) * depth)
    // holds entry e's pattern, ages[e] its LRU age (-1 = invalid),
    // preds[e] the phase that followed it and fps[e] the
    // fingerprint of its tag (not serialized; rebuilt on load).
    // ages.size() is the table's current size: the rows installed
    // so far, rounded up to the last growth step, for a fully
    // associative table; always `capacity` for a set-associative
    // one and after loadState(). Rows past it read as invalid.
    std::vector<PhaseId> tags;
    std::vector<int64_t> ages;
    std::vector<PhaseId> preds;
    std::vector<uint8_t> fps;
    int64_t lru_clock;
    int64_t pending_train; ///< PHT index awaiting next-phase training
    PhaseId current_prediction;
    Stats counters;
};

} // namespace livephase

#endif // LIVEPHASE_CORE_GPHT_PREDICTOR_HH

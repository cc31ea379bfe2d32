/**
 * @file
 * Sharded, low-contention metrics registry.
 *
 * Three metric kinds, all updatable lock-free from any thread:
 *
 *  - Counter:   monotonically increasing u64 (events, intervals).
 *  - Gauge:     last-written double (queue depth, open sessions).
 *  - Histogram: log-bucketed distribution of non-negative values
 *               with exact count/sum/max and bounded memory
 *               (LOG_SUBBUCKETS equal-width sub-buckets per power
 *               of two, so a quantile read off the buckets carries
 *               a bounded relative error of at most
 *               1/LOG_SUBBUCKETS = 12.5%).
 *
 * Metric objects live as long as the registry and are handed out by
 * reference: look one up once (e.g. into a function-local static),
 * then update it with plain atomic ops — the name-to-metric map is
 * only touched at registration time, and is itself sharded by name
 * hash so concurrent registration from the worker pool does not
 * funnel through one mutex.
 *
 * Names follow the scheme documented in DESIGN.md §11:
 * `livephase_<layer>_<what>[_<unit>][_total]`, with an optional
 * trailing Prometheus label set baked into the registered name
 * (e.g. `livephase_service_op_latency_us{op="open"}`).
 *
 * A scrape reads the live metrics in place: view() hands the
 * renderer every entry sorted by name, with counter and gauge values
 * loaded and each histogram summarized (count/sum/max/p50/p90/p99)
 * in one walk over its buckets — no per-metric copy, no heap
 * allocation once the caller's view vector is warm. snapshot() is
 * the owning, mergeable copy kept for inspection and tests.
 * Rendering to Prometheus text or JSONL lives in obs/exposition.hh.
 */

#ifndef LIVEPHASE_OBS_METRICS_HH
#define LIVEPHASE_OBS_METRICS_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace livephase::obs
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void inc(uint64_t n = 1)
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> v{0};
};

/** Last-written instantaneous value. */
class Gauge
{
  public:
    void set(double x) { v.store(x, std::memory_order_relaxed); }

    void add(double delta)
    {
        double cur = v.load(std::memory_order_relaxed);
        while (!v.compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
        }
    }

    double value() const
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> v{0.0};
};

/** Linear sub-buckets per power of two; 8 bounds the relative
 *  width of a bucket (and hence the quantile error) to 1/8 =
 *  12.5%, worst at the bottom of each octave. */
constexpr size_t LOG_SUBBUCKETS = 8;

/** Smallest/largest finitely resolved value exponent: buckets span
 *  [2^LOG_MIN_EXP, 2^LOG_MAX_EXP), i.e. [~1e-3, ~1e9] — nanoseconds
 *  to a quarter hour when recording microseconds. */
constexpr int LOG_MIN_EXP = -10;
constexpr int LOG_MAX_EXP = 30;

/** Resolved buckets plus one underflow (index 0) and one overflow
 *  (last index) bucket. */
constexpr size_t HISTOGRAM_BUCKETS =
    static_cast<size_t>(LOG_MAX_EXP - LOG_MIN_EXP) * LOG_SUBBUCKETS +
    2;

/** What exposition reads off one histogram: exact aggregates plus
 *  the three quantiles it renders. */
struct HistogramSummary
{
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;

    double mean() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

/** Immutable copy of a Histogram; mergeable across shards/hosts. */
struct HistogramSnapshot
{
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::vector<uint64_t> buckets; ///< HISTOGRAM_BUCKETS entries

    double mean() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }

    /**
     * Quantile estimate read off the buckets, linearly interpolated
     * inside the containing bucket and clamped to the exact max.
     * @param p percentile in [0, 100].
     */
    double quantile(double p) const;

    HistogramSummary summary() const;

    /** Element-wise accumulation (exact for count/sum, max of max). */
    void merge(const HistogramSnapshot &other);
};

/**
 * Lock-free log-bucketed histogram of non-negative values.
 */
class Histogram
{
  public:
    /** Record one value; negative/NaN values clamp into the
     *  underflow bucket. */
    void record(double value);

    /** Bucket index a value lands in. */
    static size_t bucketIndex(double value);

    /** Inclusive lower bound of a bucket (0 for underflow). */
    static double bucketLowerBound(size_t bucket);

    /** Exclusive upper bound of a bucket (+inf for overflow). */
    static double bucketUpperBound(size_t bucket);

    uint64_t count() const
    {
        return n.load(std::memory_order_relaxed);
    }

    double sum() const
    {
        return total.load(std::memory_order_relaxed);
    }

    double max() const
    {
        return peak.load(std::memory_order_relaxed);
    }

    HistogramSnapshot snapshot() const;

    /** Count, sum, max and p50/p90/p99 from one walk over the live
     *  buckets; equal to snapshot().summary() when no writer races
     *  the read. */
    HistogramSummary summary() const;

    /**
     * Reset all buckets and aggregates to zero. NOT safe against
     * concurrent record() — callers must guarantee no writer is
     * touching this instance (the time-series ring clears only the
     * cell one full rotation away from the live one).
     */
    void clear();

  private:
    friend struct HistogramSum;

    std::array<std::atomic<uint64_t>, HISTOGRAM_BUCKETS> buckets{};
    std::atomic<uint64_t> n{0};
    std::atomic<double> total{0.0};
    std::atomic<double> peak{0.0};
};

/**
 * Bucket-wise sum of live histograms on the stack: the merge target
 * a scrape uses for a sliding window's cells or for two metrics that
 * share a name. Adding in the same order as HistogramSnapshot::merge
 * keeps every value bit-identical to merging snapshots.
 */
struct HistogramSum
{
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::array<uint64_t, HISTOGRAM_BUCKETS> buckets{};

    void add(const Histogram &h);

    HistogramSummary summary() const;
};

enum class MetricKind
{
    Counter,
    Gauge,
    Histogram
};

const char *metricKindName(MetricKind kind);

/** One named metric inside a MetricsSnapshot. */
struct MetricSample
{
    std::string name; ///< full name, optional {labels} suffix
    MetricKind kind = MetricKind::Counter;
    double value = 0.0;      ///< counter/gauge
    HistogramSnapshot hist{}; ///< histogram only
};

/** Point-in-time copy of a registry, sorted by name. */
struct MetricsSnapshot
{
    std::vector<MetricSample> samples;

    /** nullptr when absent. */
    const MetricSample *find(const std::string &name) const;

    /**
     * Fold another snapshot in (same-name counters/gauge values
     * add, histograms merge; unmatched names are appended). Keeps
     * the by-name ordering.
     */
    void merge(const MetricsSnapshot &other);
};

/**
 * A metric as a scrape contributes it: a name plus a value
 * (counter/gauge) or a live histogram. Not owning; the name and the
 * histogram must outlive the view() call it is passed to.
 */
struct MetricRef
{
    std::string_view name;
    MetricKind kind = MetricKind::Counter;
    double value = 0.0;
    const Histogram *hist = nullptr;
};

/** One metric as the renderer reads it (obs/exposition.hh). */
struct MetricView
{
    std::string_view name; ///< full name, optional {labels} suffix
    MetricKind kind = MetricKind::Counter;
    double value = 0.0;        ///< counter/gauge
    HistogramSummary hist{};   ///< histogram only
};

namespace detail
{

/**
 * Name-sorted pointers into a sharded name -> entry map, rebuilt
 * only when something was registered since the last build. Map
 * nodes are never erased, so the pointers stay valid; a scrape walks
 * them in order instead of copying and sorting the registry.
 */
template <class Entry>
class SortedIndex
{
  public:
    using Item = std::pair<const std::string, Entry>;

    /** Call under the shard lock, after the insert. */
    void noteInsert()
    {
        inserts.fetch_add(1, std::memory_order_release);
    }

    /** fn(std::span<const Item *const>) under the index lock. */
    template <class Shards, class Fn>
    void visit(const Shards &shards, Fn &&fn) const
    {
        std::lock_guard lock(mu);
        const uint64_t seen =
            inserts.load(std::memory_order_acquire);
        if (seen != built_for) {
            items.clear();
            for (const auto &shard : shards) {
                std::lock_guard shard_lock(shard.mu);
                for (const Item &item : shard.map)
                    items.push_back(&item);
            }
            std::sort(items.begin(), items.end(),
                      [](const Item *a, const Item *b) {
                          return a->first < b->first;
                      });
            built_for = seen;
        }
        fn(std::span<const Item *const>(items));
    }

  private:
    mutable std::mutex mu;
    mutable std::vector<const Item *> items;
    mutable uint64_t built_for = 0;
    std::atomic<uint64_t> inserts{0};
};

} // namespace detail

/**
 * Name-sharded registry of metrics. Registration is mutex-guarded
 * per shard; handed-out references stay valid for the registry's
 * lifetime, so the hot path never touches the map again.
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry all instrumentation reports to. */
    static MetricsRegistry &global();

    /** Find-or-create. panic() when `name` is already registered as
     *  a different kind. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Number of registered metrics. */
    size_t size() const;

    /**
     * The scrape read: every registered metric plus `extra` (sorted
     * by name), merged by name into `out` (cleared first, capacity
     * reused). Values come from the live atomics; a registry entry
     * and an `extra` of the same name combine as
     * MetricsSnapshot::merge does: values add, histograms merge.
     */
    void view(std::span<const MetricRef> extra,
              std::vector<MetricView> &out) const;

    /** Owning copy sorted by name, for inspection and tests. */
    MetricsSnapshot snapshot() const;

  private:
    static constexpr size_t SHARDS = 8;

    struct Entry
    {
        MetricKind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };
    using Item = detail::SortedIndex<Entry>::Item;

    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<std::string, Entry> map;
    };

    Entry &findOrCreate(const std::string &name, MetricKind kind);

    Shard &shardFor(const std::string &name);

    std::array<Shard, SHARDS> shards;
    detail::SortedIndex<Entry> index;
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_METRICS_HH

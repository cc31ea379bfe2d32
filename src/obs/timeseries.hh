/**
 * @file
 * Windowed time-series layer: sliding-window rates and quantiles
 * over the lock-free metric primitives in obs/metrics.hh.
 *
 * Point-in-time counters answer "how many ever"; operating a fleet
 * needs "how many per second, right now" and "what is p99 over the
 * last minute". Each series here is a fixed ring of one-second
 * cells (Histogram or u64 counter). Writers record into the live
 * cell with the same relaxed atomics as the flat metrics — zero
 * allocation, no locks, no fences on the request path. A rotation
 * tick (driven by the watchdog thread, the ratekeeper, or any
 * exposition pass — whoever gets there first wins a CAS) clears the
 * *next* cell and advances the epoch. Readers add the live cell and
 * then the closed cells, newest first, into one stack-resident
 * HistogramSum and read the 1 s, 10 s and 60 s windows off it as
 * the walk passes each window's edge: one walk per series.
 *
 * Consistency model: a writer that loads the epoch, then stalls for
 * a full ring revolution (SLOTS seconds) before recording, can land
 * one sample in a recycled cell. That mis-files a single sample by
 * a window — acceptable for telemetry, and the price of keeping the
 * record path wait-free. Rotation and reads never block writers.
 */

#ifndef LIVEPHASE_OBS_TIMESERIES_HH
#define LIVEPHASE_OBS_TIMESERIES_HH

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

#include "obs/metrics.hh"

namespace livephase::obs
{

/** Ring length. 64 one-second cells covers the longest queryable
 *  window (60 s) with spare cells so the live cell and the
 *  just-cleared cell never overlap a 60 s read. */
constexpr size_t TS_SLOTS = 64;

/** Sliding windows a series can be queried over. */
enum class Window : uint8_t
{
    OneSecond,
    TenSeconds,
    SixtySeconds,
};

const char *windowName(Window w);

/** Number of *closed* cells a window spans (the live cell is always
 *  merged in addition, so "1 s" reads live + 1 closed cell). */
size_t windowSlots(Window w);

/** Aggregate read off a windowed series. */
struct WindowStats
{
    uint64_t count = 0;  ///< samples (histogram) or events (counter)
    double rate = 0.0;   ///< count / window span (per second)
    double mean = 0.0;   ///< histogram only
    double p50 = 0.0;    ///< histogram only
    double p99 = 0.0;    ///< histogram only
    double max = 0.0;    ///< histogram only
};

/** Stats for every window, indexed by Window. */
using WindowSet = std::array<WindowStats, 3>;

/**
 * Ring of one-second Histogram cells. record() is wait-free; a
 * window over k slots merges the live cell plus the last k closed
 * cells.
 */
class WindowedHistogram
{
  public:
    WindowedHistogram() = default;

    /** Record into the live cell. */
    void record(double value)
    {
        cells[epoch.load(std::memory_order_relaxed) % TS_SLOTS]
            .record(value);
    }

    /** Stats over a named window at the current slot duration. */
    WindowStats stats(Window w, double slot_seconds) const;

    /** All three windows from one walk over the ring. */
    WindowSet windows(double slot_seconds) const;

    /** Advance the ring: clear the cell one step ahead, then make
     *  it live. Called only by the registry's rotation tick. */
    void rotate();

    /** Clear every cell and reset the epoch to 0. NOT safe against
     *  concurrent record(); single-threaded callers only (the
     *  simulator between replays, tests). */
    void resetForTest();

    uint64_t currentEpoch() const
    {
        return epoch.load(std::memory_order_relaxed);
    }

  private:
    /** Fill out[0, n) for the first n windows in one walk. */
    void read(double slot_seconds, size_t n, WindowStats *out) const;

    // Heap-backed: HISTOGRAM_BUCKETS atomics x TS_SLOTS is ~165 KiB
    // per series, too big to inline into registry storage. Allocated
    // once at registration, never on the record path.
    std::unique_ptr<std::array<Histogram, TS_SLOTS>> cells_owner =
        std::make_unique<std::array<Histogram, TS_SLOTS>>();
    std::array<Histogram, TS_SLOTS> &cells = *cells_owner;
    std::atomic<uint64_t> epoch{0};
};

/**
 * Ring of one-second u64 counter cells, for event rates (admits,
 * sheds, evictions, mispredictions per second).
 */
class WindowedCounter
{
  public:
    void inc(uint64_t n = 1)
    {
        cells[epoch.load(std::memory_order_relaxed) % TS_SLOTS]
            .fetch_add(n, std::memory_order_relaxed);
    }

    WindowStats stats(Window w, double slot_seconds) const;

    /** All three windows from one walk over the ring. */
    WindowSet windows(double slot_seconds) const;

    void rotate();

    /** Zero every cell and the epoch; see
     *  WindowedHistogram::resetForTest for the safety contract. */
    void resetForTest();

    uint64_t currentEpoch() const
    {
        return epoch.load(std::memory_order_relaxed);
    }

  private:
    void read(double slot_seconds, size_t n, WindowStats *out) const;

    std::array<std::atomic<uint64_t>, TS_SLOTS> cells{};
    std::atomic<uint64_t> epoch{0};
};

/** One named series inside a TimeSeriesSnapshot. */
struct SeriesSample
{
    std::string name;
    bool is_histogram = false;
    WindowStats w1s{};
    WindowStats w10s{};
    WindowStats w60s{};
};

/** Owning copy of every registered series, sorted by name. */
struct TimeSeriesSnapshot
{
    std::vector<SeriesSample> series;

    const SeriesSample *find(const std::string &name) const;
};

/**
 * Name-sharded registry of windowed series, mirroring
 * MetricsRegistry: registration is mutex-guarded, handed-out
 * references are valid forever, and the record path never touches
 * the map again. Rotation for all series is driven by
 * rotateIfDue(), safe to call from any number of threads — one CAS
 * on the deadline decides a single winner per slot boundary.
 */
class TimeSeriesRegistry
{
  public:
    static TimeSeriesRegistry &global();

    /** Find-or-create. panic() on kind mismatch. */
    WindowedHistogram &histogram(const std::string &name);
    WindowedCounter &counter(const std::string &name);

    /**
     * Stats for a named series over one window, without creating
     * it. False when the series is not registered (the watchdog
     * skips such rules instead of registering empty series).
     */
    bool seriesStats(const std::string &name, Window w,
                     WindowStats &out) const;

    /**
     * Rotate every series when a slot boundary has passed. Multiple
     * callers race on one CAS; losers return immediately. Catch-up
     * after a stall rotates multiple times (capped at TS_SLOTS) so
     * stale cells cannot leak into fresh windows.
     * @return number of rotations performed by this caller.
     */
    size_t rotateIfDue(uint64_t now_ns);

    /** Convenience: rotateIfDue(monoNowNs()). */
    size_t rotateIfDue();

    /** Slot duration; default 1 s. Tests shrink it to drive windows
     *  quickly. Takes effect at the next rotation. */
    void setSlotDuration(uint64_t ns);

    /**
     * Reset every registered series (cells cleared, epochs zeroed)
     * and un-anchor the rotation schedule, WITHOUT invalidating
     * handed-out series references. The simulator calls this before
     * each run so a replay inside a warm process starts from the
     * same window state as a cold one; not safe against concurrent
     * writers.
     */
    void resetAllForTest();

    uint64_t slotDurationNs() const
    {
        return slot_ns.load(std::memory_order_relaxed);
    }

    size_t size() const;

    /**
     * The scrape read: fn(std::string_view name, bool is_histogram,
     * const WindowSet &windows) for every series in name order, each
     * series read in one walk over its ring. Runs under the sorted
     * index's lock, so a registry serves one scrape at a time;
     * writers and registrations never wait for it.
     */
    template <class Fn>
    void forEach(Fn &&fn) const
    {
        const double slot_s =
            static_cast<double>(
                slot_ns.load(std::memory_order_relaxed)) *
            1e-9;
        index.visit(shards, [&](std::span<const Item *const> items) {
            for (const Item *item : items) {
                const Entry &e = item->second;
                fn(std::string_view(item->first), e.is_histogram,
                   e.is_histogram ? e.hist->windows(slot_s)
                                  : e.counter->windows(slot_s));
            }
        });
    }

    /** Owning copy, for inspection and tests. */
    TimeSeriesSnapshot snapshot() const;

  private:
    static constexpr size_t SHARDS = 8;

    struct Entry
    {
        bool is_histogram;
        std::unique_ptr<WindowedHistogram> hist;
        std::unique_ptr<WindowedCounter> counter;
    };
    using Item = detail::SortedIndex<Entry>::Item;

    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<std::string, Entry> map;
    };

    Shard &shardFor(const std::string &name);

    void rotateAll();

    std::array<Shard, SHARDS> shards;
    detail::SortedIndex<Entry> index;
    std::atomic<uint64_t> slot_ns{1'000'000'000};
    std::atomic<uint64_t> next_rotation_ns{0};
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_TIMESERIES_HH

/**
 * @file
 * Exposition: rendering the live metrics for external consumers.
 *
 * Two formats:
 *  - Prometheus text format (v0.0.4): counters and gauges as typed
 *    single lines; histograms as summaries (p50/p90/p99 quantile
 *    lines plus _sum and _count). Registered names may carry a
 *    label set in braces; the renderer splices extra labels (e.g.
 *    quantile="0.99") into it.
 *  - JSONL: one self-describing JSON object per metric per line —
 *    the format the benches' periodic export hooks append to a
 *    file, one block per export tick.
 *
 * One live pass: the renderers read MetricsRegistry::view() and
 * TimeSeriesRegistry::forEach(), which load the live atomics in
 * name order, and append text straight into one caller-owned buffer
 * (TextOut) — the reply frame itself on the query-metrics path.
 * Nothing is copied into snapshots first. The snapshot overloads
 * (renderPrometheus(const MetricsSnapshot &) and friends) are thin
 * adapters onto the same line writers.
 *
 * PeriodicExporter is the push-side hook: a background thread that
 * renders the registry to a stream every interval, used by the
 * benches to watch metrics evolve during a run.
 */

#ifndef LIVEPHASE_OBS_EXPOSITION_HH
#define LIVEPHASE_OBS_EXPOSITION_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/timeseries.hh"

namespace livephase::obs
{

/**
 * Append-only handle on a caller-owned text buffer: a std::string,
 * or the byte vector a response frame is being encoded into, so a
 * scrape writes its text where it is sent from.
 */
class TextOut
{
  public:
    TextOut(std::string &text) : str(&text) {}
    TextOut(std::vector<uint8_t> &frame) : bytes(&frame) {}

    void append(std::string_view text)
    {
        if (str) {
            str->append(text);
            return;
        }
        const auto *p =
            reinterpret_cast<const uint8_t *>(text.data());
        bytes->insert(bytes->end(), p, p + text.size());
    }

    void append(char c) { append(std::string_view(&c, 1)); }

    /** printf("%.10g"), the format every rendered value uses. */
    void number(double v);

    /** printf("%.*f", decimals, v). */
    void fixed(double v, int decimals);

    /** Decimal u64 (counts). */
    void count(uint64_t v);

  private:
    std::string *str = nullptr;
    std::vector<uint8_t> *bytes = nullptr;
};

/** Wire values of the query-metrics format selector (u16). */
enum class ExpositionFormat : uint16_t
{
    Prometheus = 0,
    Jsonl = 1,
    Trace = 2, ///< flight-recorder dump, not a metrics rendering
};

/** nullopt for unknown raw values. */
const char *expositionFormatName(ExpositionFormat format);

/** Prometheus text format, metrics in the given (name) order. */
void appendPrometheus(TextOut out,
                      std::span<const MetricView> metrics);

/** One JSON object per metric per line. */
void appendJsonl(TextOut out, std::span<const MetricView> metrics);

/**
 * Windowed time-series exposition (obs/timeseries.hh): per series,
 * gauge lines `livephase_window{series="...",window="10s",
 * stat="p99"}` (Prometheus) or one JSON object per series per line
 * carrying all three windows (JSONL).
 */
void appendTimeSeriesPrometheus(TextOut out,
                                const TimeSeriesRegistry &reg);
void appendTimeSeriesJsonl(TextOut out, const TimeSeriesRegistry &reg);

/** Snapshot adapters onto the same writers (tests, inspection). */
std::string renderPrometheus(const MetricsSnapshot &snap);
std::string renderJsonl(const MetricsSnapshot &snap);
std::string renderTimeSeriesPrometheus(
    const TimeSeriesSnapshot &snap);
std::string renderTimeSeriesJsonl(const TimeSeriesSnapshot &snap);

/**
 * Background thread dumping a registry to `os` every `interval`
 * in JSONL, each tick preceded by a `# export tick=N` comment
 * line. Starts on construction; stop() (idempotent, restart-safe
 * via start()) joins the worker *before* issuing the final export,
 * so teardown can never race a concurrent export tick on the
 * stream. The destructor calls stop().
 */
class PeriodicExporter
{
  public:
    PeriodicExporter(const MetricsRegistry &registry,
                     std::ostream &os,
                     std::chrono::milliseconds interval);

    ~PeriodicExporter();

    PeriodicExporter(const PeriodicExporter &) = delete;
    PeriodicExporter &operator=(const PeriodicExporter &) = delete;

    /** Launch the export thread; no-op while already running. */
    void start();

    /**
     * Signal the worker, join it, then write one final export (so
     * even a zero-interval-elapsed run exports once per cycle).
     * Idempotent and safe to call concurrently with start()/stop()
     * from other threads; the lifecycle lock serializes them and
     * the join-before-final-export ordering keeps the output
     * stream single-writer.
     */
    void stop();

    /** True between start() and stop(). */
    bool running() const;

    /** Export ticks completed so far. */
    uint64_t ticks() const
    {
        return tick_count.load(std::memory_order_relaxed);
    }

  private:
    void loop();
    void exportOnce();

    const MetricsRegistry &reg;
    std::ostream &out;
    const std::chrono::milliseconds interval;
    std::atomic<uint64_t> tick_count{0};

    /** Serializes start/stop transitions (and owns `worker`);
     *  never held while exporting. */
    mutable std::mutex lifecycle_mu;
    std::thread worker;

    std::mutex mu; ///< guards `stopping` for the cv handshake
    std::condition_variable cv;
    bool stopping = false;
};

} // namespace livephase::obs

#endif // LIVEPHASE_OBS_EXPOSITION_HH

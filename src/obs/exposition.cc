#include "obs/exposition.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <ostream>

#include "common/clock.hh"

#include "obs/runtime.hh"

namespace livephase::obs
{

void
TextOut::number(double v)
{
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.10g", v);
    append(std::string_view(buf, static_cast<size_t>(n)));
}

void
TextOut::fixed(double v, int decimals)
{
    char buf[400]; // %.6f of DBL_MAX is 316 characters
    const int n = std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    append(std::string_view(
        buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1)));
}

void
TextOut::count(uint64_t v)
{
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec; // 24 bytes always fit a u64
    append(std::string_view(buf, static_cast<size_t>(end - buf)));
}

namespace
{

/** `s` with each character `escape` maps to a non-empty sequence
 *  replaced by it; runs of untouched characters are appended whole. */
template <class Escape>
void
appendEscaped(TextOut out, std::string_view s, Escape escape)
{
    size_t run = 0;
    char buf[8];
    for (size_t i = 0; i < s.size(); ++i) {
        const std::string_view with = escape(s[i], buf);
        if (with.empty())
            continue;
        out.append(s.substr(run, i - run));
        out.append(with);
        run = i + 1;
    }
    out.append(s.substr(run));
}

/** JSON string body: quotes, backslashes and control characters
 *  escaped. */
void
appendJsonEscaped(TextOut out, std::string_view s)
{
    appendEscaped(out, s, [](char c, char *buf) -> std::string_view {
        switch (c) {
          case '"': return "\\\"";
          case '\\': return "\\\\";
          case '\n': return "\\n";
          case '\r': return "\\r";
          case '\t': return "\\t";
          default:
            if (static_cast<unsigned char>(c) >= 0x20)
                return {};
            // Remaining control characters JSON forbids raw.
            std::snprintf(buf, 8, "\\u%04x", c);
            return buf;
        }
    });
}

/** Escape a series name for use inside a Prometheus text-format
 *  label value (per-tag series carry their own {tag="..."} suffix
 *  with quotes). The format reserves exactly three characters:
 *  backslash, double-quote, and newline — a raw newline would
 *  terminate the sample line mid-value. */
void
appendPromLabelEscaped(TextOut out, std::string_view s)
{
    appendEscaped(out, s, [](char c, char *) -> std::string_view {
        switch (c) {
          case '\\': return "\\\\";
          case '"': return "\\\"";
          case '\n': return "\\n";
          default: return {};
        }
    });
}

/** "base{a=\"b\"}" split into base and inner label list
 *  ("a=\"b\""); views into the name. */
struct SplitName
{
    std::string_view base;
    std::string_view labels;

    explicit SplitName(std::string_view name)
    {
        const size_t brace = name.find('{');
        if (brace == std::string_view::npos) {
            base = name;
            return;
        }
        base = name.substr(0, brace);
        const size_t end = name.rfind('}');
        labels = name.substr(brace + 1,
                             end == std::string_view::npos ||
                                     end <= brace
                                 ? std::string_view::npos
                                 : end - brace - 1);
    }
};

/** "base<suffix>{labels,extra} ", braces only when there is a
 *  label to put in them; the value follows. */
void
promSeries(TextOut out, const SplitName &n, std::string_view suffix,
           std::string_view extra)
{
    out.append(n.base);
    out.append(suffix);
    if (!n.labels.empty() || !extra.empty()) {
        out.append('{');
        out.append(n.labels);
        if (!n.labels.empty() && !extra.empty())
            out.append(',');
        out.append(extra);
        out.append('}');
    }
    out.append(' ');
}

void
appendPrometheusMetric(TextOut out, const MetricView &m,
                       std::string_view &prev_base)
{
    const SplitName n(m.name);
    if (n.base != prev_base) {
        out.append("# TYPE ");
        out.append(n.base);
        out.append(m.kind == MetricKind::Counter ? " counter\n"
                   : m.kind == MetricKind::Gauge ? " gauge\n"
                                                 : " summary\n");
        prev_base = n.base;
    }
    const auto sample = [&](std::string_view suffix,
                            std::string_view extra, double v) {
        promSeries(out, n, suffix, extra);
        out.number(v);
        out.append('\n');
    };
    if (m.kind != MetricKind::Histogram) {
        sample("", "", m.value);
        return;
    }
    const HistogramSummary &h = m.hist;
    sample("", "quantile=\"0.5\"", h.p50);
    sample("", "quantile=\"0.9\"", h.p90);
    sample("", "quantile=\"0.99\"", h.p99);
    sample("_sum", "", h.sum);
    promSeries(out, n, "_count", "");
    out.count(h.count);
    out.append('\n');
}

void
appendJsonlMetric(TextOut out, const MetricView &m)
{
    const auto field = [&out](std::string_view key, double v) {
        out.append(key);
        out.number(v);
    };
    out.append("{\"name\": \"");
    appendJsonEscaped(out, m.name);
    out.append("\", \"kind\": \"");
    out.append(metricKindName(m.kind));
    out.append('"');
    if (m.kind == MetricKind::Histogram) {
        const HistogramSummary &h = m.hist;
        out.append(", \"count\": ");
        out.count(h.count);
        field(", \"sum\": ", h.sum);
        field(", \"max\": ", h.max);
        field(", \"mean\": ", h.mean());
        field(", \"p50\": ", h.p50);
        field(", \"p90\": ", h.p90);
        field(", \"p99\": ", h.p99);
    } else {
        field(", \"value\": ", m.value);
    }
    out.append("}\n");
}

const char *const WINDOW_NAMES[] = {"1s", "10s", "60s"};

void
appendSeriesPrometheus(TextOut out, std::string_view name,
                       bool is_histogram, const WindowSet &windows)
{
    const auto stat = [&](size_t w, const char *what, double v) {
        out.append("livephase_window{series=\"");
        appendPromLabelEscaped(out, name);
        out.append("\",window=\"");
        out.append(WINDOW_NAMES[w]);
        out.append("\",stat=\"");
        out.append(what);
        out.append("\"} ");
        out.number(v);
        out.append('\n');
    };
    for (size_t w = 0; w < windows.size(); ++w) {
        stat(w, "rate", windows[w].rate);
        if (is_histogram) {
            stat(w, "p50", windows[w].p50);
            stat(w, "p99", windows[w].p99);
            stat(w, "max", windows[w].max);
        }
    }
}

void
appendSeriesJsonl(TextOut out, std::string_view name,
                  bool is_histogram, const WindowSet &windows)
{
    out.append("{\"series\": \"");
    appendJsonEscaped(out, name);
    out.append(is_histogram ? "\", \"kind\": \"histogram\", "
                            : "\", \"kind\": \"counter\", ");
    const auto field = [&out](std::string_view key, double v) {
        out.append(key);
        out.number(v);
    };
    for (size_t i = 0; i < windows.size(); ++i) {
        const WindowStats &w = windows[i];
        if (i > 0)
            out.append(", ");
        out.append('"');
        out.append(WINDOW_NAMES[i]);
        out.append("\": {\"count\": ");
        out.count(w.count);
        field(", \"rate\": ", w.rate);
        if (is_histogram) {
            field(", \"mean\": ", w.mean);
            field(", \"p50\": ", w.p50);
            field(", \"p99\": ", w.p99);
            field(", \"max\": ", w.max);
        }
        out.append('}');
    }
    out.append("}\n");
}

std::vector<MetricView>
viewsOf(const MetricsSnapshot &snap)
{
    std::vector<MetricView> views;
    views.reserve(snap.samples.size());
    for (const MetricSample &s : snap.samples)
        views.push_back({s.name, s.kind, s.value, s.hist.summary()});
    return views;
}

} // namespace

const char *
expositionFormatName(ExpositionFormat format)
{
    switch (format) {
      case ExpositionFormat::Prometheus: return "prometheus";
      case ExpositionFormat::Jsonl: return "jsonl";
      case ExpositionFormat::Trace: return "trace";
    }
    return "format-?";
}

void
appendPrometheus(TextOut out, std::span<const MetricView> metrics)
{
    std::string_view prev_base;
    for (const MetricView &m : metrics)
        appendPrometheusMetric(out, m, prev_base);
}

void
appendJsonl(TextOut out, std::span<const MetricView> metrics)
{
    for (const MetricView &m : metrics)
        appendJsonlMetric(out, m);
}

void
appendTimeSeriesPrometheus(TextOut out, const TimeSeriesRegistry &reg)
{
    bool first = true;
    reg.forEach([&](std::string_view name, bool is_histogram,
                    const WindowSet &windows) {
        if (first)
            out.append("# TYPE livephase_window gauge\n");
        first = false;
        appendSeriesPrometheus(out, name, is_histogram, windows);
    });
}

void
appendTimeSeriesJsonl(TextOut out, const TimeSeriesRegistry &reg)
{
    reg.forEach([&](std::string_view name, bool is_histogram,
                    const WindowSet &windows) {
        appendSeriesJsonl(out, name, is_histogram, windows);
    });
}

std::string
renderPrometheus(const MetricsSnapshot &snap)
{
    std::string text;
    appendPrometheus(text, viewsOf(snap));
    return text;
}

std::string
renderJsonl(const MetricsSnapshot &snap)
{
    std::string text;
    appendJsonl(text, viewsOf(snap));
    return text;
}

std::string
renderTimeSeriesPrometheus(const TimeSeriesSnapshot &snap)
{
    std::string text;
    if (!snap.series.empty())
        text += "# TYPE livephase_window gauge\n";
    for (const SeriesSample &s : snap.series)
        appendSeriesPrometheus(text, s.name, s.is_histogram,
                               {s.w1s, s.w10s, s.w60s});
    return text;
}

std::string
renderTimeSeriesJsonl(const TimeSeriesSnapshot &snap)
{
    std::string text;
    for (const SeriesSample &s : snap.series)
        appendSeriesJsonl(text, s.name, s.is_histogram,
                          {s.w1s, s.w10s, s.w60s});
    return text;
}

PeriodicExporter::PeriodicExporter(const MetricsRegistry &registry,
                                   std::ostream &os,
                                   std::chrono::milliseconds tick)
    : reg(registry), out(os), interval(tick)
{
    start();
}

PeriodicExporter::~PeriodicExporter()
{
    stop();
}

void
PeriodicExporter::start()
{
    std::lock_guard lifecycle(lifecycle_mu);
    if (worker.joinable())
        return; // already running
    {
        std::lock_guard lock(mu);
        stopping = false;
    }
    worker = std::thread([this] { loop(); });
}

void
PeriodicExporter::stop()
{
    std::lock_guard lifecycle(lifecycle_mu);
    if (!worker.joinable())
        return; // never started, or already stopped
    {
        std::lock_guard lock(mu);
        stopping = true;
    }
    cv.notify_all();
    // Join strictly before the final export: once the worker is
    // gone, this thread is the only writer of `out`, so the final
    // tick cannot interleave with an in-flight one (the teardown
    // race this refactor removes).
    worker.join();
    worker = std::thread();
    exportOnce(); // final state, so short runs still export once
}

bool
PeriodicExporter::running() const
{
    std::lock_guard lifecycle(lifecycle_mu);
    return worker.joinable();
}

void
PeriodicExporter::loop()
{
    std::unique_lock lock(mu);
    while (!stopping) {
        // Interval arithmetic on the timebase seam (not the cv's
        // wall clock) so a virtual time source can drive export
        // cadence; see Watchdog::loop for the same pattern.
        const uint64_t deadline =
            timebase::nowNs() +
            static_cast<uint64_t>(interval.count()) * 1000000ull;
        while (!stopping) {
            const uint64_t now = timebase::nowNs();
            if (now >= deadline)
                break;
            const uint64_t remaining = deadline - now;
            if (timebase::virtualized()) {
                lock.unlock();
                timebase::sleepNs(remaining);
                lock.lock();
            } else if (cv.wait_for(
                           lock,
                           std::chrono::nanoseconds(remaining),
                           [this] { return stopping; })) {
                break;
            }
        }
        if (stopping)
            break;
        lock.unlock();
        exportOnce();
        lock.lock();
    }
}

void
PeriodicExporter::exportOnce()
{
    refreshRuntimeMetrics();
    const uint64_t tick =
        tick_count.fetch_add(1, std::memory_order_relaxed);
    std::vector<MetricView> view;
    reg.view({}, view);
    std::string text = "# export tick=" + std::to_string(tick) + "\n";
    appendJsonl(text, view);
    out << text;
    out.flush();
}

} // namespace livephase::obs

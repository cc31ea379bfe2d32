/**
 * @file
 * The metrics scrape: one live pass over the registry, the service
 * counters, the windowed series and the phase telemetry, appended
 * into one buffer.
 *
 * ScrapeDifferential keeps a test-local copy of the pipeline the live
 * pass replaced — copy every metric into a MetricsSnapshot, fold the
 * service counters in with a name-compare merge, read windows by
 * merging per-cell HistogramSnapshots, render through ostringstream —
 * and requires byte-identical Prometheus and JSONL text for the same
 * state, plus an identical query-stats snapshot.
 *
 * ScrapeConcurrency renders while writer threads record and another
 * thread rotates the windows; scripts/verify.sh --tsan runs it.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exposition.hh"
#include "obs/metrics.hh"
#include "obs/phase_telemetry.hh"
#include "obs/timeseries.hh"
#include "service/protocol.hh"
#include "service/service_stats.hh"

using namespace livephase;
using namespace livephase::obs;
using livephase::service::ServiceCounters;
using livephase::service::StatsSnapshot;

namespace
{

// --- the replaced pipeline, kept verbatim as the oracle ----------

namespace legacy
{

std::string
formatValue(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

void
splitName(const std::string &name, std::string &base,
          std::string &labels)
{
    const size_t brace = name.find('{');
    if (brace == std::string::npos) {
        base = name;
        labels.clear();
        return;
    }
    base = name.substr(0, brace);
    const size_t end = name.rfind('}');
    labels = name.substr(brace + 1,
                         end == std::string::npos || end <= brace
                             ? std::string::npos
                             : end - brace - 1);
}

std::string
promSeries(const std::string &base, const std::string &labels,
           const std::string &extra)
{
    if (labels.empty() && extra.empty())
        return base;
    std::string out = base + "{" + labels;
    if (!labels.empty() && !extra.empty())
        out += ",";
    out += extra;
    out += "}";
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
promLabelEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/** The old per-call quantile: its own walk over a copy. */
double
quantile(const HistogramSnapshot &h, double p)
{
    if (h.count == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const auto target = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(h.count)));
    const uint64_t rank = std::max<uint64_t>(target, 1);
    uint64_t seen = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
        if (h.buckets[b] == 0)
            continue;
        if (seen + h.buckets[b] >= rank) {
            const double lo = Histogram::bucketLowerBound(b);
            const double hi = b + 1 == h.buckets.size()
                ? h.max
                : Histogram::bucketUpperBound(b);
            const double frac = static_cast<double>(rank - seen) /
                static_cast<double>(h.buckets[b]);
            return std::min(lo + (hi - lo) * frac, h.max);
        }
        seen += h.buckets[b];
    }
    return h.max;
}

void
merge(MetricsSnapshot &into, const MetricsSnapshot &other)
{
    for (const MetricSample &theirs : other.samples) {
        bool merged = false;
        for (MetricSample &ours : into.samples) {
            if (ours.name != theirs.name)
                continue;
            if (ours.kind == MetricKind::Histogram)
                ours.hist.merge(theirs.hist);
            else
                ours.value += theirs.value;
            merged = true;
            break;
        }
        if (!merged)
            into.samples.push_back(theirs);
    }
    std::sort(into.samples.begin(), into.samples.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
}

StatsSnapshot
stats(const ServiceCounters &c, uint64_t open, uint64_t high_water)
{
    StatsSnapshot snap = c.snapshot(open, high_water);
    for (size_t i = 0; i < service::NUM_OPS; ++i) {
        const HistogramSnapshot hist =
            c.opLatencyHistogram(static_cast<uint16_t>(i + 1))
                .snapshot();
        service::OpLatency &l = snap.op_latency[i];
        l = {};
        l.count = hist.count;
        if (hist.count == 0)
            continue;
        l.mean_us = hist.mean();
        l.max_us = hist.max;
        l.p50_us = quantile(hist, 50.0);
        l.p99_us = quantile(hist, 99.0);
    }
    return snap;
}

void
fillMetrics(const ServiceCounters &c, MetricsSnapshot &out,
            uint64_t open, uint64_t high_water)
{
    const StatsSnapshot snap = stats(c, open, high_water);
    MetricsSnapshot mine;
    const auto add = [&mine](const char *name, MetricKind kind,
                             double value) {
        MetricSample s;
        s.name = name;
        s.kind = kind;
        s.value = value;
        mine.samples.push_back(std::move(s));
    };
    const auto counter = [&](const char *name, uint64_t v) {
        add(name, MetricKind::Counter, static_cast<double>(v));
    };
    counter("livephase_service_sessions_opened_total",
            snap.sessions_opened);
    counter("livephase_service_sessions_closed_total",
            snap.sessions_closed);
    counter("livephase_service_sessions_evicted_lru_total",
            snap.sessions_evicted_lru);
    counter("livephase_service_sessions_expired_ttl_total",
            snap.sessions_expired_ttl);
    counter("livephase_service_intervals_total",
            snap.intervals_processed);
    counter("livephase_service_batches_total",
            snap.batches_processed);
    counter("livephase_service_rejected_queue_full_total",
            snap.rejected_queue_full);
    counter("livephase_service_frames_malformed_total",
            snap.frames_malformed);
    add("livephase_service_sessions_open", MetricKind::Gauge,
        static_cast<double>(snap.sessions_open));
    add("livephase_service_queue_high_water", MetricKind::Gauge,
        static_cast<double>(snap.queue_high_water));
    for (size_t i = 0; i < service::NUM_OPS; ++i) {
        MetricSample s;
        s.name = "livephase_service_op_latency_us{op=\"" +
            service::opName(static_cast<uint16_t>(i + 1)) + "\"}";
        s.kind = MetricKind::Histogram;
        s.hist = c.opLatencyHistogram(static_cast<uint16_t>(i + 1))
                     .snapshot();
        mine.samples.push_back(std::move(s));
    }
    merge(out, mine);
}

std::string
renderPrometheus(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    std::string prev_base;
    for (const MetricSample &s : snap.samples) {
        std::string base, labels;
        splitName(s.name, base, labels);
        if (base != prev_base) {
            const char *type = s.kind == MetricKind::Counter
                ? "counter"
                : s.kind == MetricKind::Gauge ? "gauge" : "summary";
            os << "# TYPE " << base << " " << type << "\n";
            prev_base = base;
        }
        if (s.kind != MetricKind::Histogram) {
            os << promSeries(base, labels, "") << " "
               << formatValue(s.value) << "\n";
            continue;
        }
        const double quantiles[] = {50.0, 90.0, 99.0};
        for (double q : quantiles) {
            char extra[32];
            std::snprintf(extra, sizeof(extra), "quantile=\"%g\"",
                          q / 100.0);
            os << promSeries(base, labels, extra) << " "
               << formatValue(quantile(s.hist, q)) << "\n";
        }
        os << promSeries(base + "_sum", labels, "") << " "
           << formatValue(s.hist.sum) << "\n";
        os << promSeries(base + "_count", labels, "") << " "
           << s.hist.count << "\n";
    }
    return os.str();
}

std::string
renderJsonl(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    for (const MetricSample &s : snap.samples) {
        os << "{\"name\": \"" << jsonEscape(s.name)
           << "\", \"kind\": \"" << metricKindName(s.kind) << "\"";
        if (s.kind == MetricKind::Histogram) {
            os << ", \"count\": " << s.hist.count
               << ", \"sum\": " << formatValue(s.hist.sum)
               << ", \"max\": " << formatValue(s.hist.max)
               << ", \"mean\": " << formatValue(s.hist.mean())
               << ", \"p50\": " << formatValue(quantile(s.hist, 50.0))
               << ", \"p90\": " << formatValue(quantile(s.hist, 90.0))
               << ", \"p99\": "
               << formatValue(quantile(s.hist, 99.0));
        } else {
            os << ", \"value\": " << formatValue(s.value);
        }
        os << "}\n";
    }
    return os.str();
}

/** The old ring read: one merged HistogramSnapshot per window. */
struct HistRing
{
    std::unique_ptr<std::array<Histogram, TS_SLOTS>> cells =
        std::make_unique<std::array<Histogram, TS_SLOTS>>();
    uint64_t epoch = 0;

    void record(double v) { (*cells)[epoch % TS_SLOTS].record(v); }

    void rotate()
    {
        (*cells)[(epoch + 1) % TS_SLOTS].clear();
        ++epoch;
    }

    WindowStats stats(Window w, double slot_seconds) const
    {
        const size_t slots = windowSlots(w);
        HistogramSnapshot merged;
        merged.buckets.resize(HISTOGRAM_BUCKETS);
        for (size_t back = 0; back <= slots; ++back) {
            if (back > epoch)
                break;
            merged.merge((*cells)[(epoch - back) % TS_SLOTS].snapshot());
        }
        WindowStats s;
        s.count = merged.count;
        const double span =
            static_cast<double>(slots) * std::max(slot_seconds, 1e-9);
        s.rate = static_cast<double>(merged.count) / span;
        s.mean = merged.mean();
        s.p50 = quantile(merged, 50.0);
        s.p99 = quantile(merged, 99.0);
        s.max = merged.max;
        return s;
    }
};

struct CountRing
{
    std::array<uint64_t, TS_SLOTS> cells{};
    uint64_t epoch = 0;

    void inc(uint64_t n) { cells[epoch % TS_SLOTS] += n; }

    void rotate()
    {
        cells[(epoch + 1) % TS_SLOTS] = 0;
        ++epoch;
    }

    WindowStats stats(Window w, double slot_seconds) const
    {
        const size_t slots = windowSlots(w);
        WindowStats s;
        for (size_t back = 0; back <= slots; ++back) {
            if (back > epoch)
                break;
            s.count += cells[(epoch - back) % TS_SLOTS];
        }
        const double span =
            static_cast<double>(slots) * std::max(slot_seconds, 1e-9);
        s.rate = static_cast<double>(s.count) / span;
        return s;
    }
};

void
windowPrometheusLines(std::ostringstream &os, const SeriesSample &s,
                      const char *window, const WindowStats &w)
{
    const std::string prefix = "livephase_window{series=\"" +
        promLabelEscape(s.name) + "\",window=\"" + window +
        "\",stat=\"";
    os << prefix << "rate\"} " << formatValue(w.rate) << "\n";
    if (s.is_histogram) {
        os << prefix << "p50\"} " << formatValue(w.p50) << "\n";
        os << prefix << "p99\"} " << formatValue(w.p99) << "\n";
        os << prefix << "max\"} " << formatValue(w.max) << "\n";
    }
}

void
windowJson(std::ostringstream &os, const SeriesSample &s,
           const char *window, const WindowStats &w)
{
    os << "\"" << window << "\": {\"count\": " << w.count
       << ", \"rate\": " << formatValue(w.rate);
    if (s.is_histogram) {
        os << ", \"mean\": " << formatValue(w.mean)
           << ", \"p50\": " << formatValue(w.p50)
           << ", \"p99\": " << formatValue(w.p99)
           << ", \"max\": " << formatValue(w.max);
    }
    os << "}";
}

std::string
renderTimeSeriesPrometheus(const TimeSeriesSnapshot &snap)
{
    std::ostringstream os;
    if (!snap.series.empty())
        os << "# TYPE livephase_window gauge\n";
    for (const SeriesSample &s : snap.series) {
        windowPrometheusLines(os, s, "1s", s.w1s);
        windowPrometheusLines(os, s, "10s", s.w10s);
        windowPrometheusLines(os, s, "60s", s.w60s);
    }
    return os.str();
}

std::string
renderTimeSeriesJsonl(const TimeSeriesSnapshot &snap)
{
    std::ostringstream os;
    for (const SeriesSample &s : snap.series) {
        os << "{\"series\": \"" << jsonEscape(s.name)
           << "\", \"kind\": \""
           << (s.is_histogram ? "histogram" : "counter") << "\", ";
        windowJson(os, s, "1s", s.w1s);
        os << ", ";
        windowJson(os, s, "10s", s.w10s);
        os << ", ";
        windowJson(os, s, "60s", s.w60s);
        os << "}\n";
    }
    return os.str();
}

void
appendf(std::string &out, const char *fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    const int n = vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min(static_cast<size_t>(n),
                                 sizeof buf - 1));
}

std::string
phaseJson(const PhaseTelemetrySnapshot &s)
{
    std::string out = "{";
    appendf(out,
            "\"classified\":%llu,\"predictions\":%llu,"
            "\"mispredictions\":%llu,\"transitions\":%llu,",
            static_cast<unsigned long long>(s.classified),
            static_cast<unsigned long long>(s.predictions),
            static_cast<unsigned long long>(s.mispredictions),
            static_cast<unsigned long long>(s.transitions));
    appendf(out, "\"hit_rate\":%.6f,", s.cumulativeHitRate());
    appendf(out,
            "\"hit_rate_1s\":%.6f,\"hit_rate_10s\":%.6f,"
            "\"hit_rate_60s\":%.6f,",
            s.hit_rate_1s, s.hit_rate_10s, s.hit_rate_60s);
    appendf(out, "\"prediction_rate_10s\":%.3f,", s.pred_10s.rate);
    out += "\"residency\":{";
    bool first = true;
    for (size_t p = 0; p < PT_MAX_PHASES; ++p) {
        if (!s.residency[p])
            continue;
        appendf(out, "%s\"%zu\":%llu", first ? "" : ",", p + 1,
                static_cast<unsigned long long>(s.residency[p]));
        first = false;
    }
    out += "},\"transitions_matrix\":[";
    first = true;
    for (size_t from = 0; from < PT_MAX_PHASES; ++from) {
        for (size_t to = 0; to < PT_MAX_PHASES; ++to) {
            const uint64_t n = s.matrix[from * PT_MAX_PHASES + to];
            if (!n)
                continue;
            appendf(out,
                    "%s{\"from\":%zu,\"to\":%zu,\"count\":%llu}",
                    first ? "" : ",", from + 1, to + 1,
                    static_cast<unsigned long long>(n));
            first = false;
        }
    }
    out += "],\"dvfs_actions\":{";
    first = true;
    for (size_t a = 0; a < PT_MAX_ACTIONS; ++a) {
        if (!s.dvfs_actions[a])
            continue;
        appendf(out, "%s\"%zu\":%llu", first ? "" : ",", a,
                static_cast<unsigned long long>(s.dvfs_actions[a]));
        first = false;
    }
    out += "}}";
    return out;
}

std::string
phasePrometheus(const PhaseTelemetrySnapshot &s)
{
    std::string out = "# TYPE livephase_phase_hit_rate gauge\n";
    appendf(out, "livephase_phase_hit_rate{window=\"1s\"} %.6f\n",
            s.hit_rate_1s);
    appendf(out, "livephase_phase_hit_rate{window=\"10s\"} %.6f\n",
            s.hit_rate_10s);
    appendf(out, "livephase_phase_hit_rate{window=\"60s\"} %.6f\n",
            s.hit_rate_60s);
    appendf(out,
            "livephase_phase_hit_rate{window=\"cumulative\"} "
            "%.6f\n",
            s.cumulativeHitRate());
    out += "# TYPE livephase_phase_residency_total counter\n";
    for (size_t p = 0; p < PT_MAX_PHASES; ++p) {
        if (!s.residency[p])
            continue;
        appendf(out,
                "livephase_phase_residency_total{phase=\"%zu\"} "
                "%llu\n",
                p + 1,
                static_cast<unsigned long long>(s.residency[p]));
    }
    out += "# TYPE livephase_phase_transition_total counter\n";
    for (size_t from = 0; from < PT_MAX_PHASES; ++from) {
        for (size_t to = 0; to < PT_MAX_PHASES; ++to) {
            const uint64_t n = s.matrix[from * PT_MAX_PHASES + to];
            if (!n)
                continue;
            appendf(out,
                    "livephase_phase_transition_total{from=\"%zu\","
                    "to=\"%zu\"} %llu\n",
                    from + 1, to + 1,
                    static_cast<unsigned long long>(n));
        }
    }
    out += "# TYPE livephase_dvfs_action_total counter\n";
    for (size_t a = 0; a < PT_MAX_ACTIONS; ++a) {
        if (!s.dvfs_actions[a])
            continue;
        appendf(out,
                "livephase_dvfs_action_total{index=\"%zu\"} %llu\n",
                a,
                static_cast<unsigned long long>(s.dvfs_actions[a]));
    }
    return out;
}

} // namespace legacy

// --- shared fixture state ----------------------------------------

const char HOSTILE_NAME[] = "cycles.bad\"quote\\slash\nnewline";

/** One windowed series written to the live registry and to its
 *  legacy shadow ring alike. */
struct ShadowedSeries
{
    std::string name;
    WindowedHistogram *hist = nullptr;
    WindowedCounter *counter = nullptr;
    legacy::HistRing hist_ring;
    legacy::CountRing count_ring;
};

class ScrapeDifferential : public ::testing::Test
{
  protected:
    MetricsRegistry reg;
    ServiceCounters counters;
    TimeSeriesRegistry ts;
    std::vector<std::unique_ptr<ShadowedSeries>> series;
    uint64_t rotations = 0;
    uint64_t open = 0;
    uint64_t high_water = 0;

    ShadowedSeries &histSeries(const std::string &name)
    {
        series.push_back(std::make_unique<ShadowedSeries>());
        series.back()->name = name;
        series.back()->hist = &ts.histogram(name);
        return *series.back();
    }

    ShadowedSeries &counterSeries(const std::string &name)
    {
        series.push_back(std::make_unique<ShadowedSeries>());
        series.back()->name = name;
        series.back()->counter = &ts.counter(name);
        return *series.back();
    }

    static void record(ShadowedSeries &s, double v)
    {
        s.hist->record(v);
        s.hist_ring.record(v);
    }

    static void inc(ShadowedSeries &s, uint64_t n)
    {
        s.counter->inc(n);
        s.count_ring.inc(n);
    }

    /** One slot boundary on the live registry and every shadow. */
    void rotate()
    {
        if (rotations == 0)
            ts.rotateIfDue(0); // anchors the schedule
        ++rotations;
        ASSERT_EQ(ts.rotateIfDue(rotations * ts.slotDurationNs()), 1u);
        for (auto &s : series) {
            s->hist_ring.rotate();
            s->count_ring.rotate();
        }
    }

    TimeSeriesSnapshot legacySeries() const
    {
        const double slot_s =
            static_cast<double>(ts.slotDurationNs()) * 1e-9;
        TimeSeriesSnapshot snap;
        for (const auto &s : series) {
            SeriesSample out;
            out.name = s->name;
            out.is_histogram = s->hist != nullptr;
            const auto read = [&](Window w) {
                return s->hist ? s->hist_ring.stats(w, slot_s)
                               : s->count_ring.stats(w, slot_s);
            };
            out.w1s = read(Window::OneSecond);
            out.w10s = read(Window::TenSeconds);
            out.w60s = read(Window::SixtySeconds);
            snap.series.push_back(out);
        }
        std::sort(snap.series.begin(), snap.series.end(),
                  [](const SeriesSample &a, const SeriesSample &b) {
                      return a.name < b.name;
                  });
        return snap;
    }

    /** What the service's scrape renders, the replaced way. */
    std::string legacyText(ExpositionFormat format) const
    {
        MetricsSnapshot snap = reg.snapshot();
        legacy::fillMetrics(counters, snap, open, high_water);
        const TimeSeriesSnapshot windows = legacySeries();
        const PhaseTelemetrySnapshot phases =
            PhaseTelemetry::global().snapshot();
        if (format == ExpositionFormat::Jsonl)
            return legacy::renderJsonl(snap) +
                legacy::renderTimeSeriesJsonl(windows) +
                legacy::phaseJson(phases) + "\n";
        return legacy::renderPrometheus(snap) +
            legacy::renderTimeSeriesPrometheus(windows) +
            legacy::phasePrometheus(phases);
    }

    /** What the service's scrape renders now: one live pass. */
    std::string liveText(ExpositionFormat format) const
    {
        std::vector<MetricView> view;
        reg.view(counters.metricRefs(open, high_water), view);
        std::string text;
        if (format == ExpositionFormat::Jsonl) {
            appendJsonl(text, view);
            appendTimeSeriesJsonl(text, ts);
            PhaseTelemetry::global().appendJson(text);
            text += "\n";
            return text;
        }
        appendPrometheus(text, view);
        appendTimeSeriesPrometheus(text, ts);
        PhaseTelemetry::global().appendPrometheus(text);
        return text;
    }

    void expectIdentical(const char *what) const
    {
        for (const auto format :
             {ExpositionFormat::Prometheus, ExpositionFormat::Jsonl}) {
            const std::string want = legacyText(format);
            const std::string got = liveText(format);
            EXPECT_EQ(got, want)
                << what << " (" << expositionFormatName(format)
                << ")";
        }
        // The snapshot adapters render through the same writers.
        const TimeSeriesSnapshot windows = legacySeries();
        EXPECT_EQ(renderTimeSeriesPrometheus(ts.snapshot()),
                  legacy::renderTimeSeriesPrometheus(windows))
            << what;
        EXPECT_EQ(renderTimeSeriesJsonl(ts.snapshot()),
                  legacy::renderTimeSeriesJsonl(windows))
            << what;
        EXPECT_EQ(renderPrometheus(reg.snapshot()),
                  legacy::renderPrometheus(reg.snapshot()))
            << what;
        EXPECT_EQ(renderJsonl(reg.snapshot()),
                  legacy::renderJsonl(reg.snapshot()))
            << what;
    }

    void SetUp() override
    {
        PhaseTelemetry::global().resetForTest();
    }

    void TearDown() override
    {
        PhaseTelemetry::global().resetForTest();
    }
};

void
expectSameStats(const StatsSnapshot &got, const StatsSnapshot &want)
{
    for (size_t i = 0; i < service::NUM_OPS; ++i) {
        const service::OpLatency &g = got.op_latency[i];
        const service::OpLatency &w = want.op_latency[i];
        EXPECT_EQ(g.count, w.count) << "op " << i;
        EXPECT_EQ(g.mean_us, w.mean_us) << "op " << i;
        EXPECT_EQ(g.p50_us, w.p50_us) << "op " << i;
        EXPECT_EQ(g.p99_us, w.p99_us) << "op " << i;
        EXPECT_EQ(g.max_us, w.max_us) << "op " << i;
    }
    EXPECT_EQ(service::encodeStats(got), service::encodeStats(want));
}

TEST_F(ScrapeDifferential, EmptyState)
{
    expectIdentical("nothing registered");
    expectSameStats(counters.snapshot(0, 0),
                    legacy::stats(counters, 0, 0));
}

TEST_F(ScrapeDifferential, HistogramEdgeBuckets)
{
    reg.histogram("livephase_test_empty_us");
    Histogram &under = reg.histogram("livephase_test_under_us");
    under.record(0.0);
    under.record(-4.0);
    under.record(std::nan(""));
    under.record(1e-6);
    Histogram &over = reg.histogram("livephase_test_over_us");
    over.record(3.0);
    over.record(1e30);
    over.record(5e12);
    Histogram &only_over = reg.histogram("livephase_test_only_over_us");
    only_over.record(std::numeric_limits<double>::infinity());
    Histogram &spread = reg.histogram("livephase_test_spread_us");
    for (int i = 1; i <= 997; ++i)
        spread.record(static_cast<double>(i) * 0.37);
    Histogram &one = reg.histogram("livephase_test_one_us");
    one.record(42.0);
    expectIdentical("edge buckets");
}

TEST_F(ScrapeDifferential, ValuesNamesAndFamilies)
{
    // Integer-valued doubles on both sides of the 1e10 edge, where
    // %.10g switches to an exponent, plus fractions and specials.
    const double values[] = {0.0,
                             -0.0,
                             7.0,
                             -3.0,
                             9999999999.0,
                             1e10,
                             1e15,
                             123456.789,
                             0.1,
                             1e-7,
                             -2.5e-300,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::nan("")};
    for (size_t i = 0; i < std::size(values); ++i)
        reg.gauge("livephase_test_gauge_" + std::to_string(i))
            .set(values[i]);
    reg.counter("livephase_test_events_total").inc(7);
    reg.counter("livephase_test_big_total").inc(1ull << 60);
    // A labelled family next to unlabelled names sharing its
    // prefix: '_' sorts before '{', so the family's TYPE header
    // comes back after livephase_test_fam_extra.
    reg.counter("livephase_test_fam").inc(1);
    reg.counter("livephase_test_fam_extra").inc(2);
    reg.counter("livephase_test_fam{op=\"a\"}").inc(3);
    reg.counter("livephase_test_fam{op=\"b\"}").inc(4);
    reg.histogram("livephase_test_lat_us{op=\"open\"}").record(3.0);
    reg.histogram("livephase_test_lat_us").record(5.0);
    reg.histogram("livephase_test_lat_us_total").record(6.0);
    // Malformed label sets: no closing brace, brace first.
    reg.gauge("livephase_test_unclosed{op=\"x\"").set(1.0);
    reg.gauge("{leading=\"brace\"}").set(2.0);
    // Hostile names: reserved and control characters.
    reg.gauge(HOSTILE_NAME).set(3.0);
    reg.counter(std::string("evil{label=\"a\nb\"}\t\r") + '\x01')
        .inc(1);
    ShadowedSeries &hostile = histSeries(HOSTILE_NAME);
    record(hostile, 2.0);
    ShadowedSeries &ctrl =
        counterSeries(std::string("bad\"q\\s\nn\tt\rr") + '\x01');
    inc(ctrl, 3);
    expectIdentical("values and names");
}

TEST_F(ScrapeDifferential, ServiceCountersMergeWithTheRegistry)
{
    counters.sessionOpened();
    counters.sessionOpened();
    counters.sessionClosed();
    counters.sessionEvicted();
    counters.sessionExpired();
    counters.batchProcessed(16);
    counters.batchProcessed(1);
    counters.frameRejectedQueueFull();
    counters.frameMalformed();
    for (int i = 0; i < 300; ++i)
        counters.opLatency(2, 5.0 + (i % 17) * 1.3);
    counters.opLatency(1, 120.0);
    counters.opLatency(5, 350.0);
    counters.opLatency(5, 9e9);
    counters.opLatency(99, 1.0); // ignored
    open = 3;
    high_water = 17;

    // Same names on both sides: values add, histograms merge.
    reg.counter("livephase_service_intervals_total").inc(1000);
    reg.gauge("livephase_service_sessions_open").set(0.5);
    Histogram &shared =
        reg.histogram("livephase_service_op_latency_us{op=\"open\"}");
    for (int i = 0; i < 50; ++i)
        shared.record(10.0 + i);
    // Registry-only names sorted in between the service's.
    reg.histogram("livephase_service_queue_wait_us").record(4.0);
    reg.counter("livephase_service_a_total").inc(1);
    reg.counter("livephase_service_z_total").inc(1);
    reg.counter("livephase_core_intervals_total").inc(77);

    expectIdentical("service merge");
    expectSameStats(counters.snapshot(open, high_water),
                    legacy::stats(counters, open, high_water));
}

TEST_F(ScrapeDifferential, WindowsEarlyInTheRingAndAfterWrap)
{
    ShadowedSeries &wait = histSeries("service.queue_wait_ms");
    ShadowedSeries &lat = histSeries("service.handle_us");
    ShadowedSeries &idle = histSeries("service.idle_us");
    ShadowedSeries &admits = counterSeries("admission.admits");
    ShadowedSeries &sheds = counterSeries("admission.sheds");
    uint64_t step = 0;
    const auto tick = [&] {
        ++step;
        for (uint64_t i = 0; i < step % 7 + 1; ++i)
            record(wait, 0.01 * static_cast<double>(step * 13 + i));
        if (step % 3 == 0)
            record(lat, static_cast<double>(step) * 1.7);
        if (step % 11 == 0)
            record(lat, 1e12); // overflow bucket
        inc(admits, step % 5);
        if (step % 9 == 0)
            inc(sheds, 1);
    };
    tick();
    expectIdentical("epoch 0");
    (void)idle;
    for (const uint64_t until : {1u, 2u, 9u, 10u, 11u, 59u, 60u, 61u,
                                 63u, 64u, 65u, 130u}) {
        while (rotations < until) {
            tick();
            rotate();
        }
        tick();
        expectIdentical(("epoch " + std::to_string(until)).c_str());
    }
    // A quiet stretch after wrap-around ages everything out.
    for (int i = 0; i < 61; ++i)
        rotate();
    expectIdentical("aged out");
}

TEST_F(ScrapeDifferential, PhaseTelemetry)
{
    PhaseBatchDelta delta;
    delta.classified = 40;
    delta.predictions = 39;
    delta.mispredictions = 4;
    delta.transitions = 6;
    delta.addResidency(1, 10);
    delta.addResidency(3, 20);
    delta.addResidency(999, 10);
    delta.addTransition(1, 3);
    delta.addTransition(3, 1);
    delta.addTransition(3, 16);
    delta.addDvfsAction(0, 12);
    delta.addDvfsAction(5, 28);
    PhaseTelemetry::global().recordBatch(delta);
    reg.counter("livephase_core_intervals_total").inc(40);
    expectIdentical("phase telemetry");
}

TEST(ScrapeFrame, InPlaceMetricsTextMatchesStagedEncoding)
{
    for (const std::string &text :
         {std::string(), std::string("x 1\n"),
          std::string(70000, 'm')}) {
        service::Bytes staged;
        service::encodeResponseInto(staged, 5, 9, service::Status::Ok,
                                    service::encodeMetricsText(text),
                                    1);
        service::Bytes in_place = {0xde, 0xad}; // cleared first
        service::beginMetricsTextResponse(in_place, 5, 9, 1);
        TextOut(in_place).append(text);
        service::finishMetricsTextResponse(in_place);
        EXPECT_EQ(in_place, staged) << text.size() << " bytes";
    }
}

TEST(ScrapeFrame, InPlaceStatsBodyMatchesStagedEncoding)
{
    ServiceCounters counters;
    counters.batchProcessed(8);
    counters.opLatency(2, 12.5);
    const StatsSnapshot snap = counters.snapshot(4, 2);
    service::Bytes staged;
    service::encodeResponseInto(staged, 3, 0, service::Status::Ok,
                                service::encodeStats(snap));
    service::Bytes in_place;
    service::encodeResponseInto(in_place, 3, 0, service::Status::Ok,
                                {});
    service::encodeStatsInto(in_place, snap);
    service::finishResponseInto(in_place);
    EXPECT_EQ(in_place, staged);
}

// --- concurrency -------------------------------------------------

/** Family a sample line belongs to: its base name, with a
 *  summary's _sum/_count suffix folded back into the family. */
std::string
familyOf(const std::string &series,
         const std::map<std::string, std::string> &types)
{
    const std::string base = series.substr(0, series.find('{'));
    for (const char *suffix : {"_sum", "_count"}) {
        const size_t n = std::char_traits<char>::length(suffix);
        if (base.size() > n &&
            base.compare(base.size() - n, n, suffix) == 0) {
            const std::string stem = base.substr(0, base.size() - n);
            const auto it = types.find(stem);
            if (it != types.end() && it->second == "summary")
                return stem;
        }
    }
    return base;
}

TEST(ScrapeConcurrency, ScrapesStayWellFormedAndMonotonic)
{
    MetricsRegistry reg;
    TimeSeriesRegistry ts;
    ts.setSlotDuration(200'000); // 0.2 ms: many rotations per run
    ServiceCounters counters;
    constexpr int WRITERS = 4;
    // Registered up front so the first scrape already has them.
    Counter &shared = reg.counter("livephase_conc_events_total");
    WindowedHistogram &wlat = ts.histogram("conc.lat_us");
    WindowedCounter &wcount = ts.counter("conc.events");

    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    // Stops and joins the threads however the scrape loop exits.
    struct Joiner
    {
        std::atomic<bool> &done;
        std::vector<std::thread> &threads;
        ~Joiner()
        {
            done.store(true);
            for (std::thread &t : threads)
                t.join();
        }
    } joiner{done, threads};
    for (int t = 0; t < WRITERS; ++t) {
        threads.emplace_back([&, t] {
            Histogram &lat = reg.histogram(
                "livephase_conc_lat_us{thread=\"" + std::to_string(t) +
                "\"}");
            uint64_t i = 0;
            while (!done.load(std::memory_order_relaxed)) {
                shared.inc();
                lat.record(static_cast<double>(i % 1000) * 0.3);
                wlat.record(static_cast<double>(i % 50));
                wcount.inc();
                counters.opLatency(2, static_cast<double>(i % 70));
                if (i % 64 == 0)
                    counters.batchProcessed(i % 300);
                // Late registrations make scrapes rebuild the index.
                if (i % 2048 == 0 && i / 2048 < 8)
                    reg.counter("livephase_conc_t" + std::to_string(t) +
                                "_n" + std::to_string(i / 2048) +
                                "_total")
                        .inc();
                ++i;
            }
        });
    }
    threads.emplace_back([&] {
        while (!done.load(std::memory_order_relaxed))
            ts.rotateIfDue();
    });

    std::map<std::string, double> last; // monotonic series -> value
    std::vector<MetricView> view;
    std::string text;
    size_t scrapes = 0;
    for (; scrapes < 300; ++scrapes) {
        text.clear();
        reg.view(counters.metricRefs(1, 2), view);
        appendPrometheus(text, view);
        appendTimeSeriesPrometheus(text, ts);

        std::map<std::string, std::string> types;
        std::set<std::string> closed; // families already left
        std::string current;
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
            ASSERT_FALSE(line.empty());
            if (line.rfind("# TYPE ", 0) == 0) {
                std::istringstream header(line.substr(7));
                std::string name, type, rest;
                header >> name >> type;
                ASSERT_TRUE(type == "counter" || type == "gauge" ||
                            type == "summary")
                    << line;
                ASSERT_FALSE(static_cast<bool>(header >> rest)) << line;
                ASSERT_EQ(types.count(name), 0u)
                    << "family typed twice: " << line;
                if (!current.empty())
                    closed.insert(current);
                types[name] = type;
                current = name;
                continue;
            }
            const size_t space = line.rfind(' ');
            ASSERT_NE(space, std::string::npos) << line;
            const std::string series = line.substr(0, space);
            const std::string value = line.substr(space + 1);
            char *end = nullptr;
            const double v = std::strtod(value.c_str(), &end);
            ASSERT_TRUE(!value.empty() && *end == '\0') << line;
            const std::string family = familyOf(series, types);
            ASSERT_EQ(family, current)
                << "sample outside its family: " << line;
            ASSERT_EQ(closed.count(family), 0u) << line;
            const bool monotonic = types[family] == "counter" ||
                series.find("_count") != std::string::npos;
            if (!monotonic)
                continue;
            const auto it = last.find(series);
            if (it != last.end()) {
                ASSERT_GE(v, it->second)
                    << series << " went backwards";
            }
            last[series] = v;
        }
        ASSERT_EQ(types.count("livephase_conc_events_total"), 1u);
        ASSERT_EQ(types.count("livephase_window"), 1u);
    }
    EXPECT_EQ(scrapes, 300u);
    EXPECT_GT(last["livephase_conc_events_total"], 0.0);
}

} // namespace

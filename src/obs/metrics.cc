#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/logging.hh"

namespace livephase::obs
{

// --- histogram ---------------------------------------------------

size_t
Histogram::bucketIndex(double value)
{
    if (!(value >= std::ldexp(1.0, LOG_MIN_EXP)))
        return 0; // underflow; also catches negatives and NaN
    if (value >= std::ldexp(1.0, LOG_MAX_EXP))
        return HISTOGRAM_BUCKETS - 1;
    int exp;
    const double mantissa = std::frexp(value, &exp); // in [0.5, 1)
    // value = mantissa * 2^exp, so floor(log2(value)) == exp - 1.
    const int octave = exp - 1 - LOG_MIN_EXP;
    const auto sub = static_cast<size_t>(
        (mantissa * 2.0 - 1.0) * static_cast<double>(LOG_SUBBUCKETS));
    return 1 + static_cast<size_t>(octave) * LOG_SUBBUCKETS +
        std::min(sub, LOG_SUBBUCKETS - 1);
}

double
Histogram::bucketLowerBound(size_t bucket)
{
    if (bucket == 0)
        return 0.0;
    if (bucket >= HISTOGRAM_BUCKETS - 1)
        return std::ldexp(1.0, LOG_MAX_EXP);
    const size_t step = bucket - 1;
    const auto octave = static_cast<int>(step / LOG_SUBBUCKETS);
    const auto sub = static_cast<double>(step % LOG_SUBBUCKETS);
    return std::ldexp(1.0 + sub / LOG_SUBBUCKETS,
                      LOG_MIN_EXP + octave);
}

double
Histogram::bucketUpperBound(size_t bucket)
{
    if (bucket >= HISTOGRAM_BUCKETS - 1)
        return std::numeric_limits<double>::infinity();
    return bucketLowerBound(bucket + 1);
}

void
Histogram::record(double value)
{
    buckets[bucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    n.fetch_add(1, std::memory_order_relaxed);
    double cur = total.load(std::memory_order_relaxed);
    while (!total.compare_exchange_weak(cur, cur + value,
                                        std::memory_order_relaxed)) {
    }
    double m = peak.load(std::memory_order_relaxed);
    while (value > m &&
           !peak.compare_exchange_weak(m, value,
                                       std::memory_order_relaxed)) {
    }
}

void
Histogram::clear()
{
    for (size_t b = 0; b < HISTOGRAM_BUCKETS; ++b)
        buckets[b].store(0, std::memory_order_relaxed);
    n.store(0, std::memory_order_relaxed);
    total.store(0.0, std::memory_order_relaxed);
    peak.store(0.0, std::memory_order_relaxed);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.count = count();
    snap.sum = sum();
    snap.max = max();
    snap.buckets.resize(HISTOGRAM_BUCKETS);
    for (size_t b = 0; b < HISTOGRAM_BUCKETS; ++b)
        snap.buckets[b] = buckets[b].load(std::memory_order_relaxed);
    return snap;
}

namespace
{

/** 1-based rank of the p-th percentile order statistic. */
uint64_t
quantileRank(double p, uint64_t count)
{
    p = std::clamp(p, 0.0, 100.0);
    const auto target = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    return std::max<uint64_t>(target, 1);
}

/**
 * The one quantile reader: for ascending percentiles `ps`, one walk
 * over `n` buckets read through `at(b)` finds the bucket holding
 * each rank, interpolates linearly inside it and clamps to the exact
 * max (the overflow bucket's upper bound is the max itself).
 */
template <class At>
void
walkQuantiles(At at, size_t n, uint64_t count, double max,
              std::span<const double> ps, double *out)
{
    size_t q = 0;
    if (count == 0) {
        for (; q < ps.size(); ++q)
            out[q] = 0.0;
        return;
    }
    uint64_t rank = quantileRank(ps[0], count);
    uint64_t seen = 0;
    for (size_t b = 0; b < n && q < ps.size(); ++b) {
        const uint64_t in_bucket = at(b);
        if (in_bucket == 0)
            continue;
        while (q < ps.size() && seen + in_bucket >= rank) {
            const double lo = Histogram::bucketLowerBound(b);
            const double hi =
                b + 1 == n ? max : Histogram::bucketUpperBound(b);
            const double frac = static_cast<double>(rank - seen) /
                static_cast<double>(in_bucket);
            out[q] = std::min(lo + (hi - lo) * frac, max);
            if (++q < ps.size())
                rank = quantileRank(ps[q], count);
        }
        seen += in_bucket;
    }
    for (; q < ps.size(); ++q)
        out[q] = max;
}

template <class At>
HistogramSummary
summarize(At at, size_t n, uint64_t count, double sum, double max)
{
    static constexpr double PS[] = {50.0, 90.0, 99.0};
    double qs[3];
    walkQuantiles(at, n, count, max, PS, qs);
    return {count, sum, max, qs[0], qs[1], qs[2]};
}

/** summarize() over a plain bucket array. */
HistogramSummary
summarizeBuckets(std::span<const uint64_t> buckets, uint64_t count,
                 double sum, double max)
{
    return summarize([buckets](size_t b) { return buckets[b]; },
                     buckets.size(), count, sum, max);
}

} // namespace

HistogramSummary
Histogram::summary() const
{
    const uint64_t c = count();
    const double s = sum();
    const double m = max();
    return summarize(
        [this](size_t b) {
            return buckets[b].load(std::memory_order_relaxed);
        },
        HISTOGRAM_BUCKETS, c, s, m);
}

double
HistogramSnapshot::quantile(double p) const
{
    double q;
    walkQuantiles([this](size_t b) { return buckets[b]; },
                  buckets.size(), count, max, {&p, 1}, &q);
    return q;
}

HistogramSummary
HistogramSnapshot::summary() const
{
    return summarizeBuckets(buckets, count, sum, max);
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
    if (buckets.size() < other.buckets.size())
        buckets.resize(other.buckets.size());
    for (size_t b = 0; b < other.buckets.size(); ++b)
        buckets[b] += other.buckets[b];
}

HistogramSummary
HistogramSum::summary() const
{
    return summarizeBuckets(buckets, count, sum, max);
}

void
HistogramSum::add(const Histogram &h)
{
    // An empty histogram adds nothing (its sum and max are 0.0 and
    // neither can be -0.0), so idle window cells cost one load.
    const uint64_t n = h.count();
    if (n == 0)
        return;
    count += n;
    sum += h.sum();
    max = std::max(max, h.max());
    for (size_t b = 0; b < HISTOGRAM_BUCKETS; ++b)
        buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
}

// --- snapshot ----------------------------------------------------

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "kind-?";
}

const MetricSample *
MetricsSnapshot::find(const std::string &name) const
{
    for (const MetricSample &s : samples)
        if (s.name == name)
            return &s;
    return nullptr;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const MetricSample &theirs : other.samples) {
        bool merged = false;
        for (MetricSample &ours : samples) {
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
            samples.push_back(theirs);
    }
    std::sort(samples.begin(), samples.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
}

// --- registry ----------------------------------------------------

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Shard &
MetricsRegistry::shardFor(const std::string &name)
{
    return shards[std::hash<std::string>{}(name) % SHARDS];
}

MetricsRegistry::Entry &
MetricsRegistry::findOrCreate(const std::string &name,
                              MetricKind kind)
{
    Shard &shard = shardFor(name);
    std::lock_guard lock(shard.mu);
    auto [it, inserted] = shard.map.try_emplace(name);
    Entry &entry = it->second;
    if (inserted) {
        entry.kind = kind;
        switch (kind) {
          case MetricKind::Counter:
            entry.counter = std::make_unique<Counter>();
            break;
          case MetricKind::Gauge:
            entry.gauge = std::make_unique<Gauge>();
            break;
          case MetricKind::Histogram:
            entry.histogram = std::make_unique<Histogram>();
            break;
        }
        index.noteInsert();
    } else if (entry.kind != kind) {
        panic("MetricsRegistry: '%s' registered as %s, requested as "
              "%s",
              name.c_str(), metricKindName(entry.kind),
              metricKindName(kind));
    }
    return entry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return *findOrCreate(name, MetricKind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return *findOrCreate(name, MetricKind::Gauge).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return *findOrCreate(name, MetricKind::Histogram).histogram;
}

size_t
MetricsRegistry::size() const
{
    size_t total = 0;
    for (const Shard &shard : shards) {
        std::lock_guard lock(shard.mu);
        total += shard.map.size();
    }
    return total;
}

namespace
{

MetricView
viewOf(const MetricRef &ref)
{
    MetricView v{ref.name, ref.kind, ref.value, {}};
    if (ref.kind == MetricKind::Histogram && ref.hist)
        v.hist = ref.hist->summary();
    return v;
}

} // namespace

void
MetricsRegistry::view(std::span<const MetricRef> extra,
                      std::vector<MetricView> &out) const
{
    out.clear();
    index.visit(shards, [&](std::span<const Item *const> items) {
        size_t e = 0;
        for (const Item *item : items) {
            const std::string_view name = item->first;
            while (e < extra.size() && extra[e].name < name)
                out.push_back(viewOf(extra[e++]));
            const Entry &entry = item->second;
            MetricRef ours{name, entry.kind, 0.0, nullptr};
            switch (entry.kind) {
              case MetricKind::Counter:
                ours.value =
                    static_cast<double>(entry.counter->value());
                break;
              case MetricKind::Gauge:
                ours.value = entry.gauge->value();
                break;
              case MetricKind::Histogram:
                ours.hist = entry.histogram.get();
                break;
            }
            if (e == extra.size() || extra[e].name != name) {
                out.push_back(viewOf(ours));
                continue;
            }
            // Same name on both sides: the registry's kind decides.
            const MetricRef &theirs = extra[e++];
            MetricView both{name, ours.kind, ours.value, {}};
            if (ours.kind == MetricKind::Histogram) {
                HistogramSum merged;
                merged.add(*ours.hist);
                if (theirs.hist)
                    merged.add(*theirs.hist);
                both.hist = merged.summary();
            } else {
                both.value += theirs.value;
            }
            out.push_back(both);
        }
        while (e < extra.size())
            out.push_back(viewOf(extra[e++]));
    });
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    index.visit(shards, [&](std::span<const Item *const> items) {
        for (const Item *item : items) {
            const Entry &entry = item->second;
            MetricSample sample;
            sample.name = item->first;
            sample.kind = entry.kind;
            switch (entry.kind) {
              case MetricKind::Counter:
                sample.value =
                    static_cast<double>(entry.counter->value());
                break;
              case MetricKind::Gauge:
                sample.value = entry.gauge->value();
                break;
              case MetricKind::Histogram:
                sample.hist = entry.histogram->snapshot();
                break;
            }
            snap.samples.push_back(std::move(sample));
        }
    });
    return snap;
}

} // namespace livephase::obs

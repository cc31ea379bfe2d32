#include "obs/timeseries.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "obs/runtime.hh"

namespace livephase::obs
{

const char *
windowName(Window w)
{
    switch (w) {
      case Window::OneSecond: return "1s";
      case Window::TenSeconds: return "10s";
      case Window::SixtySeconds: return "60s";
    }
    return "window-?";
}

size_t
windowSlots(Window w)
{
    switch (w) {
      case Window::OneSecond: return 1;
      case Window::TenSeconds: return 10;
      case Window::SixtySeconds: return 60;
    }
    return 1;
}

// --- windowed histogram ------------------------------------------

namespace
{

WindowStats
rateOnly(uint64_t count, Window w, double slot_seconds)
{
    WindowStats s;
    s.count = count;
    const double span = static_cast<double>(windowSlots(w)) *
        std::max(slot_seconds, 1e-9);
    s.rate = static_cast<double>(count) / span;
    return s;
}

/** Newest cell index (epoch back) the window `w` still covers at
 *  epoch `cur`. Early in the ring's life there are fewer closed
 *  cells than the window spans; stop at epoch 0 rather than
 *  wrapping into unused cells. */
uint64_t
lastBack(Window w, uint64_t cur)
{
    return std::min<uint64_t>(windowSlots(w), cur);
}

} // namespace

void
WindowedHistogram::read(double slot_seconds, size_t n,
                        WindowStats *out) const
{
    const uint64_t cur = epoch.load(std::memory_order_relaxed);
    // The live cell, then closed cells newest first: each window is
    // a prefix of the next, so one pass serves all of them.
    HistogramSum merged;
    uint64_t back = 0;
    for (size_t i = 0; i < n; ++i) {
        const auto w = static_cast<Window>(i);
        for (; back <= lastBack(w, cur); ++back)
            merged.add(cells[(cur - back) % TS_SLOTS]);
        const HistogramSummary sum = merged.summary();
        WindowStats &s = out[i];
        s = rateOnly(merged.count, w, slot_seconds);
        s.mean = sum.mean();
        s.p50 = sum.p50;
        s.p99 = sum.p99;
        s.max = merged.max;
    }
}

WindowStats
WindowedHistogram::stats(Window w, double slot_seconds) const
{
    WindowSet out;
    read(slot_seconds, static_cast<size_t>(w) + 1, out.data());
    return out[static_cast<size_t>(w)];
}

WindowSet
WindowedHistogram::windows(double slot_seconds) const
{
    WindowSet out;
    read(slot_seconds, out.size(), out.data());
    return out;
}

void
WindowedHistogram::rotate()
{
    const uint64_t cur = epoch.load(std::memory_order_relaxed);
    // Clear the next cell *before* making it live so writers always
    // see either the old closed data or a clean cell, never a
    // half-cleared live cell.
    cells[(cur + 1) % TS_SLOTS].clear();
    epoch.store(cur + 1, std::memory_order_release);
}

void
WindowedHistogram::resetForTest()
{
    for (Histogram &cell : cells)
        cell.clear();
    epoch.store(0, std::memory_order_release);
}

// --- windowed counter --------------------------------------------

void
WindowedCounter::read(double slot_seconds, size_t n,
                      WindowStats *out) const
{
    const uint64_t cur = epoch.load(std::memory_order_relaxed);
    uint64_t total = 0;
    uint64_t back = 0;
    for (size_t i = 0; i < n; ++i) {
        const auto w = static_cast<Window>(i);
        for (; back <= lastBack(w, cur); ++back)
            total += cells[(cur - back) % TS_SLOTS].load(
                std::memory_order_relaxed);
        out[i] = rateOnly(total, w, slot_seconds);
    }
}

WindowStats
WindowedCounter::stats(Window w, double slot_seconds) const
{
    WindowSet out;
    read(slot_seconds, static_cast<size_t>(w) + 1, out.data());
    return out[static_cast<size_t>(w)];
}

WindowSet
WindowedCounter::windows(double slot_seconds) const
{
    WindowSet out;
    read(slot_seconds, out.size(), out.data());
    return out;
}

void
WindowedCounter::rotate()
{
    const uint64_t cur = epoch.load(std::memory_order_relaxed);
    cells[(cur + 1) % TS_SLOTS].store(0, std::memory_order_relaxed);
    epoch.store(cur + 1, std::memory_order_release);
}

void
WindowedCounter::resetForTest()
{
    for (std::atomic<uint64_t> &cell : cells)
        cell.store(0, std::memory_order_relaxed);
    epoch.store(0, std::memory_order_release);
}

// --- snapshot ----------------------------------------------------

const SeriesSample *
TimeSeriesSnapshot::find(const std::string &name) const
{
    for (const SeriesSample &s : series) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

// --- registry ----------------------------------------------------

TimeSeriesRegistry &
TimeSeriesRegistry::global()
{
    static TimeSeriesRegistry registry;
    return registry;
}

TimeSeriesRegistry::Shard &
TimeSeriesRegistry::shardFor(const std::string &name)
{
    return shards[std::hash<std::string>{}(name) % SHARDS];
}

WindowedHistogram &
TimeSeriesRegistry::histogram(const std::string &name)
{
    Shard &shard = shardFor(name);
    std::lock_guard lock(shard.mu);
    auto it = shard.map.find(name);
    if (it == shard.map.end()) {
        Entry entry;
        entry.is_histogram = true;
        entry.hist = std::make_unique<WindowedHistogram>();
        it = shard.map.emplace(name, std::move(entry)).first;
        index.noteInsert();
    }
    if (!it->second.is_histogram)
        panic("time series '%s' registered as counter, requested as "
              "histogram",
              name.c_str());
    return *it->second.hist;
}

WindowedCounter &
TimeSeriesRegistry::counter(const std::string &name)
{
    Shard &shard = shardFor(name);
    std::lock_guard lock(shard.mu);
    auto it = shard.map.find(name);
    if (it == shard.map.end()) {
        Entry entry;
        entry.is_histogram = false;
        entry.counter = std::make_unique<WindowedCounter>();
        it = shard.map.emplace(name, std::move(entry)).first;
        index.noteInsert();
    }
    if (it->second.is_histogram)
        panic("time series '%s' registered as histogram, requested "
              "as counter",
              name.c_str());
    return *it->second.counter;
}

bool
TimeSeriesRegistry::seriesStats(const std::string &name, Window w,
                                WindowStats &out) const
{
    const double slot_s =
        static_cast<double>(
            slot_ns.load(std::memory_order_relaxed)) *
        1e-9;
    const Shard &shard =
        shards[std::hash<std::string>{}(name) % SHARDS];
    std::lock_guard lock(shard.mu);
    const auto it = shard.map.find(name);
    if (it == shard.map.end())
        return false;
    out = it->second.is_histogram
        ? it->second.hist->stats(w, slot_s)
        : it->second.counter->stats(w, slot_s);
    return true;
}

void
TimeSeriesRegistry::rotateAll()
{
    for (Shard &shard : shards) {
        std::lock_guard lock(shard.mu);
        for (auto &[name, entry] : shard.map) {
            if (entry.is_histogram)
                entry.hist->rotate();
            else
                entry.counter->rotate();
        }
    }
}

size_t
TimeSeriesRegistry::rotateIfDue(uint64_t now_ns)
{
    const uint64_t slot = slot_ns.load(std::memory_order_relaxed);
    size_t rotations = 0;
    // Rotate once per elapsed slot boundary, capped at a full ring
    // revolution: past that, older cells would be recycled anyway,
    // so extra rotations only waste clears.
    while (rotations < TS_SLOTS) {
        uint64_t due = next_rotation_ns.load(
            std::memory_order_relaxed);
        if (due == 0) {
            // First caller anchors the schedule; no rotation yet.
            next_rotation_ns.compare_exchange_strong(
                due, now_ns + slot, std::memory_order_relaxed);
            return rotations;
        }
        if (now_ns < due)
            return rotations;
        if (!next_rotation_ns.compare_exchange_strong(
                due, due + slot, std::memory_order_relaxed))
            continue; // another thread claimed this boundary
        rotateAll();
        ++rotations;
    }
    return rotations;
}

size_t
TimeSeriesRegistry::rotateIfDue()
{
    return rotateIfDue(monoNowNs());
}

void
TimeSeriesRegistry::resetAllForTest()
{
    for (Shard &shard : shards) {
        std::lock_guard lock(shard.mu);
        for (auto &[name, entry] : shard.map) {
            if (entry.is_histogram)
                entry.hist->resetForTest();
            else
                entry.counter->resetForTest();
        }
    }
    next_rotation_ns.store(0, std::memory_order_relaxed);
}

void
TimeSeriesRegistry::setSlotDuration(uint64_t ns)
{
    slot_ns.store(std::max<uint64_t>(ns, 1000),
                  std::memory_order_relaxed);
    // Re-anchor so the next caller schedules off the new duration
    // instead of draining boundaries computed from the old one.
    next_rotation_ns.store(0, std::memory_order_relaxed);
}

size_t
TimeSeriesRegistry::size() const
{
    size_t total = 0;
    for (const Shard &shard : shards) {
        std::lock_guard lock(shard.mu);
        total += shard.map.size();
    }
    return total;
}

TimeSeriesSnapshot
TimeSeriesRegistry::snapshot() const
{
    TimeSeriesSnapshot snap;
    forEach([&snap](std::string_view name, bool is_histogram,
                    const WindowSet &w) {
        snap.series.push_back({std::string(name), is_histogram,
                               w[0], w[1], w[2]});
    });
    return snap;
}

} // namespace livephase::obs

#include "obs/phase_telemetry.hh"

#include <algorithm>
#include <utility>

namespace livephase::obs
{

namespace
{

size_t
clampPhase(int phase)
{
    if (phase < 1)
        return 0;
    return std::min(static_cast<size_t>(phase - 1),
                    PT_MAX_PHASES - 1);
}

double
hitRate(uint64_t predictions, uint64_t mispredictions)
{
    if (predictions == 0)
        return 1.0;
    const uint64_t hits =
        predictions > mispredictions ? predictions - mispredictions
                                     : 0;
    return static_cast<double>(hits) /
        static_cast<double>(predictions);
}

} // namespace

void
PhaseBatchDelta::addResidency(int phase, uint32_t n)
{
    residency[clampPhase(phase)] += n;
}

void
PhaseBatchDelta::addTransition(int from, int to)
{
    matrix[clampPhase(from) * PT_MAX_PHASES + clampPhase(to)] += 1;
}

void
PhaseBatchDelta::addDvfsAction(uint32_t index, uint32_t n)
{
    dvfs_actions[std::min(static_cast<size_t>(index),
                          PT_MAX_ACTIONS - 1)] += n;
}

double
PhaseTelemetrySnapshot::cumulativeHitRate() const
{
    return hitRate(predictions, mispredictions);
}

PhaseTelemetry &
PhaseTelemetry::global()
{
    static PhaseTelemetry telemetry;
    return telemetry;
}

PhaseTelemetry::PhaseTelemetry()
    : pred_series(
          TimeSeriesRegistry::global().counter("core.predictions")),
      miss_series(TimeSeriesRegistry::global().counter(
          "core.mispredictions"))
{
}

void
PhaseTelemetry::recordBatch(const PhaseBatchDelta &delta)
{
    if (delta.classified)
        classified_total.fetch_add(delta.classified,
                                   std::memory_order_relaxed);
    if (delta.predictions) {
        predictions_total.fetch_add(delta.predictions,
                                    std::memory_order_relaxed);
        pred_series.inc(delta.predictions);
    }
    if (delta.mispredictions) {
        mispredictions_total.fetch_add(delta.mispredictions,
                                       std::memory_order_relaxed);
        miss_series.inc(delta.mispredictions);
    }
    if (delta.transitions)
        transitions_total.fetch_add(delta.transitions,
                                    std::memory_order_relaxed);
    for (size_t p = 0; p < PT_MAX_PHASES; ++p) {
        if (delta.residency[p])
            residency[p].fetch_add(delta.residency[p],
                                   std::memory_order_relaxed);
    }
    // Transitions are sparse within a batch (steady phases are the
    // common case), so the nonzero sweep touches a handful of the
    // 256 cells.
    for (size_t c = 0; c < PT_MAX_PHASES * PT_MAX_PHASES; ++c) {
        if (delta.matrix[c])
            matrix[c].fetch_add(delta.matrix[c],
                                std::memory_order_relaxed);
    }
    for (size_t a = 0; a < PT_MAX_ACTIONS; ++a) {
        if (delta.dvfs_actions[a])
            dvfs[a].fetch_add(delta.dvfs_actions[a],
                              std::memory_order_relaxed);
    }
}

PhaseTelemetrySnapshot
PhaseTelemetry::snapshot() const
{
    PhaseTelemetrySnapshot snap;
    snap.classified =
        classified_total.load(std::memory_order_relaxed);
    snap.predictions =
        predictions_total.load(std::memory_order_relaxed);
    snap.mispredictions =
        mispredictions_total.load(std::memory_order_relaxed);
    snap.transitions =
        transitions_total.load(std::memory_order_relaxed);
    for (size_t p = 0; p < PT_MAX_PHASES; ++p)
        snap.residency[p] =
            residency[p].load(std::memory_order_relaxed);
    for (size_t c = 0; c < PT_MAX_PHASES * PT_MAX_PHASES; ++c)
        snap.matrix[c] = matrix[c].load(std::memory_order_relaxed);
    for (size_t a = 0; a < PT_MAX_ACTIONS; ++a)
        snap.dvfs_actions[a] =
            dvfs[a].load(std::memory_order_relaxed);

    const double slot_s =
        static_cast<double>(
            TimeSeriesRegistry::global().slotDurationNs()) *
        1e-9;
    const WindowSet pred = pred_series.windows(slot_s);
    const WindowSet miss = miss_series.windows(slot_s);
    snap.pred_1s = pred[0];
    snap.pred_10s = pred[1];
    snap.pred_60s = pred[2];
    snap.hit_rate_1s = hitRate(pred[0].count, miss[0].count);
    snap.hit_rate_10s = hitRate(pred[1].count, miss[1].count);
    snap.hit_rate_60s = hitRate(pred[2].count, miss[2].count);
    return snap;
}

void
PhaseTelemetry::appendJson(TextOut out) const
{
    const PhaseTelemetrySnapshot s = snapshot();
    out.append("{\"classified\":");
    out.count(s.classified);
    out.append(",\"predictions\":");
    out.count(s.predictions);
    out.append(",\"mispredictions\":");
    out.count(s.mispredictions);
    out.append(",\"transitions\":");
    out.count(s.transitions);
    out.append(",\"hit_rate\":");
    out.fixed(s.cumulativeHitRate(), 6);
    out.append(",\"hit_rate_1s\":");
    out.fixed(s.hit_rate_1s, 6);
    out.append(",\"hit_rate_10s\":");
    out.fixed(s.hit_rate_10s, 6);
    out.append(",\"hit_rate_60s\":");
    out.fixed(s.hit_rate_60s, 6);
    out.append(",\"prediction_rate_10s\":");
    out.fixed(s.pred_10s.rate, 3);
    out.append(',');

    // {"<key>":<n>,...} over the nonzero cells.
    const auto counts = [&out](const uint64_t *cells, size_t n,
                               size_t key_base) {
        out.append('{');
        bool first = true;
        for (size_t i = 0; i < n; ++i) {
            if (!cells[i])
                continue;
            out.append(first ? "\"" : ",\"");
            out.count(i + key_base);
            out.append("\":");
            out.count(cells[i]);
            first = false;
        }
        out.append('}');
    };
    out.append("\"residency\":");
    counts(s.residency.data(), PT_MAX_PHASES, 1);
    out.append(",\"transitions_matrix\":[");
    bool first = true;
    for (size_t from = 0; from < PT_MAX_PHASES; ++from) {
        for (size_t to = 0; to < PT_MAX_PHASES; ++to) {
            const uint64_t n = s.matrix[from * PT_MAX_PHASES + to];
            if (!n)
                continue;
            out.append(first ? "{\"from\":" : ",{\"from\":");
            out.count(from + 1);
            out.append(",\"to\":");
            out.count(to + 1);
            out.append(",\"count\":");
            out.count(n);
            out.append('}');
            first = false;
        }
    }
    out.append("],\"dvfs_actions\":");
    counts(s.dvfs_actions.data(), PT_MAX_ACTIONS, 0);
    out.append('}');
}

void
PhaseTelemetry::appendPrometheus(TextOut out) const
{
    const PhaseTelemetrySnapshot s = snapshot();
    out.append("# TYPE livephase_phase_hit_rate gauge\n");
    const std::pair<const char *, double> hit_rates[] = {
        {"1s", s.hit_rate_1s},
        {"10s", s.hit_rate_10s},
        {"60s", s.hit_rate_60s},
        {"cumulative", s.cumulativeHitRate()}};
    for (const auto &[window, rate] : hit_rates) {
        out.append("livephase_phase_hit_rate{window=\"");
        out.append(window);
        out.append("\"} ");
        out.fixed(rate, 6);
        out.append('\n');
    }
    // `<series>{<label>="<key>"} <n>` per nonzero cell.
    const auto line = [&out](const char *series_label, size_t key,
                             uint64_t n) {
        out.append(series_label);
        out.count(key);
        out.append("\"} ");
        out.count(n);
        out.append('\n');
    };
    out.append("# TYPE livephase_phase_residency_total counter\n");
    for (size_t p = 0; p < PT_MAX_PHASES; ++p) {
        if (s.residency[p])
            line("livephase_phase_residency_total{phase=\"", p + 1,
                 s.residency[p]);
    }
    out.append("# TYPE livephase_phase_transition_total counter\n");
    for (size_t from = 0; from < PT_MAX_PHASES; ++from) {
        for (size_t to = 0; to < PT_MAX_PHASES; ++to) {
            const uint64_t n = s.matrix[from * PT_MAX_PHASES + to];
            if (!n)
                continue;
            out.append("livephase_phase_transition_total{from=\"");
            out.count(from + 1);
            out.append("\",to=\"");
            line("", to + 1, n);
        }
    }
    out.append("# TYPE livephase_dvfs_action_total counter\n");
    for (size_t a = 0; a < PT_MAX_ACTIONS; ++a) {
        if (s.dvfs_actions[a])
            line("livephase_dvfs_action_total{index=\"", a,
                 s.dvfs_actions[a]);
    }
}

std::string
PhaseTelemetry::renderJson() const
{
    std::string text;
    appendJson(text);
    return text;
}

std::string
PhaseTelemetry::renderPrometheus() const
{
    std::string text;
    appendPrometheus(text);
    return text;
}

void
PhaseTelemetry::resetForTest()
{
    classified_total.store(0, std::memory_order_relaxed);
    predictions_total.store(0, std::memory_order_relaxed);
    mispredictions_total.store(0, std::memory_order_relaxed);
    transitions_total.store(0, std::memory_order_relaxed);
    for (auto &a : residency)
        a.store(0, std::memory_order_relaxed);
    for (auto &a : matrix)
        a.store(0, std::memory_order_relaxed);
    for (auto &a : dvfs)
        a.store(0, std::memory_order_relaxed);
}

} // namespace livephase::obs

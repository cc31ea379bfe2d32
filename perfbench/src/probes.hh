/**
 * @file
 * Outside-in probes: everything the benchmark measures without
 * touching the library's code.
 *
 *  - TimingTransport: a FrameTransport decorator that times each
 *    round trip of the transport it wraps.
 *  - readProc(): a server process's CPU time, peak RSS, threads and
 *    open fds from /proc/<pid>.
 *  - ServerMetrics: the query-metrics JSONL exposition, keyed by
 *    metric name.
 *  - Micro-replays of the protocol functions and of the GPHT
 *    predictor on a workload's own frames and streams.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "service/client.hh"
#include "workload.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Microseconds from `a` to `b`. */
inline double
micros(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** q-th quantile (0..1) of `values` (reordered); 0 when empty. */
double quantile(std::vector<float> &values, double q);

/** Median of `values` (reordered); 0 when empty. */
double median(std::vector<double> values);

/**
 * Times every round trip of the wrapped transport; the caller files
 * the span of the calls it cares about.
 */
class TimingTransport : public livephase::service::FrameTransport
{
  public:
    explicit TimingTransport(FrameTransport &inner) : link(inner) {}

    /** Duration of the most recent round trip, microseconds. */
    double lastMicros() const { return last_us; }

    livephase::service::Bytes
    roundTrip(livephase::service::Bytes request_frame) override;

    bool roundTripInto(const livephase::service::Bytes &request_frame,
                       livephase::service::Bytes &response) override;

    bool reconnect() override { return link.reconnect(); }

  private:
    FrameTransport &link;
    double last_us = 0.0;
};

/** A process as /proc shows it. */
struct ProcStats
{
    double cpu_s = 0.0;   ///< utime + stime
    double rss_kib = 0.0; ///< VmRSS
    double hwm_kib = 0.0; ///< VmHWM (peak RSS)
    double threads = 0.0; ///< Threads
    double fds = 0.0;     ///< entries of fd/
};

/** False when the process is gone or /proc is unreadable. */
bool readProc(pid_t pid, ProcStats &out);

/** One metric of the query-metrics JSONL exposition. */
struct MetricValue
{
    double value = 0.0; ///< counters and gauges
    double count = 0.0; ///< histograms
    double sum = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
};

/** Parsed query-metrics JSONL; absent metrics read as zero. */
class ServerMetrics
{
  public:
    static ServerMetrics parse(const std::string &jsonl);

    MetricValue get(const std::string &name) const;

    /** Span histogram `livephase_span_us{span="<name>"}`. */
    MetricValue span(const std::string &name) const;

  private:
    std::map<std::string, MetricValue> by_name;
};

/** Protocol cost on a workload's frames, per interval. */
struct ProtocolReplay
{
    double encode_ns = 0.0; ///< encodeSubmitRequestInto
    double parse_ns = 0.0;  ///< parseRequest (view form)
    double decode_ns = 0.0; ///< parseResponse + decodeSubmitResultsInto
    double bytes = 0.0;     ///< request + response frame bytes
};

ProtocolReplay replayProtocol(const Inputs &in, size_t life_batches);

/** Offline GPHT cost and hit rate on a workload's streams. */
struct CoreReplay
{
    double gpht_ns = 0.0;  ///< observeAndPredictBatch, per interval
    double hit_rate = 0.0; ///< Stats::hits / Stats::lookups
};

CoreReplay replayGpht(const Inputs &in, size_t life_batches);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH

/**
 * @file
 * One measured round: start a livephased server process, set the
 * workload up against it over its Unix socket, drive it for a fixed
 * window from two connection threads plus an operator poller on the
 * main thread, and account the server process from /proc.
 */

#ifndef PERFBENCH_LOAD_HH
#define PERFBENCH_LOAD_HH

#include <string>
#include <vector>

#include "probes.hh"
#include "service/service_stats.hh"
#include "workload.hh"

namespace perfbench
{

struct RunOptions
{
    const WorkloadSpec *spec = nullptr;
    uint64_t seed = 1;
    /** Measured seconds per round. */
    double window_s = 1.0;
    /** fleet-churn frames/s; 0 drives it closed-loop instead. */
    double fleet_rate_hz = 0.0;
    /** This binary; re-executed as the server process. */
    std::string exe;
};

/** Operations issued and how they ended. */
struct Tally
{
    uint64_t attempted = 0;
    /** Refused, unsent, transport-failed or wrong. */
    uint64_t failed = 0;
    /** Wrong answers: oracle mismatch, unexpected status, lost
     *  transport or a server ledger that disagrees. */
    uint64_t incorrect = 0;

    void add(const Tally &other);
};

struct RoundResult
{
    bool traced = false;
    double setup_s = 0.0;
    double window_s = 0.0;
    /** Intervals answered correctly inside the window. */
    double intervals = 0.0;
    /** Per SubmitBatch in the window: client-observed latency (from
     *  the due time in open loop) and transport round trip, µs. */
    std::vector<float> submit_us;
    std::vector<float> roundtrip_us;
    /** Open-loop sends (frames and operator queries): how late. */
    std::vector<float> late_us;
    /** Operator queries on fresh connections, from the due time. */
    std::vector<float> query_us;
    Tally tally;

    /** Server CPU time inside the window. */
    double server_cpu_s = 0.0;
    /** Server process at the end of the window. */
    ProcStats server_end;
    /** Server RSS growth from session opens and warm-up. */
    double rss_kib_per_session = 0.0;

    /** query-metrics / query-stats at the window's edges (traced
     *  rounds only). */
    ServerMetrics metrics_begin, metrics_end;
    livephase::service::StatsSnapshot stats_begin, stats_end;
};

/** Run one round; `traced` starts the server with span timing on. */
RoundResult runRound(const RunOptions &opt, bool traced, unsigned round);

} // namespace perfbench

#endif // PERFBENCH_LOAD_HH

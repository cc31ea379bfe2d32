/**
 * @file
 * perfbench — end-to-end socket benchmark for livephased.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--fleet-rate-hz <frames/s>]
 *   perfbench serve --socket <path> [--traced]
 *
 * The first form is the load generator: it runs several rounds,
 * each against a fresh server process (the second form, started by
 * re-executing this binary), and prints one JSON result line last
 * on stdout. See README.md for the workloads and every metric.
 */

#include <csignal>
#include <cstdio>
#include <string>
#include <sys/prctl.h>
#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "load.hh"
#include "obs/runtime.hh"
#include "service/uds_transport.hh"

using namespace livephase;
using namespace livephase::service;
using namespace perfbench;

namespace
{

/** Rounds per run; every metric is the median over rounds. A traced
 *  run alternates untraced and traced servers. */
constexpr unsigned ROUNDS = 12;

/** The daemon: default Config behind the Unix-socket front end,
 *  until SIGTERM (or the load generator's death). */
int
serve(const CliArgs &args)
{
    const std::string socket = args.getString("socket", "");
    if (socket.empty())
        fatal("serve: --socket is required");
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() == 1)
        return 1;
    // Block the stop signals before any thread starts, so every
    // thread inherits the mask and sigwait() below receives them.
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGTERM);
    sigaddset(&stop_signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

    if (args.getBool("traced"))
        obs::setEnabled(true);
    LivePhaseService service;
    UdsServer server(service, socket);
    if (!server.start())
        return 1;
    int sig = 0;
    sigwait(&stop_signals, &sig);
    server.stop();
    service.stop();
    return 0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Metrics in print order. */
using Metrics = std::vector<Metric>;

void
printResult(bool correct, const Tally &tally, const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Median over `rounds` of `f(round)`. */
template <typename F>
double
medianOf(std::vector<RoundResult> &rounds, F &&f)
{
    std::vector<double> values;
    for (RoundResult &r : rounds)
        values.push_back(f(r));
    return median(values);
}

double
intervalsPerS(const RoundResult &r)
{
    return ratio(r.intervals, r.window_s);
}

double
cpuNsPerInterval(const RoundResult &r)
{
    return 1e9 * ratio(r.server_cpu_s, r.intervals);
}

double
submitP99(RoundResult &r)
{
    return quantile(r.submit_us, 0.99);
}

Metrics
endToEnd(std::vector<RoundResult> &rounds)
{
    std::vector<float> query;
    for (const RoundResult &r : rounds)
        query.insert(query.end(), r.query_us.begin(), r.query_us.end());
    return {
        {"intervals_per_s", medianOf(rounds, intervalsPerS), "1/s"},
        {"submit_p50_us",
         medianOf(rounds,
                   [](RoundResult &r) {
                       return quantile(r.submit_us, 0.50);
                   }),
          "us"},
        {"server_cpu_ns_per_interval", medianOf(rounds, cpuNsPerInterval),
         "ns"},
        {"server_rss_mib",
         medianOf(rounds,
                   [](RoundResult &r) {
                       return r.server_end.hwm_kib / 1024.0;
                   }),
          "MiB"},
        {"query_p50_us", quantile(query, 0.50), "us"},
        {"setup_s",
         medianOf(rounds, [](RoundResult &r) { return r.setup_s; }),
          "s"},
    };
}

const OpLatency &
opLatency(const StatsSnapshot &s, Op op)
{
    return s.op_latency[static_cast<size_t>(op) - 1];
}

Metrics
perLayer(std::vector<RoundResult> &rounds, const RunOptions &opt,
         const Tally &tally)
{
    std::vector<RoundResult> traced, untraced;
    for (RoundResult &r : rounds)
        (r.traced ? traced : untraced).push_back(std::move(r));

    // Server-side figures over one traced window, from the
    // production exposition (spans, queue wait, pool counters) and
    // query-stats (per-op latency, session and queue counters).
    const auto spanDelta = [](const RoundResult &r,
                              const std::string &name) {
        const MetricValue a = r.metrics_begin.span(name);
        const MetricValue b = r.metrics_end.span(name);
        return std::pair<double, double>(b.sum - a.sum,
                                         b.count - a.count);
    };
    const auto spanMean = [&](const std::string &name) {
        return medianOf(traced, [&](RoundResult &r) {
            const auto [sum, count] = spanDelta(r, name);
            return ratio(sum, count);
        });
    };
    const auto windowIntervals = [](const RoundResult &r) {
        return static_cast<double>(r.stats_end.intervals_processed -
                                   r.stats_begin.intervals_processed);
    };
    const auto coreNs = [&](const std::string &name) {
        return medianOf(traced, [&](RoundResult &r) {
            return 1e3 * ratio(spanDelta(r, name).first,
                               windowIntervals(r));
        });
    };
    const auto counterDelta = [](const RoundResult &r,
                                 const std::string &name) {
        return r.metrics_end.get(name).value -
            r.metrics_begin.get(name).value;
    };
    const auto endMetric = [&](auto f) { return medianOf(traced, f); };
    const auto queueWait = [](const RoundResult &r) {
        return r.metrics_end.get("livephase_service_queue_wait_us");
    };
    const auto handleP50 = [](const RoundResult &r) {
        return r.metrics_end.span("service.handle").p50;
    };

    const Inputs in = makeInputs(*opt.spec, opt.seed);
    const ProtocolReplay proto =
        replayProtocol(in, opt.spec->life_batches);
    const CoreReplay core = replayGpht(in, opt.spec->life_batches);
    const double batch = static_cast<double>(opt.spec->batch);

    // Tracing cost as extra server CPU per interval: unlike
    // intervals/s it also shows in an open loop, whose rate the
    // schedule fixes.
    const double traced_cpu = medianOf(traced, cpuNsPerInterval);
    const double untraced_cpu = medianOf(untraced, cpuNsPerInterval);
    // Operator queries and open-loop sends, pooled over every round
    // for enough samples behind a p99.
    std::vector<float> late, query;
    for (const std::vector<RoundResult> *set : {&traced, &untraced})
        for (const RoundResult &r : *set) {
            late.insert(late.end(), r.late_us.begin(), r.late_us.end());
            query.insert(query.end(), r.query_us.begin(),
                         r.query_us.end());
        }

    return {
        {"uds_transport.roundtrip_us.p50",
         endMetric([](RoundResult &r) {
              return quantile(r.roundtrip_us, 0.50);
          }),
          "us"},
        {"uds_transport.roundtrip_us.p99",
         endMetric([](RoundResult &r) {
              return quantile(r.roundtrip_us, 0.99);
          }),
          "us"},
        {"uds_transport.wire_us.p50",
         endMetric([&](RoundResult &r) {
              return quantile(r.roundtrip_us, 0.50) - queueWait(r).p50 -
                  handleP50(r);
          }),
          "us"},
        {"uds_transport.server_threads",
         endMetric([](RoundResult &r) { return r.server_end.threads; }),
          "count"},
        {"uds_transport.server_fds",
         endMetric([](RoundResult &r) { return r.server_end.fds; }),
          "count"},
        {"service.queue_wait_us.p50",
         endMetric([&](RoundResult &r) { return queueWait(r).p50; }),
          "us"},
        {"service.queue_wait_us.p99",
         endMetric([&](RoundResult &r) { return queueWait(r).p99; }),
          "us"},
        {"service.parse_us.mean", spanMean("service.parse"), "us"},
        {"service.handle_us.mean", spanMean("service.handle"), "us"},
        {"service.encode_us.mean", spanMean("service.encode"), "us"},
        {"service.rejected_queue_full",
         endMetric([](RoundResult &r) {
              return static_cast<double>(r.stats_end.rejected_queue_full);
          }),
          "count"},
        {"service.queue_high_water",
         endMetric([](RoundResult &r) {
              return static_cast<double>(r.stats_end.queue_high_water);
          }),
          "count"},
        {"service_stats.handle_minus_core_ns_per_frame",
         endMetric([&](RoundResult &r) {
              const OpLatency &a =
                  opLatency(r.stats_begin, Op::SubmitBatch);
              const OpLatency &b = opLatency(r.stats_end, Op::SubmitBatch);
              const double handle = b.mean_us * b.count -
                  a.mean_us * a.count;
              const double core = spanDelta(r, "core.classify").first +
                  spanDelta(r, "core.predict").first +
                  spanDelta(r, "core.policy").first;
              return 1e3 *
                  ratio(handle - core,
                        static_cast<double>(b.count - a.count));
          }),
          "ns"},
        {"protocol.encode_ns_per_interval", proto.encode_ns, "ns"},
        {"protocol.parse_ns_per_interval", proto.parse_ns, "ns"},
        {"protocol.decode_ns_per_interval", proto.decode_ns, "ns"},
        {"protocol.bytes_per_interval", proto.bytes, "B"},
        {"core.classify_ns_per_interval", coreNs("core.classify"), "ns"},
        {"core.predict_ns_per_interval", coreNs("core.predict"), "ns"},
        {"core.policy_ns_per_interval", coreNs("core.policy"), "ns"},
        {"core.gpht_offline_ns_per_interval", core.gpht_ns, "ns"},
        {"core.pht_hit_rate", core.hit_rate, "ratio"},
        {"session_manager.open_us.p50",
         endMetric([](RoundResult &r) {
              return opLatency(r.stats_end, Op::Open).p50_us;
          }),
          "us"},
        {"session_manager.open_us.p99",
         endMetric([](RoundResult &r) {
              return opLatency(r.stats_end, Op::Open).p99_us;
          }),
          "us"},
        {"session_manager.close_us.p50",
         endMetric([](RoundResult &r) {
              return opLatency(r.stats_end, Op::Close).p50_us;
          }),
          "us"},
        {"session_manager.evictions",
         endMetric([](RoundResult &r) {
              return static_cast<double>(
                  r.stats_end.sessions_evicted_lru +
                  r.stats_end.sessions_expired_ttl);
          }),
          "count"},
        {"session_manager.rss_kib_per_session",
         endMetric([](RoundResult &r) { return r.rss_kib_per_session; }),
          "KiB"},
        {"alloc.pool_miss_frac",
         endMetric([&](RoundResult &r) {
              const double misses =
                  counterDelta(r, "livephase_alloc_pool_misses_total");
              const double hits =
                  counterDelta(r, "livephase_alloc_pool_hits_total");
              return ratio(misses, hits + misses);
          }),
          "ratio"},
        {"obs.trace_overhead_frac",
         ratio(traced_cpu, untraced_cpu) - 1.0, "ratio"},
        {"obs.query_render_us.p50",
         endMetric([](RoundResult &r) {
              return opLatency(r.stats_end, Op::QueryMetrics).p50_us;
          }),
          "us"},
        {"e2e.unattributed_us.p50",
         endMetric([&](RoundResult &r) {
              const double client_protocol_us =
                  (proto.encode_ns + proto.decode_ns) * batch / 1e3;
              return quantile(r.submit_us, 0.50) - client_protocol_us -
                  queueWait(r).p50 - handleP50(r);
          }),
          "us"},
        {"submit_p99_us", medianOf(untraced, submitP99), "us"},
        {"query_p99_us", quantile(query, 0.99), "us"},
        {"late_p99_us", quantile(late, 0.99), "us"},
        {"failed_frac",
         ratio(static_cast<double>(tally.failed),
                static_cast<double>(tally.attempted)),
          "ratio"},
    };
}

int
load(const CliArgs &args, const char *argv0)
{
    RunOptions opt;
    const std::string workload = args.getString("workload", "");
    opt.spec = findWorkload(workload);
    if (!opt.spec)
        fatal("unknown --workload '%s'", workload.c_str());
    opt.seed = static_cast<uint64_t>(args.getInt("seed", 1));
    const double seconds = args.getDouble("seconds", 10.0);
    const bool trace = args.getInt("trace", 0) != 0;
    opt.fleet_rate_hz = args.getDouble("fleet-rate-hz", 0.0);
    char exe[4096];
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    opt.exe = n > 0 ? std::string(exe, static_cast<size_t>(n)) : argv0;

    opt.window_s = seconds / ROUNDS;
    std::vector<RoundResult> results;
    Tally tally;
    for (unsigned r = 0; r < ROUNDS; ++r) {
        results.push_back(runRound(opt, trace && r % 2 == 1, r));
        const RoundResult &last = results.back();
        tally.add(last.tally);
        std::fprintf(stderr,
                     "perfbench: %s round %u%s: %.0f intervals/s, "
                     "set-up %.3f s, %llu/%llu ops failed\n",
                     workload.c_str(), r, last.traced ? " (traced)" : "",
                     intervalsPerS(last), last.setup_s,
                     static_cast<unsigned long long>(last.tally.failed),
                     static_cast<unsigned long long>(
                         last.tally.attempted));
    }
    const bool correct = tally.incorrect == 0;
    const Metrics metrics = trace ? perLayer(results, opt, tally)
                                  : endToEnd(results);
    printResult(correct, tally, metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    if (!args.positional().empty() && args.positional()[0] == "serve")
        return serve(args);
    return load(args, argv[0]);
}

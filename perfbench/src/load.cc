#include "load.hh"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <latch>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/exposition.hh"
#include "service/uds_transport.hh"

extern char **environ;

namespace perfbench
{

using namespace livephase;
using namespace livephase::service;

void
Tally::add(const Tally &other)
{
    attempted += other.attempted;
    failed += other.failed;
    incorrect += other.incorrect;
}

namespace
{

/** Connections the load generator drives frames over. */
constexpr size_t CONNECTIONS = 2;

/** Operator queries per second, each on a fresh connection: a
 *  scraper's pace, slow enough that the metrics renders it triggers
 *  stay well under 1% of worker time. */
constexpr double POLL_HZ = 10.0;

/** An open loop that fell behind its schedule keeps sending every
 *  due frame, so a stall shows as latency from the due time. Only
 *  frames still unsent this long after the window are failed. */
constexpr double OPEN_LOOP_GRACE_S = 5.0;

Clock::time_point
after(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/** Timer slack bounds how late a sleeping sender wakes; the default
 *  50 µs would dominate the lateness it measures. */
void
tightenTimerSlack()
{
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
}

/**
 * One client connection and the session slots it owns.
 */
class Sender
{
  public:
    Sender(const Inputs &inputs, const WorkloadSpec &workload,
           const std::string &socket, std::vector<size_t> slot_ids)
        : in(inputs), spec(workload), uds(socket), timed(uds),
          client(timed)
    {
        for (size_t id : slot_ids)
            slots.push_back({&in.slots[id], 0, 0, id});
    }

    bool connect() { return uds.connect(); }

    /** Open every owned slot's session and advance it: closed loop
     *  by warmup_batches, open loop by a per-slot stagger. */
    bool setUp()
    {
        for (SlotState &s : slots) {
            if (!open(s))
                return false;
            const size_t warm = spec.open_loop
                ? s.id % spec.life_batches
                : spec.warmup_batches;
            for (size_t b = 0; b < warm && !broken; ++b)
                step(s, Clock::now());
        }
        return !broken;
    }

    /** Send as fast as answers arrive until `stop`. */
    void runClosed(const std::atomic<bool> &stop)
    {
        recording = true;
        for (size_t j = 0; !stop.load(std::memory_order_relaxed) &&
             !broken;
             ++j)
            step(slots[j % slots.size()], Clock::now());
        recording = false;
    }

    /** Send one frame every `period_s` from `start` until `end`,
     *  timing each from its due time. */
    void runOpen(Clock::time_point start, double period_s,
                 Clock::time_point end)
    {
        tightenTimerSlack();
        recording = true;
        const Clock::time_point give_up =
            after(end, OPEN_LOOP_GRACE_S);
        for (uint64_t k = 0;; ++k) {
            const Clock::time_point due =
                after(start, static_cast<double>(k) * period_s);
            if (due >= end)
                break;
            if (broken || Clock::now() >= give_up) {
                // Due inside the window but never sent.
                const uint64_t unsent = 1 +
                    static_cast<uint64_t>(
                        std::chrono::duration<double>(end - due)
                            .count() /
                        period_s);
                tally.attempted += unsent;
                tally.failed += unsent;
                break;
            }
            std::this_thread::sleep_until(due);
            late_us.push_back(
                static_cast<float>(micros(due, Clock::now())));
            step(slots[k % slots.size()], due);
        }
        recording = false;
    }

    Tally tally;
    /** Intervals the server acknowledged (status Ok), for the
     *  ledger check against its own counters. */
    uint64_t acked_intervals = 0;
    uint64_t acked_batches = 0;
    uint64_t opened = 0;
    uint64_t closed = 0;
    /** Window samples (see RoundResult). */
    double intervals = 0.0;
    std::vector<float> submit_us, roundtrip_us, late_us;

  private:
    struct SlotState
    {
        const Slot *slot;
        uint64_t session_id;
        size_t next; ///< next batch of the slice
        size_t id;   ///< slot index in the workload
    };

    bool open(SlotState &s)
    {
        ++tally.attempted;
        const ServiceClient::OpenReply reply =
            client.open(PredictorKind::Gpht);
        if (reply.status != Status::Ok) {
            fail();
            broken = true;
            return false;
        }
        ++opened;
        s.session_id = reply.session_id;
        s.next = 0;
        return true;
    }

    /** Close the slot's session and open its replacement, which
     *  replays the same slice from a cold predictor. */
    bool reopen(SlotState &s)
    {
        ++tally.attempted;
        if (client.close(s.session_id) != Status::Ok)
            fail();
        else
            ++closed;
        return open(s);
    }

    void fail()
    {
        ++tally.failed;
        ++tally.incorrect;
    }

    /** Submit the slot's next batch and check the answer against
     *  the oracle byte for byte. Latency runs from `from`. */
    void step(SlotState &s, Clock::time_point from)
    {
        if (s.next == spec.life_batches && !reopen(s))
            return;
        const std::span<const IntervalResult> expected =
            in.expected(*s.slot, s.next);
        encodeSubmitRequestInto(tx, s.session_id,
                                in.records(*s.slot, s.next));
        ++tally.attempted;
        if (!timed.roundTripInto(tx, rx)) {
            fail();
            broken = true;
            return;
        }
        ResponseView view;
        const bool decoded = parseResponse(ByteView(rx), view) &&
            decodeSubmitResultsInto(view.body, results);
        const Clock::time_point done = Clock::now();

        if (!decoded || view.status != Status::Ok) {
            ++tally.failed;
            // Backpressure is a refusal, not a wrong answer: the
            // batch was not applied, so it is simply sent again.
            if (view.status != Status::RetryAfter &&
                view.status != Status::Throttled) {
                ++tally.incorrect;
                s.next = spec.life_batches; // restart from cold
            }
            return;
        }
        ++acked_batches;
        acked_intervals += results.size();
        const size_t bytes = expected.size_bytes();
        const bool match =
            view.header.op == static_cast<uint16_t>(Op::SubmitBatch) &&
            view.header.session_id == s.session_id &&
            results.size() == expected.size() &&
            view.body.size() == sizeof(uint32_t) + bytes &&
            std::memcmp(view.body.data() + sizeof(uint32_t),
                        expected.data(), bytes) == 0;
        if (!match) {
            fail();
            s.next = spec.life_batches; // state diverged: restart
            return;
        }
        ++s.next;
        if (recording) {
            intervals += static_cast<double>(results.size());
            submit_us.push_back(static_cast<float>(micros(from, done)));
            roundtrip_us.push_back(
                static_cast<float>(timed.lastMicros()));
        }
    }

    const Inputs &in;
    const WorkloadSpec &spec;
    UdsClientTransport uds;
    TimingTransport timed;
    ServiceClient client;
    std::vector<SlotState> slots;
    Bytes tx, rx;
    std::vector<IntervalResult> results;
    bool recording = false;
    bool broken = false;
};

/** The server as a child process running `<exe> serve`. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &exe, const std::string &socket,
                  bool traced)
    {
        std::vector<std::string> args = {exe, "serve", "--socket",
                                         socket};
        if (traced)
            args.push_back("--traced");
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        // Only the load generator's result may reach stdout.
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         "/dev/null", O_WRONLY, 0);
        const int err = posix_spawn(&child, exe.c_str(), &actions,
                                    nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (err != 0)
            fatal("cannot start the server: %s", std::strerror(err));
    }

    ~ServerProcess() { stop(); }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    pid_t pid() const { return child; }

    /** SIGTERM and reap; true when it exited cleanly. */
    bool stop()
    {
        if (child <= 0)
            return true;
        ::kill(child, SIGTERM);
        int status = 0;
        while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
        }
        child = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t child = -1;
};

/** One operator call on a fresh connection, as a CLI or scraper
 *  makes it. Returns false on any failure. */
bool
operatorQuery(const std::string &socket, bool metrics)
{
    UdsClientTransport link(socket);
    if (!link.connect())
        return false;
    ServiceClient client(link);
    if (!metrics)
        return client.queryStats().status == Status::Ok;
    const ServiceClient::MetricsReply reply = client.queryMetrics(
        static_cast<uint16_t>(obs::ExpositionFormat::Prometheus));
    return reply.status == Status::Ok &&
        reply.text.find("livephase_service_intervals_total") !=
        std::string::npos;
}

/** query-metrics (JSONL) and query-stats on a fresh connection. */
bool
snapshotServer(const std::string &socket, ServerMetrics &metrics,
               StatsSnapshot &stats, Tally &tally)
{
    UdsClientTransport link(socket);
    tally.attempted += 2;
    bool ok = link.connect();
    if (ok) {
        ServiceClient client(link);
        const ServiceClient::MetricsReply m = client.queryMetrics(
            static_cast<uint16_t>(obs::ExpositionFormat::Jsonl));
        const ServiceClient::StatsReply s = client.queryStats();
        ok = m.status == Status::Ok && s.status == Status::Ok;
        metrics = ServerMetrics::parse(m.text);
        stats = s.stats;
    }
    if (!ok) {
        tally.failed += 2;
        tally.incorrect += 2;
    }
    return ok;
}

ProcStats
serverProc(const ServerProcess &server)
{
    ProcStats out;
    if (!readProc(server.pid(), out))
        fatal("cannot read /proc/%d", static_cast<int>(server.pid()));
    return out;
}

std::string
socketPath(unsigned round)
{
    // Relative, so the path fits sun_path wherever the checkout is.
    ::mkdir(".bench_run", 0755);
    return ".bench_run/perfbench-" + std::to_string(::getpid()) +
        "-" + std::to_string(round) + ".sock";
}

} // namespace

RoundResult
runRound(const RunOptions &opt, bool traced, unsigned round)
{
    const WorkloadSpec &spec = *opt.spec;
    RoundResult res;
    res.traced = traced;

    // ---- set-up: server start, traces, oracle, sessions, warm-up
    const Clock::time_point setup_start = Clock::now();
    const std::string socket = socketPath(round);
    ServerProcess server(opt.exe, socket, traced);
    const Inputs in = makeInputs(spec, opt.seed);

    std::vector<std::unique_ptr<Sender>> senders;
    for (size_t c = 0; c < CONNECTIONS; ++c) {
        std::vector<size_t> ids;
        for (size_t i = c; i < spec.slots; i += CONNECTIONS)
            ids.push_back(i);
        senders.push_back(
            std::make_unique<Sender>(in, spec, socket, ids));
    }
    // The listener is up once the first connect succeeds.
    const Clock::time_point connect_deadline = after(setup_start, 10.0);
    while (!senders[0]->connect()) {
        if (Clock::now() > connect_deadline)
            fatal("server did not start listening on %s",
                  socket.c_str());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (size_t c = 1; c < CONNECTIONS; ++c)
        if (!senders[c]->connect())
            fatal("cannot connect to %s", socket.c_str());
    const ProcStats base = serverProc(server);

    const bool open_loop = spec.open_loop && opt.fleet_rate_hz > 0.0;
    std::atomic<bool> go{false}, stop{false};
    std::atomic<bool> set_up_ok{true};
    Clock::time_point window_start, window_end;
    std::latch ready(static_cast<std::ptrdiff_t>(CONNECTIONS));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < CONNECTIONS; ++c) {
        threads.emplace_back([&, c] {
            Sender &sender = *senders[c];
            if (!sender.setUp())
                set_up_ok.store(false);
            ready.count_down();
            go.wait(false);
            if (!set_up_ok.load())
                return;
            if (open_loop) {
                const double period =
                    static_cast<double>(CONNECTIONS) /
                    opt.fleet_rate_hz;
                sender.runOpen(
                    after(window_start,
                          static_cast<double>(c) / opt.fleet_rate_hz),
                    period, window_end);
            } else {
                sender.runClosed(stop);
            }
        });
    }
    ready.wait();
    res.setup_s = std::chrono::duration<double>(Clock::now() -
                                                setup_start)
                      .count();

    const ProcStats warm = serverProc(server);
    res.rss_kib_per_session =
        (warm.rss_kib - base.rss_kib) / static_cast<double>(spec.slots);
    if (traced)
        snapshotServer(socket, res.metrics_begin, res.stats_begin,
                       res.tally);

    // ---- measured window; the main thread is the operator poller
    const ProcStats cpu_start = serverProc(server);
    window_start = Clock::now();
    window_end = after(window_start, opt.window_s);
    go.store(true);
    go.notify_all();

    tightenTimerSlack();
    for (uint64_t j = 0;; ++j) {
        const Clock::time_point due =
            after(window_start, static_cast<double>(j) / POLL_HZ);
        if (due >= window_end)
            break;
        std::this_thread::sleep_until(due);
        res.late_us.push_back(
            static_cast<float>(micros(due, Clock::now())));
        ++res.tally.attempted;
        // Alternate the two operator reads.
        if (!operatorQuery(socket, j % 2 == 1)) {
            ++res.tally.failed;
            ++res.tally.incorrect;
        }
        res.query_us.push_back(
            static_cast<float>(micros(due, Clock::now())));
    }
    std::this_thread::sleep_until(window_end);
    stop.store(true);
    for (std::thread &t : threads)
        t.join();
    const Clock::time_point finished = Clock::now();
    res.window_s =
        std::chrono::duration<double>(finished - window_start).count();
    res.server_end = serverProc(server);
    res.server_cpu_s = res.server_end.cpu_s - cpu_start.cpu_s;
    if (!set_up_ok.load())
        fatal("workload set-up failed against the server");

    // ---- ledger: the server's own counters must agree with what
    // the clients saw acknowledged
    ServerMetrics end_metrics;
    StatsSnapshot end_stats;
    snapshotServer(socket, end_metrics, end_stats, res.tally);
    const auto append = [](std::vector<float> &to,
                           const std::vector<float> &from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    uint64_t acked_intervals = 0, acked_batches = 0, opened = 0,
             closed = 0;
    for (const auto &sender : senders) {
        res.tally.add(sender->tally);
        res.intervals += sender->intervals;
        acked_intervals += sender->acked_intervals;
        acked_batches += sender->acked_batches;
        opened += sender->opened;
        closed += sender->closed;
        append(res.submit_us, sender->submit_us);
        append(res.roundtrip_us, sender->roundtrip_us);
        append(res.late_us, sender->late_us);
    }
    if (end_stats.intervals_processed != acked_intervals ||
        end_stats.batches_processed != acked_batches ||
        end_stats.sessions_opened != opened ||
        end_stats.sessions_closed != closed) {
        warn("server ledger disagrees: intervals %llu vs %llu, "
             "batches %llu vs %llu, opens %llu vs %llu, closes %llu "
             "vs %llu",
             static_cast<unsigned long long>(
                 end_stats.intervals_processed),
             static_cast<unsigned long long>(acked_intervals),
             static_cast<unsigned long long>(
                 end_stats.batches_processed),
             static_cast<unsigned long long>(acked_batches),
             static_cast<unsigned long long>(end_stats.sessions_opened),
             static_cast<unsigned long long>(opened),
             static_cast<unsigned long long>(end_stats.sessions_closed),
             static_cast<unsigned long long>(closed));
        ++res.tally.failed;
        ++res.tally.incorrect;
    }
    if (traced) {
        res.metrics_end = std::move(end_metrics);
        res.stats_end = end_stats;
    }

    senders.clear(); // hang up before the server stops
    if (!server.stop()) {
        warn("server process did not exit cleanly");
        ++res.tally.incorrect;
    }
    return res;
}

} // namespace perfbench

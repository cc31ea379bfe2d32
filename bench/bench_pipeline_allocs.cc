/**
 * @file
 * Allocation gate for the zero-copy data plane.
 *
 * The whole point of the arena/pool/span refactor is that a warmed
 * steady-state SubmitBatch performs ZERO heap allocations on the
 * synchronous handleFrameInto() path: the request frame is encoded
 * in place into a reused tx buffer, decoded as a RecordView aliasing
 * the wire bytes, classified/predicted into reused per-thread
 * scratch, and the response encoded in place into a reused rx
 * buffer. This bench proves it with a counting global operator new:
 * after a warmup (which fills the buffer pool, the thread-local
 * arena, the session scratch and the predictor tables), it counts
 * every operator-new hit across N requests and reports
 * allocs-per-request. --check gates that number at exactly zero.
 *
 * The legacy owning path (encodeSubmitRequest -> handleFrame) is
 * measured alongside as the "before" number — informational, not
 * gated, since its cost is whatever the allocator feels like.
 *
 * A third measurement repeats the Into path against a service with
 * admission control enabled and a tagged (protocol-v2) frame: the
 * tag peek, the token-bucket decide() and the per-tag accounting
 * all sit on the hot path, and the zero-alloc budget must hold
 * through them too. Gated at exactly zero alongside the untagged
 * number.
 *
 * A fourth measurement runs the same SubmitBatch through the socket
 * front end: a real UdsServer and a UdsClientTransport in this
 * process, so the count covers the client's send/receive, the
 * server's reactor (receive window, answer queue, send) and the
 * handler in between. Gated at exactly zero as well; skipped with a
 * note where AF_UNIX sockets are unavailable.
 *
 * Three more rows count the operator queries a scraper sends, each
 * through handleFrameInto() with a warm reply buffer: QueryMetrics
 * rendered as Prometheus text, QueryMetrics as JSONL, and
 * QueryStats. The scrape renders straight from the live metrics into
 * the reply frame, so these are gated through the baseline compare
 * like the rows above.
 *
 * The last row is in bytes, not allocations: the heap bytes one warm
 * GPHT Open plus Close allocates through handleFrameInto(). A
 * session's PHT grows as it installs patterns, so a fresh one costs
 * its bookkeeping and GPHR, not a 128-entry table; the baseline
 * compare gates it.
 *
 * Flags:
 *   --batch K       records per request       (default 64)
 *   --requests N    measured requests         (default 4096)
 *   --warmup W      warmup requests           (default 512)
 *   --check         CI mode: exit 1 unless steady-state
 *                   allocs/request == 0 on the Into path
 *   --json PATH     machine-readable result (schema in
 *                   scripts/bench_compare.py); CI compares it
 *                   against bench/baselines/BENCH_alloc.json
 */

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include "admission/admission.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table_writer.hh"
#include "obs/exposition.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "service/uds_transport.hh"

namespace
{

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};
std::atomic<bool> g_counting{false};

void
countAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(size, std::memory_order_relaxed);
    }
}

} // namespace

// Counting global allocator: every heap allocation in the process
// bumps the counter while a measurement window is open. Deletes are
// deliberately not counted — an allocation is the event the gate
// cares about, and counting frees would double-bill each one.
void *
operator new(std::size_t size)
{
    countAlloc(size);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    countAlloc(size);
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(align),
                       size ? size : 1) != 0)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace livephase;
using namespace livephase::service;

namespace
{

std::vector<IntervalRecord>
makeBatch(size_t n)
{
    Rng rng(42);
    std::vector<IntervalRecord> records;
    records.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const double base = (i / 8) % 2 == 0 ? 0.002 : 0.025;
        const double mem_per_uop =
            std::max(0.0, base + rng.gaussian(0.0, 0.004));
        records.push_back({100e6, mem_per_uop * 100e6,
                           static_cast<uint64_t>(i)});
    }
    return records;
}

uint64_t
openSession(LivePhaseService &svc)
{
    Bytes tx, rx;
    encodeOpenRequestInto(tx, PredictorKind::Gpht, TraceField{});
    svc.handleFrameInto(ByteView(tx), rx);
    ResponseView view;
    if (!parseResponse(ByteView(rx), view) ||
        view.status != Status::Ok)
        fatal("open failed");
    return view.header.session_id;
}

/** Allocations per request over `n` requests of the span/Into
 *  path: encode in place, handle in place, same two buffers. A
 *  nonzero `tag` emits protocol-v2 frames and exercises the
 *  admission decide() hook when `svc` has it enabled. */
double
measureIntoPath(LivePhaseService &svc, uint64_t sid,
                const std::vector<IntervalRecord> &records,
                size_t warmup, size_t n,
                admission::TenantTag tag = 0)
{
    Bytes tx, rx;
    const auto once = [&] {
        encodeSubmitRequestInto(tx, sid, records, TraceField{}, tag);
        svc.handleFrameInto(ByteView(tx), rx);
        ResponseView view;
        if (!parseResponse(ByteView(rx), view) ||
            view.status != Status::Ok)
            fatal("submit failed on the Into path");
    };
    for (size_t i = 0; i < warmup; ++i)
        once();
    g_allocs.store(0);
    g_counting.store(true);
    for (size_t i = 0; i < n; ++i)
        once();
    g_counting.store(false);
    return static_cast<double>(g_allocs.load()) /
        static_cast<double>(n);
}

/** Same requests through the legacy owning path (fresh Bytes per
 *  frame) — the "before" number the refactor removes. */
double
measureOwningPath(LivePhaseService &svc, uint64_t sid,
                  const std::vector<IntervalRecord> &records,
                  size_t warmup, size_t n)
{
    const auto once = [&] {
        const Bytes frame =
            encodeSubmitRequest(sid, records, TraceField{});
        const Bytes response = svc.handleFrame(frame);
        ResponseView view;
        if (!parseResponse(ByteView(response), view) ||
            view.status != Status::Ok)
            fatal("submit failed on the owning path");
    };
    for (size_t i = 0; i < warmup; ++i)
        once();
    g_allocs.store(0);
    g_counting.store(true);
    for (size_t i = 0; i < n; ++i)
        once();
    g_counting.store(false);
    return static_cast<double>(g_allocs.load()) /
        static_cast<double>(n);
}

/** Allocations per operator query (`frame` is a QueryMetrics or
 *  QueryStats request) answered through handleFrameInto() into one
 *  reused reply buffer. */
double
measureQueryPath(LivePhaseService &svc, const Bytes &frame,
                 size_t warmup, size_t n)
{
    Bytes rx;
    const auto once = [&] {
        svc.handleFrameInto(ByteView(frame), rx);
        ResponseView view;
        if (!parseResponse(ByteView(rx), view) ||
            view.status != Status::Ok)
            fatal("query failed on the Into path");
    };
    for (size_t i = 0; i < warmup; ++i)
        once();
    g_allocs.store(0);
    g_counting.store(true);
    for (size_t i = 0; i < n; ++i)
        once();
    g_counting.store(false);
    return static_cast<double>(g_allocs.load()) /
        static_cast<double>(n);
}

/** Heap bytes per GPHT session Open plus Close, both answered
 *  through handleFrameInto() with reused buffers. */
double
measureSessionOpenBytes(LivePhaseService &svc, size_t warmup, size_t n)
{
    Bytes tx, rx;
    ResponseView view;
    const auto roundTrip = [&] {
        svc.handleFrameInto(ByteView(tx), rx);
        if (!parseResponse(ByteView(rx), view) ||
            view.status != Status::Ok)
            fatal("open/close failed on the Into path");
    };
    const auto once = [&] {
        encodeOpenRequestInto(tx, PredictorKind::Gpht, TraceField{});
        roundTrip();
        encodeCloseRequestInto(tx, view.header.session_id);
        roundTrip();
    };
    for (size_t i = 0; i < warmup; ++i)
        once();
    g_bytes.store(0);
    g_counting.store(true);
    for (size_t i = 0; i < n; ++i)
        once();
    g_counting.store(false);
    return static_cast<double>(g_bytes.load()) /
        static_cast<double>(n);
}

/** Allocations per SubmitBatch round trip over a Unix socket, both
 *  ends in this process; negative when the server cannot start. */
double
measureUdsPath(size_t batch, size_t warmup, size_t n)
{
    // workers = 0: one reactor thread and no queue workers, so every
    // thread's per-thread scratch is warm after the warmup and no
    // thread starts up inside the counting window.
    LivePhaseService::Config cfg;
    cfg.max_batch = std::max<size_t>(cfg.max_batch, batch);
    cfg.workers = 0;
    LivePhaseService svc(cfg);
    const std::string path = "/tmp/livephase-allocs-" +
        std::to_string(::getpid()) + ".sock";
    UdsServer server(svc, path);
    if (!server.start())
        return -1.0;
    UdsClientTransport transport(path);
    if (!transport.connect())
        fatal("cannot connect to %s", path.c_str());
    const auto records = makeBatch(batch);
    Bytes tx, rx;
    encodeOpenRequestInto(tx, PredictorKind::Gpht, TraceField{});
    ResponseView view;
    if (!transport.roundTripInto(tx, rx) ||
        !parseResponse(ByteView(rx), view) ||
        view.status != Status::Ok)
        fatal("open failed over the socket");
    const uint64_t sid = view.header.session_id;
    const auto once = [&] {
        encodeSubmitRequestInto(tx, sid, records, TraceField{});
        if (!transport.roundTripInto(tx, rx) ||
            !parseResponse(ByteView(rx), view) ||
            view.status != Status::Ok)
            fatal("submit failed over the socket");
    };
    for (size_t i = 0; i < warmup; ++i)
        once();
    g_allocs.store(0);
    g_counting.store(true);
    for (size_t i = 0; i < n; ++i)
        once();
    g_counting.store(false);
    return static_cast<double>(g_allocs.load()) /
        static_cast<double>(n);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const size_t batch =
        static_cast<size_t>(args.getInt("batch", 64));
    const size_t requests =
        static_cast<size_t>(args.getInt("requests", 4096));
    const size_t warmup =
        static_cast<size_t>(args.getInt("warmup", 512));
    const bool check = args.getBool("check");

    printBanner(std::cout, "data-plane allocation gate");
    std::cout << "batch " << batch << ", " << requests
              << " measured requests (" << warmup << " warmup)\n\n";

    // The synchronous paths never use the request queue; workers = 0
    // keeps worker threads (whose start-up allocates) from starting
    // inside a counting window on a loaded machine.
    LivePhaseService::Config cfg;
    cfg.max_batch = std::max<size_t>(cfg.max_batch, batch);
    cfg.workers = 0;
    LivePhaseService svc(cfg);
    const uint64_t sid = openSession(svc);
    const auto records = makeBatch(batch);

    const double into_allocs =
        measureIntoPath(svc, sid, records, warmup, requests);
    const double owning_allocs =
        measureOwningPath(svc, sid, records, warmup, requests);

    // Tagged variant: same Into path, but the frames carry a
    // protocol-v2 tenant tag and the service runs admission
    // control (period 0 = no controller thread; the initial budget
    // is never cut, so nothing is throttled — this measures the
    // *cost of the admission hot path*, not shedding).
    double tagged_allocs = 0.0;
    {
        LivePhaseService::Config tcfg;
        tcfg.max_batch = std::max<size_t>(tcfg.max_batch, batch);
        tcfg.workers = 0;
        tcfg.admission.enabled = true;
        tcfg.admission.controller.sample_period_ms = 0;
        std::string error;
        if (!admission::parseQosSpec("tag=bench:prio=0:share=1.0",
                                     tcfg.admission, &error))
            fatal("qos spec: %s", error.c_str());
        LivePhaseService tsvc(tcfg);
        const uint64_t tsid = openSession(tsvc);
        tagged_allocs = measureIntoPath(
            tsvc, tsid, records, warmup, requests,
            admission::tagForName(tcfg.admission, "bench"));
    }

    // Scrapes are rarer and heavier than batches: a smaller count
    // keeps the run short, and the count is exact either way.
    const size_t queries = std::max<size_t>(requests / 16, 1);
    const size_t query_warmup = std::max<size_t>(warmup / 16, 1);
    const double metrics_prom_allocs = measureQueryPath(
        svc,
        encodeMetricsRequest(
            static_cast<uint16_t>(obs::ExpositionFormat::Prometheus)),
        query_warmup, queries);
    const double metrics_jsonl_allocs = measureQueryPath(
        svc,
        encodeMetricsRequest(
            static_cast<uint16_t>(obs::ExpositionFormat::Jsonl)),
        query_warmup, queries);
    const double stats_allocs = measureQueryPath(
        svc, encodeStatsRequest(), query_warmup, queries);
    const double open_bytes =
        measureSessionOpenBytes(svc, query_warmup, queries);

    const double uds_allocs = measureUdsPath(batch, warmup, requests);
    const bool uds_measured = uds_allocs >= 0.0;

    TableWriter table({"path", "allocs_per_request"});
    table.addRow({"handleFrameInto (span pipeline)",
                  formatDouble(into_allocs, 4)});
    table.addRow({"handleFrameInto (tagged + admission)",
                  formatDouble(tagged_allocs, 4)});
    table.addRow({"UdsServer round trip",
                  uds_measured ? formatDouble(uds_allocs, 4)
                               : std::string("skipped (no AF_UNIX)")});
    table.addRow({"QueryMetrics, Prometheus",
                  formatDouble(metrics_prom_allocs, 4)});
    table.addRow({"QueryMetrics, JSONL",
                  formatDouble(metrics_jsonl_allocs, 4)});
    table.addRow({"QueryStats", formatDouble(stats_allocs, 4)});
    table.addRow({"GPHT Open + Close (bytes)",
                  formatDouble(open_bytes, 1)});
    table.addRow({"handleFrame (owning, legacy)",
                  formatDouble(owning_allocs, 4)});
    table.print(std::cout);

    if (args.has("json")) {
        const std::string path = args.getString("json", "");
        if (path.empty())
            fatal("--json requires a path");
        std::ofstream out(path);
        if (!out)
            fatal("cannot write %s", path.c_str());
        // allocs_per_request is exact (a count, not a timing), so
        // it is the gated metric; the owning-path number is
        // informational context.
        out << "{\n"
            << "  \"schema\": 1,\n"
            << "  \"bench\": \"bench_pipeline_allocs\",\n"
            << "  \"config\": {\"batch\": " << batch
            << ", \"requests\": " << requests
            << ", \"warmup\": " << warmup << "},\n"
            << "  \"metrics\": {\n"
            << "    \"allocs_per_request\": " << into_allocs
            << ",\n"
            << "    \"allocs_per_request_tagged\": " << tagged_allocs
            << ",\n"
            << "    \"allocs_per_query_metrics_prometheus\": "
            << metrics_prom_allocs << ",\n"
            << "    \"allocs_per_query_metrics_jsonl\": "
            << metrics_jsonl_allocs << ",\n"
            << "    \"allocs_per_query_stats\": " << stats_allocs
            << ",\n"
            << "    \"bytes_per_session_open\": " << open_bytes
            << ",\n";
        // Left out when unmeasured, so the baseline compare reports
        // it missing instead of passing a made-up zero.
        if (uds_measured)
            out << "    \"allocs_per_request_uds\": " << uds_allocs
                << ",\n";
        out << "    \"allocs_per_request_owning\": " << owning_allocs
            << "\n"
            << "  },\n"
            << "  \"directions\": {\"allocs_per_request\": "
            << "\"lower\", \"allocs_per_request_tagged\": "
            << "\"lower\", \"allocs_per_request_uds\": "
            << "\"lower\", \"allocs_per_query_metrics_prometheus\": "
            << "\"lower\", \"allocs_per_query_metrics_jsonl\": "
            << "\"lower\", \"allocs_per_query_stats\": "
            << "\"lower\", \"bytes_per_session_open\": "
            << "\"lower\"},\n"
            << "  \"compare\": [\"allocs_per_request\", "
            << "\"allocs_per_request_tagged\", "
            << "\"allocs_per_request_uds\", "
            << "\"allocs_per_query_metrics_prometheus\", "
            << "\"allocs_per_query_metrics_jsonl\", "
            << "\"allocs_per_query_stats\", "
            << "\"bytes_per_session_open\"]\n"
            << "}\n";
        std::cout << "wrote " << path << "\n";
    }

    if (check && into_allocs != 0.0) {
        std::cerr << "FAIL: steady-state SubmitBatch performed "
                  << into_allocs
                  << " allocations/request on the Into path "
                     "(budget: 0)\n";
        return 1;
    }
    if (check && tagged_allocs != 0.0) {
        std::cerr << "FAIL: tagged SubmitBatch under admission "
                     "control performed "
                  << tagged_allocs
                  << " allocations/request (budget: 0)\n";
        return 1;
    }
    if (check && uds_measured && uds_allocs != 0.0) {
        std::cerr << "FAIL: SubmitBatch over the Unix socket performed "
                  << uds_allocs
                  << " allocations/round trip (budget: 0)\n";
        return 1;
    }
    std::cout << "\nsteady-state Into path: "
              << formatDouble(into_allocs, 4)
              << " allocs/request untagged, "
              << formatDouble(tagged_allocs, 4)
              << " tagged, "
              << (uds_measured ? formatDouble(uds_allocs, 4)
                               : std::string("n/a"))
              << " over the socket (budget 0)\n";
    return 0;
}

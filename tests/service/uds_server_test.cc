/**
 * @file
 * UdsServer lifecycle and pipelining tests.
 *
 * The socket front end is an epoll reactor: a fixed set of threads
 * serves every connection. These tests pin the properties that
 * design promises:
 *  - connection churn leaves the process's thread and fd counts
 *    and its mapped memory flat (nothing per connection outlives
 *    the connection);
 *  - stop() closes only descriptors it still owns, never a number
 *    the process has since reused;
 *  - a peer that never reads its answers cannot stall another
 *    connection, even with one reactor thread;
 *  - frames pipelined in one write come back in request order,
 *    byte-identical to the same frames sent one round trip at a
 *    time;
 *  - out of descriptors, the server hangs up on (and counts) the
 *    connections it cannot take instead of spinning on them, and
 *    serves again once a descriptor frees up.
 */

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "service/client.hh"
#include "service/service.hh"
#include "service/uds_transport.hh"

using namespace livephase;
using namespace livephase::service;

namespace
{

using Clock = std::chrono::steady_clock;

std::string
socketPath(const char *tag)
{
    return "/tmp/livephase-" + std::string(tag) + "-" +
        std::to_string(::getpid()) + ".sock";
}

std::vector<IntervalRecord>
makeRecords(size_t first, size_t n)
{
    std::vector<IntervalRecord> records;
    for (size_t i = first; i < first + n; ++i) {
        const double mem_per_uop = (i / 4) % 2 == 0 ? 0.002 : 0.025;
        records.push_back(
            {100e6, mem_per_uop * 100e6, static_cast<uint64_t>(i)});
    }
    return records;
}

/** Entries in a /proc/self directory (excluding . and ..). */
size_t
countEntries(const char *dir_path)
{
    DIR *dir = ::opendir(dir_path);
    if (dir == nullptr)
        return 0;
    size_t n = 0;
    while (const dirent *entry = ::readdir(dir))
        if (entry->d_name[0] != '.')
            ++n;
    ::closedir(dir);
    return n;
}

/** Mapped address space of this process (VmSize), KiB. */
size_t
vmSizeKib()
{
    FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0;
    char line[256];
    size_t kib = 0;
    while (std::fgets(line, sizeof(line), status) != nullptr)
        if (std::sscanf(line, "VmSize: %zu kB", &kib) == 1)
            break;
    std::fclose(status);
    return kib;
}

/** Open file descriptor numbers of this process. */
std::vector<int>
openFds()
{
    std::vector<int> fds;
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr)
        return fds;
    const int own = ::dirfd(dir);
    while (const dirent *entry = ::readdir(dir))
        if (entry->d_name[0] != '.' && std::atoi(entry->d_name) != own)
            fds.push_back(std::atoi(entry->d_name));
    ::closedir(dir);
    std::sort(fds.begin(), fds.end());
    return fds;
}

uint64_t
connectionsClosed()
{
    return obs::MetricsRegistry::global()
        .counter("livephase_uds_connections_closed_total")
        .value();
}

/** Wait until the server has closed `target` connections in total;
 *  false on timeout. */
bool
waitForClosed(uint64_t target)
{
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (connectionsClosed() < target) {
        if (Clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

uint64_t
connectionsRejected()
{
    return obs::MetricsRegistry::global()
        .counter("livephase_uds_connections_rejected_total")
        .value();
}

/** CPU time of every thread of this process so far, ns. */
int64_t
processCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** Connect an existing socket to the server; false on failure. */
bool
connectTo(int fd, const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)) == 0;
}

/** A raw blocking client socket; -1 when the dial fails. */
int
dial(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 && !connectTo(fd, path)) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Lowers RLIMIT_NOFILE so that no descriptor is free, and puts the
 *  limit back (closing its filler descriptors) when destroyed. */
class DescriptorsExhausted
{
  public:
    DescriptorsExhausted()
    {
        const std::vector<int> open = openFds();
        if (open.empty() || ::getrlimit(RLIMIT_NOFILE, &saved) != 0)
            return;
        // Cap at the highest open number, then plug the holes below.
        rlimit tight = saved;
        tight.rlim_cur = static_cast<rlim_t>(open.back()) + 1;
        if (::setrlimit(RLIMIT_NOFILE, &tight) != 0)
            return;
        lowered = true;
        for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;)
            plugs.push_back(fd);
        exhausted = errno == EMFILE;
    }

    ~DescriptorsExhausted()
    {
        for (int fd : plugs)
            ::close(fd);
        if (lowered)
            ::setrlimit(RLIMIT_NOFILE, &saved);
    }

    DescriptorsExhausted(const DescriptorsExhausted &) = delete;
    DescriptorsExhausted &operator=(const DescriptorsExhausted &) =
        delete;

    /** True when the limit is in force and every number is taken. */
    bool ok() const { return exhausted; }

  private:
    rlimit saved{};
    std::vector<int> plugs;
    bool lowered = false;
    bool exhausted = false;
};

bool
sendAll(int fd, const Bytes &bytes)
{
    for (size_t done = 0; done < bytes.size();) {
        const ssize_t n = ::send(fd, bytes.data() + done,
                                 bytes.size() - done, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        done += static_cast<size_t>(n);
    }
    return true;
}

bool
recvExactly(int fd, uint8_t *buf, size_t n)
{
    for (size_t done = 0; done < n;) {
        const ssize_t got = ::recv(fd, buf + done, n - done, 0);
        if (got <= 0)
            return false;
        done += static_cast<size_t>(got);
    }
    return true;
}

/** Read one response frame off a blocking socket; empty on EOF. */
Bytes
recvFrame(int fd)
{
    Bytes frame(FRAME_HEADER_SIZE);
    if (!recvExactly(fd, frame.data(), FRAME_HEADER_SIZE))
        return {};
    const auto header = peekHeader(frame);
    if (!header)
        return {};
    frame.resize(FRAME_HEADER_SIZE + header->payload_size);
    if (!recvExactly(fd, frame.data() + FRAME_HEADER_SIZE,
                     header->payload_size))
        return {};
    return frame;
}

} // namespace

TEST(UdsService, ConnectionChurnLeavesThreadAndFdCountsFlat)
{
    LivePhaseService svc;
    const std::string path = socketPath("churn");
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this sandbox";

    uint64_t sid = 0;
    {
        UdsClientTransport transport(path);
        ASSERT_TRUE(transport.connect());
        ServiceClient client(transport);
        const auto open = client.open(PredictorKind::Gpht);
        ASSERT_EQ(open.status, Status::Ok);
        sid = open.session_id;
    }
    const uint64_t closed_before = connectionsClosed();
    const size_t threads_before = countEntries("/proc/self/task");
    const size_t fds_before = countEntries("/proc/self/fd");
    const size_t vm_before = vmSizeKib();

    constexpr size_t CYCLES = 200;
    for (size_t i = 0; i < CYCLES; ++i) {
        UdsClientTransport transport(path);
        ASSERT_TRUE(transport.connect());
        ServiceClient client(transport);
        const auto reply =
            client.submitBatch(sid, makeRecords(i * 4, 4));
        ASSERT_EQ(reply.status, Status::Ok) << "cycle " << i;
    }
    // Give the server a moment to see the last hang-ups; the check
    // itself tolerates one or two still in flight.
    waitForClosed(closed_before + CYCLES);

    EXPECT_LE(countEntries("/proc/self/task"), threads_before + 2)
        << "threads outlived their connections";
    EXPECT_LE(countEntries("/proc/self/fd"), fds_before + 2)
        << "connection descriptors outlived their connections";
    // A finished but unjoined thread leaves /proc/self/task yet
    // keeps its stack mapped (8 MiB each by default): 200 of them
    // would add over a GiB. Allocator growth, even under a
    // sanitizer, stays far below this bound.
    EXPECT_LT(vmSizeKib(), vm_before + 256 * 1024)
        << "per-connection stacks or buffers were never released";
}

TEST(UdsService, StopLeavesReusedFdNumbersAlone)
{
    LivePhaseService svc;
    const std::string path = socketPath("fdreuse");
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this sandbox";

    // A served connection occupies two numbers: our end and the
    // server's. Find both, then let the connection close.
    const std::vector<int> before = openFds();
    const uint64_t closed_before = connectionsClosed();
    std::vector<int> conn_fds;
    {
        UdsClientTransport transport(path);
        ASSERT_TRUE(transport.connect());
        ServiceClient client(transport);
        ASSERT_EQ(client.queryStats().status, Status::Ok);
        for (int fd : openFds())
            if (!std::binary_search(before.begin(), before.end(), fd))
                conn_fds.push_back(fd);
    }
    ASSERT_EQ(conn_fds.size(), 2u);
    ASSERT_TRUE(waitForClosed(closed_before + 1));

    // Unrelated sockets now reuse those numbers (lowest free first).
    std::vector<int> pairs;
    while (pairs.size() < 16 &&
           !std::all_of(conn_fds.begin(), conn_fds.end(), [&](int fd) {
               return std::find(pairs.begin(), pairs.end(), fd) !=
                   pairs.end();
           })) {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        pairs.insert(pairs.end(), {sv[0], sv[1]});
    }
    for (int fd : conn_fds)
        ASSERT_NE(std::find(pairs.begin(), pairs.end(), fd),
                  pairs.end())
            << "fd " << fd << " was not reused";

    server.stop();

    // Every pair still carries a byte both ways.
    for (size_t i = 0; i < pairs.size(); i += 2) {
        for (int dir = 0; dir < 2; ++dir) {
            const int from = pairs[i + dir], to = pairs[i + 1 - dir];
            const uint8_t ping = 0x5A;
            uint8_t got = 0;
            EXPECT_EQ(::send(from, &ping, 1, MSG_NOSIGNAL), 1)
                << "fd " << from << " was disturbed by stop()";
            EXPECT_EQ(::recv(to, &got, 1, MSG_DONTWAIT), 1)
                << "fd " << to << " was disturbed by stop()";
            EXPECT_EQ(got, ping);
        }
    }
    for (int fd : pairs)
        ::close(fd);
}

TEST(UdsService, PeerThatNeverReadsDoesNotStallOthers)
{
    // One reactor thread: a connection blocked on its output must
    // not hold that thread.
    LivePhaseService::Config cfg;
    cfg.workers = 1;
    LivePhaseService svc(cfg);
    const std::string path = socketPath("noreader");
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this sandbox";

    // The stuck peer writes requests without ever reading, until
    // the server stops reading it and both socket buffers are full.
    const int stuck = dial(path);
    ASSERT_GE(stuck, 0);
    ASSERT_EQ(::fcntl(stuck, F_SETFL,
                      ::fcntl(stuck, F_GETFL) | O_NONBLOCK),
              0);
    const Bytes request = encodeStatsRequest();
    size_t full_streak = 0;
    const auto fill_deadline = Clock::now() + std::chrono::seconds(5);
    while (full_streak < 20 && Clock::now() < fill_deadline) {
        const ssize_t n = ::send(stuck, request.data(), request.size(),
                                 MSG_NOSIGNAL);
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            ++full_streak;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
        }
        ASSERT_GT(n, 0) << std::strerror(errno);
        full_streak = 0;
    }
    ASSERT_EQ(full_streak, 20u) << "the stuck peer never filled up";

    // A second client still gets prompt round trips.
    UdsClientTransport transport(path);
    ASSERT_TRUE(transport.connect());
    ServiceClient client(transport);
    const auto start = Clock::now();
    const auto open = client.open(PredictorKind::LastValue);
    ASSERT_EQ(open.status, Status::Ok);
    for (size_t i = 0; i < 20; ++i)
        ASSERT_EQ(
            client.submitBatch(open.session_id, makeRecords(i, 8))
                .status,
            Status::Ok);
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(2))
        << "round trips queued behind a peer that does not read";

    ::close(stuck);
    server.stop();
}

TEST(UdsService, PipelinedFramesAnswerInRequestOrder)
{
    const std::vector<std::vector<IntervalRecord>> batches = {
        makeRecords(0, 8), makeRecords(8, 1), makeRecords(9, 24)};

    // Reference: a fresh service, one round trip per frame.
    std::vector<Bytes> sequential;
    {
        LivePhaseService svc;
        const std::string path = socketPath("seq");
        UdsServer server(svc, path);
        if (!server.start())
            GTEST_SKIP() << "AF_UNIX unavailable in this sandbox";
        UdsClientTransport transport(path);
        ASSERT_TRUE(transport.connect());
        ParsedResponse open;
        ASSERT_TRUE(parseResponse(
            transport.roundTrip(encodeOpenRequest(PredictorKind::Gpht)),
            open));
        ASSERT_EQ(open.status, Status::Ok);
        for (const auto &batch : batches)
            sequential.push_back(transport.roundTrip(
                encodeSubmitRequest(open.header.session_id, batch)));
    }

    // Same data on a fresh service, all three frames in one send.
    LivePhaseService svc;
    const std::string path = socketPath("pipe");
    UdsServer server(svc, path);
    ASSERT_TRUE(server.start());
    const int fd = dial(path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, encodeOpenRequest(PredictorKind::Gpht)));
    ParsedResponse open;
    ASSERT_TRUE(parseResponse(recvFrame(fd), open));
    ASSERT_EQ(open.status, Status::Ok);

    Bytes burst;
    for (const auto &batch : batches) {
        const Bytes frame =
            encodeSubmitRequest(open.header.session_id, batch);
        burst.insert(burst.end(), frame.begin(), frame.end());
    }
    ASSERT_TRUE(sendAll(fd, burst));
    for (size_t i = 0; i < batches.size(); ++i) {
        const Bytes answer = recvFrame(fd);
        ParsedResponse parsed;
        ASSERT_TRUE(parseResponse(answer, parsed)) << "answer " << i;
        EXPECT_EQ(parsed.status, Status::Ok);
        const auto results =
            decodeSubmitResults(ByteView(parsed.body));
        ASSERT_TRUE(results.has_value()) << "answer " << i;
        EXPECT_EQ(results->size(), batches[i].size())
            << "answer " << i << " is out of order";
        EXPECT_EQ(answer, sequential[i]) << "answer " << i;
    }
    ::close(fd);
}

TEST(UdsService, OutOfDescriptorsRejectsInsteadOfSpinning)
{
    LivePhaseService::Config cfg;
    cfg.workers = 1;
    LivePhaseService svc(cfg);
    const std::string path = socketPath("emfile");
    UdsServer server(svc, path);
    if (!server.start())
        GTEST_SKIP() << "AF_UNIX unavailable in this sandbox";

    // One client served while descriptors are plentiful. The later
    // clients' sockets are made now too: our own ends count against
    // the same process limit as the server's.
    auto served = std::make_unique<UdsClientTransport>(path);
    ASSERT_TRUE(served->connect());
    {
        ServiceClient client(*served);
        ASSERT_EQ(client.queryStats().status, Status::Ok);
    }
    std::vector<int> late;
    for (int i = 0; i < 3; ++i) {
        late.push_back(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
        ASSERT_GE(late.back(), 0);
    }

    const uint64_t rejected_before = connectionsRejected();
    {
        DescriptorsExhausted limit;
        ASSERT_TRUE(limit.ok()) << "could not lower RLIMIT_NOFILE";

        // Past the limit, each connection is taken off the backlog
        // and hung up on.
        ASSERT_TRUE(connectTo(late[0], path));
        ASSERT_TRUE(connectTo(late[1], path));
        const auto deadline = Clock::now() + std::chrono::seconds(5);
        while (connectionsRejected() < rejected_before + 2 &&
               Clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_EQ(connectionsRejected(), rejected_before + 2);
        for (int i = 0; i < 2; ++i) {
            uint8_t byte = 0;
            EXPECT_LE(::recv(late[i], &byte, 1, 0), 0)
                << "rejected client " << i << " was not hung up on";
        }

        // Nothing is left pending, so the reactor goes idle rather
        // than spinning on a listener that stays readable.
        const int64_t cpu_before = processCpuNs();
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        EXPECT_LT(processCpuNs() - cpu_before, 50'000'000)
            << "a reactor thread spins while out of descriptors";

        // Once a served client leaves, its descriptors serve the
        // next client.
        const uint64_t closed_before = connectionsClosed();
        served.reset();
        ASSERT_TRUE(waitForClosed(closed_before + 1));
        ASSERT_TRUE(connectTo(late[2], path));
        ASSERT_TRUE(sendAll(late[2], encodeStatsRequest()));
        ParsedResponse stats;
        ASSERT_TRUE(parseResponse(recvFrame(late[2]), stats));
        EXPECT_EQ(stats.status, Status::Ok);
        EXPECT_EQ(connectionsRejected(), rejected_before + 2);
    }
    for (int fd : late)
        ::close(fd);
}

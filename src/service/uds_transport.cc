#include "service/uds_transport.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/failpoint.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"

#if defined(__SANITIZE_THREAD__)
#define LIVEPHASE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LIVEPHASE_TSAN 1
#endif
#endif

namespace livephase::service
{

namespace
{

/** Transport-level counters (process-wide; servers share them). */
struct TransportCounters
{
    obs::Counter &accepted;
    obs::Counter &rejected;
    obs::Counter &closed;
    obs::Counter &desyncs;
    obs::Counter &bytes_in;
    obs::Counter &bytes_out;

    static TransportCounters &get()
    {
        auto &reg = obs::MetricsRegistry::global();
        static TransportCounters c{
            reg.counter("livephase_uds_connections_accepted_total"),
            reg.counter("livephase_uds_connections_rejected_total"),
            reg.counter("livephase_uds_connections_closed_total"),
            reg.counter("livephase_uds_desyncs_total"),
            reg.counter("livephase_uds_bytes_received_total"),
            reg.counter("livephase_uds_bytes_sent_total"),
        };
        return c;
    }
};

/** The spare descriptor UdsServer gives up to reject a connection
 *  when the process is out of descriptors; -1 if none is free. */
int
openReserve()
{
    return ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

/** Read exactly n bytes; false on EOF/error.
 *
 *  Failpoint "uds.read": Error = the peer vanished before a byte
 *  arrived; PartialIo = half the bytes arrive, then the stream dies
 *  (a disconnect mid-frame). Delay stalls inside evaluate(),
 *  modelling a jittery peer. */
bool
recvAll(int fd, uint8_t *buf, size_t n)
{
    size_t want = n;
    if (auto f = FAULT_POINT("uds.read")) {
        if (f.action == fault::Action::Error)
            return false;
        if (f.action == fault::Action::PartialIo)
            want = n / 2;
    }
    size_t done = 0;
    while (done < want) {
        const ssize_t got = ::recv(fd, buf + done, want - done, 0);
        if (got == 0)
            return false;
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(got);
    }
    return done == n;
}

/** Write exactly n bytes; false on error.
 *
 *  Failpoint "uds.write": Error = send fails outright; PartialIo =
 *  half the frame leaves, then the connection dies (the peer sees a
 *  truncated stream). */
bool
sendAll(int fd, const uint8_t *buf, size_t n)
{
    size_t want = n;
    if (auto f = FAULT_POINT("uds.write")) {
        if (f.action == fault::Action::Error)
            return false;
        if (f.action == fault::Action::PartialIo)
            want = n / 2;
    }
    size_t done = 0;
    while (done < want) {
        const ssize_t sent =
            ::send(fd, buf + done, want - done, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(sent);
    }
    return done == n;
}

/** Whether a frame header can be trusted to delimit the stream: a
 *  wrong magic/version or an oversized payload desynchronizes it. */
bool
framesStream(const std::optional<FrameHeader> &header)
{
    return header && header->magic == FRAME_MAGIC &&
        header->version >= PROTOCOL_VERSION_MIN &&
        header->version <= PROTOCOL_VERSION &&
        header->payload_size <= MAX_PAYLOAD_SIZE;
}

enum class RecvStatus
{
    Ok,    ///< `frame` holds one complete frame
    Eof,   ///< peer went away (EOF or IO error)
    Desync ///< unparseable header; `frame` holds the header bytes
};

/** Read one frame off the stream. */
RecvStatus
recvFrame(int fd, Bytes &frame)
{
    frame.clear();
    uint8_t header_bytes[FRAME_HEADER_SIZE];
    if (!recvAll(fd, header_bytes, sizeof(header_bytes)))
        return RecvStatus::Eof;
    // Failpoint "uds.frame": CorruptFrame garbles the length prefix
    // (payload_size bytes), the classic stream-desync trigger.
    if (auto f = FAULT_POINT("uds.frame");
        f.action == fault::Action::CorruptFrame) {
        for (size_t i = 16; i < FRAME_HEADER_SIZE; ++i)
            header_bytes[i] ^= 0xA5;
    }
    frame.assign(header_bytes, header_bytes + sizeof(header_bytes));
    const auto header =
        peekHeader(header_bytes, sizeof(header_bytes));
    if (!framesStream(header))
        return RecvStatus::Desync;
    frame.resize(FRAME_HEADER_SIZE + header->payload_size);
    if (header->payload_size > 0 &&
        !recvAll(fd, frame.data() + FRAME_HEADER_SIZE,
                 header->payload_size))
        return RecvStatus::Eof;
    return RecvStatus::Ok;
}

bool
fillSockaddr(const std::string &path, sockaddr_un &addr)
{
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

/**
 * One client connection. Only the reactor thread that took its
 * EPOLLONESHOT event touches it, so it needs no lock of its own.
 */
struct UdsServer::Connection
{
    explicit Connection(int socket) : fd(socket) {}

    int fd;
    /** Unanswered input is [0, filled); size() is the receive
     *  window: RECV_WINDOW, or the frame being received if larger. */
    BufferPool::Lease in = BufferPool::global().lease();
    size_t filled = 0;
    /** Length of the frame at the front of `in` once its header has
     *  been checked (so "uds.frame" fires once per frame); 0 until
     *  then. */
    size_t frame_len = 0;
    /** Answers in request order; [sent, size()) is still unsent. */
    BufferPool::Lease out = BufferPool::global().lease();
    size_t sent = 0;
    /** Set on a desync: send what is queued, then close. */
    bool hang_up = false;
    /** This connection's entry in UdsServer::conns. */
    std::list<Connection>::iterator self;
};

namespace
{

/** Smallest receive window: one page takes a K=64 SubmitBatch, or
 *  many pipelined small frames, in one recv. */
constexpr size_t RECV_WINDOW = 4096;

/** Stop answering buffered frames once this many answer bytes are
 *  queued, and send them first: small requests with large answers
 *  (metrics text) cannot make one read queue megabytes. */
constexpr size_t OUT_HIGH_WATER = 256 * 1024;

/** Reads one wakeup may make before the connection is re-armed, so
 *  a peer that never pauses cannot keep a reactor thread to itself
 *  (or hold up stop()). */
constexpr int READS_PER_WAKEUP = 8;

} // namespace

UdsServer::UdsServer(LivePhaseService &service, std::string path)
    : svc(service), sock_path(std::move(path))
{
}

UdsServer::~UdsServer()
{
    stop();
}

bool
UdsServer::start()
{
    sockaddr_un addr;
    if (!fillSockaddr(sock_path, addr)) {
        warn("UdsServer: socket path too long: %s",
             sock_path.c_str());
        return false;
    }
    listen_fd =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) {
        warn("UdsServer: socket(): %s", std::strerror(errno));
        return false;
    }
    ::unlink(sock_path.c_str());
    if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listen_fd, 64) < 0) {
        warn("UdsServer: bind/listen on %s: %s", sock_path.c_str(),
             std::strerror(errno));
        closeFds();
        return false;
    }
    // The stop eventfd is level-triggered and never read, so once
    // stop() writes it every reactor thread sees it. The listener is
    // one-shot like the connections: one thread accepts at a time.
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    reserve_fd = openReserve();
    if (epoll_fd < 0 || wake_fd < 0 ||
        !watch(EPOLL_CTL_ADD, wake_fd, EPOLLIN, nullptr) ||
        !watch(EPOLL_CTL_ADD, listen_fd, EPOLLIN | EPOLLONESHOT,
               &listen_fd)) {
        warn("UdsServer: epoll setup: %s", std::strerror(errno));
        ::unlink(sock_path.c_str());
        closeFds();
        return false;
    }
    const size_t threads = std::max<size_t>(svc.config().workers, 1);
    for (size_t i = 0; i < threads; ++i)
        reactors.emplace_back([this] { reactorLoop(); });
    return true;
}

void
UdsServer::stop()
{
    if (reactors.empty())
        return; // never started, or already stopped
    const uint64_t wake = 1;
    if (::write(wake_fd, &wake, sizeof(wake)) < 0)
        warn("UdsServer: stop wakeup: %s", std::strerror(errno));
    for (std::thread &t : reactors)
        t.join();
    reactors.clear();
    TransportCounters &tc = TransportCounters::get();
    for (Connection &conn : conns) {
        ::close(conn.fd);
        tc.closed.inc();
    }
    conns.clear();
    ::unlink(sock_path.c_str());
    closeFds();
}

void
UdsServer::closeFds()
{
    for (int *fd : {&listen_fd, &epoll_fd, &wake_fd, &reserve_fd})
        if (*fd >= 0)
            ::close(std::exchange(*fd, -1));
}

bool
UdsServer::watch(int op, int fd, uint32_t events, void *tag)
{
    epoll_event ev{};
    ev.events = events;
    ev.data.ptr = tag;
    return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

bool
UdsServer::rearm(int fd, uint32_t events, void *tag)
{
#ifdef LIVEPHASE_TSAN
    // ThreadSanitizer models EPOLL_CTL_ADD, not MOD, as publishing
    // to the thread that takes the next event, so under it the fd
    // is re-added. The kernel orders the handoff the same either way.
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    return watch(EPOLL_CTL_ADD, fd, events | EPOLLONESHOT, tag);
#else
    return watch(EPOLL_CTL_MOD, fd, events | EPOLLONESHOT, tag);
#endif
}

void
UdsServer::reactorLoop()
{
    // This thread's answer scratch; its capacity is reused across
    // frames and connections.
    Bytes reply;
    for (;;) {
        epoll_event ev;
        // One event per wait: the kernel wakes another waiter for
        // whatever else is ready, so two busy connections are
        // served by two threads, not queued behind one.
        const int n = ::epoll_wait(epoll_fd, &ev, 1, -1);
        if (n < 0 && errno != EINTR)
            fatal("UdsServer: epoll_wait: %s", std::strerror(errno));
        if (n <= 0)
            continue;
        if (ev.data.ptr == nullptr)
            return; // stop()
        if (ev.data.ptr == &listen_fd) {
            acceptAll();
            continue;
        }
        Connection &conn = *static_cast<Connection *>(ev.data.ptr);
        const Next next = serve(conn, reply);
        if (next == Next::Close ||
            !rearm(conn.fd, next == Next::Read ? EPOLLIN : EPOLLOUT,
                   &conn))
            closeConnection(conn);
    }
}

void
UdsServer::acceptAll()
{
    TransportCounters &tc = TransportCounters::get();
    for (;;) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if ((errno == EMFILE || errno == ENFILE) && rejectOne())
                continue;
            break; // drained (EAGAIN); anything else retries on re-arm
        }
        tc.accepted.inc();
        Connection *conn;
        {
            std::lock_guard lock(conns_mu);
            conn = &conns.emplace_back(fd);
            conn->self = std::prev(conns.end());
        }
        if (!watch(EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLONESHOT, conn))
            closeConnection(*conn);
    }
    if (!rearm(listen_fd, EPOLLIN, &listen_fd))
        warn("UdsServer: re-arming the listener: %s",
             std::strerror(errno));
}

bool
UdsServer::rejectOne()
{
    // Out of descriptors, the pending connection would keep the
    // listener readable and the re-armed one-shot would fire again
    // at once. Spend the reserve descriptor to take the connection
    // off the backlog, hang up on it, then take the reserve back.
    if (reserve_fd < 0 && (reserve_fd = openReserve()) < 0)
        return false;
    ::close(std::exchange(reserve_fd, -1));
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    const bool took = fd >= 0;
    if (took) {
        ::close(fd);
        TransportCounters::get().rejected.inc();
    }
    reserve_fd = openReserve();
    return took;
}

void
UdsServer::closeConnection(Connection &conn)
{
    const int fd = conn.fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    {
        std::lock_guard lock(conns_mu);
        conns.erase(conn.self); // returns both buffer leases
    }
    ::close(fd);
    TransportCounters::get().closed.inc();
}

UdsServer::Next
UdsServer::serve(Connection &conn, Bytes &reply)
{
    Bytes &in = *conn.in;
    bool socket_drained = false;
    for (int reads = 0;;) {
        if (conn.sent < conn.out->size()) {
            if (!flush(conn))
                return Next::Close;
            if (conn.sent < conn.out->size())
                return Next::Write; // stop reading until it drains
        }
        if (conn.hang_up)
            return Next::Close;
        if (answerBuffered(conn, reply))
            continue; // send what was answered first
        // A short read means the socket was empty; the level-
        // triggered re-arm catches anything that arrived since.
        if (socket_drained || reads++ == READS_PER_WAKEUP)
            return Next::Read;

        // Failpoint "uds.read": Error = the peer vanished; PartialIo
        // = the stream dies midway through the read. Either way
        // nothing from this read is answered.
        if (auto f = FAULT_POINT("uds.read");
            f.action == fault::Action::Error ||
            f.action == fault::Action::PartialIo)
            return Next::Close;
        const size_t window = std::max(conn.frame_len, RECV_WINDOW);
        if (in.size() < window)
            in.resize(window);
        const ssize_t got = ::recv(conn.fd, in.data() + conn.filled,
                                   in.size() - conn.filled, 0);
        if (got > 0) {
            conn.filled += static_cast<size_t>(got);
            socket_drained = conn.filled < in.size();
            continue;
        }
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return Next::Read;
        return Next::Close; // EOF or error
    }
}

bool
UdsServer::answerBuffered(Connection &conn, Bytes &reply)
{
    TransportCounters &tc = TransportCounters::get();
    Bytes &out = *conn.out;
    uint8_t *data = conn.in->data();
    size_t start = 0;
    bool answered = false;
    while (out.size() < OUT_HIGH_WATER) {
        const size_t avail = conn.filled - start;
        if (conn.frame_len == 0) {
            if (avail < FRAME_HEADER_SIZE)
                break;
            uint8_t *header_bytes = data + start;
            // Failpoint "uds.frame": CorruptFrame garbles the length
            // prefix (payload_size bytes), the classic stream-desync
            // trigger.
            if (auto f = FAULT_POINT("uds.frame");
                f.action == fault::Action::CorruptFrame) {
                for (size_t i = 16; i < FRAME_HEADER_SIZE; ++i)
                    header_bytes[i] ^= 0xA5;
            }
            const auto header =
                peekHeader(header_bytes, FRAME_HEADER_SIZE);
            if (!framesStream(header)) {
                answerDesync(conn, header_bytes, reply);
                return true;
            }
            conn.frame_len = FRAME_HEADER_SIZE + header->payload_size;
        }
        if (avail < conn.frame_len)
            break;
        svc.handleFrameInto(ByteView(data + start, conn.frame_len),
                            reply);
        tc.bytes_in.inc(conn.frame_len);
        tc.bytes_out.inc(reply.size());
        out.insert(out.end(), reply.begin(), reply.end());
        start += conn.frame_len;
        conn.frame_len = 0;
        answered = true;
    }
    if (start > 0) {
        std::memmove(data, data + start, conn.filled - start);
        conn.filled -= start;
    }
    // A huge frame's window would otherwise stay pinned for the
    // connection's life; the pool drops the oversized buffer.
    if (conn.filled == 0 &&
        conn.in->capacity() > BufferPool::MAX_RETAINED_BYTES)
        conn.in = BufferPool::global().lease();
    return answered;
}

void
UdsServer::answerDesync(Connection &conn, uint8_t *header_bytes,
                        Bytes &reply)
{
    // Unparseable header: let the normal parse path count it and
    // build the BadFrame reply, then drop the connection — the
    // stream cannot be resynchronized. The trace event carries
    // header fields and lengths ONLY — never payload/stream bytes,
    // which may be client data (or garbage that contains it).
    TransportCounters &tc = TransportCounters::get();
    tc.desyncs.inc();
    const auto header = peekHeader(header_bytes, FRAME_HEADER_SIZE);
    obs::FlightRecorder::global().record(
        obs::Severity::Error, "uds.desync",
        {{"magic", static_cast<uint64_t>(header ? header->magic : 0)},
         {"version",
          static_cast<uint64_t>(header ? header->version : 0)},
         {"op", static_cast<uint64_t>(header ? header->op : 0)},
         {"payload_size",
          static_cast<uint64_t>(header ? header->payload_size : 0)}});
    if (svc.config().dump_trace_on_error)
        obs::FlightRecorder::global().autoDump("socket-desync");
    svc.handleFrameInto(ByteView(header_bytes, FRAME_HEADER_SIZE),
                        reply);
    tc.bytes_in.inc(FRAME_HEADER_SIZE);
    tc.bytes_out.inc(reply.size());
    conn.out->insert(conn.out->end(), reply.begin(), reply.end());
    conn.filled = 0;
    conn.hang_up = true;
}

/** Send the queued answers; false when the connection is lost.
 *  Answers still unsent on return mean the socket is full.
 *
 *  Failpoint "uds.write": Error = send fails outright; PartialIo =
 *  half the queued bytes leave, then the connection dies (the peer
 *  sees a truncated stream). */
bool
UdsServer::flush(Connection &conn)
{
    Bytes &out = *conn.out;
    if (auto f = FAULT_POINT("uds.write")) {
        if (f.action == fault::Action::Error)
            return false;
        if (f.action == fault::Action::PartialIo) {
            ::send(conn.fd, out.data() + conn.sent,
                   (out.size() - conn.sent) / 2, MSG_NOSIGNAL);
            return false;
        }
    }
    while (conn.sent < out.size()) {
        const ssize_t sent = ::send(conn.fd, out.data() + conn.sent,
                                    out.size() - conn.sent,
                                    MSG_NOSIGNAL);
        if (sent > 0) {
            conn.sent += static_cast<size_t>(sent);
            continue;
        }
        if (sent < 0 && errno == EINTR)
            continue;
        return sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    out.clear();
    conn.sent = 0;
    if (out.capacity() > BufferPool::MAX_RETAINED_BYTES)
        conn.out = BufferPool::global().lease();
    return true;
}

UdsClientTransport::UdsClientTransport(std::string path)
    : sock_path(std::move(path))
{
}

UdsClientTransport::~UdsClientTransport()
{
    if (fd >= 0)
        ::close(fd);
}

bool
UdsClientTransport::connect()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    if (auto f = FAULT_POINT("uds.connect");
        f.action == fault::Action::Error)
        return false;
    sockaddr_un addr;
    if (!fillSockaddr(sock_path, addr))
        return false;
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        fd = -1;
        return false;
    }
    return true;
}

bool
UdsClientTransport::reconnect()
{
    return connect();
}

Bytes
UdsClientTransport::roundTrip(Bytes request_frame)
{
    Bytes response;
    if (!roundTripInto(request_frame, response))
        return {};
    return response;
}

bool
UdsClientTransport::roundTripInto(const Bytes &request_frame,
                                  Bytes &response)
{
    if (fd < 0)
        return false;
    // Any failure poisons the stream (a partial write leaves the
    // server mid-frame; a partial read leaves *us* mid-frame), so
    // drop the connection — reconnect() starts clean.
    if (!sendAll(fd, request_frame.data(), request_frame.size())) {
        ::close(fd);
        fd = -1;
        return false;
    }
    if (recvFrame(fd, response) != RecvStatus::Ok) {
        ::close(fd);
        fd = -1;
        return false;
    }
    return true;
}

} // namespace livephase::service

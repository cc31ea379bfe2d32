/**
 * @file
 * Unix-domain-socket transport for livephased.
 *
 * The wire format is exactly the protocol frame: each request/
 * response already carries its payload length in the 20-byte
 * header, so stream framing is "read a header, read payload_size
 * more bytes". A frame whose magic/version is wrong, or whose
 * declared payload exceeds MAX_PAYLOAD_SIZE, desynchronizes the
 * stream — the server answers BadFrame and drops the connection
 * rather than guessing where the next frame starts.
 *
 * The server is a small epoll reactor: `workers` threads (at least
 * one) share one epoll set holding the listener, every connection
 * and a stop eventfd. Each connection is armed EPOLLONESHOT, so one
 * thread at a time owns it: that thread reads whatever has arrived,
 * answers every complete frame through the service's synchronous
 * handleFrameInto() path (parse checks, BadFrame and admission all
 * apply), sends the answers in request order and re-arms. A client
 * may pipeline frames. When the peer stops reading, the connection
 * waits for EPOLLOUT and is not read until its answers drain, so a
 * connection buffers at most one receive window of requests and
 * their answers.
 *
 * The server holds one spare descriptor (on /dev/null). When the
 * process runs out of descriptors, a pending connection is accepted
 * on that spare and closed at once, so the client sees a hang-up
 * instead of waiting in the backlog while a reactor thread spins on
 * the still-readable listener. Each such hang-up is counted in
 * livephase_uds_connections_rejected_total.
 */

#ifndef LIVEPHASE_SERVICE_UDS_TRANSPORT_HH
#define LIVEPHASE_SERVICE_UDS_TRANSPORT_HH

#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/service.hh"

namespace livephase::service
{

/**
 * Serves a LivePhaseService on a Unix-domain socket path.
 */
class UdsServer
{
  public:
    /** @param path filesystem socket path (unlinked on bind/stop). */
    UdsServer(LivePhaseService &service, std::string path);

    ~UdsServer();

    UdsServer(const UdsServer &) = delete;
    UdsServer &operator=(const UdsServer &) = delete;

    /**
     * Bind, listen and start the reactor threads. Returns false
     * (with a warn()) when the socket cannot be created — e.g. a
     * sandbox without AF_UNIX — so callers can fall back to
     * in-process.
     */
    bool start();

    /** Stop the reactor threads, close the connections still open
     *  and the listener. Idempotent; the destructor calls it. */
    void stop();

    const std::string &path() const { return sock_path; }

  private:
    struct Connection;

    /** What a connection waits for after its owner is done. */
    enum class Next
    {
        Read,
        Write,
        Close
    };

    void reactorLoop();
    void acceptAll();
    /** Out of descriptors: accept one pending connection in place
     *  of the reserve and hang up on it. False when none was
     *  taken. */
    bool rejectOne();
    Next serve(Connection &conn, Bytes &reply);
    bool answerBuffered(Connection &conn, Bytes &reply);
    void answerDesync(Connection &conn, uint8_t *header_bytes,
                      Bytes &reply);
    bool flush(Connection &conn);
    bool watch(int op, int fd, uint32_t events, void *tag);
    bool rearm(int fd, uint32_t events, void *tag);
    void closeConnection(Connection &conn);
    void closeFds();

    LivePhaseService &svc;
    std::string sock_path;
    int listen_fd = -1;
    int epoll_fd = -1;
    int wake_fd = -1;
    /** Spare descriptor given up to accept-and-close a connection
     *  when the process is out of descriptors. */
    int reserve_fd = -1;
    /** Every open connection; an entry leaves before its fd is
     *  closed, so stop() never touches a reused fd number. */
    std::mutex conns_mu;
    std::list<Connection> conns;
    std::vector<std::thread> reactors;
};

/**
 * Client side: connects to a UdsServer and round-trips frames.
 * Thread-compatible, not thread-safe (one connection, one caller —
 * or external locking).
 */
class UdsClientTransport : public FrameTransport
{
  public:
    explicit UdsClientTransport(std::string path);

    ~UdsClientTransport() override;

    UdsClientTransport(const UdsClientTransport &) = delete;
    UdsClientTransport &operator=(const UdsClientTransport &) =
        delete;

    /** Connect (closing any previous connection first); false when
     *  the server is unreachable. */
    bool connect();

    /** Drop the (possibly desynchronized) connection and dial
     *  again — the transport-loss recovery hook ServiceClient's
     *  retry loop uses. */
    bool reconnect() override;

    bool connected() const { return fd >= 0; }

    /** Send one frame, receive one frame. Empty on I/O failure. */
    Bytes roundTrip(Bytes request_frame) override;

    /** Buffer-reusing round trip: the response lands in `response`
     *  (capacity recycled across calls), so a steady-state client
     *  stops allocating on the socket path. */
    bool roundTripInto(const Bytes &request_frame,
                       Bytes &response) override;

  private:
    std::string sock_path;
    int fd = -1;
};

} // namespace livephase::service

#endif // LIVEPHASE_SERVICE_UDS_TRANSPORT_HH

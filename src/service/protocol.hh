/**
 * @file
 * Wire protocol of the `livephased` phase-prediction service.
 *
 * Every exchange is one length-prefixed binary *frame*: a fixed
 * 20-byte header followed by an op-specific payload. All integers
 * are little-endian; doubles are IEEE-754 binary64 bit patterns.
 *
 *     offset  size  field
 *     0       4     magic        0x4C504844 ("LPHD")
 *     4       2     version      protocol revision (1 or 2)
 *     6       2     op           Op enumerator
 *     8       8     session_id   0 for Open / QueryStats
 *     16      4     payload_size bytes following the header
 *
 * Version 2 prepends an optional *extension block* to every request
 * payload: u8 length, then that many bytes. The length selects the
 * contents:
 *
 *     16  trace context (u64 trace id + u64 parent span id)
 *     2   tenant tag (u16, QoS admission control — src/admission/)
 *     18  trace context then tenant tag
 *
 * Any other in-bounds length is skipped unread, so a request with
 * an unrecognized (or garbled) block degrades to an *untraced,
 * untagged* request, never to a protocol error. Version-1 frames
 * have no block at all — encoders emit v1 whenever neither a trace
 * context nor a tag is attached, and parsers accept both revisions,
 * which is the whole interop story: an old peer only ever sees v1
 * bytes it already speaks, and a pre-tag v2 peer skips the tag
 * block it does not know.
 * New clients learn the server's revision from the version
 * advertisement appended to the Open response body (old clients
 * ignore trailing body bytes; absent advert = a v1 server).
 *
 * Responses reuse the header (echoing op, session id and the
 * *request's* version — a v1 client never receives v2 bytes);
 * their payload always begins with a 16-bit Status, followed by an
 * op-specific body. The same layout travels over the Unix-domain
 * socket transport and the in-process transport, so a client is
 * oblivious to which one it is talking through.
 *
 * Ops:
 *  - Open        payload: u16 PredictorKind. Response header carries
 *                the newly assigned session id; response body ends
 *                with a u16 version advertisement (v2 servers).
 *  - SubmitBatch payload: u32 count, then count IntervalRecords
 *                (f64 uops, f64 bus_tran_mem, u64 tsc). Response
 *                body: u32 count, then count IntervalResults
 *                (i32 phase, i32 predicted_next, u32 dvfs_index).
 *  - QueryStats  empty payload. Response body: a StatsSnapshot
 *                (see service_stats.hh).
 *  - Close       empty payload; session id in the header.
 *  - QueryMetrics payload: u16 obs::ExpositionFormat. Response
 *                body: u32 length + that many bytes of rendered
 *                telemetry (Prometheus text, JSONL, or a flight-
 *                recorder dump).
 *  - QueryTraces payload: u64 trace-id filter (0 = all traces).
 *                Response body: u32 length + that many bytes of
 *                Chrome trace-event JSON (obs/trace.hh). v2 only.
 *  - QueryPhases payload: u16 obs::ExpositionFormat. Header session
 *                id selects scope: 0 = fleet-wide phase telemetry
 *                (hit-rate windows, transition matrix, residency,
 *                DVFS attribution), nonzero = that session's
 *                predictor-quality detail (UnknownSession when not
 *                live). Response body: u32 length + rendered text
 *                (JSON for ExpositionFormat::Jsonl, Prometheus
 *                otherwise). v2 only.
 *  - QueryProfile payload: u16 profile format (0 = folded stacks,
 *                1 = JSONL). Response body: u32 length + the
 *                in-process profiler's rendered samples
 *                (obs/profiler.hh); empty when the profiler never
 *                ran. v2 only.
 *
 * Malformed input (bad magic/version, unknown op, truncated or
 * oversized payload, record-count mismatch) is answered with
 * Status::BadFrame — the service never fatal()s on network input.
 *
 * Zero-copy data plane (DESIGN.md §14): the record and result
 * arrays are laid out on the wire exactly as the corresponding C++
 * structs are laid out in memory on a little-endian host (asserted
 * below), so the hot-path APIs decode *in place* — parseRequest
 * into a RequestView yields a RecordView aliasing the frame buffer
 * (falling back to one copy into a caller-supplied Arena on
 * big-endian or unaligned frames), and encode*Into APIs append
 * into a caller-reused buffer instead of allocating. The owning
 * ParsedRequest/Bytes APIs remain as thin wrappers for tests and
 * cold paths.
 */

#ifndef LIVEPHASE_SERVICE_PROTOCOL_HH
#define LIVEPHASE_SERVICE_PROTOCOL_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/arena.hh"
#include "core/phase.hh"

namespace livephase::service
{

/** Raw frame bytes as they travel over a transport. */
using Bytes = std::vector<uint8_t>;

/** Non-owning window over frame bytes. */
using ByteView = std::span<const uint8_t>;

constexpr uint32_t FRAME_MAGIC = 0x4C504844u; // "LPHD"
constexpr uint16_t PROTOCOL_VERSION = 2;     ///< newest we speak
constexpr uint16_t PROTOCOL_VERSION_MIN = 1; ///< oldest we accept
constexpr size_t FRAME_HEADER_SIZE = 20;

/** Largest payload a peer may send; larger frames are rejected
 *  before buffering (a stream-desync or hostile-length guard). */
constexpr uint32_t MAX_PAYLOAD_SIZE = 16u << 20;

/** Request operations (echoed verbatim in the response header). */
enum class Op : uint16_t
{
    Open = 1,
    SubmitBatch = 2,
    QueryStats = 3,
    Close = 4,
    QueryMetrics = 5,
    QueryTraces = 6, ///< protocol v2; v1 servers answer BadFrame
    QueryPhases = 7,  ///< protocol v2; v1 servers answer BadFrame
    QueryProfile = 8, ///< protocol v2; v1 servers answer BadFrame
};

constexpr size_t NUM_OPS = 8;

/** First field of every response payload. */
enum class Status : uint16_t
{
    Ok = 0,
    RetryAfter = 1,      ///< request queue full — back off and retry
    BadFrame = 2,        ///< malformed or protocol-violating frame
    UnknownSession = 3,  ///< id never opened, closed, evicted or expired
    UnknownPredictor = 4,///< Open named an unsupported predictor kind
    BatchTooLarge = 5,   ///< SubmitBatch exceeded the service's K limit
    ShuttingDown = 6,    ///< service is stopping; do not retry
    Throttled = 7,       ///< shed by QoS admission control — retry later
};

/** Predictor chosen per session at open time. */
enum class PredictorKind : uint16_t
{
    LastValue = 1,
    Gpht = 2,
    SetAssocGpht = 3,
    VariableWindow = 4,
};

/** "ok", "retry-after", ... for logs and tables. */
const char *statusName(Status status);

/** "open", "submit-batch", ... ("op-N" for unknown raw values). */
std::string opName(uint16_t raw_op);

/** "gpht", "lastvalue", ... */
const char *predictorKindName(PredictorKind kind);

/** Parse a CLI predictor name; nullopt when unrecognized. */
std::optional<PredictorKind>
predictorKindFromName(const std::string &name);

/**
 * Optional request trace context as it travels on the wire
 * (protocol v2 trace block, length 16). trace_id == 0 — the
 * default — means "untraced"; encoders then emit a plain v1 frame.
 * Deliberately just two integers: the protocol layer knows nothing
 * about the tracer behind them (obs/trace.hh).
 */
struct TraceField
{
    uint64_t trace_id = 0;
    uint64_t parent_span_id = 0;

    bool present() const { return trace_id != 0; }
};

constexpr size_t TRACE_FIELD_WIRE_SIZE = 16;

/**
 * Tenant tag carried in the v2 extension block (length 2 alone, or
 * appended to a trace context as length 18). 0 — the default —
 * means "untagged"; such requests land in the admission layer's
 * default bucket and the encoders put no tag on the wire, so an
 * untagged, untraced request stays a byte-identical v1 frame. The
 * protocol layer treats the value as an opaque u16; meaning (QoS
 * policy, priority, share) lives entirely in src/admission/.
 */
using TenantTag = uint16_t;

constexpr size_t TENANT_TAG_WIRE_SIZE = 2;
constexpr size_t TRACE_TAG_WIRE_SIZE =
    TRACE_FIELD_WIRE_SIZE + TENANT_TAG_WIRE_SIZE;

/** Decoded frame header (validated magic/version not implied). */
struct FrameHeader
{
    uint32_t magic = 0;
    uint16_t version = 0;
    uint16_t op = 0;
    uint64_t session_id = 0;
    uint32_t payload_size = 0;
};

/** One client-side interval observation, as sampled by a PMI
 *  handler: retired uops, memory bus transactions, timestamp. */
struct IntervalRecord
{
    double uops = 0.0;
    double bus_tran_mem = 0.0;
    uint64_t tsc = 0;

    /** Physically meaningful: positive finite uops, non-negative
     *  finite bus transactions. */
    bool valid() const;
};

constexpr size_t INTERVAL_RECORD_WIRE_SIZE = 24;

/** Per-interval service answer. */
struct IntervalResult
{
    PhaseId phase = INVALID_PHASE;          ///< classified phase
    PhaseId predicted_next = INVALID_PHASE; ///< next-phase prediction
    uint32_t dvfs_index = 0; ///< recommended operating-point index

    bool operator==(const IntervalResult &other) const = default;
};

constexpr size_t INTERVAL_RESULT_WIRE_SIZE = 12;

// The in-place decode/encode paths reinterpret the wire byte stream
// as arrays of these structs (and vice versa), which is only sound
// while their in-memory layout matches the documented wire layout
// field for field with no padding. Lock that down at compile time;
// a platform where any assert fails simply cannot build the fast
// path and must be ported (the copying fallback is selected at
// runtime for endianness, not layout).
static_assert(std::is_trivially_copyable_v<IntervalRecord>);
static_assert(sizeof(IntervalRecord) == INTERVAL_RECORD_WIRE_SIZE);
static_assert(offsetof(IntervalRecord, uops) == 0);
static_assert(offsetof(IntervalRecord, bus_tran_mem) == 8);
static_assert(offsetof(IntervalRecord, tsc) == 16);
static_assert(std::is_trivially_copyable_v<IntervalResult>);
static_assert(sizeof(PhaseId) == 4);
static_assert(sizeof(IntervalResult) == INTERVAL_RESULT_WIRE_SIZE);
static_assert(offsetof(IntervalResult, phase) == 0);
static_assert(offsetof(IntervalResult, predicted_next) == 4);
static_assert(offsetof(IntervalResult, dvfs_index) == 8);

/** True when record/result arrays can be memcpy'd (or aliased)
 *  to/from the wire without per-field byte shuffling. */
constexpr bool WIRE_LAYOUT_IS_NATIVE =
    std::endian::native == std::endian::little;

/**
 * Non-owning view of a decoded record batch. Points either into
 * the request frame itself (little-endian host, aligned payload)
 * or into the Arena the parse copied into; valid only until the
 * frame buffer is released or the arena reset — see DESIGN.md §14
 * for the holding rules.
 */
using RecordView = std::span<const IntervalRecord>;

/** Caller-provided result window a batch is computed into. */
using ResultSpan = std::span<IntervalResult>;

/**
 * Little-endian append-only byte builder used by all encoders.
 */
class ByteWriter
{
  public:
    void u8(uint8_t v);
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i32(int32_t v);
    void f64(double v);

    size_t size() const { return buf.size(); }

    /** Move the accumulated bytes out. */
    Bytes take() { return std::move(buf); }

  private:
    Bytes buf;
};

/**
 * Little-endian appender into a caller-owned buffer — the
 * encode-into twin of ByteWriter. Appends (never truncates), so an
 * encoder can build a frame directly inside a pooled/reused buffer
 * with zero intermediate allocations.
 */
class ByteAppender
{
  public:
    explicit ByteAppender(Bytes &out) : buf(out) {}

    void u8(uint8_t v);
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i32(int32_t v);
    void f64(double v);

    /** Raw byte append. */
    void bytes(ByteView view);

    size_t size() const { return buf.size(); }

  private:
    Bytes &buf;
};

/**
 * Bounds-checked little-endian reader; every accessor returns false
 * (leaving the output untouched) once the buffer is exhausted.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : cur(data), left(size)
    {
    }

    explicit ByteReader(const Bytes &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    explicit ByteReader(ByteView view)
        : ByteReader(view.data(), view.size())
    {
    }

    bool u8(uint8_t &v);
    bool u16(uint16_t &v);
    bool u32(uint32_t &v);
    bool u64(uint64_t &v);
    bool i32(int32_t &v);
    bool f64(double &v);

    /** Advance past n bytes; false (no movement) when fewer left. */
    bool skip(size_t n);

    size_t remaining() const { return left; }

    /** Current read position (for in-place aliasing). */
    const uint8_t *position() const { return cur; }

  private:
    bool grab(void *out, size_t n);

    const uint8_t *cur;
    size_t left;
};

// --- client-side request encoders --------------------------------
//
// Every encoder takes an optional trace context and tenant tag;
// either one present upgrades the frame to protocol v2 with the
// matching extension block, both absent (the defaults) emits
// byte-identical v1 frames.
//
// The *Into variants clear `out` and build the frame inside it, so
// a client looping on a reused buffer encodes with no allocation
// once the buffer's capacity has warmed up; the owning variants
// are one-line wrappers kept for tests and one-shot callers.

void encodeOpenRequestInto(Bytes &out, PredictorKind kind,
                           const TraceField &trace = {},
                           TenantTag tag = 0);
void encodeSubmitRequestInto(Bytes &out, uint64_t session_id,
                             RecordView records,
                             const TraceField &trace = {},
                             TenantTag tag = 0);
void encodeStatsRequestInto(Bytes &out, const TraceField &trace = {},
                            TenantTag tag = 0);
void encodeCloseRequestInto(Bytes &out, uint64_t session_id,
                            const TraceField &trace = {},
                            TenantTag tag = 0);
void encodeMetricsRequestInto(Bytes &out, uint16_t raw_format,
                              const TraceField &trace = {},
                              TenantTag tag = 0);

/** @param trace_id_filter 0 requests every retained trace. */
void encodeTracesRequestInto(Bytes &out, uint64_t trace_id_filter,
                             const TraceField &trace = {},
                             TenantTag tag = 0);

/** @param session_id 0 = fleet summary, nonzero = per-session. */
void encodePhasesRequestInto(Bytes &out, uint64_t session_id,
                             uint16_t raw_format,
                             const TraceField &trace = {},
                             TenantTag tag = 0);

/** @param raw_format 0 = folded stacks, 1 = JSONL. */
void encodeProfileRequestInto(Bytes &out, uint16_t raw_format,
                              const TraceField &trace = {},
                              TenantTag tag = 0);

Bytes encodeOpenRequest(PredictorKind kind,
                        const TraceField &trace = {},
                        TenantTag tag = 0);
Bytes encodeSubmitRequest(uint64_t session_id,
                          const std::vector<IntervalRecord> &records,
                          const TraceField &trace = {},
                          TenantTag tag = 0);
Bytes encodeStatsRequest(const TraceField &trace = {},
                         TenantTag tag = 0);
Bytes encodeCloseRequest(uint64_t session_id,
                         const TraceField &trace = {},
                         TenantTag tag = 0);
Bytes encodeMetricsRequest(uint16_t raw_format,
                           const TraceField &trace = {},
                           TenantTag tag = 0);
Bytes encodeTracesRequest(uint64_t trace_id_filter,
                          const TraceField &trace = {},
                          TenantTag tag = 0);
Bytes encodePhasesRequest(uint64_t session_id, uint16_t raw_format,
                          const TraceField &trace = {},
                          TenantTag tag = 0);
Bytes encodeProfileRequest(uint16_t raw_format,
                           const TraceField &trace = {},
                           TenantTag tag = 0);

// --- server-side request parsing ---------------------------------

/** A fully validated request frame (owning decode). */
struct ParsedRequest
{
    FrameHeader header{};
    TraceField trace{}; ///< v2 trace block (absent => zeros)
    TenantTag tenant_tag = 0; ///< v2 tag block (absent => untagged)
    PredictorKind predictor = PredictorKind::LastValue; ///< Open only
    std::vector<IntervalRecord> records; ///< SubmitBatch only
    uint16_t metrics_format = 0; ///< QueryMetrics/QueryPhases (raw)
    uint64_t traces_filter = 0;  ///< QueryTraces only (0 = all)
};

/**
 * A fully validated request frame decoded *in place*: `records`
 * aliases the frame buffer when the host layout matches the wire
 * (little-endian, suitably aligned payload) and otherwise aliases
 * a single copy made into the scratch Arena. Either way the view
 * is only valid while both the frame bytes and the arena contents
 * stay put — i.e. until the worker releases the frame lease or
 * resets its arena for the next request.
 */
struct RequestView
{
    FrameHeader header{};
    TraceField trace{};
    TenantTag tenant_tag = 0; ///< v2 tag block (absent => untagged)
    PredictorKind predictor = PredictorKind::LastValue; ///< Open only
    RecordView records{};        ///< SubmitBatch only
    uint16_t metrics_format = 0; ///< QueryMetrics/QueryPhases (raw)
    uint64_t traces_filter = 0;  ///< QueryTraces only (0 = all)
};

/**
 * Decode just the header (no magic/version validation) so error
 * responses can echo op and session id even for frames whose
 * payload is unreadable. nullopt when shorter than a header.
 */
std::optional<FrameHeader> peekHeader(const Bytes &frame);
std::optional<FrameHeader> peekHeader(const uint8_t *data, size_t size);

/**
 * Extract just the tenant tag from a request frame without a full
 * parse — the admission layer consults this *before* the frame is
 * enqueued, so it must be cheap (a header peek plus at most three
 * byte reads) and allocation-free. Returns 0 (untagged) for v1
 * frames, tagless extension blocks, and anything malformed; a bad
 * frame's real diagnosis is left to parseRequest on the worker.
 */
TenantTag peekTenantTag(ByteView frame);

/**
 * Validate and decode a request frame in one pass with no
 * allocation on the fast path. Returns Status::Ok and fills `out`
 * (record views per the RequestView lifetime rules), or
 * Status::BadFrame (magic/version/op/length violations). `scratch`
 * backs the copying fallback and record staging; the caller resets
 * it between requests.
 */
Status parseRequest(ByteView frame, Arena &scratch, RequestView &out);

/**
 * Owning decode: validates identically and copies the records into
 * `out.records`. Thin wrapper over the view parse, kept for tests
 * and cold paths.
 */
Status parseRequest(const Bytes &frame, ParsedRequest &out);

/** Test hook: force the big-endian/unaligned copying decode path
 *  even on hosts where the in-place alias would be legal, so the
 *  fallback is exercised everywhere CI runs. Returns the previous
 *  setting. Not for production use. */
bool setForceCopyDecodeForTest(bool on);

// --- server-side response encoders -------------------------------

/**
 * Build a response frame: header (echoed op/session) + u16 status +
 * `body`. `raw_op` is deliberately untyped so replies to unknown ops
 * can still echo what the client sent. `version` should echo the
 * request's revision (clamped into the supported range) so a v1
 * client never receives v2 bytes; the default emits our newest.
 * The Into variant clears `out` and encodes into it.
 */
void encodeResponseInto(Bytes &out, uint16_t raw_op,
                        uint64_t session_id, Status status,
                        ByteView body = {},
                        uint16_t version = PROTOCOL_VERSION);
Bytes encodeResponse(uint16_t raw_op, uint64_t session_id,
                     Status status, const Bytes &body = {},
                     uint16_t version = PROTOCOL_VERSION);

/**
 * Build a complete SubmitBatch OK response (header + status +
 * u32 count + results) in one pass into `out`, bulk-copying the
 * result array on little-endian hosts. The zero-allocation twin of
 * encodeResponse(op, sid, Ok, encodeSubmitResults(results)).
 */
void encodeSubmitResponseInto(Bytes &out, uint16_t raw_op,
                              uint64_t session_id,
                              std::span<const IntervalResult> results,
                              uint16_t version = PROTOCOL_VERSION);

/** u16 version advertisement a v2 server appends to its Open OK
 *  response body (v1 clients ignore trailing body bytes). */
Bytes encodeVersionAdvert();

/** Advertised version at the tail of an Open response body; 1 when
 *  absent (a v1 server), clamped to PROTOCOL_VERSION. */
uint16_t decodeVersionAdvert(ByteView body);

/**
 * RetryAfter/Throttled response body: u32 suggested retry-after in
 * milliseconds, derived from the live queue drain rate (RetryAfter)
 * or the tag's token deficit (Throttled). Encoded into `out`
 * (cleared) so the rejection path stays allocation-free on a
 * warmed buffer.
 */
void encodeRetryAdviceInto(Bytes &out, uint32_t retry_after_ms);

/** Retry advice from a RetryAfter/Throttled body; 0 when absent
 *  (a pre-QoS server sent an empty rejection body). */
uint32_t decodeRetryAfterMs(ByteView body);

/** SubmitBatch response body: u32 count + IntervalResults. */
Bytes encodeSubmitResults(const std::vector<IntervalResult> &results);

/** Patch the payload size of a response whose body was appended to
 *  `out` after encodeResponseInto(out, ..., {}) — for bodies encoded
 *  in place rather than staged first (the QueryStats body). */
void finishResponseInto(Bytes &out);

/** QueryMetrics response body: u32 length + UTF-8 text. */
Bytes encodeMetricsText(const std::string &text);

/**
 * Start an Ok QueryMetrics response in `out` (cleared, capacity
 * reused) whose text the caller then appends straight into `out`;
 * finishMetricsTextResponse() patches the text length and the
 * payload size. Same bytes as encodeResponseInto() over
 * encodeMetricsText(), without staging the text anywhere.
 */
void beginMetricsTextResponse(Bytes &out, uint16_t raw_op,
                              uint64_t session_id,
                              uint16_t version = PROTOCOL_VERSION);
void finishMetricsTextResponse(Bytes &out);

/** Decode a QueryMetrics response body; nullopt when malformed. */
std::optional<std::string> decodeMetricsText(ByteView body);

// --- client-side response parsing --------------------------------

/** A decoded response frame (owning copy of the body). */
struct ParsedResponse
{
    FrameHeader header{};
    Status status = Status::BadFrame;
    Bytes body; ///< op-specific remainder after the status field
};

/** A response frame decoded in place: `body` aliases the frame
 *  buffer and is valid only while those bytes stay put (until the
 *  client's next reuse of its rx buffer). */
struct ResponseView
{
    FrameHeader header{};
    Status status = Status::BadFrame;
    ByteView body{};
};

/** False when the frame is not a well-formed response. */
bool parseResponse(ByteView frame, ResponseView &out);
bool parseResponse(const Bytes &frame, ParsedResponse &out);

/** Decode a SubmitBatch response body; nullopt when malformed. */
std::optional<std::vector<IntervalResult>>
decodeSubmitResults(ByteView body);

/** Decode a SubmitBatch response body into a reused vector (its
 *  capacity survives across calls); false when malformed. */
bool decodeSubmitResultsInto(ByteView body,
                             std::vector<IntervalResult> &out);

} // namespace livephase::service

#endif // LIVEPHASE_SERVICE_PROTOCOL_HH

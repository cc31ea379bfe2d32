/**
 * @file
 * Service-level observability counters.
 *
 * The daemon is itself a measurement system, so its overhead must be
 * observable the way the paper observes everything else: counters.
 * ServiceCounters is the single thread-safe sink the service, the
 * session manager and the worker pool report into; a StatsSnapshot
 * is the immutable point-in-time copy that travels over the wire in
 * a QueryStats response and is rendered through the existing
 * table_writer.
 *
 * Per-op latency lives in the obs subsystem's log-bucketed
 * histogram (bounded memory, so a long-lived daemon never grows
 * without bound): count/mean/max are exact over the whole lifetime,
 * p50/p99 are read off the buckets with the bounded relative error
 * documented in obs/metrics.hh, one walk per histogram. The
 * StatsSnapshot fields and the QueryStats wire format are unchanged
 * from the sample-ring days.
 *
 * A query-metrics scrape does not go through StatsSnapshot: the
 * counters hand their `livephase_service_*` values and live latency
 * histograms to MetricsRegistry::view() as references (metricRefs),
 * which merges them by name into the registry's own entries.
 * ServiceCounters stays per service instance rather than moving into
 * the process-global registry: the simulator runs several services
 * in one process, and each must count only its own traffic.
 */

#ifndef LIVEPHASE_SERVICE_SERVICE_STATS_HH
#define LIVEPHASE_SERVICE_SERVICE_STATS_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>

#include "obs/metrics.hh"
#include "service/protocol.hh"

namespace livephase::service
{

/** Batch-size histogram buckets: 1, 2, 3-4, 5-8, ..., 257+. */
constexpr size_t BATCH_HIST_BUCKETS = 10;

/** Bucket index for a batch of `batch_size` intervals. */
size_t batchHistBucket(size_t batch_size);

/** Human label for a bucket ("1", "2", "3-4", ..., "257+"). */
std::string batchHistBucketLabel(size_t bucket);

/** Latency summary for one op. */
struct OpLatency
{
    uint64_t count = 0;
    double mean_us = 0.0;
    double p50_us = 0.0; ///< log-bucket estimate (obs/metrics.hh)
    double p99_us = 0.0; ///< log-bucket estimate (obs/metrics.hh)
    double max_us = 0.0;
};

/** Point-in-time copy of every service counter. */
struct StatsSnapshot
{
    uint64_t sessions_opened = 0;
    uint64_t sessions_closed = 0;
    uint64_t sessions_evicted_lru = 0;
    uint64_t sessions_expired_ttl = 0;
    uint64_t sessions_open = 0; ///< gauge at snapshot time

    uint64_t intervals_processed = 0;
    uint64_t batches_processed = 0;
    uint64_t rejected_queue_full = 0;
    uint64_t frames_malformed = 0;
    uint64_t queue_high_water = 0;

    std::array<uint64_t, BATCH_HIST_BUCKETS> batch_hist{};

    /** Indexed by raw Op value - 1 (Open..Close). */
    std::array<OpLatency, NUM_OPS> op_latency{};

    /** Render through table_writer (counters table, batch-size
     *  histogram, per-op latency table). */
    void print(std::ostream &os) const;

    /** Render as one JSON object (counters, batch_hist keyed by
     *  bucket label, op_latency keyed by op name). */
    void printJson(std::ostream &os) const;
};

/** Wire encoding of a snapshot (QueryStats response body). */
Bytes encodeStats(const StatsSnapshot &snap);

/** encodeStats appended to `out` (no allocation on a warm buffer). */
void encodeStatsInto(Bytes &out, const StatsSnapshot &snap);

/** Decode; nullopt when malformed. */
std::optional<StatsSnapshot> decodeStats(ByteView body);

/** Metrics a ServiceCounters contributes to a scrape: 8 counters,
 *  2 gauges and one latency histogram per op. */
constexpr size_t SERVICE_METRICS = 10 + NUM_OPS;

/**
 * Thread-safe counter sink shared by the service internals.
 */
class ServiceCounters
{
  public:
    void sessionOpened();
    void sessionClosed();
    void sessionEvicted();
    void sessionExpired();

    /** Record one processed batch of `intervals` intervals. */
    void batchProcessed(size_t intervals);

    void frameRejectedQueueFull();
    void frameMalformed();

    /** Sessions lost to LRU eviction + TTL expiry, cumulative —
     *  the admission controller's churn-storm signal (sampled at
     *  its tick cadence, so the mutex here is uncontended). */
    uint64_t evictionsTotal() const;

    /** Record one handled frame's latency. Raw op values outside
     *  Open..Close are ignored. */
    void opLatency(uint16_t raw_op, double micros);

    /**
     * Immutable copy of everything. The two gauges the counters
     * cannot know (open-session count, queue high-water mark) are
     * supplied by the caller.
     */
    StatsSnapshot snapshot(uint64_t sessions_open,
                           uint64_t queue_high_water) const;

    /**
     * This instance's counters, gauges and live latency histograms
     * under `livephase_service_*` names, sorted by name — the
     * `extra` argument of MetricsRegistry::view() on the
     * query-metrics path. The caller supplies the same two gauges
     * snapshot() does. The histogram pointers live as long as this
     * object.
     */
    std::array<obs::MetricRef, SERVICE_METRICS>
    metricRefs(uint64_t sessions_open,
               uint64_t queue_high_water) const;

    /** The live latency histogram of op `raw_op` (Open..Close). */
    const obs::Histogram &opLatencyHistogram(uint16_t raw_op) const
    {
        return ops[raw_op - 1];
    }

  private:
    mutable std::mutex mu;
    StatsSnapshot totals; ///< latency fields unused; filled on demand
    /** Lock-free per-op latency; the mutex above only guards
     *  `totals`. */
    std::array<obs::Histogram, NUM_OPS> ops;
};

} // namespace livephase::service

#endif // LIVEPHASE_SERVICE_SERVICE_STATS_HH

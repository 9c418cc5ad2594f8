/**
 * @file
 * Measurement arithmetic of the benchmark, kept free of I/O so the
 * self-tests (perfbench/tests) can pin it down:
 *
 *   - the highest-supported-percentile rule for latency reporting;
 *   - open-loop due-time and lateness accounting;
 *   - span self time (duration minus the union of child intervals);
 *   - counter-snapshot diffing of the service and server stats.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/multi_archive.hh"
#include "net/server.hh"

namespace perfbench {

// ---------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------

/** A reported percentile needs at least this many samples beyond it. */
constexpr uint64_t kMinSamplesBeyond = 10;

/** 1-based nearest rank of percentile @p pct among @p n samples. */
inline uint64_t
nearestRank(double pct, uint64_t n)
{
    if (n == 0)
        return 0;
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
    return std::clamp<uint64_t>(static_cast<uint64_t>(rank), 1, n);
}

/** Samples strictly beyond the nearest-rank @p pct percentile. */
inline uint64_t
samplesBeyond(double pct, uint64_t n)
{
    return n - nearestRank(pct, n);
}

/**
 * The tail percentile a run of @p n samples supports: the highest of
 * p99, p90 and p50 with at least kMinSamplesBeyond samples beyond it,
 * or 0 when even the median has too few (n < 20). p99 needs n >= 1000.
 */
inline double
supportedTailPercentile(uint64_t n)
{
    for (double pct : {99.0, 90.0, 50.0}) {
        if (samplesBeyond(pct, n) >= kMinSamplesBeyond)
            return pct;
    }
    return 0.0;
}

/** Nearest-rank percentile of ascending @p sorted (0 when empty). */
inline double
percentileOfSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRank(pct, sorted.size()) - 1];
}

/** Median plus the supported tail of one latency sample set. */
struct LatencySummary
{
    uint64_t samples = 0;
    double p50 = 0.0;
    /** Which percentile @ref tail is (99, 90, 50, or 0 = none). */
    double tailPercentile = 0.0;
    double tail = 0.0;
};

inline LatencySummary
summarizeLatencies(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    LatencySummary summary;
    summary.samples = values.size();
    summary.p50 = percentileOfSorted(values, 50.0);
    summary.tailPercentile = supportedTailPercentile(values.size());
    summary.tail = percentileOfSorted(values, summary.tailPercentile);
    return summary;
}

/** Median of @p values (0 when empty). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : (values[mid - 1] + values[mid]) / 2;
}

// ---------------------------------------------------------------------
// Time slices
// ---------------------------------------------------------------------

/** One completed operation: its interval and the payload it moved. */
struct Completion
{
    double start = 0.0;
    double end = 0.0;
    uint64_t payload = 0;
};

/**
 * Payload moved in each of @p count slices of @p slice seconds from
 * @p start: every completion's payload is spread evenly over its
 * interval, so a long operation straddling a boundary is split rather
 * than credited whole to the slice it ends in.
 */
inline std::vector<double>
slicePayload(const std::vector<Completion> &completions, double start,
             double slice, size_t count)
{
    std::vector<double> out(count, 0.0);
    for (const Completion &c : completions) {
        const double length = c.end - c.start;
        for (size_t k = 0; k < count; k++) {
            const double lo = start + slice * double(k);
            const double hi = lo + slice;
            if (length <= 0.0) {
                if (c.end >= lo && c.end < hi)
                    out[k] += double(c.payload);
                continue;
            }
            const double overlap =
                std::min(hi, c.end) - std::max(lo, c.start);
            if (overlap > 0.0)
                out[k] += double(c.payload) * overlap / length;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Open-loop accounting
// ---------------------------------------------------------------------

/**
 * A fixed-rate arrival schedule: request i is due at
 * start + i / rate. Requests are timed from their due time, so a stall
 * that delays later sends is charged to those requests too.
 */
struct OpenLoopSchedule
{
    double start = 0.0;         ///< Seconds on the benchmark clock.
    double ratePerSecond = 1.0;

    double
    dueAt(uint64_t index) const
    {
        return start + static_cast<double>(index) / ratePerSecond;
    }
};

/** Timestamps of one open-loop request. */
struct OpenLoopRecord
{
    double due = 0.0;
    double sent = 0.0;
    double done = 0.0;
    bool ok = true;
};

/** Aggregate of open-loop records against a latency limit. */
struct OpenLoopTally
{
    double latencyLimitSeconds = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t sloMisses = 0;
    std::vector<double> latencies;  ///< done - due, successful only.
    std::vector<double> lags;       ///< sent - due (how late we ran).

    void
    add(const OpenLoopRecord &record)
    {
        attempted++;
        lags.push_back(std::max(0.0, record.sent - record.due));
        if (!record.ok) {
            // A failed or refused request misses any latency limit.
            failed++;
            sloMisses++;
            return;
        }
        const double latency = record.done - record.due;
        latencies.push_back(latency);
        if (latency > latencyLimitSeconds)
            sloMisses++;
    }
};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** One traced interval. Spans of one request share @ref requestId. */
struct Span
{
    const char *name = "";
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root.
    uint64_t requestId = 0;
    double start = 0.0;
    double end = 0.0;

    double duration() const { return end - start; }
};

/** Length of the union of @p intervals clipped to [lo, hi]. */
inline double
coveredLength(std::vector<std::pair<double, double>> intervals,
              double lo, double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cursor = lo;
    for (auto [a, b] : intervals) {
        a = std::max(a, cursor);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            cursor = b;
        }
    }
    return covered;
}

/**
 * Self time per span name: each span's duration minus the part of its
 * interval that its children cover (overlapping children count once).
 */
inline std::map<std::string, double>
selfTimesByName(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span &span : spans) {
        if (span.parent != 0)
            children[span.parent].emplace_back(span.start, span.end);
    }
    std::map<std::string, double> self;
    for (const Span &span : spans) {
        double covered = 0.0;
        auto it = children.find(span.id);
        if (it != children.end())
            covered = coveredLength(it->second, span.start, span.end);
        self[span.name] += span.duration() - covered;
    }
    return self;
}

// ---------------------------------------------------------------------
// Counter snapshots
// ---------------------------------------------------------------------

/**
 * Window delta of two MultiArchiveService::stats() snapshots:
 * monotone counters are subtracted, gauges (open archives, queue
 * depth, reserved bytes, budgets) keep the later value.
 */
inline sage::MultiArchiveStats
diffStats(const sage::MultiArchiveStats &before,
          const sage::MultiArchiveStats &after)
{
    sage::MultiArchiveStats d = after;
    d.opens = after.opens - before.opens;
    d.reopens = after.reopens - before.reopens;
    d.evictions = after.evictions - before.evictions;
    d.closes = after.closes - before.closes;
    d.admitted = after.admitted - before.admitted;
    d.overloaded = after.overloaded - before.overloaded;
    d.requests = after.requests - before.requests;
    d.readsServed = after.readsServed - before.readsServed;
    d.bytesServed = after.bytesServed - before.bytesServed;
    d.expired = after.expired - before.expired;
    d.cancelled = after.cancelled - before.cancelled;
    d.errored = after.errored - before.errored;
    return d;
}

/** Window delta of two Server::netStats() snapshots (the connection
 *  gauge keeps the later value). */
inline sage::net::ServerNetStats
diffStats(const sage::net::ServerNetStats &before,
          const sage::net::ServerNetStats &after)
{
    sage::net::ServerNetStats d = after;
    d.accepted = after.accepted - before.accepted;
    d.closed = after.closed - before.closed;
    d.framesIn = after.framesIn - before.framesIn;
    d.repliesOut = after.repliesOut - before.repliesOut;
    d.protocolErrors = after.protocolErrors - before.protocolErrors;
    d.bytesIn = after.bytesIn - before.bytesIn;
    d.bytesOut = after.bytesOut - before.bytesOut;
    d.txPauses = after.txPauses - before.txPauses;
    d.timedOutConnections =
        after.timedOutConnections - before.timedOutConnections;
    d.shedConnections = after.shedConnections - before.shedConnections;
    d.crcMismatches = after.crcMismatches - before.crcMismatches;
    d.versionMismatches =
        after.versionMismatches - before.versionMismatches;
    d.drainRejects = after.drainRejects - before.drainRejects;
    return d;
}

/** Window delta of two cache snapshots (resident/ghost gauges keep
 *  the later value). */
inline sage::ChunkCacheStats
diffStats(const sage::ChunkCacheStats &before,
          const sage::ChunkCacheStats &after)
{
    sage::ChunkCacheStats d = after;
    d.hits = after.hits - before.hits;
    d.misses = after.misses - before.misses;
    d.evictions = after.evictions - before.evictions;
    d.inserts = after.inserts - before.inserts;
    d.coalescedWaits = after.coalescedWaits - before.coalescedWaits;
    d.abandonedWaits = after.abandonedWaits - before.abandonedWaits;
    d.ghostHits = after.ghostHits - before.ghostHits;
    d.oversizedRejects = after.oversizedRejects - before.oversizedRejects;
    d.decodeErrors = after.decodeErrors - before.decodeErrors;
    return d;
}

/** Cache counters summed over several services (the replay's). */
inline sage::ChunkCacheStats &
accumulate(sage::ChunkCacheStats &into, const sage::ChunkCacheStats &add)
{
    into.hits += add.hits;
    into.misses += add.misses;
    into.evictions += add.evictions;
    into.inserts += add.inserts;
    into.coalescedWaits += add.coalescedWaits;
    into.abandonedWaits += add.abandonedWaits;
    into.ghostHits += add.ghostHits;
    into.oversizedRejects += add.oversizedRejects;
    into.decodeErrors += add.decodeErrors;
    into.residentBytes += add.residentBytes;
    into.residentChunks += add.residentChunks;
    into.ghostChunks += add.ghostChunks;
    return into;
}

/** Hits over every lookup, coalesced waits counted as lookups but not
 *  as hits (ChunkCacheStats::hitRate() counts them as hits). */
inline double
retentionHitRatio(const sage::ChunkCacheStats &cache)
{
    const uint64_t lookups =
        cache.hits + cache.misses + cache.coalescedWaits;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache.hits) /
            static_cast<double>(lookups);
}

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH

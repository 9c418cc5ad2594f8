/**
 * @file
 * remote-stream and remote-lookup: an in-process net::Server over a
 * MultiArchiveService, driven through net::Client connections.
 *
 *   remote-stream: closed loop, one thread per connection, each
 *   streaming whole archives in 1024-read READ_RANGE batches from a
 *   corpus that fits the cache budget and is warmed before timing.
 *
 *   remote-lookup: open loop at a fixed offered rate. Requests are
 *   Zipf-skewed 32-read READ_RANGEs over more short-read archives than
 *   maxOpenArchives, whose decoded size is >= 8x the cache budget; each
 *   is timed from its due time.
 *
 * Counters come from diffs of MultiArchiveService::stats() and
 * Server::netStats() over the window. The cache counters, which
 * MultiArchiveService does not expose, come from a serial replay of
 * the recorded request stream through per-archive SageArchiveService
 * instances with the same partition budget and open-archive LRU.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <list>
#include <thread>

#include "net/client.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "probes.hh"
#include "trace.hh"
#include "util/crc32.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

/** Offered rate and latency limit of remote-lookup. */
constexpr double kLookupRatePerSecond = 300.0;
constexpr double kLookupLatencyLimitSeconds = 0.050;
constexpr uint64_t kLookupReads = 32;
constexpr double kArchiveZipfExponent = 2.0;
constexpr double kSlotZipfExponent = 0.99;
constexpr uint64_t kLookupWarmRequests = 300;
constexpr uint64_t kStreamReads = 1024;
/** Replies replayed through the protocol encoder/parser. */
constexpr size_t kProtocolReplaySamples = 256;
constexpr int kMaxAttempts = 50;

/** One request as sent: what the replays re-issue. */
struct RequestRecord
{
    double sent = 0.0;
    uint32_t archive = 0;  ///< Index into the corpus.
    uint64_t first = 0;
    uint64_t count = 0;
};

/** One connection thread's window tallies. */
struct ThreadTally
{
    std::vector<double> latencies;
    std::vector<Completion> completions;
    OpenLoopTally open;
    uint64_t payload = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t retries = 0;
    double verifySeconds = 0.0;
    double requestSeconds = 0.0;
    std::vector<RequestRecord> records;
};

/** splitmix64: a small seeded generator for the request stream. */
struct SplitMix
{
    uint64_t state;

    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    double unit() { return double(next() >> 11) * 0x1.0p-53; }
};

/** Zipf(s) over ranks 0..n-1, drawn from a uniform in [0, 1). */
class ZipfTable
{
  public:
    ZipfTable(size_t n, double exponent) : cdf_(n)
    {
        double total = 0.0;
        for (size_t r = 0; r < n; r++) {
            total += 1.0 / std::pow(double(r + 1), exponent);
            cdf_[r] = total;
        }
        for (double &c : cdf_)
            c /= total;
    }

    size_t
    draw(double unit) const
    {
        const size_t r =
            std::upper_bound(cdf_.begin(), cdf_.end(), unit) - cdf_.begin();
        return std::min(r, cdf_.size() - 1);
    }

  private:
    std::vector<double> cdf_;
};

struct RemoteConfig
{
    std::vector<SetSpec> specs;
    sage::MultiArchiveOptions service;
    bool openLoop = false;
};

class Remote final : public Workload
{
  public:
    Remote(const Options &options, RemoteConfig config)
        : options_(options), config_(std::move(config))
    {
        const std::string dir = options.workDir;
        for (const SetSpec &spec : config_.specs) {
            archives_.emplace_back();
            if (!buildArchive(spec, dir, setupEncode_, setupDecode_,
                              archives_.back()))
                correct_ = false;
        }
        config_.service.ownedPoolThreads = options.clients;
        service_ = std::make_unique<sage::MultiArchiveService>(
            dir, config_.service);
        for (const BuiltArchive &archive : archives_) {
            auto meta = service_->open(archive.name);
            ids_.push_back(meta.ok() ? meta->id : 0);
            if (!meta.ok())
                correct_ = false;
        }
        server_ = std::make_unique<sage::net::Server>(*service_);
        if (!server_->start().ok()) {
            std::fprintf(stderr, "perfbench: server failed to start\n");
            std::exit(1);
        }
        for (unsigned c = 0; c < options.clients; c++)
            clients_.push_back(connect());
        if (config_.openLoop)
            buildLookupStream();
        warmUp();
    }

    ~Remote() override
    {
        clients_.clear();
        if (server_)
            server_->stop();
    }

    WindowResult
    runWindow(double seconds) override
    {
        const unsigned threads = options_.clients;
        std::vector<ThreadTally> tallies(threads);
        std::atomic<bool> sampling{trace::enabled()};
        std::vector<uint64_t> depths;
        std::thread sampler;
        statsBefore_ = service_->stats();
        netBefore_ = server_->netStats();
        WindowResult window = measureWindow(seconds, [&](WindowResult &w) {
            if (sampling.load())
                sampler = std::thread([&] {
                    while (sampling.load()) {
                        depths.push_back(service_->queueDepth());
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                });
            const double start = now();
            const double end = start + seconds;
            schedule_ = OpenLoopSchedule{start, kLookupRatePerSecond};
            scheduleBase_ = cursor_;
            std::atomic<uint64_t> next{0};
            std::vector<std::thread> fleet;
            for (unsigned t = 0; t < threads; t++) {
                fleet.emplace_back([&, t] {
                    if (config_.openLoop)
                        lookupThread(t, end, next, tallies[t]);
                    else
                        streamThread(t, end, tallies[t]);
                });
            }
            for (auto &thread : fleet)
                thread.join();
            sampling.store(false);
            if (sampler.joinable())
                sampler.join();
            for (ThreadTally &tally : tallies) {
                w.payload += tally.payload;
                w.completions.insert(w.completions.end(),
                                     tally.completions.begin(),
                                     tally.completions.end());
                w.attempted += tally.attempted;
                w.failed += tally.failed;
                if (config_.openLoop) {
                    w.latencies.insert(w.latencies.end(),
                                       tally.open.latencies.begin(),
                                       tally.open.latencies.end());
                    w.sloMisses += tally.open.sloMisses;
                } else {
                    w.latencies.insert(w.latencies.end(),
                                       tally.latencies.begin(),
                                       tally.latencies.end());
                }
            }
            cursor_ = scheduleBase_ + next.load();
        });
        window.threadSeconds = window.wall * threads;
        window.openLoop = config_.openLoop;
        window.latencyLimitSeconds = kLookupLatencyLimitSeconds;
        if (window.failed != 0)
            correct_ = false;

        lastTallies_ = std::move(tallies);
        lastDepths_ = std::move(depths);
        statsAfter_ = service_->stats();
        netAfter_ = server_->netStats();
        return window;
    }

    void
    layers(const WindowResult &window, LayerMetrics &out) override
    {
        encoderLayers(setupEncode_, out);
        decoderLayers(setupDecode_, out);

        std::vector<RequestRecord> records;
        double verify = 0.0, request = 0.0;
        uint64_t retries = 0;
        std::vector<double> lags;
        for (const ThreadTally &tally : lastTallies_) {
            records.insert(records.end(), tally.records.begin(),
                           tally.records.end());
            verify += tally.verifySeconds;
            request += tally.requestSeconds;
            retries += tally.retries;
            lags.insert(lags.end(), tally.open.lags.begin(),
                        tally.open.lags.end());
        }
        std::sort(records.begin(), records.end(),
                  [](const RequestRecord &a, const RequestRecord &b) {
                      return a.sent < b.sent;
                  });

        // Cache and service time: serial replay of the same stream.
        const Replay replayed = replayThroughServices(records);
        const sage::ChunkCacheStats &cache = replayed.cache;
        setLayer(out, "cache.hits", double(cache.hits));
        setLayer(out, "cache.misses", double(cache.misses));
        setLayer(out, "cache.coalesced_waits", double(cache.coalescedWaits));
        setLayer(out, "cache.evictions", double(cache.evictions));
        setLayer(out, "cache.ghost_hits", double(cache.ghostHits));
        setLayer(out, "cache.resident_bytes", double(cache.residentBytes));
        setLayer(out, "cache.retention_hit_ratio", retentionHitRatio(cache));
        setLayer(out, "cache.decodes_per_request",
                 records.empty()
                     ? 0.0
                     : double(cache.misses) / double(records.size()));
        setLayer(out, "service.read_s", replayed.readSeconds,
                 "serial replay of the window's requests");

        double depthSum = 0.0, depthMax = 0.0;
        for (uint64_t d : lastDepths_) {
            depthSum += double(d);
            depthMax = std::max(depthMax, double(d));
        }
        const double depthMean =
            lastDepths_.empty() ? 0.0 : depthSum / lastDepths_.size();
        setLayer(out, "service.queue_depth_mean", depthMean);
        setLayer(out, "service.queue_depth_max", depthMax);
        const sage::MultiArchiveStats stats =
            diffStats(statsBefore_, statsAfter_);
        const double arrivals = double(stats.admitted) / window.wall;
        setLayer(out, "service.queue_wait_ms_est",
                 arrivals == 0.0 ? 0.0 : depthMean / arrivals * 1e3,
                 "Little's law: mean depth / admitted rate");
        setLayer(out, "archives.opens", double(stats.opens));
        setLayer(out, "archives.reopens", double(stats.reopens));
        setLayer(out, "archives.evictions", double(stats.evictions));
        setLayer(out, "archives.overloaded", double(stats.overloaded));

        const sage::net::ServerNetStats net =
            diffStats(netBefore_, netAfter_);
        setLayer(out, "server.frames_in", double(net.framesIn));
        setLayer(out, "server.replies_out", double(net.repliesOut));
        setLayer(out, "server.bytes_out", double(net.bytesOut));
        setLayer(out, "server.tx_pauses", double(net.txPauses));
        setLayer(out, "server.protocol_errors", double(net.protocolErrors));

        const ProtocolCost wire = replayProtocol(records);
        const double replies = double(net.repliesOut);
        const double encode = wire.encodePerReply * replies;
        const double parse = wire.parsePerReply * replies;
        setLayer(out, "protocol.encode_s", encode,
                 "appendReadReply replayed on sampled replies");
        setLayer(out, "protocol.parse_s", parse,
                 "verifyFrame + header + payload parse, replayed");
        setLayer(out, "protocol.crc_s", wire.crcPerReply * replies,
                 "Crc32 over replayed frame bodies");
        setLayer(out, "protocol.bytes_per_payload_byte",
                 window.payload == 0
                     ? 0.0
                     : double(net.bytesOut) / double(window.payload));

        setLayer(out, "client.request_s", request);
        setLayer(out, "client.overloaded_retries", double(retries));
        setLayer(out, "net.transport_residual_s",
                 request - replayed.readSeconds - encode - parse,
                 "request spans - service - encode - parse");
        if (!config_.openLoop)
            setLayer(out, "stream.inproc_payload_mbps",
                     inprocStreamMbps(std::min(2.0, window.wall / 2)),
                     "same fleet calling readRangeSync directly");
        if (config_.openLoop) {
            const LatencySummary lag = summarizeLatencies(lags);
            setLayer(out, "loadgen.lag_p99_ms", lag.tail * 1e3,
                     "p" + std::to_string(int(lag.tailPercentile)) +
                         " of generator lateness");
        }
        setLayer(out, "loadgen.verify_s", verify,
                 "digest check of every delivered read");
    }

    double
    compressionRatio() const override
    {
        uint64_t fastq = 0, archive = 0;
        for (const BuiltArchive &a : archives_) {
            fastq += a.fastqBytes;
            archive += a.archiveBytes;
        }
        return double(fastq) / double(archive);
    }

    /** Decoded corpus bytes as the chunk cache charges them. */
    uint64_t
    decodedBytes() const
    {
        uint64_t total = 0;
        for (const BuiltArchive &a : archives_)
            total += a.payloadBytes + a.readCount * sizeof(sage::Read);
        return total;
    }

  private:
    struct ProtocolCost
    {
        double encodePerReply = 0.0;
        double parsePerReply = 0.0;
        double crcPerReply = 0.0;
    };

    struct Replay
    {
        sage::ChunkCacheStats cache;
        double readSeconds = 0.0;
    };

    std::unique_ptr<sage::net::Client>
    connect()
    {
        auto client =
            sage::net::Client::connect("127.0.0.1", server_->port());
        if (!client.ok()) {
            std::fprintf(stderr, "perfbench: connect failed: %s\n",
                         client.status().toString().c_str());
            return nullptr;
        }
        return std::move(client.value());
    }

    uint64_t
    rangePayload(const BuiltArchive &archive, uint64_t first,
                 uint64_t count) const
    {
        return archive.payloadPrefix[first + count] -
            archive.payloadPrefix[first];
    }

    /**
     * READ_RANGE with Overloaded retries, digest check and spans.
     * Returns false on any failure (transport, non-Ok status after
     * retries, wrong bytes).
     */
    bool
    readRange(unsigned t, const RequestRecord &record, uint64_t id,
              ThreadTally &tally)
    {
        const BuiltArchive &archive = archives_[record.archive];
        for (int attempt = 0; attempt < kMaxAttempts; attempt++) {
            if (!clients_[t] || clients_[t]->broken())
                clients_[t] = connect();
            if (!clients_[t])
                return false;
            sage::StatusOr<sage::net::ReadReply> reply =
                sage::Status::ioError("unsent");
            const double start = now();
            {
                ScopedSpan span("client.request", id);
                reply = clients_[t]->readRange(ids_[record.archive],
                                               record.first, record.count);
            }
            tally.requestSeconds += now() - start;
            if (!reply.ok())
                return false;
            if (reply->status == sage::net::WireStatus::Overloaded) {
                tally.retries++;
                std::this_thread::sleep_for(std::chrono::microseconds(500));
                continue;
            }
            if (!reply->ok() || reply->reads.size() != record.count)
                return false;
            const double verifyStart = now();
            ScopedSpan verify("loadgen.verify");
            const bool same =
                countMismatches(archive, record.first, reply->reads) == 0;
            tally.verifySeconds += now() - verifyStart;
            return same;
        }
        return false;
    }

    void
    streamThread(unsigned t, double end, ThreadTally &tally)
    {
        uint32_t a = streamArchive_[t];
        uint64_t position = streamPosition_[t];
        uint64_t id = uint64_t(t) << 40;
        while (now() < end) {
            const BuiltArchive &archive = archives_[a];
            RequestRecord record;
            record.sent = now();
            record.archive = a;
            record.first = position;
            record.count = std::min(kStreamReads,
                                    archive.readCount - position);
            const bool ok = readRange(t, record, ++id, tally);
            const double done = now();
            tally.latencies.push_back(done - record.sent);
            tally.attempted++;
            if (ok) {
                const uint64_t payload =
                    rangePayload(archive, record.first, record.count);
                tally.payload += payload;
                tally.completions.push_back({record.sent, done, payload});
            } else {
                tally.failed++;
            }
            tally.records.push_back(record);
            position += record.count;
            if (position == archive.readCount) {
                position = 0;
                a = (a + 1) % archives_.size();
            }
        }
        streamArchive_[t] = a;
        streamPosition_[t] = position;
    }

    void
    lookupThread(unsigned t, double end, std::atomic<uint64_t> &next,
                 ThreadTally &tally)
    {
        tally.open.latencyLimitSeconds = kLookupLatencyLimitSeconds;
        while (true) {
            const uint64_t i = next.fetch_add(1);
            const double due = schedule_.dueAt(i);
            if (due >= end || scheduleBase_ + i >= lookups_.size())
                break;
            {
                ScopedSpan wait("loadgen.wait");
                const double ahead = due - now();
                if (ahead > 0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(ahead));
            }
            RequestRecord record = lookups_[scheduleBase_ + i];
            OpenLoopRecord timing;
            timing.due = due;
            timing.sent = now();
            record.sent = timing.sent;
            timing.ok = readRange(t, record, scheduleBase_ + i + 1, tally);
            timing.done = now();
            tally.open.add(timing);
            tally.attempted++;
            if (timing.ok) {
                const uint64_t payload = rangePayload(
                    archives_[record.archive], record.first, record.count);
                tally.payload += payload;
                tally.completions.push_back(
                    {timing.sent, timing.done, payload});
            } else {
                tally.failed++;
            }
            tally.records.push_back(record);
        }
    }

    /** The whole seeded request stream (warm-up prefix included): an
     *  archive by Zipf rank, then a 32-read slot inside it by Zipf rank,
     *  both ranks mapped through seeded shuffles. */
    void
    buildLookupStream()
    {
        SplitMix rng{options_.seed * 0x9e3779b97f4a7c15ull + 17};
        auto shuffled = [&rng](size_t n) {
            std::vector<uint64_t> order(n);
            for (size_t i = 0; i < n; i++)
                order[i] = i;
            for (size_t i = n; i > 1; i--)
                std::swap(order[i - 1], order[rng.next() % i]);
            return order;
        };
        const std::vector<uint64_t> archiveOrder =
            shuffled(archives_.size());
        const ZipfTable archiveRank(archives_.size(), kArchiveZipfExponent);
        std::vector<std::vector<uint64_t>> slotOrder;
        std::vector<ZipfTable> slotRank;
        for (const BuiltArchive &archive : archives_) {
            const size_t slots = archive.readCount / kLookupReads;
            slotOrder.push_back(shuffled(slots));
            slotRank.emplace_back(slots, kSlotZipfExponent);
        }
        const uint64_t count = kLookupWarmRequests +
            uint64_t(kLookupRatePerSecond * (options_.seconds + 2.0));
        for (uint64_t i = 0; i < count; i++) {
            const uint64_t a = archiveOrder[archiveRank.draw(rng.unit())];
            const uint64_t slot = slotOrder[a][slotRank[a].draw(rng.unit())];
            lookups_.push_back({0.0, uint32_t(a), slot * kLookupReads,
                                kLookupReads});
        }
    }

    /** Fill the caches before timing; the replay re-issues the same
     *  warm-up so its caches start in the same state. */
    void
    warmUp()
    {
        ThreadTally tally;
        if (config_.openLoop) {
            for (uint64_t i = 0; i < kLookupWarmRequests; i++)
                warm_.push_back(lookups_[i]);
            cursor_ = kLookupWarmRequests;
        } else {
            for (uint32_t a = 0; a < archives_.size(); a++) {
                for (uint64_t f = 0; f < archives_[a].readCount;
                     f += kStreamReads)
                    warm_.push_back({0.0, a, f,
                                     std::min(kStreamReads,
                                              archives_[a].readCount - f)});
            }
            streamArchive_.resize(options_.clients);
            streamPosition_.assign(options_.clients, 0);
            for (unsigned t = 0; t < options_.clients; t++)
                streamArchive_[t] = t % archives_.size();
        }
        for (size_t i = 0; i < warm_.size(); i++) {
            if (!readRange(unsigned(i % options_.clients), warm_[i], i + 1,
                           tally))
                correct_ = false;
        }
    }

    Replay
    replayThroughServices(const std::vector<RequestRecord> &window) const
    {
        sage::ServiceOptions options;
        options.cacheBudgetBytes = service_->partitionBytes();
        options.cacheShards = config_.service.cacheShards;
        options.ownedPoolThreads = 1;
        options.sessionReadahead = false;
        // Open-archive LRU as in MultiArchiveService: an evicted
        // archive loses its cache partition.
        std::list<std::pair<uint32_t,
                            std::unique_ptr<sage::SageArchiveService>>>
            open;
        sage::ChunkCacheStats retired;
        auto serviceFor = [&](uint32_t a) -> sage::SageArchiveService & {
            for (auto it = open.begin(); it != open.end(); ++it) {
                if (it->first == a) {
                    open.splice(open.begin(), open, it);
                    return *open.front().second;
                }
            }
            if (open.size() >= config_.service.maxOpenArchives) {
                accumulate(retired, open.back().second->stats().cache);
                open.pop_back();
            }
            open.emplace_front(a, std::make_unique<sage::SageArchiveService>(
                                      archives_[a].path, options));
            return *open.front().second;
        };
        auto snapshot = [&] {
            sage::ChunkCacheStats sum = retired;
            sage::ChunkCacheStats live;
            for (const auto &entry : open)
                accumulate(live, entry.second->stats().cache);
            accumulate(sum, live);
            sum.residentBytes = live.residentBytes;
            return sum;
        };
        for (const RequestRecord &r : warm_)
            serviceFor(r.archive).readRange(r.first, r.count);
        const sage::ChunkCacheStats before = snapshot();
        Replay replay;
        for (const RequestRecord &r : window) {
            // Timed with the (re)open, as MultiArchiveService pays it.
            const double start = now();
            serviceFor(r.archive).readRange(r.first, r.count);
            replay.readSeconds += now() - start;
        }
        replay.cache = diffStats(before, snapshot());
        return replay;
    }

    ProtocolCost
    replayProtocol(const std::vector<RequestRecord> &window)
    {
        ProtocolCost cost;
        if (window.empty())
            return cost;
        SplitMix rng{options_.seed + 99};
        double encode = 0.0, parse = 0.0, crc = 0.0;
        size_t samples = std::min(kProtocolReplaySamples, window.size());
        for (size_t s = 0; s < samples; s++) {
            const RequestRecord &r = window[rng.next() % window.size()];
            auto outcome =
                service_->readRangeSync(ids_[r.archive], r.first, r.count);
            if (!outcome.result.ok()) {
                correct_ = false;
                continue;
            }
            std::vector<uint8_t> frame;
            double start = now();
            sage::net::appendReadReply(frame, sage::net::MsgType::ReadRange,
                                       s + 1, outcome.result.reads);
            encode += now() - start;

            const uint8_t *body = frame.data() + sage::net::kLenBytes;
            const size_t size = frame.size() - sage::net::kLenBytes;
            start = now();
            keep(sage::Crc32::of(body, size - sage::net::kFrameCrcBytes));
            crc += now() - start;

            start = now();
            size_t bodySize = 0;
            bool ok = sage::net::verifyFrame(body, size, &bodySize) ==
                sage::net::FrameVerdict::Ok;
            auto header = sage::net::parseReplyHeader(body, bodySize);
            auto reads = sage::net::parseReadReplyPayload(
                body + sage::net::kReplyHeaderBytes,
                bodySize - sage::net::kReplyHeaderBytes);
            parse += now() - start;
            ok = ok && header.ok() && reads.ok() &&
                countMismatches(archives_[r.archive], r.first, *reads) == 0;
            if (!ok)
                correct_ = false;
        }
        cost.encodePerReply = encode / samples;
        cost.parsePerReply = parse / samples;
        cost.crcPerReply = crc / samples;
        return cost;
    }

    /** The stream fleet calling readRangeSync in-process (no wire). */
    double
    inprocStreamMbps(double seconds)
    {
        std::atomic<uint64_t> payload{0};
        std::atomic<bool> bad{false};
        const double start = now();
        const double end = start + seconds;
        std::vector<std::thread> fleet;
        for (unsigned t = 0; t < options_.clients; t++) {
            fleet.emplace_back([&, t] {
                uint32_t a = t % archives_.size();
                uint64_t position = 0;
                while (now() < end) {
                    const BuiltArchive &archive = archives_[a];
                    const uint64_t count =
                        std::min(kStreamReads, archive.readCount - position);
                    auto outcome =
                        service_->readRangeSync(ids_[a], position, count);
                    if (!outcome.result.ok() ||
                        countMismatches(archive, position,
                                        outcome.result.reads) != 0)
                        bad.store(true);
                    payload.fetch_add(rangePayload(archive, position, count));
                    position += count;
                    if (position == archive.readCount) {
                        position = 0;
                        a = (a + 1) % archives_.size();
                    }
                }
            });
        }
        for (auto &thread : fleet)
            thread.join();
        if (bad.load())
            correct_ = false;
        return double(payload.load()) / 1e6 / (now() - start);
    }

    Options options_;
    RemoteConfig config_;
    std::vector<BuiltArchive> archives_;
    EncodeLedger setupEncode_;
    DecodeLedger setupDecode_;
    std::vector<uint32_t> ids_;
    // Destroyed bottom-up: clients, then the server, then the service.
    std::unique_ptr<sage::MultiArchiveService> service_;
    std::unique_ptr<sage::net::Server> server_;
    std::vector<std::unique_ptr<sage::net::Client>> clients_;

    std::vector<RequestRecord> warm_;
    std::vector<RequestRecord> lookups_;
    uint64_t cursor_ = 0;        ///< Next unused lookup request.
    uint64_t scheduleBase_ = 0;  ///< Lookup index of schedule slot 0.
    OpenLoopSchedule schedule_;
    std::vector<uint32_t> streamArchive_;
    std::vector<uint64_t> streamPosition_;

    std::vector<ThreadTally> lastTallies_;
    std::vector<uint64_t> lastDepths_;
    sage::MultiArchiveStats statsBefore_, statsAfter_;
    sage::net::ServerNetStats netBefore_, netAfter_;
};

std::vector<SetSpec>
streamSpecs(const Options &options)
{
    const double scale = options.smoke ? 0.25 : 1.0;
    std::vector<SetSpec> specs;
    for (int i = 0; i < 3; i++)
        specs.push_back({"strS" + std::to_string(i), false, 128,
                         8.0 * scale, 1024, options.seed * 8 + i});
    specs.push_back({"strL", true, 64, 8.0 * scale, 16,
                     options.seed * 8 + 7});
    return specs;
}

std::vector<SetSpec>
lookupSpecs(const Options &options)
{
    const double scale = options.smoke ? 0.25 : 1.0;
    std::vector<SetSpec> specs;
    for (int i = 0; i < 8; i++)
        specs.push_back({"lkS" + std::to_string(i), false, 64, 8.0 * scale,
                         256, options.seed * 16 + i});
    return specs;
}

} // namespace

std::unique_ptr<Workload>
makeRemoteStream(const Options &options)
{
    RemoteConfig config;
    config.specs = streamSpecs(options);
    config.service.globalCacheBudgetBytes = 256ull << 20;
    config.service.maxOpenArchives = 8;
    config.service.cacheShards = 8;
    config.service.admissionHighWater = 0;
    auto remote = std::make_unique<Remote>(options, std::move(config));
    std::printf("working set: decoded %.1f MiB, cache budget 256 MiB\n",
                remote->decodedBytes() / 1048576.0);
    return remote;
}

std::unique_ptr<Workload>
makeRemoteLookup(const Options &options)
{
    RemoteConfig config;
    config.specs = lookupSpecs(options);
    config.service.globalCacheBudgetBytes = 1280u << 10;
    config.service.maxOpenArchives = 4;
    // One shard per partition: a decoded 256-read chunk must fit one
    // shard's share of the partition or it is never retained.
    config.service.cacheShards = 1;
    config.service.admissionHighWater = 64;
    config.openLoop = true;
    const double budget = config.service.globalCacheBudgetBytes;
    auto remote = std::make_unique<Remote>(options, std::move(config));
    std::printf("working set: decoded %.1f MiB, cache budget %.1f MiB "
                "(%.1fx), offered %.0f req/s, limit %.0f ms\n",
                remote->decodedBytes() / 1048576.0, budget / 1048576.0,
                remote->decodedBytes() / budget, kLookupRatePerSecond,
                kLookupLatencyLimitSeconds * 1e3);
    return remote;
}

} // namespace perfbench

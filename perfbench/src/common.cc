#include <cstdio>
#include <cstdlib>
#include <thread>

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include "probes.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

const std::vector<std::pair<const char *, const char *>> &
layerMetricNames()
{
    static const std::vector<std::pair<const char *, const char *>> names =
        {
            {"encoder.map_s", "s"},
            {"encoder.encode_s", "s"},
            {"encoder.tune_s", "s"},
            {"encoder.dna_bytes", "bytes"},
            {"encoder.quality_bytes", "bytes"},
            {"encoder.meta_bytes", "bytes"},
            {"encoder.pending_reads_max", "reads"},
            {"io.write_calls", "count"},
            {"io.write_bytes", "bytes"},
            {"io.write_s", "s"},
            {"io.fetch_calls", "count"},
            {"io.fetch_bytes", "bytes"},
            {"io.fetch_s", "s"},
            {"io.fetch_calls_per_chunk", "calls/chunk"},
            {"decoder.chunks", "count"},
            {"decoder.self_s", "s"},
            {"decoder.ns_per_read", "ns"},
            {"decoder.short_mbps", "MB/s"},
            {"decoder.long_mbps", "MB/s"},
            {"cache.hits", "count"},
            {"cache.misses", "count"},
            {"cache.coalesced_waits", "count"},
            {"cache.evictions", "count"},
            {"cache.ghost_hits", "count"},
            {"cache.resident_bytes", "bytes"},
            {"cache.retention_hit_ratio", "ratio"},
            {"cache.decodes_per_request", "decodes/req"},
            {"service.read_s", "s"},
            {"service.queue_depth_mean", "requests"},
            {"service.queue_depth_max", "requests"},
            {"service.queue_wait_ms_est", "ms"},
            {"archives.opens", "count"},
            {"archives.reopens", "count"},
            {"archives.evictions", "count"},
            {"archives.overloaded", "count"},
            {"protocol.encode_s", "s"},
            {"protocol.parse_s", "s"},
            {"protocol.crc_s", "s"},
            {"protocol.bytes_per_payload_byte", "ratio"},
            {"server.frames_in", "count"},
            {"server.replies_out", "count"},
            {"server.bytes_out", "bytes"},
            {"server.tx_pauses", "count"},
            {"server.protocol_errors", "count"},
            {"client.request_s", "s"},
            {"client.overloaded_retries", "count"},
            {"net.transport_residual_s", "s"},
            {"stream.inproc_payload_mbps", "MB/s"},
            {"loadgen.lag_p99_ms", "ms"},
            {"loadgen.verify_s", "s"},
            {"trace.overhead_frac", "ratio"},
            {"trace.reconcile_err", "ratio"},
        };
    return names;
}

LayerMetrics
emptyLayers()
{
    LayerMetrics layers;
    for (const auto &[name, unit] : layerMetricNames())
        layers[name] = Metric{0.0, unit, "not exercised"};
    return layers;
}

void
setLayer(LayerMetrics &out, const char *name, double value,
         const std::string &note)
{
    auto it = out.find(name);
    if (it == out.end()) {
        std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name);
        std::abort();
    }
    it->second.value = value;
    it->second.note = note;
}

void
encoderLayers(const EncodeLedger &ledger, LayerMetrics &out)
{
    setLayer(out, "encoder.map_s", ledger.mapSeconds);
    setLayer(out, "encoder.encode_s", ledger.encodeSeconds);
    setLayer(out, "encoder.tune_s", ledger.tuneSeconds);
    setLayer(out, "encoder.dna_bytes", double(ledger.dnaBytes));
    setLayer(out, "encoder.quality_bytes", double(ledger.qualityBytes));
    setLayer(out, "encoder.meta_bytes", double(ledger.metaBytes));
    setLayer(out, "encoder.pending_reads_max",
             double(ledger.pendingReadsMax));
    setLayer(out, "io.write_calls", double(ledger.write.calls.load()));
    setLayer(out, "io.write_bytes", double(ledger.write.bytes.load()));
    setLayer(out, "io.write_s", ledger.write.seconds());
}

void
decoderLayers(const DecodeLedger &ledger, LayerMetrics &out)
{
    const double calls = double(ledger.fetch.calls.load());
    setLayer(out, "io.fetch_calls", calls);
    setLayer(out, "io.fetch_bytes", double(ledger.fetch.bytes.load()));
    setLayer(out, "io.fetch_s", ledger.fetch.seconds());
    setLayer(out, "io.fetch_calls_per_chunk",
             ledger.chunks == 0 ? 0.0 : calls / double(ledger.chunks));
    setLayer(out, "decoder.chunks", double(ledger.chunks));
    const double self = ledger.chunkSeconds - ledger.fetchSeconds;
    setLayer(out, "decoder.self_s", self);
    setLayer(out, "decoder.ns_per_read",
             ledger.reads == 0 ? 0.0 : self * 1e9 / double(ledger.reads));
    setLayer(out, "decoder.short_mbps",
             ledger.shortSeconds == 0.0
                 ? 0.0
                 : double(ledger.shortPayload) / 1e6 / ledger.shortSeconds);
    setLayer(out, "decoder.long_mbps",
             ledger.longSeconds == 0.0
                 ? 0.0
                 : double(ledger.longPayload) / 1e6 / ledger.longSeconds);
}

namespace {

/**
 * Moves the calling thread to the next CPU of its original affinity
 * set on every step(), and restores that set on destruction. A
 * single-threaded window thus samples every CPU for an equal share of
 * its slices instead of whichever one the scheduler first picked.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(bool enabled) : thread_(pthread_self())
    {
        CPU_ZERO(&original_);
        if (!enabled ||
            pthread_getaffinity_np(thread_, sizeof(original_), &original_) !=
                0)
            return;
        for (int c = 0; c < CPU_SETSIZE; c++) {
            if (CPU_ISSET(c, &original_))
                cpus_.push_back(c);
        }
        step();
    }

    ~CpuRotation()
    {
        if (!cpus_.empty())
            pthread_setaffinity_np(thread_, sizeof(original_), &original_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the next CPU (callable from any thread). */
    void
    step()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        pthread_setaffinity_np(thread_, sizeof(one), &one);
    }

  private:
    pthread_t thread_;
    cpu_set_t original_;
    std::vector<int> cpus_;
    size_t next_ = 0;
};

} // namespace

WindowResult
measureWindow(double seconds,
              const std::function<void(WindowResult &)> &body,
              bool rotate_cpu)
{
    WindowResult window;
    const size_t slices = std::max<size_t>(4, size_t(seconds));
    window.sliceSeconds = seconds / double(slices);
    // Heap that set-up freed goes back to the kernel, so the high-water
    // mark starts from what is live, not from set-up's leftovers.
    malloc_trim(0);
    resetPeakRss();
    CpuRotation rotation(rotate_cpu);
    const double cpu0 = processCpuSeconds();
    const double start = now();
    window.start = start;
    // Samples process CPU time at every slice boundary.
    std::thread ticker([&window, &rotation, slices, start, cpu0] {
        double last = cpu0;
        for (size_t k = 1; k <= slices; k++) {
            const double ahead = start + window.sliceSeconds * k - now();
            if (ahead > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(ahead));
            const double cpu = processCpuSeconds();
            window.sliceCpu.push_back(cpu - last);
            last = cpu;
            if (k < slices)
                rotation.step();
        }
    });
    body(window);
    ticker.join();
    window.wall = now() - start;
    window.cpu = processCpuSeconds() - cpu0;
    window.peakRssMiB = peakRssMiB();
    return window;
}

SliceRates
sliceRates(const WindowResult &window)
{
    const std::vector<double> payload =
        slicePayload(window.completions, window.start,
                     window.sliceSeconds, window.sliceCpu.size());
    std::vector<double> mbps, cpu;
    for (size_t k = 0; k < payload.size(); k++) {
        const double mb = payload[k] / 1e6;
        mbps.push_back(mb / window.sliceSeconds);
        if (mb > 0.0)
            cpu.push_back(window.sliceCpu[k] * 1e3 / mb);
    }
    SliceRates rates;
    rates.payloadMbps = median(mbps);
    rates.cpuMsPerMb = median(cpu);
    rates.slices = payload.size();
    rates.sliceMbps = mbps;
    return rates;
}

} // namespace perfbench

/**
 * @file
 * local-scan: closed loop, one consumer. SageReader walks every chunk
 * of one short-read and one long-read archive, pass after pass; each
 * readChunk is one timed request. No cache, no wire: the decoder and
 * the source fetches do all the work.
 */

#include "trace.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

class LocalScan final : public Workload
{
  public:
    explicit LocalScan(const Options &options)
    {
        const double scale = options.smoke ? 0.25 : 1.0;
        // 2-read long-read chunks decode faster than 1024-read short-read
        // chunks, so the p99 falls among the short-read chunks, which are
        // the same size for every seed, not on the seed's largest
        // long-read chunk.
        const SetSpec specs[2] = {
            {"scanS", false, 256, 8.0 * scale, 1024, options.seed * 2 + 1},
            {"scanL", true, 64, 8.0 * scale, 2, options.seed * 2 + 2},
        };
        for (const SetSpec &spec : specs) {
            archives_.emplace_back();
            if (!buildArchive(spec, options.workDir, setupEncode_,
                              setupDecode_, archives_.back()))
                correct_ = false;
        }
    }

    WindowResult
    runWindow(double seconds) override
    {
        decode_ = std::make_unique<DecodeLedger>();
        std::vector<std::unique_ptr<TimedReader>> readers;
        for (const BuiltArchive &archive : archives_)
            readers.push_back(
                std::make_unique<TimedReader>(archive.path, *decode_));
        verifySeconds_ = 0.0;
        WindowResult window = measureWindow(seconds, [&](WindowResult &w) {
            const double end = now() + seconds;
            uint64_t request = 0;
            while (now() < end) {
                for (size_t a = 0; a < archives_.size(); a++) {
                    const BuiltArchive &archive = archives_[a];
                    for (size_t c = 0; c < archive.chunkCount; c++) {
                        ScopedSpan span("scan.request", ++request);
                        const double start = now();
                        std::vector<sage::Read> reads =
                            readers[a]->readChunk(c, archive.longRead);
                        const double done = now();
                        w.latencies.push_back(done - start);
                        const double verifyStart = now();
                        {
                            ScopedSpan verify("loadgen.verify");
                            const uint64_t first =
                                readers[a]->reader.chunkFirstRead(c);
                            if (countMismatches(archive, first, reads) !=
                                0) {
                                w.failed++;
                                correct_ = false;
                            }
                            const uint64_t payload = payloadBytes(reads);
                            w.completions.push_back({start, done, payload});
                            w.payload += payload;
                        }
                        verifySeconds_ += now() - verifyStart;
                        w.attempted++;
                    }
                }
            }
        }, true);
        window.threadSeconds = window.wall;
        return window;
    }

    void
    layers(const WindowResult &, LayerMetrics &out) override
    {
        encoderLayers(setupEncode_, out);
        decoderLayers(*decode_, out);
        setLayer(out, "loadgen.verify_s", verifySeconds_,
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

  private:
    std::vector<BuiltArchive> archives_;
    EncodeLedger setupEncode_;
    DecodeLedger setupDecode_;
    std::unique_ptr<DecodeLedger> decode_;
    double verifySeconds_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeLocalScan(const Options &options)
{
    return std::make_unique<LocalScan>(options);
}

} // namespace perfbench

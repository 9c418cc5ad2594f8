/**
 * @file
 * ingest: closed loop, one thread. Each request writes one short-read
 * archive (RS2-like, 1024 reads) and one long-read archive (RS4-like)
 * with SageWriter, the pair a hybrid-sequenced sample produces. The
 * round trip of every archive is checked after the window.
 */

#include <cstdio>
#include <unistd.h>

#include "trace.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

/**
 * Bases per archive: 1024 short reads, and 1-3 whole long reads (cut
 * once the budget is reached). About 2% of long reads take 50-240 ms
 * to map, most of the rest under 20 ms. With a small long-read archive
 * the requests holding one (~4%) stay well under the 10% beyond the
 * reported p90, so the p90 does not jump between the two classes from
 * seed to seed.
 */
constexpr uint64_t kShortBasesPerArchive = 1024 * 150;
constexpr uint64_t kLongBasesPerArchive = 9 * 1024;

/** One archive written in the window, kept until its round trip. */
struct Written
{
    std::string path;
    const std::vector<sage::Read> *expected = nullptr;
    bool longRead = false;
    uint64_t request = 0;
};

class Ingest final : public Workload
{
  public:
    explicit Ingest(const Options &options) : options_(options)
    {
        const double scale = options.smoke ? 0.25 : 1.0;
        short_ = synthesize(SetSpec{"ingS", false, 64, 24.0 * scale, 1024,
                                    options.seed * 2 + 1});
        // Enough long reads (~8 Mb) that a window rarely writes the
        // same one twice, so each run samples the seed's slow-mapping
        // reads at their true rate.
        long_ = synthesize(SetSpec{"ingL", true, 64, 128.0 * scale, 16,
                                   options.seed * 2 + 2});
        shortSlices_ = slice(short_, kShortBasesPerArchive);
        longSlices_ = slice(long_, kLongBasesPerArchive);
        // The writer path and page cache warm up on one untimed pair.
        EncodeLedger warm;
        writeArchive(short_, shortSlices_[0], path(0, false), warm);
        writeArchive(long_, longSlices_[0], path(0, true), warm);
    }

    WindowResult
    runWindow(double seconds) override
    {
        encode_ = std::make_unique<EncodeLedger>();
        decode_ = std::make_unique<DecodeLedger>();
        std::vector<Written> written;
        WindowResult window = measureWindow(seconds, [&](WindowResult &w) {
            const double end = now() + seconds;
            for (uint64_t i = 0; now() < end; i++) {
                ScopedSpan request("ingest.request", i + 1);
                std::vector<sage::Read> shortReads, longReads;
                const auto &s = shortSlices_[i % shortSlices_.size()];
                const auto &l = longSlices_[i % longSlices_.size()];
                {
                    ScopedSpan copy("harness.copy");
                    shortReads = s;
                    longReads = l;
                }
                const double start = now();
                writeArchive(short_, std::move(shortReads),
                             path(i, false), *encode_);
                writeArchive(long_, std::move(longReads), path(i, true),
                             *encode_);
                const double done = now();
                const uint64_t payload = payloadBytes(s) + payloadBytes(l);
                w.latencies.push_back(done - start);
                w.completions.push_back({start, done, payload});
                w.payload += payload;
                w.attempted++;
                written.push_back({path(i, false), &s, false, i});
                written.push_back({path(i, true), &l, true, i});
            }
        }, true);
        window.threadSeconds = window.wall;

        // Round trip outside the window: every archive must decode to
        // exactly the reads that went in.
        const double verifyStart = now();
        uint64_t lastFailed = UINT64_MAX;
        for (const Written &archive : written) {
            BuiltArchive back;
            if (!verifyArchive(archive.path, *archive.expected,
                               archive.longRead, *decode_, back)) {
                correct_ = false;
                if (archive.request != lastFailed)
                    window.failed++;
                lastFailed = archive.request;
            }
            unlink(archive.path.c_str());
        }
        verifySeconds_ = now() - verifyStart;
        ratio_ = encode_->archiveBytes == 0
            ? 0.0
            : double(encode_->fastqBytes) / double(encode_->archiveBytes);
        return window;
    }

    void
    layers(const WindowResult &, LayerMetrics &out) override
    {
        encoderLayers(*encode_, out);
        decoderLayers(*decode_, out);
        setLayer(out, "loadgen.verify_s", verifySeconds_,
                 "round trip of every archive, after the window");
    }

    double compressionRatio() const override { return ratio_; }

  private:
    /** Consecutive runs of reads holding @p bases bases each (the
     *  remainder short of a full run is dropped). */
    static std::vector<std::vector<sage::Read>>
    slice(const InputSet &input, uint64_t bases)
    {
        std::vector<std::vector<sage::Read>> slices(1);
        uint64_t filled = 0;
        for (const sage::Read &read : input.reads.reads) {
            slices.back().push_back(read);
            filled += read.bases.size();
            if (filled >= bases) {
                slices.emplace_back();
                filled = 0;
            }
        }
        if (slices.size() > 1)
            slices.pop_back();
        return slices;
    }

    std::string
    path(uint64_t request, bool long_read) const
    {
        return options_.workDir + "/ingest-" + std::to_string(request) +
            (long_read ? "-long.sage" : "-short.sage");
    }

    Options options_;
    InputSet short_;
    InputSet long_;
    std::vector<std::vector<sage::Read>> shortSlices_;
    std::vector<std::vector<sage::Read>> longSlices_;
    std::unique_ptr<EncodeLedger> encode_;
    std::unique_ptr<DecodeLedger> decode_;
    double verifySeconds_ = 0.0;
    double ratio_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeIngest(const Options &options)
{
    return std::make_unique<Ingest>(options);
}

} // namespace perfbench

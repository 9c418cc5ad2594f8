/**
 * @file
 * Process probes (CPU time, resident high-water), the host block, and
 * the timing decorators the benchmark hands to the library's public
 * I/O seams: a ByteSource under SageReader and a ByteSink under
 * SageWriter.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "io/byte_stream.hh"

namespace perfbench {

/** Consume @p value so the work that produced it cannot be dropped. */
void keep(uint64_t value);

/** Process user + system CPU seconds (every thread). */
double processCpuSeconds();

/** Start a fresh resident high-water mark (false when the kernel
 *  refuses; the mark then covers the whole process lifetime). */
bool resetPeakRss();

/** Resident high-water mark in MiB. */
double peakRssMiB();

/** What the host looks like; printed with every result. */
struct HostBlock
{
    unsigned nproc = 0;
    /** Wall seconds of a fixed per-thread spin at 1, 2 and 4 threads. */
    double spinSeconds[3] = {0.0, 0.0, 0.0};
    /** 4 x t(1) / t(4): how many threads really ran at once. */
    double effectiveParallelism = 0.0;
    std::string compiler;
    std::string buildType;
    std::string kernelTier;
    bool forceScalar = false;

    std::string toJson() const;
};

/** Measure the host (about a second of spinning on a 1-core host). */
HostBlock probeHost();

/** Call/byte/time counters of one decorator. */
struct IoCounters
{
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> nanos{0};

    double seconds() const { return nanos.load() * 1e-9; }
};

/**
 * ByteSource decorator: forwards every read to @p inner and counts
 * calls and bytes; with tracing on it also times each call and
 * records an "io.fetch" span.
 */
class TimingSource final : public sage::ByteSource
{
  public:
    TimingSource(const sage::ByteSource &inner, IoCounters &counters)
        : inner_(inner), counters_(counters)
    {}

    uint64_t size() const override { return inner_.size(); }
    void readAt(uint64_t offset, void *dst, size_t size) const override;
    const uint8_t *view(uint64_t offset, size_t size) const override;
    void readBatch(const Extent *extents, size_t count) const override;
    sage::Status tryReadAt(uint64_t offset, void *dst,
                           size_t size) const override;
    sage::Status tryReadBatch(const Extent *extents,
                              size_t count) const override;
    std::string describe() const override { return inner_.describe(); }

  private:
    const sage::ByteSource &inner_;
    IoCounters &counters_;
};

/** ByteSink decorator: same accounting as TimingSource, "io.write". */
class TimingSink final : public sage::ByteSink
{
  public:
    TimingSink(sage::ByteSink &inner, IoCounters &counters)
        : inner_(inner), counters_(counters)
    {}

    void write(const void *data, size_t size) override;
    uint64_t tell() const override { return inner_.tell(); }
    void flush() override;

  private:
    sage::ByteSink &inner_;
    IoCounters &counters_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH

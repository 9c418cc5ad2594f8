#include "probes.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "genomics/kernels.hh"
#include "trace.hh"
#include "util/cpu.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {
std::atomic<uint64_t> gKept{0};
} // namespace

void
keep(uint64_t value)
{
    gKept.fetch_xor(value, std::memory_order_relaxed);
}

double
processCpuSeconds()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const struct timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool
resetPeakRss()
{
    // "5" resets the VmHWM high-water mark to the current RSS.
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

double
peakRssMiB()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

namespace {

/** Fixed integer work; the result is returned so it cannot fold. */
uint64_t
spinWork(uint64_t iterations)
{
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint64_t i = 0; i < iterations; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

double
spinWall(unsigned threads, uint64_t iterations)
{
    const double start = now();
    std::vector<std::thread> fleet;
    for (unsigned t = 0; t < threads; t++)
        fleet.emplace_back([iterations] { keep(spinWork(iterations)); });
    for (auto &thread : fleet)
        thread.join();
    return now() - start;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

HostBlock
probeHost()
{
    HostBlock host;
    host.nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
    // Calibrate to ~0.1 s of single-thread work.
    uint64_t iterations = 1u << 20;
    while (spinWall(1, iterations) < 0.02)
        iterations *= 2;
    iterations *= 5;
    const unsigned counts[3] = {1, 2, 4};
    for (int i = 0; i < 3; i++)
        host.spinSeconds[i] = spinWall(counts[i], iterations);
    host.effectiveParallelism =
        4.0 * host.spinSeconds[0] / host.spinSeconds[2];
    host.compiler = __VERSION__;
    host.buildType = PERFBENCH_BUILD_TYPE;
    host.kernelTier = sage::kernels::activeLevelName();
    host.forceScalar = sage::simdForcedScalar();
    return host;
}

std::string
HostBlock::toJson() const
{
    std::ostringstream out;
    char spin[128];
    std::snprintf(spin, sizeof(spin), "[%.4f, %.4f, %.4f]",
                  spinSeconds[0], spinSeconds[1], spinSeconds[2]);
    char parallel[32];
    std::snprintf(parallel, sizeof(parallel), "%.2f",
                  effectiveParallelism);
    out << "{\"nproc\": " << nproc << ", \"spin_s_1_2_4\": " << spin
        << ", \"effective_parallelism\": " << parallel
        << ", \"compiler\": \"" << jsonEscape(compiler) << "\""
        << ", \"build_type\": \"" << jsonEscape(buildType) << "\""
        << ", \"kernel_tier\": \"" << kernelTier << "\""
        << ", \"force_scalar\": " << (forceScalar ? "true" : "false")
        << "}";
    return out.str();
}

// ---------------------------------------------------------------------
// Timing decorators
// ---------------------------------------------------------------------

namespace {

/** Counts one call; times it (and records a span) when tracing. */
class IoScope
{
  public:
    IoScope(IoCounters &counters, uint64_t bytes, const char *name)
        : counters_(counters), span_(name)
    {
        counters_.calls.fetch_add(1, std::memory_order_relaxed);
        counters_.bytes.fetch_add(bytes, std::memory_order_relaxed);
        if (trace::enabled())
            start_ = now();
    }

    ~IoScope()
    {
        if (start_ >= 0.0) {
            counters_.nanos.fetch_add(
                static_cast<uint64_t>((now() - start_) * 1e9),
                std::memory_order_relaxed);
        }
    }

    IoScope(const IoScope &) = delete;
    IoScope &operator=(const IoScope &) = delete;

  private:
    IoCounters &counters_;
    double start_ = -1.0;
    ScopedSpan span_;
};

uint64_t
extentBytes(const sage::ByteSource::Extent *extents, size_t count)
{
    uint64_t total = 0;
    for (size_t i = 0; i < count; i++)
        total += extents[i].size;
    return total;
}

} // namespace

void
TimingSource::readAt(uint64_t offset, void *dst, size_t size) const
{
    IoScope scope(counters_, size, "io.fetch");
    inner_.readAt(offset, dst, size);
}

const uint8_t *
TimingSource::view(uint64_t offset, size_t size) const
{
    return inner_.view(offset, size);
}

void
TimingSource::readBatch(const Extent *extents, size_t count) const
{
    IoScope scope(counters_, extentBytes(extents, count), "io.fetch");
    inner_.readBatch(extents, count);
}

sage::Status
TimingSource::tryReadAt(uint64_t offset, void *dst, size_t size) const
{
    IoScope scope(counters_, size, "io.fetch");
    return inner_.tryReadAt(offset, dst, size);
}

sage::Status
TimingSource::tryReadBatch(const Extent *extents, size_t count) const
{
    IoScope scope(counters_, extentBytes(extents, count), "io.fetch");
    return inner_.tryReadBatch(extents, count);
}

void
TimingSink::write(const void *data, size_t size)
{
    IoScope scope(counters_, size, "io.write");
    inner_.write(data, size);
}

void
TimingSink::flush()
{
    IoScope scope(counters_, 0, "io.write");
    inner_.flush();
}

} // namespace perfbench

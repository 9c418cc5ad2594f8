/**
 * @file
 * The four workloads and what they hand back to main.cc.
 *
 * A workload sets up (synthesis, archive builds, server start,
 * warm-up) and then runs timed windows. The untraced run measures one
 * window of the full length; the traced run measures an untraced half
 * and a traced half, so tracing overhead is a same-process comparison.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corpus.hh"
#include "measure.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs and short windows (self-check of all workloads). */
    bool smoke = false;
    /** Scratch directory for archives (created, removed at exit). */
    std::string workDir;
    /** Client threads/connections (never more than the host's CPUs). */
    unsigned clients = 4;
};

/** One named value with its unit, plus a note for the text report. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::string note;
};

/** Per-layer metrics by name (every name of layerMetricNames()). */
using LayerMetrics = std::map<std::string, Metric>;

/** Names and units of every per-layer metric, in report order. */
const std::vector<std::pair<const char *, const char *>> &layerMetricNames();

/** A LayerMetrics holding every name at 0 (layers a workload does not
 *  exercise stay 0). */
LayerMetrics emptyLayers();

/** What one timed window measured. */
struct WindowResult
{
    double wall = 0.0;        ///< Seconds.
    double cpu = 0.0;         ///< Process CPU seconds.
    double peakRssMiB = 0.0;  ///< High-water over the window.
    uint64_t payload = 0;     ///< Payload bytes delivered / ingested.
    /** Every completed operation (for the per-slice rates). */
    std::vector<Completion> completions;
    /** Slices of the window and the process CPU seconds in each. */
    double start = 0.0;
    double sliceSeconds = 0.0;
    std::vector<double> sliceCpu;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<double> latencies;  ///< Seconds, one per request.
    /** Open loop only. */
    bool openLoop = false;
    uint64_t sloMisses = 0;
    double latencyLimitSeconds = 0.0;
    /** Busy thread-seconds the window's spans should cover. */
    double threadSeconds = 0.0;
};

/** A workload after setup. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run one timed window of @p seconds. */
    virtual WindowResult runWindow(double seconds) = 0;

    /** Layer metrics of the last (traced) window. */
    virtual void layers(const WindowResult &window, LayerMetrics &out) = 0;

    /** FASTQ bytes over archive bytes of what the workload encoded
     *  (ingest: the last window's archives; else the corpus). */
    virtual double compressionRatio() const = 0;

    /** False once any output check failed. */
    bool correct() const { return correct_; }

  protected:
    bool correct_ = true;
};

std::unique_ptr<Workload> makeIngest(const Options &options);
std::unique_ptr<Workload> makeLocalScan(const Options &options);
std::unique_ptr<Workload> makeRemoteStream(const Options &options);
std::unique_ptr<Workload> makeRemoteLookup(const Options &options);

/** Set the encoder.* and io.write_* metrics from @p ledger. */
void encoderLayers(const EncodeLedger &ledger, LayerMetrics &out);

/** Set the io.fetch_* and decoder.* metrics from @p ledger. */
void decoderLayers(const DecodeLedger &ledger, LayerMetrics &out);

/**
 * Reset the RSS mark, run @p body (which stops starting operations
 * @p seconds after it is called), and fill wall/cpu/peak RSS plus the
 * process CPU time of each one-second slice of the window.
 */
WindowResult measureWindow(double seconds,
                           const std::function<void(WindowResult &)> &body,
                           bool rotate_cpu = false);

/** Per-slice medians: what the end-to-end rates report. */
struct SliceRates
{
    double payloadMbps = 0.0;
    double cpuMsPerMb = 0.0;
    size_t slices = 0;
    std::vector<double> sliceMbps;
};

SliceRates sliceRates(const WindowResult &window);

/** Fix a metric's value (must be one of layerMetricNames()). */
void setLayer(LayerMetrics &out, const char *name, double value,
              const std::string &note = "");

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

/**
 * @file
 * sage_perfbench: runs one workload and prints its metrics.
 *
 *   sage_perfbench --workload <ingest|local-scan|remote-stream|
 *                  remote-lookup> --seed N --seconds S --trace 0|1
 *                  --work-dir DIR [--trace-dir DIR]
 *   sage_perfbench --smoke --work-dir DIR
 *
 * The untraced run measures one window of S seconds and prints the
 * end-to-end metrics; the traced run measures an untraced and a traced
 * half of S/2 each and prints the per-layer metrics. The last stdout
 * line is the JSON result; the lines before it are the text report.
 * Exit status is 1 when any delivered byte was wrong.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "probes.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** Stated tolerance: spans must cover the window's thread time to
 *  within this share. */
constexpr double kReconcileTolerance = 0.05;

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 5;

/** A run that is cut by the harness must still end: hard stop. */
constexpr unsigned kWatchdogSeconds = 175;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "sage_perfbench: %s\n"
                 "usage: sage_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-dir DIR]\n"
                 "       sage_perfbench --smoke --work-dir DIR\n",
                 why);
    std::exit(2);
}

std::unique_ptr<Workload>
makeWorkload(const Options &options)
{
    if (options.workload == "ingest")
        return makeIngest(options);
    if (options.workload == "local-scan")
        return makeLocalScan(options);
    if (options.workload == "remote-stream")
        return makeRemoteStream(options);
    if (options.workload == "remote-lookup")
        return makeRemoteLookup(options);
    usage("unknown workload");
}

/** Shortest round-trippable text of @p value. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

struct Named
{
    std::string name;
    Metric metric;
};

std::string
metricsJson(const std::vector<Named> &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); i++) {
        if (i != 0)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].metric.value) + ", \"unit\": \"" +
            metrics[i].metric.unit + "\"}";
    }
    return out + "}";
}

void
printMetric(const Named &m)
{
    std::printf("metric %-32s %14.6g %-12s %s\n", m.name.c_str(),
                m.metric.value, m.metric.unit.c_str(),
                m.metric.note.c_str());
}


std::vector<Named>
endToEnd(const WindowResult &w, double ratio, double setup)
{
    const LatencySummary lat = summarizeLatencies(w.latencies);
    const std::string samples = "n=" + std::to_string(lat.samples);
    const std::string tail =
        "p" + std::to_string(int(lat.tailPercentile)) + " of " + samples +
        (lat.tailPercentile < 99 ? " (p99 unsupported below 1000)" : "");
    const std::string from =
        w.openLoop ? ", timed from due time" : ", closed loop";
    const SliceRates rates = sliceRates(w);
    const std::string slices =
        "median of " + std::to_string(rates.slices) + " slices; whole window ";
    const double mb = double(w.payload) / 1e6;
    return {
        {"payload_mbps",
         {rates.payloadMbps, "MB/s",
          "payload (bases+quality+headers); " + slices +
              number(mb / w.wall)}},
        {"cpu_ms_per_mb",
         {rates.cpuMsPerMb, "ms/MB",
          "process user+sys CPU; " + slices + number(w.cpu * 1e3 / mb)}},
        {"req_p99_ms", {lat.tail * 1e3, "ms", tail + from}},
        {"compression_ratio", {ratio, "ratio", "FASTQ bytes / archive bytes"}},
        {"setup_s",
         {setup, "s",
          "median of " + std::to_string(kSetups) +
              " set-ups (the first from process start)"}},
    };
}

/** Metrics printed with every result but not gated in BENCHMARK.json
 *  (see perfbench/README.md for why). */
void
printOutcome(const WindowResult &w)
{
    const double attempted = double(std::max<uint64_t>(w.attempted, 1));
    const LatencySummary lat = summarizeLatencies(w.latencies);
    std::printf("metric %-32s %14.6g %-12s n=%llu\n", "req_p50_ms",
                lat.p50 * 1e3, "ms",
                static_cast<unsigned long long>(lat.samples));
    std::printf("metric %-32s %14.6g %-12s VmHWM over the window\n",
                "peak_rss_mb", w.peakRssMiB, "MiB");
    std::printf("metric %-32s %14.6g %-12s %llu of %llu operations\n",
                "error_frac", double(w.failed) / attempted, "ratio",
                static_cast<unsigned long long>(w.failed),
                static_cast<unsigned long long>(w.attempted));
    if (w.openLoop) {
        std::printf("metric %-32s %14.6g %-12s failed, refused or over "
                    "%.0f ms, of %llu\n",
                    "slo_miss_frac", double(w.sloMisses) / attempted,
                    "ratio", w.latencyLimitSeconds * 1e3,
                    static_cast<unsigned long long>(w.attempted));
    }
}

void
printResult(bool correct, const WindowResult &w,
            const std::vector<Named> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(w.attempted),
                static_cast<unsigned long long>(w.failed),
                metricsJson(metrics).c_str());
    std::fflush(stdout);
}

/** Untraced run: one window, end-to-end metrics. */
bool
runUntraced(const Options &options, double process_start)
{
    std::unique_ptr<Workload> workload;
    std::vector<double> setups;
    for (int k = 0; k < kSetups; k++) {
        workload.reset();
        const double start = k == 0 ? process_start : now();
        workload = makeWorkload(options);
        // Archive writeback belongs to set-up, not to the window.
        sync();
        setups.push_back(now() - start);
    }
    const double setup = median(setups);
    const WindowResult w = workload->runWindow(options.seconds);
    const bool correct = workload->correct() && w.failed == 0;
    const std::vector<Named> metrics =
        endToEnd(w, workload->compressionRatio(), setup);
    workload.reset();
    std::printf("host %s\n", probeHost().toJson().c_str());
    std::printf("slices payload_mbps:");
    for (double mbps : sliceRates(w).sliceMbps)
        std::printf(" %.4g", mbps);
    std::printf("\n");
    for (const Named &m : metrics)
        printMetric(m);
    printOutcome(w);
    printResult(correct, w, metrics);
    return correct;
}

/** Traced run: untraced half, traced half, per-layer metrics. */
bool
runTraced(const Options &options, const std::string &trace_path)
{
    trace::setEnabled(true);
    std::unique_ptr<Workload> workload = makeWorkload(options);
    sync();
    trace::setEnabled(false);
    const double half = options.seconds / 2;
    const WindowResult plain = workload->runWindow(half);
    trace::clear();
    trace::setEnabled(true);
    const WindowResult traced = workload->runWindow(half);
    trace::setEnabled(false);
    const std::vector<Span> spans = trace::collect();

    LayerMetrics layers = emptyLayers();
    workload->layers(traced, layers);
    const double plainMbps = sliceRates(plain).payloadMbps;
    const double tracedMbps = sliceRates(traced).payloadMbps;
    const double overhead =
        plainMbps == 0.0 ? 0.0 : (plainMbps - tracedMbps) / plainMbps;
    setLayer(layers, "trace.overhead_frac", overhead,
             "(untraced - traced) / untraced payload_mbps");
    const std::map<std::string, double> self = selfTimesByName(spans);
    double covered = 0.0;
    for (const auto &[name, seconds] : self)
        covered += seconds;
    const double reconcile = traced.threadSeconds == 0.0
        ? 0.0
        : std::fabs(covered - traced.threadSeconds) / traced.threadSeconds;
    setLayer(layers, "trace.reconcile_err", reconcile,
             std::string("|sum of span self times - thread time| / thread "
                         "time, tolerance ") +
                 number(kReconcileTolerance) +
                 (reconcile <= kReconcileTolerance ? " (ok)" : " (EXCEEDED)"));
    const bool correct =
        workload->correct() && plain.failed == 0 && traced.failed == 0;
    workload.reset();

    if (!trace_path.empty() && !trace::writeJsonLines(spans, trace_path))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     trace_path.c_str());
    std::printf("host %s\n", probeHost().toJson().c_str());
    for (const auto &[name, seconds] : self)
        std::printf("span-self %-28s %12.6f s\n", name.c_str(), seconds);
    std::vector<Named> metrics;
    for (const auto &entry : layerMetricNames()) {
        metrics.push_back({entry.first, layers[entry.first]});
        printMetric(metrics.back());
    }
    printOutcome(traced);
    printResult(correct, traced, metrics);
    return correct;
}

/** Every workload, tiny inputs, traced: exercises all code paths. */
bool
runSmoke(Options options)
{
    bool all = true;
    const std::string root = options.workDir;
    for (const char *name :
         {"ingest", "local-scan", "remote-stream", "remote-lookup"}) {
        options.workload = name;
        options.seconds = 1.0;
        options.workDir = root + "/" + name;
        std::filesystem::create_directories(options.workDir);
        std::printf("smoke %s\n", name);
        const bool ok = runTraced(options, "");
        std::printf("smoke %s: %s\n", name, ok ? "ok" : "FAILED");
        all = all && ok;
    }
    return all;
}

} // namespace

int
main(int argc, char **argv)
{
    const double processStart = now();
    alarm(kWatchdogSeconds);
    Options options;
    std::string traceDir;
    bool haveWorkload = false;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
            haveWorkload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            options.trace = value() == "1";
        } else if (arg == "--work-dir") {
            options.workDir = value();
        } else if (arg == "--trace-dir") {
            traceDir = value();
        } else if (arg == "--smoke") {
            options.smoke = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (options.workDir.empty())
        usage("--work-dir is required");
    if (!options.smoke && !haveWorkload)
        usage("--workload is required");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    options.clients = unsigned(std::clamp<long>(cpus, 1, 4));
    std::filesystem::create_directories(options.workDir);

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "clients=%u\n",
                options.smoke ? "smoke" : options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, options.clients);
    bool ok = false;
    if (options.smoke) {
        ok = runSmoke(options);
    } else if (options.trace) {
        std::string path;
        if (!traceDir.empty()) {
            std::filesystem::create_directories(traceDir);
            path = traceDir + "/trace-" + options.workload + "-seed" +
                std::to_string(options.seed) + ".jsonl";
        }
        ok = runTraced(options, path);
    } else {
        ok = runUntraced(options, processStart);
    }
    std::error_code ignored;
    std::filesystem::remove_all(options.workDir, ignored);
    return ok ? 0 : 1;
}

/**
 * @file
 * bench_ladder: the repository's one benchmark. One process runs one
 * workload, each exercising a different rung of the serving stack:
 *
 *   sweep         the paper's figure sweep (trace generation, trace
 *                 store, resilient runner, simulators)
 *   serve-closed  the in-process sharded PredictionService
 *   wire-open     one clapd over a Unix socket, open-loop arrivals
 *   fleet-closed  clapr in front of two clapd replicas
 *
 * Usage:
 *   bench_ladder --workload NAME [--seed N] [--seconds N] [--trace 0|1]
 *                [--run-dir DIR]
 *   bench_ladder --list-metrics
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, and the metrics — every end-to-end metric with --trace 0,
 * every per-layer metric with --trace 1. Earlier lines are
 * diagnostics (sample counts, deep percentiles, per-second rates).
 * The exit status is 0 only when every output check passed; a run
 * that outlives its deadline is killed by the watchdog, which reaps
 * the spawned daemons, reports every attempted operation as failed,
 * and exits 4.
 */

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon.hh"
#include "ladder.hh"

extern char **environ;

namespace clap::ladder
{

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
};

/// Printed with --trace 0. Every workload reports all of them.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_loads_per_s", "loads/s", "higher"},
    {"latency_p50_us", "us", "lower"},
    {"latency_p90_us", "us", "lower"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mib", "MiB", "lower"},
};

/// Printed with --trace 1. Every time-valued metric is measured on
/// every workload (sim.* and core.* by a probe where the workload
/// bypasses those layers); layer-specific metrics are counts, ratios
/// or rates, 0 where the layer is bypassed. Layer-specific latency
/// distributions go to the diagnostic lines instead.
constexpr MetricDef kPerLayer[] = {
    {"trace.generate_ns_per_record", "ns", "lower"},
    {"trace.bytes_per_record", "B", "lower"},
    {"trace.store_misses", "count", "lower"},
    {"trace.store_evictions", "count", "lower"},
    {"runner.busy_frac", "ratio", "higher"},
    {"runner.retries", "count", "lower"},
    {"runner.failed_jobs", "count", "lower"},
    {"sim.predictor_ns_per_load.stride", "ns", "lower"},
    {"sim.predictor_ns_per_load.cap", "ns", "lower"},
    {"sim.predictor_ns_per_load.hybrid", "ns", "lower"},
    {"sim.timing_ns_per_inst", "ns", "lower"},
    {"sim.spec_rate", "ratio", "higher"},
    {"sim.spec_accuracy", "ratio", "higher"},
    {"sim.speedup", "x", "higher"},
    {"core.predict_ns", "ns", "lower"},
    {"core.update_ns", "ns", "lower"},
    {"core.audit_us", "us", "lower"},
    {"serve.batches_per_load", "ratio", "lower"},
    {"serve.audits_per_load", "ratio", "lower"},
    {"serve.mean_batch_size", "count", "higher"},
    {"serve.max_queue_depth", "count", "lower"},
    {"serve.queue_wait_share", "ratio", "lower"},
    {"net.stage.decode_share", "ratio", "lower"},
    {"net.stage.handle_share", "ratio", "lower"},
    {"net.stage.encode_share", "ratio", "lower"},
    {"net.stage.residual_share", "ratio", "lower"},
    {"net.retries", "count", "lower"},
    {"net.wrong_replies", "count", "lower"},
    {"net.shed", "count", "lower"},
    {"net.rejected", "count", "lower"},
    {"loadgen.achieved_rate", "loads/s", "higher"},
    {"replica.train_fanout", "ratio", "lower"},
    {"replica.predict_share.max", "ratio", "lower"},
    {"replica.failovers", "count", "lower"},
    {"obs.trace_overhead", "ratio", "higher"},
};

struct Workload
{
    const char *name;
    Report (*run)(const Options &);
};

constexpr Workload kWorkloads[] = {
    {"sweep", runSweep},
    {"serve-closed", runServeClosed},
    {"wire-open", runWireOpen},
    {"fleet-closed", runFleetClosed},
};

std::atomic<const char *> currentStage{"start"};
std::atomic<std::uint64_t> attemptedSoFar{0};
/// Set by whichever of main and the watchdog prints the result.
std::atomic<bool> resultClaimed{false};

std::string
number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    return buf;
}

/** The result: the last line of stdout. */
std::string
resultJson(const Report &report, bool traced)
{
    std::string json = "{\"correct\": ";
    json += report.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricDef &def) {
        auto it = report.metrics.find(def.name);
        const double value = it == report.metrics.end() ? 0.0 : it->second;
        json += first ? "" : ", ";
        first = false;
        json += '"';
        json += def.name;
        json += "\": {\"value\": " + number(value) + ", \"unit\": \"" +
            def.unit + "\"}";
    };
    if (traced)
        for (const MetricDef &def : kPerLayer)
            emit(def);
    else
        for (const MetricDef &def : kEndToEnd)
            emit(def);
    json += "}}";
    return json;
}

void
listMetrics()
{
    auto list = [](const auto &defs) {
        std::string out = "[";
        bool first = true;
        for (const MetricDef &def : defs) {
            out += first ? "" : ", ";
            first = false;
            out += "{\"name\": \"" + std::string(def.name) +
                "\", \"unit\": \"" + def.unit + "\", \"better\": \"" +
                def.better + "\"}";
        }
        return out + "]";
    };
    std::string workloads = "[";
    for (const Workload &w : kWorkloads)
        workloads += std::string(workloads.size() > 1 ? ", " : "") + "\"" +
            w.name + "\"";
    std::printf("{\"workloads\": %s], \"end_to_end\": %s, "
                "\"per_layer\": %s}\n",
                workloads.c_str(), list(kEndToEnd).c_str(),
                list(kPerLayer).c_str());
}

/**
 * Unset every inherited CLAP_* knob so the libraries (and the daemons,
 * which inherit this environment) run at their defaults whatever the
 * caller's shell exports.
 */
void
pinEnvironment()
{
    std::vector<std::string> knobs;
    for (char **env = environ; *env != nullptr; ++env) {
        const std::string entry = *env;
        if (entry.rfind("CLAP_", 0) == 0)
            knobs.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &knob : knobs) {
        std::fprintf(stderr, "bench_ladder: ignoring %s\n", knob.c_str());
        unsetenv(knob.c_str());
    }
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_ladder: %s\n"
                 "usage: bench_ladder --workload NAME [--seed N] "
                 "[--seconds N] [--trace 0|1] [--run-dir DIR]\n"
                 "       bench_ladder --list-metrics\n"
                 "workloads: sweep serve-closed wire-open fleet-closed\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-')
        usage(("bad value for " + flag + ": '" + text + "'").c_str());
    return value;
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        if (const auto eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (flag == "--list-metrics") {
            listMetrics();
            std::exit(0);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(("missing value for " + flag).c_str());
        }
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = parseUnsigned(flag, value);
        else if (flag == "--seconds")
            opts.seconds = static_cast<unsigned>(parseUnsigned(flag, value));
        else if (flag == "--trace")
            opts.traced = parseUnsigned(flag, value) != 0;
        else if (flag == "--run-dir")
            opts.runDir = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (opts.seconds < 2 || opts.seconds > 600)
        usage("--seconds must be within 2..600");
    return opts;
}

/**
 * Kills the run when it outlives its deadline. A threaded predict can
 * hang with every shard idle, so the clients cannot be relied on to
 * return: the watchdog reaps the daemons, reports the run as failed,
 * and exits without joining anything.
 */
class Watchdog
{
  public:
    Watchdog(const Options &opts, double deadline_s)
        : opts_(opts), thread_([this, deadline_s] { watch(deadline_s); })
    {
    }

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

  private:
    void
    watch(double deadline_s)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (wake_.wait_for(lock, std::chrono::duration<double>(deadline_s),
                           [this] { return done_; }))
            return;
        if (resultClaimed.exchange(true))
            return;
        std::fprintf(stderr,
                     "bench_ladder: watchdog: %s exceeded its %.0f s "
                     "deadline during '%s'; killing the run\n",
                     opts_.workload.c_str(), deadline_s,
                     currentStage.load());
        killAllDaemons();
        std::error_code ignored;
        std::filesystem::remove_all(opts_.runDir, ignored);
        Report report;
        report.correct = false;
        report.attempted = std::max<std::uint64_t>(1, attemptedSoFar.load());
        report.failed = report.attempted;
        std::printf("watchdog: deadline exceeded during '%s'\n%s\n",
                    currentStage.load(),
                    resultJson(report, opts_.traced).c_str());
        std::fflush(stdout);
        _exit(4);
    }

    const Options &opts_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool done_ = false;
    std::thread thread_; ///< last: starts once the rest is built
};

} // namespace

void
setStage(const char *stage)
{
    currentStage.store(stage);
}

void
noteAttempted(std::uint64_t attempted)
{
    std::uint64_t seen = attemptedSoFar.load();
    while (seen < attempted &&
           !attemptedSoFar.compare_exchange_weak(seen, attempted)) {
    }
}

} // namespace clap::ladder

int
main(int argc, char **argv)
{
    using namespace clap::ladder;

    Options opts = parseOptions(argc, argv);
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads)
        if (opts.workload == w.name)
            workload = &w;
    if (workload == nullptr)
        usage(("unknown workload '" + opts.workload + "'").c_str());

    pinEnvironment();
    std::signal(SIGPIPE, SIG_IGN);

    // Per-process directory for sockets and daemon logs. Socket paths
    // stay relative (sun_path holds ~100 bytes), so the daemons are
    // started from this same working directory.
    opts.runDir += '/';
    opts.runDir += std::to_string(getpid());
    std::error_code made;
    std::filesystem::create_directories(opts.runDir, made);
    if (made || opts.runDir.size() > 80) {
        std::fprintf(stderr, "bench_ladder: unusable run directory '%s'\n",
                     opts.runDir.c_str());
        return 2;
    }

    // Twice the nominal length: warm-up, window, set-up and checks.
    const double deadline_s = 2.0 * (kWarmupSeconds + opts.seconds + 12.0);
    Report report;
    {
        Watchdog watchdog(opts, deadline_s);
        try {
            report = workload->run(opts);
        } catch (const std::exception &e) {
            report.fail(std::string("uncaught exception: ") + e.what());
        }
        killAllDaemons(); // only ones an error path left behind
        if (resultClaimed.exchange(true))
            pause(); // the watchdog owns the output and exits
    }
    if (report.attempted == 0) {
        report.attempted = 1;
        report.failed = 1;
        report.fail("no operation was attempted");
    }

    for (const std::string &line : report.notes)
        std::printf("%s\n", line.c_str());
    std::printf("%s\n", resultJson(report, opts.traced).c_str());
    std::fflush(stdout);

    std::error_code ignored;
    if (report.correct)
        std::filesystem::remove_all(opts.runDir, ignored);
    else
        std::fprintf(stderr, "bench_ladder: daemon logs kept in %s\n",
                     opts.runDir.c_str());
    return report.correct ? 0 : 3;
}

/**
 * @file
 * Shared helpers for the benchmark harnesses. Each bench binary
 * reproduces one table/figure of the paper: its main() hands
 * benchMain() a function that runs the figure once and prints a
 * paper-style result table, annotated with the values the paper
 * reports.
 *
 * All harnesses route their sweeps through the resilient runner
 * (runner/sweep.hh) and accept these shared flags:
 *
 *   --jobs=N        worker threads (default 1 = serial order)
 *   --timeout-ms=N  per-job wall-clock budget (0 = no watchdog)
 *   --retries=N     retry budget for transient failures (default 2)
 *   --backoff-ms=N  retry backoff base; retry r sleeps base << r
 *   --journal=PATH  checkpoint completed jobs to PATH (JSONL+CRC)
 *   --resume        replay the journal, re-run only missing jobs
 *                   (default journal: BENCH_<name>.journal)
 *   --out=PATH      result JSON path (default BENCH_<name>.json)
 *   --no-json       skip writing the result JSON
 *
 * A binary may accept more flags (BenchFlag, passed to benchMain).
 * Any other argument, or a value that is malformed or out of range,
 * exits 2 with a message naming it and listing the accepted flags.
 * A number read from the environment (envUnsigned,
 * util/parse_number.hh) is held to the same rule; benchMain reads
 * CLAP_TRACE_INSTS before any work, so a bad budget exits 2 there.
 *
 * Results additionally land in BENCH_<name>.json (written atomically
 * via temp-file + rename): every printed table plus any failed jobs.
 * The JSON contains no run-dependent counters, so an interrupted +
 * resumed sweep produces a byte-identical file to an uninterrupted
 * one.
 */

#ifndef CLAP_BENCH_BENCH_UTIL_HH
#define CLAP_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cap_predictor.hh"
#include "core/config.hh"
#include "obs/trace_events.hh"
#include "core/hybrid_predictor.hh"
#include "core/last_address_predictor.hh"
#include "core/stride_predictor.hh"
#include "runner/sweep.hh"
#include "sim/experiment.hh"
#include "trace/trace_store.hh"
#include "util/atomic_file.hh"
#include "util/bits.hh"
#include "util/json.hh"
#include "util/parse_number.hh"
#include "util/table.hh"

namespace clap::bench
{

/** Factory for the paper's baseline enhanced-stride predictor. */
inline PredictorFactory
strideFactory(bool pipelined = false)
{
    return [pipelined] {
        StridePredictorConfig config;
        config.pipelined = pipelined;
        return std::make_unique<StridePredictor>(config);
    };
}

/** Factory for the baseline stand-alone CAP predictor. */
inline PredictorFactory
capFactory(bool pipelined = false)
{
    return [pipelined] {
        CapPredictorConfig config;
        config.pipelined = pipelined;
        return std::make_unique<CapPredictor>(config);
    };
}

/** Factory for the baseline hybrid CAP/stride predictor. */
inline PredictorFactory
hybridFactory(bool pipelined = false)
{
    return [pipelined] {
        HybridConfig config;
        config.pipelined = pipelined;
        return std::make_unique<HybridPredictor>(config);
    };
}

/** Factory for the prior-art last-address predictor. */
inline PredictorFactory
lastAddressFactory()
{
    return [] {
        return std::make_unique<LastAddressPredictor>(
            LastAddressConfig{});
    };
}

/** Parsed sweep flags (see file header). */
struct SweepOptions
{
    unsigned jobs = 1;
    std::uint64_t timeoutMs = 0;
    unsigned retries = 2;
    std::uint64_t backoffMs = 10;
    std::string journalPath; ///< resolved; empty = no checkpointing
    bool resume = false;
    std::string outPath; ///< resolved result JSON path
    bool noJson = false;
};

/** Process-wide bench harness state (one bench binary = one state). */
struct BenchState
{
    std::string name; ///< e.g. "fig05_predictors"
    SweepOptions options;

    /// Printed tables in print order (title, formatted cells).
    std::vector<std::pair<std::string, Table>> tables;

    /// Jobs that ended in a structured error, across all sweeps.
    struct Failure
    {
        std::string key;
        std::string error;
    };
    std::vector<Failure> failures;

    RunnerCounters counters; ///< accumulated over all sweeps
    std::size_t journalBadLines = 0;

    /// Trace-store counters accumulated over all sweeps. Printed in
    /// the stdout summary only — the result JSON must stay free of
    /// run-dependent counters (journal hits skip generations, so a
    /// resumed run reports different hit/miss totals).
    TraceStoreStats traceStore;

    static BenchState &
    instance()
    {
        static BenchState state;
        return state;
    }
};

/** Runner built from the bench flags. Journalling benches always run
 *  the runner in resume mode: benchMain() truncates the journal once
 *  at startup for fresh runs, so the several sweeps of one binary
 *  (e.g. the stride and hybrid columns of a figure) append to — and
 *  on --resume replay from — a single shared journal. */
inline SweepRunner
makeSweepRunner()
{
    const SweepOptions &options = BenchState::instance().options;
    RunnerConfig config;
    config.threads = options.jobs;
    config.timeoutMs = options.timeoutMs;
    config.maxRetries = options.retries;
    config.backoffBaseMs = options.backoffMs;
    config.journalPath = options.journalPath;
    config.resume = !options.journalPath.empty();
    return SweepRunner(config);
}

/** Fold one sweep's report into the bench state. */
inline void
recordSweepReport(const SweepReport &report)
{
    BenchState &state = BenchState::instance();
    if (!report.status) {
        std::fprintf(stderr, "sweep error: %s\n",
                     report.status.error().str().c_str());
        state.failures.push_back(
            {"(sweep)", report.status.error().str()});
    }
    for (const auto &outcome : report.outcomes) {
        if (!outcome.ok)
            state.failures.push_back(
                {outcome.key, outcome.error.str()});
    }
    state.counters.executed += report.counters.executed;
    state.counters.journalHits += report.counters.journalHits;
    state.counters.retries += report.counters.retries;
    state.counters.timeouts += report.counters.timeouts;
    state.counters.failures += report.counters.failures;
    state.counters.backoffs += report.counters.backoffs;
    state.counters.backoffMs += report.counters.backoffMs;
    state.journalBadLines += report.journalBadLines;
    state.traceStore.hits += report.traceStore.hits;
    state.traceStore.misses += report.traceStore.misses;
    state.traceStore.evictions += report.traceStore.evictions;
    state.traceStore.bytesGenerated += report.traceStore.bytesGenerated;
    state.traceStore.bytesCached = report.traceStore.bytesCached;
    state.traceStore.bytesPeak = report.traceStore.bytesPeak;
}

/** Resilient runPerTrace under the bench flags. */
inline std::vector<TraceStatsResult>
sweepPerTrace(const std::string &label,
              const std::vector<TraceSpec> &specs,
              const PredictorFactory &factory,
              const PredictorSimConfig &sim_config, std::size_t len)
{
    auto output = runPerTraceResilient(label, specs, factory,
                                       sim_config, len,
                                       makeSweepRunner());
    recordSweepReport(output.report);
    return std::move(output.results);
}

/** Resilient runPerSuite under the bench flags. */
inline std::vector<SuiteStats>
sweepPerSuite(const std::string &label, const PredictorFactory &factory,
              const PredictorSimConfig &sim_config, std::size_t len)
{
    return aggregateBySuite(
        sweepPerTrace(label, buildCatalog(), factory, sim_config, len));
}

/** Resilient runSpeedup under the bench flags. */
inline std::vector<SpeedupResult>
sweepSpeedup(const std::string &label,
             const std::vector<TraceSpec> &specs,
             const PredictorFactory &factory,
             const TimingConfig &config, std::size_t len)
{
    auto output = runSpeedupResilient(label, specs, factory, config,
                                      len, makeSweepRunner());
    recordSweepReport(output.report);
    return std::move(output.results);
}

/** Custom job batch (fault sweeps etc.) under the bench flags. */
inline SweepReport
runSweepJobs(const std::vector<SweepJob> &jobs)
{
    SweepReport report = makeSweepRunner().run(jobs);
    recordSweepReport(report);
    return report;
}

/** Print a titled table to stdout and register it for the JSON. */
inline void
printTable(const std::string &title, const Table &table)
{
    std::printf("\n=== %s ===\n", title.c_str());
    table.print(std::cout);
    std::fflush(stdout);
    BenchState::instance().tables.emplace_back(title, table);
}

/** Serialise the bench state to its result JSON (deterministic). */
inline std::string
benchJson()
{
    const BenchState &state = BenchState::instance();
    std::string json = "{\n  \"bench\": \"";
    json += jsonEscape(state.name);
    json += "\",\n  \"tables\": [";
    for (std::size_t t = 0; t < state.tables.size(); ++t) {
        if (t != 0)
            json += ',';
        json += "\n    {\"title\": \"";
        json += jsonEscape(state.tables[t].first);
        json += "\", \"rows\": [";
        const auto &rows = state.tables[t].second.rows();
        for (std::size_t r = 0; r < rows.size(); ++r) {
            if (r != 0)
                json += ',';
            json += "\n      [";
            for (std::size_t c = 0; c < rows[r].size(); ++c) {
                if (c != 0)
                    json += ", ";
                json += '"';
                json += jsonEscape(rows[r][c]);
                json += '"';
            }
            json += ']';
        }
        json += "\n    ]}";
    }
    json += "\n  ],\n  \"failedJobs\": [";
    for (std::size_t f = 0; f < state.failures.size(); ++f) {
        if (f != 0)
            json += ',';
        json += "\n    {\"key\": \"";
        json += jsonEscape(state.failures[f].key);
        json += "\", \"error\": \"";
        json += jsonEscape(state.failures[f].error);
        json += "\"}";
    }
    json += "\n  ]\n}\n";
    return json;
}

/** One flag a bench binary accepts: "--name" for a switch, else
 *  "--name=VALUE". set() stores the value; false means malformed. */
struct BenchFlag
{
    std::string name;        ///< e.g. "--jobs"
    std::string placeholder; ///< "N", "PATH"; empty for a switch
    std::function<bool(const std::string &)> set;
};

inline BenchFlag
switchFlag(std::string name, bool &target)
{
    return {std::move(name), "", [&target](const std::string &) {
                target = true;
                return true;
            }};
}

inline BenchFlag
pathFlag(std::string name, std::string &target)
{
    return {std::move(name), "PATH", [&target](const std::string &text) {
                target = text;
                return true;
            }};
}

/** A number flag whose value must lie in [@p lo, @p hi]. */
template <typename T>
BenchFlag
numberFlag(std::string name, T &target, std::type_identity_t<T> lo,
           std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    return {std::move(name), "N",
            [&target, lo, hi](const std::string &text) {
                return parseNumber(text, lo, hi, target);
            }};
}

/** A 64-bit seed, written as a C literal (e.g. 7 or 0xc4a05). */
inline BenchFlag
seedFlag(std::string name, std::uint64_t &target)
{
    return {std::move(name), "N", [&target](const std::string &text) {
                return parseNumber(
                    text, std::uint64_t{0},
                    std::numeric_limits<std::uint64_t>::max(), target,
                    /*cLiteral=*/true);
            }};
}

/** A shard count from environment variable @p name (default 4, at
 *  most 4096), rounded down to a power of two. */
inline unsigned
envShardCount(const char *name)
{
    return 1u << floorLog2(envUnsigned(name, 4, 1, 4096));
}

/**
 * Parse argv against the shared sweep flags plus the binary's
 * @p extra flags. An unknown argument or a malformed value exits 2,
 * naming the argument and listing every accepted flag.
 */
inline void
parseSweepFlags(int argc, char **argv, SweepOptions &options,
                const std::vector<BenchFlag> &extra)
{
    std::vector<BenchFlag> flags = {
        numberFlag("--jobs", options.jobs, 1),
        numberFlag("--timeout-ms", options.timeoutMs, 0),
        numberFlag("--retries", options.retries, 0),
        numberFlag("--backoff-ms", options.backoffMs, 0),
        pathFlag("--journal", options.journalPath),
        switchFlag("--resume", options.resume),
        pathFlag("--out", options.outPath),
        switchFlag("--no-json", options.noJson),
    };
    flags.insert(flags.end(), extra.begin(), extra.end());

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const bool hasValue = eq != std::string::npos;
        const std::string name = arg.substr(0, eq);
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&name](const BenchFlag &f) {
                             return f.name == name;
                         });
        const char *problem = nullptr;
        if (flag == flags.end())
            problem = "unknown argument";
        else if (flag->placeholder.empty() == hasValue ||
                 !flag->set(hasValue ? arg.substr(eq + 1) : ""))
            problem = "bad value in";
        if (problem == nullptr)
            continue;
        std::string usage;
        for (const BenchFlag &f : flags)
            usage += " [" + f.name +
                (f.placeholder.empty() ? "" : "=" + f.placeholder) + "]";
        std::fprintf(stderr, "%s: %s '%s'\nusage: %s%s\n", argv[0],
                     problem, arg.c_str(), argv[0], usage.c_str());
        std::exit(2);
    }
}

/**
 * Shared main() of every bench binary: parse the shared flags plus
 * @p extraFlags, run the figure (its sweeps and printed tables) via
 * @p figure, then write the result JSON atomically.
 */
inline int
benchMain(const std::string &name, int argc, char **argv,
          const std::function<void()> &figure,
          const std::vector<BenchFlag> &extraFlags = {})
{
    BenchState &state = BenchState::instance();
    state.name = name;
    parseSweepFlags(argc, argv, state.options, extraFlags);
    // Sweep jobs read the budget on worker threads; a malformed one
    // must exit 2 here, before any work starts.
    (void)defaultTraceLength();

    // Resolve defaults that depend on the bench name.
    if (state.options.resume && state.options.journalPath.empty())
        state.options.journalPath = "BENCH_" + name + ".journal";
    if (state.options.outPath.empty())
        state.options.outPath = "BENCH_" + name + ".json";

    // Fresh journalled run: truncate once here, then every sweep of
    // this process appends (the runner itself always resumes).
    if (!state.options.journalPath.empty() && !state.options.resume) {
        std::ofstream truncate(state.options.journalPath,
                               std::ios::trunc);
        if (!truncate) {
            std::fprintf(stderr, "cannot create journal %s\n",
                         state.options.journalPath.c_str());
            return 1;
        }
    }

    figure();

    const RunnerCounters &counters = state.counters;
    if (counters.executed != 0 || counters.journalHits != 0) {
        std::printf("\nsweep: %llu executed, %llu from journal, "
                    "%llu retries, %llu timeouts, %llu failed",
                    static_cast<unsigned long long>(counters.executed),
                    static_cast<unsigned long long>(
                        counters.journalHits),
                    static_cast<unsigned long long>(counters.retries),
                    static_cast<unsigned long long>(counters.timeouts),
                    static_cast<unsigned long long>(counters.failures));
        if (counters.backoffs != 0)
            std::printf(", %llu backoffs (%llu ms slept)",
                        static_cast<unsigned long long>(
                            counters.backoffs),
                        static_cast<unsigned long long>(
                            counters.backoffMs));
        if (state.journalBadLines != 0)
            std::printf(", %llu journal lines salvaged",
                        static_cast<unsigned long long>(
                            state.journalBadLines));
        std::printf("\n");
    }
    if (state.traceStore.hits != 0 || state.traceStore.misses != 0) {
        const TraceStoreStats &ts = state.traceStore;
        std::printf("trace store: %llu hits, %llu generated "
                    "(%.1f MiB), %llu evicted, peak %.1f MiB, "
                    "%.1f MiB resident\n",
                    static_cast<unsigned long long>(ts.hits),
                    static_cast<unsigned long long>(ts.misses),
                    static_cast<double>(ts.bytesGenerated) /
                        (1024.0 * 1024.0),
                    static_cast<unsigned long long>(ts.evictions),
                    static_cast<double>(ts.bytesPeak) /
                        (1024.0 * 1024.0),
                    static_cast<double>(ts.bytesCached) /
                        (1024.0 * 1024.0));
    }
    for (const auto &failure : state.failures)
        std::fprintf(stderr, "failed job %s: %s\n",
                     failure.key.c_str(), failure.error.c_str());

    if (!state.options.noJson) {
        if (auto written =
                writeFileAtomic(state.options.outPath, benchJson());
            !written) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         state.options.outPath.c_str(),
                         written.error().str().c_str());
            return 1;
        }
    }

    // Spans flush again at exit; flushing here surfaces write errors
    // while we can still report them, and prints the path once.
    if (obs::traceEventsEnabled()) {
        if (auto flushed = obs::flushTraceEvents(); !flushed) {
            std::fprintf(stderr, "cannot write trace events: %s\n",
                         flushed.error().str().c_str());
            return 1;
        }
        std::printf("trace events: wrote %s\n",
                    obs::traceEventsPath().c_str());
    }
    return state.failures.empty() ? 0 : 3;
}

} // namespace clap::bench

#endif // CLAP_BENCH_BENCH_UTIL_HH

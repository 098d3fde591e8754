/**
 * @file
 * The sweep workload: how the paper's figures are produced. One round
 * is the fig. 5 sweep (stride, CAP and hybrid over the 45-trace
 * catalog, predictor-major, through runPerTraceResilient) followed by
 * the fig. 7 hybrid speedup sweep (runSpeedupResilient), all on one
 * 4-thread SweepRunner and the default trace store. After a warm-up
 * round, rounds repeat until the run's seconds are spent; throughput
 * is the median round's simulated loads per second, latency that of
 * one hybrid sweep job (a cell of the fig. 5 hybrid panel).
 *
 * At kTraceLen the catalog (~19 MiB a trace) is larger than the
 * store's 512 MiB budget, so the predictor-major order evicts every
 * trace before the next pass asks for it again: trace generation, the
 * store and the runner do much of the work here, and nowhere else.
 */

#include <algorithm>
#include <map>

#include "core/cap_predictor.hh"
#include "core/hybrid_predictor.hh"
#include "core/stride_predictor.hh"
#include "ladder.hh"
#include "runner/sweep.hh"
#include "timed_predictor.hh"
#include "trace/trace_store.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace clap::ladder
{

namespace
{

constexpr std::size_t kTraceLen = 500'000;
constexpr unsigned kThreads = 4;
constexpr std::size_t kCheckedTraces = 3;
constexpr unsigned kSamplePeriod = 64;

enum Pass : int
{
    Stride,
    Cap,
    Hybrid,
    Speedup,
    kPasses,
};

constexpr const char *kPassName[kPasses] = {"stride", "cap", "hybrid",
                                            "speedup"};

/**
 * Every predictor is wrapped to log its lifetime, which is how the
 * sweep's job boundaries become visible without touching the runner.
 * Traced rounds also sample the hybrid's predict/update/audit times.
 */
PredictorFactory
factoryFor(Pass pass, LifetimeLog &log, bool traced)
{
    PredictorFactory base;
    switch (pass) {
      case Stride:
        base = [] {
            return std::make_unique<StridePredictor>(StridePredictorConfig{});
        };
        break;
      case Cap:
        base = [] {
            return std::make_unique<CapPredictor>(CapPredictorConfig{});
        };
        break;
      default:
        base = [] {
            return std::make_unique<HybridPredictor>(HybridConfig{});
        };
    }
    const unsigned period = traced && pass >= Hybrid ? kSamplePeriod : 0;
    return [base, &log, period] {
        return std::make_unique<TimedPredictor>(base(), period, &log);
    };
}

double
ns(Clock::duration d)
{
    return std::chrono::duration<double, std::nano>(d).count();
}

/**
 * Where one pass's wall time went, from the predictor lifetimes. A
 * job fetches its trace from the store, then builds its predictor,
 * simulates, audits and drops it, and the worker moves straight on to
 * its next job. So on each worker thread the time before a predictor
 * is born is trace fetching (generation on a miss), the lifetime is
 * simulation, consecutive deaths bracket one job, and the time after
 * the thread's last death is idle.
 */
struct PassTiming
{
    double wallNs = 0.0;
    double busyNs = 0.0;  ///< Σ threads: pass start to last death
    double fetchNs = 0.0; ///< Σ threads: gaps before each birth
    double lifeNs = 0.0;  ///< Σ predictor lifetimes
    Lifetime samples;     ///< Σ sampled call totals

    void
    add(const PassTiming &other)
    {
        wallNs += other.wallNs;
        busyNs += other.busyNs;
        fetchNs += other.fetchNs;
        lifeNs += other.lifeNs;
        samples.addCalls(other.samples);
    }
};

/** Analyse one pass; appends each job's latency (µs) to @p jobs_us. */
PassTiming
analysePass(const std::vector<Lifetime> &lives, Clock::time_point start,
            Clock::time_point end, std::vector<double> &jobs_us)
{
    PassTiming timing;
    timing.wallNs = ns(end - start);
    std::map<std::thread::id, std::vector<const Lifetime *>> by_thread;
    for (const Lifetime &life : lives) {
        by_thread[life.thread].push_back(&life);
        timing.samples.addCalls(life);
    }
    for (auto &[thread, seq] : by_thread) {
        std::sort(seq.begin(), seq.end(),
                  [](const Lifetime *a, const Lifetime *b) {
                      return a->born < b->born;
                  });
        auto previous_end = start;
        for (const Lifetime *life : seq) {
            timing.fetchNs += ns(life->born - previous_end);
            timing.lifeNs += ns(life->died - life->born);
            jobs_us.push_back(ns(life->died - previous_end) / 1e3);
            previous_end = life->died;
        }
        timing.busyNs += ns(previous_end - start);
    }
    return timing;
}

struct Round
{
    bool traced = false;
    bool measured = false; ///< a quiet round after the warm-up
    double wallSec = 0.0;
    std::uint64_t steal = 0; ///< hypervisor steal ticks meanwhile
    std::uint64_t loads = 0; ///< simulated: 3 passes + 2 timing runs
    std::array<TraceSweepOutput, Speedup> perTrace;
    SpeedupSweepOutput speedup;
    std::array<PassTiming, kPasses> timing;
    std::vector<double> hybridJobsUs; ///< each hybrid-pass job's latency

    double throughput() const { return loads / wallSec; }

    std::vector<const SweepReport *>
    reports() const
    {
        return {&perTrace[Stride].report, &perTrace[Cap].report,
                &perTrace[Hybrid].report, &speedup.report};
    }
};

Round
runRound(const std::vector<TraceSpec> &specs, const SweepRunner &runner,
         bool traced, LifetimeLog &log)
{
    Round round;
    round.traced = traced;
    const std::uint64_t steal_start = stealTicks();
    const auto round_start = Clock::now();
    for (int p = Stride; p < kPasses; ++p) {
        const Pass pass = static_cast<Pass>(p);
        const auto start = Clock::now();
        if (pass == Speedup) {
            round.speedup = runSpeedupResilient(
                kPassName[p], specs, factoryFor(Hybrid, log, traced),
                TimingConfig{}, kTraceLen, runner);
        } else {
            round.perTrace[p] = runPerTraceResilient(
                kPassName[p], specs, factoryFor(pass, log, traced),
                PredictorSimConfig{}, kTraceLen, runner);
        }
        std::vector<double> jobs_us;
        round.timing[p] =
            analysePass(log.take(), start, Clock::now(), jobs_us);
        if (pass == Hybrid)
            round.hybridJobsUs = std::move(jobs_us);
    }
    round.wallSec = secondsSince(round_start);
    round.steal = stealTicks() - steal_start;
    for (int p = Stride; p < Speedup; ++p)
        for (const TraceStatsResult &r : round.perTrace[p].results)
            round.loads += r.stats.loads;
    // The speedup pass simulates every hybrid-pass trace twice.
    for (const TraceStatsResult &r : round.perTrace[Hybrid].results)
        round.loads += 2 * r.stats.loads;
    return round;
}

bool
sameResults(const Round &a, const Round &b)
{
    for (int p = Stride; p < Speedup; ++p) {
        for (std::size_t i = 0; i < a.perTrace[p].results.size(); ++i)
            if (!(a.perTrace[p].results[i].stats ==
                  b.perTrace[p].results[i].stats))
                return false;
    }
    for (std::size_t i = 0; i < a.speedup.results.size(); ++i) {
        if (a.speedup.results[i].baseCycles !=
                b.speedup.results[i].baseCycles ||
            a.speedup.results[i].predCycles !=
                b.speedup.results[i].predCycles)
            return false;
    }
    return true;
}

} // namespace

Report
runSweep(const Options &opts)
{
    Report report;

    // Set-up: the seeded catalog, the runner, and the serial reference
    // the parallel sweep is checked against (a hybrid simulation of
    // checked traces drawn from the seed). The catalog's traces are
    // generated lazily by the store inside the sweep: measured work.
    setStage("set-up");
    RunnerConfig config;
    config.threads = kThreads;
    std::vector<TraceSpec> specs;
    std::vector<std::size_t> checked;
    std::vector<std::shared_ptr<const Trace>> check_traces;
    std::vector<PredictionStats> serial;
    TraceCost check_cost;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        check_traces.clear();
        serial.clear();
        checked.clear();
        const auto begin = Clock::now();
        specs = buildCatalog();
        for (TraceSpec &spec : specs)
            spec = seeded(std::move(spec), opts.seed);
        Rng pick(opts.seed);
        while (checked.size() < kCheckedTraces) {
            const std::size_t c = pick.below(specs.size());
            if (std::find(checked.begin(), checked.end(), c) ==
                checked.end())
                checked.push_back(c);
        }
        for (std::size_t c : checked) {
            check_traces.push_back(
                generateTraces({specs[c]}, kTraceLen, check_cost).front());
            HybridPredictor hybrid(HybridConfig{});
            serial.push_back(runPredictorSim(*check_traces.back(), hybrid));
        }
        setup_s.push_back(secondsSince(begin));
    }
    const SweepRunner runner(config);

    // Round 0 warms up (the store, the allocator's arenas) and is
    // checked but not measured; the measured rounds follow for the
    // run's seconds. Traced runs alternate traced and untraced rounds.
    LifetimeLog log;
    std::vector<Round> rounds;
    Clock::time_point start;
    while (rounds.size() < (opts.traced ? 3u : 2u) ||
           secondsSince(start) < opts.seconds) {
        if (rounds.size() == 1)
            start = Clock::now();
        const bool traced = opts.traced && rounds.size() % 2 == 1;
        setStage(rounds.empty() ? "sweep warm-up round"
                 : traced       ? "sweep round (traced)"
                                : "sweep round");
        rounds.push_back(runRound(specs, runner, traced, log));
        for (const SweepReport *sweep : rounds.back().reports()) {
            report.attempted += sweep->outcomes.size();
            for (const JobOutcome &outcome : sweep->outcomes)
                if (!outcome.ok)
                    ++report.failed;
            if (!sweep->status)
                report.fail("sweep: " + sweep->status.error().str());
        }
        noteAttempted(report.attempted);
    }
    const double peak_rss = peakRssMib();

    setStage("checks");
    const Round &first = rounds.front();
    for (const SweepReport *sweep : first.reports())
        for (const JobOutcome &outcome : sweep->outcomes)
            if (!outcome.ok)
                report.fail("job " + outcome.key + ": " +
                            outcome.error.str());
    for (std::size_t r = 1; r < rounds.size(); ++r)
        if (!sameResults(first, rounds[r]))
            report.fail("round " + std::to_string(r) +
                        " results differ from round 0");
    for (std::size_t k = 0; k < checked.size(); ++k)
        if (!(serial[k] == first.perTrace[Hybrid].results[checked[k]].stats))
            report.fail("jobs=4 hybrid stats of " + specs[checked[k]].name +
                        " differ from a serial simulation");

    // The reproduced results, identical in every round of a seed.
    const PredictionStats average =
        aggregateBySuite(first.perTrace[Hybrid].results).back().stats;
    std::vector<double> speedups;
    for (const SpeedupResult &r : first.speedup.results)
        speedups.push_back(r.speedup());
    const double speedup = geomean(speedups);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "hybrid: spec_rate=%.6f spec_accuracy=%.6f "
                  "sim_speedup=%.6f over %zu traces",
                  average.predictionRate(), average.accuracy(), speedup,
                  specs.size());
    report.note(line);

    // Throughput: the median round. Latency: a hybrid-pass job (one
    // cell of fig. 5's hybrid panel), pooled over rounds, since one
    // round's 45 jobs hold too few samples beyond its p90. (Over every
    // pass, the jobs fall in one cluster per predictor and the median
    // sits in the gap between the CAP and hybrid clusters.)
    // Both over the quiet (quietIntervals) untraced measured rounds,
    // and the traced rounds likewise for the overhead.
    std::array<std::vector<Round *>, 2> by_mode;
    for (auto round = rounds.begin() + 1; round != rounds.end(); ++round)
        by_mode[round->traced].push_back(&*round);
    std::array<std::vector<double>, 2> tput;
    std::vector<double> jobs_us;
    for (int traced = 0; traced < 2; ++traced) {
        std::vector<double> steal_per_s;
        for (const Round *round : by_mode[traced])
            steal_per_s.push_back(static_cast<double>(round->steal) /
                                  round->wallSec);
        const std::vector<bool> keep = quietIntervals(steal_per_s);
        for (std::size_t r = 0; r < by_mode[traced].size(); ++r) {
            Round &round = *by_mode[traced][r];
            round.measured = keep[r];
            if (!keep[r])
                continue;
            tput[traced].push_back(round.throughput());
            if (!traced)
                jobs_us.insert(jobs_us.end(), round.hybridJobsUs.begin(),
                               round.hybridJobsUs.end());
        }
    }
    std::string rates = "rounds (loads/s / hypervisor steal ticks; "
                        "w = warm-up, * = left out):";
    for (const Round &round : rounds) {
        rates += ' ' + std::to_string(static_cast<long>(round.throughput()));
        rates += round.traced ? "t" : "";
        rates += '/' + std::to_string(round.steal);
        rates += &round == &rounds.front() ? "w" : round.measured ? "" : "*";
    }
    report.note(rates);
    const LatencySummary jobs =
        summarizeUs(report, "hybrid_job_latency_us (pooled)", jobs_us);
    report.set("throughput_loads_per_s", median(tput[0]));
    report.set("latency_p50_us", jobs.p50);
    report.set("latency_p90_us", jobs.p90);
    reportSetup(report, setup_s);
    report.set("peak_rss_mib", peak_rss);

    if (!opts.traced)
        return report;

    setStage("per-layer");
    PassTiming all;
    PassTiming fetch_passes;
    PassTiming hybrid;
    std::array<double, kPasses> life_ns{};
    std::array<double, kPasses> loads{};
    double misses = 0.0;
    double fetch_misses = 0.0;
    double evictions = 0.0;
    double retries = 0.0;
    double failed_jobs = 0.0;
    unsigned traced_rounds = 0;
    for (const Round &round : rounds) {
        if (!round.traced)
            continue;
        ++traced_rounds;
        hybrid.add(round.timing[Hybrid]);
        for (int p = Stride; p < kPasses; ++p) {
            all.add(round.timing[p]);
            life_ns[p] += round.timing[p].lifeNs;
            const SweepReport &sweep = *round.reports()[p];
            misses += sweep.traceStore.misses;
            evictions += sweep.traceStore.evictions;
            retries += sweep.counters.retries;
            failed_jobs += sweep.counters.failures;
            if (p != Speedup) {
                // A speedup job runs its baseline simulation before
                // building the predictor: its gap is not all fetching.
                fetch_passes.add(round.timing[p]);
                fetch_misses += sweep.traceStore.misses;
                for (const TraceStatsResult &r : round.perTrace[p].results)
                    loads[p] += r.stats.loads;
            }
        }
    }
    double records_per_trace = 0.0;
    for (const auto &trace : check_traces)
        records_per_trace += static_cast<double>(trace->size()) /
                             static_cast<double>(check_traces.size());
    reportTraceCost(report, check_cost);
    if (fetch_misses > 0.0)
        report.set("trace.generate_ns_per_record",
                   fetch_passes.fetchNs /
                       (fetch_misses * records_per_trace));
    report.set("trace.store_misses", misses / traced_rounds);
    report.set("trace.store_evictions", evictions / traced_rounds);
    report.set("runner.busy_frac", all.busyNs / (kThreads * all.wallNs));
    report.set("runner.retries", retries);
    report.set("runner.failed_jobs", failed_jobs);
    for (int p = Stride; p < Speedup; ++p)
        report.set(std::string("sim.predictor_ns_per_load.") +
                       kPassName[p],
                   life_ns[p] / loads[p]);
    report.set("sim.timing_ns_per_inst",
               life_ns[Speedup] / (static_cast<double>(specs.size()) *
                                   records_per_trace * traced_rounds));
    report.set("sim.spec_rate", average.predictionRate());
    report.set("sim.spec_accuracy", average.accuracy());
    report.set("sim.speedup", speedup);
    reportCoreSamples(report, hybrid.samples);
    report.set("obs.trace_overhead", median(tput[1]) / median(tput[0]));
    return report;
}

} // namespace clap::ladder

/**
 * @file
 * Shared pieces of bench_ladder: options, the per-run report, the
 * seeded inputs, the measurement window shared by the request-serving
 * workloads, and the scrape of a server's metrics registry.
 */

#ifndef CLAP_BENCH_LADDER_LADDER_HH
#define CLAP_BENCH_LADDER_LADDER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/client.hh"
#include "obs/metrics.hh"
#include "serve/service.hh"
#include "stats.hh"
#include "timed_predictor.hh"
#include "trace/trace.hh"
#include "workloads/composer.hh"

namespace clap::ladder
{

using Clock = std::chrono::steady_clock;

/** Warm-up before every request-serving window. */
constexpr double kWarmupSeconds = 3.0;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 7;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool traced = false;
    std::string runDir = "ladder-run"; ///< sockets and daemon logs
};

/**
 * What one workload run reports. Metric values are keyed by name; the
 * units and the split into end-to-end and per-layer live in the
 * metric tables of ladder.cc.
 */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::vector<std::string> notes; ///< printed before the JSON line

    void set(const std::string &name, double value) { metrics[name] = value; }
    void note(const std::string &line) { notes.push_back(line); }

    /** A failed output check: the run is not correct. */
    void
    fail(const std::string &what)
    {
        correct = false;
        notes.push_back("CHECK FAILED: " + what);
    }
};

Report runSweep(const Options &opts);
Report runServeClosed(const Options &opts);
Report runWireOpen(const Options &opts);
Report runFleetClosed(const Options &opts);

/// @name Watchdog-visible progress (ladder.cc)
/// @{
/** Name the current stage; the watchdog reports it on expiry. */
void setStage(const char *stage);
/** Raise the attempted-operation count the watchdog reports. */
void noteAttempted(std::uint64_t attempted);
/// @}

/** Seconds elapsed since @p since. */
inline double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

/** @p spec with the run seed mixed into its trace seed. */
TraceSpec seeded(TraceSpec spec, std::uint64_t seed);

/** The representative (first) trace of each named suite, seeded. */
std::vector<TraceSpec> suiteHeads(const std::vector<std::string> &suites,
                                  std::uint64_t seed);

/** Generation cost of the traces one set-up built. */
struct TraceCost
{
    double ns = 0.0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
};

/** Generate @p specs at @p len instructions outside the trace store
 *  (so repeated set-ups repeat the work), accumulating into @p cost. */
std::vector<std::shared_ptr<const Trace>>
generateTraces(const std::vector<TraceSpec> &specs, std::size_t len,
               TraceCost &cost);

/** Set setup_s to the median of @p setup_s and note every set-up's
 *  time. */
void reportSetup(Report &report, const std::vector<double> &setup_s);

/** Set the per-layer trace.* metrics for traces built in set-up. */
void reportTraceCost(Report &report, const TraceCost &cost);

/**
 * Measure the sim and core layers over @p trace, for workloads that
 * bypass them: stride, CAP and a sampled-timing hybrid replayed once
 * each (sim.predictor_ns_per_load.*, sim.spec_*, core.*), five timed
 * audits of the warmed hybrid, and the timing model without and with
 * a hybrid (sim.timing_ns_per_inst, sim.speedup).
 */
void probeLayers(Report &report, const Trace &trace);

/** Set core.* from sampled call totals (see TimedPredictor). */
void reportCoreSamples(Report &report, const Lifetime &samples);

/** VmHWM of process @p pid (0 = this process) in MiB; 0 if unknown. */
double peakRssMib(int pid = 0);

/// @name Request-serving window
/// @{

/**
 * The measurement clock the client threads follow: the second of the
 * measured window it is now, kWarmup before and kStop after. Seconds
 * from tracedFrom on form the traced half (traced runs measure their
 * first half untraced, the second traced).
 */
struct Window
{
    static constexpr int kWarmup = -1;
    static constexpr int kStop = -2;

    explicit Window(const Options &opts)
        : seconds(static_cast<int>(opts.seconds)),
          tracedFrom(opts.traced ? seconds / 2 : seconds)
    {
    }

    const int seconds;
    const int tracedFrom;
    std::atomic<int> second{kWarmup};
};

/** One client thread's tallies (owned by that thread until joined). */
struct ClientTally
{
    explicit ClientTally(const Window &window)
        : predictNs(static_cast<std::size_t>(window.seconds))
    {
    }

    std::uint64_t attempted = 0; ///< operations issued (predict, train)
    std::uint64_t failed = 0;    ///< operations that returned an error
    /// Completed predict+train pairs; read by the window sampler.
    alignas(64) std::atomic<std::uint64_t> pairs{0};

    /// Predict latency samples in ns (from the send), per second of the
    /// window.
    std::vector<std::vector<std::uint32_t>> predictNs;

    /// @name Open loop, whole window: predict latency from the due
    /// time, and how far the generator ran behind its schedule
    /// @{
    std::vector<std::uint32_t> dueNs;
    std::vector<std::uint32_t> lateNs;
    /// @}

    /// Train latency samples, traced half only.
    std::vector<std::uint32_t> trainNs;
};

using Tallies = std::vector<std::unique_ptr<ClientTally>>;

/** Clamp a ns duration into a sample slot. */
std::uint32_t sampleNs(std::int64_t ns);

/** ns from @p begin to @p end as a sample. */
inline std::uint32_t
sampleNs(Clock::time_point begin, Clock::time_point end)
{
    return sampleNs(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
}

/**
 * The next load of @p trace at or after @p pos, replayed in a loop:
 * branches and calls on the way update @p client's history exactly as
 * replayTrace does (ClientSession and NetClient share the interface).
 */
template <class Client>
const TraceRecord &
nextLoad(const Trace &trace, std::size_t &pos, Client &client)
{
    for (;;) {
        if (pos == trace.size())
            pos = 0;
        const TraceRecord &rec = trace[pos++];
        if (rec.isLoad())
            return rec;
        if (rec.isBranch())
            client.observeBranch(rec.taken);
        else if (rec.cls == InstClass::Call)
            client.observeCall(rec.pc);
    }
}

/// @name One load through either client shape
/// @{
inline Expected<Prediction>
predictLoad(ClientSession &session, const TraceRecord &rec)
{
    return session.predict(rec.pc, rec.immOffset);
}
inline Expected<void>
trainLoad(ClientSession &session, const TraceRecord &rec,
          const Prediction &pred)
{
    return session.train(rec.pc, rec.immOffset, rec.effAddr, pred);
}
inline Expected<Prediction>
predictLoad(net::NetClient &client, const TraceRecord &rec)
{
    return client.predict(client.makeInfo(rec.pc, rec.immOffset));
}
inline Expected<void>
trainLoad(net::NetClient &client, const TraceRecord &rec,
          const Prediction &pred)
{
    return client.train(client.makeInfo(rec.pc, rec.immOffset),
                        rec.effAddr, pred);
}
/// @}

/**
 * One closed-loop client: predict the next load of @p trace, train it
 * with the actual address, repeat until the window stops. The predict
 * call is timed in the measured window, the train call in its traced
 * half.
 */
template <class Client>
void
closedLoop(Client &client, const Trace &trace, ClientTally &tally,
           const Window &window)
{
    std::size_t pos = 0;
    for (int s; (s = window.second.load(std::memory_order_relaxed)) !=
                Window::kStop;) {
        const TraceRecord &rec = nextLoad(trace, pos, client);
        ++tally.attempted;
        const auto begin = Clock::now();
        auto pred = predictLoad(client, rec);
        const auto predicted = Clock::now();
        if (!pred) {
            ++tally.failed;
            continue;
        }
        if (s >= 0)
            tally.predictNs[s].push_back(sampleNs(begin, predicted));
        ++tally.attempted;
        auto trained = trainLoad(client, rec, *pred);
        if (s >= window.tracedFrom)
            tally.trainNs.push_back(sampleNs(predicted, Clock::now()));
        if (!trained) {
            ++tally.failed;
            continue;
        }
        tally.pairs.fetch_add(1, std::memory_order_relaxed);
    }
}

/** Hypervisor steal time of this machine so far, in clock ticks
 *  (/proc/stat; 0 where the kernel does not account it). */
std::uint64_t stealTicks();

/** Per second of the window: completed pairs per second, and the
 *  hypervisor steal ticks during that second. */
struct WindowSeconds
{
    std::vector<double> rates;
    std::vector<std::uint64_t> steal;
};

/**
 * Drive the window from the calling thread: warm up, then advance
 * window.second once a second, sampling every client's completed
 * pairs and the steal counter. @p on_traced runs just before the
 * traced half (layer counter baselines). Ends in kStop.
 */
WindowSeconds runWindow(Window &window, const Tallies &tallies,
                        const std::function<void()> &on_traced);

/**
 * The end-to-end metrics shared by the request-serving workloads,
 * plus attempted/failed. Throughput and latency (p50, p90) are
 * medians of per-second values over the quiet (quietIntervals)
 * untraced seconds, so a stall moves one second, not the run. The
 * traced half gives obs.trace_overhead. Pooled latency lines (sample
 * count, deep percentile) go to the report notes.
 */
void reportWindow(Report &report, const Window &window,
                  const WindowSeconds &seconds, const Tallies &tallies);

/** Pool one sample vector of every tally, converted from ns to µs. */
std::vector<double>
poolUs(const Tallies &tallies,
       const std::function<const std::vector<std::uint32_t> &(
           const ClientTally &)> &pick);

/** Pool the predict samples of seconds [first, last) in µs. */
std::vector<double> poolPredictUs(const Tallies &tallies, int first,
                                  int last);

/** Summarise µs samples and note the line
 *  "<name> n=… p50=… p90=… p99=… p<deep>=… max=… us". */
LatencySummary summarizeUs(Report &report, const std::string &name,
                           std::vector<double> samples_us);

/// @}

/// @name Registry scrapes (in process, or ObsFetch from a daemon)
/// @{

/** Counters and histograms of one metrics registry. */
struct Scrape
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, obs::HistogramSnapshot> histograms;

    /** Sum another registry into this one (a fleet of replicas). */
    void add(const Scrape &other);

    /** This scrape minus an earlier one of the same registry. */
    Scrape since(const Scrape &before) const;

    std::uint64_t counter(const std::string &name) const;
    const obs::HistogramSnapshot &histogram(const std::string &name) const;
};

/** This process's registry. */
Scrape scrapeLocal();

/** A server's registry over the wire (timing sections included). */
Scrape scrapeRemote(net::NetClient &admin, Report &report);

/** The serve.* per-layer metrics a service's registry gives; the
 *  stage p99s go to the notes. */
void reportServeRegistry(Report &report, const Scrape &delta);

/** The net.stage.*_share and admission per-layer metrics from a front
 *  door's registry; the stage p99s go to the notes. */
void reportNetStages(Report &report, const Scrape &delta);

/// @}

} // namespace clap::ladder

#endif // CLAP_BENCH_LADDER_LADDER_HH

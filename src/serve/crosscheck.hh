/**
 * @file
 * Trace replay through a service session, and the semantics
 * cross-check that anchors the whole serve/ layer: a single-client
 * service run over a trace must produce aggregate PredictionStats
 * exactly — counter for counter — equal to the sharded PredictorSim
 * reference on the same trace. For one shard the reference is a plain
 * runPredictorSim over the unmodified trace; for N shards it is N
 * independent sims, each over the trace with the other shards' loads
 * removed (branches and calls are kept, so every shard sees the same
 * global history the service sessions maintain).
 *
 * The check covers the immediate-update model (gapCycles == 0), which
 * is the model the service implements: a client resolves each
 * prediction via train() before predicting its next load.
 */

#ifndef CLAP_SERVE_CROSSCHECK_HH
#define CLAP_SERVE_CROSSCHECK_HH

#include <cstddef>
#include <cstdint>

#include "serve/service.hh"
#include "trace/trace.hh"

namespace clap
{

/** Counters from one trace replay through a ClientSession. */
struct ReplayResult
{
    std::uint64_t loads = 0;      ///< load records encountered
    std::uint64_t predicts = 0;   ///< predict requests completed
    std::uint64_t trains = 0;     ///< train requests applied
    std::uint64_t unavailable = 0;///< requests shed while quarantined

    /** Accumulate the counters of a replay of a later record range. */
    void
    add(const ReplayResult &other)
    {
        loads += other.loads;
        predicts += other.predicts;
        trains += other.trains;
        unavailable += other.unavailable;
    }

    bool operator==(const ReplayResult &) const = default;
};

/**
 * Replay records [@p first, @p last) of @p trace (by default all of
 * them) through @p session in the immediate-update model: every load
 * is predicted and then trained with its actual address; branches
 * and calls update the session history exactly as runPredictorSim
 * maintains its globals. ShardUnavailable requests are counted and
 * shed (their train is skipped) — a transient recovery outcome a
 * client rides out; any other failure aborts the replay. Replaying
 * consecutive ranges through one session equals one whole replay.
 */
Expected<ReplayResult> replayTrace(ClientSession &session,
                                   const Trace &trace,
                                   std::size_t first = 0,
                                   std::size_t last = SIZE_MAX);

/** Both sides of the semantics cross-check. */
struct CrosscheckResult
{
    PredictionStats service;   ///< single-client service aggregate
    PredictionStats reference; ///< sharded PredictorSim aggregate

    bool equal() const { return service == reference; }
};

/**
 * The sharded PredictorSim reference for @p shards shards: per shard,
 * run a factory-fresh predictor over @p trace with the other shards'
 * loads filtered out, and merge. shards == 1 is a plain PredictorSim
 * run of the unmodified trace.
 */
PredictionStats shardedReferenceStats(const Trace &trace,
                                      const PredictorFactory &factory,
                                      unsigned shards);

/**
 * Run the full cross-check for @p trace: one session replaying it
 * through a service built from @p config, against
 * shardedReferenceStats with the same factory and shard count. Fails
 * only on service errors; a stats mismatch is reported through
 * CrosscheckResult::equal() so callers can print both sides.
 */
Expected<CrosscheckResult> crosscheckTrace(const Trace &trace,
                                           const PredictorFactory &factory,
                                           const ServiceConfig &config);

} // namespace clap

#endif // CLAP_SERVE_CROSSCHECK_HH

/**
 * @file
 * Seeded chaos harness for the prediction service: extends the
 * sim-layer fault injector (sim/fault_injector.hh) to the serve
 * layer. Where the simulator flips bits inline during a run, the
 * chaos engine attacks a live PredictionService from outside —
 * corrupting predictor state under the shard lock, throwing from
 * inside a shard's next request, and truncating or corrupting the
 * supervisor's on-disk snapshot files — then (optionally) reports the
 * damage so the supervisor's recovery protocol runs.
 *
 * Everything is driven by one seeded RNG: a given (seed, fault mix,
 * request stream) triple reproduces the exact same injection
 * sequence, which is what makes bench_chaos's BENCH_chaos.json
 * deterministic.
 *
 * Fault classes:
 *  - LbBitFlip / LtBitFlip: one random bit in the target shard's
 *    LoadBuffer / LinkTable state, via a fresh FaultInjector armed to
 *    fire exactly once (rate = 10^6 faults per million loads, one
 *    onLoad() call) with a sequence-evolved seed. The injector is
 *    built per flip because it holds raw table pointers — a shard
 *    whose predictor was replaced by recovery must be re-attached.
 *  - WorkerKill: PredictionService::injectWorkerFault — the next
 *    request on the shard throws under the shard lock, exercising the
 *    exception-detect path. That request completes without touching
 *    the predictor, so strict stats equality does not survive a kill
 *    (the documented replay window deviation); recovery completeness
 *    does.
 *  - SnapshotTruncate / SnapshotCorrupt: damage the shard's snapshot
 *    file on disk (truncate at a random offset / flip one random
 *    byte), exercising the salvage and fresh-restart rungs of the
 *    recovery ladder.
 */

#ifndef CLAP_SERVE_CHAOS_HH
#define CLAP_SERVE_CHAOS_HH

#include <cstdint>
#include <string>

#include "serve/service.hh"
#include "serve/supervisor.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace clap
{

/** One of the serve-layer fault classes. */
enum class ChaosFault : std::uint8_t
{
    LbBitFlip,
    LtBitFlip,
    WorkerKill,
    SnapshotTruncate,
    SnapshotCorrupt,
};

/** Printable name of a ChaosFault. */
const char *chaosFaultName(ChaosFault fault);

/** Chaos-engine knobs. */
struct ChaosConfig
{
    /// Seed of the injection sequence (shard choice, bit choice,
    /// damage offsets). Same seed, same sequence.
    std::uint64_t seed = 0xc4a05;

    /// @name Enabled fault classes
    /// @{
    bool flipLb = true;
    bool flipLt = true;
    bool killWorkers = false; ///< off by default: voids strict stats
                              ///< equality (see file comment)
    bool damageSnapshots = true;
    /// @}

    /** Structural sanity checks. */
    Expected<void>
    validate() const
    {
        if (!flipLb && !flipLt && !killWorkers && !damageSnapshots) {
            return detail::configError(
                "ChaosConfig", "at least one fault class must be on");
        }
        return ok();
    }
};

/** What one injection did. */
struct ChaosInjection
{
    ChaosFault fault = ChaosFault::LbBitFlip;
    unsigned shard = 0;
    std::string detail; ///< human-readable description
};

/** Injected-fault tally per class. */
struct ChaosCounts
{
    std::uint64_t lbFlips = 0;
    std::uint64_t ltFlips = 0;
    std::uint64_t workerKills = 0;
    std::uint64_t snapshotTruncations = 0;
    std::uint64_t snapshotCorruptions = 0;

    std::uint64_t
    total() const
    {
        return lbFlips + ltFlips + workerKills + snapshotTruncations +
               snapshotCorruptions;
    }
};

/** Seeded serve-layer fault injector (see file comment). */
class ChaosEngine
{
  public:
    /** @throws std::invalid_argument when @p config fails validate(). */
    ChaosEngine(PredictionService &service, ShardSupervisor &supervisor,
                const ChaosConfig &config);

    const ChaosConfig &config() const { return config_; }
    const ChaosCounts &counts() const { return counts_; }

    /**
     * Inject one fault of an enabled class into an RNG-chosen shard.
     * State flips are reported to the service as a shard failure
     * (failShard), mirroring an external corruption detector; worker
     * kills arm the next batch; snapshot damage only touches disk.
     * @return what was done, or an Error when the chosen fault could
     * not be applied (e.g. snapshot file missing).
     */
    Expected<ChaosInjection> injectFault();

    /** Inject a fault of a specific class into a specific shard. */
    Expected<ChaosInjection> injectFault(ChaosFault fault,
                                         unsigned shard);

    /**
     * Truncate (@p corrupt false) or byte-flip (@p corrupt true) the
     * shard's snapshot file at an RNG-chosen position.
     */
    Expected<ChaosInjection> damageSnapshotFile(unsigned shard,
                                                bool corrupt);

  private:
    Expected<ChaosInjection> flipShardState(unsigned shard, bool lt);

    PredictionService &service_;
    ShardSupervisor &supervisor_;
    ChaosConfig config_;
    Rng rng_;
    std::uint64_t sequence_ = 0; ///< evolves per-flip injector seeds
    ChaosCounts counts_;
};

} // namespace clap

#endif // CLAP_SERVE_CHAOS_HH

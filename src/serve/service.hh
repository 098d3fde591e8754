/**
 * @file
 * Sharded, batched load-address prediction service. Turns the inline
 * predictors (core/) into a concurrently queryable component: a
 * PredictionService owns N predictor shards — each a full
 * CAP/stride/hybrid instance behind its own mutex — and routes every
 * request to the shard selected by a hash of the load PC, so the
 * per-static-load state (LB entry, stride state, LT links reached
 * from it) of one static load never crosses shards.
 *
 * Requests enter through per-client ClientSessions and queue into a
 * bounded per-shard MPSC mailbox (serve/queue.hh). Backpressure is a
 * first-class outcome: under OverloadPolicy::Block producers wait for
 * queue space; under OverloadPolicy::Reject a full shard fails the
 * request with a structured ErrorCode::Overloaded. Each shard's
 * worker drains its queue in batches of up to maxBatch requests,
 * paying the mutex/notify cost once per batch instead of once per
 * request, and runs the structural invariant auditor (core/audit.hh)
 * over the shard's predictor after every auditEveryBatches-th batch.
 * That per-batch audit is the dirty-set walk: it checks only the LB
 * and LT sets written since they last passed, a few sets per batch
 * rather than every entry. captureShardState() runs the full audit,
 * so a shard corrupted outside the table APIs (which marks no set) is
 * refused, not persisted.
 *
 * Deterministic mode (ServiceConfig::deterministic) runs without
 * worker threads: the submitting thread itself drains the shard
 * inline through the very same batch path. With one client this makes
 * the service a pure function of the request sequence, which is what
 * the cross-check (serve/crosscheck.hh) exploits to prove the service
 * layer does not change prediction semantics: its aggregate
 * PredictionStats must equal a plain PredictorSim run bit for bit.
 */

#ifndef CLAP_SERVE_SERVICE_HH
#define CLAP_SERVE_SERVICE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hh"
#include "core/predictor.hh"
#include "core/state_io.hh"
#include "sim/metrics.hh"
#include "util/bits.hh"
#include "util/error.hh"

namespace clap
{

/// Builds a fresh predictor per shard (same alias as
/// sim/experiment.hh; redeclared here to keep this header light).
using PredictorFactory =
    std::function<std::unique_ptr<AddressPredictor>()>;

/** What a full shard queue does to the submitting client. */
enum class OverloadPolicy : std::uint8_t
{
    Block,  ///< producer waits for queue space
    Reject, ///< request fails with ErrorCode::Overloaded
};

/** Service-level knobs; predictor geometry comes from the factory. */
struct ServiceConfig
{
    /// Predictor shards; must be a power of two so the PC hash can
    /// select one with a mask.
    unsigned shards = 4;

    /// Per-shard request queue capacity (backpressure bound).
    std::size_t queueCapacity = 1024;

    /// Requests a shard worker drains per queue round-trip.
    std::size_t maxBatch = 64;

    OverloadPolicy overload = OverloadPolicy::Block;

    /// No worker threads: the submitting thread drains the target
    /// shard inline after every request. Single-client only; exists
    /// for the semantics cross-check and for debugging.
    bool deterministic = false;

    /// Run the dirty-set audit (AddressPredictor::auditDirty) on a
    /// shard's predictor after every N-th processed batch (0
    /// disables); it checks the table sets written since they last
    /// passed. Audit failures are recorded per shard and surfaced via
    /// PredictionService::health(). The full audit runs before every
    /// captureShardState() regardless of this setting.
    unsigned auditEveryBatches = 1;

    /// Bounded per-shard journal of requests applied since the last
    /// captureShardState() call (0 disables journaling). The journal
    /// is what restoreShardState() replays to roll a shard forward
    /// from its last snapshot; on overflow the journal is discarded
    /// and marked, voiding the exact-replay guarantee until the next
    /// capture.
    std::size_t journalCapacity = 0;

    /** Structural sanity checks; call before building a service. */
    Expected<void>
    validate() const
    {
        if (shards == 0 || shards > 4096 || !isPowerOf2(shards)) {
            return detail::configError(
                "ServiceConfig",
                "shards must be a power of two in 1..4096, got " +
                    std::to_string(shards));
        }
        if (queueCapacity == 0) {
            return detail::configError(
                "ServiceConfig", "queueCapacity must be >= 1");
        }
        if (maxBatch == 0 || maxBatch > queueCapacity) {
            return detail::configError(
                "ServiceConfig",
                "maxBatch must be within 1..queueCapacity (maxBatch=" +
                    std::to_string(maxBatch) + ", queueCapacity=" +
                    std::to_string(queueCapacity) + ")");
        }
        return ok();
    }
};

/**
 * The shard a load PC routes to. A pure function of (pc, shards), so
 * one static load can never map to two shards — the invariant that
 * keeps per-static-load predictor state shard-local. PCs are strongly
 * clustered, hence the mix64 finalizer before taking the low bits.
 */
inline unsigned
shardOfPc(std::uint64_t pc, unsigned shards)
{
    return static_cast<unsigned>(mix64(pc) & mask(floorLog2(shards)));
}

/** Point-in-time view of one shard (monitoring / bench reporting). */
struct ShardSnapshot
{
    PredictionStats stats;        ///< tallied at train resolution
    std::uint64_t predicts = 0;   ///< predict requests processed
    std::uint64_t trains = 0;     ///< train requests processed
    std::uint64_t batches = 0;    ///< queue drain rounds
    std::uint64_t audits = 0;     ///< per-batch auditor runs
    std::uint64_t rejected = 0;   ///< requests refused as Overloaded
    std::size_t queueDepth = 0;   ///< current mailbox depth
    std::size_t maxQueueDepth = 0;///< mailbox high-water mark
    bool auditFailed = false;
    Error auditError;             ///< valid when auditFailed

    /// @name Lifecycle state (snapshot/restore, quarantine)
    /// @{
    bool quarantined = false;     ///< new requests fail ShardUnavailable
    std::uint64_t unavailable = 0;///< requests refused while quarantined
    std::uint64_t captures = 0;   ///< state captures taken
    std::uint64_t restores = 0;   ///< state restores applied
    std::uint64_t quarantines = 0;///< quarantine episodes entered
    std::size_t journalDepth = 0; ///< requests journaled since capture
    bool journalOverflowed = false;
    bool workerFailed = false;    ///< worker batch threw / injected kill
    Error workerError;            ///< valid when workerFailed
    /// @}

    /// Predictor-state introspection (core/telemetry.hh), taken under
    /// the shard lock so it is consistent with stats. Diagnostic only
    /// — never part of the PredictionStats equality contract.
    PredictorTelemetry telemetry;
};

class ClientSession;

class PredictionService
{
  public:
    /**
     * Build a service of config.shards predictors (one factory call
     * per shard) and start the shard workers (none in deterministic
     * mode). Throws std::invalid_argument on an invalid config, like
     * the predictor constructors (core/config.hh validated()).
     */
    PredictionService(const ServiceConfig &config,
                      PredictorFactory factory);
    ~PredictionService();

    PredictionService(const PredictionService &) = delete;
    PredictionService &operator=(const PredictionService &) = delete;

    const ServiceConfig &config() const { return config_; }

    unsigned
    shardOf(std::uint64_t pc) const
    {
        return shardOfPc(pc, config_.shards);
    }

    /** Open a session; one per client thread, not thread-safe. */
    ClientSession connect();

    /**
     * Form a prediction for @p info, synchronously: enqueue on the
     * PC's shard and wait for the shard worker's response. Fails with
     * Overloaded (Reject policy, full queue) or Shutdown (service
     * stopped — including producers that were blocked in push() when
     * stop() closed the queue).
     */
    Expected<Prediction> predict(const LoadInfo &info);

    /**
     * Resolve a prior prediction with the load's actual address.
     * Fire-and-forget: returns once the request is queued (the shard
     * applies it in FIFO order, hence before any later predict of the
     * same PC from this client). Same failure modes as predict().
     */
    Expected<void> train(const LoadInfo &info,
                         std::uint64_t actual_addr,
                         const Prediction &pred);

    /**
     * Stop accepting requests, drain every shard queue, and join the
     * workers. Idempotent; also run by the destructor. Outstanding
     * requests are processed, not dropped, so no client hangs.
     */
    void stop();

    bool stopped() const;

    /** Sum of the per-shard statistics (train-resolved tallies). */
    PredictionStats aggregateStats() const;

    /** Current depth of one shard's mailbox (admission control). */
    std::size_t queueDepth(unsigned shard_index) const;

    /**
     * Sum of all shard mailbox depths — the load signal the network
     * gateway's admission control maps to Accept/Shed/Reject. Cheap
     * (one mutex-guarded size read per shard, no predictor locks), so
     * it can run per-request.
     */
    std::size_t totalQueueDepth() const;

    /** Sum of per-shard queue capacities (admission denominator). */
    std::size_t
    totalQueueCapacity() const
    {
        return static_cast<std::size_t>(config_.shards) *
               config_.queueCapacity;
    }

    /** Per-shard monitoring snapshot, in shard order. */
    std::vector<ShardSnapshot> snapshot() const;

    /**
     * First recorded per-shard audit failure, if any — the service
     * keeps serving after one (predictor state is speculative;
     * corruption costs accuracy, not correctness), but reports it.
     */
    Expected<void> health() const;

    /// @name Shard lifecycle (serve/supervisor.hh drives these)
    /// @{

    /**
     * Serialize shard @p shard_index — predictor state (core/state_io)
     * plus the serve-side counters as a caller section — under the
     * shard lock, and reset the journal epoch: requests applied after
     * this capture are journaled for restoreShardState() to replay.
     * The full audit() runs first: on a violation the capture is
     * refused with its CorruptedState error, which is also recorded
     * as the shard's audit failure (shardHealth() reports it).
     */
    Expected<std::string> captureShardState(unsigned shard_index);

    /**
     * Restore shard @p shard_index from captureShardState() bytes,
     * then replay the since-capture journal through the restored
     * predictor, bringing it bit-for-bit to the pre-failure state
     * (provided the journal never overflowed). The journal is kept,
     * not cleared: its epoch stays the capture the bytes came from,
     * so restoring the same bytes again later remains exact. Clears
     * the shard's audit/worker failure flags on success; does NOT
     * lift quarantine — rejoinShard() does. With @p salvage, intact
     * sections of a damaged snapshot restore and the rest cold-start.
     */
    Expected<StateReadResult> restoreShardState(unsigned shard_index,
                                                std::string_view bytes,
                                                bool salvage = false);

    /**
     * Quarantine shard @p shard_index: new requests fail with a
     * structured ShardUnavailable error (other shards keep serving);
     * already-queued predicts complete unspeculated and queued trains
     * are journaled for post-restore replay instead of being applied.
     */
    void quarantineShard(unsigned shard_index);

    /** Lift quarantine; the shard serves normally again. */
    void rejoinShard(unsigned shard_index);

    bool shardQuarantined(unsigned shard_index) const;

    /**
     * Record a failure detected outside the per-batch audit (injected
     * fault, dead worker) and quarantine the shard.
     */
    void failShard(unsigned shard_index, Error error);

    /** First recorded audit/worker failure of one shard. */
    Expected<void> shardHealth(unsigned shard_index) const;

    /**
     * Last-resort recovery: replace the shard's predictor with a
     * fresh factory instance and zero its statistics, counters, and
     * journal. Clears failure flags; quarantine is unaffected.
     */
    void resetShard(unsigned shard_index);

    /**
     * Run @p fn over the shard's predictor under the shard lock
     * (fault injection, inspection). @p fn must not re-enter the
     * service.
     */
    void withShardPredictor(
        unsigned shard_index,
        const std::function<void(AddressPredictor &)> &fn);

    /**
     * Chaos hook: the next batch the shard processes throws from
     * inside the worker, exercising the worker-failure detection and
     * recovery path. Requests in that batch complete unspeculated.
     */
    void injectWorkerFault(unsigned shard_index);

    /// @}

  private:
    friend class ClientSession;

    struct Shard;
    struct Request;

    Expected<void> submit(Request request, unsigned shard_index);
    void drainShard(Shard &shard);
    void processBatch(Shard &shard, std::vector<Request> &batch);
    void workerLoop(Shard &shard);
    void journalRequest(Shard &shard, const Request &request);

    ServiceConfig config_;
    PredictorFactory factory_; ///< kept for resetShard()
    std::vector<std::unique_ptr<Shard>> shards_;
    bool stopped_ = false;
    mutable std::mutex stopMutex_;
};

/**
 * Per-client handle: carries the client's global branch/path history
 * (the front-end context a real fetch engine would attach to each
 * load) and forwards requests to the service. One session per client
 * thread; sessions are independent, the service below is shared.
 */
class ClientSession
{
  public:
    /** Predict the load at @p pc with opcode immediate @p imm_offset,
     *  using this session's history as context. */
    Expected<Prediction>
    predict(std::uint64_t pc, std::int32_t imm_offset)
    {
        ++requests_;
        return service_->predict(makeInfo(pc, imm_offset));
    }

    /** Resolve @p pred (returned by predict for this pc) with the
     *  load's actual effective address. */
    Expected<void>
    train(std::uint64_t pc, std::int32_t imm_offset,
          std::uint64_t actual_addr, const Prediction &pred)
    {
        ++requests_;
        return service_->train(makeInfo(pc, imm_offset), actual_addr,
                               pred);
    }

    /** Record a conditional branch outcome into the session GHR. */
    void observeBranch(bool taken) { ghr_ = (ghr_ << 1) | (taken ? 1 : 0); }

    /** Record a call site into the session path history. */
    void observeCall(std::uint64_t pc) { path_ = (path_ << 4) ^ (pc >> 2); }

    std::uint64_t ghr() const { return ghr_; }
    std::uint64_t pathHist() const { return path_; }
    std::uint64_t requests() const { return requests_; }

  private:
    friend class PredictionService;
    explicit ClientSession(PredictionService &service)
        : service_(&service)
    {
    }

    LoadInfo
    makeInfo(std::uint64_t pc, std::int32_t imm_offset) const
    {
        LoadInfo info;
        info.pc = pc;
        info.immOffset = imm_offset;
        info.ghr = ghr_;
        info.pathHist = path_;
        return info;
    }

    PredictionService *service_;
    std::uint64_t ghr_ = 0;
    std::uint64_t path_ = 0;
    std::uint64_t requests_ = 0;
};

inline ClientSession
PredictionService::connect()
{
    return ClientSession(*this);
}

} // namespace clap

#endif // CLAP_SERVE_SERVICE_HH

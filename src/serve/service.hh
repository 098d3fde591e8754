/**
 * @file
 * Sharded load-address prediction service. Turns the inline
 * predictors (core/) into a concurrently queryable component: a
 * PredictionService owns N predictor shards — each a full
 * CAP/stride/hybrid instance behind its own mutex — and routes every
 * request to the shard selected by a hash of the load PC, so the
 * per-static-load state (LB entry, stride state, LT links reached
 * from it) of one static load never crosses shards.
 *
 * Requests enter through per-client ClientSessions and run on the
 * caller's own thread: predict() and train() take the shard's mutex
 * and apply the request under it, so a train has been applied when it
 * returns. The service starts no thread. Backpressure is the caller's
 * own thread waiting for the shard lock; queueDepth() counts the
 * callers running on or waiting for each shard.
 *
 * Every request is one batch: after every auditEveryBatches-th request
 * on a shard, the structural invariant auditor (core/audit.hh) runs
 * over the shard's predictor under the same lock. That audit is the
 * dirty-set walk: it checks only the LB and LT sets written since they
 * last passed, a few sets per request rather than every entry.
 * captureShardState() runs the full audit, so a shard corrupted
 * outside the table APIs (which marks no set) is refused, not
 * persisted.
 *
 * One client makes the service a pure function of its request
 * sequence, and so do clients that never share a shard. The
 * cross-check (serve/crosscheck.hh) exploits that to prove the service
 * layer does not change prediction semantics: its aggregate
 * PredictionStats must equal a plain PredictorSim run bit for bit.
 */

#ifndef CLAP_SERVE_SERVICE_HH
#define CLAP_SERVE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
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

/** Service-level knobs; predictor geometry comes from the factory. */
struct ServiceConfig
{
    /// Predictor shards; must be a power of two so the PC hash can
    /// select one with a mask.
    unsigned shards = 4;

    /// Run the dirty-set audit (AddressPredictor::auditDirty) on a
    /// shard's predictor after every N-th request it runs (a batch is
    /// one request; 0 disables); it checks the table sets written
    /// since they last passed. Audit failures are recorded per shard
    /// and surfaced via PredictionService::health(). The full audit
    /// runs before every captureShardState() regardless of this
    /// setting.
    unsigned auditEveryBatches = 1;

    /// Bounded per-shard journal of requests applied since the last
    /// captureShardState() call (0 disables journaling). The journal
    /// is what restoreShardState() replays to roll a shard forward
    /// from its last snapshot; on overflow the journal is discarded
    /// and marked, voiding the exact-replay guarantee until the next
    /// capture. Only an in-process ShardSupervisor's owner sets it:
    /// a service that installs another's snapshot (clapd) keeps 0,
    /// or the install would replay this service's own journal on top.
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
    std::uint64_t batches = 0;    ///< requests run (one per batch)
    std::uint64_t audits = 0;     ///< per-batch auditor runs
    std::size_t queueDepth = 0;   ///< callers running or waiting now
    std::size_t maxQueueDepth = 0;///< high-water mark of queueDepth
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
    bool workerFailed = false;    ///< a request threw / injected kill
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
     * per shard). Throws std::invalid_argument on an invalid config,
     * like the predictor constructors (core/config.hh validated()).
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
     * Form a prediction for @p info on the calling thread, under the
     * PC's shard lock. Fails with ShardUnavailable (shard quarantined)
     * or Shutdown (service stopped).
     */
    Expected<Prediction> predict(const LoadInfo &info);

    /**
     * Resolve a prior prediction with the load's actual address, on
     * the calling thread under the PC's shard lock: the update has
     * been applied when this returns. Same failure modes as predict().
     */
    Expected<void> train(const LoadInfo &info,
                         std::uint64_t actual_addr,
                         const Prediction &pred);

    /**
     * Refuse every later request with Shutdown, after waiting out the
     * requests already running on a shard. Idempotent.
     */
    void stop();

    bool stopped() const;

    /** Sum of the per-shard statistics (train-resolved tallies). */
    PredictionStats aggregateStats() const;

    /** Callers running on or waiting for one shard right now. */
    std::size_t queueDepth(unsigned shard_index) const;

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
     * the shard's audit/request failure flags on success; does NOT
     * lift quarantine — rejoinShard() does. With @p salvage, intact
     * sections of a damaged snapshot restore and the rest cold-start.
     */
    Expected<StateReadResult> restoreShardState(unsigned shard_index,
                                                std::string_view bytes,
                                                bool salvage = false);

    /**
     * Quarantine shard @p shard_index: new requests fail with a
     * structured ShardUnavailable error (other shards keep serving);
     * requests already waiting for the shard lock complete without
     * touching the predictor — predicts unspeculated, trains journaled
     * for post-restore replay instead of being applied.
     */
    void quarantineShard(unsigned shard_index);

    /** Lift quarantine; the shard serves normally again. */
    void rejoinShard(unsigned shard_index);

    bool shardQuarantined(unsigned shard_index) const;

    /**
     * Record a failure detected outside the per-batch audit (injected
     * fault, a request that threw) and quarantine the shard.
     */
    void failShard(unsigned shard_index, Error error);

    /** First recorded audit/request failure of one shard. */
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
     * Chaos hook: the next request on the shard throws from under the
     * shard lock, exercising the failure detection and recovery path.
     * That request completes without touching the predictor: a
     * predict answers unspeculated, a train is dropped.
     */
    void injectWorkerFault(unsigned shard_index);

    /// @}

  private:
    struct Shard;
    struct Request;

    /** Run @p request on the calling thread; a predict's result goes
     *  to @p prediction. */
    Expected<void> serve(const Request &request, Prediction *prediction);
    void journalRequest(Shard &shard, const Request &request);

    ServiceConfig config_;
    PredictorFactory factory_; ///< kept for resetShard()
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<bool> stopped_{false};
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

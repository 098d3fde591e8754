#include "serve/service.hh"

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hh"
#include "obs/stage_timer.hh"
#include "obs/trace_events.hh"

namespace clap
{

namespace
{

/// @name Serve-counter section (piggybacked on the state snapshot)
/// The shard's PredictionStats in the shared codec (sim/metrics.hh)
/// followed by its predicts/trains/batches/audits, so a restore rolls
/// the serve-side tallies back to the capture point before journal
/// replay rolls them forward again.
/// @{

struct ServeCounters
{
    PredictionStats stats;
    std::uint64_t predicts = 0;
    std::uint64_t trains = 0;
    std::uint64_t batches = 0;
    std::uint64_t audits = 0;
};

std::string
encodeServeCounters(const ServeCounters &c)
{
    std::string out;
    putPredictionStats(out, c.stats);
    for (const std::uint64_t v : {c.predicts, c.trains, c.batches, c.audits})
        putCounter(out, v);
    return out;
}

bool
decodeServeCounters(std::string_view bytes, ServeCounters &c)
{
    std::size_t pos = 0;
    return getPredictionStats(bytes, pos, c.stats) &&
           getCounter(bytes, pos, c.predicts) &&
           getCounter(bytes, pos, c.trains) &&
           getCounter(bytes, pos, c.batches) &&
           getCounter(bytes, pos, c.audits) && pos == bytes.size();
}

/** Caller-section id for the serve counters. */
constexpr std::uint32_t serveCountersSection = firstCallerSection;

/// @}

} // namespace

/** One request (and one journal entry); isTrain selects the fields. */
struct PredictionService::Request
{
    bool isTrain = false;
    LoadInfo info;
    std::uint64_t actualAddr = 0; ///< train
    Prediction pred;              ///< train: the resolved prediction
};

/**
 * One shard: a full predictor instance plus its statistics. The mutex
 * guards the predictor and every counter below it; each request holds
 * it for the whole of its run, snapshots take it briefly.
 */
struct PredictionService::Shard
{
    /// Callers running on or waiting for this shard (queueDepth();
    /// read without the lock).
    std::atomic<std::size_t> callers{0};

    /// @name Lifecycle flags (checked lock-free on the request path)
    /// @{
    std::atomic<bool> quarantined{false};
    std::atomic<std::uint64_t> unavailable{0};
    std::atomic<bool> killNextRequest{false}; ///< chaos: injected throw
    /// @}

    mutable std::mutex mutex;
    std::unique_ptr<AddressPredictor> predictor;
    PredictionStats stats;
    std::uint64_t predicts = 0;
    std::uint64_t trains = 0;
    std::uint64_t batches = 0;
    std::uint64_t audits = 0;
    std::size_t maxCallers = 0; ///< high-water mark of callers
    bool auditFailed = false;
    Error auditError;

    /// @name Snapshot/restore bookkeeping (under mutex)
    /// @{
    std::vector<Request> journal; ///< requests since last capture
    bool journalOverflowed = false;
    std::uint64_t captures = 0;
    std::uint64_t restores = 0;
    std::uint64_t quarantines = 0;
    bool workerFailed = false;
    Error workerError;
    /// @}
};

PredictionService::PredictionService(const ServiceConfig &config,
                                     PredictorFactory factory)
    : config_(validated(config)), factory_(std::move(factory))
{
    assert(factory_ != nullptr);
    shards_.reserve(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->predictor = factory_();
        assert(shard->predictor != nullptr);
        shards_.push_back(std::move(shard));
    }
}

PredictionService::~PredictionService() = default;

void
PredictionService::stop()
{
    if (stopped_.exchange(true))
        return;
    // A request reads the flag under its shard lock, so taking every
    // lock once waits out the requests already running, and each
    // later one sees the flag.
    for (auto &shard : shards_)
        std::lock_guard<std::mutex> lock(shard->mutex);
}

bool
PredictionService::stopped() const
{
    return stopped_.load();
}

Expected<Prediction>
PredictionService::predict(const LoadInfo &info)
{
    Request request;
    request.info = info;
    Prediction prediction;
    if (auto served = serve(request, &prediction); !served)
        return std::move(served.error()).withContext("predict");
    return prediction;
}

Expected<void>
PredictionService::train(const LoadInfo &info, std::uint64_t actual_addr,
                         const Prediction &pred)
{
    Request request;
    request.isTrain = true;
    request.info = info;
    request.actualAddr = actual_addr;
    request.pred = pred;
    if (auto served = serve(request, nullptr); !served)
        return std::move(served.error()).withContext("train");
    return ok();
}

void
PredictionService::journalRequest(Shard &shard, const Request &request)
{
    if (config_.journalCapacity == 0 || shard.journalOverflowed)
        return;
    if (shard.journal.size() >= config_.journalCapacity) {
        // The bounded window closed: drop the journal and mark it, so
        // a later restore knows exact replay is no longer possible.
        shard.journal.clear();
        shard.journalOverflowed = true;
        return;
    }
    shard.journal.push_back(request);
}

Expected<void>
PredictionService::serve(const Request &request, Prediction *prediction)
{
    // Registry references resolved once; recording afterwards is a
    // branch plus a relaxed add (see obs/metrics.hh cost model).
    static obs::Counter &predicts = obs::counter("serve.predicts");
    static obs::Counter &trains = obs::counter("serve.trains");
    static obs::Counter &batches = obs::counter("serve.batches");
    static obs::Counter &audits = obs::counter("serve.audits");
    static obs::Histogram &auditNs = obs::histogram("serve.audit_ns");
    static obs::Histogram &batchSize =
        obs::histogram("serve.batch_size");
    static obs::Histogram &queueDepth =
        obs::histogram("serve.queue_depth");
    static obs::Histogram &queueWaitNs =
        obs::histogram("serve.stage.queue_wait_ns");
    static obs::Histogram &computeNs =
        obs::histogram("serve.stage.compute_ns");

    const unsigned shard_index = shardOf(request.info.pc);
    Shard &shard = *shards_[shard_index];
    if (shard.quarantined.load(std::memory_order_acquire)) {
        shard.unavailable.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter &unavailable =
            obs::counter("serve.unavailable");
        unavailable.add();
        return makeError(ErrorCode::ShardUnavailable,
                         "shard quarantined pending recovery")
            .withContext("shard " + std::to_string(shard_index));
    }

    // One span per request, nested under the caller's trace context
    // (a connection thread has adopted the frame's context).
    obs::Span span(request.isTrain ? "serve.train" : "serve.predict",
                   "serve");
    const std::size_t depth = shard.callers.fetch_add(1) + 1;
    const std::uint64_t arrivedNs = obs::stageNowNs();
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (stopped_.load()) {
        lock.unlock();
        shard.callers.fetch_sub(1);
        return makeError(ErrorCode::Shutdown,
                         "prediction service is stopped")
            .withContext("shard " + std::to_string(shard_index));
    }
    const std::uint64_t startedNs = obs::stageNowNs();
    queueWaitNs.record(startedNs - arrivedNs);
    shard.maxCallers = std::max(shard.maxCallers, depth);

    try {
        if (shard.killNextRequest.exchange(false))
            throw std::runtime_error("injected worker fault");
        if (shard.quarantined.load(std::memory_order_acquire)) {
            // Quarantined while this caller waited: never touch the
            // (suspect) predictor. A predict answers unspeculated; a
            // train is journaled so the post-restore replay still
            // applies it.
            if (request.isTrain)
                journalRequest(shard, request);
        } else {
            journalRequest(shard, request);
            if (request.isTrain) {
                shard.predictor->update(request.info, request.actualAddr,
                                        request.pred);
                tallyPrediction(shard.stats, request.pred,
                                request.actualAddr);
                ++shard.trains;
                trains.add();
            } else {
                *prediction = shard.predictor->predict(request.info);
                ++shard.predicts;
                predicts.add();
            }
            computeNs.record(obs::stageNowNs() - startedNs);
        }
        ++shard.batches;
        if (config_.auditEveryBatches != 0 &&
            shard.batches % config_.auditEveryBatches == 0) {
            // The dirty-set audit: only the sets written since they
            // last passed. captureShardState() runs the full audit,
            // for writes that bypassed the table APIs.
            ++shard.audits;
            const std::uint64_t auditStartNs = obs::stageNowNs();
            auto audit = shard.predictor->auditDirty();
            auditNs.record(obs::stageNowNs() - auditStartNs);
            audits.add();
            if (!audit && !shard.auditFailed) {
                shard.auditFailed = true;
                shard.auditError = std::move(audit.error())
                                       .withContext("per-batch audit");
            }
        }
    } catch (const std::exception &e) {
        // A throwing request may have half-applied; treat the shard as
        // corrupt and quarantine it so the supervisor restores from
        // the last good snapshot. A predict answers unspeculated.
        if (prediction != nullptr)
            *prediction = Prediction{};
        if (!shard.workerFailed) {
            shard.workerFailed = true;
            shard.workerError = makeError(ErrorCode::CorruptedState,
                                          e.what())
                                    .withContext("shard request");
        }
        if (!shard.quarantined.exchange(true, std::memory_order_acq_rel))
            ++shard.quarantines;
        static obs::Counter &failures =
            obs::counter("serve.worker_failures");
        failures.add();
    }
    lock.unlock();
    shard.callers.fetch_sub(1);

    batches.add();
    batchSize.record(1);
    queueDepth.record(depth);
    return ok();
}

std::size_t
PredictionService::queueDepth(unsigned shard_index) const
{
    return shards_[shard_index]->callers.load();
}

PredictionStats
PredictionService::aggregateStats() const
{
    PredictionStats total;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total.merge(shard->stats);
    }
    return total;
}

std::vector<ShardSnapshot>
PredictionService::snapshot() const
{
    std::vector<ShardSnapshot> out;
    out.reserve(shards_.size());
    for (const auto &shard : shards_) {
        ShardSnapshot snap;
        {
            std::lock_guard<std::mutex> lock(shard->mutex);
            snap.stats = shard->stats;
            snap.predicts = shard->predicts;
            snap.trains = shard->trains;
            snap.batches = shard->batches;
            snap.audits = shard->audits;
            snap.maxQueueDepth = shard->maxCallers;
            snap.auditFailed = shard->auditFailed;
            snap.auditError = shard->auditError;
            snap.captures = shard->captures;
            snap.restores = shard->restores;
            snap.quarantines = shard->quarantines;
            snap.journalDepth = shard->journal.size();
            snap.journalOverflowed = shard->journalOverflowed;
            snap.workerFailed = shard->workerFailed;
            snap.workerError = shard->workerError;
            snap.telemetry = shard->predictor->snapshotTelemetry();
        }
        snap.quarantined =
            shard->quarantined.load(std::memory_order_relaxed);
        snap.unavailable =
            shard->unavailable.load(std::memory_order_relaxed);
        snap.queueDepth = shard->callers.load();
        out.push_back(std::move(snap));
    }
    return out;
}

Expected<void>
PredictionService::health() const
{
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (auto status = shardHealth(static_cast<unsigned>(s)); !status)
            return status;
    }
    return ok();
}

Expected<void>
PredictionService::shardHealth(unsigned shard_index) const
{
    const Shard &shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.workerFailed) {
        Error error = shard.workerError;
        return std::move(error).withContext(
            "shard " + std::to_string(shard_index));
    }
    if (shard.auditFailed) {
        Error error = shard.auditError;
        return std::move(error).withContext(
            "shard " + std::to_string(shard_index));
    }
    return ok();
}

Expected<std::string>
PredictionService::captureShardState(unsigned shard_index)
{
    static obs::Counter &captures = obs::counter("serve.captures");
    Shard &shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    // The per-batch audit sees only sets written through the table
    // APIs; a full audit here keeps state corrupted any other way out
    // of the snapshot that recovery would restore.
    if (auto audited = shard.predictor->audit(); !audited) {
        if (!shard.auditFailed) {
            shard.auditFailed = true;
            shard.auditError =
                Error(audited.error()).withContext("pre-capture audit");
        }
        return std::move(audited.error())
            .withContext("capturing shard " +
                         std::to_string(shard_index));
    }
    ServeCounters counters;
    counters.stats = shard.stats;
    counters.predicts = shard.predicts;
    counters.trains = shard.trains;
    counters.batches = shard.batches;
    counters.audits = shard.audits;
    std::vector<StateExtraSection> extras;
    extras.push_back(StateExtraSection{serveCountersSection,
                                       encodeServeCounters(counters)});
    auto encoded = encodePredictorState(*shard.predictor, extras);
    if (!encoded) {
        return std::move(encoded.error())
            .withContext("capturing shard " +
                         std::to_string(shard_index));
    }
    // The capture is the new journal epoch: replay starts here.
    shard.journal.clear();
    shard.journalOverflowed = false;
    ++shard.captures;
    captures.add();
    return encoded;
}

Expected<StateReadResult>
PredictionService::restoreShardState(unsigned shard_index,
                                     std::string_view bytes,
                                     bool salvage)
{
    static obs::Counter &restores = obs::counter("serve.restores");
    Shard &shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);

    StateReadOptions options;
    options.salvage = salvage;
    std::vector<StateExtraSection> extras;
    auto result =
        decodePredictorState(bytes, *shard.predictor, options, &extras);
    if (!result) {
        return std::move(result.error())
            .withContext("restoring shard " +
                         std::to_string(shard_index));
    }

    // Roll the serve counters back to the capture point; a damaged or
    // absent counter section cold-starts them (salvage only — strict
    // mode would have failed above on any section damage).
    ServeCounters counters;
    bool have_counters = false;
    for (const StateExtraSection &extra : extras) {
        if (extra.id == serveCountersSection &&
            decodeServeCounters(extra.payload, counters)) {
            have_counters = true;
        }
    }
    if (!have_counters && !salvage) {
        return makeError(ErrorCode::BadRecord,
                         "snapshot is missing the serve counter section")
            .withContext("restoring shard " +
                         std::to_string(shard_index));
    }
    shard.stats = counters.stats;
    shard.predicts = counters.predicts;
    shard.trains = counters.trains;
    shard.batches = counters.batches;
    shard.audits = counters.audits;

    // Replay the since-capture journal through the restored predictor,
    // re-applying exactly what the failed incarnation served. Predict
    // replays repeat the original state mutation (LRU touch,
    // speculative bookkeeping); their results have already been
    // delivered and are discarded here. The journal is deliberately
    // NOT cleared: its epoch is the on-disk snapshot, which this
    // restore did not advance — only the next captureShardState()
    // resets it. Replaying from the snapshot is idempotent, so a
    // second restore before the next capture stays exact.
    if (!shard.journalOverflowed) {
        for (const Request &request : shard.journal) {
            if (request.isTrain) {
                shard.predictor->update(request.info, request.actualAddr,
                                        request.pred);
                tallyPrediction(shard.stats, request.pred,
                                request.actualAddr);
                ++shard.trains;
            } else {
                (void)shard.predictor->predict(request.info);
                ++shard.predicts;
            }
        }
    }

    shard.auditFailed = false;
    shard.auditError = Error{};
    shard.workerFailed = false;
    shard.workerError = Error{};
    ++shard.restores;
    restores.add();
    return result;
}

void
PredictionService::quarantineShard(unsigned shard_index)
{
    static obs::Counter &quarantines =
        obs::counter("serve.quarantines");
    Shard &shard = *shards_[shard_index];
    if (!shard.quarantined.exchange(true, std::memory_order_acq_rel)) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        ++shard.quarantines;
        quarantines.add();
    }
}

void
PredictionService::rejoinShard(unsigned shard_index)
{
    shards_[shard_index]->quarantined.store(false,
                                            std::memory_order_release);
}

bool
PredictionService::shardQuarantined(unsigned shard_index) const
{
    return shards_[shard_index]->quarantined.load(
        std::memory_order_acquire);
}

void
PredictionService::failShard(unsigned shard_index, Error error)
{
    Shard &shard = *shards_[shard_index];
    quarantineShard(shard_index);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!shard.workerFailed) {
        shard.workerFailed = true;
        shard.workerError = std::move(error).withContext(
            "failShard(" + std::to_string(shard_index) + ")");
    }
}

void
PredictionService::resetShard(unsigned shard_index)
{
    Shard &shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.predictor = factory_();
    assert(shard.predictor != nullptr);
    shard.stats = PredictionStats{};
    shard.predicts = 0;
    shard.trains = 0;
    shard.batches = 0;
    shard.audits = 0;
    shard.journal.clear();
    shard.journalOverflowed = false;
    shard.auditFailed = false;
    shard.auditError = Error{};
    shard.workerFailed = false;
    shard.workerError = Error{};
}

void
PredictionService::withShardPredictor(
    unsigned shard_index,
    const std::function<void(AddressPredictor &)> &fn)
{
    Shard &shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    fn(*shard.predictor);
}

void
PredictionService::injectWorkerFault(unsigned shard_index)
{
    shards_[shard_index]->killNextRequest.store(true,
                                              std::memory_order_release);
}

} // namespace clap

#include "serve/service.hh"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hh"
#include "obs/stage_timer.hh"
#include "obs/trace_context.hh"
#include "obs/trace_events.hh"
#include "serve/queue.hh"

namespace clap
{

namespace
{

/**
 * Rendezvous for a synchronous predict(), stack-allocated in
 * predict(). Both fields are guarded by the shard's responseMutex:
 * the shard worker fills them under it and wakes the shard's
 * responseReady only after releasing it, so it never touches a slot
 * its client can already see — and destroy.
 */
struct ResponseSlot
{
    bool done = false;
    Prediction value;
};

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

/** One queued request; isTrain selects the active fields. */
struct PredictionService::Request
{
    bool isTrain = false;
    LoadInfo info;
    std::uint64_t actualAddr = 0; ///< train
    Prediction pred;              ///< train: the resolved prediction
    ResponseSlot *slot = nullptr; ///< predict: completion rendezvous

    /// Submitter's trace context, carried across the queue so the
    /// shard worker's span nests under the request's distributed
    /// trace (invalid when the submitter was untraced).
    obs::TraceContext trace;

    /// stageNowNs() at submit time; the worker's pickup timestamp
    /// minus this is the request's queue-wait stage.
    std::uint64_t enqueueNs = 0;
};

/**
 * One shard: a full predictor instance plus its mailbox, worker, and
 * statistics. The mutex guards the predictor and every counter below
 * it; in threaded mode only the shard's worker takes it on the hot
 * path (snapshots take it briefly), in deterministic mode it
 * serialises the inline drains.
 */
struct PredictionService::Shard
{
    explicit Shard(std::size_t queue_capacity) : queue(queue_capacity) {}

    BoundedQueue<Request> queue;
    std::atomic<std::uint64_t> rejected{0}; ///< producer-side counter

    /// @name Lifecycle flags (checked lock-free on the submit path)
    /// @{
    std::atomic<bool> quarantined{false};
    std::atomic<std::uint64_t> unavailable{0};
    std::atomic<bool> killNextBatch{false}; ///< chaos: injected throw
    /// @}

    /// @name Predict rendezvous (see ResponseSlot)
    /// @{
    std::mutex responseMutex;
    std::condition_variable responseReady;
    /// @}

    mutable std::mutex mutex;
    std::unique_ptr<AddressPredictor> predictor;
    PredictionStats stats;
    std::uint64_t predicts = 0;
    std::uint64_t trains = 0;
    std::uint64_t batches = 0;
    std::uint64_t audits = 0;
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

    std::thread worker;
};

PredictionService::PredictionService(const ServiceConfig &config,
                                     PredictorFactory factory)
    : config_(validated(config)), factory_(std::move(factory))
{
    assert(factory_ != nullptr);
    shards_.reserve(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s) {
        auto shard = std::make_unique<Shard>(config_.queueCapacity);
        shard->predictor = factory_();
        assert(shard->predictor != nullptr);
        shards_.push_back(std::move(shard));
    }
    if (!config_.deterministic) {
        for (auto &shard : shards_) {
            Shard *raw = shard.get();
            shard->worker =
                std::thread([this, raw] { workerLoop(*raw); });
        }
    }
}

PredictionService::~PredictionService()
{
    stop();
}

void
PredictionService::stop()
{
    {
        std::lock_guard<std::mutex> lock(stopMutex_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    for (auto &shard : shards_)
        shard->queue.close();
    for (auto &shard : shards_) {
        if (shard->worker.joinable())
            shard->worker.join();
        // Deterministic mode has no workers; drain any leftovers so
        // stop() upholds the processed-not-dropped guarantee there
        // too.
        drainShard(*shard);
    }
}

bool
PredictionService::stopped() const
{
    std::lock_guard<std::mutex> lock(stopMutex_);
    return stopped_;
}

Expected<void>
PredictionService::submit(Request request, unsigned shard_index)
{
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
    const bool block = config_.overload == OverloadPolicy::Block &&
                       !config_.deterministic;
    switch (shard.queue.push(std::move(request), block)) {
      case QueuePush::Ok:
        break;
      case QueuePush::Full:
        shard.rejected.fetch_add(1, std::memory_order_relaxed);
        {
            static obs::Counter &rejects =
                obs::counter("serve.rejects");
            rejects.add();
        }
        return makeError(ErrorCode::Overloaded,
                         "shard queue full (capacity " +
                             std::to_string(config_.queueCapacity) + ")")
            .withContext("shard " + std::to_string(shard_index));
      case QueuePush::Closed:
        // Structured Shutdown, not InvalidArgument: a producer that
        // was blocked in push() when stop() closed the queue must
        // wake with an error its caller can branch on (terminal, not
        // retryable — see util/error.hh).
        return makeError(ErrorCode::Shutdown,
                         "prediction service is stopped")
            .withContext("shard " + std::to_string(shard_index));
    }
    if (config_.deterministic)
        drainShard(shard);
    return ok();
}

Expected<Prediction>
PredictionService::predict(const LoadInfo &info)
{
    ResponseSlot slot;
    Request request;
    request.info = info;
    request.slot = &slot;
    request.trace = obs::currentTraceContext();
    request.enqueueNs = obs::stageNowNs();
    const unsigned shard_index = shardOf(info.pc);
    if (auto submitted = submit(std::move(request), shard_index);
        !submitted)
        return std::move(submitted.error()).withContext("predict");
    Shard &shard = *shards_[shard_index];
    std::unique_lock<std::mutex> lock(shard.responseMutex);
    shard.responseReady.wait(lock, [&slot] { return slot.done; });
    return slot.value;
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
    request.trace = obs::currentTraceContext();
    request.enqueueNs = obs::stageNowNs();
    if (auto submitted = submit(std::move(request), shardOf(info.pc));
        !submitted)
        return std::move(submitted.error()).withContext("train");
    return ok();
}

void
PredictionService::drainShard(Shard &shard)
{
    std::vector<Request> batch;
    batch.reserve(config_.maxBatch);
    while (shard.queue.popBatch(batch, config_.maxBatch,
                                /*wait=*/false) != 0) {
        processBatch(shard, batch);
        batch.clear();
    }
}

void
PredictionService::workerLoop(Shard &shard)
{
    std::vector<Request> batch;
    batch.reserve(config_.maxBatch);
    // popBatch returns 0 only once the queue is closed *and* drained,
    // so a stopping service finishes every accepted request.
    while (shard.queue.popBatch(batch, config_.maxBatch,
                                /*wait=*/true) != 0) {
        processBatch(shard, batch);
        batch.clear();
    }
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
    Request copy = request;
    copy.slot = nullptr; // rendezvous is stack-bound to the original
    shard.journal.push_back(std::move(copy));
}

void
PredictionService::processBatch(Shard &shard,
                                std::vector<Request> &batch)
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

    obs::Span span("serve.batch", "serve");
    std::uint64_t batch_predicts = 0;
    std::uint64_t batch_trains = 0;

    // Predictions computed under the lock, delivered after it: the
    // rendezvous wakeups need not hold up the shard.
    std::vector<std::pair<ResponseSlot *, Prediction>> responses;
    responses.reserve(batch.size());
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        try {
            if (shard.killNextBatch.exchange(false))
                throw std::runtime_error("injected worker fault");
            for (Request &request : batch) {
                const std::uint64_t startedNs = obs::stageNowNs();
                if (request.enqueueNs != 0 &&
                    startedNs >= request.enqueueNs)
                    queueWaitNs.record(startedNs - request.enqueueNs);
                // Re-enter the submitter's trace context for the
                // duration of this request: the worker-side span
                // nests under the caller's span even across the
                // queue (and across the wire, when the context rode
                // in on a v3 frame).
                std::optional<obs::TraceScope> traceScope;
                std::optional<obs::Span> requestSpan;
                if (request.trace.valid()) {
                    traceScope.emplace(request.trace);
                    if (request.trace.sampled &&
                        obs::traceEventsEnabled())
                        requestSpan.emplace(request.isTrain
                                                ? "serve.train"
                                                : "serve.predict",
                                            "serve");
                }
                if (shard.quarantined.load(std::memory_order_acquire)) {
                    // Quarantine drain: never touch the (suspect)
                    // predictor. Predicts answer unspeculated; trains
                    // are journaled so the post-restore replay still
                    // applies them.
                    if (request.isTrain) {
                        journalRequest(shard, request);
                    } else {
                        responses.emplace_back(request.slot,
                                               Prediction{});
                        request.slot = nullptr;
                    }
                    continue;
                }
                journalRequest(shard, request);
                if (request.isTrain) {
                    shard.predictor->update(request.info,
                                            request.actualAddr,
                                            request.pred);
                    tallyPrediction(shard.stats, request.pred,
                                    request.actualAddr);
                    ++shard.trains;
                    ++batch_trains;
                } else {
                    responses.emplace_back(
                        request.slot,
                        shard.predictor->predict(request.info));
                    request.slot = nullptr;
                    ++shard.predicts;
                    ++batch_predicts;
                }
                computeNs.record(obs::stageNowNs() - startedNs);
            }
            ++shard.batches;
            if (config_.auditEveryBatches != 0 &&
                shard.batches % config_.auditEveryBatches == 0) {
                // The dirty-set audit: only the sets written since
                // they last passed. captureShardState() runs the full
                // audit, for writes that bypassed the table APIs.
                ++shard.audits;
                const std::uint64_t auditStartNs = obs::stageNowNs();
                auto audit = shard.predictor->auditDirty();
                auditNs.record(obs::stageNowNs() - auditStartNs);
                audits.add();
                if (!audit && !shard.auditFailed) {
                    shard.auditFailed = true;
                    shard.auditError =
                        std::move(audit.error())
                            .withContext("per-batch audit");
                }
            }
        } catch (const std::exception &e) {
            // A throwing batch may have half-applied a request; treat
            // the shard as corrupt and quarantine it so the supervisor
            // restores from the last good snapshot.
            if (!shard.workerFailed) {
                shard.workerFailed = true;
                shard.workerError =
                    makeError(ErrorCode::CorruptedState, e.what())
                        .withContext("shard worker batch");
            }
            if (!shard.quarantined.exchange(true,
                                            std::memory_order_acq_rel))
                ++shard.quarantines;
            static obs::Counter &failures =
                obs::counter("serve.worker_failures");
            failures.add();
        }
    }
    predicts.add(batch_predicts);
    trains.add(batch_trains);
    batches.add();
    batchSize.record(batch.size());
    queueDepth.record(shard.queue.depth());
    // Requests the throwing batch never reached: answer them
    // unspeculated so no client hangs on a failed shard.
    for (Request &request : batch) {
        if (!request.isTrain && request.slot != nullptr)
            responses.emplace_back(request.slot, Prediction{});
    }
    if (responses.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(shard.responseMutex);
        for (auto &[slot, pred] : responses) {
            slot->value = pred;
            slot->done = true;
        }
    }
    shard.responseReady.notify_all();
}

std::size_t
PredictionService::queueDepth(unsigned shard_index) const
{
    return shards_[shard_index]->queue.depth();
}

std::size_t
PredictionService::totalQueueDepth() const
{
    std::size_t depth = 0;
    for (const auto &shard : shards_)
        depth += shard->queue.depth();
    return depth;
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
        snap.rejected =
            shard->rejected.load(std::memory_order_relaxed);
        snap.queueDepth = shard->queue.depth();
        snap.maxQueueDepth = shard->queue.maxDepth();
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
    shards_[shard_index]->killNextBatch.store(true,
                                              std::memory_order_release);
}

} // namespace clap

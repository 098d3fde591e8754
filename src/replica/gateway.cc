#include "replica/gateway.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>

#include "obs/metrics.hh"
#include "obs/scrape.hh"
#include "replica/bootstrap.hh"
#include "util/json.hh"

namespace clap::replica
{

using net::Frame;
using net::FrameType;
using net::HandlerReply;

namespace
{

/** Transport-class failures earn the replica a liveness strike; a
 *  structured server refusal (a quarantined shard) does not — the
 *  process is alive and answering. */
bool
isTransportClass(ErrorCode code)
{
    return code == ErrorCode::ConnectionLost ||
        code == ErrorCode::DeadlineExceeded ||
        code == ErrorCode::Timeout || code == ErrorCode::IoError ||
        code == ErrorCode::ProtocolError;
}

void
appendFixed3(std::string &json, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    json += buf;
}

/**
 * Rebuild a log2 HistogramSnapshot from a scraped sparse bucket list
 * ([[lowerBound, count], ...] — scrapeHistogramJson's shape). The
 * bucket index is recoverable from its lower bound (bit_width(2^(b-1))
 * == b, bit_width(0) == 0), so the watchdog can run quantile() on a
 * remote process's distribution.
 */
obs::HistogramSnapshot
snapshotFromScrape(const JsonValue &hist)
{
    obs::HistogramSnapshot snap;
    const JsonValue *buckets = hist.find("buckets");
    if (buckets == nullptr ||
        buckets->kind != JsonValue::Kind::Array)
        return snap;
    for (const JsonValue &entry : buckets->items) {
        if (entry.kind != JsonValue::Kind::Array ||
            entry.items.size() != 2 || !entry.items[0].isUint ||
            !entry.items[1].isUint)
            continue;
        const std::size_t b = static_cast<std::size_t>(
            std::bit_width(entry.items[0].uintValue));
        if (b >= snap.buckets.size())
            continue;
        snap.buckets[b] += entry.items[1].uintValue;
        snap.count += entry.items[1].uintValue;
    }
    snap.sum = hist.uintOr("sum", 0);
    return snap;
}

/** Every "don't speculate" decision one gate object reports (cap
 *  gates have no interval_vetoes and stride gates no tag_vetoes, so
 *  the missing-key fallback makes one summer serve both). */
std::uint64_t
gateVetoSum(const JsonValue &gates)
{
    return gates.uintOr("conf_vetoes", 0) +
        gates.uintOr("tag_vetoes", 0) +
        gates.uintOr("path_vetoes", 0) +
        gates.uintOr("pipe_vetoes", 0) +
        gates.uintOr("interval_vetoes", 0);
}

/** Distill one scraped obsJson document into the fleet view fields;
 *  false when the document does not parse as JSON. */
bool
distillScrape(const std::string &doc, FleetReplicaView &view)
{
    auto parsed = parseJson(doc);
    if (!parsed)
        return false;
    const JsonValue &root = *parsed;

    std::uint64_t vetoes = 0;
    if (const JsonValue *shards = root.find("shards");
        shards != nullptr &&
        shards->kind == JsonValue::Kind::Array) {
        for (const JsonValue &shard : shards->items) {
            if (const JsonValue *cap = shard.find("cap_gates"))
                vetoes += gateVetoSum(*cap);
            if (const JsonValue *stride = shard.find("stride_gates"))
                vetoes += gateVetoSum(*stride);
        }
    }
    view.gateVetoDelta =
        vetoes >= view.gateVetoes ? vetoes - view.gateVetoes : vetoes;
    view.gateVetoes = vetoes;

    if (const JsonValue *metrics = root.find("metrics")) {
        if (const JsonValue *counters = metrics->find("counters"))
            view.droppedSpans =
                counters->uintOr("obs.trace_events.dropped", 0);
    }
    if (const JsonValue *timing = root.find("timing")) {
        if (const JsonValue *handle =
                timing->find("net.stage.handle_ns"))
            view.stageHandleP99Us =
                snapshotFromScrape(*handle).p99() / 1000.0;
        if (const JsonValue *total =
                timing->find("net.stage.total_ns"))
            view.stageTotalP99Us =
                snapshotFromScrape(*total).p99() / 1000.0;
    }
    return true;
}

} // namespace

Expected<void>
ReplicaGatewayConfig::validate() const
{
    if (replicas.empty())
        return makeError(ErrorCode::InvalidConfig,
                         "ReplicaGatewayConfig: need >= 1 replica");
    // A repeat would train one process twice per train and audit it
    // against itself, so endpoints are compared in parsed form.
    std::vector<std::string> seen;
    for (const std::string &spec : replicas) {
        auto endpoint = net::parseEndpoint(spec);
        if (!endpoint)
            return makeError(ErrorCode::InvalidConfig,
                             "ReplicaGatewayConfig: bad replica '" +
                                 spec + "': " + endpoint.error().message());
        // Port 0 means "any free port" to bind; a connect never reaches it.
        if (endpoint->kind == net::Endpoint::Kind::Tcp && endpoint->port == 0)
            return makeError(ErrorCode::InvalidConfig,
                             "ReplicaGatewayConfig: replica '" + spec +
                                 "' has port 0");
        const std::string canonical = endpoint->str();
        if (std::find(seen.begin(), seen.end(), canonical) != seen.end())
            return makeError(ErrorCode::InvalidConfig,
                             "ReplicaGatewayConfig: replica '" + spec +
                                 "' is listed twice");
        seen.push_back(canonical);
    }
    if (shards == 0)
        return makeError(ErrorCode::InvalidConfig,
                         "ReplicaGatewayConfig: shards must be >= 1");
    if (maxStrikes == 0)
        return makeError(ErrorCode::InvalidConfig,
                         "ReplicaGatewayConfig: maxStrikes must be >= 1");
    if (journalCapacity == 0)
        return makeError(
            ErrorCode::InvalidConfig,
            "ReplicaGatewayConfig: journalCapacity must be >= 1");
    return ok();
}

ReplicaGateway::ReplicaGateway(const ReplicaGatewayConfig &config)
    : config_(config), rng_(config.balanceSeed)
{
}

ReplicaGateway::~ReplicaGateway()
{
    stop();
}

Expected<void>
ReplicaGateway::start()
{
    if (auto valid = config_.validate(); !valid)
        return valid;
    std::lock_guard<std::mutex> lock(tableMutex_);
    if (!links_.empty())
        return ok(); // idempotent
    staged_.resize(config_.replicas.size());
    for (const std::string &endpoint : config_.replicas) {
        table_.addReplica(endpoint);
        net::ClientConfig client = config_.client;
        client.endpoint = endpoint;
        client.clientName = "clapr-gateway";
        auto link = std::make_unique<Link>();
        link->client = std::make_unique<net::NetClient>(client);
        links_.push_back(std::move(link));
    }
    return ok();
}

void
ReplicaGateway::stop()
{
    for (auto &link : links_) {
        std::lock_guard<std::mutex> lock(link->mutex);
        if (link->client)
            link->client->disconnect();
    }
}

HandlerReply
ReplicaGateway::handle(const Frame &frame)
{
    switch (frame.type) {
      case FrameType::Ping:
        // Gateway liveness, answered locally: a probe's ping asks
        // "is the front door up", not "is every replica up".
        return HandlerReply::make(FrameType::Pong);
      case FrameType::Predict:
        return handlePredict(frame);
      case FrameType::Train:
        return handleTrain(frame);
      case FrameType::Stats:
        return handleStats();
      default:
        return HandlerReply::fail(
            makeError(ErrorCode::ProtocolError,
                      std::string("unexpected frame ") +
                          net::frameTypeName(frame.type)),
            /*drop=*/true);
    }
}

std::vector<unsigned>
ReplicaGateway::predictAttemptOrder()
{
    std::lock_guard<std::mutex> lock(tableMutex_);
    std::vector<unsigned> order = table_.predictOrder();
    if (order.empty())
        return order;

    Expected<unsigned> first =
        config_.balance == ReplicaGatewayConfig::Balance::Seeded
            ? table_.pickSeeded(rng_)
            : [&] {
                  std::vector<unsigned> gauges;
                  gauges.reserve(links_.size());
                  for (const auto &link : links_)
                      gauges.push_back(link->inFlight.load(
                          std::memory_order_relaxed));
                  return table_.pickLeastInFlight(gauges);
              }();
    if (!first)
        return order;
    // The pick leads; the rest of predictOrder() is the failover tail.
    std::vector<unsigned> attempts{*first};
    for (unsigned i : order)
        if (i != *first)
            attempts.push_back(i);
    return attempts;
}

HandlerReply
ReplicaGateway::handlePredict(const Frame &frame)
{
    static obs::Counter &forwarded =
        obs::counter("replica.predicts_forwarded");
    LoadInfo info;
    if (!net::decodePredictRequest(frame.payload, info)) {
        return HandlerReply::fail(makeError(
            ErrorCode::ProtocolError, "malformed Predict payload"));
    }
    predicts_.fetch_add(1, std::memory_order_relaxed);
    forwarded.add();

    const std::vector<unsigned> attempts = predictAttemptOrder();
    Error last = makeError(ErrorCode::ShardUnavailable,
                           "no serving replica");
    for (std::size_t attempt = 0; attempt < attempts.size();
         ++attempt) {
        const unsigned idx = attempts[attempt];
        if (attempt > 0)
            predictFailovers_.fetch_add(1, std::memory_order_relaxed);
        Link &link = *links_[idx];
        link.inFlight.fetch_add(1, std::memory_order_relaxed);
        Expected<Prediction> pred = [&] {
            std::lock_guard<std::mutex> lock(link.mutex);
            return link.client->predict(info);
        }();
        link.inFlight.fetch_sub(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(tableMutex_);
        if (pred) {
            table_.counters(idx).predictsServed++;
            return HandlerReply::make(
                FrameType::PredictOk,
                net::encodePredictResponse(info.pc, *pred));
        }
        table_.counters(idx).predictFailures++;
        if (isTransportClass(pred.error().code()))
            table_.strike(idx, config_.maxStrikes);
        last = std::move(pred.error())
                   .withContext("replica " + std::to_string(idx));
    }
    predictsFailed_.fetch_add(1, std::memory_order_relaxed);
    return HandlerReply::fail(std::move(last));
}

HandlerReply
ReplicaGateway::handleTrain(const Frame &frame)
{
    static obs::Counter &fanned =
        obs::counter("replica.trains_fanned");
    LoadInfo info;
    std::uint64_t actual = 0;
    Prediction pred;
    if (!net::decodeTrainRequest(frame.payload, info, actual, pred)) {
        return HandlerReply::fail(makeError(
            ErrorCode::ProtocolError, "malformed Train payload"));
    }
    trains_.fetch_add(1, std::memory_order_relaxed);

    // One global fan-out order: every replica applies the same train
    // stream in the same sequence, the invariant convergence rests on.
    std::lock_guard<std::mutex> trainLock(trainMutex_);

    std::vector<unsigned> targets;
    unsigned journaled = 0;
    {
        std::lock_guard<std::mutex> lock(tableMutex_);
        targets = table_.trainTargets();
        for (unsigned i = 0; i < table_.size(); ++i) {
            if (table_.state(i) != ReplicaState::Joining ||
                !table_.journaling(i))
                continue;
            TrainRecord record{info, actual, pred};
            if (table_.journalTrain(i, std::move(record),
                                    config_.journalCapacity)) {
                journaled++;
            } else {
                // The joiner fell journalCapacity trains behind; it
                // restarts the join from a fresh snapshot instead.
                table_.abortJoin(i);
            }
        }
    }

    // Send to every target before awaiting any reply, so the fan-out
    // costs one replica round trip, not one per replica. Links lock in
    // ascending index (targets is ascending) and each is released as
    // soon as its own reply is read.
    std::vector<std::unique_lock<std::mutex>> linkLocks;
    std::vector<Expected<std::uint64_t>> sent;
    linkLocks.reserve(targets.size());
    sent.reserve(targets.size());
    for (unsigned idx : targets) {
        Link &link = *links_[idx];
        linkLocks.emplace_back(link.mutex);
        trainSends_.fetch_add(1, std::memory_order_relaxed);
        fanned.add();
        sent.push_back(link.client->sendTrain(info, actual, pred));
    }
    std::vector<bool> trained(targets.size(), false);
    for (std::size_t k = 0; k < targets.size(); ++k) {
        net::NetClient &client = *links_[targets[k]]->client;
        trained[k] = sent[k] && client.awaitTrain(*sent[k]);
        linkLocks[k].unlock();
    }

    unsigned applied = 0;
    {
        std::lock_guard<std::mutex> lock(tableMutex_);
        for (std::size_t k = 0; k < targets.size(); ++k) {
            const unsigned idx = targets[k];
            if (trained[k]) {
                table_.counters(idx).trainsApplied++;
                applied++;
            } else {
                // Outcome unknown (or refused): this replica's state
                // may have forked from the fan-out. Never retried —
                // Down now, snapshot bootstrap later.
                table_.counters(idx).trainFailures++;
                table_.markDown(idx);
            }
        }
    }

    if (applied == 0 && journaled == 0) {
        trainsUnplaced_.fetch_add(1, std::memory_order_relaxed);
        return HandlerReply::fail(
            makeError(ErrorCode::ShardUnavailable,
                      "train reached no replica"));
    }
    return HandlerReply::make(FrameType::TrainOk);
}

Expected<unsigned>
ReplicaGateway::designatedReplica() const
{
    std::lock_guard<std::mutex> lock(tableMutex_);
    const std::vector<unsigned> order = table_.predictOrder();
    if (order.empty())
        return makeError(ErrorCode::ShardUnavailable,
                         "no serving replica");
    return order.front();
}

HandlerReply
ReplicaGateway::handleStats()
{
    // Any converged replica's stats ARE the service's stats (they are
    // a pure function of the shared train stream), so Stats proxies
    // the designated replica instead of inventing a new frame.
    auto designated = designatedReplica();
    if (!designated)
        return HandlerReply::fail(std::move(designated.error()));
    Link &link = *links_[*designated];
    Expected<net::ServiceWireStats> stats = [&] {
        std::lock_guard<std::mutex> lock(link.mutex);
        return link.client->stats();
    }();
    if (!stats) {
        return HandlerReply::fail(
            std::move(stats.error())
                .withContext("proxying stats from replica " +
                             std::to_string(*designated)));
    }
    statsProxied_.fetch_add(1, std::memory_order_relaxed);
    return HandlerReply::make(FrameType::StatsOk,
                              net::encodeServiceStats(*stats));
}

void
ReplicaGateway::coldJoin(unsigned replica)
{
    std::lock_guard<std::mutex> lock(tableMutex_);
    table_.beginJoin(replica);
    table_.completeJoin(replica);
    table_.counters(replica).coldJoins++;
    joins_.fetch_add(1, std::memory_order_relaxed);
}

Expected<void>
ReplicaGateway::beginJoin(unsigned replica)
{
    {
        std::lock_guard<std::mutex> lock(tableMutex_);
        if (replica >= table_.size())
            return makeError(ErrorCode::InvalidArgument,
                             "replica index out of range");
        if (table_.state(replica) != ReplicaState::Down)
            return makeError(
                ErrorCode::InvalidArgument,
                std::string("beginJoin on a ") +
                    replicaStateName(table_.state(replica)) +
                    " replica");
        table_.beginJoin(replica);
    }

    // Quiesce trains: the per-shard snapshots below form one
    // consistent cut, and journaling starts before the first train
    // after that cut can flow.
    std::lock_guard<std::mutex> trainLock(trainMutex_);
    unsigned donor = 0;
    {
        std::lock_guard<std::mutex> lock(tableMutex_);
        const std::vector<unsigned> order = table_.predictOrder();
        if (order.empty()) {
            table_.abortJoin(replica);
            return makeError(ErrorCode::ShardUnavailable,
                             "no donor replica for bootstrap");
        }
        donor = order.front();
    }
    Link &donorLink = *links_[donor];
    Expected<BootstrapStats> fetched = [&] {
        std::lock_guard<std::mutex> lock(donorLink.mutex);
        return fetchAllShards(*donorLink.client, config_.shards,
                              staged_[replica]);
    }();
    std::lock_guard<std::mutex> lock(tableMutex_);
    if (!fetched) {
        table_.abortJoin(replica);
        joinFailures_.fetch_add(1, std::memory_order_relaxed);
        return std::move(fetched.error())
            .withContext("bootstrap cut for replica " +
                         std::to_string(replica));
    }
    table_.counters(replica).bootstrapBytes += fetched->bytes;
    table_.startJournal(replica);
    return ok();
}

Expected<void>
ReplicaGateway::finishJoin(unsigned replica)
{
    {
        std::lock_guard<std::mutex> lock(tableMutex_);
        if (replica >= table_.size() ||
            table_.state(replica) != ReplicaState::Joining)
            return makeError(ErrorCode::InvalidArgument,
                             "finishJoin without beginJoin");
    }

    // Install outside the train lock: the joiner is not serving, and
    // concurrent fan-out trains keep landing in its journal.
    Link &link = *links_[replica];
    Expected<BootstrapStats> installed = [&] {
        std::lock_guard<std::mutex> lock(link.mutex);
        return installAllShards(*link.client, staged_[replica]);
    }();
    if (!installed) {
        std::lock_guard<std::mutex> lock(tableMutex_);
        table_.abortJoin(replica);
        staged_[replica].clear();
        joinFailures_.fetch_add(1, std::memory_order_relaxed);
        return std::move(installed.error())
            .withContext("bootstrap install for replica " +
                         std::to_string(replica));
    }

    // Replay under the train lock: nothing new can arrive, so when
    // the journal drains the replica is exactly caught up.
    std::lock_guard<std::mutex> trainLock(trainMutex_);
    std::deque<TrainRecord> pending;
    {
        std::lock_guard<std::mutex> lock(tableMutex_);
        pending = table_.takePending(replica);
    }
    for (const TrainRecord &record : pending) {
        Expected<void> trained = [&] {
            std::lock_guard<std::mutex> lock(link.mutex);
            return link.client->train(record.info, record.actualAddr,
                                      record.pred);
        }();
        std::lock_guard<std::mutex> lock(tableMutex_);
        if (!trained) {
            table_.abortJoin(replica);
            staged_[replica].clear();
            joinFailures_.fetch_add(1, std::memory_order_relaxed);
            return std::move(trained.error())
                .withContext("journal replay for replica " +
                             std::to_string(replica));
        }
        table_.counters(replica).trainsReplayed++;
    }
    std::lock_guard<std::mutex> lock(tableMutex_);
    table_.completeJoin(replica);
    staged_[replica].clear();
    joins_.fetch_add(1, std::memory_order_relaxed);
    return ok();
}

unsigned
ReplicaGateway::healthPass()
{
    static obs::Counter &passes = obs::counter("replica.health_passes");
    passes.add();

    const unsigned n = [&] {
        std::lock_guard<std::mutex> lock(tableMutex_);
        return table_.size();
    }();

    std::vector<unsigned> joinNeeded;
    for (unsigned i = 0; i < n; ++i) {
        ReplicaState state;
        {
            std::lock_guard<std::mutex> lock(tableMutex_);
            state = table_.state(i);
        }
        if (state == ReplicaState::Joining)
            continue; // a join is already in flight
        Link &link = *links_[i];
        Expected<void> pinged = [&] {
            std::lock_guard<std::mutex> lock(link.mutex);
            return link.client->ping();
        }();
        std::lock_guard<std::mutex> lock(tableMutex_);
        if (pinged) {
            if (table_.state(i) == ReplicaState::Down)
                joinNeeded.push_back(i); // restarted process
            else
                table_.recordPingOk(i);
        } else if (table_.state(i) == ReplicaState::Healthy ||
                   table_.state(i) == ReplicaState::Suspect) {
            table_.counters(i).pingFailures++;
            table_.strike(i, config_.maxStrikes);
        }
    }

    unsigned joined = 0;
    for (unsigned i : joinNeeded) {
        const bool coldStart = [&] {
            std::lock_guard<std::mutex> lock(tableMutex_);
            return table_.allDown();
        }();
        if (coldStart) {
            // Total cold start: every replica is equally blank, so
            // the first one up needs no donor — it becomes one.
            coldJoin(i);
            joined++;
            continue;
        }
        if (auto begun = beginJoin(i); !begun)
            continue; // counted in joinFailures_; retried next pass
        if (auto finished = finishJoin(i); !finished)
            continue;
        joined++;
    }
    return joined;
}

unsigned
ReplicaGateway::fleetPass()
{
    static obs::Counter &passes = obs::counter("replica.fleet_passes");
    passes.add();

    const unsigned n = [&] {
        std::lock_guard<std::mutex> lock(tableMutex_);
        return table_.size();
    }();
    {
        std::lock_guard<std::mutex> lock(fleetMutex_);
        if (fleet_.size() != n)
            fleet_.resize(n);
    }

    unsigned scraped = 0;
    for (unsigned i = 0; i < n; ++i) {
        ReplicaState state;
        std::string endpoint;
        {
            std::lock_guard<std::mutex> lock(tableMutex_);
            state = table_.state(i);
            endpoint = table_.endpoint(i);
        }
        // Start from the previous reading: cumulative fields (and the
        // veto baseline the delta is computed against) survive a
        // failed scrape.
        FleetReplicaView view = [&] {
            std::lock_guard<std::mutex> lock(fleetMutex_);
            return fleet_[i];
        }();
        view.endpoint = std::move(endpoint);
        view.state = state;
        view.scraped = false;
        // A Down replica is not probed — that is healthPass()'s job;
        // the watchdog only reads processes believed alive.
        if (state != ReplicaState::Down) {
            Link &link = *links_[i];
            Expected<std::string> doc = [&] {
                std::lock_guard<std::mutex> lock(link.mutex);
                auto fetched = link.client->fetchObs(true);
                if (fetched)
                    view.clockOffsetNs =
                        link.client->serverClockOffsetNs();
                return fetched;
            }();
            if (doc && distillScrape(*doc, view)) {
                view.scraped = true;
                view.scrapes++;
                fleetScrapes_.fetch_add(1, std::memory_order_relaxed);
                scraped++;
            } else {
                fleetScrapeFailures_.fetch_add(
                    1, std::memory_order_relaxed);
            }
        }
        std::lock_guard<std::mutex> lock(fleetMutex_);
        fleet_[i] = std::move(view);
    }
    return scraped;
}

std::vector<FleetReplicaView>
ReplicaGateway::fleetView() const
{
    std::lock_guard<std::mutex> lock(fleetMutex_);
    return fleet_;
}

std::string
ReplicaGateway::obsJson(bool include_timing,
                        std::string_view server_name)
{
    std::string json = "{\n  \"server\": \"";
    json += jsonEscape(std::string(server_name));
    json += "\",\n  ";
    json += obs::scrapeSectionsJson(include_timing);
    // The fleet view: what the watchdog last learned per replica.
    // Wall-clock-derived fields (stage p99s, clock offset) follow the
    // same include_timing gate as the registry's timing section, so a
    // --stable scrape of the gateway stays byte-deterministic.
    json += ",\n  \"fleet\": [";
    bool first = true;
    for (const FleetReplicaView &view : fleetView()) {
        json += first ? "\n" : ",\n";
        first = false;
        json += "    {\"endpoint\": \"" + jsonEscape(view.endpoint) +
            "\"";
        json += ", \"state\": \"";
        json += replicaStateName(view.state);
        json += "\"";
        json += ", \"scraped\": ";
        json += view.scraped ? "true" : "false";
        json += ", \"scrapes\": " + std::to_string(view.scrapes);
        json += ", \"gate_vetoes\": " +
            std::to_string(view.gateVetoes);
        json += ", \"gate_veto_delta\": " +
            std::to_string(view.gateVetoDelta);
        json += ", \"dropped_spans\": " +
            std::to_string(view.droppedSpans);
        if (include_timing) {
            json += ", \"stage_handle_p99_us\": ";
            appendFixed3(json, view.stageHandleP99Us);
            json += ", \"stage_total_p99_us\": ";
            appendFixed3(json, view.stageTotalP99Us);
            json += ", \"clock_offset_ns\": " +
                std::to_string(view.clockOffsetNs);
        }
        json += "}";
    }
    json += "]\n}\n";
    return json;
}

Expected<DivergenceReport>
ReplicaGateway::auditReplicas()
{
    // Trains quiesced: every converged replica has resolved the same
    // train stream when its stats are read.
    std::lock_guard<std::mutex> trainLock(trainMutex_);
    audits_.fetch_add(1, std::memory_order_relaxed);

    DivergenceReport report;
    {
        std::lock_guard<std::mutex> lock(tableMutex_);
        report.replicasAudited = table_.trainTargets();
    }
    report.shardsCompared = config_.shards;

    std::vector<net::ServiceWireStats> all;
    for (unsigned idx : report.replicasAudited) {
        Link &link = *links_[idx];
        Expected<net::ServiceWireStats> stats = [&] {
            std::lock_guard<std::mutex> lock(link.mutex);
            return link.client->stats();
        }();
        if (!stats) {
            return std::move(stats.error())
                .withContext("auditing replica " + std::to_string(idx));
        }
        if (stats->shards.size() != config_.shards) {
            return makeError(ErrorCode::InvalidArgument,
                             "replica " + std::to_string(idx) +
                                 " reports " +
                                 std::to_string(stats->shards.size()) +
                                 " shard(s), expected " +
                                 std::to_string(config_.shards));
        }
        all.push_back(std::move(*stats));
    }
    for (unsigned shard = 0; shard < config_.shards; ++shard) {
        for (std::size_t r = 1; r < all.size(); ++r) {
            if (!(all[r].shards[shard].stats ==
                  all[0].shards[shard].stats)) {
                report.equal = false;
                report.divergedShards.push_back(shard);
                break;
            }
        }
    }
    if (!report.equal)
        auditDivergences_.fetch_add(1, std::memory_order_relaxed);
    return report;
}

void
ReplicaGateway::forceDown(unsigned replica)
{
    std::lock_guard<std::mutex> lock(tableMutex_);
    if (replica < table_.size())
        table_.markDown(replica);
}

std::vector<ReplicaSnapshot>
ReplicaGateway::replicaSnapshots() const
{
    std::lock_guard<std::mutex> lock(tableMutex_);
    std::vector<ReplicaSnapshot> out;
    out.reserve(table_.size());
    for (unsigned i = 0; i < table_.size(); ++i) {
        ReplicaSnapshot snap;
        snap.endpoint = table_.endpoint(i);
        snap.state = table_.state(i);
        snap.strikes = table_.strikes(i);
        snap.pendingTrains = table_.pendingTrains(i);
        snap.counters = table_.counters(i);
        out.push_back(std::move(snap));
    }
    return out;
}

GatewayCounters
ReplicaGateway::counters() const
{
    GatewayCounters out;
    out.predicts = predicts_.load(std::memory_order_relaxed);
    out.predictFailovers =
        predictFailovers_.load(std::memory_order_relaxed);
    out.predictsFailed =
        predictsFailed_.load(std::memory_order_relaxed);
    out.trains = trains_.load(std::memory_order_relaxed);
    out.trainSends = trainSends_.load(std::memory_order_relaxed);
    out.trainsUnplaced =
        trainsUnplaced_.load(std::memory_order_relaxed);
    out.statsProxied = statsProxied_.load(std::memory_order_relaxed);
    out.joins = joins_.load(std::memory_order_relaxed);
    out.joinFailures = joinFailures_.load(std::memory_order_relaxed);
    out.audits = audits_.load(std::memory_order_relaxed);
    out.auditDivergences =
        auditDivergences_.load(std::memory_order_relaxed);
    out.fleetScrapes = fleetScrapes_.load(std::memory_order_relaxed);
    out.fleetScrapeFailures =
        fleetScrapeFailures_.load(std::memory_order_relaxed);
    return out;
}

} // namespace clap::replica

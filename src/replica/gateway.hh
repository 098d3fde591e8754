/**
 * @file
 * ReplicaGateway: N clapd replicas behind one fault-tolerant front
 * door. Plugs into NetServer as a FrameHandler, so the transport
 * layer (deadlines, CRC poisoning, budgets, Hello/Shutdown) is shared
 * with clapd and only the replication policy lives here:
 *
 *   - Trains fan out to every Healthy/Suspect replica under one
 *     mutex (a global train order all replicas agree on). The train
 *     is sent to every replica before any reply is awaited, so a
 *     fan-out costs about one replica round trip, not one per
 *     replica; each replica still gets exactly one send. Trains are
 *     never shed: a replica whose train fails — outcome unknown — is
 *     marked Down on the spot, because its state may have forked; a
 *     Joining replica's trains are journaled and replayed after its
 *     bootstrap. The client's train succeeds if at least one replica
 *     (or the journal) took it.
 *   - Predicts go to one Healthy replica: a seeded-deterministic pick
 *     (Balance::Seeded, the bench/test mode — the assignment sequence
 *     is a pure function of the seed) or the least-in-flight replica
 *     (Balance::LeastInFlight, production). A transport-failed
 *     forward strikes the replica and fails over to the next one
 *     within the same request; the client sees an error only when no
 *     serving replica is left.
 *   - healthPass() pings every replica: Suspect heals to Healthy,
 *     strikes accumulate to Down, and a Down replica that answers
 *     again (a restarted process) is bootstrapped — all shards are
 *     fetched from a Healthy donor inside the train-quiescent cut,
 *     installed into the joiner while new trains journal, and the
 *     journal is replayed before the replica re-enters rotation. On a
 *     total cold start (every replica Down and blank) the first
 *     answering replica cold-joins without a donor and seeds the
 *     rest.
 *   - auditReplicas() is the divergence auditor: per-shard
 *     PredictionStats fetched from every converged replica must be
 *     bit-for-bit identical (stats are tallied at train resolution,
 *     so they are a pure function of the train stream every replica
 *     shares).
 *
 * Since every request carries its own GHR/path history, the gateway
 * is history-transparent — forwarded frames need no adoptHistory
 * handoff; that path belongs to end clients switching endpoints.
 */

#ifndef CLAP_REPLICA_GATEWAY_HH
#define CLAP_REPLICA_GATEWAY_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/client.hh"
#include "net/server.hh"
#include "replica/table.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace clap::replica
{

struct ReplicaGatewayConfig
{
    /// Backend endpoints ("unix:/tmp/r0.sock", "tcp:127.0.0.1:7000").
    std::vector<std::string> replicas;

    /// Shard count of every backend (bootstrap fetches all of them).
    unsigned shards = 4;

    enum class Balance : std::uint8_t
    {
        Seeded,        ///< deterministic seeded pick (tests, benches)
        LeastInFlight, ///< production load balancing
    };
    Balance balance = Balance::LeastInFlight;
    std::uint64_t balanceSeed = 0x5eedul;

    /// Liveness strikes before Suspect becomes Down.
    unsigned maxStrikes = 3;

    /// Trains journaled for one Joining replica before its join is
    /// aborted (it fell too far behind to ever replay).
    std::size_t journalCapacity = 1u << 16;

    /// Per-replica client knobs (endpoint/name are overwritten).
    /// Dead-replica detection cost = maxAttempts refused connects.
    net::ClientConfig client = defaultClient();

    static net::ClientConfig
    defaultClient()
    {
        net::ClientConfig client;
        client.endpoint = "-"; // replaced per replica
        client.maxAttempts = 2;
        client.backoffBaseMs = 1;
        client.backoffMaxMs = 20;
        return client;
    }

    Expected<void> validate() const;
};

/** One replica's externally visible condition. */
struct ReplicaSnapshot
{
    std::string endpoint;
    ReplicaState state = ReplicaState::Down;
    unsigned strikes = 0;
    std::size_t pendingTrains = 0;
    ReplicaCounters counters;
};

/** Cumulative gateway-level tallies. */
struct GatewayCounters
{
    std::uint64_t predicts = 0;        ///< forwarded predict requests
    std::uint64_t predictFailovers = 0;///< extra attempts after a failure
    std::uint64_t predictsFailed = 0;  ///< no serving replica left
    std::uint64_t trains = 0;          ///< fan-out rounds
    std::uint64_t trainSends = 0;      ///< per-replica train sends
    std::uint64_t trainsUnplaced = 0;  ///< applied nowhere, journaled nowhere
    std::uint64_t statsProxied = 0;
    std::uint64_t joins = 0;           ///< completed (incl. cold) joins
    std::uint64_t joinFailures = 0;
    std::uint64_t audits = 0;
    std::uint64_t auditDivergences = 0;
    std::uint64_t fleetScrapes = 0;    ///< successful per-replica scrapes
    std::uint64_t fleetScrapeFailures = 0;
};

/**
 * What the fleet watchdog last learned about one replica by scraping
 * its ObsFetch endpoint (fleetPass). Cumulative fields come straight
 * from the replica's registry; deltas are against the previous
 * successful scrape of the same replica.
 */
struct FleetReplicaView
{
    std::string endpoint;
    ReplicaState state = ReplicaState::Down;
    bool scraped = false;        ///< this replica answered the last pass
    std::uint64_t scrapes = 0;   ///< successful scrapes so far

    /// Confidence/tag/path/pipe (+ stride interval) vetoes summed over
    /// every shard's cap + stride gates — the paper's "don't
    /// speculate" decisions, surfaced fleet-wide.
    std::uint64_t gateVetoes = 0;
    std::uint64_t gateVetoDelta = 0;

    std::uint64_t droppedSpans = 0; ///< obs.trace_events.dropped

    /// @name Wall-clock-derived (excluded from --stable scrapes)
    /// @{
    double stageHandleP99Us = 0.0; ///< net.stage.handle_ns p99, in us
    double stageTotalP99Us = 0.0;  ///< net.stage.total_ns p99, in us
    std::int64_t clockOffsetNs = 0;///< replica trace clock minus ours
    /// @}
};

/** What the divergence auditor found. */
struct DivergenceReport
{
    bool equal = true;
    std::vector<unsigned> replicasAudited;
    unsigned shardsCompared = 0;
    std::vector<unsigned> divergedShards;
};

class ReplicaGateway : public net::FrameHandler
{
  public:
    explicit ReplicaGateway(const ReplicaGatewayConfig &config);
    ~ReplicaGateway() override;

    ReplicaGateway(const ReplicaGateway &) = delete;
    ReplicaGateway &operator=(const ReplicaGateway &) = delete;

    /** Validate and build the per-replica client links. Replicas may
     *  all be down at this point; the first healthPass() joins them. */
    Expected<void> start();

    /** Drop every backend connection (links reconnect on demand if
     *  the gateway keeps serving). */
    void stop();

    net::HandlerReply handle(const net::Frame &frame) override;

    /**
     * One health round: ping every replica, heal/strike states, then
     * bootstrap any Down replica that answered (restarted process).
     * Returns the number of replicas that completed a join. Callers
     * own the cadence: HealthMonitor in daemons, explicit calls at
     * deterministic points in benches and tests.
     */
    unsigned healthPass();

    /**
     * One fleet-watchdog round: scrape every non-Down replica's
     * observability endpoint (net::NetClient::fetchObs) and distill
     * the per-replica stage p99s, gate-veto totals (with deltas
     * against the previous pass), and dropped-span counts into the
     * fleet view served by obsJson(). Returns the number of replicas
     * scraped successfully. Cadence belongs to the caller, like
     * healthPass() — HealthMonitor(fleet_watch=true) in clapr.
     */
    unsigned fleetPass();

    /** The watchdog's last per-replica readings (empty before the
     *  first fleetPass). */
    std::vector<FleetReplicaView> fleetView() const;

    /** Registry scrape plus the fleet view ("fleet" section). */
    std::string obsJson(bool include_timing,
                        std::string_view server_name) override;

    /// @name Bootstrap steps (healthPass composes these; exposed so
    /// tests and benches can interleave traffic between the cut and
    /// the replay, exercising the journal deterministically)
    /// @{

    /** The cut: Down -> Joining, fetch all shards from a Healthy
     *  donor inside the train-quiescent section, start journaling. */
    Expected<void> beginJoin(unsigned replica);

    /** Install the fetched shards, replay the journal, and return
     *  the replica to Healthy rotation. */
    Expected<void> finishJoin(unsigned replica);
    /// @}

    /** Cross-check per-shard PredictionStats across every converged
     *  replica (quiesces trains for a stable cut). */
    Expected<DivergenceReport> auditReplicas();

    /** Force a replica Down (chaos hook; what a failed train would
     *  do). */
    void forceDown(unsigned replica);

    std::vector<ReplicaSnapshot> replicaSnapshots() const;
    GatewayCounters counters() const;

    const ReplicaGatewayConfig &config() const { return config_; }

  private:
    struct Link
    {
        std::unique_ptr<net::NetClient> client;
        /// NetClient is single-threaded. Held alone, except by the
        /// train fan-out, which holds every target's link (taken in
        /// ascending index under trainMutex_) from its send until its
        /// own reply is read. Never held while taking tableMutex_.
        std::mutex mutex;
        std::atomic<unsigned> inFlight{0};
    };

    net::HandlerReply handlePredict(const net::Frame &frame);
    net::HandlerReply handleTrain(const net::Frame &frame);
    net::HandlerReply handleStats();

    /** Pick + failover order for one predict (under tableMutex_). */
    std::vector<unsigned> predictAttemptOrder();

    /** First Healthy (else Suspect) replica, for proxied requests. */
    Expected<unsigned> designatedReplica() const;

    /** Total cold start: promote @p replica to Healthy with no donor
     *  (every peer is equally blank). */
    void coldJoin(unsigned replica);

    ReplicaGatewayConfig config_;

    /// Guards table_, rng_, staged_. Never held across network I/O.
    mutable std::mutex tableMutex_;
    ReplicaTable table_;
    Rng rng_;
    /// Per-replica fetched snapshots between beginJoin and finishJoin.
    std::vector<std::vector<std::string>> staged_;

    /// Serializes train fan-out, the bootstrap cut/replay, and
    /// audits. Ordered before tableMutex_ and links.
    std::mutex trainMutex_;

    /// Guards fleet_ only; never held across network I/O and never
    /// nested with tableMutex_, so obsJson() can render the fleet
    /// view while a fleetPass() is mid-scrape.
    mutable std::mutex fleetMutex_;
    std::vector<FleetReplicaView> fleet_;

    std::vector<std::unique_ptr<Link>> links_;

    /// @name Counter cells
    /// @{
    std::atomic<std::uint64_t> predicts_{0};
    std::atomic<std::uint64_t> predictFailovers_{0};
    std::atomic<std::uint64_t> predictsFailed_{0};
    std::atomic<std::uint64_t> trains_{0};
    std::atomic<std::uint64_t> trainSends_{0};
    std::atomic<std::uint64_t> trainsUnplaced_{0};
    std::atomic<std::uint64_t> statsProxied_{0};
    std::atomic<std::uint64_t> joins_{0};
    std::atomic<std::uint64_t> joinFailures_{0};
    std::atomic<std::uint64_t> audits_{0};
    std::atomic<std::uint64_t> auditDivergences_{0};
    std::atomic<std::uint64_t> fleetScrapes_{0};
    std::atomic<std::uint64_t> fleetScrapeFailures_{0};
    /// @}
};

} // namespace clap::replica

#endif // CLAP_REPLICA_GATEWAY_HH

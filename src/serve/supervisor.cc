#include "serve/supervisor.hh"

#include <chrono>

#include "core/config.hh"
#include "obs/metrics.hh"
#include "obs/trace_events.hh"
#include "util/atomic_file.hh"

namespace clap
{

ShardSupervisor::ShardSupervisor(PredictionService &service,
                                 const SupervisorConfig &config)
    : service_(service), config_(validated(config)),
      unwritten_(service.config().shards)
{
}

std::string
ShardSupervisor::shardSnapshotPath(unsigned shard_index) const
{
    return config_.snapshotDir + "/" + config_.filePrefix + "-" +
           std::to_string(shard_index) + ".state";
}

Expected<void>
ShardSupervisor::snapshotShard(unsigned shard_index)
{
    static obs::Counter &snapshots =
        obs::counter("supervisor.snapshots");
    static obs::Counter &snapshotFailures =
        obs::counter("supervisor.snapshot_failures");
    // Never persist a shard known to be bad: the on-disk snapshot is
    // the recovery source and must stay last-known-good.
    if (auto healthy = service_.shardHealth(shard_index); !healthy) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.snapshotFailures;
        snapshotFailures.add();
        return std::move(healthy.error())
            .withContext("snapshot of unhealthy shard refused");
    }
    if (service_.shardQuarantined(shard_index)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.snapshotFailures;
        snapshotFailures.add();
        return makeError(ErrorCode::ShardUnavailable,
                         "snapshot of quarantined shard refused")
            .withContext("shard " + std::to_string(shard_index));
    }
    auto captured = service_.captureShardState(shard_index);
    if (!captured) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.snapshotFailures;
        snapshotFailures.add();
        return std::move(captured.error())
            .withContext("supervisor snapshot");
    }
    if (auto written =
            writeFileAtomic(shardSnapshotPath(shard_index), *captured);
        !written) {
        std::lock_guard<std::mutex> lock(mutex_);
        unwritten_[shard_index] = std::move(*captured);
        ++stats_.snapshotFailures;
        snapshotFailures.add();
        return std::move(written.error())
            .withContext("supervisor snapshot");
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        unwritten_[shard_index].clear();
        ++stats_.snapshots;
    }
    snapshots.add();
    return ok();
}

Expected<void>
ShardSupervisor::snapshotAll()
{
    Expected<void> first = ok();
    for (unsigned s = 0; s < service_.config().shards; ++s) {
        if (auto status = snapshotShard(s); !status && first)
            first = std::move(status.error());
    }
    return first;
}

Expected<void>
ShardSupervisor::recoverShard(unsigned shard_index)
{
    // Every rung of the restore ladder gets its own registry counter
    // so recovery *behavior* — not just recovery *counts* — is visible
    // in `obs_tool stats --metrics` and serve snapshots.
    static obs::Counter &recoveries =
        obs::counter("supervisor.recoveries");
    static obs::Counter &strictRestores =
        obs::counter("supervisor.strict_restores");
    static obs::Counter &salvagedRestores =
        obs::counter("supervisor.salvaged_restores");
    static obs::Counter &freshRestarts =
        obs::counter("supervisor.fresh_restarts");
    static obs::Counter &unrecoveredShards =
        obs::counter("supervisor.unrecovered");
    static obs::Histogram &recoveryMs =
        obs::histogram("supervisor.recovery_ms");

    obs::Span span("supervisor.recover", "serve");
    const auto started = std::chrono::steady_clock::now();

    service_.quarantineShard(shard_index);

    // Restore ladder: intact snapshot, salvaged snapshot, fresh
    // predictor. Each rung clears the failure flags and replays the
    // journal (state restores) or discards it (fresh restart).
    enum class Outcome
    {
        Strict,
        Salvaged,
        Fresh,
        Failed,
    };
    Outcome outcome = Outcome::Failed;
    Error failure;

    // The capture that opened the journal's epoch: the one whose file
    // write failed if there is one, else the file.
    Expected<std::string> bytes = [&]() -> Expected<std::string> {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!unwritten_[shard_index].empty())
                return unwritten_[shard_index];
        }
        return readFileBytes(shardSnapshotPath(shard_index));
    }();
    if (bytes) {
        if (auto restored =
                service_.restoreShardState(shard_index, *bytes);
            restored) {
            outcome = Outcome::Strict;
        } else if (auto salvaged = service_.restoreShardState(
                       shard_index, *bytes, /*salvage=*/true);
                   salvaged) {
            outcome = Outcome::Salvaged;
        } else {
            failure = std::move(salvaged.error());
        }
    } else {
        failure = std::move(bytes.error());
    }

    if (outcome == Outcome::Failed && config_.freshRestartFallback) {
        service_.resetShard(shard_index);
        outcome = Outcome::Fresh;
    }

    if (outcome == Outcome::Failed) {
        unrecoveredShards.add();
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.unrecovered;
        return std::move(failure).withContext(
            "recovering shard " + std::to_string(shard_index) +
            " (left quarantined)");
    }

    service_.rejoinShard(shard_index);

    // Advance the snapshot (and with it the journal epoch) to the
    // recovered state, so the next failure replays a short window.
    // Best-effort: a failed write is counted in snapshotFailures and
    // its capture, kept in memory, still recovers exactly.
    (void)snapshotShard(shard_index);

    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started);
    recoveryMs.record(static_cast<std::uint64_t>(elapsed.count()));
    recoveries.add();
    switch (outcome) {
      case Outcome::Strict:   strictRestores.add(); break;
      case Outcome::Salvaged: salvagedRestores.add(); break;
      case Outcome::Fresh:    freshRestarts.add(); break;
      case Outcome::Failed:   break; // unreachable
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.recoveries;
        switch (outcome) {
          case Outcome::Strict:   ++stats_.strictRestores; break;
          case Outcome::Salvaged: ++stats_.salvagedRestores; break;
          case Outcome::Fresh:    ++stats_.freshRestarts; break;
          case Outcome::Failed:   break; // unreachable
        }
    }
    return ok();
}

unsigned
ShardSupervisor::checkAndRecover()
{
    unsigned recovered = 0;
    for (unsigned s = 0; s < service_.config().shards; ++s) {
        const bool unhealthy =
            !service_.shardHealth(s) || service_.shardQuarantined(s);
        if (!unhealthy)
            continue;
        if (recoverShard(s))
            ++recovered;
    }
    return recovered;
}

SupervisorStats
ShardSupervisor::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace clap

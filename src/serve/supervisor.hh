/**
 * @file
 * Shard supervisor: the crash-recovery layer over PredictionService.
 * It periodically snapshots every shard's predictor state to disk
 * (core/state_io via util/atomic_file — durable, versioned, CRC
 * framed), watches shard health (per-batch audit failures, requests
 * that threw, failures reported by fault injection), and runs the
 * recovery protocol when a shard goes bad:
 *
 *   quarantine → restore last good snapshot (strict, then salvage)
 *             → replay the since-snapshot request journal
 *             → fresh restart as the last resort
 *             → rejoin
 *
 * While one shard recovers, its peers keep serving; requests routed
 * to the quarantined shard fail fast with a structured
 * ShardUnavailable error (retryable — see util/error.hh).
 *
 * Recovery guarantee (see DESIGN.md "State durability & shard
 * recovery"): when the last snapshot is intact and the shard journal
 * has not overflowed, the recovered shard is bit-for-bit identical to
 * an uninterrupted one — same predictor tables, same PredictionStats.
 * Recovery restores the capture that opened the journal's epoch, even
 * when writing that capture's file failed. A salvaged snapshot or an
 * overflowed journal degrades that to "audit-clean and serving",
 * which the chaos harness (serve/chaos.hh) verifies separately.
 *
 * The supervisor runs when its owner calls snapshotAll() and
 * checkAndRecover(): the chaos benchmark and the tests. It is an
 * in-process layer; a clapd daemon has none, since the replica fleet
 * recovers a daemon (DESIGN.md §13).
 */

#ifndef CLAP_SERVE_SUPERVISOR_HH
#define CLAP_SERVE_SUPERVISOR_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/service.hh"
#include "util/error.hh"

namespace clap
{

/** Supervisor knobs. */
struct SupervisorConfig
{
    /// Directory holding the per-shard snapshot files
    /// (<snapshotDir>/<filePrefix>-<shard>.state). Must exist.
    std::string snapshotDir = ".";

    std::string filePrefix = "shard";

    /// Fall back to a fresh factory predictor when no snapshot
    /// restores at all; disabling leaves the shard quarantined and
    /// reports the recovery as failed.
    bool freshRestartFallback = true;

    /** Structural sanity checks; call before building a supervisor. */
    Expected<void>
    validate() const
    {
        if (snapshotDir.empty()) {
            return detail::configError("SupervisorConfig",
                                       "snapshotDir must be non-empty");
        }
        if (filePrefix.empty() ||
            filePrefix.find('/') != std::string::npos) {
            return detail::configError(
                "SupervisorConfig",
                "filePrefix must be a non-empty file name fragment");
        }
        return ok();
    }
};

/** Cumulative supervisor activity counters. */
struct SupervisorStats
{
    std::uint64_t snapshots = 0;        ///< snapshot files written
    std::uint64_t snapshotFailures = 0; ///< capture/write failures
    std::uint64_t recoveries = 0;       ///< shards brought back
    std::uint64_t strictRestores = 0;   ///< recovered via intact snapshot
    std::uint64_t salvagedRestores = 0; ///< recovered via salvage
    std::uint64_t freshRestarts = 0;    ///< recovered via factory reset
    std::uint64_t unrecovered = 0;      ///< recovery attempts that failed
};

class ShardSupervisor
{
  public:
    /**
     * @throws std::invalid_argument when @p config fails validate()
     * (the predictor-constructor convention).
     */
    ShardSupervisor(PredictionService &service,
                    const SupervisorConfig &config);

    ShardSupervisor(const ShardSupervisor &) = delete;
    ShardSupervisor &operator=(const ShardSupervisor &) = delete;

    const SupervisorConfig &config() const { return config_; }

    /** Snapshot file path of shard @p shard_index. */
    std::string shardSnapshotPath(unsigned shard_index) const;

    /**
     * Capture shard @p shard_index and write its snapshot file. The
     * capture opens a new journal epoch even if the write fails, so
     * the supervisor then keeps it in memory for recoverShard() until
     * a later write succeeds.
     */
    Expected<void> snapshotShard(unsigned shard_index);

    /** snapshotShard over every shard; first error wins, the rest
     *  are still attempted. */
    Expected<void> snapshotAll();

    /**
     * Run the full recovery protocol for shard @p shard_index (see
     * file comment). On success the shard is serving again; on
     * failure it stays quarantined and the error says why.
     */
    Expected<void> recoverShard(unsigned shard_index);

    /**
     * Health pass: recover every shard whose shardHealth() reports a
     * failure. @return the number of shards recovered; failed
     * attempts are counted in stats().unrecovered.
     */
    unsigned checkAndRecover();

    SupervisorStats stats() const;

  private:
    PredictionService &service_;
    SupervisorConfig config_;

    mutable std::mutex mutex_;
    SupervisorStats stats_;
    /// Per shard: the last capture whose file write failed, empty
    /// once a later write succeeds. It opened the journal's epoch, so
    /// it, not the older file, is what recovery must restore.
    std::vector<std::string> unwritten_;
};

} // namespace clap

#endif // CLAP_SERVE_SUPERVISOR_HH

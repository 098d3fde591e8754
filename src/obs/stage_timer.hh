/**
 * @file
 * RAII stage timers: measure how long one request spends in each
 * pipeline stage (wire decode, queue wait, predictor compute, reply
 * encode) and record the elapsed nanoseconds into a log2 Histogram.
 *
 * Conservation contract: a caller that wants `sum(stages) ==
 * end-to-end` exactly should time the named stages with stageNowNs()
 * stamps and record the *gap* between them as an explicit residual
 * stage (see src/net/server.cc) rather than timing stages
 * independently — independent clock reads between stages would leak
 * the inter-stage nanoseconds.
 */

#ifndef CLAP_OBS_STAGE_TIMER_HH
#define CLAP_OBS_STAGE_TIMER_HH

#include <chrono>
#include <cstdint>

#include "obs/metrics.hh"

namespace clap::obs
{

/** Monotonic nanosecond stamp for stage timing. */
inline std::uint64_t
stageNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Scoped stage timer: records elapsed ns into @p hist when the scope
 * ends (or at stopNs(), whichever comes first).
 */
class StageTimer
{
  public:
    explicit StageTimer(Histogram &hist)
        : hist_(&hist), startNs_(stageNowNs())
    {
    }

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

    ~StageTimer()
    {
        if (!stopped_)
            stopNs();
    }

    /** End the stage now; returns the recorded duration. Idempotent —
     *  later calls return the first duration without re-recording. */
    std::uint64_t
    stopNs()
    {
        if (!stopped_) {
            stopped_ = true;
            elapsedNs_ = stageNowNs() - startNs_;
            hist_->record(elapsedNs_);
        }
        return elapsedNs_;
    }

    std::uint64_t startNs() const { return startNs_; }

  private:
    Histogram *hist_;
    std::uint64_t startNs_ = 0;
    std::uint64_t elapsedNs_ = 0;
    bool stopped_ = false;
};

} // namespace clap::obs

#endif // CLAP_OBS_STAGE_TIMER_HH

/**
 * @file
 * The ladder's timing decorator around an AddressPredictor. It gives
 * the ladder two things without touching src/: the lifetime of every
 * predictor a sweep job builds (factory call to destruction, which
 * brackets the job's simulation), and sampled predict()/update()
 * times (one call in samplePeriod is timed, so the clock reads cost
 * the hot path little) plus timed audit() calls.
 */

#ifndef CLAP_BENCH_LADDER_TIMED_PREDICTOR_HH
#define CLAP_BENCH_LADDER_TIMED_PREDICTOR_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/predictor.hh"

namespace clap::ladder
{

/** One decorated predictor's life, on the thread that built it, and
 *  the totals of its sampled calls. */
struct Lifetime
{
    std::thread::id thread;
    std::chrono::steady_clock::time_point born;
    std::chrono::steady_clock::time_point died;
    double predictNs = 0.0;
    std::uint64_t predictSamples = 0;
    double updateNs = 0.0;
    std::uint64_t updateSamples = 0;
    double auditNs = 0.0; ///< every audit() is timed when sampling
    std::uint64_t audits = 0;

    /** Add @p other's sampled call totals to this one's. */
    void
    addCalls(const Lifetime &other)
    {
        predictNs += other.predictNs;
        predictSamples += other.predictSamples;
        updateNs += other.updateNs;
        updateSamples += other.updateSamples;
        auditNs += other.auditNs;
        audits += other.audits;
    }
};

/** Thread-safe collector of lifetimes. */
class LifetimeLog
{
  public:
    void
    add(const Lifetime &life)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lives_.push_back(life);
    }

    /** Everything recorded so far; the log is left empty. */
    std::vector<Lifetime>
    take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::exchange(lives_, {});
    }

  private:
    std::mutex mutex_;
    std::vector<Lifetime> lives_;
};

class TimedPredictor final : public AddressPredictor
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * @param sample_period time one predict/update call in this many
     *        (0 = time none)
     * @param log receives this predictor's Lifetime on destruction
     *        (may be null)
     */
    TimedPredictor(std::unique_ptr<AddressPredictor> inner,
                   unsigned sample_period, LifetimeLog *log = nullptr)
        : inner_(std::move(inner)), period_(sample_period), log_(log)
    {
        life_.thread = std::this_thread::get_id();
        life_.born = Clock::now();
    }

    ~TimedPredictor() override
    {
        if (log_ == nullptr)
            return;
        life_.died = Clock::now();
        log_->add(life_);
    }

    TimedPredictor(const TimedPredictor &) = delete;
    TimedPredictor &operator=(const TimedPredictor &) = delete;

    Prediction
    predict(const LoadInfo &info) override
    {
        if (period_ == 0 || ++predicts_ % period_ != 0)
            return inner_->predict(info);
        const auto begin = Clock::now();
        Prediction pred = inner_->predict(info);
        life_.predictNs += nsSince(begin);
        ++life_.predictSamples;
        return pred;
    }

    void
    update(const LoadInfo &info, std::uint64_t actual_addr,
           const Prediction &pred) override
    {
        if (period_ == 0 || ++updates_ % period_ != 0) {
            inner_->update(info, actual_addr, pred);
            return;
        }
        const auto begin = Clock::now();
        inner_->update(info, actual_addr, pred);
        life_.updateNs += nsSince(begin);
        ++life_.updateSamples;
    }

    std::string name() const override { return inner_->name(); }
    Expected<void>
    audit() const override
    {
        if (period_ == 0)
            return inner_->audit();
        const auto begin = Clock::now();
        Expected<void> audited = inner_->audit();
        life_.auditNs += nsSince(begin);
        ++life_.audits;
        return audited;
    }
    PredictorTelemetry
    snapshotTelemetry() const override
    {
        return inner_->snapshotTelemetry();
    }

    /** Sampled totals so far (the died field is not yet set). */
    const Lifetime &life() const { return life_; }

  private:
    static double
    nsSince(Clock::time_point begin)
    {
        return std::chrono::duration<double, std::nano>(Clock::now() -
                                                        begin)
            .count();
    }

    std::unique_ptr<AddressPredictor> inner_;
    unsigned period_;
    LifetimeLog *log_;
    mutable Lifetime life_; ///< audit() is const but timed
    std::uint64_t predicts_ = 0;
    std::uint64_t updates_ = 0;
};

} // namespace clap::ladder

#endif // CLAP_BENCH_LADDER_TIMED_PREDICTOR_HH

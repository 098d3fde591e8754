/**
 * @file
 * Stand-alone CAP predictor: a load buffer plus the CAP component.
 * Used for the figure-9/figure-10 ablations; the paper notes CAP can
 * serve stand-alone since it also captures (short) stride patterns,
 * but should be hybridized for long arrays (section 3.7).
 */

#ifndef CLAP_CORE_CAP_PREDICTOR_HH
#define CLAP_CORE_CAP_PREDICTOR_HH

#include "core/cap_component.hh"
#include "core/config.hh"
#include "core/load_buffer.hh"
#include "core/predictor.hh"

namespace clap
{

/** Stand-alone context-based address predictor. */
class CapPredictor : public AddressPredictor
{
  public:
    /** @throws std::invalid_argument when @p config fails validate(). */
    explicit CapPredictor(const CapPredictorConfig &config)
        : arena_(LoadBuffer::laneBytes(validated(config).lb) +
                 LinkTable::laneBytes(config.cap)),
          lb_(config.lb, &arena_),
          cap_(config.cap, config.pipelined, &arena_)
    {
    }

    Prediction predict(const LoadInfo &info) override;
    void update(const LoadInfo &info, std::uint64_t actual_addr,
                const Prediction &pred) override;
    std::string name() const override { return "cap"; }

    /** LB + LT structural invariants (core/audit.hh). */
    Expected<void> audit() const override;
    Expected<void> auditDirty() override;

    /** LB/LT occupancy, cap confidence hist, gate vetoes. */
    PredictorTelemetry snapshotTelemetry() const override;

    LoadBuffer &loadBuffer() { return lb_; }
    const LoadBuffer &loadBuffer() const { return lb_; }
    CapComponent &component() { return cap_; }
    const CapComponent &component() const { return cap_; }

  private:
    LaneArena arena_; ///< one contiguous block for the LB + LT lanes
    LoadBuffer lb_;
    CapComponent cap_;
};

} // namespace clap

#endif // CLAP_CORE_CAP_PREDICTOR_HH

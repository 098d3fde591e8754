/**
 * @file
 * The hybrid CAP/enhanced-stride predictor of section 3.7: one shared
 * load buffer, both components predicting every dynamic load, a 2-bit
 * dynamic selector per LB entry arbitrating when both are confident,
 * and a configurable link-table update policy (section 4.3).
 */

#ifndef CLAP_CORE_HYBRID_PREDICTOR_HH
#define CLAP_CORE_HYBRID_PREDICTOR_HH

#include "core/cap_component.hh"
#include "core/config.hh"
#include "core/load_buffer.hh"
#include "core/predictor.hh"
#include "core/stride_component.hh"

namespace clap
{

/** Hybrid CAP/stride address predictor. */
class HybridPredictor : public AddressPredictor
{
  public:
    /** @throws std::invalid_argument when @p config fails validate(). */
    explicit HybridPredictor(const HybridConfig &config)
        : config_(validated(config)),
          arena_(LoadBuffer::laneBytes(config.lb) +
                 LinkTable::laneBytes(config.cap)),
          lb_(config.lb, &arena_),
          cap_(config.cap, config.pipelined, &arena_),
          stride_(config.stride, config.pipelined)
    {
    }

    Prediction predict(const LoadInfo &info) override;
    void update(const LoadInfo &info, std::uint64_t actual_addr,
                const Prediction &pred) override;

    /**
     * update() with an external veto on the link-table write, anded
     * with the configured LtUpdatePolicy. Used by the
     * profile-assisted wrapper to reserve the LT for context loads.
     */
    void update(const LoadInfo &info, std::uint64_t actual_addr,
                const Prediction &pred, bool allow_lt_update);

    std::string name() const override { return "hybrid"; }

    /** Shared LB + CAP LT structural invariants (core/audit.hh). */
    Expected<void> audit() const override;
    Expected<void> auditDirty() override;

    /** LB/LT occupancy, both confidence hists, selector
     *  distribution, and per-component gate vetoes. */
    PredictorTelemetry snapshotTelemetry() const override;

    LoadBuffer &loadBuffer() { return lb_; }
    const LoadBuffer &loadBuffer() const { return lb_; }
    CapComponent &capComponent() { return cap_; }
    const CapComponent &capComponent() const { return cap_; }
    StrideComponent &strideComponent() { return stride_; }
    const StrideComponent &strideComponent() const { return stride_; }
    const HybridConfig &config() const { return config_; }

  private:
    HybridConfig config_;
    LaneArena arena_; ///< one contiguous block for the LB + LT lanes
    LoadBuffer lb_;
    CapComponent cap_;
    StrideComponent stride_;
};

} // namespace clap

#endif // CLAP_CORE_HYBRID_PREDICTOR_HH

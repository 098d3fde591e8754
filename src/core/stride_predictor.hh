/**
 * @file
 * Stand-alone enhanced stride predictor: the paper's baseline
 * comparison point ("enhanced stride-based predictor features the
 * control-flow indications and the interval technique", section 4.2).
 */

#ifndef CLAP_CORE_STRIDE_PREDICTOR_HH
#define CLAP_CORE_STRIDE_PREDICTOR_HH

#include "core/config.hh"
#include "core/load_buffer.hh"
#include "core/predictor.hh"
#include "core/stride_component.hh"

namespace clap
{

/** Stand-alone enhanced stride address predictor. */
class StridePredictor : public AddressPredictor
{
  public:
    /** @throws std::invalid_argument when @p config fails validate(). */
    explicit StridePredictor(const StridePredictorConfig &config)
        : lb_(validated(config).lb),
          stride_(config.stride, config.pipelined)
    {
    }

    Prediction predict(const LoadInfo &info) override;
    void update(const LoadInfo &info, std::uint64_t actual_addr,
                const Prediction &pred) override;
    std::string name() const override { return "stride"; }

    /** LB structural invariants (core/audit.hh). */
    Expected<void> audit() const override;
    Expected<void> auditDirty() override;

    /** LB occupancy, stride confidence hist, gate vetoes. */
    PredictorTelemetry snapshotTelemetry() const override;

    LoadBuffer &loadBuffer() { return lb_; }
    const LoadBuffer &loadBuffer() const { return lb_; }
    StrideComponent &component() { return stride_; }
    const StrideComponent &component() const { return stride_; }

  private:
    LoadBuffer lb_;
    StrideComponent stride_;
};

} // namespace clap

#endif // CLAP_CORE_STRIDE_PREDICTOR_HH

/**
 * @file
 * Public address-predictor interface. A predictor sees, at predict
 * time, only what a real front end would have: the load's PC, the
 * immediate offset from its opcode, and the global branch/path
 * history. The actual effective address arrives later via update()
 * (immediately in the section-4 model, after the prediction gap in
 * the section-5 pipelined model).
 */

#ifndef CLAP_CORE_PREDICTOR_HH
#define CLAP_CORE_PREDICTOR_HH

#include <cstdint>
#include <string>

#include "core/telemetry.hh"
#include "util/error.hh"

namespace clap
{

/** Which component of a (possibly hybrid) predictor produced a
 *  speculative address. */
enum class Component : std::uint8_t
{
    None,
    Last,
    Stride,
    Cap,
};

/** Front-end information available when a load is predicted. */
struct LoadInfo
{
    std::uint64_t pc = 0;
    std::int32_t immOffset = 0;  ///< opcode immediate (section 3.3)
    std::uint64_t ghr = 0;       ///< global branch history, LSB newest
    std::uint64_t pathHist = 0;  ///< call-site path history
};

/**
 * Opaque reference to the load-buffer entry a predict() call used:
 * the entry's slot index plus the slot's generation stamp at predict
 * time (bumped on every (re)allocation of the slot). update() hands
 * the same Prediction back, and the predictor revalidates the handle
 * (generation AND tag must still match) instead of repeating the
 * set-associative search — one LoadBuffer search per load instead of
 * two. A stale handle (entry evicted between predict and update, or a
 * generation counter that wrapped onto a reused slot) falls back to a
 * fresh lookup; the tag check makes a wrapped-generation false match
 * harmless, because a slot that passes it holds this PC's entry
 * anyway.
 */
struct LBHandle
{
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
    bool valid = false; ///< false = no handle captured (always search)
};

/**
 * Outcome of a predict() call. The same object must be passed back to
 * update() for training: it carries the per-component predictions so
 * hybrid selection and statistics need no second table lookup.
 *
 * Terminology follows the paper: a prediction is *formed* whenever a
 * component produced an address (hasAddress); a *speculative access*
 * is performed only when the confidence mechanisms agree (speculate).
 * Prediction rate = speculative accesses / dynamic loads; accuracy =
 * correct / speculative accesses.
 */
struct Prediction
{
    bool lbHit = false;      ///< load hit in the predictor table(s)
    bool hasAddress = false; ///< some component formed an address
    bool speculate = false;  ///< confidence allows a speculative access
    std::uint64_t addr = 0;  ///< the speculated address (if speculate)
    Component component = Component::None; ///< winning component

    /// Load-buffer entry used at predict time; lets update() skip the
    /// second set-associative search (validated, never trusted).
    LBHandle lbHandle;

    /// @name Per-component detail (hybrid bookkeeping and statistics)
    /// @{
    bool capHasAddr = false;
    bool capSpec = false;
    std::uint64_t capAddr = 0;
    bool strideHasAddr = false;
    bool strideSpec = false;
    std::uint64_t strideAddr = 0;
    std::uint8_t selectorState = 0; ///< 2-bit selector value at predict
    /// @}
};

/** Abstract load-address predictor. */
class AddressPredictor
{
  public:
    virtual ~AddressPredictor() = default;

    /** Form a prediction for the load described by @p info. */
    virtual Prediction predict(const LoadInfo &info) = 0;

    /**
     * Resolve a prior prediction: the load's actual effective address
     * is known. @p pred must be the object predict() returned for
     * this dynamic instance. In the pipelined model, calls arrive in
     * program order but delayed by the prediction gap.
     */
    virtual void update(const LoadInfo &info, std::uint64_t actual_addr,
                        const Prediction &pred) = 0;

    /** Human-readable predictor name for reports. */
    virtual std::string name() const = 0;

    /**
     * Check the predictor's structural invariants (tag uniqueness,
     * field widths, counter ranges — see core/audit.hh). The sweep
     * runner calls this between traces; a CorruptedState error marks
     * the finished job as retryable under fault injection. The
     * default is a no-op for predictors without auditable tables.
     */
    virtual Expected<void> audit() const { return ok(); }

    /**
     * The same invariants as audit(), checked only over the table sets
     * changed through the table APIs since they last passed (the
     * dirty-set audit of core/audit.hh). A passing set's dirty flag is
     * cleared; a failing set stays dirty, so it fails again until it
     * is repaired. The serve layer runs this after every batch. State
     * changed outside the table APIs marks no set, and only audit()
     * finds it. The default runs the full audit().
     */
    virtual Expected<void> auditDirty() { return audit(); }

    /**
     * Deterministic snapshot of internal predictor state for
     * diagnostics (core/telemetry.hh): table occupancy, confidence
     * and selector distributions, gate-veto attribution. Never part
     * of the PredictionStats reproducibility contract. The default
     * reports only the predictor name.
     */
    virtual PredictorTelemetry
    snapshotTelemetry() const
    {
        PredictorTelemetry t;
        t.predictor = name();
        return t;
    }
};

} // namespace clap

#endif // CLAP_CORE_PREDICTOR_HH

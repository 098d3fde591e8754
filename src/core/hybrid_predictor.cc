#include "core/hybrid_predictor.hh"

#include "core/audit.hh"

namespace clap
{

Prediction
HybridPredictor::predict(const LoadInfo &info)
{
    Prediction pred;
    LBEntry *entry = lb_.lookup(info.pc);
    if (entry) {
        pred.lbHit = true;
    } else {
        // Allocate at predict time so in-flight instance counting
        // starts with the first fetch of the load.
        entry = &lb_.allocate(info.pc);
        entry->selector = SatCounter(2, config_.selectorInit);
    }
    pred.lbHandle = lb_.handleOf(*entry);
    const CapResult cap = cap_.predict(*entry, info);
    const StrideResult stride = stride_.predict(*entry, info);

    pred.capHasAddr = cap.hasAddr;
    pred.capSpec = cap.speculate;
    pred.capAddr = cap.addr;
    pred.strideHasAddr = stride.hasAddr;
    pred.strideSpec = stride.speculate;
    pred.strideAddr = stride.addr;
    pred.selectorState = entry->selector.value();
    pred.hasAddress = cap.hasAddr || stride.hasAddr;

    // Speculative accesses are performed when at least one component
    // is confident; the selector arbitrates when both are.
    if (cap.speculate && stride.speculate) {
        const bool pick_cap = entry->selector.upperHalf();
        pred.speculate = true;
        pred.component = pick_cap ? Component::Cap : Component::Stride;
        pred.addr = pick_cap ? cap.addr : stride.addr;
    } else if (cap.speculate) {
        pred.speculate = true;
        pred.component = Component::Cap;
        pred.addr = cap.addr;
    } else if (stride.speculate) {
        pred.speculate = true;
        pred.component = Component::Stride;
        pred.addr = stride.addr;
    }
    return pred;
}

void
HybridPredictor::update(const LoadInfo &info, std::uint64_t actual_addr,
                        const Prediction &pred)
{
    update(info, actual_addr, pred, true);
}

void
HybridPredictor::update(const LoadInfo &info, std::uint64_t actual_addr,
                        const Prediction &pred, bool allow_lt_update)
{
    LBEntry *entry = lb_.acquire(info.pc, pred.lbHandle);
    if (!entry) {
        // Evicted since predict: reallocate; the component updates
        // below self-initialize the fresh entry.
        entry = &lb_.allocate(info.pc);
        entry->selector = SatCounter(2, config_.selectorInit);
    }

    const bool cap_correct =
        pred.capHasAddr && pred.capAddr == actual_addr;
    const bool stride_correct =
        pred.strideHasAddr && pred.strideAddr == actual_addr;

    // Section 4.3 link-table update policies. The LB is always
    // updated for both components; only the LT write is conditional.
    bool allow_lt = allow_lt_update;
    switch (config_.ltUpdatePolicy) {
      case LtUpdatePolicy::Always:
        break;
      case LtUpdatePolicy::UnlessStrideCorrect:
        allow_lt = allow_lt && !stride_correct;
        break;
      case LtUpdatePolicy::UnlessStrideSelected:
        allow_lt = allow_lt &&
            !(stride_correct && pred.component == Component::Stride);
        break;
    }

    CapResult cap_result;
    cap_result.hasAddr = pred.capHasAddr;
    cap_result.speculate = pred.capSpec;
    cap_result.addr = pred.capAddr;
    cap_.update(*entry, info, actual_addr, cap_result, allow_lt);

    StrideResult stride_result;
    stride_result.hasAddr = pred.strideHasAddr;
    stride_result.speculate = pred.strideSpec;
    stride_result.addr = pred.strideAddr;
    stride_.update(*entry, info, actual_addr, stride_result);

    // Selector training: move toward the component that was right
    // when they disagree (2-bit counters recording relative
    // performance, updated after address verification).
    if (pred.capHasAddr && pred.strideHasAddr &&
        cap_correct != stride_correct) {
        if (cap_correct)
            entry->selector.increment();
        else
            entry->selector.decrement();
    }
}

PredictorTelemetry
HybridPredictor::snapshotTelemetry() const
{
    PredictorTelemetry t;
    t.predictor = name();
    fillLoadBufferTelemetry(lb_, t, /*withCap=*/true,
                            /*withStride=*/true,
                            /*withSelector=*/true);
    fillLinkTableTelemetry(cap_.linkTable(), t);
    t.hasCapGates = true;
    t.capGates = cap_.gateStats();
    t.hasStrideGates = true;
    t.strideGates = stride_.gateStats();
    return t;
}

Expected<void>
HybridPredictor::audit() const
{
    return auditTables(lb_, &cap_.linkTable(), "hybrid predictor");
}

Expected<void>
HybridPredictor::auditDirty()
{
    return auditDirtyTables(lb_, &cap_.linkTable(), "hybrid predictor");
}

} // namespace clap

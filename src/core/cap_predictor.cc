#include "core/cap_predictor.hh"

#include "core/audit.hh"

namespace clap
{

Prediction
CapPredictor::predict(const LoadInfo &info)
{
    Prediction pred;
    LBEntry *entry = lb_.lookup(info.pc);
    if (entry) {
        pred.lbHit = true;
    } else {
        // Allocate at predict time so in-flight instance counting
        // starts with the first fetch of the load.
        entry = &lb_.allocate(info.pc);
    }
    pred.lbHandle = lb_.handleOf(*entry);
    const CapResult result = cap_.predict(*entry, info);
    pred.hasAddress = result.hasAddr;
    pred.speculate = result.speculate;
    pred.addr = result.addr;
    pred.component = result.speculate ? Component::Cap : Component::None;
    pred.capHasAddr = result.hasAddr;
    pred.capSpec = result.speculate;
    pred.capAddr = result.addr;
    return pred;
}

void
CapPredictor::update(const LoadInfo &info, std::uint64_t actual_addr,
                     const Prediction &pred)
{
    LBEntry *entry = lb_.acquire(info.pc, pred.lbHandle);
    if (!entry)
        entry = &lb_.allocate(info.pc); // evicted since predict

    CapResult result;
    result.hasAddr = pred.capHasAddr;
    result.speculate = pred.capSpec;
    result.addr = pred.capAddr;
    cap_.update(*entry, info, actual_addr, result);
}

PredictorTelemetry
CapPredictor::snapshotTelemetry() const
{
    PredictorTelemetry t;
    t.predictor = name();
    fillLoadBufferTelemetry(lb_, t, /*withCap=*/true,
                            /*withStride=*/false,
                            /*withSelector=*/false);
    fillLinkTableTelemetry(cap_.linkTable(), t);
    t.hasCapGates = true;
    t.capGates = cap_.gateStats();
    return t;
}

Expected<void>
CapPredictor::audit() const
{
    return auditTables(lb_, &cap_.linkTable(), "cap predictor");
}

Expected<void>
CapPredictor::auditDirty()
{
    return auditDirtyTables(lb_, &cap_.linkTable(), "cap predictor");
}

} // namespace clap

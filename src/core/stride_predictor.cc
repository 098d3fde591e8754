#include "core/stride_predictor.hh"

#include "core/audit.hh"

namespace clap
{

Prediction
StridePredictor::predict(const LoadInfo &info)
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
    const StrideResult result = stride_.predict(*entry, info);
    pred.hasAddress = result.hasAddr;
    pred.speculate = result.speculate;
    pred.addr = result.addr;
    pred.component =
        result.speculate ? Component::Stride : Component::None;
    pred.strideHasAddr = result.hasAddr;
    pred.strideSpec = result.speculate;
    pred.strideAddr = result.addr;
    return pred;
}

void
StridePredictor::update(const LoadInfo &info, std::uint64_t actual_addr,
                        const Prediction &pred)
{
    LBEntry *entry = lb_.acquire(info.pc, pred.lbHandle);
    if (!entry)
        entry = &lb_.allocate(info.pc); // evicted since predict

    StrideResult result;
    result.hasAddr = pred.strideHasAddr;
    result.speculate = pred.strideSpec;
    result.addr = pred.strideAddr;
    stride_.update(*entry, info, actual_addr, result);
}

PredictorTelemetry
StridePredictor::snapshotTelemetry() const
{
    PredictorTelemetry t;
    t.predictor = name();
    fillLoadBufferTelemetry(lb_, t, /*withCap=*/false,
                            /*withStride=*/true,
                            /*withSelector=*/false);
    t.hasStrideGates = true;
    t.strideGates = stride_.gateStats();
    return t;
}

Expected<void>
StridePredictor::audit() const
{
    return auditTables(lb_, nullptr, "stride predictor");
}

Expected<void>
StridePredictor::auditDirty()
{
    return auditDirtyTables(lb_, nullptr, "stride predictor");
}

} // namespace clap

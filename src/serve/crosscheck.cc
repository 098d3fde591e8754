#include "serve/crosscheck.hh"

#include "sim/predictor_sim.hh"

namespace clap
{

Expected<ReplayResult>
replayTrace(ClientSession &session, const Trace &trace, std::size_t first,
            std::size_t last)
{
    ReplayResult result;
    const auto &records = trace.records();
    for (std::size_t i = first; i < last && i < records.size(); ++i) {
        const auto &rec = records[i];
        if (rec.isLoad()) {
            ++result.loads;
            auto pred = session.predict(rec.pc, rec.immOffset);
            if (!pred) {
                if (pred.error().code() ==
                    ErrorCode::ShardUnavailable) {
                    ++result.unavailable;
                    continue; // quarantined: skip the matching train
                }
                return std::move(pred.error())
                    .withContext("replaying load at pc " +
                                 std::to_string(rec.pc));
            }
            ++result.predicts;
            auto trained = session.train(rec.pc, rec.immOffset,
                                         rec.effAddr, *pred);
            if (!trained) {
                if (trained.error().code() ==
                    ErrorCode::ShardUnavailable) {
                    ++result.unavailable;
                    continue;
                }
                return std::move(trained.error())
                    .withContext("replaying load at pc " +
                                 std::to_string(rec.pc));
            }
            ++result.trains;
        } else if (rec.isBranch()) {
            session.observeBranch(rec.taken);
        } else if (rec.cls == InstClass::Call) {
            session.observeCall(rec.pc);
        }
    }
    return result;
}

PredictionStats
shardedReferenceStats(const Trace &trace, const PredictorFactory &factory,
                      unsigned shards)
{
    PredictionStats reference;
    for (unsigned s = 0; s < shards; ++s) {
        // Keep every non-load record (identical global history) and
        // only this shard's loads; with shards == 1 this copies the
        // trace verbatim.
        Trace sub;
        sub.reserve(trace.size());
        for (const auto &rec : trace.records()) {
            if (!rec.isLoad() || shardOfPc(rec.pc, shards) == s)
                sub.append(rec);
        }
        auto predictor = factory();
        reference.merge(runPredictorSim(sub, *predictor, {}));
    }
    return reference;
}

Expected<CrosscheckResult>
crosscheckTrace(const Trace &trace, const PredictorFactory &factory,
                const ServiceConfig &config)
{
    CrosscheckResult result;
    {
        PredictionService service(config, factory);
        ClientSession session = service.connect();
        auto replay = replayTrace(session, trace);
        if (!replay) {
            return std::move(replay.error())
                .withContext("single-client service replay");
        }
        service.stop();
        result.service = service.aggregateStats();
    }
    result.reference =
        shardedReferenceStats(trace, factory, config.shards);
    return result;
}

} // namespace clap

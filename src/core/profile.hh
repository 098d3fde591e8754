/**
 * @file
 * Profile feedback / software assist (paper section 6, future work):
 * "let the compiler/profiler classify loads according to the expected
 * address pattern: last value, stride, context based, unknown. This
 * reduces warm-up time, helps reducing predictor size, and eliminates
 * prediction table pollution."
 *
 * LoadClassifier is the profiler: it measures, per static load, how
 * predictable the address stream is under each model over a training
 * trace. ProfileAssistedPredictor consumes the resulting class map:
 * loads classified Unknown never enter the tables (pollution
 * elimination), Stride loads skip link-table updates (space saving),
 * and only Context/Constant loads train the CAP component.
 */

#ifndef CLAP_CORE_PROFILE_HH
#define CLAP_CORE_PROFILE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/hybrid_predictor.hh"
#include "core/predictor.hh"

namespace clap
{

/** Address-pattern class of a static load. */
enum class LoadClass : std::uint8_t
{
    Unknown,  ///< no model predicts it: keep it out of the tables
    Constant, ///< last-address predictable
    Stride,   ///< stride predictable (and not constant)
    Context,  ///< context predictable (and not stride)
};

/** Printable name of a load class. */
const char *loadClassName(LoadClass cls);

/** Classification thresholds. */
struct ClassifierConfig
{
    /// Minimum dynamic instances before a load is classified at all
    /// (fewer stay Unknown).
    std::uint64_t minInstances = 16;

    /// A model must predict at least this fraction of a load's
    /// instances to classify the load under it.
    double threshold = 0.7;

    /// Context-model history length used during profiling.
    unsigned historyLength = 4;
};

/**
 * Offline profiler: observe() every dynamic load of a training run,
 * then classify() per static load. The measurement is exact (per-PC
 * bookkeeping, no table capacity effects), which matches what a
 * compiler/profiler could compute from a trace.
 */
class LoadClassifier
{
  public:
    explicit LoadClassifier(const ClassifierConfig &config = {})
        : config_(config)
    {
    }

    /** Record one dynamic instance of the load at @p pc. */
    void observe(std::uint64_t pc, std::uint64_t addr);

    /** Class of the load at @p pc given everything observed. */
    LoadClass classify(std::uint64_t pc) const;

    /** Classify every observed static load. */
    std::unordered_map<std::uint64_t, LoadClass> classifyAll() const;

    /** Number of distinct static loads observed. */
    std::size_t staticLoads() const { return loads_.size(); }

  private:
    struct PerLoad
    {
        std::uint64_t instances = 0;
        std::uint64_t lastHits = 0;
        std::uint64_t strideHits = 0;
        std::uint64_t contextHits = 0;
        std::uint64_t lastAddr = 0;
        std::int64_t stride = 0;
        bool lastValid = false;
        bool strideValid = false;
        std::uint64_t hist = 0;
        /// Exact context model: compressed history -> next address.
        std::unordered_map<std::uint64_t, std::uint64_t> links;
    };

    ClassifierConfig config_;
    std::unordered_map<std::uint64_t, PerLoad> loads_;
};

/**
 * A hybrid predictor gated by a profile-derived class map:
 *  - Unknown loads are filtered out entirely: they never allocate LB
 *    entries, never update the LT, never speculate.
 *  - Stride/Constant loads do not update the link table (it is
 *    reserved for the context loads that need it).
 *  - Loads absent from the map are treated as Unknown.
 */
class ProfileAssistedPredictor : public AddressPredictor
{
  public:
    ProfileAssistedPredictor(
        const HybridConfig &config,
        std::unordered_map<std::uint64_t, LoadClass> classes);

    Prediction predict(const LoadInfo &info) override;
    void update(const LoadInfo &info, std::uint64_t actual_addr,
                const Prediction &pred) override;
    std::string name() const override { return "profile-hybrid"; }

    /** Loads filtered out by the profile (diagnostics). */
    std::uint64_t filteredLoads() const { return filtered_; }

    /** The wrapped hybrid's tables (core/audit.hh). */
    Expected<void> audit() const override { return hybrid_.audit(); }
    Expected<void> auditDirty() override { return hybrid_.auditDirty(); }

    /** The wrapped hybrid (inspection, fault injection). */
    HybridPredictor &hybrid() { return hybrid_; }

    /** Delegates to the wrapped hybrid (its name is reported). */
    PredictorTelemetry
    snapshotTelemetry() const override
    {
        PredictorTelemetry t = hybrid_.snapshotTelemetry();
        t.predictor = name();
        return t;
    }

  private:
    LoadClass classOf(std::uint64_t pc) const;

    HybridPredictor hybrid_;
    std::unordered_map<std::uint64_t, LoadClass> classes_;
    std::uint64_t filtered_ = 0;
};

/**
 * Convenience: profile @p training_trace and build a
 * ProfileAssistedPredictor for it.
 */
std::unique_ptr<ProfileAssistedPredictor>
buildProfiledPredictor(const class Trace &training_trace,
                       const HybridConfig &config,
                       const ClassifierConfig &classifier_config = {});

} // namespace clap

#endif // CLAP_CORE_PROFILE_HH

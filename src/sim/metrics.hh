/**
 * @file
 * Prediction statistics, using the paper's metric definitions
 * (section 4.2): prediction rate = speculative accesses / dynamic
 * loads; accuracy = correct predictions / speculative accesses;
 * figure 9 additionally uses correct speculative accesses / dynamic
 * loads. Selector statistics follow section 4.4.
 */

#ifndef CLAP_SIM_METRICS_HH
#define CLAP_SIM_METRICS_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/predictor.hh"
#include "util/stats.hh"

namespace clap
{

/** Aggregated prediction statistics for one simulation run. */
struct PredictionStats
{
    std::uint64_t loads = 0;       ///< dynamic loads seen
    std::uint64_t lbHits = 0;      ///< loads hitting the LB
    std::uint64_t formed = 0;      ///< predictions formed (hasAddress)
    std::uint64_t formedCorrect = 0;
    std::uint64_t spec = 0;        ///< speculative accesses performed
    std::uint64_t specCorrect = 0;

    /// Speculative accesses / correct ones per winning component
    /// (indexed by Component).
    std::array<std::uint64_t, 4> specBy{};
    std::array<std::uint64_t, 4> specCorrectBy{};

    /// @name Hybrid selector statistics (section 4.4)
    /// @{
    std::uint64_t bothSpec = 0; ///< both components wanted to access
    std::array<std::uint64_t, 4> selectorState{}; ///< histogram
    std::uint64_t missSelections = 0; ///< wrong pick, other was right
    /// @}

    /// Counter-wise equality (determinism tests, journal round-trips).
    bool operator==(const PredictionStats &) const = default;

    double predictionRate() const { return ratio(spec, loads); }
    double accuracy() const { return ratio(specCorrect, spec); }
    double mispredictionRate() const
    {
        return ratio(spec - specCorrect, spec);
    }
    /** Figure-9 metric: correct speculative accesses of all loads. */
    double correctOfAllLoads() const { return ratio(specCorrect, loads); }
    /** Correct-selection rate among both-confident loads. */
    double correctSelectionRate() const
    {
        return bothSpec == 0
            ? 1.0
            : 1.0 - ratio(missSelections, bothSpec);
    }

    /** Accumulate another run's counters (suite aggregation). */
    void
    merge(const PredictionStats &other)
    {
        loads += other.loads;
        lbHits += other.lbHits;
        formed += other.formed;
        formedCorrect += other.formedCorrect;
        spec += other.spec;
        specCorrect += other.specCorrect;
        for (std::size_t i = 0; i < specBy.size(); ++i) {
            specBy[i] += other.specBy[i];
            specCorrectBy[i] += other.specCorrectBy[i];
            selectorState[i] += other.selectorState[i];
        }
        bothSpec += other.bothSpec;
        missSelections += other.missSelections;
    }
};

/// @name Byte codec
/// The one layout of PredictionStats on the wire (StatsOk) and in a
/// shard snapshot's serve-counter section: every counter as a
/// little-endian u64, in declaration order.
/// @{

/** Append one counter as a little-endian u64. */
void putCounter(std::string &out, std::uint64_t v);

/** Read one little-endian u64 at @p pos; false if too few bytes. */
bool getCounter(std::string_view in, std::size_t &pos, std::uint64_t &v);

void putPredictionStats(std::string &out, const PredictionStats &stats);

/** Read every counter at @p pos; false if the bytes run out. */
bool getPredictionStats(std::string_view in, std::size_t &pos,
                        PredictionStats &stats);
/// @}

/**
 * Tally one resolved prediction into @p stats: the load's actual
 * effective address is known and @p pred is what the predictor
 * returned for it. This is the single metric definition shared by the
 * inline simulator (sim/predictor_sim.cc) and the prediction service
 * (serve/service.cc); keeping both on one function is what makes the
 * service's deterministic mode bit-for-bit comparable to a
 * PredictorSim run.
 */
inline void
tallyPrediction(PredictionStats &stats, const Prediction &pred,
                std::uint64_t actual)
{
    ++stats.loads;
    if (pred.lbHit)
        ++stats.lbHits;
    if (pred.hasAddress) {
        ++stats.formed;
        // For the hybrid, count "formed correct" when the selected
        // (or any, if none selected) component address matches.
        const bool formed_correct = pred.speculate
            ? pred.addr == actual
            : (pred.capHasAddr && pred.capAddr == actual) ||
                (pred.strideHasAddr && pred.strideAddr == actual) ||
                (!pred.capHasAddr && !pred.strideHasAddr &&
                 pred.addr == actual);
        if (formed_correct)
            ++stats.formedCorrect;
    }
    if (pred.speculate) {
        ++stats.spec;
        const auto comp = static_cast<std::size_t>(pred.component);
        ++stats.specBy[comp];
        if (pred.addr == actual) {
            ++stats.specCorrect;
            ++stats.specCorrectBy[comp];
        }
    }

    // Selector statistics (section 4.4): loads where both components
    // performed (wanted) a speculative access.
    if (pred.capSpec && pred.strideSpec) {
        ++stats.bothSpec;
        ++stats.selectorState[pred.selectorState & 3];
        if (pred.speculate && pred.addr != actual) {
            const bool other_correct =
                pred.component == Component::Cap
                    ? pred.strideAddr == actual
                    : pred.capAddr == actual;
            if (other_correct)
                ++stats.missSelections;
        }
    }
}

} // namespace clap

#endif // CLAP_SIM_METRICS_HH

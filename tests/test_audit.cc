/**
 * @file
 * Structural invariant auditor (core/audit.hh): clean predictors pass
 * after simulation; deliberately corrupted LB/LT state is detected
 * and reported as a retryable CorruptedState error. The dirty-set
 * audit is held to the full audit: every table write marks its set,
 * and under seeded faults both report the same first violation on
 * every batch.
 */

#include <gtest/gtest.h>

#include <utility>

#include "core/audit.hh"
#include "core/cap_predictor.hh"
#include "core/hybrid_predictor.hh"
#include "core/stride_predictor.hh"
#include "sim/fault_injector.hh"
#include "sim/predictor_sim.hh"
#include "util/bits.hh"
#include "util/rng.hh"
#include "workloads/composer.hh"
#include "workloads/suites.hh"

namespace
{

using namespace clap;

constexpr std::size_t traceLen = 20000;

Trace
smallTrace()
{
    return generateTrace(buildCatalog().front(), traceLen);
}

TEST(Audit, CleanPredictorsPassAfterSimulation)
{
    const Trace trace = smallTrace();

    CapPredictor cap{CapPredictorConfig{}};
    runPredictorSim(trace, cap, {});
    EXPECT_TRUE(cap.audit().hasValue());

    StridePredictor stride{StridePredictorConfig{}};
    runPredictorSim(trace, stride, {});
    EXPECT_TRUE(stride.audit().hasValue());

    HybridPredictor hybrid{HybridConfig{}};
    runPredictorSim(trace, hybrid, {});
    EXPECT_TRUE(hybrid.audit().hasValue());
}

TEST(Audit, FreshPredictorsPass)
{
    CapPredictor cap{CapPredictorConfig{}};
    EXPECT_TRUE(cap.audit().hasValue());
    HybridPredictor hybrid{HybridConfig{}};
    EXPECT_TRUE(hybrid.audit().hasValue());
}

TEST(Audit, LtTagOutOfRangeDetected)
{
    CapPredictor cap{CapPredictorConfig{}};
    LinkTable &lt = cap.component().linkTable();
    const unsigned tag_bits = lt.config().ltTagBits;
    ASSERT_GT(tag_bits, 0u);

    LTEntry entry = lt.imageAt(0);
    entry.valid = true;
    entry.tag = mask(tag_bits) + 1; // one bit above the field
    lt.setImageAt(0, entry);

    const auto result = cap.audit();
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().code(), ErrorCode::CorruptedState);
    EXPECT_TRUE(isRetryable(result.error().code()));
}

TEST(Audit, PfBitsOutOfRangeDetectedEvenOnInvalidEntry)
{
    CapPredictor cap{CapPredictorConfig{}};
    LinkTable &lt = cap.component().linkTable();
    ASSERT_LT(lt.config().pfBits, 8u);

    LTEntry entry = lt.imageAt(3);
    entry.valid = false; // pf storage is live even when invalid
    entry.pf = 0xff;
    lt.setImageAt(3, entry);

    const auto result = cap.audit();
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().code(), ErrorCode::CorruptedState);
}

TEST(Audit, DuplicateLbTagsDetected)
{
    HybridPredictor hybrid{HybridConfig{}};
    LoadBuffer &lb = hybrid.loadBuffer();
    ASSERT_GE(lb.config().assoc, 2u);

    // Two ways of set 0 with the same tag.
    LBEntryImage image;
    image.valid = true;
    image.tag = 0x123;
    lb.setImageAt(0, image);
    lb.setImageAt(1, image);

    const auto result = hybrid.audit();
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().code(), ErrorCode::CorruptedState);
}

TEST(Audit, DistinctLbTagsPass)
{
    HybridPredictor hybrid{HybridConfig{}};
    LoadBuffer &lb = hybrid.loadBuffer();
    LBEntryImage image;
    image.valid = true;
    image.tag = 0x123;
    lb.setImageAt(0, image);
    image.tag = 0x124;
    lb.setImageAt(1, image);
    EXPECT_TRUE(hybrid.audit().hasValue());
}

TEST(Audit, DuplicateLtTagsDetectedInAssociativeConfig)
{
    CapPredictorConfig config;
    config.cap.ltAssoc = 2;
    CapPredictor cap{config};
    LinkTable &lt = cap.component().linkTable();
    ASSERT_EQ(lt.assoc(), 2u);

    LTEntry entry;
    entry.valid = true;
    entry.tag = 0x5;
    lt.setImageAt(0, entry);
    lt.setImageAt(1, entry);

    const auto result = cap.audit();
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().code(), ErrorCode::CorruptedState);
}

TEST(Audit, ErrorCarriesStructureContext)
{
    CapPredictor cap{CapPredictorConfig{}};
    LinkTable &lt = cap.component().linkTable();
    LTEntry entry;
    entry.valid = true;
    entry.tag = ~std::uint64_t{0};
    lt.setImageAt(7, entry);

    const auto result = cap.audit();
    ASSERT_FALSE(result.hasValue());
    const std::string text = result.error().str();
    EXPECT_NE(text.find("LT entry 7"), std::string::npos) << text;
    EXPECT_NE(text.find("cap predictor"), std::string::npos) << text;
}

// --- Dirty-set audit --------------------------------------------

/** True when @p set is the one dirty set of @p dirty. */
bool
onlyDirty(const DirtySets &dirty, std::size_t set)
{
    return dirty.next(0) == set && dirty.next(set + 1) == dirty.size();
}

bool
noneDirty(const DirtySets &dirty)
{
    return dirty.next(0) == dirty.size();
}

TEST(AuditDirty, EveryLoadBufferWriteMarksItsSet)
{
    LoadBuffer lb{LoadBufferConfig{}};
    const DirtySets &dirty = lb.dirtySets();
    ASSERT_EQ(dirty.size(), lb.numSets());
    EXPECT_TRUE(noneDirty(dirty));

    const std::uint64_t pc = 0x1234 << 2;
    const std::size_t set = 0x1234 & (lb.numSets() - 1);
    const std::size_t slot = set * lb.config().assoc;
    auto walked = [&] {
        // A clean table passes, so the walk leaves nothing dirty.
        ASSERT_TRUE(auditDirtyLoadBuffer(lb).hasValue());
        ASSERT_TRUE(noneDirty(dirty));
    };

    LBEntry &entry = lb.allocate(pc);
    EXPECT_TRUE(onlyDirty(dirty, set));
    walked();
    EXPECT_NE(lb.lookup(pc), nullptr);
    EXPECT_TRUE(onlyDirty(dirty, set));
    walked();
    EXPECT_EQ(lb.lookup(pc + 4), nullptr); // a miss writes nothing
    EXPECT_TRUE(noneDirty(dirty));
    EXPECT_EQ(lb.acquire(pc, lb.handleOf(entry)), &entry);
    EXPECT_TRUE(onlyDirty(dirty, set));
    walked();
    (void)std::as_const(lb).coldAt(slot);
    (void)lb.imageAt(slot);
    EXPECT_TRUE(noneDirty(dirty));
    (void)lb.coldAt(slot);
    EXPECT_TRUE(onlyDirty(dirty, set));
    walked();
    lb.setImageAt(slot, lb.imageAt(slot));
    EXPECT_TRUE(onlyDirty(dirty, set));
    walked();
    lb.clear();
    for (std::size_t s = 0; s < lb.numSets(); ++s)
        EXPECT_EQ(dirty.next(s), s);
}

TEST(AuditDirty, EveryLinkTableWriteMarksItsSet)
{
    CapConfig config;
    config.ltAssoc = 2;
    LinkTable lt{config};
    const DirtySets &dirty = lt.dirtySets();
    ASSERT_EQ(dirty.size(), lt.numSets());
    EXPECT_TRUE(noneDirty(dirty));
    auto walked = [&] {
        ASSERT_TRUE(auditDirtyLinkTable(lt).hasValue());
        ASSERT_TRUE(noneDirty(dirty));
    };

    const std::uint64_t hist = 0x2345;
    (void)lt.lookup(hist);
    EXPECT_TRUE(noneDirty(dirty));
    lt.update(hist, 0x8000);
    EXPECT_TRUE(onlyDirty(dirty, hist & (lt.numSets() - 1)));
    walked();
    lt.setImageAt(7, lt.imageAt(7));
    EXPECT_TRUE(onlyDirty(dirty, 7 / lt.assoc()));
    walked();
    lt.clear();
    for (std::size_t s = 0; s < lt.numSets(); ++s)
        EXPECT_EQ(dirty.next(s), s);
}

TEST(AuditDirty, FailingSetStaysDirtyUntilRepaired)
{
    HybridPredictor hybrid{HybridConfig{}};
    LoadBuffer &lb = hybrid.loadBuffer();
    LBEntryImage image;
    image.valid = true;
    image.tag = 0x123;
    lb.setImageAt(2, image);
    lb.setImageAt(3, image); // both ways of set 1
    lb.setImageAt(9, LBEntryImage{}); // a clean set after it

    const auto full = hybrid.audit();
    ASSERT_FALSE(full.hasValue());
    const auto first = hybrid.auditDirty();
    ASSERT_FALSE(first.hasValue());
    EXPECT_EQ(first.error().str(), full.error().str());
    // The walk stopped at set 1 and left it (and set 4) dirty.
    EXPECT_EQ(lb.dirtySets().next(0), 1u);
    EXPECT_EQ(lb.dirtySets().next(2), 4u);
    EXPECT_EQ(hybrid.auditDirty().error().str(), full.error().str());

    image.tag = 0x124;
    lb.setImageAt(3, image);
    EXPECT_TRUE(hybrid.auditDirty().hasValue());
    EXPECT_TRUE(noneDirty(lb.dirtySets()));
    EXPECT_TRUE(hybrid.audit().hasValue());
}

/**
 * A table write the fault injector's flips cannot make: its LB flips
 * stay valid (HistoryRegister::setValue masks, counter flips stay
 * within width), so these seeded writes are what break invariants.
 */
void
plantViolation(HybridPredictor &hybrid, unsigned kind, std::uint64_t pick)
{
    LinkTable &lt = hybrid.capComponent().linkTable();
    LoadBuffer &lb = hybrid.loadBuffer();
    if (kind == 2) {
        // Duplicate the tag of one way into the next way of its set.
        const std::size_t base =
            (pick % lb.numSets()) * lb.config().assoc;
        LBEntryImage first = lb.imageAt(base);
        first.valid = true;
        lb.setImageAt(base, first);
        LBEntryImage second = lb.imageAt(base + 1);
        second.valid = true;
        second.tag = first.tag;
        lb.setImageAt(base + 1, second);
        return;
    }
    const std::size_t i = pick % lt.numEntries();
    LTEntry entry = lt.imageAt(i);
    if (kind == 0) {
        entry.valid = true;
        entry.tag |= std::uint64_t{1} << lt.config().ltTagBits;
    } else {
        entry.pf |= static_cast<std::uint8_t>(1u << lt.config().pfBits);
    }
    lt.setImageAt(i, entry);
}

TEST(AuditDirty, AgreesWithFullAuditUnderSeededFaults)
{
    // Small tables keep the full audit cheap and put faults on live
    // entries; the 2-way LT lets a tag flip duplicate a tag.
    HybridConfig config;
    config.lb.entries = 256;
    config.cap.ltEntries = 256;
    config.cap.ltAssoc = 2;
    const std::vector<TraceSpec> catalog = buildCatalog();
    constexpr unsigned kSeeds = 32;
    unsigned violatingSeeds = 0;
    std::uint64_t pairedAudits = 0;
    for (unsigned seed = 0; seed < kSeeds; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Trace trace =
            generateTrace(catalog[(seed * 7) % catalog.size()], traceLen);
        HybridPredictor dirtyAudited{config};
        HybridPredictor fullAudited{config};
        FaultInjectorConfig faults;
        faults.faultsPerMillionLoads = 4000;
        faults.seed = 0xd1f7 + seed;
        FaultInjector dirtyFaults(faults);
        FaultInjector fullFaults(faults);
        dirtyFaults.attach(dirtyAudited);
        fullFaults.attach(fullAudited);

        Rng rng(seed);
        std::uint64_t ghr = 0;
        std::uint64_t batchLeft = 1 + rng.below(8);
        bool violated = false;
        for (const TraceRecord &rec : trace.records()) {
            if (rec.isBranch())
                ghr = (ghr << 1) | (rec.taken ? 1 : 0);
            if (!rec.isLoad())
                continue;
            dirtyFaults.onLoad();
            fullFaults.onLoad();
            if (rng.below(4096) == 0) {
                const unsigned kind = static_cast<unsigned>(rng.below(3));
                const std::uint64_t pick = rng.next();
                plantViolation(dirtyAudited, kind, pick);
                plantViolation(fullAudited, kind, pick);
            }
            LoadInfo info;
            info.pc = rec.pc;
            info.immOffset = rec.immOffset;
            info.ghr = ghr;
            dirtyAudited.update(info, rec.effAddr,
                                dirtyAudited.predict(info));
            fullAudited.update(info, rec.effAddr,
                               fullAudited.predict(info));
            if (--batchLeft != 0)
                continue;
            batchLeft = 1 + rng.below(8);

            const auto dirty = dirtyAudited.auditDirty();
            const auto full = fullAudited.audit();
            ++pairedAudits;
            ASSERT_EQ(dirty.hasValue(), full.hasValue())
                << "batch " << pairedAudits << ": "
                << (dirty ? full.error().str() : dirty.error().str());
            if (!full) {
                violated = true;
                ASSERT_EQ(dirty.error().str(), full.error().str());
            }
        }
        if (violated)
            ++violatingSeeds;
    }
    // The faults must break invariants, or the agreement proves
    // nothing.
    EXPECT_GE(violatingSeeds, kSeeds * 3 / 4) << pairedAudits << " audits";
}

TEST(Audit, RetryableClassification)
{
    EXPECT_TRUE(isRetryable(ErrorCode::CorruptedState));
    EXPECT_FALSE(isRetryable(ErrorCode::Timeout));
    EXPECT_FALSE(isRetryable(ErrorCode::IoError));
    EXPECT_FALSE(isRetryable(ErrorCode::InvalidConfig));
}

TEST(Audit, ErrorCodeNamesRoundTrip)
{
    EXPECT_EQ(errorCodeFromName("Timeout"), ErrorCode::Timeout);
    EXPECT_EQ(errorCodeFromName("CorruptedState"),
              ErrorCode::CorruptedState);
    EXPECT_EQ(errorCodeFromName("IoError"), ErrorCode::IoError);
    EXPECT_EQ(errorCodeFromName("garbage"), ErrorCode::None);
}

} // namespace

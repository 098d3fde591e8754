/** @file Tests for the profile-feedback extension (paper section 6). */

#include <gtest/gtest.h>

#include "core/profile.hh"
#include "sim/predictor_sim.hh"
#include "util/stats.hh"
#include "test_util.hh"
#include "util/rng.hh"
#include "workloads/composer.hh"

namespace clap
{
namespace
{

TEST(LoadClassifier, ClassifiesConstant)
{
    LoadClassifier classifier;
    for (int i = 0; i < 50; ++i)
        classifier.observe(0x1000, 0x4000);
    EXPECT_EQ(classifier.classify(0x1000), LoadClass::Constant);
}

TEST(LoadClassifier, ClassifiesStride)
{
    LoadClassifier classifier;
    for (int i = 0; i < 50; ++i)
        classifier.observe(0x1000, 0x4000 + 8 * i);
    EXPECT_EQ(classifier.classify(0x1000), LoadClass::Stride);
}

TEST(LoadClassifier, ClassifiesContext)
{
    LoadClassifier classifier;
    const std::vector<std::uint64_t> pattern = {0x10, 0x80, 0x40,
                                                0x20, 0xc0};
    for (int i = 0; i < 60; ++i)
        classifier.observe(0x1000, pattern[i % pattern.size()]);
    EXPECT_EQ(classifier.classify(0x1000), LoadClass::Context);
}

TEST(LoadClassifier, ClassifiesRandomAsUnknown)
{
    LoadClassifier classifier;
    Rng rng(3);
    for (int i = 0; i < 200; ++i)
        classifier.observe(0x1000, rng.next() & ~3ull);
    EXPECT_EQ(classifier.classify(0x1000), LoadClass::Unknown);
}

TEST(LoadClassifier, FewInstancesStayUnknown)
{
    LoadClassifier classifier;
    for (int i = 0; i < 5; ++i)
        classifier.observe(0x1000, 0x4000);
    EXPECT_EQ(classifier.classify(0x1000), LoadClass::Unknown);
    EXPECT_EQ(classifier.classify(0x9999), LoadClass::Unknown);
}

TEST(LoadClassifier, PrefersCheapestSufficientModel)
{
    // A constant address is also stride(0)- and context-predictable;
    // the classifier must pick Constant.
    LoadClassifier classifier;
    for (int i = 0; i < 50; ++i)
        classifier.observe(0x1000, 0x4000);
    EXPECT_EQ(classifier.classify(0x1000), LoadClass::Constant);
}

TEST(LoadClassifier, ClassifyAllCoversEveryLoad)
{
    LoadClassifier classifier;
    for (int i = 0; i < 50; ++i) {
        classifier.observe(0x1000, 0x4000);
        classifier.observe(0x2000, 0x8000 + 4 * i);
    }
    const auto classes = classifier.classifyAll();
    ASSERT_EQ(classes.size(), 2u);
    EXPECT_EQ(classes.at(0x1000), LoadClass::Constant);
    EXPECT_EQ(classes.at(0x2000), LoadClass::Stride);
    EXPECT_EQ(classifier.staticLoads(), 2u);
}

TEST(LoadClassName, Names)
{
    EXPECT_STREQ(loadClassName(LoadClass::Unknown), "unknown");
    EXPECT_STREQ(loadClassName(LoadClass::Context), "context");
}

TEST(ProfileAssisted, FiltersUnknownLoads)
{
    std::unordered_map<std::uint64_t, LoadClass> classes;
    classes[0x1000] = LoadClass::Constant;
    ProfileAssistedPredictor pred(HybridConfig{}, classes);

    LoadInfo known;
    known.pc = 0x1000;
    LoadInfo unknown;
    unknown.pc = 0x2000;

    for (int i = 0; i < 10; ++i) {
        Prediction pk = pred.predict(known);
        pred.update(known, 0x4000, pk);
        Prediction pu = pred.predict(unknown);
        EXPECT_FALSE(pu.hasAddress);
        EXPECT_FALSE(pu.speculate);
        pred.update(unknown, 0x12345678 + 64ull * i * i, pu);
    }
    EXPECT_EQ(pred.filteredLoads(), 10u);
    // The known constant load is predicted.
    EXPECT_TRUE(pred.predict(known).speculate);
}

TEST(ProfileAssisted, AuditChecksTheWrappedHybrid)
{
    ProfileAssistedPredictor pred(HybridConfig{}, {});
    EXPECT_TRUE(pred.audit());

    // Two ways of LB set 0 with one tag.
    LoadBuffer &lb = pred.hybrid().loadBuffer();
    LBEntryImage image;
    image.valid = true;
    image.tag = 0x123;
    lb.setImageAt(0, image);
    lb.setImageAt(1, image);

    const auto audited = pred.audit();
    ASSERT_FALSE(audited);
    EXPECT_EQ(audited.error().code(), ErrorCode::CorruptedState);
    const auto dirty = pred.auditDirty();
    ASSERT_FALSE(dirty);
    EXPECT_EQ(dirty.error().str(), audited.error().str());
}

TEST(ProfileAssisted, EndToEndBeatsPlainHybridAtSmallTables)
{
    // The section-6 claim: classification "helps reducing predictor
    // size and eliminates prediction table pollution". With tiny
    // tables and a polluting mix, the profile-assisted hybrid must
    // outperform the plain hybrid.
    TraceSpec spec;
    spec.name = "profiled";
    spec.suite = "X";
    spec.seed = 91;
    spec.kernels.push_back(
        {LinkedListKernel::Params{.numNodes = 14, .numDataFields = 2},
         1.5, 1});
    spec.kernels.push_back(
        {RandomPointerKernel::Params{.loadsPerStep = 16}, 1.5, 1});
    spec.kernels.push_back(
        {GlobalScalarKernel::Params{.numGlobals = 6}, 1.0, 1});
    const Trace train = generateTrace(spec, 30000);
    spec.seed = 92; // separate evaluation run
    const Trace eval = generateTrace(spec, 30000);

    HybridConfig small;
    small.lb.entries = 64;
    small.lb.assoc = 2;
    small.cap.ltEntries = 64;

    auto profiled = buildProfiledPredictor(train, small);
    const auto profiled_stats = runPredictorSim(eval, *profiled);

    HybridPredictor plain(small);
    const auto plain_stats = runPredictorSim(eval, plain);

    EXPECT_GT(profiled_stats.specCorrect, plain_stats.specCorrect);
    // And accuracy must not regress.
    const double profiled_acc =
        ratio(profiled_stats.specCorrect, profiled_stats.spec);
    const double plain_acc =
        ratio(plain_stats.specCorrect, plain_stats.spec);
    EXPECT_GE(profiled_acc, plain_acc - 0.02);
}

} // namespace
} // namespace clap

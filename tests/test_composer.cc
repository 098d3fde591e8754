/** @file Tests for trace composition and the suite catalog. */

#include <gtest/gtest.h>

#include <map>

#include "trace/trace_stats.hh"
#include "workloads/composer.hh"
#include "workloads/suites.hh"

namespace clap
{
namespace
{

TraceSpec
simpleSpec()
{
    TraceSpec spec;
    spec.name = "t";
    spec.suite = "X";
    spec.seed = 99;
    spec.kernels.push_back(
        {LinkedListKernel::Params{.numNodes = 8, .numDataFields = 1},
         1.0, 1});
    spec.kernels.push_back(
        {GlobalScalarKernel::Params{.numGlobals = 4}, 1.0, 1});
    return spec;
}

TEST(Composer, ReachesTargetLength)
{
    const Trace trace = generateTrace(simpleSpec(), 5000);
    EXPECT_GE(trace.size(), 5000u);
    // Stops at the next step boundary: no gross overshoot.
    EXPECT_LT(trace.size(), 5000u + 2000u);
}

TEST(Composer, DeterministicForSameSeed)
{
    const Trace a = generateTrace(simpleSpec(), 3000);
    const Trace b = generateTrace(simpleSpec(), 3000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "record " << i;
}

TEST(Composer, DifferentSeedsDiffer)
{
    TraceSpec spec = simpleSpec();
    const Trace a = generateTrace(spec, 3000);
    spec.seed = 100;
    const Trace b = generateTrace(spec, 3000);
    bool any_diff = a.size() != b.size();
    for (std::size_t i = 0; !any_diff && i < a.size(); ++i)
        any_diff = !(a[i] == b[i]);
    EXPECT_TRUE(any_diff);
}

TEST(Composer, WeightsControlRecordShares)
{
    // 3:1 weights must yield roughly 3:1 record shares even though
    // the kernels have very different step sizes.
    TraceSpec spec;
    spec.name = "w";
    spec.suite = "X";
    spec.seed = 5;
    spec.kernels.push_back(
        {StrideArrayKernel::Params{
             .numArrays = 1, .numElems = 512, .chunk = 64},
         3.0, 1});
    spec.kernels.push_back(
        {GlobalScalarKernel::Params{.numGlobals = 4,
                                    .readsPerStep = 8},
         1.0, 1});
    const Trace trace = generateTrace(spec, 40000);

    // Kernel 0 code page is at codeBase + 0x10000, kernel 1 at
    // + 0x20000.
    std::uint64_t k0 = 0;
    std::uint64_t k1 = 0;
    for (const auto &rec : trace.records()) {
        if (rec.pc < AddressSpace::codeBase + 0x20000)
            ++k0;
        else
            ++k1;
    }
    const double share =
        static_cast<double>(k0) / static_cast<double>(k0 + k1);
    EXPECT_NEAR(share, 0.75, 0.06);
}

TEST(Composer, KernelsGetDisjointCodePages)
{
    const Trace trace = generateTrace(simpleSpec(), 3000);
    bool saw_k0 = false;
    bool saw_k1 = false;
    for (const auto &rec : trace.records()) {
        if (rec.pc >= AddressSpace::codeBase + 0x20000)
            saw_k1 = true;
        else if (rec.pc >= AddressSpace::codeBase + 0x10000)
            saw_k0 = true;
    }
    EXPECT_TRUE(saw_k0);
    EXPECT_TRUE(saw_k1);
}

TEST(Composer, StreamingIntoSinkMatchesInMemory)
{
    Trace direct = generateTrace(simpleSpec(), 2000);
    Trace sink("other");
    const std::size_t emitted = generateTrace(simpleSpec(), 2000, sink);
    EXPECT_EQ(emitted, sink.size());
    ASSERT_EQ(direct.size(), sink.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        ASSERT_EQ(direct[i], sink[i]);
}

TEST(Catalog, Has45TracesIn8Suites)
{
    const auto specs = buildCatalog();
    EXPECT_EQ(specs.size(), 45u);

    std::map<std::string, unsigned> per_suite;
    for (const auto &spec : specs)
        ++per_suite[spec.suite];
    EXPECT_EQ(per_suite.size(), 8u);
    EXPECT_EQ(per_suite["INT"], 8u);
    EXPECT_EQ(per_suite["CAD"], 2u);
    EXPECT_EQ(per_suite["MM"], 8u);
    EXPECT_EQ(per_suite["GAM"], 4u);
    EXPECT_EQ(per_suite["JAV"], 5u);
    EXPECT_EQ(per_suite["TPC"], 3u);
    EXPECT_EQ(per_suite["NT"], 8u);
    EXPECT_EQ(per_suite["W95"], 7u);
}

TEST(Catalog, NamesAreUnique)
{
    const auto specs = buildCatalog();
    std::map<std::string, unsigned> names;
    for (const auto &spec : specs)
        ++names[spec.name];
    for (const auto &[name, count] : names)
        EXPECT_EQ(count, 1u) << name;
}

TEST(Catalog, SuiteNamesMatchPaperOrder)
{
    const auto &names = suiteNames();
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names.front(), "CAD");
    EXPECT_EQ(names.back(), "W95");
}

TEST(Catalog, BuildSuiteFilters)
{
    const auto mm = buildSuite("MM");
    EXPECT_EQ(mm.size(), 8u);
    for (const auto &spec : mm)
        EXPECT_EQ(spec.suite, "MM");
    EXPECT_TRUE(buildSuite("NOPE").empty());
}

TEST(Catalog, TracesHaveReasonableLoadFraction)
{
    // Every catalog trace must look like a real instruction stream:
    // 20-70% loads, some branches, multiple static loads.
    for (const auto &spec : buildCatalog()) {
        const Trace trace = generateTrace(spec, 8000);
        const TraceStats stats = computeTraceStats(trace);
        EXPECT_GT(stats.loadFraction(), 0.20) << spec.name;
        EXPECT_LT(stats.loadFraction(), 0.70) << spec.name;
        EXPECT_GT(stats.staticLoads, 10u) << spec.name;
        EXPECT_GT(stats.branches(), 0u) << spec.name;
    }
}

TEST(Catalog, DefaultTraceLengthEnvOverride)
{
    unsetenv("CLAP_TRACE_INSTS");
    EXPECT_EQ(defaultTraceLength(), 200000u);
    setenv("CLAP_TRACE_INSTS", "", 1);
    EXPECT_EQ(defaultTraceLength(), 200000u);
    setenv("CLAP_TRACE_INSTS", "1234", 1);
    EXPECT_EQ(defaultTraceLength(), 1234u);
    // A budget that is not wholly a number of at least 1 is refused,
    // never read as a prefix ("2e4" as 2) or replaced by the default.
    for (const char *bad : {"2e4", "abc", "0", "-5"}) {
        setenv("CLAP_TRACE_INSTS", bad, 1);
        EXPECT_EXIT(defaultTraceLength(), ::testing::ExitedWithCode(2),
                    "CLAP_TRACE_INSTS")
            << bad;
    }
    unsetenv("CLAP_TRACE_INSTS");
}

} // namespace
} // namespace clap

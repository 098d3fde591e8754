#include "workloads/suites.hh"

#include <limits>

#include "util/parse_number.hh"

namespace clap
{

namespace
{

/** Deterministic seed per trace: suite id mixed with trace index. */
std::uint64_t
traceSeed(unsigned suite_id, unsigned index)
{
    return 0x5eedull * 1000003ull + suite_id * 7919ull + index * 104729ull;
}

/** Convenience builder for a trace spec. */
class SpecBuilder
{
  public:
    SpecBuilder(const std::string &suite, unsigned suite_id,
                unsigned index, const std::string &tag)
    {
        spec_.suite = suite;
        spec_.name = suite + "_" + tag;
        spec_.seed = traceSeed(suite_id, index);
    }

    SpecBuilder &
    add(KernelParams params, double weight, unsigned variants = 1)
    {
        spec_.kernels.push_back({std::move(params), weight, variants});
        return *this;
    }

    TraceSpec take() { return std::move(spec_); }

  private:
    TraceSpec spec_;
};

void
buildInt(std::vector<TraceSpec> &out)
{
    // SPECint-like: RDS traversals and control correlation on top of
    // the usual base of constant-address loads (globals, stable
    // stack), with an irregular hash/pointer fraction.
    static const char *tags[8] = {"list", "tree", "xlisp", "go",
                                  "cmp", "parse", "mix1", "mix2"};
    for (unsigned i = 0; i < 8; ++i) {
        SpecBuilder b("INT", 2, i, tags[i]);
        b.add(LinkedListKernel::Params{
                  .numNodes = 8 + 4 * (i % 5),
                  .numDataFields = 1 + i % 3,
                  .mutateProb = 0.06},
              2.0);
        b.add(BinaryTreeKernel::Params{
                  .numNodes = 95 + 32 * (i % 3),
                  .keyPeriod = 4 + i % 3,
                  .randomKeyProb = 0.04},
              1.3);
        b.add(CallSiteKernel::Params{
                  .numSites = 3 + i % 3,
                  .seqLen = 5 + i % 3,
                  .calleeLoads = 3},
              1.8);
        b.add(DoublyLinkedListKernel::Params{.numNodes = 8 + i % 6},
              1.4);
        b.add(RepeatedBurstKernel::Params{
                  .numRuns = 2 + i % 2, .runLen = 5, .stride = 4},
              0.8);
        b.add(StackFrameKernel::Params{.maxDepth = 3, .savedRegs = 3},
              2.0);
        b.add(GlobalScalarKernel::Params{
                  .numGlobals = 8, .readsPerStep = 24},
              3.0);
        b.add(StrideArrayKernel::Params{
                  .numArrays = 1, .numElems = 256, .chunk = 32},
              1.0);
        b.add(HashTableKernel::Params{
                  .numBuckets = 256,
                  .numEntries = 512,
                  .probesPerStep = 8},
              1.0);
        if (i % 2 == 0) {
            b.add(ArrayListKernel::Params{
                      .numElems = 64, .numLists = 3, .listLen = 10},
                  1.0);
        }
        out.push_back(b.take());
    }
}

void
buildCad(std::vector<TraceSpec> &out)
{
    // CAD tools: large structures and many static loads (variants).
    static const char *tags[2] = {"cat", "mic"};
    for (unsigned i = 0; i < 2; ++i) {
        SpecBuilder b("CAD", 0, i, tags[i]);
        b.add(BinaryTreeKernel::Params{
                  .numNodes = 127 + 64 * i,
                  .keyPeriod = 5,
                  .randomKeyProb = 0.06},
              1.8, 4);
        b.add(LinkedListKernel::Params{
                  .numNodes = 32, .numDataFields = 3, .mutateProb = 0.08},
              1.6, 8);
        b.add(LinkedListKernel::Params{
                  .numNodes = 12, .numDataFields = 2, .mutateProb = 0.05},
              1.2, 8);
        b.add(MatrixKernel::Params{
                  .rows = 96, .cols = 64, .chunk = 64},
              1.0, 2);
        b.add(CallSiteKernel::Params{
                  .numSites = 5, .seqLen = 6, .calleeLoads = 4},
              1.2, 8);
        b.add(HashTableKernel::Params{
                  .numBuckets = 512,
                  .numEntries = 1024,
                  .probesPerStep = 12},
              1.4, 4);
        b.add(StrideArrayKernel::Params{
                  .numArrays = 2, .numElems = 512, .chunk = 48},
              1.4, 2);
        b.add(StackFrameKernel::Params{.maxDepth = 4, .savedRegs = 3},
              2.0, 6);
        b.add(GlobalScalarKernel::Params{
                  .numGlobals = 8, .readsPerStep = 24},
              3.0, 6);
        b.add(RandomPointerKernel::Params{.loadsPerStep = 10}, 0.6);
        out.push_back(b.take());
    }
}

void
buildMm(std::vector<TraceSpec> &out)
{
    // Multimedia: long regular array sweeps dominate (stride-friendly,
    // too long for the LT), plus short coefficient loops and lookup
    // tables (context-friendly) and some data-dependent probing.
    static const char *tags[8] = {"aud", "ind", "ine", "mpa",
                                  "mpg", "mpv", "cws", "cwc"};
    for (unsigned i = 0; i < 8; ++i) {
        SpecBuilder b("MM", 4, i, tags[i]);
        b.add(StrideArrayKernel::Params{
                  .numArrays = 2 + i % 3,
                  .numElems = 8192,
                  .elemSize = 4 + 4 * (i % 2),
                  .chunk = 128},
              3.0);
        b.add(MatrixKernel::Params{
                  .rows = 128, .cols = 128, .chunk = 128},
              1.4);
        b.add(StrideArrayKernel::Params{
                  .numArrays = 1, .numElems = 16384, .chunk = 96},
              1.2);
        b.add(RepeatedBurstKernel::Params{
                  .numRuns = 3, .runLen = 4 + i % 3, .stride = 4},
              1.6);
        b.add(GlobalScalarKernel::Params{
                  .numGlobals = 10, .readsPerStep = 32},
              2.6);
        b.add(HashTableKernel::Params{
                  .numBuckets = 256,
                  .numEntries = 512,
                  .probesPerStep = 16,
                  .hotKeyProb = 0.3},
              1.5);
        b.add(LinkedListKernel::Params{
                  .numNodes = 6, .numDataFields = 1},
              0.4);
        out.push_back(b.take());
    }
}

void
buildGam(std::vector<TraceSpec> &out)
{
    static const char *tags[4] = {"duk", "fal", "mec", "qk"};
    for (unsigned i = 0; i < 4; ++i) {
        SpecBuilder b("GAM", 1, i, tags[i]);
        b.add(StrideArrayKernel::Params{
                  .numArrays = 2, .numElems = 512, .chunk = 64},
              1.6);
        b.add(LinkedListKernel::Params{
                  .numNodes = 10 + 2 * i,
                  .numDataFields = 2,
                  .mutateProb = 0.06},
              1.5);
        b.add(CallSiteKernel::Params{
                  .numSites = 4, .seqLen = 4, .calleeLoads = 3},
              1.0);
        b.add(BinaryTreeKernel::Params{
                  .numNodes = 127, .keyPeriod = 5, .randomKeyProb = 0.05},
              1.0);
        b.add(StackFrameKernel::Params{.maxDepth = 3, .savedRegs = 3},
              1.8);
        b.add(RepeatedBurstKernel::Params{
                  .numRuns = 2, .runLen = 6, .stride = 4},
              0.6);
        b.add(RandomPointerKernel::Params{.loadsPerStep = 10}, 0.7);
        b.add(HashTableKernel::Params{
                  .numBuckets = 256,
                  .numEntries = 512,
                  .probesPerStep = 10},
              0.9);
        b.add(GlobalScalarKernel::Params{
                  .numGlobals = 8, .readsPerStep = 24},
              2.8);
        out.push_back(b.take());
    }
}

void
buildJav(std::vector<TraceSpec> &out)
{
    // Java: stack-machine traffic, short procedures, many memory
    // operations, plus the section-4.3 repeated short strided bursts.
    static const char *tags[5] = {"3dg", "aud", "cfc", "cwc", "jit"};
    for (unsigned i = 0; i < 5; ++i) {
        SpecBuilder b("JAV", 3, i, tags[i]);
        b.add(StackFrameKernel::Params{
                  .maxDepth = 4 + i % 3, .savedRegs = 4, .bodyAlu = 2},
              3.0, 4);
        b.add(RepeatedBurstKernel::Params{
                  .numRuns = 3 + i % 2,
                  .runLen = 5 + i % 3,
                  .stride = 2},
              1.8);
        b.add(CallSiteKernel::Params{
                  .numSites = 4, .seqLen = 5, .calleeLoads = 3},
              1.5, 4);
        b.add(GlobalScalarKernel::Params{
                  .numGlobals = 12, .readsPerStep = 32},
              3.0, 4);
        b.add(LinkedListKernel::Params{
                  .numNodes = 10, .numDataFields = 1},
              1.0);
        b.add(HashTableKernel::Params{
                  .numBuckets = 128,
                  .numEntries = 256,
                  .probesPerStep = 8},
              0.6);
        b.add(DoublyLinkedListKernel::Params{.numNodes = 8}, 0.5);
        out.push_back(b.take());
    }
}

void
buildTpc(std::vector<TraceSpec> &out)
{
    // Transaction processing: hash probes, long volatile lists,
    // randomness; variants raise the static-load count to produce
    // the LB contention the paper reports.
    static const char *tags[3] = {"t23", "t33", "tb"};
    for (unsigned i = 0; i < 3; ++i) {
        SpecBuilder b("TPC", 6, i, tags[i]);
        b.add(HashTableKernel::Params{
                  .numBuckets = 512,
                  .numEntries = 1024,
                  .probesPerStep = 24,
                  .hotKeyProb = 0.3},
              2.0, 8);
        b.add(HashTableKernel::Params{
                  .numBuckets = 256,
                  .numEntries = 512,
                  .probesPerStep = 16},
              1.5, 8);
        b.add(RandomPointerKernel::Params{.loadsPerStep = 12}, 0.9);
        b.add(LinkedListKernel::Params{
                  .numNodes = 48, .numDataFields = 2, .mutateProb = 0.05},
              1.5, 8);
        b.add(StrideArrayKernel::Params{
                  .numArrays = 1, .numElems = 4096, .chunk = 48},
              1.0);
        b.add(CallSiteKernel::Params{
                  .numSites = 6,
                  .seqLen = 8,
                  .calleeLoads = 3,
                  .noiseProb = 0.1},
              1.0, 8);
        b.add(StackFrameKernel::Params{.maxDepth = 4, .savedRegs = 3},
              2.0, 8);
        b.add(GlobalScalarKernel::Params{
                  .numGlobals = 10, .readsPerStep = 24},
              3.0, 8);
        out.push_back(b.take());
    }
}

void
buildDesktop(std::vector<TraceSpec> &out, const std::string &suite,
             unsigned suite_id, unsigned count, const char **tags,
             double irregularity)
{
    // NT / W95: broad moderate mixes with many static loads; W95
    // passes higher irregularity.
    for (unsigned i = 0; i < count; ++i) {
        SpecBuilder b(suite, suite_id, i, tags[i]);
        b.add(LinkedListKernel::Params{
                  .numNodes = 12 + 2 * (i % 4),
                  .numDataFields = 2,
                  .mutateProb = 0.05 * irregularity},
              1.2, 6);
        b.add(BinaryTreeKernel::Params{
                  .numNodes = 127,
                  .keyPeriod = 5,
                  .randomKeyProb = 0.05 * irregularity},
              1.0, 4);
        b.add(CallSiteKernel::Params{
                  .numSites = 4,
                  .seqLen = 5 + i % 3,
                  .calleeLoads = 3,
                  .noiseProb = 0.05 * irregularity},
              1.4, 6);
        b.add(RepeatedBurstKernel::Params{
                  .numRuns = 3, .runLen = 5, .stride = 4},
              0.8);
        b.add(StackFrameKernel::Params{.maxDepth = 4, .savedRegs = 3},
              2.0, 6);
        b.add(GlobalScalarKernel::Params{
                  .numGlobals = 10, .readsPerStep = 24},
              3.0, 6);
        b.add(StrideArrayKernel::Params{
                  .numArrays = 2, .numElems = 512, .chunk = 48},
              1.2);
        b.add(HashTableKernel::Params{
                  .numBuckets = 256,
                  .numEntries = 512,
                  .probesPerStep = 12,
                  .hotKeyProb = 0.25},
              0.8 * irregularity, 4);
        b.add(MatrixKernel::Params{.rows = 64, .cols = 64, .chunk = 48},
              0.6);
        b.add(DoublyLinkedListKernel::Params{.numNodes = 10}, 1.0);
        b.add(RandomPointerKernel::Params{.loadsPerStep = 8},
              0.4 * irregularity);
        out.push_back(b.take());
    }
}

} // namespace

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {
        "CAD", "GAM", "INT", "JAV", "MM", "NT", "TPC", "W95"};
    return names;
}

std::vector<TraceSpec>
buildCatalog()
{
    std::vector<TraceSpec> specs;
    specs.reserve(45);
    buildCad(specs);
    buildGam(specs);
    buildInt(specs);
    buildJav(specs);
    buildMm(specs);
    static const char *nt_tags[8] = {"xin", "cdw", "exl", "frl",
                                     "pdx", "pmk", "pwp", "wdp"};
    buildDesktop(specs, "NT", 5, 8, nt_tags, 1.0);
    buildTpc(specs);
    static const char *w95_tags[7] = {"cdw", "exl", "frl", "prx",
                                      "pwp", "wdp", "wwd"};
    buildDesktop(specs, "W95", 7, 7, w95_tags, 1.6);
    return specs;
}

std::vector<TraceSpec>
buildSuite(const std::string &suite)
{
    std::vector<TraceSpec> result;
    for (auto &spec : buildCatalog()) {
        if (spec.suite == suite)
            result.push_back(std::move(spec));
    }
    return result;
}

std::size_t
defaultTraceLength()
{
    return envUnsigned("CLAP_TRACE_INSTS", 200000, 1,
                       std::numeric_limits<std::size_t>::max());
}

} // namespace clap

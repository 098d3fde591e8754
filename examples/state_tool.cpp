/**
 * @file
 * Predictor snapshot tooling: demonstrate the versioned state
 * serialization API (core/state_io.hh) and double as the small
 * command-line utility the state_tool_contract ctest scripts against:
 *
 *   state_tool                         # usage
 *   state_tool demo [predictor]        # capture/restore round trip
 *   state_tool inspect FILE            # walk header/sections/CRCs
 *   state_tool verify FILE             # restore into a predictor + audit
 *   state_tool verify FILE --salvage   # recover intact sections only
 *
 * The demo runs a predictor over the first half of a trace, snapshots
 * it to <predictor>.state in the current directory, restores the
 * snapshot into a fresh instance, and replays the second half through
 * both — the restored predictor must produce bit-for-bit identical
 * PredictionStats (the state_io contract).
 *
 * verify builds a default-configuration predictor of the kind named
 * in the snapshot header; snapshots captured from non-default table
 * geometries fail the geometry check and are reported as such.
 *
 * Exit codes (scriptable, mirroring trace_tool):
 *   0  success
 *   1  usage error
 *   2  write failure (demo)
 *   3  cannot open the input file
 *   4  input file is corrupt / fails to restore or audit
 *   5  file was damaged but the intact sections were salvaged
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/cap_predictor.hh"
#include "core/hybrid_predictor.hh"
#include "core/last_address_predictor.hh"
#include "core/state_io.hh"
#include "core/stride_predictor.hh"
#include "sim/predictor_sim.hh"
#include "workloads/composer.hh"
#include "workloads/suites.hh"

namespace
{

using namespace clap;

enum ExitCode
{
    exitOk = 0,
    exitUsage = 1,
    exitWriteFailure = 2,
    exitOpenFailure = 3,
    exitCorrupt = 4,
    exitSalvaged = 5,
};

/** Default-configuration predictor of the named kind, or null. */
std::unique_ptr<AddressPredictor>
makePredictor(const std::string &name)
{
    if (name == "hybrid")
        return std::make_unique<HybridPredictor>(HybridConfig{});
    if (name == "cap")
        return std::make_unique<CapPredictor>(CapPredictorConfig{});
    if (name == "stride")
        return std::make_unique<StridePredictor>(StridePredictorConfig{});
    if (name == "last")
        return std::make_unique<LastAddressPredictor>(LastAddressConfig{});
    return nullptr;
}

const char *
sectionName(std::uint32_t id)
{
    switch (static_cast<StateSection>(id)) {
      case StateSection::CapGates:    return "cap-gates";
      case StateSection::StrideGates: return "stride-gates";
      case StateSection::LinkTable:   return "link-table";
      case StateSection::LoadBuffer:  return "load-buffer";
    }
    return id >= firstCallerSection ? "caller" : "unknown";
}

int
errorExit(const Error &error)
{
    std::fprintf(stderr, "state_tool: %s\n", error.str().c_str());
    return error.code() == ErrorCode::IoError ? exitOpenFailure
                                              : exitCorrupt;
}

int
inspect(const std::string &path)
{
    const auto info = inspectStateFile(path);
    if (!info)
        return errorExit(info.error());

    std::printf("%s: format v%u, predictor '%s', %u sections "
                "promised\n",
                path.c_str(), info->version, info->predictor.c_str(),
                info->sections);
    std::printf("\n  %-8s %-14s %10s  %s\n", "id", "section", "bytes",
                "intact");
    for (const StateSectionInfo &section : info->sectionInfo) {
        std::printf("  0x%-6x %-14s %10llu  %s\n", section.id,
                    sectionName(section.id),
                    static_cast<unsigned long long>(section.length),
                    section.intact ? "yes" : "NO");
    }
    std::printf("\n  footer CRC: %s\n",
                info->footerOk ? "ok" : "missing or mismatched");
    std::printf("  verdict:    %s\n",
                info->complete ? "complete"
                               : "damaged (verify --salvage can "
                                 "recover the intact sections)");
    return info->complete ? exitOk : exitCorrupt;
}

int
verify(const std::string &path, bool salvage)
{
    const auto info = inspectStateFile(path);
    if (!info)
        return errorExit(info.error());

    std::unique_ptr<AddressPredictor> pred =
        makePredictor(info->predictor);
    if (!pred) {
        std::fprintf(stderr,
                     "state_tool: snapshot is for predictor '%s', "
                     "which this tool cannot build\n",
                     info->predictor.c_str());
        return exitUsage;
    }

    StateReadOptions options;
    options.salvage = salvage;
    const auto read = readPredictorState(path, *pred, options);
    if (!read) {
        std::fprintf(stderr, "state_tool: %s\n",
                     read.error().str().c_str());
        if (!salvage && read.error().code() != ErrorCode::IoError) {
            std::fprintf(stderr,
                         "state_tool: hint: retry with --salvage to "
                         "recover the intact sections\n");
        }
        return read.error().code() == ErrorCode::IoError
            ? exitOpenFailure
            : exitCorrupt;
    }

    std::printf("%s: restored %u of %u sections into a fresh '%s' "
                "predictor\n",
                path.c_str(), read->restored, read->sections,
                info->predictor.c_str());
    if (read->salvaged) {
        std::fprintf(stderr, "state_tool: salvaged restore; dropped:");
        for (std::uint32_t id : read->droppedSections)
            std::fprintf(stderr, " %s(0x%x)", sectionName(id), id);
        std::fprintf(stderr, "\n");
    }
    if (auto audited = pred->audit(); !audited) {
        std::fprintf(stderr,
                     "state_tool: restored predictor fails audit: "
                     "%s\n",
                     audited.error().str().c_str());
        return exitCorrupt;
    }
    std::printf("restored predictor passes the structural audit\n");
    return read->salvaged ? exitSalvaged : exitOk;
}

int
demo(const std::string &kind)
{
    std::unique_ptr<AddressPredictor> original = makePredictor(kind);
    if (!original) {
        std::fprintf(stderr,
                     "state_tool: unknown predictor '%s' (hybrid, "
                     "cap, stride, last)\n",
                     kind.c_str());
        return exitUsage;
    }

    // Warm the predictor on the first half of a mixed trace.
    const TraceSpec spec = buildSuite("INT").front();
    const Trace trace = generateTrace(spec, 200000);
    Trace firstHalf;
    Trace secondHalf;
    const std::size_t mid = trace.size() / 2;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        (i < mid ? firstHalf : secondHalf).append(trace.records()[i]);
    }
    std::printf("warming '%s' on %zu records of %s...\n", kind.c_str(),
                firstHalf.size(), spec.name.c_str());
    runPredictorSim(firstHalf, *original, {});

    // Snapshot mid-run into the working directory, restore into a
    // fresh instance.
    const std::string path = kind + ".state";
    if (auto written = writePredictorState(*original, path); !written) {
        std::fprintf(stderr, "state_tool: %s\n",
                     written.error().str().c_str());
        return exitWriteFailure;
    }
    std::printf("wrote %s\n", path.c_str());

    std::unique_ptr<AddressPredictor> restored = makePredictor(kind);
    if (auto read = readPredictorState(path, *restored); !read) {
        std::fprintf(stderr, "state_tool: %s\n",
                     read.error().str().c_str());
        return exitCorrupt;
    }
    std::printf("restored the snapshot into a fresh '%s'\n",
                kind.c_str());

    // The contract: both must now behave identically, counter for
    // counter, on the continuation.
    const PredictionStats contOriginal =
        runPredictorSim(secondHalf, *original, {});
    const PredictionStats contRestored =
        runPredictorSim(secondHalf, *restored, {});
    if (!(contOriginal == contRestored)) {
        std::fprintf(stderr,
                     "state_tool: DIVERGED on the continuation "
                     "(original spec=%llu correct=%llu, restored "
                     "spec=%llu correct=%llu)\n",
                     static_cast<unsigned long long>(contOriginal.spec),
                     static_cast<unsigned long long>(
                         contOriginal.specCorrect),
                     static_cast<unsigned long long>(contRestored.spec),
                     static_cast<unsigned long long>(
                         contRestored.specCorrect));
        return exitCorrupt;
    }
    std::printf("continuation over %zu records: original and "
                "restored stats are identical (%llu speculations, "
                "%llu correct)\n",
                secondHalf.size(),
                static_cast<unsigned long long>(contOriginal.spec),
                static_cast<unsigned long long>(
                    contOriginal.specCorrect));
    return inspect(path);
}

void
usage(const char *argv0)
{
    std::printf("usage: %s demo [predictor]         # hybrid, cap, "
                "stride, last\n"
                "       %s inspect <file>\n"
                "       %s verify <file> [--salvage]\n",
                argv0, argv0, argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return exitOk;
    }

    const std::string command = argv[1];
    if (command == "demo")
        return demo(argc > 2 ? argv[2] : "hybrid");
    if (command == "inspect" && argc >= 3)
        return inspect(argv[2]);
    if (command == "verify" && argc >= 3) {
        const bool salvage =
            argc > 3 && std::strcmp(argv[3], "--salvage") == 0;
        return verify(argv[2], salvage);
    }

    usage(argv[0]);
    return exitUsage;
}

/**
 * @file
 * Trace tooling: generate any catalog trace to a binary file, load it
 * back, and print its statistics; or inspect (and optionally salvage)
 * an existing trace file. Demonstrates the trace I/O API and doubles
 * as a small command-line utility:
 *
 *   trace_tool                        # list the 45-trace catalog
 *   trace_tool INT_go                 # generate, save, reload, summarize
 *   trace_tool INT_go 500000          # custom instruction count
 *   trace_tool inspect FILE           # validate + summarize a file
 *   trace_tool inspect FILE --salvage # recover the valid prefix
 *
 * Exit codes (scriptable):
 *   0  success
 *   1  usage error / unknown trace name
 *   2  trace generation or write failure
 *   3  cannot open the input file
 *   4  input file is corrupt (magic/version/header/record/checksum)
 *   5  file was damaged but the valid prefix was salvaged
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "workloads/composer.hh"
#include "workloads/suites.hh"

namespace
{

enum ExitCode
{
    exitOk = 0,
    exitUsage = 1,
    exitWriteFailure = 2,
    exitOpenFailure = 3,
    exitCorrupt = 4,
    exitSalvaged = 5,
};

int
inspect(const std::string &path, bool salvage)
{
    using namespace clap;

    TraceReadOptions options;
    options.salvage = salvage;
    Trace trace;
    const auto result = readTrace(path, trace, options);
    if (!result) {
        const Error &error = result.error();
        std::fprintf(stderr, "trace_tool: %s\n", error.str().c_str());
        if (error.code() == ErrorCode::IoError)
            return exitOpenFailure;
        if (!salvage) {
            std::fprintf(stderr,
                         "trace_tool: hint: retry with --salvage to "
                         "recover the valid prefix\n");
        }
        return exitCorrupt;
    }

    std::printf("%s: format v%u, %zu records", path.c_str(),
                result->version, trace.size());
    if (!trace.name().empty())
        std::printf(", name '%s'", trace.name().c_str());
    std::printf("\n");
    if (result->salvaged) {
        std::fprintf(stderr,
                     "trace_tool: file damaged: salvaged %llu of %llu "
                     "declared records\n",
                     static_cast<unsigned long long>(result->records),
                     static_cast<unsigned long long>(result->declared));
    }
    const TraceStats stats = computeTraceStats(trace);
    printTraceStats(stats, std::cout);
    printTraceHistogram(stats, std::cout);
    return result->salvaged ? exitSalvaged : exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace clap;

    if (argc >= 3 && std::string(argv[1]) == "inspect") {
        const bool salvage =
            argc > 3 && std::string(argv[3]) == "--salvage";
        return inspect(argv[2], salvage);
    }

    const auto catalog = buildCatalog();
    if (argc < 2) {
        std::printf("usage: %s <trace-name> [instructions]\n"
                    "       %s inspect <file> [--salvage]\n\n",
                    argv[0], argv[0]);
        std::printf("available traces:\n");
        std::string suite;
        for (const auto &spec : catalog) {
            if (spec.suite != suite) {
                suite = spec.suite;
                std::printf("\n  %s:", suite.c_str());
            }
            std::printf(" %s", spec.name.c_str());
        }
        std::printf("\n");
        return exitOk;
    }

    const std::string name = argv[1];
    const std::size_t insts =
        argc > 2 ? static_cast<std::size_t>(std::atol(argv[2]))
                 : defaultTraceLength();

    const TraceSpec *spec = nullptr;
    for (const auto &candidate : catalog) {
        if (candidate.name == name)
            spec = &candidate;
    }
    if (!spec) {
        std::fprintf(stderr, "unknown trace '%s' (run without "
                             "arguments for the list)\n",
                     name.c_str());
        return exitUsage;
    }

    std::printf("generating %s (%zu instructions)...\n", name.c_str(),
                insts);
    const Trace trace = generateTrace(*spec, insts);

    const std::string path = "/tmp/" + name + ".clap";
    if (const auto written = writeTrace(trace, path); !written) {
        std::fprintf(stderr, "trace_tool: %s\n",
                     written.error().str().c_str());
        return exitWriteFailure;
    }
    std::printf("wrote %s\n", path.c_str());

    Trace loaded;
    const auto read = readTrace(path, loaded, TraceReadOptions{});
    if (!read) {
        std::fprintf(stderr, "trace_tool: %s\n",
                     read.error().str().c_str());
        return read.error().code() == ErrorCode::IoError
            ? exitOpenFailure
            : exitCorrupt;
    }
    std::printf("re-read %zu records; statistics:\n\n", loaded.size());
    printTraceStats(computeTraceStats(loaded), std::cout);
    return exitOk;
}

/**
 * @file
 * Observability tooling: run a predictor over a catalog trace and
 * print its internal-state telemetry (core/telemetry.hh), or validate
 * a trace-event span file emitted by the obs layer. Demonstrates the
 * introspection API and doubles as the smoke-check utility
 * (scripts/smoke.sh, scripts/fleet_trace_smoke.sh):
 *
 *   obs_tool                                  # usage + trace list
 *   obs_tool stats INT_go                     # hybrid telemetry
 *   obs_tool stats INT_go --predictor=cap     # cap | stride | hybrid | last
 *   obs_tool stats INT_go --insts=500000      # custom trace length
 *   obs_tool stats INT_go --json              # machine-readable dump
 *   obs_tool stats INT_go --metrics           # + global metrics registry
 *   obs_tool check-spans FILE                 # validate trace-event JSON
 *   obs_tool check-spans FILE --min-trace-procs=3
 *                                             # + require one distributed
 *                                             #   trace spanning >= 3 procs
 *   obs_tool scrape ENDPOINT [--stable]       # live ObsFetch scrape
 *   obs_tool load ENDPOINT --loads=N --seed=S --sample-every=K
 *                                             # deterministic traced load
 *   obs_tool merge OUT IN [IN ...]            # align span files from
 *                                             #   several processes onto
 *                                             #   one Perfetto timeline
 *
 * The --json output is a pure function of (trace, predictor, insts):
 * it contains the PredictionStats counters and the telemetry snapshot
 * but never the (enablement-dependent) metrics registry, so smoke_obs
 * diffs a CLAP_METRICS=0 run against a CLAP_METRICS=1 run byte for
 * byte to prove instrumentation changes no simulation result. The
 * scrape analogue is --stable: the server omits wall-clock ("timing")
 * sections, so two same-seed runs scrape byte-identically.
 *
 * merge aligns per-process span files using the clock_epoch_unix_ns
 * each file's process_name metadata carries (the wall-clock anchor of
 * that process's span-timestamp zero): every event's ts is shifted by
 * (epoch - min epoch), putting all processes on the earliest one's
 * clock. The output is one valid trace-event file; open it in
 * Perfetto and filter by trace_id to follow one request across clapr,
 * clapd, and the shard.
 *
 * Exit codes (scriptable):
 *   0  success
 *   1  usage error / unknown trace or predictor name
 *   2  endpoint unreachable (scrape/load)
 *   3  cannot open the span file
 *   4  span file is not valid trace-event JSON (or fails the
 *      distributed-trace checks)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/cap_predictor.hh"
#include "core/hybrid_predictor.hh"
#include "core/last_address_predictor.hh"
#include "core/stride_predictor.hh"
#include "core/telemetry.hh"
#include "net/client.hh"
#include "obs/metrics.hh"
#include "obs/trace_context.hh"
#include "obs/trace_events.hh"
#include "sim/predictor_sim.hh"
#include "util/atomic_file.hh"
#include "util/json.hh"
#include "workloads/composer.hh"
#include "workloads/suites.hh"

namespace
{

enum ExitCode
{
    exitOk = 0,
    exitUsage = 1,
    exitUnreachable = 2,
    exitOpenFailure = 3,
    exitInvalid = 4,
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s stats <trace-name> [--predictor=NAME] [--insts=N] "
        "[--json] [--metrics]\n"
        "       %s check-spans <file> [--min-trace-procs=N]\n"
        "       %s scrape <endpoint> [--stable]\n"
        "       %s load <endpoint> [--loads=N] [--seed=S] "
        "[--sample-every=K]\n"
        "       %s merge <out> <in> [<in> ...]\n\n"
        "predictors: hybrid (default), cap, stride, last\n"
        "traces: run `trace_tool` without arguments for the catalog\n"
        "endpoints: unix:/tmp/clapd.sock or tcp:127.0.0.1:PORT\n",
        argv0, argv0, argv0, argv0, argv0);
}

std::unique_ptr<clap::AddressPredictor>
makePredictor(const std::string &name)
{
    using namespace clap;
    if (name == "hybrid")
        return std::make_unique<HybridPredictor>(HybridConfig{});
    if (name == "cap")
        return std::make_unique<CapPredictor>(CapPredictorConfig{});
    if (name == "stride")
        return std::make_unique<StridePredictor>(
            StridePredictorConfig{});
    if (name == "last")
        return std::make_unique<LastAddressPredictor>(
            LastAddressConfig{});
    return nullptr;
}

/** Deterministic PredictionStats rendering for the --json dump. */
std::string
statsJson(const clap::PredictionStats &stats)
{
    std::string json = "{\"loads\": " + std::to_string(stats.loads);
    json += ", \"lb_hits\": " + std::to_string(stats.lbHits);
    json += ", \"formed\": " + std::to_string(stats.formed);
    json += ", \"formed_correct\": " +
        std::to_string(stats.formedCorrect);
    json += ", \"spec\": " + std::to_string(stats.spec);
    json += ", \"spec_correct\": " + std::to_string(stats.specCorrect);
    json += ", \"both_spec\": " + std::to_string(stats.bothSpec);
    json += ", \"miss_selections\": " +
        std::to_string(stats.missSelections);
    json += "}";
    return json;
}

int
runStats(int argc, char **argv)
{
    using namespace clap;

    std::string traceName;
    std::string predictorName = "hybrid";
    std::size_t insts = defaultTraceLength();
    bool asJson = false;
    bool withMetrics = false;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--predictor=", 0) == 0) {
            predictorName = arg.substr(12);
        } else if (arg.rfind("--insts=", 0) == 0) {
            insts = static_cast<std::size_t>(
                std::atol(arg.c_str() + 8));
            if (insts == 0) {
                std::fprintf(stderr, "obs_tool: bad --insts value\n");
                return exitUsage;
            }
        } else if (arg == "--json") {
            asJson = true;
        } else if (arg == "--metrics") {
            withMetrics = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "obs_tool: unknown flag '%s'\n",
                         arg.c_str());
            return exitUsage;
        } else if (traceName.empty()) {
            traceName = arg;
        } else {
            std::fprintf(stderr, "obs_tool: extra argument '%s'\n",
                         arg.c_str());
            return exitUsage;
        }
    }
    if (traceName.empty()) {
        usage(argv[0]);
        return exitUsage;
    }

    TraceSpec spec;
    bool found = false;
    for (const auto &candidate : buildCatalog()) {
        if (candidate.name == traceName) {
            spec = candidate;
            found = true;
        }
    }
    if (!found) {
        std::fprintf(stderr,
                     "obs_tool: unknown trace '%s' (see trace_tool)\n",
                     traceName.c_str());
        return exitUsage;
    }

    auto predictor = makePredictor(predictorName);
    if (predictor == nullptr) {
        std::fprintf(stderr, "obs_tool: unknown predictor '%s'\n",
                     predictorName.c_str());
        return exitUsage;
    }

    const Trace trace = generateTrace(spec, insts);
    const PredictionStats stats =
        runPredictorSim(trace, *predictor, PredictorSimConfig{});
    const PredictorTelemetry telemetry =
        predictor->snapshotTelemetry();

    if (asJson) {
        // One deterministic document; see the file header on why the
        // metrics registry is deliberately excluded here.
        std::string json = "{\n\"trace\": \"" + jsonEscape(traceName) +
            "\",\n\"stats\": " + statsJson(stats) +
            ",\n\"telemetry\": " + telemetryJson(telemetry) + "}\n";
        std::fputs(json.c_str(), stdout);
    } else {
        std::printf("trace %s (%zu records), predictor %s\n",
                    traceName.c_str(), trace.size(),
                    predictor->name().c_str());
        std::printf(
            "loads %llu, prediction rate %.2f%%, accuracy %.2f%%\n\n",
            static_cast<unsigned long long>(stats.loads),
            100.0 * stats.predictionRate(), 100.0 * stats.accuracy());
        std::fputs(telemetryText(telemetry).c_str(), stdout);
    }
    if (withMetrics) {
        std::printf("\n-- metrics registry (%s) --\n%s",
                    obs::metricsEnabled() ? "enabled" : "disabled",
                    obs::metricsText().c_str());
    }
    return exitOk;
}

/**
 * Fetch one live scrape (ObsFetch/ObsOk) from a running clapd/clapr
 * and print it. --stable asks the server to omit wall-clock sections,
 * making the document byte-identical across two same-seed runs.
 */
int
runScrape(int argc, char **argv)
{
    using namespace clap;

    std::string endpoint;
    bool stable = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--stable") {
            stable = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "obs_tool: unknown flag '%s'\n",
                         arg.c_str());
            return exitUsage;
        } else if (endpoint.empty()) {
            endpoint = arg;
        } else {
            std::fprintf(stderr, "obs_tool: extra argument '%s'\n",
                         arg.c_str());
            return exitUsage;
        }
    }
    if (endpoint.empty()) {
        usage(argv[0]);
        return exitUsage;
    }

    net::ClientConfig config;
    config.endpoint = endpoint;
    config.clientName = "obs-scrape";
    if (auto valid = config.validate(); !valid) {
        std::fprintf(stderr, "obs_tool: %s\n",
                     valid.error().str().c_str());
        return exitUsage;
    }
    net::NetClient client(config);
    auto doc = client.fetchObs(/*include_timing=*/!stable);
    if (!doc) {
        std::fprintf(stderr, "obs_tool: scrape %s: %s\n",
                     endpoint.c_str(), doc.error().str().c_str());
        return exitUnreachable;
    }
    std::fputs(doc->c_str(), stdout);
    return exitOk;
}

/**
 * Deterministic traced load: predict+train round trips against a live
 * endpoint, opening a sampled root span every --sample-every-th
 * request (trace id seeded from --seed, so two same-seed runs emit
 * the same trace ids). With CLAP_TRACE_EVENTS set, the resulting span
 * file joins the server-side ones in `obs_tool merge`.
 */
int
runLoad(int argc, char **argv)
{
    using namespace clap;

    std::string endpoint;
    std::uint64_t loads = 64;
    std::uint64_t seed = 1;
    std::uint64_t sampleEvery = 8;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--loads=", 0) == 0) {
            loads = std::strtoull(arg.c_str() + 8, nullptr, 0);
        } else if (arg.rfind("--seed=", 0) == 0) {
            seed = std::strtoull(arg.c_str() + 7, nullptr, 0);
        } else if (arg.rfind("--sample-every=", 0) == 0) {
            sampleEvery = std::strtoull(arg.c_str() + 15, nullptr, 0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "obs_tool: unknown flag '%s'\n",
                         arg.c_str());
            return exitUsage;
        } else if (endpoint.empty()) {
            endpoint = arg;
        } else {
            std::fprintf(stderr, "obs_tool: extra argument '%s'\n",
                         arg.c_str());
            return exitUsage;
        }
    }
    if (endpoint.empty() || loads == 0) {
        usage(argv[0]);
        return exitUsage;
    }

    obs::setTraceProcessName("obs_load");

    net::ClientConfig config;
    config.endpoint = endpoint;
    config.clientName = "obs-load";
    if (auto valid = config.validate(); !valid) {
        std::fprintf(stderr, "obs_tool: %s\n",
                     valid.error().str().c_str());
        return exitUsage;
    }
    net::NetClient client(config);

    std::uint64_t predictsOk = 0;
    std::uint64_t trainsOk = 0;
    std::uint64_t errors = 0;
    std::uint64_t sampled = 0;
    for (std::uint64_t i = 0; i < loads; ++i) {
        // A small deterministic pointer-chase-ish schedule: 32 pcs,
        // strided addresses, so the servers' predictors see real
        // training signal and the gates fire.
        const std::uint64_t pc = 0x400000 + (i % 32) * 4;
        const std::uint64_t addr = 0x10000000 + i * 64;

        // The root of a distributed trace: a context with no parent
        // span. Every span below it — the client-side load span, the
        // gateway's net.Predict, the replica's serve.predict — chains
        // off this trace id.
        std::optional<obs::TraceScope> root;
        std::optional<obs::Span> span;
        if (sampleEvery != 0 && i % sampleEvery == 0) {
            obs::TraceContext ctx;
            ctx.traceId = obs::traceIdFromSeed(seed ^ (i + 1));
            ctx.spanId = 0;
            ctx.sampled = true;
            root.emplace(ctx);
            span.emplace("load.predict", "load");
            ++sampled;
        }

        const LoadInfo info = client.makeInfo(pc, 0);
        if (auto pred = client.predict(info)) {
            ++predictsOk;
            if (client.train(info, addr, *pred))
                ++trainsOk;
            else
                ++errors;
        } else {
            ++errors;
        }
        span.reset();
        root.reset();
    }

    if (auto flushed = obs::flushTraceEvents(); !flushed) {
        std::fprintf(stderr, "obs_tool: span flush: %s\n",
                     flushed.error().str().c_str());
    }
    std::printf("obs_tool load: %llu predict(s) ok, %llu train(s) ok, "
                "%llu error(s), %llu sampled root span(s)\n",
                static_cast<unsigned long long>(predictsOk),
                static_cast<unsigned long long>(trainsOk),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(sampled));
    return errors == 0 ? exitOk : exitUnreachable;
}

/** Re-render one parsed JSON value (for merge: events are rewritten
 *  after their timestamps shift). Unsigned integers render as
 *  integers, every other number with the same %.3f the span writer
 *  uses, so a round trip through merge keeps the writer's shape. */
void
renderJson(const clap::JsonValue &value, std::string &out)
{
    using clap::JsonValue;
    switch (value.kind) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += value.boolean ? "true" : "false";
        break;
      case JsonValue::Kind::Number:
        if (value.isUint) {
            out += std::to_string(value.uintValue);
        } else {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.3f", value.number);
            out += buf;
        }
        break;
      case JsonValue::Kind::String:
        out += "\"" + clap::jsonEscape(value.str) + "\"";
        break;
      case JsonValue::Kind::Array: {
        out += "[";
        bool first = true;
        for (const JsonValue &item : value.items) {
            if (!first)
                out += ", ";
            first = false;
            renderJson(item, out);
        }
        out += "]";
        break;
      }
      case JsonValue::Kind::Object: {
        out += "{";
        bool first = true;
        for (const auto &[key, member] : value.members) {
            if (!first)
                out += ", ";
            first = false;
            out += "\"" + clap::jsonEscape(key) + "\": ";
            renderJson(member, out);
        }
        out += "}";
        break;
      }
    }
}

/**
 * Merge span files from several processes onto one timeline. Each
 * file's process_name metadata carries clock_epoch_unix_ns — the
 * wall-clock instant of that process's span-timestamp zero (captured
 * at handshake-compatible Sink construction) — so shifting every
 * event by (epoch - min epoch) expresses all timestamps on the
 * earliest process's clock.
 */
int
runMerge(int argc, char **argv)
{
    using namespace clap;

    if (argc < 4) {
        usage(argv[0]);
        return exitUsage;
    }
    const std::string outPath = argv[2];

    struct MergedEvent
    {
        bool metadata = false;
        double ts = 0.0;
        std::size_t order = 0; ///< global input order (stable ties)
        std::string json;
    };
    std::vector<MergedEvent> events;

    // First pass: parse every input and find the earliest epoch.
    std::vector<JsonValue> roots;
    std::vector<std::uint64_t> epochs;
    std::uint64_t minEpoch = 0;
    bool haveEpoch = false;
    for (int i = 3; i < argc; ++i) {
        std::ifstream in(argv[i], std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "obs_tool: cannot open %s\n",
                         argv[i]);
            return exitOpenFailure;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        auto parsed = parseJson(buffer.str());
        if (!parsed) {
            std::fprintf(stderr, "obs_tool: %s: %s\n", argv[i],
                         parsed.error().str().c_str());
            return exitInvalid;
        }
        const JsonValue *list = parsed->find("traceEvents");
        if (list == nullptr ||
            list->kind != JsonValue::Kind::Array) {
            std::fprintf(stderr,
                         "obs_tool: %s: missing traceEvents array\n",
                         argv[i]);
            return exitInvalid;
        }
        std::uint64_t epoch = 0;
        for (const JsonValue &event : list->items) {
            if (event.stringOr("ph", "") == "M" &&
                event.stringOr("name", "") == "process_name") {
                if (const JsonValue *args = event.find("args"))
                    epoch = args->uintOr("clock_epoch_unix_ns", 0);
                break;
            }
        }
        if (epoch != 0) {
            minEpoch = haveEpoch ? std::min(minEpoch, epoch) : epoch;
            haveEpoch = true;
        }
        epochs.push_back(epoch);
        roots.push_back(std::move(*parsed));
    }

    // Second pass: shift and re-render.
    std::size_t order = 0;
    for (std::size_t f = 0; f < roots.size(); ++f) {
        const double offsetUs =
            epochs[f] != 0 && haveEpoch
                ? static_cast<double>(epochs[f] - minEpoch) / 1000.0
                : 0.0;
        JsonValue *list = const_cast<JsonValue *>(
            roots[f].find("traceEvents"));
        for (JsonValue &event : list->items) {
            MergedEvent merged;
            merged.order = order++;
            merged.metadata = event.stringOr("ph", "") == "M";
            if (!merged.metadata) {
                for (auto &[key, member] : event.members) {
                    if (key == "ts" &&
                        member.kind == JsonValue::Kind::Number) {
                        member.number = member.isUint
                            ? static_cast<double>(member.uintValue)
                            : member.number;
                        member.number += offsetUs;
                        member.isUint = false;
                        merged.ts = member.number;
                    }
                }
            }
            renderJson(event, merged.json);
            events.push_back(std::move(merged));
        }
    }

    // Metadata events first (process names ahead of their spans),
    // then one global time order; input order breaks ties.
    std::stable_sort(events.begin(), events.end(),
                     [](const MergedEvent &a, const MergedEvent &b) {
                         if (a.metadata != b.metadata)
                             return a.metadata;
                         if (a.metadata)
                             return a.order < b.order;
                         return a.ts < b.ts;
                     });

    std::string json;
    json.reserve(events.size() * 96 + 64);
    json += "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i != 0)
            json += ",\n";
        json += events[i].json;
    }
    json += "\n]}\n";
    if (auto written = writeFileAtomic(outPath, json); !written) {
        std::fprintf(stderr, "obs_tool: %s: %s\n", outPath.c_str(),
                     written.error().str().c_str());
        return exitOpenFailure;
    }
    std::printf("obs_tool merge: %zu event(s) from %d file(s) -> %s\n",
                events.size(), argc - 3, outPath.c_str());
    return exitOk;
}

/**
 * Validate a Chrome/Perfetto trace-event file: top-level object with
 * a traceEvents array whose elements carry a string name/ph, numeric
 * ts, pid and tid, and a dur on every complete ('X') event. With
 * --min-trace-procs=N, additionally require at least one distributed
 * trace (events sharing args.trace_id) spanning >= N distinct
 * processes, and check parent/child span linkage: a child whose
 * parent span lives in the same process must fit inside it in time.
 */
int
checkSpans(const std::string &path, unsigned min_trace_procs)
{
    using namespace clap;

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "obs_tool: cannot open %s\n",
                     path.c_str());
        return exitOpenFailure;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    const auto parsed = parseJson(text);
    if (!parsed) {
        std::fprintf(stderr, "obs_tool: %s: %s\n", path.c_str(),
                     parsed.error().str().c_str());
        return exitInvalid;
    }
    const JsonValue &root = *parsed;
    const JsonValue *events = root.find("traceEvents");
    if (root.kind != JsonValue::Kind::Object || events == nullptr ||
        events->kind != JsonValue::Kind::Array) {
        std::fprintf(stderr,
                     "obs_tool: %s: missing traceEvents array\n",
                     path.c_str());
        return exitInvalid;
    }

    std::size_t complete = 0;
    std::size_t instants = 0;
    std::size_t metadata = 0;
    for (std::size_t i = 0; i < events->items.size(); ++i) {
        const JsonValue &event = events->items[i];
        auto bad = [&](const char *what) {
            std::fprintf(stderr, "obs_tool: %s: event %zu: %s\n",
                         path.c_str(), i, what);
            return exitInvalid;
        };
        if (event.kind != JsonValue::Kind::Object)
            return bad("not an object");
        const JsonValue *name = event.find("name");
        const JsonValue *ph = event.find("ph");
        if (name == nullptr || name->kind != JsonValue::Kind::String)
            return bad("missing string name");
        if (ph == nullptr || ph->kind != JsonValue::Kind::String ||
            ph->str.size() != 1)
            return bad("missing one-char ph");
        const JsonValue *ts = event.find("ts");
        const JsonValue *pid = event.find("pid");
        const JsonValue *tid = event.find("tid");
        if (ts == nullptr || ts->kind != JsonValue::Kind::Number)
            return bad("missing numeric ts");
        if (pid == nullptr || pid->kind != JsonValue::Kind::Number)
            return bad("missing numeric pid");
        if (tid == nullptr || tid->kind != JsonValue::Kind::Number)
            return bad("missing numeric tid");
        switch (ph->str[0]) {
          case 'X': {
            const JsonValue *dur = event.find("dur");
            if (dur == nullptr ||
                dur->kind != JsonValue::Kind::Number)
                return bad("complete event without numeric dur");
            ++complete;
            break;
          }
          case 'i':
            ++instants;
            break;
          case 'M':
            ++metadata;
            break;
          default:
            return bad("unexpected ph");
        }
    }

    // Distributed-trace linkage: group complete spans by trace id,
    // index them by span id, and walk the parent chains.
    struct TracedSpan
    {
        double ts = 0.0;
        double dur = 0.0;
        std::uint64_t pid = 0;
        std::string spanId;
        std::string parentId;
    };
    std::map<std::string, std::vector<TracedSpan>> byTrace;
    for (const JsonValue &event : events->items) {
        if (event.stringOr("ph", "") != "X")
            continue;
        const JsonValue *args = event.find("args");
        if (args == nullptr)
            continue;
        const std::string traceId = args->stringOr("trace_id", "");
        if (traceId.empty())
            continue;
        TracedSpan span;
        if (const JsonValue *ts = event.find("ts"))
            span.ts = ts->number;
        if (const JsonValue *dur = event.find("dur"))
            span.dur = dur->number;
        span.pid = event.uintOr("pid", 0);
        span.spanId = args->stringOr("span_id", "");
        span.parentId = args->stringOr("parent_span_id", "");
        byTrace[traceId].push_back(std::move(span));
    }

    std::size_t maxProcs = 0;
    std::string widestTrace;
    for (const auto &[traceId, spans] : byTrace) {
        std::set<std::uint64_t> pids;
        std::map<std::string, const TracedSpan *> bySpanId;
        for (const TracedSpan &span : spans) {
            pids.insert(span.pid);
            bySpanId.emplace(span.spanId, &span);
        }
        if (pids.size() > maxProcs) {
            maxProcs = pids.size();
            widestTrace = traceId;
        }
        for (const TracedSpan &span : spans) {
            if (span.parentId.empty() || span.parentId == "0x0")
                continue; // root span of its process
            const auto parent = bySpanId.find(span.parentId);
            if (parent == bySpanId.end())
                continue; // parent flushed elsewhere (another file)
            // Same-process parents must contain the child in time.
            // Cross-process pairs are exempt: their clocks align only
            // after `merge`, and even then only to epoch precision.
            if (parent->second->pid != span.pid)
                continue;
            constexpr double slackUs = 0.002; // %.3f rounding
            if (span.ts + slackUs < parent->second->ts ||
                span.ts + span.dur >
                    parent->second->ts + parent->second->dur + slackUs) {
                std::fprintf(stderr,
                             "obs_tool: %s: trace %s: span %s "
                             "escapes its parent %s in time\n",
                             path.c_str(), traceId.c_str(),
                             span.spanId.c_str(),
                             span.parentId.c_str());
                return exitInvalid;
            }
        }
    }

    if (min_trace_procs > 0 && maxProcs < min_trace_procs) {
        std::fprintf(stderr,
                     "obs_tool: %s: widest distributed trace spans "
                     "%zu process(es), need >= %u\n",
                     path.c_str(), maxProcs, min_trace_procs);
        return exitInvalid;
    }

    std::printf("%s: valid trace-event JSON: %zu complete spans, "
                "%zu instants, %zu metadata events, %zu distributed "
                "trace(s), widest spans %zu process(es)\n",
                path.c_str(), complete, instants, metadata,
                byTrace.size(), maxProcs);
    return exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::string(argv[1]) == "stats")
        return runStats(argc, argv);
    if (argc >= 3 && std::string(argv[1]) == "check-spans") {
        std::string file;
        unsigned minProcs = 0;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--min-trace-procs=", 0) == 0) {
                minProcs = static_cast<unsigned>(
                    std::atol(arg.c_str() + 18));
            } else if (!arg.empty() && arg[0] == '-') {
                std::fprintf(stderr, "obs_tool: unknown flag '%s'\n",
                             arg.c_str());
                return exitUsage;
            } else if (file.empty()) {
                file = arg;
            } else {
                std::fprintf(stderr, "obs_tool: extra argument '%s'\n",
                             arg.c_str());
                return exitUsage;
            }
        }
        if (file.empty()) {
            usage(argv[0]);
            return exitUsage;
        }
        return checkSpans(file, minProcs);
    }
    if (argc >= 2 && std::string(argv[1]) == "scrape")
        return runScrape(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "load")
        return runLoad(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "merge")
        return runMerge(argc, argv);
    usage(argv[0]);
    return argc < 2 ? exitOk : exitUsage;
}

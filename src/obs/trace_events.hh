/**
 * @file
 * Trace-event span layer: scoped RAII spans and instant events
 * emitted as Chrome/Perfetto-compatible `trace_events` JSON
 * (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU —
 * load the file in ui.perfetto.dev or chrome://tracing).
 *
 * Enablement: set CLAP_TRACE_EVENTS=<path> before starting the
 * process. When the variable is unset, a Span construction is one
 * load of a cached bool and nothing else — instrumented hot paths
 * stay hot. When set, events append to a per-thread buffer (its
 * mutex is uncontended except during a flush) and flushTraceEvents()
 * merges every thread's buffer, sorts deterministically, and writes
 * the whole file through util/atomic_file.hh, so readers never see a
 * truncated trace. Flushing is cumulative and idempotent: each call
 * rewrites the file with everything recorded so far. The sink also
 * flushes at process exit via std::atexit.
 *
 * Buffers are bounded (kMaxEventsPerThread); beyond the bound events
 * are counted as dropped and reported in the emitted metadata rather
 * than growing without limit.
 */

#ifndef CLAP_OBS_TRACE_EVENTS_HH
#define CLAP_OBS_TRACE_EVENTS_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/trace_context.hh"
#include "util/error.hh"

namespace clap::obs
{

/** True when CLAP_TRACE_EVENTS names an output path (read once). */
bool traceEventsEnabled();

/** The configured output path (empty when disabled). */
const std::string &traceEventsPath();

/** Nanoseconds since the first use of the span layer. */
std::uint64_t traceNowNs();

/**
 * Unix nanoseconds (system clock) corresponding to this process's
 * span-timestamp zero. Emitted in the trace file's process metadata
 * and exchanged in the wire handshake so `obs_tool merge` can align
 * span files from different processes onto one clock.
 */
std::uint64_t traceClockEpochUnixNs();

/** Label this process in emitted trace files (default "clap"); call
 *  once at startup, before the first flush. */
void setTraceProcessName(std::string_view name);

/** Shrink the per-thread event-buffer bound (tests only). */
void setTraceEventBufferLimitForTest(std::size_t limit);

/** Record an instant event (ph "i", thread scope). */
void traceInstant(std::string name, std::string_view cat = "clap");

/**
 * Merge every thread buffer and atomically (re)write the configured
 * file. Safe to call from any thread, any number of times; ok() and
 * a no-op when tracing is disabled.
 */
Expected<void> flushTraceEvents();

/** Events currently buffered across all threads (tests). */
std::size_t bufferedTraceEventCount();

/**
 * Scoped span: construction stamps the start, destruction records a
 * complete event (ph "X") covering the scope. Constructing with
 * tracing disabled costs one cached-bool load.
 *
 * Distributed linkage: when the calling thread carries a sampled
 * TraceContext (see trace_context.hh), the span joins that trace —
 * it takes the context's spanId as its parent, mints its own id, and
 * installs itself as the thread's current context for its lifetime,
 * so nested spans (and wire calls made inside the scope) chain under
 * it. The ids are rendered into the event's "args", which is how
 * `obs_tool merge` stitches one request across processes.
 */
class Span
{
  public:
    explicit Span(std::string name, std::string_view cat = "clap")
    {
        if (traceEventsEnabled()) {
            name_ = std::move(name);
            cat_ = cat;
            const TraceContext ctx = currentTraceContext();
            if (ctx.valid() && ctx.sampled) {
                traceId_ = ctx.traceId;
                parentSpanId_ = ctx.spanId;
                spanId_ = newSpanId();
                saved_ = ctx;
                setCurrentTraceContext(
                    TraceContext{traceId_, spanId_, true});
                installed_ = true;
            }
            startNs_ = traceNowNs();
            armed_ = true;
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span() { finish(); }

    /** End the span early (idempotent; the destructor then no-ops). */
    void finish();

    /** This span's id in its trace (0 when unlinked). */
    std::uint64_t spanId() const { return spanId_; }

  private:
    bool armed_ = false;
    bool installed_ = false;
    std::uint64_t startNs_ = 0;
    std::uint64_t traceId_ = 0;
    std::uint64_t spanId_ = 0;
    std::uint64_t parentSpanId_ = 0;
    TraceContext saved_;
    std::string name_;
    std::string cat_;
};

} // namespace clap::obs

#endif // CLAP_OBS_TRACE_EVENTS_HH

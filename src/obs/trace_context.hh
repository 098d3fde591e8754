/**
 * @file
 * Distributed trace context: the (traceId, spanId, sampled) triple
 * that ties spans recorded in different processes into one timeline.
 * A context is *ambient* — installed on the current thread with
 * TraceScope and read back with currentTraceContext() — so code that
 * forwards a request over the wire (src/net/client.cc) can attach the
 * caller's context without every layer threading it explicitly.
 *
 * Conventions:
 *  - traceId == 0 means "no trace"; valid() is the only check.
 *  - spanId names the span that is the *parent* of any work performed
 *    under this context (on the wire it is serialized as
 *    parentSpanId; the receiver's spans adopt it as their parent).
 *  - sampled gates span emission: un-sampled contexts still propagate
 *    (so a downstream sampler could re-enable them) but record
 *    nothing today.
 *
 * The context is two thread-local words and propagates whether or
 * not span recording (trace_events.hh) is enabled at runtime.
 */

#ifndef CLAP_OBS_TRACE_CONTEXT_HH
#define CLAP_OBS_TRACE_CONTEXT_HH

#include <cstdint>

namespace clap::obs
{

/** One request's position in a distributed trace. */
struct TraceContext
{
    std::uint64_t traceId = 0; ///< 0 = not part of any trace
    std::uint64_t spanId = 0;  ///< parent span for work under this context
    bool sampled = false;      ///< record spans for this trace?

    bool valid() const { return traceId != 0; }
};

/** The context installed on the calling thread (default when none). */
TraceContext currentTraceContext();

/** Replace the calling thread's context (prefer TraceScope). */
void setCurrentTraceContext(const TraceContext &context);

/** A fresh process-unique span id (never 0). Not deterministic —
 *  span ids are tracing-only and never feed request semantics. */
std::uint64_t newSpanId();

/** A fresh trace id derived from @p seed (never 0). Deterministic, so
 *  load drivers can stamp reproducible trace ids. */
std::uint64_t traceIdFromSeed(std::uint64_t seed);

/**
 * RAII: install @p context as the calling thread's current context,
 * restore the previous one on destruction.
 */
class TraceScope
{
  public:
    explicit TraceScope(const TraceContext &context)
        : saved_(currentTraceContext())
    {
        setCurrentTraceContext(context);
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    ~TraceScope() { setCurrentTraceContext(saved_); }

  private:
    TraceContext saved_;
};

} // namespace clap::obs

#endif // CLAP_OBS_TRACE_CONTEXT_HH

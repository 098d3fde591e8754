#include "obs/trace_events.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include <unistd.h>

#include "obs/metrics.hh"
#include "util/atomic_file.hh"
#include "util/json.hh"

namespace clap::obs
{

namespace
{

using Clock = std::chrono::steady_clock;

/** One buffered trace event. durNs is meaningful for ph 'X' only;
 *  the trace ids are 0 for events outside any distributed trace. */
struct Event
{
    std::string name;
    std::string cat;
    char ph = 'X';
    std::uint64_t tsNs = 0;
    std::uint64_t durNs = 0;
    std::uint32_t tid = 0;
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentSpanId = 0;
};

constexpr std::size_t kMaxEventsPerThread = 1u << 20;

/**
 * Per-thread event buffer. The owning thread appends under the
 * buffer's own mutex (uncontended except while a flush snapshots it);
 * the sink keeps a shared_ptr so buffers of exited threads survive
 * until the final flush.
 */
struct ThreadBuffer
{
    std::mutex mutex;
    std::uint32_t tid = 0;
    std::vector<Event> events;
    std::uint64_t dropped = 0;
};

class Sink
{
  public:
    static Sink &
    instance()
    {
        // Intentionally leaked: the constructor registers an atexit
        // flush, which would otherwise run after a function-local
        // static's destructor (reverse registration order) and touch
        // a destroyed object. A never-destroyed sink makes exit-time
        // flushing from any thread safe.
        static Sink *sink = new Sink();
        return *sink;
    }

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

    std::uint64_t
    nowNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch_)
                .count());
    }

    void
    record(Event &&event)
    {
        ThreadBuffer &buffer = localBuffer();
        event.tid = buffer.tid;
        std::lock_guard<std::mutex> lock(buffer.mutex);
        if (buffer.events.size() >=
            maxPerThread_.load(std::memory_order_relaxed)) {
            ++buffer.dropped;
            // Mirror the loss into the registry so a remote scrape
            // sees span loss without reading the trace file.
            static Counter &droppedCounter =
                counter("obs.trace_events.dropped");
            droppedCounter.add();
            return;
        }
        buffer.events.push_back(std::move(event));
    }

    void
    setBufferLimit(std::size_t limit)
    {
        maxPerThread_.store(limit == 0 ? kMaxEventsPerThread : limit,
                            std::memory_order_relaxed);
    }

    void
    setProcessName(std::string_view name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        processName_ = name;
    }

    std::uint64_t clockEpochUnixNs() const { return clockEpochUnixNs_; }

    std::size_t
    buffered()
    {
        std::size_t total = 0;
        std::lock_guard<std::mutex> registry(mutex_);
        for (const auto &buffer : buffers_) {
            std::lock_guard<std::mutex> lock(buffer->mutex);
            total += buffer->events.size();
        }
        return total;
    }

    Expected<void>
    flush()
    {
        if (!enabled())
            return ok();

        // Snapshot every buffer (copies, so recording threads stall
        // only for the memcpy), then render and write without any
        // lock held.
        std::vector<Event> events;
        std::uint64_t dropped = 0;
        std::string processName;
        {
            std::lock_guard<std::mutex> registry(mutex_);
            processName = processName_;
            for (const auto &buffer : buffers_) {
                std::lock_guard<std::mutex> lock(buffer->mutex);
                events.insert(events.end(), buffer->events.begin(),
                              buffer->events.end());
                dropped += buffer->dropped;
            }
        }
        std::stable_sort(events.begin(), events.end(),
                         [](const Event &a, const Event &b) {
                             if (a.tsNs != b.tsNs)
                                 return a.tsNs < b.tsNs;
                             return a.tid < b.tid;
                         });

        const std::string pid = std::to_string(pid_);
        std::string json;
        json.reserve(96 + events.size() * 96);
        json += "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
        json += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
            pid +
            ", "
            "\"tid\": 0, \"ts\": 0, \"args\": {\"name\": \"" +
            jsonEscape(processName) +
            "\", "
            "\"dropped_events\": " +
            std::to_string(dropped) +
            ", "
            "\"clock_epoch_unix_ns\": " +
            std::to_string(clockEpochUnixNs_) + "}}";
        char buf[64];
        for (const Event &event : events) {
            json += ",\n{\"name\": \"";
            json += jsonEscape(event.name);
            json += "\", \"cat\": \"";
            json += jsonEscape(event.cat);
            json += "\", \"ph\": \"";
            json += event.ph;
            json += "\", \"pid\": ";
            json += pid;
            json += ", \"tid\": ";
            json += std::to_string(event.tid);
            // Timestamps are microseconds in the trace-event format;
            // keep nanosecond precision with three decimals.
            std::snprintf(buf, sizeof(buf), "%.3f",
                          static_cast<double>(event.tsNs) / 1000.0);
            json += ", \"ts\": ";
            json += buf;
            if (event.ph == 'X') {
                std::snprintf(buf, sizeof(buf), "%.3f",
                              static_cast<double>(event.durNs) / 1000.0);
                json += ", \"dur\": ";
                json += buf;
            } else if (event.ph == 'i') {
                json += ", \"s\": \"t\"";
            }
            if (event.traceId != 0) {
                std::snprintf(buf, sizeof(buf), "0x%llx",
                              static_cast<unsigned long long>(
                                  event.traceId));
                json += ", \"args\": {\"trace_id\": \"";
                json += buf;
                std::snprintf(buf, sizeof(buf), "0x%llx",
                              static_cast<unsigned long long>(
                                  event.spanId));
                json += "\", \"span_id\": \"";
                json += buf;
                std::snprintf(buf, sizeof(buf), "0x%llx",
                              static_cast<unsigned long long>(
                                  event.parentSpanId));
                json += "\", \"parent_span_id\": \"";
                json += buf;
                json += "\"}";
            }
            json += "}";
        }
        json += "\n]}\n";
        return writeFileAtomic(path_, json);
    }

  private:
    Sink()
    {
        if (const char *env = std::getenv("CLAP_TRACE_EVENTS");
            env != nullptr && *env != '\0') {
            path_ = env;
        }
        epoch_ = Clock::now();
        // Anchor span-timestamp zero on the shared wall clock so
        // files from different processes can be merged onto one
        // timeline (DESIGN.md §9).
        clockEpochUnixNs_ = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        pid_ = static_cast<std::uint32_t>(::getpid());
        if (!path_.empty()) {
            std::atexit([] {
                if (auto flushed = Sink::instance().flush(); !flushed) {
                    std::fprintf(
                        stderr, "trace events: final flush failed: %s\n",
                        flushed.error().str().c_str());
                }
            });
        }
    }

    ThreadBuffer &
    localBuffer()
    {
        thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
            auto fresh = std::make_shared<ThreadBuffer>();
            std::lock_guard<std::mutex> registry(mutex_);
            fresh->tid = nextTid_++;
            buffers_.push_back(fresh);
            return fresh;
        }();
        return *buffer;
    }

    std::string path_;
    Clock::time_point epoch_;
    std::uint64_t clockEpochUnixNs_ = 0;
    std::uint32_t pid_ = 1;
    std::atomic<std::size_t> maxPerThread_{kMaxEventsPerThread};
    std::mutex mutex_;
    std::string processName_ = "clap";
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
    std::uint32_t nextTid_ = 1;
};

} // namespace

bool
traceEventsEnabled()
{
    static const bool enabled = Sink::instance().enabled();
    return enabled;
}

const std::string &
traceEventsPath()
{
    return Sink::instance().path();
}

std::uint64_t
traceNowNs()
{
    return Sink::instance().nowNs();
}

std::uint64_t
traceClockEpochUnixNs()
{
    return Sink::instance().clockEpochUnixNs();
}

void
setTraceProcessName(std::string_view name)
{
    Sink::instance().setProcessName(name);
}

void
setTraceEventBufferLimitForTest(std::size_t limit)
{
    Sink::instance().setBufferLimit(limit);
}

void
traceInstant(std::string name, std::string_view cat)
{
    if (!traceEventsEnabled())
        return;
    Event event;
    event.name = std::move(name);
    event.cat = cat;
    event.ph = 'i';
    event.tsNs = Sink::instance().nowNs();
    Sink::instance().record(std::move(event));
}

Expected<void>
flushTraceEvents()
{
    return Sink::instance().flush();
}

std::size_t
bufferedTraceEventCount()
{
    if (!traceEventsEnabled())
        return 0;
    return Sink::instance().buffered();
}

void
Span::finish()
{
    if (!armed_)
        return;
    armed_ = false;
    if (installed_) {
        installed_ = false;
        setCurrentTraceContext(saved_);
    }
    Event event;
    event.name = std::move(name_);
    event.cat = std::move(cat_);
    event.ph = 'X';
    event.tsNs = startNs_;
    event.durNs = Sink::instance().nowNs() - startNs_;
    event.traceId = traceId_;
    event.spanId = spanId_;
    event.parentSpanId = parentSpanId_;
    Sink::instance().record(std::move(event));
}

} // namespace clap::obs

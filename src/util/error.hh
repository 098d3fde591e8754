/**
 * @file
 * Lightweight structured error layer: the repo-wide error-return
 * convention for operations that can fail on external input (file
 * I/O, configuration validation, trace parsing). An Error carries a
 * machine-checkable code, a human-readable message, and an optional
 * context chain (innermost first) so callers can both branch on the
 * failure kind and print a precise diagnostic. Expected<T> is a
 * minimal result type (value or Error) — no exceptions, no dynamic
 * dispatch, cheap enough for hot-path returns.
 *
 * Convention: functions that can fail on *input* (not programmer
 * error) return Expected<T>; asserts remain only for internal
 * invariants that no input can violate.
 */

#ifndef CLAP_UTIL_ERROR_HH
#define CLAP_UTIL_ERROR_HH

#include <cassert>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace clap
{

/** Machine-checkable failure categories. */
enum class ErrorCode : std::uint8_t
{
    None,           ///< not an error (internal sentinel)
    IoError,        ///< open/read/write/close syscall failure
    BadMagic,       ///< file does not start with the trace magic
    BadVersion,     ///< unsupported on-disk format version
    BadHeader,      ///< header field out of sanity bounds
    Truncated,      ///< file shorter than its header promises
    BadRecord,      ///< record payload invalid (e.g. class byte)
    BadChecksum,    ///< CRC footer mismatch
    InvalidConfig,  ///< configuration failed validation
    InvalidArgument,///< caller-supplied argument out of range
    Timeout,        ///< job exceeded its wall-clock budget (watchdog)
    CorruptedState, ///< structural invariant violated (audit failure)
    Overloaded,     ///< gateway connection budget exhausted
    ShardUnavailable,///< shard quarantined while recovery is in flight
    Shutdown,       ///< service stopped before the request ran
    ProtocolError,  ///< wire frame malformed, unexpected, or corrupt
    ConnectionLost, ///< peer closed or reset the connection mid-request
    DeadlineExceeded,///< per-request network deadline expired
};

/** Printable name of an ErrorCode. */
inline const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::None:            return "None";
      case ErrorCode::IoError:         return "IoError";
      case ErrorCode::BadMagic:        return "BadMagic";
      case ErrorCode::BadVersion:      return "BadVersion";
      case ErrorCode::BadHeader:       return "BadHeader";
      case ErrorCode::Truncated:       return "Truncated";
      case ErrorCode::BadRecord:       return "BadRecord";
      case ErrorCode::BadChecksum:     return "BadChecksum";
      case ErrorCode::InvalidConfig:   return "InvalidConfig";
      case ErrorCode::InvalidArgument: return "InvalidArgument";
      case ErrorCode::Timeout:         return "Timeout";
      case ErrorCode::CorruptedState:  return "CorruptedState";
      case ErrorCode::Overloaded:      return "Overloaded";
      case ErrorCode::ShardUnavailable:return "ShardUnavailable";
      case ErrorCode::Shutdown:        return "Shutdown";
      case ErrorCode::ProtocolError:   return "ProtocolError";
      case ErrorCode::ConnectionLost:  return "ConnectionLost";
      case ErrorCode::DeadlineExceeded:return "DeadlineExceeded";
    }
    return "Unknown";
}

/** Parse an errorCodeName() string back to its code (journal reload). */
inline ErrorCode
errorCodeFromName(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(ErrorCode::DeadlineExceeded);
         ++i) {
        const auto code = static_cast<ErrorCode>(i);
        if (name == errorCodeName(code))
            return code;
    }
    return ErrorCode::None;
}

/**
 * True for failure kinds worth retrying: transient conditions that a
 * fresh attempt can clear (e.g. predictor state corrupted by an
 * injected fault, a gateway momentarily over its load budget, a shard
 * quarantined mid-recovery, or a network request that lost its
 * connection or deadline). Timeouts and input/config errors are
 * deterministic and retrying them only burns the sweep's wall-clock
 * budget; Shutdown is terminal by definition and ProtocolError means
 * the byte stream itself is unsynchronized (the caller must reconnect
 * before any retry can make sense).
 */
inline bool
isRetryable(ErrorCode code)
{
    return code == ErrorCode::CorruptedState ||
           code == ErrorCode::Overloaded ||
           code == ErrorCode::ShardUnavailable ||
           code == ErrorCode::ConnectionLost ||
           code == ErrorCode::DeadlineExceeded;
}

/** A structured error: code + message + context chain. */
class Error
{
  public:
    Error() = default;
    Error(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }
    const std::vector<std::string> &contexts() const { return contexts_; }

    /** Prepend a context frame ("while reading foo.trc"). */
    Error &&
    withContext(std::string context) &&
    {
        contexts_.push_back(std::move(context));
        return std::move(*this);
    }

    /** Full diagnostic: "Code: message (context; outer context)". */
    std::string
    str() const
    {
        std::string out = errorCodeName(code_);
        out += ": ";
        out += message_;
        if (!contexts_.empty()) {
            out += " (";
            for (std::size_t i = 0; i < contexts_.size(); ++i) {
                if (i != 0)
                    out += "; ";
                out += contexts_[i];
            }
            out += ")";
        }
        return out;
    }

  private:
    ErrorCode code_ = ErrorCode::None;
    std::string message_;
    std::vector<std::string> contexts_; ///< innermost first
};

/**
 * Result type: either a value of T or an Error. Modeled on
 * std::expected (C++23) with the subset of the interface the repo
 * needs; T = void is supported via the primary template below.
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : state_(std::move(value)) {}
    Expected(Error error) : state_(std::move(error)) {}

    bool hasValue() const { return std::holds_alternative<T>(state_); }
    explicit operator bool() const { return hasValue(); }

    /** @pre hasValue() */
    T &value()
    {
        assert(hasValue());
        return std::get<T>(state_);
    }
    const T &value() const
    {
        assert(hasValue());
        return std::get<T>(state_);
    }
    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

    /** @pre !hasValue() */
    Error &error()
    {
        assert(!hasValue());
        return std::get<Error>(state_);
    }
    const Error &error() const
    {
        assert(!hasValue());
        return std::get<Error>(state_);
    }

    /** Value if present, @p fallback otherwise. */
    T
    valueOr(T fallback) const
    {
        return hasValue() ? std::get<T>(state_) : std::move(fallback);
    }

  private:
    std::variant<T, Error> state_;
};

/** Expected<void>: success carries no value. */
template <>
class [[nodiscard]] Expected<void>
{
  public:
    Expected() = default;
    Expected(Error error) : error_(std::move(error)), failed_(true) {}

    bool hasValue() const { return !failed_; }
    explicit operator bool() const { return !failed_; }

    /** @pre !hasValue() */
    Error &error()
    {
        assert(failed_);
        return error_;
    }
    const Error &error() const
    {
        assert(failed_);
        return error_;
    }

  private:
    Error error_;
    bool failed_ = false;
};

/** Success value for Expected<void> returns. */
inline Expected<void>
ok()
{
    return Expected<void>{};
}

/** Shorthand Error factory. */
inline Error
makeError(ErrorCode code, std::string message)
{
    return Error(code, std::move(message));
}

} // namespace clap

#endif // CLAP_UTIL_ERROR_HH

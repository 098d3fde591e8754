/**
 * @file
 * Atomic whole-file writes: the content is streamed to a temporary
 * sibling (same directory, so the rename cannot cross filesystems)
 * and renamed over the destination only after a successful close. An
 * interrupted writer therefore never leaves a truncated destination
 * file — readers see either the old content or the new content,
 * nothing in between. On POSIX the temporary file is fsynced before
 * the rename and the containing directory is fsynced after it, so a
 * committed file also survives power loss — required for predictor
 * snapshots and recovery journals, not just convenient for
 * BENCH_*.json experiment output.
 */

#ifndef CLAP_UTIL_ATOMIC_FILE_HH
#define CLAP_UTIL_ATOMIC_FILE_HH

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define CLAP_HAVE_FSYNC 1
#endif

#include "util/error.hh"

namespace clap
{

/**
 * Test-only fault injection for writeFileAtomic: arm failNextX with a
 * count N and the next N corresponding operations fail as if the
 * syscall had. Lets tests prove the commit protocol's cleanup
 * guarantees (no temp file left behind, destination never clobbered
 * by a failed commit) without needing a full-disk or a yanked power
 * cord. Counters are atomics so a writing thread and a test thread
 * can touch them without a data race; production builds pay one
 * relaxed load per armed check, zero branches taken.
 */
struct AtomicFileFaults
{
    std::atomic<int> failWrites{0};    ///< fail the temp-file write
    std::atomic<int> failFsyncs{0};    ///< fail the temp-file fsync
    std::atomic<int> failRenames{0};   ///< fail the commit rename
    std::atomic<int> failDirFsyncs{0}; ///< fail the directory fsync

    static AtomicFileFaults &
    instance()
    {
        static AtomicFileFaults faults;
        return faults;
    }

    /** Consume one armed fault from @p counter; true = inject now. */
    static bool
    consume(std::atomic<int> &counter)
    {
        int n = counter.load(std::memory_order_relaxed);
        while (n > 0) {
            if (counter.compare_exchange_weak(n, n - 1,
                                              std::memory_order_relaxed))
                return true;
        }
        return false;
    }

    /** Disarm everything (test teardown). */
    void
    reset()
    {
        failWrites.store(0, std::memory_order_relaxed);
        failFsyncs.store(0, std::memory_order_relaxed);
        failRenames.store(0, std::memory_order_relaxed);
        failDirFsyncs.store(0, std::memory_order_relaxed);
    }
};

namespace detail
{

#ifdef CLAP_HAVE_FSYNC
/** fsync a path (file or directory); Error on open/fsync failure. */
inline Expected<void>
fsyncPath(const std::string &path, bool directory)
{
    int flags = O_RDONLY;
#ifdef O_DIRECTORY
    if (directory)
        flags |= O_DIRECTORY;
#endif
    const int fd = ::open(path.c_str(), flags);
    if (fd < 0) {
        return makeError(ErrorCode::IoError,
                         std::string("cannot open ") +
                             (directory ? "directory " : "file ") + path +
                             " for fsync");
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
        return makeError(ErrorCode::IoError, "fsync of " + path + " failed");
    }
    return ok();
}
#endif // CLAP_HAVE_FSYNC

/** Containing directory of @p path ("." when there is no separator). */
inline std::string
containingDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

} // namespace detail

/**
 * Write @p content to @p path atomically (temp file + rename). On
 * POSIX the data is fsynced before the rename and the containing
 * directory is fsynced after it; a failure at any point — including
 * the fsyncs — surfaces as a structured Error rather than a silent
 * success. On failure the temporary file is removed and @p path is
 * untouched (the directory-fsync step runs after the rename has
 * already committed, so its failure leaves the new content visible
 * but possibly not yet durable — still reported as an Error).
 */
inline Expected<void>
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            return makeError(ErrorCode::IoError,
                             "cannot open temporary file " + tmp)
                .withContext("writing " + path);
        }
        os.write(content.data(),
                 static_cast<std::streamsize>(content.size()));
        os.flush();
        const bool injected_write_fault =
            AtomicFileFaults::consume(
                AtomicFileFaults::instance().failWrites);
        if (!os || injected_write_fault) {
            std::remove(tmp.c_str());
            return makeError(ErrorCode::IoError,
                             "short write to temporary file " + tmp)
                .withContext("writing " + path);
        }
    }
#ifdef CLAP_HAVE_FSYNC
    if (AtomicFileFaults::consume(
            AtomicFileFaults::instance().failFsyncs)) {
        std::remove(tmp.c_str());
        return makeError(ErrorCode::IoError,
                         "fsync of " + tmp + " failed (injected)")
            .withContext("writing " + path);
    }
    if (auto synced = detail::fsyncPath(tmp, /*directory=*/false);
        !synced) {
        std::remove(tmp.c_str());
        return std::move(synced.error()).withContext("writing " + path);
    }
#endif
    if (AtomicFileFaults::consume(
            AtomicFileFaults::instance().failRenames)) {
        std::remove(tmp.c_str());
        return makeError(ErrorCode::IoError,
                         "rename " + tmp + " -> " + path +
                             " failed (injected)")
            .withContext("writing " + path);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return makeError(ErrorCode::IoError,
                         "rename " + tmp + " -> " + path + " failed")
            .withContext("writing " + path);
    }
#ifdef CLAP_HAVE_FSYNC
    if (AtomicFileFaults::consume(
            AtomicFileFaults::instance().failDirFsyncs)) {
        return makeError(ErrorCode::IoError,
                         "fsync of " + detail::containingDir(path) +
                             " failed (injected)")
            .withContext("writing " + path);
    }
    if (auto synced =
            detail::fsyncPath(detail::containingDir(path),
                              /*directory=*/true);
        !synced) {
        return std::move(synced.error()).withContext("writing " + path);
    }
#endif
    return ok();
}

/**
 * Read the full contents of @p path as raw bytes. The counterpart to
 * writeFileAtomic for snapshot/journal loading: a missing or
 * unreadable file is an input condition, so it reports an IoError
 * rather than asserting.
 */
inline Expected<std::string>
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return makeError(ErrorCode::IoError, "cannot open " + path);
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();
    if (is.bad()) {
        return makeError(ErrorCode::IoError, "read of " + path + " failed");
    }
    return buffer.str();
}

} // namespace clap

#endif // CLAP_UTIL_ATOMIC_FILE_HH

/**
 * @file
 * Binary trace file format. The format is versioned and
 * little-endian with explicit per-field serialization so files are
 * portable across compilers regardless of struct padding:
 *
 *   magic   "CLAPTRC\0"          8 bytes
 *   version u32                  (2; any other value is BadVersion)
 *   count   u64                  number of records
 *   name    u32 length + bytes   (length <= maxTraceNameLen)
 *   records count * 40 bytes     (pc, effAddr, target, immOffset,
 *                                 cls, srcA, srcB, dst, memSize, taken,
 *                                 2 pad bytes)
 *   footer  u32 CRC-32           (over all record bytes)
 *
 * Robustness guarantees (see DESIGN.md "Error handling & fault
 * model"):
 *  - every header field is sanity-bounded before it is trusted: the
 *    name length is clamped to maxTraceNameLen and the record count
 *    is cross-checked against the actual file size before any
 *    allocation, so a corrupt header cannot trigger an unbounded
 *    std::string or reserve();
 *  - every record's instruction-class byte is range-validated, so a
 *    corrupt record cannot propagate an invalid enum into the
 *    simulators;
 *  - every file carries a CRC-32 footer over the record payload;
 *  - a salvage mode recovers the valid record prefix of a truncated
 *    or tail-corrupted file.
 *
 * Traces are regenerated from their seeds, so the footer-less v1
 * format is not read: its header is a BadVersion like any other.
 *
 * The Expected-returning functions are the primary API and report
 * precise diagnostics; the bool readTrace overload is a compatibility
 * wrapper.
 */

#ifndef CLAP_TRACE_TRACE_IO_HH
#define CLAP_TRACE_TRACE_IO_HH

#include <cstdio>
#include <memory>
#include <string>

#include "trace/trace.hh"
#include "util/crc32.hh"
#include "util/error.hh"

namespace clap
{

/** The on-disk format version (CRC-32 footer). */
constexpr std::uint32_t traceFormatVersion = 2;

/** Header sanity bound on the embedded trace-name length. */
constexpr std::uint32_t maxTraceNameLen = 4096;

/** Options for the Expected-returning readTrace overload. */
struct TraceReadOptions
{
    /// Recover the valid record prefix of a truncated or
    /// tail-corrupted file instead of failing: header damage still
    /// errors out, but a short file, an out-of-range record class, or
    /// a CRC mismatch yields the records up to the damage point with
    /// TraceReadResult::salvaged set.
    bool salvage = false;

    /// Verify the CRC-32 footer.
    bool verifyChecksum = true;
};

/** Diagnostics returned by a successful read. */
struct TraceReadResult
{
    std::uint32_t version = 0;  ///< on-disk format version
    std::uint64_t declared = 0; ///< record count promised by the header
    std::uint64_t records = 0;  ///< records actually loaded
    bool salvaged = false;      ///< prefix recovery was applied
};

/**
 * Write @p trace to @p path, with a precise diagnostic on failure. A
 * failed write unlinks the output, so no partial file is left behind.
 */
Expected<void> writeTrace(const Trace &trace, const std::string &path);

/**
 * Read a trace file written by writeTrace().
 * @param path  File to read.
 * @param trace Output; cleared first.
 * @return true on success, false on I/O failure, bad magic, bad or
 *         out-of-bounds header, corrupt record, or checksum mismatch.
 */
bool readTrace(const std::string &path, Trace &trace);

/**
 * Read a trace file with explicit options.
 * @return Read diagnostics, or a typed Error: IoError (open/read
 *         failure), BadMagic, BadVersion, BadHeader (field out of
 *         sanity bounds), Truncated (file shorter than the header
 *         promises), BadRecord (invalid class byte), or BadChecksum
 *         (CRC mismatch). On error @p trace is left cleared.
 */
Expected<TraceReadResult> readTrace(const std::string &path, Trace &trace,
                                    const TraceReadOptions &options);

/**
 * Convenience wrapper: readTrace with salvage enabled — recover as
 * many leading records as the file still holds.
 */
Expected<TraceReadResult> salvageTrace(const std::string &path,
                                       Trace &trace);

/**
 * Streaming writer: a TraceSink that appends records directly to a
 * file without buffering the whole trace in memory. The record count
 * in the header is patched and the CRC-32 footer written on close. If any append or the close itself fails, the output file is
 * unlinked so no corrupt partial file is left on disk.
 */
class TraceFileWriter : public TraceSink
{
  public:
    TraceFileWriter(const std::string &path, const std::string &name);
    ~TraceFileWriter() override;

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** True when the file opened, the header was written, and no
     *  append has failed since. */
    bool ok() const { return file_ != nullptr && !failed_; }

    void append(const TraceRecord &rec) override;
    std::size_t size() const override { return count_; }

    /**
     * Patch the header count, write the CRC footer, and close the
     * file. On any failure (including earlier append failures) the
     * output file is removed and the Error describes the first thing
     * that went wrong.
     */
    Expected<void> finish();

    /** Compatibility wrapper around finish(). */
    bool close();

    /** First error encountered (ErrorCode::None while healthy). */
    const Error &lastError() const { return error_; }

  private:
    void fail(Error error);
    void discard();

    std::string path_;
    std::FILE *file_ = nullptr;
    std::size_t count_ = 0;
    long countOffset_ = 0;
    bool failed_ = false;
    Crc32 crc_;
    Error error_;
};

} // namespace clap

#endif // CLAP_TRACE_TRACE_IO_HH

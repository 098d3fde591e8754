#include "trace/trace_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace clap
{

namespace
{

constexpr char traceMagic[8] = {'C', 'L', 'A', 'P', 'T', 'R', 'C', '\0'};
constexpr std::size_t recordBytes = 40;
constexpr std::size_t fixedHeaderBytes = 8 + 4 + 8 + 4;
constexpr std::size_t footerBytes = 4;

void
putU32(std::uint8_t *buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putU64(std::uint8_t *buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
getU32(const std::uint8_t *buf)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(buf[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *buf)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    return v;
}

void
encodeRecord(const TraceRecord &rec, std::uint8_t *buf)
{
    putU64(buf + 0, rec.pc);
    putU64(buf + 8, rec.effAddr);
    putU64(buf + 16, rec.target);
    putU32(buf + 24, static_cast<std::uint32_t>(rec.immOffset));
    buf[28] = static_cast<std::uint8_t>(rec.cls);
    buf[29] = rec.srcA;
    buf[30] = rec.srcB;
    buf[31] = rec.dst;
    buf[32] = rec.memSize;
    buf[33] = rec.taken ? 1 : 0;
    buf[34] = 0;
    buf[35] = 0;
    putU32(buf + 36, 0); // pad to 40 bytes
}

/**
 * Decode one on-disk record. @return false when the class byte is
 * out of enum range (the record must not reach the simulators).
 */
bool
decodeRecord(const std::uint8_t *buf, TraceRecord &rec)
{
    if (buf[28] >= static_cast<std::uint8_t>(InstClass::NumClasses))
        return false;
    rec.pc = getU64(buf + 0);
    rec.effAddr = getU64(buf + 8);
    rec.target = getU64(buf + 16);
    rec.immOffset = static_cast<std::int32_t>(getU32(buf + 24));
    rec.cls = static_cast<InstClass>(buf[28]);
    rec.srcA = buf[29];
    rec.srcB = buf[30];
    rec.dst = buf[31];
    rec.memSize = buf[32];
    rec.taken = buf[33] != 0;
    return true;
}

bool
writeHeader(std::FILE *file, const std::string &name, std::uint64_t count,
            long &count_offset)
{
    if (std::fwrite(traceMagic, 1, 8, file) != 8)
        return false;
    std::uint8_t buf[8];
    putU32(buf, traceFormatVersion);
    if (std::fwrite(buf, 1, 4, file) != 4)
        return false;
    count_offset = std::ftell(file);
    putU64(buf, count);
    if (std::fwrite(buf, 1, 8, file) != 8)
        return false;
    putU32(buf, static_cast<std::uint32_t>(name.size()));
    if (std::fwrite(buf, 1, 4, file) != 4)
        return false;
    if (!name.empty() &&
        std::fwrite(name.data(), 1, name.size(), file) != name.size()) {
        return false;
    }
    return true;
}

Error
ioError(std::string what)
{
    std::string msg = std::move(what);
    if (errno != 0) {
        msg += ": ";
        msg += std::strerror(errno);
    }
    return makeError(ErrorCode::IoError, std::move(msg));
}

/** RAII guard so every early return closes the input file. */
struct FileCloser
{
    std::FILE *file;
    ~FileCloser()
    {
        if (file)
            std::fclose(file);
    }
};

} // namespace

Expected<void>
writeTrace(const Trace &trace, const std::string &path)
{
    TraceFileWriter writer(path, trace.name());
    for (const auto &rec : trace.records())
        writer.append(rec);
    if (auto result = writer.finish(); !result) {
        return std::move(result.error())
            .withContext("writing trace file " + path);
    }
    return ok();
}

bool
readTrace(const std::string &path, Trace &trace)
{
    return static_cast<bool>(readTrace(path, trace, TraceReadOptions{}));
}

Expected<TraceReadResult>
salvageTrace(const std::string &path, Trace &trace)
{
    TraceReadOptions options;
    options.salvage = true;
    return readTrace(path, trace, options);
}

Expected<TraceReadResult>
readTrace(const std::string &path, Trace &trace,
          const TraceReadOptions &options)
{
    trace.clear();
    const auto failWith = [&](Error error) -> Expected<TraceReadResult> {
        trace.clear();
        return std::move(error).withContext("reading trace file " +
                                            path);
    };

    errno = 0;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return failWith(ioError("cannot open"));
    FileCloser closer{file};

    // Actual size on disk: the yardstick every header field is
    // checked against before it is trusted.
    if (std::fseek(file, 0, SEEK_END) != 0)
        return failWith(ioError("cannot seek"));
    const long end = std::ftell(file);
    if (end < 0)
        return failWith(ioError("cannot tell"));
    const std::uint64_t file_size = static_cast<std::uint64_t>(end);
    if (std::fseek(file, 0, SEEK_SET) != 0)
        return failWith(ioError("cannot seek"));

    if (file_size < fixedHeaderBytes) {
        return failWith(makeError(
            ErrorCode::Truncated,
            "file is " + std::to_string(file_size) +
                " bytes, shorter than the " +
                std::to_string(fixedHeaderBytes) + "-byte header"));
    }

    char magic[8];
    if (std::fread(magic, 1, 8, file) != 8)
        return failWith(ioError("cannot read magic"));
    if (std::memcmp(magic, traceMagic, 8) != 0) {
        return failWith(makeError(ErrorCode::BadMagic,
                                  "not a CLAP trace file"));
    }

    std::uint8_t buf[recordBytes];
    if (std::fread(buf, 1, 4, file) != 4)
        return failWith(ioError("cannot read version"));
    TraceReadResult result;
    result.version = getU32(buf);
    if (result.version != traceFormatVersion) {
        return failWith(makeError(
            ErrorCode::BadVersion,
            "unsupported format version " +
                std::to_string(result.version) + " (readable: " +
                std::to_string(traceFormatVersion) + ")"));
    }

    if (std::fread(buf, 1, 8, file) != 8)
        return failWith(ioError("cannot read record count"));
    result.declared = getU64(buf);
    if (std::fread(buf, 1, 4, file) != 4)
        return failWith(ioError("cannot read name length"));
    const std::uint32_t name_len = getU32(buf);
    if (name_len > maxTraceNameLen) {
        return failWith(makeError(
            ErrorCode::BadHeader,
            "name length " + std::to_string(name_len) +
                " exceeds the sanity bound " +
                std::to_string(maxTraceNameLen)));
    }
    const std::uint64_t header_size = fixedHeaderBytes + name_len;
    if (file_size < header_size) {
        return failWith(makeError(
            ErrorCode::Truncated,
            "file too short for its " + std::to_string(name_len) +
                "-byte name field"));
    }
    std::string name(name_len, '\0');
    if (name_len != 0 &&
        std::fread(name.data(), 1, name_len, file) != name_len) {
        return failWith(ioError("cannot read name"));
    }

    // Cross-check the declared count against the bytes actually
    // present before reserving anything.
    const std::uint64_t payload = file_size - header_size;
    const std::uint64_t room =
        payload >= footerBytes ? (payload - footerBytes) / recordBytes
                               : payload / recordBytes;
    const bool count_fits = result.declared <= room;
    if (!count_fits && !options.salvage) {
        return failWith(makeError(
            ErrorCode::Truncated,
            "header declares " + std::to_string(result.declared) +
                " records but the file has room for " +
                std::to_string(room)));
    }

    trace.setName(name);
    // When salvaging a short file the footer may be gone entirely, so
    // read greedily: every whole record the payload can hold, still
    // bounded by the declared count and the real file size.
    const std::uint64_t to_read = count_fits
        ? result.declared
        : std::min(result.declared, payload / recordBytes);
    trace.reserve(static_cast<std::size_t>(to_read));

    Crc32 crc;
    TraceRecord rec;
    std::uint64_t loaded = 0;
    for (; loaded < to_read; ++loaded) {
        if (std::fread(buf, 1, recordBytes, file) != recordBytes) {
            if (options.salvage)
                break;
            return failWith(makeError(
                ErrorCode::Truncated,
                "record " + std::to_string(loaded) + " of " +
                    std::to_string(result.declared) + " cut short"));
        }
        if (!decodeRecord(buf, rec)) {
            if (options.salvage)
                break;
            return failWith(makeError(
                ErrorCode::BadRecord,
                "record " + std::to_string(loaded) +
                    " has out-of-range class byte " +
                    std::to_string(buf[28])));
        }
        crc.update(buf, recordBytes);
        trace.append(rec);
    }
    result.records = loaded;
    result.salvaged = loaded != result.declared;

    // Integrity footer. A complete, healthy read must match; in
    // salvage mode a mismatch only flags the result as salvaged
    // (there is no way to locate the damaged record).
    if (!result.salvaged && options.verifyChecksum) {
        if (std::fread(buf, 1, footerBytes, file) != footerBytes) {
            if (!options.salvage) {
                return failWith(makeError(ErrorCode::Truncated,
                                          "missing CRC-32 footer"));
            }
            result.salvaged = true;
        } else if (getU32(buf) != crc.value()) {
            if (!options.salvage) {
                return failWith(makeError(
                    ErrorCode::BadChecksum,
                    "record payload CRC-32 mismatch (stored " +
                        std::to_string(getU32(buf)) + ", computed " +
                        std::to_string(crc.value()) + ")"));
            }
            result.salvaged = true;
        }
    }

    return result;
}

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 const std::string &name)
    : path_(path)
{
    if (name.size() > maxTraceNameLen) {
        fail(makeError(ErrorCode::InvalidArgument,
                       "trace name length " +
                           std::to_string(name.size()) +
                           " exceeds the format bound " +
                           std::to_string(maxTraceNameLen)));
        return;
    }
    errno = 0;
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        fail(ioError("cannot open for writing"));
        return;
    }
    if (!writeHeader(file_, name, 0, countOffset_)) {
        fail(ioError("cannot write header"));
        discard();
    }
}

TraceFileWriter::~TraceFileWriter()
{
    if (file_)
        (void)finish();
}

void
TraceFileWriter::append(const TraceRecord &rec)
{
    if (!file_ || failed_)
        return;
    std::uint8_t buf[recordBytes];
    encodeRecord(rec, buf);
    if (std::fwrite(buf, 1, recordBytes, file_) != recordBytes) {
        fail(ioError("cannot append record " + std::to_string(count_)));
        return;
    }
    crc_.update(buf, recordBytes);
    ++count_;
}

Expected<void>
TraceFileWriter::finish()
{
    if (!file_) {
        if (error_.code() == ErrorCode::None) {
            return makeError(ErrorCode::IoError,
                             "trace writer already closed");
        }
        return error_;
    }
    if (failed_) {
        // An earlier append already failed: the file contents are
        // unreliable, remove them and report the original error.
        discard();
        return error_;
    }

    std::uint8_t buf[8];
    putU32(buf, crc_.value());
    bool write_ok =
        std::fwrite(buf, 1, footerBytes, file_) == footerBytes;
    if (write_ok && std::fseek(file_, countOffset_, SEEK_SET) == 0) {
        putU64(buf, count_);
        write_ok = std::fwrite(buf, 1, 8, file_) == 8;
    } else {
        write_ok = false;
    }
    if (!write_ok) {
        fail(ioError("cannot finalize header/footer"));
        discard();
        return error_;
    }
    std::FILE *file = file_;
    file_ = nullptr;
    if (std::fclose(file) != 0) {
        fail(ioError("cannot close"));
        std::remove(path_.c_str());
        return error_;
    }
    return Expected<void>{};
}

bool
TraceFileWriter::close()
{
    return static_cast<bool>(finish());
}

void
TraceFileWriter::fail(Error error)
{
    failed_ = true;
    if (error_.code() == ErrorCode::None)
        error_ = std::move(error).withContext("trace file " + path_);
}

void
TraceFileWriter::discard()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    std::remove(path_.c_str());
}

} // namespace clap

/**
 * @file
 * Corruption-hardening tests for the trace file format: every way a
 * file can be damaged (magic, version, count, name length, record
 * class, mid-record truncation, CRC footer) must yield the exact
 * typed Error — never an assert, abort, over-allocation, or UB — and
 * salvage mode must recover the valid record prefix. Also covers the
 * writer's no-partial-file guarantee.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <vector>

#include "test_util.hh"
#include "trace/trace_io.hh"

namespace clap
{
namespace
{

// On-disk layout constants for the sample file below (name "sample"):
// fixed header 24 bytes + 6 name bytes, then 40-byte records.
constexpr std::size_t headerBytes = 24 + 6;
constexpr std::size_t recordBytes = 40;
constexpr std::size_t numRecords = 5;

class TraceCorruptionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("clap_trace_corruption_" +
                  std::to_string(::getpid()) + ".trc"))
                    .string();
        Trace trace("sample");
        for (unsigned i = 0; i < numRecords; ++i)
            test::addLoad(trace, 0x1000 + 4 * i, 0x2000 + 8 * i);
        ASSERT_TRUE(writeTrace(trace, path_));
        reference_ = trace;
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Overwrite @p len bytes at @p offset. */
    void
    patch(std::size_t offset, const std::vector<std::uint8_t> &bytes)
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }

    void
    truncateTo(std::size_t size)
    {
        std::filesystem::resize_file(path_, size);
    }

    std::string path_;
    Trace reference_;
};

/** One corruption scenario and the Error it must produce. */
struct CorruptionCase
{
    const char *label;
    std::size_t offset;                ///< patch location
    std::vector<std::uint8_t> bytes;   ///< patch payload
    ErrorCode expected;
};

/**
 * gtest appends the printed parameter to each listed test name, and
 * ctest names the tests from that list. The default printer dumps the
 * struct's bytes, label pointer included, so the names would change
 * with every build's load address; print the expected code instead.
 */
void
PrintTo(const CorruptionCase &c, std::ostream *os)
{
    *os << errorCodeName(c.expected);
}

const CorruptionCase corruptionCases[] = {
    {"flipped magic byte", 0, {'X'}, ErrorCode::BadMagic},
    {"zeroed magic", 0, {0, 0, 0, 0, 0, 0, 0, 0}, ErrorCode::BadMagic},
    {"unsupported version 99", 8, {99, 0, 0, 0}, ErrorCode::BadVersion},
    {"version zero", 8, {0, 0, 0, 0}, ErrorCode::BadVersion},
    // The footer-less v1 format is retired, not read.
    {"retired version 1", 8, {1, 0, 0, 0}, ErrorCode::BadVersion},
    // Count field (offset 12, u64): header promises far more records
    // than the file holds -> must be caught BEFORE any reserve().
    {"huge count", 12, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
     ErrorCode::Truncated},
    {"count one too many", 12, {numRecords + 1, 0, 0, 0, 0, 0, 0, 0},
     ErrorCode::Truncated},
    // Name length (offset 20, u32): out of sanity bounds -> must be
    // caught BEFORE the std::string allocation.
    {"huge name_len", 20, {0xff, 0xff, 0xff, 0xff},
     ErrorCode::BadHeader},
    {"name_len just over bound", 20, {0x01, 0x10, 0, 0},
     ErrorCode::BadHeader},
    // Class byte of record 2 (byte 28 of the record).
    {"invalid class byte", headerBytes + recordBytes + 28, {0xee},
     ErrorCode::BadRecord},
    {"class = NumClasses", headerBytes + recordBytes + 28,
     {static_cast<std::uint8_t>(InstClass::NumClasses)},
     ErrorCode::BadRecord},
    // Payload corruption that keeps the class byte valid is caught by
    // the CRC-32 footer.
    {"flipped payload byte", headerBytes + 2 * recordBytes + 3, {0xab},
     ErrorCode::BadChecksum},
    {"corrupt CRC footer", headerBytes + numRecords * recordBytes,
     {0xde, 0xad, 0xbe, 0xef}, ErrorCode::BadChecksum},
};

class CorruptionCaseTest
    : public TraceCorruptionTest,
      public ::testing::WithParamInterface<CorruptionCase>
{
};

TEST_P(CorruptionCaseTest, ReturnsTypedError)
{
    const CorruptionCase &c = GetParam();
    patch(c.offset, c.bytes);

    Trace loaded;
    const auto result = readTrace(path_, loaded, TraceReadOptions{});
    ASSERT_FALSE(result) << c.label;
    EXPECT_EQ(result.error().code(), c.expected)
        << c.label << ": " << result.error().str();
    EXPECT_FALSE(result.error().message().empty());
    // The diagnostic names the file.
    EXPECT_NE(result.error().str().find(path_), std::string::npos);
    // The output trace is left empty, and the bool API agrees.
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_FALSE(readTrace(path_, loaded));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CorruptionCaseTest, ::testing::ValuesIn(corruptionCases),
    [](const ::testing::TestParamInfo<CorruptionCase> &info) {
        std::string name = info.param.label;
        for (auto &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

TEST_F(TraceCorruptionTest, TruncationMidRecordIsTyped)
{
    truncateTo(headerBytes + 2 * recordBytes + 7);
    Trace loaded;
    const auto result = readTrace(path_, loaded, TraceReadOptions{});
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::Truncated);
}

TEST_F(TraceCorruptionTest, TruncationInsideHeaderIsTyped)
{
    truncateTo(10);
    Trace loaded;
    const auto result = readTrace(path_, loaded, TraceReadOptions{});
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::Truncated);
}

TEST_F(TraceCorruptionTest, MissingFileIsIoError)
{
    Trace loaded;
    const auto result =
        readTrace("/nonexistent/dir/file.trc", loaded, TraceReadOptions{});
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::IoError);
}

TEST_F(TraceCorruptionTest, SalvageRecoversTruncatedPrefix)
{
    // Chop the file mid-record 3: records 0..2 survive.
    truncateTo(headerBytes + 3 * recordBytes + 11);
    Trace loaded;
    const auto result = salvageTrace(path_, loaded);
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_TRUE(result->salvaged);
    EXPECT_EQ(result->declared, numRecords);
    EXPECT_EQ(result->records, 3u);
    ASSERT_EQ(loaded.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(loaded[i], reference_[i]) << "record " << i;
}

TEST_F(TraceCorruptionTest, SalvageStopsAtInvalidClassByte)
{
    patch(headerBytes + 2 * recordBytes + 28, {0xee});
    Trace loaded;
    const auto result = salvageTrace(path_, loaded);
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_TRUE(result->salvaged);
    EXPECT_EQ(result->records, 2u);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[1], reference_[1]);
}

TEST_F(TraceCorruptionTest, SalvageKeepsRecordsOnChecksumMismatch)
{
    // All records decodable, only the footer is wrong: salvage keeps
    // everything but flags the damage.
    patch(headerBytes + numRecords * recordBytes,
          {0xde, 0xad, 0xbe, 0xef});
    Trace loaded;
    const auto result = salvageTrace(path_, loaded);
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_TRUE(result->salvaged);
    EXPECT_EQ(loaded.size(), numRecords);
}

TEST_F(TraceCorruptionTest, SalvageCannotRecoverHeaderDamage)
{
    patch(0, {'X'});
    Trace loaded;
    const auto result = salvageTrace(path_, loaded);
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::BadMagic);
}

TEST_F(TraceCorruptionTest, CleanFileIsNotSalvaged)
{
    Trace loaded;
    const auto result = salvageTrace(path_, loaded);
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_FALSE(result->salvaged);
    EXPECT_EQ(result->records, numRecords);
    EXPECT_EQ(result->version, traceFormatVersion);
}

TEST_F(TraceCorruptionTest, ChecksumVerificationCanBeDisabled)
{
    patch(headerBytes + numRecords * recordBytes,
          {0xde, 0xad, 0xbe, 0xef});
    TraceReadOptions options;
    options.verifyChecksum = false;
    Trace loaded;
    const auto result = readTrace(path_, loaded, options);
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_EQ(loaded.size(), numRecords);
}

TEST_F(TraceCorruptionTest, WriterRejectsOversizedName)
{
    const std::string out = path_ + ".badname";
    TraceFileWriter writer(out, std::string(maxTraceNameLen + 1, 'n'));
    EXPECT_FALSE(writer.ok());
    EXPECT_EQ(writer.lastError().code(), ErrorCode::InvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST_F(TraceCorruptionTest, FailedWriteLeavesNoFile)
{
    const std::string out = "/nonexistent/dir/file.trc";
    const auto result = writeTrace(reference_, out);
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::IoError);
    EXPECT_NE(result.error().str().find(out), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST_F(TraceCorruptionTest, FinishAfterFinishReportsError)
{
    const std::string out = path_ + ".twice";
    TraceFileWriter writer(out, "twice");
    ASSERT_TRUE(writer.ok());
    writer.append(reference_[0]);
    ASSERT_TRUE(static_cast<bool>(writer.finish()));
    const auto again = writer.finish();
    ASSERT_FALSE(again);
    EXPECT_EQ(again.error().code(), ErrorCode::IoError);
    // The successfully written file is untouched by the second call.
    EXPECT_TRUE(std::filesystem::exists(out));
    std::remove(out.c_str());
}

} // namespace
} // namespace clap

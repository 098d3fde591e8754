/**
 * @file
 * Tests for the CRC-framed wire protocol (net/wire.hh): frame
 * encode/decode round trips, incremental feeding, corruption
 * detection (every single-bit flip over a whole frame must be
 * caught), reader poisoning, length sanity bounds, and the typed
 * payload codecs the client and server exchange.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "net/wire.hh"
#include "util/crc32.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace clap::net
{
namespace
{

Frame
sampleFrame()
{
    Frame frame;
    frame.type = FrameType::Predict;
    frame.id = 0x1122334455667788ull;
    frame.payload = "sample-payload-bytes";
    return frame;
}

LoadInfo
sampleInfo()
{
    LoadInfo info;
    info.pc = 0xdeadbeefcafe;
    info.immOffset = -48;
    info.ghr = 0xa5a5a5a5ull;
    info.pathHist = 0x123456789abcull;
    return info;
}

Prediction
samplePrediction()
{
    Prediction pred;
    pred.lbHit = true;
    pred.hasAddress = true;
    pred.speculate = true;
    pred.addr = 0x7fff12345678ull;
    pred.component = Component::Cap;
    pred.lbHandle.slot = 17;
    pred.lbHandle.gen = 93;
    pred.lbHandle.valid = true;
    pred.capHasAddr = true;
    pred.capSpec = true;
    pred.capAddr = 0x7fff12345678ull;
    pred.strideHasAddr = true;
    pred.strideSpec = false;
    pred.strideAddr = 0x7fff00000008ull;
    pred.selectorState = 2;
    return pred;
}

void
expectPredictionEq(const Prediction &a, const Prediction &b)
{
    EXPECT_EQ(a.lbHit, b.lbHit);
    EXPECT_EQ(a.hasAddress, b.hasAddress);
    EXPECT_EQ(a.speculate, b.speculate);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.component, b.component);
    EXPECT_EQ(a.lbHandle.slot, b.lbHandle.slot);
    EXPECT_EQ(a.lbHandle.gen, b.lbHandle.gen);
    EXPECT_EQ(a.lbHandle.valid, b.lbHandle.valid);
    EXPECT_EQ(a.capHasAddr, b.capHasAddr);
    EXPECT_EQ(a.capSpec, b.capSpec);
    EXPECT_EQ(a.capAddr, b.capAddr);
    EXPECT_EQ(a.strideHasAddr, b.strideHasAddr);
    EXPECT_EQ(a.strideSpec, b.strideSpec);
    EXPECT_EQ(a.strideAddr, b.strideAddr);
    EXPECT_EQ(a.selectorState, b.selectorState);
}

// --- Frame round trips --------------------------------------------

TEST(Wire, FrameRoundTrips)
{
    const Frame frame = sampleFrame();
    const std::string wire = encodeFrame(frame);
    EXPECT_EQ(wire.size(), frameHeaderBytes + frame.payload.size() +
                               frameTrailerBytes);

    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame out;
    Error error;
    ASSERT_EQ(reader.next(out, error), FrameReader::Status::Ok);
    EXPECT_EQ(out.type, frame.type);
    EXPECT_EQ(out.id, frame.id);
    EXPECT_EQ(out.payload, frame.payload);
    EXPECT_EQ(reader.buffered(), 0u);
    EXPECT_FALSE(reader.poisoned());
}

TEST(Wire, EmptyPayloadFrameRoundTrips)
{
    Frame frame;
    frame.type = FrameType::Ping;
    frame.id = 42;

    FrameReader reader;
    const std::string wire = encodeFrame(frame);
    reader.feed(wire.data(), wire.size());
    Frame out;
    Error error;
    ASSERT_EQ(reader.next(out, error), FrameReader::Status::Ok);
    EXPECT_EQ(out.type, FrameType::Ping);
    EXPECT_EQ(out.id, 42u);
    EXPECT_TRUE(out.payload.empty());
}

TEST(Wire, IncrementalFeedNeedsMoreUntilComplete)
{
    const std::string wire = encodeFrame(sampleFrame());
    FrameReader reader;
    Frame out;
    Error error;
    // Feed one byte at a time: every prefix must report NeedMore and
    // the final byte must complete the frame — no prefix may ever be
    // misread as corrupt.
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        reader.feed(wire.data() + i, 1);
        ASSERT_EQ(reader.next(out, error), FrameReader::Status::NeedMore)
            << "after byte " << i;
    }
    reader.feed(wire.data() + wire.size() - 1, 1);
    ASSERT_EQ(reader.next(out, error), FrameReader::Status::Ok);
    EXPECT_EQ(out.payload, sampleFrame().payload);
}

TEST(Wire, BackToBackFramesDecodeInOrder)
{
    Frame first = sampleFrame();
    Frame second;
    second.type = FrameType::Train;
    second.id = first.id + 1;
    second.payload = "second";

    std::string wire = encodeFrame(first) + encodeFrame(second);
    FrameReader reader;
    reader.feed(wire.data(), wire.size());

    Frame out;
    Error error;
    ASSERT_EQ(reader.next(out, error), FrameReader::Status::Ok);
    EXPECT_EQ(out.id, first.id);
    ASSERT_EQ(reader.next(out, error), FrameReader::Status::Ok);
    EXPECT_EQ(out.id, second.id);
    EXPECT_EQ(out.payload, "second");
    EXPECT_EQ(reader.next(out, error), FrameReader::Status::NeedMore);
}

// --- Adversarial segmentation -------------------------------------

/** Three frames of assorted shapes (empty, short, multi-KB payload)
 *  concatenated to wire bytes — the stream every chunking must
 *  reassemble identically. */
std::pair<std::vector<Frame>, std::string>
segmentationStream()
{
    std::vector<Frame> frames;
    Frame empty;
    empty.type = FrameType::Ping;
    empty.id = 1;
    frames.push_back(empty);
    frames.push_back(sampleFrame());
    Frame big;
    big.type = FrameType::SnapshotData;
    big.id = 3;
    big.payload.assign(4096, '\0');
    for (std::size_t i = 0; i < big.payload.size(); ++i)
        big.payload[i] = static_cast<char>(i * 131 % 251);
    frames.push_back(big);

    std::string wire;
    for (const Frame &frame : frames)
        wire += encodeFrame(frame);
    return {frames, wire};
}

/** Feed @p wire to a reader in the given chunk sizes (cycled) and
 *  require exactly @p expected frames, unchanged, and a clean reader
 *  at EOF. */
void
expectReassembly(const std::vector<Frame> &expected,
                 const std::string &wire,
                 const std::vector<std::size_t> &chunks,
                 const std::string &label)
{
    FrameReader reader;
    std::vector<Frame> decoded;
    std::size_t fed = 0, chunk = 0;
    while (fed < wire.size()) {
        const std::size_t len =
            std::min(chunks[chunk % chunks.size()], wire.size() - fed);
        chunk++;
        if (len == 0)
            continue;
        reader.feed(wire.data() + fed, len);
        fed += len;
        Frame out;
        Error error;
        for (;;) {
            const auto status = reader.next(out, error);
            if (status == FrameReader::Status::NeedMore)
                break;
            ASSERT_EQ(status, FrameReader::Status::Ok)
                << label << ": " << error.str();
            decoded.push_back(out);
        }
    }
    ASSERT_EQ(decoded.size(), expected.size()) << label;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(decoded[i].type, expected[i].type) << label;
        EXPECT_EQ(decoded[i].id, expected[i].id) << label;
        EXPECT_EQ(decoded[i].payload, expected[i].payload) << label;
        EXPECT_EQ(decoded[i].trace.traceId, expected[i].trace.traceId)
            << label;
        EXPECT_EQ(decoded[i].trace.spanId, expected[i].trace.spanId)
            << label;
        EXPECT_EQ(decoded[i].trace.sampled, expected[i].trace.sampled)
            << label;
    }
    EXPECT_EQ(reader.buffered(), 0u) << label;
    EXPECT_FALSE(reader.poisoned()) << label;
}

TEST(WireSegmentation, EveryFixedChunkingReassembles)
{
    // TCP owes the reader nothing about boundaries: byte-at-a-time
    // through 7-byte chunks all cut the 24-byte header and both CRCs
    // at every offset.
    const auto [frames, wire] = segmentationStream();
    for (std::size_t size = 1; size <= 7; ++size) {
        expectReassembly(frames, wire, {size},
                         "chunk size " + std::to_string(size));
    }
}

TEST(WireSegmentation, SeededRandomSplitsReassemble)
{
    const auto [frames, wire] = segmentationStream();
    Rng rng(0x5e9);
    for (int round = 0; round < 32; ++round) {
        std::vector<std::size_t> chunks;
        for (int i = 0; i < 64; ++i)
            chunks.push_back(rng.below(97)); // 0..96, zeros included
        chunks.push_back(1); // guarantee forward progress
        expectReassembly(frames, wire, chunks,
                         "random round " + std::to_string(round));
    }
}

TEST(WireSegmentation, CorruptTailPoisonsAfterCleanPrefix)
{
    // A stream that goes bad mid-flight: every frame before the
    // corruption decodes, the corrupt frame reports Corrupt, and the
    // reader stays poisoned no matter how the tail was chunked.
    const auto [frames, wire] = segmentationStream();
    std::string tail = encodeFrame(sampleFrame());
    tail[frameHeaderBytes + 3] ^= 0x40; // payload byte: pcrc must trip
    const std::string stream = wire + tail;

    for (std::size_t size : {std::size_t{1}, std::size_t{3},
                             std::size_t{5}, stream.size()}) {
        FrameReader reader;
        std::size_t fed = 0;
        std::size_t okFrames = 0;
        bool corrupted = false;
        while (fed < stream.size()) {
            const std::size_t len =
                std::min(size, stream.size() - fed);
            reader.feed(stream.data() + fed, len);
            fed += len;
            Frame out;
            Error error;
            for (;;) {
                const auto status = reader.next(out, error);
                if (status == FrameReader::Status::NeedMore)
                    break;
                if (status == FrameReader::Status::Corrupt) {
                    corrupted = true;
                    break;
                }
                ASSERT_FALSE(corrupted)
                    << "frame decoded after corruption";
                okFrames++;
            }
            if (corrupted)
                break;
        }
        EXPECT_TRUE(corrupted) << "chunk size " << size;
        EXPECT_EQ(okFrames, frames.size()) << "chunk size " << size;
        EXPECT_TRUE(reader.poisoned()) << "chunk size " << size;

        // Still dead after more clean bytes arrive.
        const std::string good = encodeFrame(sampleFrame());
        reader.feed(good.data(), good.size());
        Frame out;
        Error error;
        EXPECT_EQ(reader.next(out, error),
                  FrameReader::Status::Corrupt);
    }
}

// --- Corruption detection -----------------------------------------

TEST(Wire, EverySingleBitFlipIsCaught)
{
    // The whole point of the framing: no single-bit flip anywhere in
    // the frame may decode as a clean frame. (A flip in the payload
    // must fail the payload CRC; a flip in the header must fail the
    // header CRC, magic, or version check.)
    const std::string wire = encodeFrame(sampleFrame());
    for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
        std::string flipped = wire;
        flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));

        FrameReader reader;
        reader.feed(flipped.data(), flipped.size());
        Frame out;
        Error error;
        const auto status = reader.next(out, error);
        // A flip in the length field can also turn the frame into a
        // longer one the reader still waits for — NeedMore is an
        // acceptable outcome (the connection deadline handles it);
        // silently decoding Ok with the original content is not,
        // unless the flip was caught... so: never a clean Ok.
        EXPECT_NE(status, FrameReader::Status::Ok)
            << "bit " << bit << " flipped undetected";
        if (status == FrameReader::Status::Corrupt) {
            EXPECT_TRUE(reader.poisoned());
        }
    }
}

TEST(Wire, CorruptionPoisonsReaderPermanently)
{
    std::string wire = encodeFrame(sampleFrame());
    wire[1] ^= 0x10; // damage the magic

    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame out;
    Error error;
    ASSERT_EQ(reader.next(out, error), FrameReader::Status::Corrupt);
    EXPECT_TRUE(reader.poisoned());

    // Feeding a perfectly valid frame afterwards must NOT resurrect
    // the stream: the reader lost sync and can never trust it again.
    const std::string good = encodeFrame(sampleFrame());
    reader.feed(good.data(), good.size());
    EXPECT_EQ(reader.next(out, error), FrameReader::Status::Corrupt);
    EXPECT_TRUE(reader.poisoned());
}

TEST(Wire, BadVersionIsRejected)
{
    std::string wire = encodeFrame(sampleFrame());
    // Patch the version field (offset 4, u16 LE) and fix up the
    // header CRC so only the version check can catch it.
    wire[4] = 0x7f;
    Crc32 crc;
    crc.update(wire.data(), 20);
    const std::uint32_t hcrc = crc.value();
    std::memcpy(&wire[20], &hcrc, 4);

    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame out;
    Error error;
    EXPECT_EQ(reader.next(out, error), FrameReader::Status::Corrupt);
    EXPECT_EQ(error.code(), ErrorCode::BadVersion);
}

TEST(Wire, OversizedLengthIsRejectedBeforeBuffering)
{
    std::string wire = encodeFrame(sampleFrame());
    // Patch length (offset 16, u32 LE) to an absurd value with a
    // *valid* header CRC: the sanity bound, not the checksum, must
    // refuse to size a buffer from it.
    const std::uint32_t huge = maxFramePayload + 1;
    std::memcpy(&wire[16], &huge, 4);
    Crc32 crc;
    crc.update(wire.data(), 20);
    const std::uint32_t hcrc = crc.value();
    std::memcpy(&wire[20], &hcrc, 4);

    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame out;
    Error error;
    EXPECT_EQ(reader.next(out, error), FrameReader::Status::Corrupt);
    EXPECT_EQ(error.code(), ErrorCode::BadHeader);
}

// --- Payload codecs ------------------------------------------------

TEST(WireCodec, PrimitivesRoundTripAndBoundsCheck)
{
    std::string out;
    putU8(out, 0xab);
    putU16(out, 0xcdef);
    putU32(out, 0xdeadbeef);
    putU64(out, 0x0123456789abcdefull);
    putString(out, "hello");

    std::size_t pos = 0;
    std::uint8_t u8 = 0;
    std::uint16_t u16 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::string s;
    EXPECT_TRUE(getU8(out, pos, u8));
    EXPECT_TRUE(getU16(out, pos, u16));
    EXPECT_TRUE(getU32(out, pos, u32));
    EXPECT_TRUE(getU64(out, pos, u64));
    EXPECT_TRUE(getString(out, pos, s));
    EXPECT_EQ(u8, 0xab);
    EXPECT_EQ(u16, 0xcdef);
    EXPECT_EQ(u32, 0xdeadbeefu);
    EXPECT_EQ(u64, 0x0123456789abcdefull);
    EXPECT_EQ(s, "hello");
    EXPECT_EQ(pos, out.size());

    // Reading past the end fails instead of fabricating bytes.
    EXPECT_FALSE(getU8(out, pos, u8));
    pos = out.size() - 2;
    EXPECT_FALSE(getU64(out, pos, u64));
}

TEST(WireCodec, TruncatedStringLengthIsRejected)
{
    std::string out;
    putString(out, "payload");
    out.resize(out.size() - 3); // cut the tail of the bytes

    std::size_t pos = 0;
    std::string s;
    EXPECT_FALSE(getString(out, pos, s));
}

TEST(WireCodec, PredictRequestRoundTrips)
{
    const LoadInfo info = sampleInfo();
    const std::string payload = encodePredictRequest(info);
    LoadInfo out;
    ASSERT_TRUE(decodePredictRequest(payload, out));
    EXPECT_EQ(out.pc, info.pc);
    EXPECT_EQ(out.immOffset, info.immOffset);
    EXPECT_EQ(out.ghr, info.ghr);
    EXPECT_EQ(out.pathHist, info.pathHist);

    // Any truncation fails the decode.
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        LoadInfo ignored;
        EXPECT_FALSE(
            decodePredictRequest(payload.substr(0, cut), ignored))
            << "cut at " << cut;
    }
}

TEST(WireCodec, PredictResponseEchoesPcAndPrediction)
{
    const Prediction pred = samplePrediction();
    const std::string payload = encodePredictResponse(0x4000, pred);
    std::uint64_t pc = 0;
    Prediction out;
    ASSERT_TRUE(decodePredictResponse(payload, pc, out));
    EXPECT_EQ(pc, 0x4000u);
    expectPredictionEq(out, pred);
}

TEST(WireCodec, TrainRequestRoundTrips)
{
    const LoadInfo info = sampleInfo();
    const Prediction pred = samplePrediction();
    const std::string payload =
        encodeTrainRequest(info, 0xfeed0000, pred);
    LoadInfo info_out;
    std::uint64_t actual = 0;
    Prediction pred_out;
    ASSERT_TRUE(decodeTrainRequest(payload, info_out, actual, pred_out));
    EXPECT_EQ(info_out.pc, info.pc);
    EXPECT_EQ(actual, 0xfeed0000u);
    expectPredictionEq(pred_out, pred);
}

TEST(WireCodec, HelloCarriesVersionAndName)
{
    const std::string payload = encodeHello("migration-driver");
    std::uint16_t version = 0;
    std::string name;
    ASSERT_TRUE(decodeHello(payload, version, name));
    EXPECT_EQ(version, wireVersion);
    EXPECT_EQ(name, "migration-driver");
}

TEST(WireCodec, ErrorPayloadPreservesCodeAndRetryability)
{
    const Error overloaded =
        makeError(ErrorCode::Overloaded, "queue depth 96/128")
            .withContext("shard 3");
    const std::string payload = encodeErrorPayload(overloaded);
    Error out;
    ASSERT_TRUE(decodeErrorPayload(payload, out));
    EXPECT_EQ(out.code(), ErrorCode::Overloaded);
    EXPECT_TRUE(isRetryable(out.code()));
    // Message and contexts travel as separate fields, so the decoded
    // error renders exactly as the original did.
    EXPECT_EQ(out.message(), "queue depth 96/128");
    ASSERT_EQ(out.contexts().size(), 1u);
    EXPECT_EQ(out.contexts()[0], "shard 3");
    EXPECT_EQ(out.str(), overloaded.str());
}

TEST(WireCodec, RoundTrippedErrorRendersItsCodeNameExactlyOnce)
{
    // The greppability contract: `grep ConnectionLost` in a log must
    // match a remote error's rendering exactly as it would a local
    // one — one code-name prefix, not "ConnectionLost:
    // ConnectionLost: ..." accreting per hop.
    Error wire = makeError(ErrorCode::ConnectionLost, "peer reset")
                     .withContext("replica 2")
                     .withContext("predict pc=0x400");
    for (int hop = 0; hop < 3; ++hop) {
        Error decoded;
        ASSERT_TRUE(
            decodeErrorPayload(encodeErrorPayload(wire), decoded));
        wire = std::move(decoded);
    }
    const std::string rendered = wire.str();
    const char *name = errorCodeName(ErrorCode::ConnectionLost);
    std::size_t occurrences = 0;
    for (std::size_t at = rendered.find(name);
         at != std::string::npos;
         at = rendered.find(name, at + 1))
        occurrences++;
    EXPECT_EQ(occurrences, 1u) << rendered;
    EXPECT_EQ(rendered,
              "ConnectionLost: peer reset (replica 2; "
              "predict pc=0x400)");
}

TEST(WireCodec, ServiceStatsRoundTripBitForBit)
{
    ServiceWireStats stats;
    stats.aggregate.loads = 123456;
    stats.aggregate.lbHits = 65432;
    stats.aggregate.formed = 54321;
    stats.aggregate.formedCorrect = 43210;
    stats.aggregate.spec = 32109;
    stats.aggregate.specCorrect = 21098;
    for (std::uint64_t i = 0; i < 3; ++i) {
        ShardWireStats shard;
        shard.predicts = 100 + i;
        shard.trains = 200 + i;
        // Per-shard resolution stats (wire v2): what the replication
        // auditor compares across replicas, so they must survive the
        // wire bit for bit.
        shard.stats.loads = 1000 + i;
        shard.stats.lbHits = 900 + i;
        shard.stats.formed = 800 + i;
        shard.stats.formedCorrect = 700 + i;
        shard.stats.spec = 600 + i;
        shard.stats.specCorrect = 500 + i;
        shard.stats.bothSpec = 50 + i;
        shard.stats.missSelections = 5 + i;
        stats.shards.push_back(shard);
    }

    const std::string payload = encodeServiceStats(stats);
    ServiceWireStats out;
    ASSERT_TRUE(decodeServiceStats(payload, out));
    EXPECT_EQ(out.aggregate, stats.aggregate);
    ASSERT_EQ(out.shards.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(out.shards[i].predicts, stats.shards[i].predicts);
        EXPECT_EQ(out.shards[i].trains, stats.shards[i].trains);
        EXPECT_EQ(out.shards[i].stats, stats.shards[i].stats);
    }
}

TEST(WireCodec, SnapshotPayloadsRoundTrip)
{
    std::uint32_t shard = 0;
    ASSERT_TRUE(decodeSnapshotRequest(encodeSnapshotRequest(5), shard));
    EXPECT_EQ(shard, 5u);

    // Snapshot bytes are opaque binary — embedded NULs included.
    std::string bytes("\x00\x01\x02snapshot\xff", 12);
    std::string bytes_out;
    ASSERT_TRUE(decodeSnapshotData(encodeSnapshotData(2, bytes), shard,
                                   bytes_out));
    EXPECT_EQ(shard, 2u);
    EXPECT_EQ(bytes_out, bytes);

    std::uint32_t restored = 0;
    bool salvaged = false;
    ASSERT_TRUE(decodeSnapshotInstallOk(encodeSnapshotInstallOk(6, true),
                                        restored, salvaged));
    EXPECT_EQ(restored, 6u);
    EXPECT_TRUE(salvaged);
}

TEST(WireCodec, FrameTypeNamesAreStable)
{
    EXPECT_STREQ(frameTypeName(FrameType::Predict), "Predict");
    EXPECT_STREQ(frameTypeName(FrameType::ErrorReply), "ErrorReply");
    EXPECT_STREQ(frameTypeName(FrameType::GoAway), "GoAway");
    EXPECT_STREQ(frameTypeName(FrameType::ObsFetch), "ObsFetch");
    EXPECT_STREQ(frameTypeName(FrameType::ObsOk), "ObsOk");
}

TEST(WireCodec, FrameTypeNamesAreExhaustive)
{
    // Every defined type (1..ObsOk) must have a distinct, real name —
    // a new frame type whose name falls through to "Unknown" would
    // make chaos logs and GoAway diagnostics unreadable.
    std::vector<std::string> names;
    const auto last = static_cast<std::uint16_t>(FrameType::ObsOk);
    for (std::uint16_t raw = 1; raw <= last; ++raw) {
        const char *name =
            frameTypeName(static_cast<FrameType>(raw));
        EXPECT_STRNE(name, "Unknown") << "type " << raw;
        names.emplace_back(name);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()),
              names.end())
        << "duplicate frame type name";
    // One past the end is where "Unknown" belongs.
    EXPECT_STREQ(frameTypeName(static_cast<FrameType>(last + 1)),
                 "Unknown");
}

TEST(WireCodec, HelloOkEpochTravelsOnlyAtV3)
{
    // HelloOk exists only at v3 and always round-trips the epoch; a
    // v2-shaped reply (version + name, no epoch) is malformed.
    std::uint16_t version = 0;
    std::string name;
    std::uint64_t epoch = 0;
    ASSERT_TRUE(decodeHelloOk(encodeHelloOk("srv", 0x1234567890abcdefull),
                              version, name, epoch));
    EXPECT_EQ(version, wireVersion);
    EXPECT_EQ(name, "srv");
    EXPECT_EQ(epoch, 0x1234567890abcdefull);

    std::string v2Shaped;
    putU16(v2Shaped, 2);
    putString(v2Shaped, "srv");
    EXPECT_FALSE(decodeHelloOk(v2Shaped, version, name, epoch));
}

TEST(WireCodec, ObsFetchRoundTripsTimingFlag)
{
    bool include_timing = false;
    ASSERT_TRUE(
        decodeObsFetch(encodeObsFetch(true), include_timing));
    EXPECT_TRUE(include_timing);
    ASSERT_TRUE(
        decodeObsFetch(encodeObsFetch(false), include_timing));
    EXPECT_FALSE(include_timing);
    EXPECT_FALSE(decodeObsFetch("", include_timing));
}

// --- Trace-context framing ----------------------------------------

TEST(WireTrace, UntracedFrameStaysByteIdenticalToV2)
{
    // The tracing-neutrality contract: a frame without a trace
    // context encodes at plainFrameVersion with no prefix, so enabling
    // tracing in the build cannot perturb untraced traffic.
    const Frame frame = sampleFrame();
    const std::string wire = encodeFrame(frame);
    EXPECT_EQ(static_cast<unsigned char>(wire[4]), plainFrameVersion);
    EXPECT_EQ(static_cast<unsigned char>(wire[5]), 0u);
    EXPECT_EQ(wire.size(), frameHeaderBytes + frame.payload.size() +
                               frameTrailerBytes);
}

TEST(WireTrace, TracedFrameRoundTripsContextAndStripsPrefix)
{
    Frame frame = sampleFrame();
    frame.trace.traceId = 0x0123456789abcdefull;
    frame.trace.spanId = 0xfedcba9876543210ull;
    frame.trace.sampled = true;

    const std::string wire = encodeFrame(frame);
    EXPECT_EQ(static_cast<unsigned char>(wire[4]), wireVersion);
    EXPECT_EQ(wire.size(), frameHeaderBytes + traceContextBytes +
                               frame.payload.size() +
                               frameTrailerBytes);

    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame out;
    Error error;
    ASSERT_EQ(reader.next(out, error), FrameReader::Status::Ok);
    EXPECT_EQ(out.type, frame.type);
    EXPECT_EQ(out.id, frame.id);
    EXPECT_EQ(out.payload, frame.payload); // prefix stripped on decode
    ASSERT_TRUE(out.trace.valid());
    EXPECT_EQ(out.trace.traceId, frame.trace.traceId);
    EXPECT_EQ(out.trace.spanId, frame.trace.spanId);
    EXPECT_TRUE(out.trace.sampled);

    // An unsampled-but-propagated context keeps the bit clear.
    frame.trace.sampled = false;
    FrameReader reader2;
    const std::string wire2 = encodeFrame(frame);
    reader2.feed(wire2.data(), wire2.size());
    ASSERT_EQ(reader2.next(out, error), FrameReader::Status::Ok);
    EXPECT_EQ(out.trace.traceId, frame.trace.traceId);
    EXPECT_FALSE(out.trace.sampled);
}

TEST(WireTrace, MixedStreamSurvivesAdversarialSegmentation)
{
    // Plain and traced frames interleaved on one stream, reassembled
    // through every chunking the plain segmentation suite uses: the
    // 17-byte prefix must never be confused with payload no matter
    // where the chunk boundaries fall.
    auto [frames, wire] = segmentationStream();
    Frame traced = sampleFrame();
    traced.id = 10;
    traced.trace = obs::TraceContext{0x1111222233334444ull,
                                     0x5555666677778888ull, true};
    Frame tracedEmpty; // trace context around an empty typed payload
    tracedEmpty.type = FrameType::Ping;
    tracedEmpty.id = 11;
    tracedEmpty.trace =
        obs::TraceContext{0x9999aaaabbbbccccull, 0, false};
    frames.insert(frames.begin() + 1, traced);
    frames.push_back(tracedEmpty);
    wire.clear();
    for (const Frame &frame : frames)
        wire += encodeFrame(frame);

    for (std::size_t size = 1; size <= 7; ++size) {
        expectReassembly(frames, wire, {size},
                         "traced chunk size " + std::to_string(size));
    }
    Rng rng(0x7e5d);
    for (int round = 0; round < 16; ++round) {
        std::vector<std::size_t> chunks;
        for (int i = 0; i < 64; ++i)
            chunks.push_back(rng.below(97));
        chunks.push_back(1);
        expectReassembly(frames, wire, chunks,
                         "traced random round " +
                             std::to_string(round));
    }
}

TEST(WireTrace, V3FrameTooShortForContextIsCorrupt)
{
    // A traced frame whose length cannot even hold the trace prefix
    // must be refused at the header check, before the payload is read.
    std::string wire = encodeFrame(sampleFrame());
    wire[4] = static_cast<char>(wireVersion);
    Crc32 crc;
    crc.update(wire.data(), 20);
    const std::uint32_t hcrc = crc.value();
    std::memcpy(&wire[20], &hcrc, 4);
    // sampleFrame's payload (20 bytes) > 17, so shrink the claim.
    std::string shortWire = wire.substr(0, frameHeaderBytes);
    const std::uint32_t shortLen = traceContextBytes - 1;
    std::memcpy(&shortWire[16], &shortLen, 4);
    Crc32 crc2;
    crc2.update(shortWire.data(), 20);
    const std::uint32_t hcrc2 = crc2.value();
    std::memcpy(&shortWire[20], &hcrc2, 4);
    const std::string body(shortLen, 'x');
    shortWire += body;
    Crc32 pcrc;
    pcrc.update(body.data(), body.size());
    const std::uint32_t pv = pcrc.value();
    shortWire.append(reinterpret_cast<const char *>(&pv), 4);

    FrameReader reader;
    reader.feed(shortWire.data(), shortWire.size());
    Frame out;
    Error error;
    EXPECT_EQ(reader.next(out, error), FrameReader::Status::Corrupt);
    EXPECT_EQ(error.code(), ErrorCode::BadHeader);
    EXPECT_TRUE(reader.poisoned());
}

TEST(WireTrace, V3FrameWithNullTraceIdIsCorrupt)
{
    // traceId 0 means "no trace"; a traced frame claiming one is
    // either a buggy or forged peer and must poison the stream.
    Frame frame = sampleFrame();
    frame.trace.traceId = 0x1234;
    frame.trace.spanId = 0x5678;
    std::string wire = encodeFrame(frame);
    // Zero the traceId (first 8 payload bytes) and fix the body CRC.
    for (std::size_t i = 0; i < 8; ++i)
        wire[frameHeaderBytes + i] = 0;
    const std::size_t bodyLen =
        wire.size() - frameHeaderBytes - frameTrailerBytes;
    Crc32 crc;
    crc.update(wire.data() + frameHeaderBytes, bodyLen);
    const std::uint32_t pv = crc.value();
    std::memcpy(&wire[wire.size() - frameTrailerBytes], &pv, 4);

    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame out;
    Error error;
    EXPECT_EQ(reader.next(out, error), FrameReader::Status::Corrupt);
    EXPECT_EQ(error.code(), ErrorCode::BadHeader);
    EXPECT_TRUE(reader.poisoned());
}

} // namespace
} // namespace clap::net

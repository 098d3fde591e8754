/**
 * @file
 * Tests for the network gateway (src/net/): endpoint parsing, socket
 * deadlines, server/client round trips over UDS and TCP, corrupt
 * frames answered with GoAway, the connection budget, client retry
 * policy (idempotent requests retried, trains never), snapshot
 * fetch/install across services, and determinism of the seeded chaos
 * schedule.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/un.h>
#include <unistd.h>

#include "core/hybrid_predictor.hh"
#include "net/chaos.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "obs/metrics.hh"
#include "obs/trace_context.hh"
#include "serve/service.hh"
#include "util/error.hh"
#include "util/json.hh"

namespace clap::net
{
namespace
{

std::string
udsEndpoint(const char *tag)
{
    return "unix:/tmp/clap_test_net_" +
           std::to_string(static_cast<long>(::getpid())) + "_" + tag +
           ".sock";
}

PredictorFactory
testHybridFactory()
{
    return [] { return std::make_unique<HybridPredictor>(HybridConfig{}); };
}

/** Service + gateway, torn down in order. */
struct TestGateway
{
    explicit TestGateway(const std::string &endpoint, unsigned shards = 2)
        : service(makeConfig(shards), testHybridFactory()),
          server(service, makeServerConfig(endpoint))
    {
        auto started = server.start();
        EXPECT_TRUE(started) << started.error().str();
    }

    ~TestGateway()
    {
        server.stop();
        service.stop();
    }

    static ServiceConfig
    makeConfig(unsigned shards)
    {
        ServiceConfig config;
        config.shards = shards;
        return config;
    }

    static ServerConfig
    makeServerConfig(const std::string &endpoint)
    {
        ServerConfig config;
        config.endpoint = endpoint;
        return config;
    }

    PredictionService service;
    NetServer server;
};

/** Read frames from a raw stream until one decodes (or deadline). */
Expected<Frame>
readFrame(Stream &stream, int deadline_ms)
{
    FrameReader reader;
    char buf[4096];
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(deadline_ms);
    for (;;) {
        Frame frame;
        Error error;
        const auto status = reader.next(frame, error);
        if (status == FrameReader::Status::Ok)
            return frame;
        if (status == FrameReader::Status::Corrupt)
            return error;
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                until - std::chrono::steady_clock::now())
                .count();
        if (left <= 0)
            return makeError(ErrorCode::DeadlineExceeded,
                             "no frame within the deadline");
        auto received =
            stream.recvSome(buf, sizeof(buf), static_cast<int>(left));
        if (!received)
            return received.error();
        if (*received == 0)
            return makeError(ErrorCode::ConnectionLost,
                             "EOF before a complete frame");
        reader.feed(buf, *received);
    }
}

// --- Endpoint parsing ---------------------------------------------

TEST(NetEndpoint, ParsesUnixAndTcpSpecs)
{
    auto unix_ep = parseEndpoint("unix:/tmp/x.sock");
    ASSERT_TRUE(unix_ep);
    EXPECT_EQ(unix_ep->kind, Endpoint::Kind::Unix);
    EXPECT_EQ(unix_ep->path, "/tmp/x.sock");
    EXPECT_EQ(unix_ep->str(), "unix:/tmp/x.sock");

    auto tcp_ep = parseEndpoint("tcp:127.0.0.1:9000");
    ASSERT_TRUE(tcp_ep);
    EXPECT_EQ(tcp_ep->kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(tcp_ep->host, "127.0.0.1");
    EXPECT_EQ(tcp_ep->port, 9000);
}

TEST(NetEndpoint, RejectsMalformedSpecs)
{
    EXPECT_FALSE(parseEndpoint(""));
    EXPECT_FALSE(parseEndpoint("http:host:80"));
    EXPECT_FALSE(parseEndpoint("unix:"));
    EXPECT_FALSE(parseEndpoint("tcp:127.0.0.1"));
    EXPECT_FALSE(parseEndpoint("tcp:127.0.0.1:notaport"));
    EXPECT_FALSE(parseEndpoint("tcp:127.0.0.1:70000"));
}

TEST(NetEndpoint, PortEdgeCasesAreExact)
{
    // Port 0 is load-bearing: it requests an ephemeral port, the
    // pattern every test and bench uses (tcp:127.0.0.1:0 + the
    // discoverable boundEndpoint). It must parse, not error.
    auto ephemeral = parseEndpoint("tcp:127.0.0.1:0");
    ASSERT_TRUE(ephemeral);
    EXPECT_EQ(ephemeral->port, 0);

    // 65535 is the last representable port; 65536 must be refused
    // rather than truncated to 0 (a silent wrap would turn a typo
    // into an ephemeral bind).
    auto last = parseEndpoint("tcp:127.0.0.1:65535");
    ASSERT_TRUE(last);
    EXPECT_EQ(last->port, 65535);
    auto wrapped = parseEndpoint("tcp:127.0.0.1:65536");
    ASSERT_FALSE(wrapped);
    EXPECT_EQ(wrapped.error().code(), ErrorCode::InvalidArgument);

    EXPECT_FALSE(parseEndpoint("tcp:127.0.0.1:-1"));
    EXPECT_FALSE(parseEndpoint("tcp:127.0.0.1:80x"));   // trailing junk
    EXPECT_FALSE(parseEndpoint("tcp:127.0.0.1:"));      // empty port
    EXPECT_FALSE(parseEndpoint("tcp::9000"));           // empty host
    EXPECT_FALSE(parseEndpoint("tcp:"));                // nothing at all
}

TEST(NetEndpoint, UnixPathLengthStopsAtSunPathCapacity)
{
    // sockaddr_un.sun_path is a fixed array; the parser must refuse
    // exactly where bind() would otherwise silently truncate. The
    // longest representable path is sizeof(sun_path)-1 bytes (the
    // terminating NUL needs its slot).
    const std::size_t capacity = sizeof(sockaddr_un{}.sun_path);
    const std::string fits(capacity - 1, 'p');
    auto ok_ep = parseEndpoint("unix:" + fits);
    ASSERT_TRUE(ok_ep);
    EXPECT_EQ(ok_ep->path.size(), capacity - 1);

    const std::string overflow(capacity, 'p');
    auto too_long = parseEndpoint("unix:" + overflow);
    ASSERT_FALSE(too_long);
    EXPECT_EQ(too_long.error().code(), ErrorCode::InvalidArgument);
    // The refusal names the size so the operator sees the limit.
    EXPECT_NE(too_long.error().str().find(std::to_string(capacity)),
              std::string::npos);
}

// --- Config validation --------------------------------------------

TEST(NetConfig, ServerConfigRequiresDeadlinesOfAtLeastOneMs)
{
    EXPECT_TRUE(ServerConfig{}.validate());
    for (const int bad : {0, -1}) {
        ServerConfig read;
        read.readDeadlineMs = bad;
        const auto refused = read.validate();
        ASSERT_FALSE(refused) << bad;
        EXPECT_EQ(refused.error().code(), ErrorCode::InvalidConfig);

        ServerConfig write;
        write.writeDeadlineMs = bad;
        EXPECT_FALSE(write.validate()) << bad;
    }
    ServerConfig shortest;
    shortest.readDeadlineMs = 1;
    shortest.writeDeadlineMs = 1;
    EXPECT_TRUE(shortest.validate());
}

TEST(NetConfig, ServerWithANeverExpiringWriteDeadlineDoesNotStart)
{
    // A negative budget would let a peer that stops reading hold its
    // connection thread forever.
    PredictionService service(ServiceConfig{}, testHybridFactory());
    ServerConfig config;
    config.endpoint = udsEndpoint("no_deadline");
    config.writeDeadlineMs = -1;
    NetServer server(service, config);
    const auto started = server.start();
    ASSERT_FALSE(started);
    EXPECT_EQ(started.error().code(), ErrorCode::InvalidConfig);
}

TEST(NetConfig, ClientConfigRequiresDeadlinesOfAtLeastOneMs)
{
    ClientConfig base;
    base.endpoint = udsEndpoint("client_config");
    EXPECT_TRUE(base.validate());
    for (const int bad : {0, -1}) {
        ClientConfig connect = base;
        connect.connectDeadlineMs = bad;
        EXPECT_FALSE(connect.validate()) << bad;

        ClientConfig request = base;
        request.requestDeadlineMs = bad;
        const auto refused = request.validate();
        ASSERT_FALSE(refused) << bad;
        EXPECT_EQ(refused.error().code(), ErrorCode::InvalidConfig);
    }

    // The client refuses before it ever dials.
    ClientConfig never = base;
    never.requestDeadlineMs = -1;
    never.maxAttempts = 1;
    NetClient client(never);
    const auto pinged = client.ping();
    ASSERT_FALSE(pinged);
    EXPECT_EQ(pinged.error().code(), ErrorCode::InvalidConfig);
    EXPECT_EQ(client.counters().connects, 0u);
}

// --- Socket streams -----------------------------------------------

TEST(NetSocket, StreamPairCarriesBytesBothWays)
{
    auto pair = streamPair();
    ASSERT_TRUE(pair);
    auto &[a, b] = *pair;

    ASSERT_TRUE(a->sendAll("ping", 4, 1000));
    char buf[16] = {};
    auto received = b->recvSome(buf, sizeof(buf), 1000);
    ASSERT_TRUE(received);
    EXPECT_EQ(std::string(buf, *received), "ping");

    ASSERT_TRUE(b->sendAll("pong", 4, 1000));
    received = a->recvSome(buf, sizeof(buf), 1000);
    ASSERT_TRUE(received);
    EXPECT_EQ(std::string(buf, *received), "pong");
}

TEST(NetSocket, RecvDeadlineExpiresInsteadOfHanging)
{
    auto pair = streamPair();
    ASSERT_TRUE(pair);
    char buf[8];
    auto received = pair->first->recvSome(buf, sizeof(buf), 50);
    ASSERT_FALSE(received);
    EXPECT_EQ(received.error().code(), ErrorCode::DeadlineExceeded);
}

TEST(NetSocket, ShutdownWakesPeerWithEof)
{
    auto pair = streamPair();
    ASSERT_TRUE(pair);
    pair->second->shutdownBoth();
    char buf[8];
    auto received = pair->first->recvSome(buf, sizeof(buf), 1000);
    ASSERT_TRUE(received);
    EXPECT_EQ(*received, 0u); // orderly EOF, not an error
}

TEST(NetSocket, ConnectToAbsentServerIsStructured)
{
    auto endpoint = parseEndpoint("unix:/tmp/clap_test_net_absent.sock");
    ASSERT_TRUE(endpoint);
    auto stream = connectEndpoint(*endpoint, 200);
    ASSERT_FALSE(stream);
    EXPECT_EQ(stream.error().code(), ErrorCode::ConnectionLost);
}

// --- Server/client round trips ------------------------------------

TEST(NetServerClient, RoundTripsOverUds)
{
    const std::string endpoint = udsEndpoint("roundtrip");
    TestGateway gateway(endpoint);

    ClientConfig config;
    config.endpoint = endpoint;
    NetClient client(config);

    ASSERT_TRUE(client.ping());

    const LoadInfo info = client.makeInfo(0x1000, 8);
    auto pred = client.predict(info);
    ASSERT_TRUE(pred) << pred.error().str();
    ASSERT_TRUE(client.train(info, 0x2000, *pred));

    // Train twice more so the stats move, then read them back.
    for (int i = 1; i <= 2; ++i) {
        const LoadInfo again = client.makeInfo(0x1000, 8);
        auto p = client.predict(again);
        ASSERT_TRUE(p);
        ASSERT_TRUE(client.train(again, 0x2000 + 8ull * i, *p));
    }
    auto stats = client.stats();
    ASSERT_TRUE(stats);
    EXPECT_EQ(stats->aggregate.loads, 3u);
    EXPECT_EQ(stats->aggregate, gateway.service.aggregateStats());
    ASSERT_EQ(stats->shards.size(), 2u);

    EXPECT_EQ(client.counters().connects, 1u);
    EXPECT_EQ(client.counters().predictsOk, 3u);
    EXPECT_EQ(client.counters().trainsOk, 3u);
    EXPECT_EQ(client.counters().wrongReplies, 0u);
    EXPECT_EQ(client.counters().transportErrors, 0u);

    const auto counters = gateway.server.counters();
    EXPECT_EQ(counters.accepted, 1u);
    EXPECT_GE(counters.requests, 7u);
}

TEST(NetServerClient, PipelinedTrainsAreAnsweredInOrder)
{
    const std::string endpoint = udsEndpoint("pipeline");
    TestGateway gateway(endpoint);

    ClientConfig config;
    config.endpoint = endpoint;
    NetClient client(config);

    // Every train leaves before the first reply is read; the server
    // answers one connection in order, so each await finds its own
    // TrainOk next.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 32; ++i) {
        auto id = client.sendTrain(client.makeInfo(0x4000 + 16ull * i, 0),
                                   0x8000 + 64ull * i, Prediction{});
        ASSERT_TRUE(id) << id.error().str();
        ids.push_back(*id);
    }
    for (const std::uint64_t id : ids) {
        auto trained = client.awaitTrain(id);
        EXPECT_TRUE(trained) << trained.error().str();
    }
    EXPECT_EQ(client.counters().trainsOk, ids.size());
    EXPECT_EQ(client.counters().wrongReplies, 0u);
    EXPECT_EQ(client.counters().connects, 1u);
    EXPECT_EQ(gateway.service.aggregateStats().loads, ids.size());
}

TEST(NetServerClient, TcpEphemeralPortIsDiscoverable)
{
    TestGateway gateway("tcp:127.0.0.1:0");
    const Endpoint &bound = gateway.server.boundEndpoint();
    ASSERT_NE(bound.port, 0);

    ClientConfig config;
    config.endpoint = bound.str();
    NetClient client(config);
    EXPECT_TRUE(client.ping());
    EXPECT_TRUE(client.predict(client.makeInfo(0x1000, 0)));
}

TEST(NetServerClient, ShutdownRequestFlagsTheServer)
{
    const std::string endpoint = udsEndpoint("shutdown");
    TestGateway gateway(endpoint);

    ClientConfig config;
    config.endpoint = endpoint;
    NetClient client(config);
    EXPECT_FALSE(gateway.server.shutdownRequested());
    ASSERT_TRUE(client.requestShutdown());
    EXPECT_TRUE(gateway.server.shutdownRequested());
}

// --- Protocol failure handling ------------------------------------

TEST(NetServerClient, GarbageBytesDrawGoAwayAndDisconnect)
{
    const std::string endpoint = udsEndpoint("garbage");
    TestGateway gateway(endpoint);

    auto parsed = parseEndpoint(endpoint);
    ASSERT_TRUE(parsed);
    auto raw = connectEndpoint(*parsed, 1000);
    ASSERT_TRUE(raw);

    // 32 bytes that cannot be a frame prefix: the server's reader
    // fails the header CRC and must answer GoAway, then close.
    const std::string garbage(32, 'X');
    ASSERT_TRUE((*raw)->sendAll(garbage.data(), garbage.size(), 1000));

    auto reply = readFrame(**raw, 2000);
    ASSERT_TRUE(reply) << reply.error().str();
    EXPECT_EQ(reply->type, FrameType::GoAway);
    Error remote;
    ASSERT_TRUE(decodeErrorPayload(reply->payload, remote));
    EXPECT_EQ(remote.code(), ErrorCode::ProtocolError);

    // After GoAway the connection is gone: EOF, not silence.
    char buf[64];
    auto received = (*raw)->recvSome(buf, sizeof(buf), 2000);
    ASSERT_TRUE(received);
    EXPECT_EQ(*received, 0u);

    EXPECT_EQ(gateway.server.counters().corruptFrames, 1u);
}

TEST(NetServerClient, HelloVersionMismatchIsARefusedHandshake)
{
    const std::string endpoint = udsEndpoint("version");
    TestGateway gateway(endpoint);

    auto parsed = parseEndpoint(endpoint);
    ASSERT_TRUE(parsed);

    // Well-formed Hellos claiming a future version and the retired
    // v2, v3 and v4 (v4's StatsOk still carried supervisor counters):
    // the server speaks exactly wireVersion and refuses them all.
    const std::uint16_t refused[] = {wireVersion + 7, 2, 3, 4};
    for (const std::uint16_t version : refused) {
        auto raw = connectEndpoint(*parsed, 1000);
        ASSERT_TRUE(raw);
        std::string payload;
        putU16(payload, version);
        putString(payload, "time-traveller");
        Frame hello;
        hello.type = FrameType::Hello;
        hello.id = 1;
        hello.payload = payload;
        const std::string bytes = encodeFrame(hello);
        ASSERT_TRUE((*raw)->sendAll(bytes.data(), bytes.size(), 1000));

        auto reply = readFrame(**raw, 2000);
        ASSERT_TRUE(reply) << reply.error().str();
        EXPECT_EQ(reply->type, FrameType::ErrorReply) << version;
        EXPECT_EQ(reply->id, 1u);
        Error remote;
        ASSERT_TRUE(decodeErrorPayload(reply->payload, remote));
        EXPECT_EQ(remote.code(), ErrorCode::BadVersion) << version;
    }
}

TEST(NetServerClient, ConnectionBudgetTurnsAwayTheNextConnection)
{
    const std::string endpoint = udsEndpoint("budget");
    PredictionService service(TestGateway::makeConfig(2),
                              testHybridFactory());
    ServerConfig server_config = TestGateway::makeServerConfig(endpoint);
    server_config.maxConnections = 2;
    NetServer server(service, server_config);
    ASSERT_TRUE(server.start());

    ClientConfig config;
    config.endpoint = endpoint;
    NetClient first(config);
    NetClient second(config);
    ASSERT_TRUE(first.ping());
    ASSERT_TRUE(second.ping());

    // A third connection is over the budget: it is greeted with a
    // GoAway carrying Overloaded and closed before any request is
    // read.
    auto parsed = parseEndpoint(endpoint);
    ASSERT_TRUE(parsed);
    auto raw = connectEndpoint(*parsed, 1000);
    ASSERT_TRUE(raw);
    auto goaway = readFrame(**raw, 2000);
    ASSERT_TRUE(goaway) << goaway.error().str();
    EXPECT_EQ(goaway->type, FrameType::GoAway);
    Error reason;
    ASSERT_TRUE(decodeErrorPayload(goaway->payload, reason));
    EXPECT_EQ(reason.code(), ErrorCode::Overloaded);
    char byte;
    auto eof = (*raw)->recvSome(&byte, 1, 2000);
    ASSERT_TRUE(eof) << eof.error().str();
    EXPECT_EQ(*eof, 0u);
    EXPECT_EQ(server.counters().turnedAway, 1u);
    EXPECT_EQ(server.counters().accepted, 2u);

    // Once a client leaves, its slot serves a newcomer. The server
    // frees the slot when that connection's thread sees the EOF, so
    // the newcomer may still be turned away first; its connect
    // retries (with backoff) cover that.
    first.disconnect();
    ClientConfig patient = config;
    patient.maxAttempts = 50;
    NetClient third(patient);
    const auto pong = third.ping();
    ASSERT_TRUE(pong) << pong.error().str();
    EXPECT_TRUE(second.ping());
    EXPECT_EQ(server.counters().accepted, 3u);

    server.stop();
    service.stop();
}

// --- Client retry policy ------------------------------------------

/** Decorator that fails sendAll() once when armed (shared flag), so a
 *  test can cut the connection at an exact protocol moment. */
struct FailNextSend
{
    std::atomic<bool> armed{false};

    struct Stream : net::Stream
    {
        Stream(std::unique_ptr<net::Stream> inner, FailNextSend &owner)
            : inner(std::move(inner)), owner(owner)
        {
        }
        Expected<std::size_t>
        recvSome(void *buf, std::size_t len, int deadline_ms) override
        {
            return inner->recvSome(buf, len, deadline_ms);
        }
        Expected<void>
        sendAll(const void *buf, std::size_t len,
                int deadline_ms) override
        {
            bool expected = true;
            if (owner.armed.compare_exchange_strong(expected, false)) {
                inner->shutdownBoth();
                return makeError(ErrorCode::ConnectionLost,
                                 "test: send cut");
            }
            return inner->sendAll(buf, len, deadline_ms);
        }
        void shutdownBoth() override { inner->shutdownBoth(); }

        std::unique_ptr<net::Stream> inner;
        FailNextSend &owner;
    };

    std::unique_ptr<net::Stream>
    wrap(std::unique_ptr<net::Stream> inner)
    {
        return std::make_unique<Stream>(std::move(inner), *this);
    }
};

TEST(NetClientRetry, IdempotentPredictRetriesAfterTransportLoss)
{
    const std::string endpoint = udsEndpoint("retry");
    TestGateway gateway(endpoint);

    FailNextSend fault;
    ClientConfig config;
    config.endpoint = endpoint;
    config.backoffBaseMs = 1;
    config.backoffMaxMs = 2;
    config.decorate = [&fault](std::unique_ptr<Stream> inner) {
        return fault.wrap(std::move(inner));
    };
    NetClient client(config);
    ASSERT_TRUE(client.ping()); // connection 1 established

    fault.armed.store(true);
    auto pred = client.predict(client.makeInfo(0x1000, 0));
    ASSERT_TRUE(pred) << pred.error().str();
    EXPECT_EQ(client.counters().retries, 1u);
    EXPECT_EQ(client.counters().connects, 2u);
    EXPECT_EQ(client.counters().predictsOk, 1u);
    EXPECT_EQ(client.counters().transportErrors, 0u);
}

TEST(NetClientRetry, TrainIsNeverRetriedAfterTransportLoss)
{
    const std::string endpoint = udsEndpoint("noretry");
    TestGateway gateway(endpoint);

    FailNextSend fault;
    ClientConfig config;
    config.endpoint = endpoint;
    config.backoffBaseMs = 1;
    config.backoffMaxMs = 2;
    config.decorate = [&fault](std::unique_ptr<Stream> inner) {
        return fault.wrap(std::move(inner));
    };
    NetClient client(config);
    ASSERT_TRUE(client.ping());

    // Cut the wire under the train: its outcome is unknown, so the
    // client must report a structured error and NOT resend it.
    fault.armed.store(true);
    Prediction dummy;
    auto trained =
        client.train(client.makeInfo(0x1000, 0), 0x2000, dummy);
    ASSERT_FALSE(trained);
    EXPECT_EQ(trained.error().code(), ErrorCode::ConnectionLost);
    EXPECT_EQ(client.counters().trainsOk, 0u);
    EXPECT_EQ(client.counters().transportErrors, 1u);

    // The service never saw a train: no double-train, no single one.
    auto stats = client.stats();
    ASSERT_TRUE(stats);
    EXPECT_EQ(stats->aggregate.loads, 0u);
}

TEST(NetClientRetry, AwaitAfterTheConnectionDroppedIsAnUnknownOutcome)
{
    const std::string endpoint = udsEndpoint("lostreply");
    TestGateway gateway(endpoint);

    ClientConfig config;
    config.endpoint = endpoint;
    NetClient client(config);

    // The connection drops between the send and the await: the
    // train's outcome is unknown, and nothing is re-sent.
    auto id = client.sendTrain(client.makeInfo(0x1000, 0), 0x2000,
                               Prediction{});
    ASSERT_TRUE(id) << id.error().str();
    client.disconnect();
    auto lost = client.awaitTrain(*id);
    ASSERT_FALSE(lost);
    EXPECT_EQ(lost.error().code(), ErrorCode::ConnectionLost);

    // Nor is its reply looked for on the next connection: the await
    // fails at once and leaves the new connection up.
    ASSERT_TRUE(client.ping());
    EXPECT_FALSE(client.awaitTrain(*id));
    EXPECT_TRUE(client.connected());
    EXPECT_EQ(client.counters().connects, 2u);
    EXPECT_EQ(client.counters().trainsOk, 0u);
    EXPECT_EQ(client.counters().transportErrors, 2u);
    EXPECT_EQ(client.counters().wrongReplies, 0u);
}

// --- Snapshot migration over the wire -----------------------------

TEST(NetSnapshot, FetchInstallMovesShardStateBitForBit)
{
    const std::string endpoint_a = udsEndpoint("snap_a");
    const std::string endpoint_b = udsEndpoint("snap_b");
    TestGateway gateway_a(endpoint_a, /*shards=*/1);
    TestGateway gateway_b(endpoint_b, /*shards=*/1);

    ClientConfig config_a;
    config_a.endpoint = endpoint_a;
    NetClient client_a(config_a);

    // Warm A's predictor with a strided load so it carries real
    // table state, then move that state to B over the wire.
    for (int i = 0; i < 64; ++i) {
        const LoadInfo info = client_a.makeInfo(0x1000, 0);
        auto pred = client_a.predict(info);
        ASSERT_TRUE(pred);
        ASSERT_TRUE(client_a.train(info, 0x10000 + 64ull * i, *pred));
        client_a.observeBranch(i % 3 == 0);
    }
    auto snapshot = client_a.fetchSnapshot(0);
    ASSERT_TRUE(snapshot) << snapshot.error().str();
    EXPECT_FALSE(snapshot->empty());

    ClientConfig config_b;
    config_b.endpoint = endpoint_b;
    NetClient client_b(config_b);
    auto installed = client_b.installSnapshot(0, *snapshot);
    ASSERT_TRUE(installed) << installed.error().str();
    EXPECT_GT(installed->first, 0u);
    EXPECT_FALSE(installed->second); // clean restore, no salvage

    // The wire stats (including the restored PredictionStats) must
    // agree bit for bit — the migration acceptance criterion.
    auto stats_a = client_a.stats();
    auto stats_b = client_b.stats();
    ASSERT_TRUE(stats_a);
    ASSERT_TRUE(stats_b);
    EXPECT_EQ(stats_a->aggregate, stats_b->aggregate);

    // And the migrated predictor behaves identically: same load,
    // same prediction on both sides.
    client_b.adoptHistory(client_a.ghr(), client_a.pathHist());
    const LoadInfo next_a = client_a.makeInfo(0x1000, 0);
    const LoadInfo next_b = client_b.makeInfo(0x1000, 0);
    auto pred_a = client_a.predict(next_a);
    auto pred_b = client_b.predict(next_b);
    ASSERT_TRUE(pred_a);
    ASSERT_TRUE(pred_b);
    EXPECT_EQ(pred_a->hasAddress, pred_b->hasAddress);
    EXPECT_EQ(pred_a->speculate, pred_b->speculate);
    EXPECT_EQ(pred_a->addr, pred_b->addr);
}

// --- Chaos determinism --------------------------------------------

struct ChaosRunResult
{
    ClientCounters client;
    NetChaosStats chaos;
};

ChaosRunResult
runSeededChaosReplay(const char *tag, std::uint64_t seed)
{
    const std::string endpoint = udsEndpoint(tag);
    TestGateway gateway(endpoint);

    NetChaosConfig chaos_config;
    chaos_config.seed = seed;
    chaos_config.disconnectRate = 0.01;
    chaos_config.tearRate = 0.01;
    chaos_config.stallRate = 0.005;
    chaos_config.flipSendRate = 0.01;
    chaos_config.replyDisconnectRate = 0.005;
    chaos_config.replyStallRate = 0.005;
    chaos_config.flipRecvRate = 0.005;
    NetChaos chaos(chaos_config);

    ClientConfig config;
    config.endpoint = endpoint;
    config.maxAttempts = 8;
    config.backoffBaseMs = 1;
    config.backoffMaxMs = 4;
    config.decorate = [&chaos](std::unique_ptr<Stream> inner) {
        return chaos.wrap(std::move(inner));
    };
    NetClient client(config);

    for (int i = 0; i < 400; ++i) {
        const std::uint64_t pc = 0x1000 + 16ull * (i % 8);
        const LoadInfo info = client.makeInfo(pc, 0);
        auto pred = client.predict(info);
        if (pred)
            (void)client.train(info, pc * 8 + 64ull * i, *pred);
        client.observeBranch(i % 2 == 0);
    }
    return ChaosRunResult{client.counters(), chaos.stats()};
}

TEST(NetChaosDeterminism, SameSeedSameFaultScheduleSameCounters)
{
    const auto run1 = runSeededChaosReplay("chaos1", 0xfeedface);
    const auto run2 = runSeededChaosReplay("chaos2", 0xfeedface);

    // The whole point of the seeded schedule: two runs, two fresh
    // servers, identical fault sequence and identical outcomes.
    EXPECT_EQ(run1.chaos.disconnects, run2.chaos.disconnects);
    EXPECT_EQ(run1.chaos.tears, run2.chaos.tears);
    EXPECT_EQ(run1.chaos.stalls, run2.chaos.stalls);
    EXPECT_EQ(run1.chaos.sendFlips, run2.chaos.sendFlips);
    EXPECT_EQ(run1.chaos.replyDisconnects, run2.chaos.replyDisconnects);
    EXPECT_EQ(run1.chaos.replyStalls, run2.chaos.replyStalls);
    EXPECT_EQ(run1.chaos.recvFlips, run2.chaos.recvFlips);
    EXPECT_GT(run1.chaos.total(), 0u);

    EXPECT_EQ(run1.client.connects, run2.client.connects);
    EXPECT_EQ(run1.client.retries, run2.client.retries);
    EXPECT_EQ(run1.client.predictsOk, run2.client.predictsOk);
    EXPECT_EQ(run1.client.trainsOk, run2.client.trainsOk);
    EXPECT_EQ(run1.client.transportErrors, run2.client.transportErrors);
    EXPECT_EQ(run1.client.corruptReplies, run2.client.corruptReplies);
    EXPECT_EQ(run1.client.goAways, run2.client.goAways);

    // The invariant every chaos harness asserts: never a wrong reply.
    EXPECT_EQ(run1.client.wrongReplies, 0u);
    EXPECT_EQ(run2.client.wrongReplies, 0u);
}

// --- Wire version handshake + trace propagation -------------------

TEST(NetVersion, HandshakeNegotiatesCurrentVersionByDefault)
{
    const std::string endpoint = udsEndpoint("negotiate");
    TestGateway gateway(endpoint);

    ClientConfig config;
    config.endpoint = endpoint;
    NetClient client(config);
    ASSERT_TRUE(client.ping());
    EXPECT_EQ(client.counters().connects, 1u);
    EXPECT_EQ(client.counters().connectFailures, 0u);
    // Both epochs were stamped in this process moments apart, so the
    // epoch-derived clock offset must be far under a second.
    EXPECT_LT(client.serverClockOffsetNs(), 1'000'000'000ll);
    EXPECT_GT(client.serverClockOffsetNs(), -1'000'000'000ll);
}

TEST(NetVersion, SampledAmbientContextRidesTheRequest)
{
    const std::string endpoint = udsEndpoint("traced");
    TestGateway gateway(endpoint);

    ClientConfig config;
    config.endpoint = endpoint;
    NetClient client(config);
    ASSERT_TRUE(client.ping());

    // A sampled ambient context makes the client emit traced frames;
    // the server adopts the context around the handler. The request
    // must round-trip exactly as an untraced one does.
    obs::TraceContext ctx;
    ctx.traceId = obs::traceIdFromSeed(42);
    ctx.spanId = obs::newSpanId();
    ctx.sampled = true;
    obs::TraceScope scope(ctx);

    const LoadInfo info = client.makeInfo(0x1000, 0);
    auto pred = client.predict(info);
    ASSERT_TRUE(pred) << pred.error().str();
    ASSERT_TRUE(client.train(info, 0x2000, *pred));
    EXPECT_EQ(client.counters().wrongReplies, 0u);
    EXPECT_EQ(client.counters().transportErrors, 0u);
}

// --- Per-request stage decomposition ------------------------------

TEST(NetStage, StageDecompositionConservesExactly)
{
    const std::string endpoint = udsEndpoint("stages");
    TestGateway gateway(endpoint);

    ClientConfig config;
    config.endpoint = endpoint;
    NetClient client(config);
    // Connect + handshake before the reset. The ping's own stage record
    // lands after its Pong is sent, so wait for it: a reset that races
    // it would leave a 33rd record, or half of one.
    auto &total_ns = obs::histogram("net.stage.total_ns");
    const std::uint64_t before = total_ns.snapshot().count;
    ASSERT_TRUE(client.ping());
    for (int spin = 0; spin < 2000 && total_ns.snapshot().count == before;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    obs::resetMetricsForTest();
    constexpr std::uint64_t kRequests = 32;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        auto pred = client.predict(client.makeInfo(0x1000 + 8 * i, 0));
        ASSERT_TRUE(pred);
    }

    // The server stamps the stage histograms after flushing the reply,
    // so the last record can land just after the client sees PredictOk;
    // wait for the connection thread to catch up before snapshotting.
    for (int spin = 0; spin < 2000; ++spin) {
        if (obs::histogram("net.stage.total_ns").snapshot().count >=
            kRequests)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const auto decode =
        obs::histogram("net.stage.decode_ns").snapshot();
    const auto handle =
        obs::histogram("net.stage.handle_ns").snapshot();
    const auto encode =
        obs::histogram("net.stage.encode_ns").snapshot();
    const auto residual =
        obs::histogram("net.stage.residual_ns").snapshot();
    const auto total = obs::histogram("net.stage.total_ns").snapshot();

    // One record per request in every stage...
    EXPECT_EQ(decode.count, kRequests);
    EXPECT_EQ(handle.count, kRequests);
    EXPECT_EQ(encode.count, kRequests);
    EXPECT_EQ(residual.count, kRequests);
    EXPECT_EQ(total.count, kRequests);
    // ...and the conservation identity holds exactly: the stages are
    // consecutive stamps of one clock with the gap made explicit as
    // residual, so nothing is double-counted or dropped.
    EXPECT_EQ(total.sum,
              decode.sum + handle.sum + encode.sum + residual.sum);
    EXPECT_GT(total.sum, 0u);
}

// --- Remote observability scrape ----------------------------------

TEST(NetObs, RemoteScrapeReturnsStructuredJson)
{
    const std::string endpoint = udsEndpoint("obsfetch");
    TestGateway gateway(endpoint);

    ClientConfig config;
    config.endpoint = endpoint;
    NetClient client(config);
    for (int i = 0; i < 8; ++i) {
        const LoadInfo info = client.makeInfo(0x2000, 0);
        auto pred = client.predict(info);
        ASSERT_TRUE(pred);
        ASSERT_TRUE(client.train(info, 0x3000 + 64ull * i, *pred));
    }

    auto full = client.fetchObs(/*include_timing=*/true);
    ASSERT_TRUE(full) << full.error().str();
    const auto parsed = parseJson(*full);
    ASSERT_TRUE(parsed) << parsed.error().str();
    EXPECT_EQ(parsed->stringOr("server", ""), "clapd");
    const JsonValue *metrics = parsed->find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_NE(metrics->find("counters"), nullptr);
    const JsonValue *shards = parsed->find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_EQ(shards->kind, JsonValue::Kind::Array);
    EXPECT_EQ(shards->items.size(), 2u);
    // Timing sections (the wall-clock histograms) ride along only
    // when asked for.
    EXPECT_NE(parsed->find("timing"), nullptr);

    auto stable = client.fetchObs(/*include_timing=*/false);
    ASSERT_TRUE(stable) << stable.error().str();
    const auto stableParsed = parseJson(*stable);
    ASSERT_TRUE(stableParsed) << stableParsed.error().str();
    EXPECT_EQ(stableParsed->find("timing"), nullptr);
    ASSERT_NE(stableParsed->find("shards"), nullptr);
}

} // namespace
} // namespace clap::net

/**
 * @file
 * Distributed sweep service (DESIGN.md §17): config-spec round-trips,
 * wire-protocol tolerance, the JobBoard lease queue, and end-to-end
 * coordinator/worker sweeps that must merge byte-identically to a
 * single-process run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common/errors.hh"
#include "sim/config_fields.hh"
#include "sim/fault_injector.hh"
#include "sim/journal.hh"
#include "sim/shard.hh"
#include "sim/sweep.hh"
#include "sim/worker_proto.hh"

using namespace sciq;

namespace {

std::string
testSocket(const std::string &tag)
{
    // Keep well under the sockaddr_un sun_path limit.
    return "/tmp/sciq-" + tag + "-" + std::to_string(::getpid()) +
           ".sock";
}

std::vector<SimConfig>
smallConfigSet()
{
    std::vector<SimConfig> cfgs;
    for (const auto &wl : {"swim", "gcc"}) {
        for (unsigned size : {32u, 64u}) {
            SimConfig seg = makeSegmentedConfig(size, 32, true, true, wl);
            seg.wl.iterations = 200;
            cfgs.push_back(seg);
        }
        SimConfig ideal = makeIdealConfig(64, wl);
        ideal.wl.iterations = 200;
        cfgs.push_back(ideal);
    }
    return cfgs;
}

void
expectSameBits(double a, double b, const char *field, std::size_t i)
{
    std::uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ab, bb) << field << " differs (" << a << " vs " << b
                      << ") config " << i;
}

/** writeResultsJson with the host wall-clock lines removed. */
std::string
maskedResultsJson(const std::vector<RunResult> &results)
{
    std::ostringstream os;
    writeResultsJson(os, results);
    static const char *masked[] = {
        "\"host_seconds\"", "\"host_kcycles_per_sec\"",
        "\"host_kinsts_per_sec\"", "\"warm_seconds\"",
        "\"warm_insts_per_sec\"",
    };
    std::istringstream is(os.str());
    std::string out, line;
    while (std::getline(is, line)) {
        bool skip = false;
        for (const char *m : masked)
            skip = skip || line.find(m) != std::string::npos;
        if (!skip)
            out += line + "\n";
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Config specs

TEST(Shard, ConfigSpecRoundTripsEveryIqKind)
{
    std::vector<SimConfig> cfgs;
    cfgs.push_back(makeSegmentedConfig(128, 16, true, false, "swim"));
    cfgs.push_back(makeIdealConfig(64, "gcc"));
    cfgs.push_back(makePrescheduledConfig(96, "twolf"));
    cfgs.push_back(makeFifoConfig(8, 16, "equake"));
    cfgs[0].fastForward = 5000;
    cfgs[0].validate = true;
    cfgs[1].audit = true;
    cfgs[2].core.iq.preschedLineWidth = 7;
    cfgs[3].core.iq.fifoDepth = 16;
    cfgs[3].validate = false;
    for (SimConfig &cfg : cfgs)
        cfg.wl.scale = 0.123456789;  // 6 significant digits would lose it

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const std::string spec = configSpec(cfgs[i]);
        const SimConfig back = configFromSpec(spec);
        // The spec must reproduce every Identity and Job field of the
        // table exactly, doubles included, and be a fixpoint.
        EXPECT_EQ(back.wl.scale, 0.123456789) << "config " << i;
        const unsigned wire = ConfigClass::Identity | ConfigClass::Job;
        EXPECT_EQ(configString(back, wire), configString(cfgs[i], wire))
            << "config " << i;
        EXPECT_EQ(sweepKey(back), sweepKey(cfgs[i])) << "config " << i;
        EXPECT_EQ(configSpec(back), spec) << "config " << i;
    }
}

TEST(Shard, ConfigFromSpecRejectsUnknownKey)
{
    // A typo'd key must not silently run the default configuration.
    try {
        configFromSpec("workload=swim chians=64");
        FAIL() << "typo'd key accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'chains'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ConfigFields, SweepFlagKeepsTheFrontEndKeys)
{
    // The keys a bench applies to every job, and sweep_serve's preset
    // overrides.  Flagging another key widens both front ends.
    const std::vector<std::string> bench = {
        "iters",           "ff",       "audit",       "audit_panic",
        "watchdog_cycles", "ckpt_dir", "deadline_sec"};
    EXPECT_EQ(configKeys(ConfigClass::All, ConfigClass::Sweep), bench);
    EXPECT_EQ(configKeys(ConfigClass::Identity, ConfigClass::Sweep),
              (std::vector<std::string>{"iters", "ff"}));
}

TEST(Shard, ConfigFromSpecRejectsJunk)
{
    EXPECT_THROW(configFromSpec("workload=swim not-a-kv-token"),
                 ConfigError);
    EXPECT_THROW(configFromSpec("iq=bogus"), ConfigError);
}

// ---------------------------------------------------------------------
// Wire protocol

TEST(WorkerProto, MessagesRoundTrip)
{
    Message hello;
    hello.type = MsgType::Hello;
    hello.proto = kWorkerProtoVersion;
    hello.worker = "w\"0\n";  // hostile name: quotes and newline
    Message out;
    ASSERT_TRUE(decodeMessage(encodeMessage(hello), out));
    EXPECT_EQ(out.type, MsgType::Hello);
    EXPECT_EQ(out.proto, hello.proto);
    EXPECT_EQ(out.worker, hello.worker);

    Message welcome;
    welcome.type = MsgType::Welcome;
    welcome.proto = 1;
    welcome.jobs = 42;
    welcome.leaseMs = 60'000;
    welcome.heartbeatMs = 1'000;
    ASSERT_TRUE(decodeMessage(encodeMessage(welcome), out));
    EXPECT_EQ(out.type, MsgType::Welcome);
    EXPECT_EQ(out.jobs, 42u);
    EXPECT_EQ(out.leaseMs, 60'000u);
    EXPECT_EQ(out.heartbeatMs, 1'000u);

    Message ack;
    ack.type = MsgType::ResultAck;
    ack.index = 9;
    ASSERT_TRUE(decodeMessage(encodeMessage(ack), out));
    EXPECT_EQ(out.type, MsgType::ResultAck);
    EXPECT_EQ(out.index, 9u);

    for (const MsgType t : {MsgType::Ping, MsgType::Pong}) {
        Message hb;
        hb.type = t;
        hb.seq = 123456789012345ull;
        ASSERT_TRUE(decodeMessage(encodeMessage(hb), out));
        EXPECT_EQ(out.type, t);
        EXPECT_EQ(out.seq, 123456789012345ull);
    }

    Message lease;
    lease.type = MsgType::Lease;
    lease.index = 7;
    lease.key = "workload=swim iters=200";
    lease.spec = lease.key + " validate=0";
    ASSERT_TRUE(decodeMessage(encodeMessage(lease), out));
    EXPECT_EQ(out.type, MsgType::Lease);
    EXPECT_EQ(out.index, 7u);
    EXPECT_EQ(out.key, lease.key);
    EXPECT_EQ(out.spec, lease.spec);

    for (const MsgType t :
         {MsgType::LeaseReq, MsgType::Drain}) {
        Message bare;
        bare.type = t;
        ASSERT_TRUE(decodeMessage(encodeMessage(bare), out));
        EXPECT_EQ(out.type, t);
    }

    Message wait;
    wait.type = MsgType::Wait;
    wait.waitMs = 250;
    ASSERT_TRUE(decodeMessage(encodeMessage(wait), out));
    EXPECT_EQ(out.type, MsgType::Wait);
    EXPECT_EQ(out.waitMs, 250u);

    Message reject;
    reject.type = MsgType::Reject;
    reject.reason = "version mismatch";
    ASSERT_TRUE(decodeMessage(encodeMessage(reject), out));
    EXPECT_EQ(out.type, MsgType::Reject);
    EXPECT_EQ(out.reason, reject.reason);
}

TEST(WorkerProto, ResultPayloadRoundTripsDoublesBitForBit)
{
    Message res;
    res.type = MsgType::Result;
    res.index = 3;
    res.key = "workload=swim iters=200";
    res.result.workload = "swim";
    res.result.iqKind = "segmented";
    res.result.iqSize = 64;
    res.result.ipc = 1.0 / 3.0;
    res.result.hmpAccuracy = std::nan("");  // undefined rate
    res.result.outcome.status = JobOutcome::Status::Ok;

    Message out;
    ASSERT_TRUE(decodeMessage(encodeMessage(res), out));
    EXPECT_EQ(out.index, 3u);
    EXPECT_EQ(out.result.workload, "swim");
    EXPECT_EQ(out.result.iqSize, 64u);
    expectSameBits(out.result.ipc, res.result.ipc, "ipc", 0);
    EXPECT_TRUE(std::isnan(out.result.hmpAccuracy));
}

TEST(WorkerProto, TornAndMalformedLinesAreTolerated)
{
    Message res;
    res.type = MsgType::Result;
    res.index = 1;
    res.key = "k";
    res.result.ipc = 0.5;
    const std::string full = encodeMessage(res);

    Message out;
    // Every strict prefix is a torn line a killed worker could leave.
    for (std::size_t len = 0; len < full.size(); ++len)
        EXPECT_FALSE(decodeMessage(full.substr(0, len), out))
            << "prefix length " << len;
    EXPECT_TRUE(decodeMessage(full, out));

    EXPECT_FALSE(decodeMessage("", out));
    EXPECT_FALSE(decodeMessage("not json at all", out));
    EXPECT_FALSE(decodeMessage("{\"type\":\"no-such-type\"}", out));
    EXPECT_FALSE(decodeMessage("{\"type\":\"lease\"}", out));
}

TEST(WorkerProto, OutOfRangeNumbersAreMalformedNotNarrowed)
{
    // Narrowing a hostile number would be UB; decode must say no.
    Message out;
    EXPECT_FALSE(decodeMessage(
        "{\"type\":\"result_ack\",\"index\":-1}", out));
    EXPECT_FALSE(decodeMessage(
        "{\"type\":\"result_ack\",\"index\":1.5}", out));
    EXPECT_FALSE(decodeMessage(
        "{\"type\":\"result_ack\",\"index\":1e300}", out));
    EXPECT_FALSE(decodeMessage(
        "{\"type\":\"hello\",\"proto\":-2,\"worker\":\"w\"}", out));
    EXPECT_FALSE(decodeMessage(
        "{\"type\":\"hello\",\"proto\":4294967296,\"worker\":\"w\"}",
        out));
    EXPECT_FALSE(decodeMessage(
        "{\"type\":\"wait\",\"ms\":\"soon\"}", out));
    // In-range values still decode.
    EXPECT_TRUE(decodeMessage(
        "{\"type\":\"result_ack\",\"index\":4294967295}", out));
    EXPECT_EQ(out.index, 4294967295u);
}

// ---------------------------------------------------------------------
// Endpoints

TEST(Endpoint, TcpSpecsParseAndReject)
{
    Endpoint ep = tcpEndpoint("127.0.0.1:7070");
    EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 7070u);
    EXPECT_EQ(ep.str(), "127.0.0.1:7070");

    ep = tcpEndpoint("[::1]:9000");
    EXPECT_EQ(ep.host, "::1");
    EXPECT_EQ(ep.port, 9000u);

    ep = tcpEndpoint("build-box:0");
    EXPECT_EQ(ep.host, "build-box");
    EXPECT_EQ(ep.port, 0u);

    EXPECT_THROW(tcpEndpoint("no-port"), ConfigError);
    EXPECT_THROW(tcpEndpoint(":7070"), ConfigError);
    EXPECT_THROW(tcpEndpoint("host:"), ConfigError);
    EXPECT_THROW(tcpEndpoint("host:notaport"), ConfigError);
    EXPECT_THROW(tcpEndpoint("host:70000"), ConfigError);
    EXPECT_THROW(tcpEndpoint("::1:7070"), ConfigError)
        << "raw v6 needs brackets";
    EXPECT_THROW(tcpEndpoint("[::1]7070"), ConfigError);
}

TEST(Endpoint, ParseAutoDetectsKind)
{
    EXPECT_EQ(parseEndpoint("/tmp/x.sock").kind, Endpoint::Kind::Unix);
    EXPECT_EQ(parseEndpoint("relative.sock").kind,
              Endpoint::Kind::Unix);
    EXPECT_EQ(parseEndpoint("localhost:80").kind, Endpoint::Kind::Tcp);
    // A colon without a '/' is claimed by TCP; junk after it is loud.
    EXPECT_THROW(parseEndpoint("host:junk"), ConfigError);
}

TEST(Endpoint, TcpLoopbackListenConnectRoundTrip)
{
    Endpoint listen = tcpEndpoint("127.0.0.1:0");
    const int lfd = listenEndpoint(listen);
    ASSERT_GE(lfd, 0);
    const unsigned port = boundPort(lfd);
    ASSERT_GT(port, 0u);

    Endpoint peer = tcpEndpoint("127.0.0.1:" + std::to_string(port));
    const int cfd = connectEndpoint(peer, 5'000);
    ASSERT_GE(cfd, 0);
    const int afd = acceptConn(lfd);
    ASSERT_GE(afd, 0);

    LineChannel client(cfd), server(afd);
    ASSERT_TRUE(client.sendLine("over tcp"));
    std::string line;
    ASSERT_TRUE(server.recvLine(line, 5'000));
    EXPECT_EQ(line, "over tcp");
    ::close(lfd);
}

// ---------------------------------------------------------------------
// JobBoard lease state machine (fake clock, no sockets)

namespace {

JobBoard::Clock::time_point
t0()
{
    return JobBoard::Clock::time_point() + std::chrono::hours(1);
}

} // namespace

TEST(JobBoard, LeasesInInputOrderOneHolderPerJob)
{
    // One in-order queue: a grant is always the lowest-index job that
    // is neither done nor leased, a job has at most one holder, and a
    // lost lease costs its job exactly one drop.
    enum class Op { Lease, Complete, Lose };
    struct Step
    {
        const char *what;
        Op op;
        int arg;  ///< worker (Lease, Lose) or job index (Complete)
        JobBoard::Grant grant = JobBoard::Grant::Leased;
        std::size_t index = 0;  ///< expected grant (Lease)
        std::vector<std::size_t> requeued = {}, failed = {};  ///< Lose
        unsigned hoursLater = 0;
    };
    using G = JobBoard::Grant;
    const Step steps[] = {
        {"input order", Op::Lease, 1, G::Leased, 0},
        {"input order", Op::Lease, 2, G::Leased, 1},
        {"input order", Op::Lease, 3, G::Leased, 2},
        {"done", Op::Complete, 1},
        {"one drop requeues", Op::Lose, 1, G::Leased, 0, {0}, {}},
        {"requeued job before higher index", Op::Lease, 2, G::Leased, 0},
        {"input order", Op::Lease, 4, G::Leased, 3},
        {"all in flight: no duplicate", Op::Lease, 5, G::Wait, 0, {}, {},
         3},
        {"second drop hits the cap", Op::Lose, 2, G::Leased, 0, {}, {0}},
        {"no lease, no drop", Op::Lose, 2, G::Leased, 0, {}, {}},
        {"done", Op::Complete, 2},
        {"done", Op::Complete, 3},
        {"drained", Op::Lease, 5, G::Drained, 0},
    };

    JobBoard::Options options;
    options.maxLeaseDrops = 1;
    JobBoard board(std::vector<char>(4, 0), options);
    for (const Step &step : steps) {
        SCOPED_TRACE(step.what);
        switch (step.op) {
          case Op::Lease: {
            std::size_t index = 99;
            ASSERT_EQ(board.lease(step.arg,
                                  t0() + std::chrono::hours(
                                             step.hoursLater),
                                  index),
                      step.grant);
            if (step.grant == G::Leased) {
                EXPECT_EQ(index, step.index);
            }
            break;
          }
          case Op::Complete:
            EXPECT_TRUE(board.complete(step.arg));
            break;
          case Op::Lose: {
            std::vector<std::size_t> requeued, failed;
            board.workerLost(step.arg, requeued, failed);
            EXPECT_EQ(requeued, step.requeued);
            EXPECT_EQ(failed, step.failed);
            break;
          }
        }
    }
    EXPECT_TRUE(board.allDone());
    EXPECT_EQ(board.leases(), 5u);
    EXPECT_EQ(board.requeues(), 1u);
}

TEST(JobBoard, CompleteIsIdempotentAndDrains)
{
    JobBoard board(std::vector<char>(2, 0), {});
    std::size_t index = 0;
    ASSERT_EQ(board.lease(1, t0(), index), JobBoard::Grant::Leased);
    EXPECT_TRUE(board.complete(index));
    EXPECT_FALSE(board.complete(index)) << "duplicate result must lose";
    ASSERT_EQ(board.lease(1, t0(), index), JobBoard::Grant::Leased);
    EXPECT_TRUE(board.complete(index));
    EXPECT_TRUE(board.allDone());
    EXPECT_EQ(board.lease(1, t0(), index),
              JobBoard::Grant::Drained);
}

TEST(JobBoard, JournalDoneJobsAreNeverLeased)
{
    std::vector<char> done = {1, 0, 1};
    JobBoard board(done, {});
    std::size_t index = 99;
    ASSERT_EQ(board.lease(1, t0(), index), JobBoard::Grant::Leased);
    EXPECT_EQ(index, 1u);
    EXPECT_TRUE(board.complete(1));
    EXPECT_TRUE(board.allDone());
}

TEST(JobBoard, ExpiryRequeuesWithoutLossOrDuplication)
{
    JobBoard::Options options;
    options.leaseMs = 1000;
    JobBoard board(std::vector<char>(2, 0), options);

    std::size_t a = 0, b = 0;
    ASSERT_EQ(board.lease(1, t0(), a), JobBoard::Grant::Leased);
    ASSERT_EQ(board.lease(1, t0(), b), JobBoard::Grant::Leased);
    EXPECT_NE(a, b);

    // Nothing expires before the deadline.
    std::vector<std::size_t> requeued, failed;
    board.expireLeases(t0() + std::chrono::milliseconds(999), requeued,
                       failed);
    EXPECT_TRUE(requeued.empty());
    EXPECT_TRUE(failed.empty());

    // Both leases expire exactly once; the jobs come back leasable.
    board.expireLeases(t0() + std::chrono::milliseconds(1001), requeued,
                       failed);
    EXPECT_EQ(requeued.size(), 2u);
    EXPECT_TRUE(failed.empty());
    EXPECT_EQ(board.requeues(), 2u);
    EXPECT_FALSE(board.allDone());

    std::size_t again = 99;
    const auto later = t0() + std::chrono::milliseconds(2000);
    ASSERT_EQ(board.lease(2, later, again), JobBoard::Grant::Leased);
    EXPECT_TRUE(board.complete(again));
    ASSERT_EQ(board.lease(2, later, again), JobBoard::Grant::Leased);
    EXPECT_TRUE(board.complete(again));
    EXPECT_TRUE(board.allDone()) << "requeue lost or duplicated a job";
}

TEST(JobBoard, RepeatedDropsFailTheJob)
{
    JobBoard::Options options;
    options.leaseMs = 10;
    options.maxLeaseDrops = 2;
    JobBoard board(std::vector<char>(1, 0), options);

    auto now = t0();
    for (unsigned round = 0; round < 3; ++round) {
        std::size_t index = 0;
        ASSERT_EQ(board.lease(1, now, index),
                  JobBoard::Grant::Leased);
        std::vector<std::size_t> requeued, failed;
        now += std::chrono::milliseconds(11);
        board.expireLeases(now, requeued, failed);
        if (round < 2) {
            EXPECT_EQ(requeued.size(), 1u) << "round " << round;
            EXPECT_TRUE(failed.empty()) << "round " << round;
        } else {
            EXPECT_TRUE(requeued.empty());
            ASSERT_EQ(failed.size(), 1u);
            EXPECT_EQ(failed[0], 0u);
        }
    }
    EXPECT_TRUE(board.allDone()) << "drop cap must contain the job";
}

TEST(JobBoard, WorkerLossDropsOnlyOrphanedJobs)
{
    JobBoard board(std::vector<char>(2, 0), {});

    std::size_t a = 99, b = 99;
    ASSERT_EQ(board.lease(1, t0(), a), JobBoard::Grant::Leased);
    ASSERT_EQ(board.lease(2, t0(), b), JobBoard::Grant::Leased);
    EXPECT_TRUE(board.complete(b));
    std::size_t none = 99;
    ASSERT_EQ(board.lease(3, t0(), none), JobBoard::Grant::Wait);

    // Losing a worker that holds no lease, or whose job is already
    // done, orphans nothing, so no drop is charged.
    std::vector<std::size_t> requeued, failed;
    board.workerLost(3, requeued, failed);
    board.workerLost(2, requeued, failed);
    EXPECT_TRUE(requeued.empty());
    EXPECT_TRUE(failed.empty());
    EXPECT_EQ(board.requeues(), 0u);

    // Losing the holder of the in-flight job orphans it: one requeue.
    board.workerLost(1, requeued, failed);
    EXPECT_EQ(requeued, std::vector<std::size_t>{a});
    EXPECT_TRUE(failed.empty());
    EXPECT_EQ(board.requeues(), 1u);

    std::size_t again = 99;
    ASSERT_EQ(board.lease(3, t0(), again), JobBoard::Grant::Leased);
    EXPECT_EQ(again, a);
}

// ---------------------------------------------------------------------
// End-to-end coordinator/worker sweeps (in-process threads)

namespace {

ServeOptions
quickServeOptions(const std::string &endpoint)
{
    ServeOptions options;
    options.endpoint = endpoint;
    options.leaseMs = 60'000;
    options.workerGraceMs = 30'000;
    return options;
}

WorkerOptions
quickWorkerOptions(const std::string &endpoint, const std::string &name)
{
    WorkerOptions options;
    options.endpoint = endpoint;
    options.name = name;
    options.backoffMs = 0;
    return options;
}

/** Raw-client receive that skips heartbeat traffic. */
bool
recvSkippingHeartbeats(LineChannel &ch, Message &msg, unsigned timeout_ms)
{
    std::string line;
    while (ch.recvLine(line, timeout_ms)) {
        if (!decodeMessage(line, msg))
            continue;
        if (msg.type == MsgType::Ping || msg.type == MsgType::Pong)
            continue;
        return true;
    }
    return false;
}

} // namespace

TEST(ServeSweep, DistributedMatchesSingleProcessByteForByte)
{
    const std::vector<SimConfig> cfgs = smallConfigSet();
    const std::vector<RunResult> ref = SweepRunner(1).run(cfgs);

    const std::string socket = testSocket("e2e");
    ServeStats stats;
    std::vector<RunResult> dist;
    std::thread coord([&] {
        dist = serveSweep(cfgs, quickServeOptions(socket), &stats);
    });
    std::thread w0(
        [&] { runWorker(quickWorkerOptions(socket, "w0")); });
    std::thread w1(
        [&] { runWorker(quickWorkerOptions(socket, "w1")); });
    w0.join();
    w1.join();
    coord.join();

    ASSERT_EQ(dist.size(), ref.size());
    EXPECT_EQ(stats.workersSeen, 2u);
    EXPECT_GE(stats.leases, cfgs.size());
    for (const RunResult &r : dist)
        EXPECT_TRUE(r.outcome.ok()) << r.outcome.message;
    // The merge contract: identical bytes up to wall-clock fields.
    EXPECT_EQ(maskedResultsJson(dist), maskedResultsJson(ref));
}

TEST(ServeSweep, ResumesFromJournalWithoutRerunning)
{
    const std::vector<SimConfig> cfgs = smallConfigSet();
    const std::string socket = testSocket("resume");
    const std::string journal =
        "/tmp/sciq-resume-" + std::to_string(::getpid()) + ".jsonl";
    ::unlink(journal.c_str());

    ServeOptions options = quickServeOptions(socket);
    options.journal = journal;

    std::vector<RunResult> first;
    std::thread coord(
        [&] { first = serveSweep(cfgs, options, nullptr); });
    std::thread w0(
        [&] { runWorker(quickWorkerOptions(socket, "w0")); });
    w0.join();
    coord.join();

    // Second serve: every job is already journaled, so the sweep
    // drains without a single lease (and without any worker).
    ServeStats stats;
    std::vector<RunResult> second;
    std::thread coord2(
        [&] { second = serveSweep(cfgs, options, &stats); });
    coord2.join();
    EXPECT_EQ(stats.leases, 0u);
    EXPECT_EQ(maskedResultsJson(second), maskedResultsJson(first));
    ::unlink(journal.c_str());
}

TEST(ServeSweep, RejectsVersionMismatchedWorkers)
{
    std::vector<SimConfig> cfgs = {makeIdealConfig(64, "swim")};
    cfgs[0].wl.iterations = 100;

    const std::string socket = testSocket("proto");
    ServeStats stats;
    std::thread coord([&] {
        serveSweep(cfgs, quickServeOptions(socket), &stats);
    });

    // A worker from a different build speaks a different version; the
    // coordinator must refuse it instead of merging its results.
    {
        LineChannel ch(connectUnix(socket, 10'000));
        Message hello;
        hello.type = MsgType::Hello;
        hello.proto = kWorkerProtoVersion + 1;
        hello.worker = "time-traveller";
        ASSERT_TRUE(ch.sendLine(encodeMessage(hello)));
        Message reply;
        ASSERT_TRUE(recvSkippingHeartbeats(ch, reply, 10'000));
        EXPECT_EQ(reply.type, MsgType::Reject);
        EXPECT_NE(reply.reason.find("version"), std::string::npos);
    }

    // A current-version worker still drains the sweep.
    WorkerReport report = runWorker(quickWorkerOptions(socket, "ok"));
    coord.join();
    EXPECT_TRUE(report.drained) << report.error;
    EXPECT_EQ(stats.rejectedWorkers, 1u);
}

TEST(ServeSweep, DeadWorkerLeaseIsRequeuedWithoutLossOrDuplication)
{
    const std::vector<SimConfig> cfgs = smallConfigSet();
    const std::vector<RunResult> ref = SweepRunner(1).run(cfgs);

    const std::string socket = testSocket("death");
    ServeOptions options = quickServeOptions(socket);
    ServeStats stats;
    std::vector<RunResult> dist;
    std::thread coord(
        [&] { dist = serveSweep(cfgs, options, &stats); });

    // A worker that leases one job and dies with the result unsent:
    // connection EOF must requeue the lease.
    {
        LineChannel ch(connectUnix(socket, 10'000));
        Message hello;
        hello.type = MsgType::Hello;
        hello.proto = kWorkerProtoVersion;
        hello.worker = "doomed";
        ASSERT_TRUE(ch.sendLine(encodeMessage(hello)));
        Message welcome;
        ASSERT_TRUE(recvSkippingHeartbeats(ch, welcome, 10'000));
        ASSERT_EQ(welcome.type, MsgType::Welcome);
        Message req;
        req.type = MsgType::LeaseReq;
        ASSERT_TRUE(ch.sendLine(encodeMessage(req)));
        Message lease;
        ASSERT_TRUE(recvSkippingHeartbeats(ch, lease, 10'000));
        ASSERT_EQ(lease.type, MsgType::Lease);
        // kill -9 equivalent: drop the connection, lease outstanding.
    }

    WorkerReport report = runWorker(quickWorkerOptions(socket, "w0"));
    coord.join();
    EXPECT_TRUE(report.drained) << report.error;
    EXPECT_EQ(stats.requeues, 1u);
    EXPECT_EQ(stats.boardFailed, 0u);
    EXPECT_EQ(maskedResultsJson(dist), maskedResultsJson(ref));
}

TEST(ServeSweep, FaultInjectedWorkerAbortIsRecovered)
{
    const std::vector<SimConfig> cfgs = smallConfigSet();
    const std::vector<RunResult> ref = SweepRunner(1).run(cfgs);

    const std::string socket = testSocket("chaos");
    ServeStats stats;
    std::vector<RunResult> dist;
    std::thread coord([&] {
        dist = serveSweep(cfgs, quickServeOptions(socket), &stats);
    });

    // Deterministic chaos: the seeded budget makes this worker die in
    // place of sending its first result: it drops the connection.
    WorkerOptions chaotic = quickWorkerOptions(socket, "chaotic");
    chaotic.faults = std::make_shared<FaultInjector>(42);
    chaotic.faults->abortWorker = 1;

    WorkerReport chaosReport;
    std::thread w0([&] { chaosReport = runWorker(chaotic); });
    w0.join();
    EXPECT_TRUE(chaosReport.aborted);
    EXPECT_EQ(chaotic.faults->workerAborts(), 1u);

    WorkerReport report = runWorker(quickWorkerOptions(socket, "w1"));
    coord.join();
    EXPECT_TRUE(report.drained) << report.error;
    EXPECT_GE(stats.requeues, 1u);
    EXPECT_EQ(stats.boardFailed, 0u);
    EXPECT_EQ(maskedResultsJson(dist), maskedResultsJson(ref));
}

TEST(ServeSweep, RejectsWallClockDeadlineJobs)
{
    std::vector<SimConfig> cfgs = {makeIdealConfig(64, "swim")};
    cfgs[0].deadlineSec = 1.0;
    EXPECT_THROW(
        serveSweep(cfgs, quickServeOptions(testSocket("dl"))),
        ConfigError);
}

TEST(ServeSweep, TcpLoopbackMatchesSingleProcessByteForByte)
{
    const std::vector<SimConfig> cfgs = smallConfigSet();
    const std::vector<RunResult> ref = SweepRunner(1).run(cfgs);

    // Bind port 0 and pick up the kernel-assigned port: no fixed-port
    // collisions between parallel test runs.
    ServeOptions options = quickServeOptions("127.0.0.1:0");
    std::atomic<unsigned> port{0};
    options.boundPortOut = &port;

    ServeStats stats;
    std::vector<RunResult> dist;
    std::thread coord([&] { dist = serveSweep(cfgs, options, &stats); });
    while (port == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::string peer = "127.0.0.1:" + std::to_string(port);

    WorkerReport r0, r1;
    std::thread w0([&] { r0 = runWorker(quickWorkerOptions(peer, "w0")); });
    std::thread w1([&] { r1 = runWorker(quickWorkerOptions(peer, "w1")); });
    w0.join();
    w1.join();
    coord.join();

    EXPECT_TRUE(r0.drained) << r0.error;
    EXPECT_TRUE(r1.drained) << r1.error;
    EXPECT_EQ(stats.workersSeen, 2u);
    EXPECT_EQ(maskedResultsJson(dist), maskedResultsJson(ref));
}

// ---------------------------------------------------------------------
// Handshake failure containment (satellite: skew + torn Welcome)

namespace {

/** A minimal scripted coordinator for handshake-failure tests. */
struct FakeCoordinator
{
    int lfd = -1;
    unsigned port = 0;
    std::thread thread;

    explicit FakeCoordinator(std::function<void(int fd)> script)
    {
        lfd = listenEndpoint(tcpEndpoint("127.0.0.1:0"));
        port = boundPort(lfd);
        thread = std::thread([this, script = std::move(script)] {
            const int fd = ::accept(lfd, nullptr, nullptr);
            if (fd >= 0)
                script(fd);
        });
    }

    ~FakeCoordinator()
    {
        if (thread.joinable())
            thread.join();
        ::close(lfd);
    }

    std::string endpoint() const
    {
        return "127.0.0.1:" + std::to_string(port);
    }
};

/** Read one line (the hello) off a raw fd. */
void
eatLine(int fd)
{
    char c = 0;
    while (::read(fd, &c, 1) == 1 && c != '\n') {
    }
}

} // namespace

TEST(Handshake, WorkerRejectsSkewedCoordinatorWithoutHanging)
{
    // A coordinator from a different build welcomes with the wrong
    // proto version: the worker must classify and stop, not merge.
    FakeCoordinator fake([](int fd) {
        eatLine(fd);
        Message welcome;
        welcome.type = MsgType::Welcome;
        welcome.proto = kWorkerProtoVersion + 1;
        const std::string line = encodeMessage(welcome) + "\n";
        (void)!::write(fd, line.data(), line.size());
        ::close(fd);
    });

    WorkerOptions options = quickWorkerOptions(fake.endpoint(), "w0");
    options.maxReconnects = 0;
    options.replyTimeoutMs = 5'000;
    const WorkerReport report = runWorker(options);
    EXPECT_FALSE(report.drained);
    EXPECT_NE(report.error.find("unexpected handshake reply"),
              std::string::npos)
        << report.error;
}

TEST(Handshake, RejectIsPermanentNotRetried)
{
    FakeCoordinator fake([](int fd) {
        eatLine(fd);
        Message reject;
        reject.type = MsgType::Reject;
        reject.reason = "protocol version mismatch";
        const std::string line = encodeMessage(reject) + "\n";
        (void)!::write(fd, line.data(), line.size());
        ::close(fd);
    });

    WorkerOptions options = quickWorkerOptions(fake.endpoint(), "w0");
    options.maxReconnects = 5;  // must NOT be consumed by a reject
    options.replyTimeoutMs = 5'000;
    const WorkerReport report = runWorker(options);
    EXPECT_EQ(report.reconnects, 0u);
    EXPECT_NE(report.error.find("rejected by coordinator"),
              std::string::npos)
        << report.error;
}

TEST(Handshake, TornWelcomeIsContainedOnTheWorkerSide)
{
    // The coordinator dies mid-Welcome: the worker sees a torn line
    // then EOF, and must come back with a classified error quickly.
    FakeCoordinator fake([](int fd) {
        eatLine(fd);
        Message welcome;
        welcome.type = MsgType::Welcome;
        welcome.proto = kWorkerProtoVersion;
        const std::string line = encodeMessage(welcome);
        (void)!::write(fd, line.data(), line.size() / 2);  // no '\n'
        ::close(fd);
    });

    WorkerOptions options = quickWorkerOptions(fake.endpoint(), "w0");
    options.maxReconnects = 0;
    options.connectTimeoutMs = 2'000;
    options.replyTimeoutMs = 5'000;
    const auto start = std::chrono::steady_clock::now();
    const WorkerReport report = runWorker(options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(report.drained);
    EXPECT_NE(report.error.find("no handshake reply"),
              std::string::npos)
        << report.error;
    EXPECT_LT(elapsed, std::chrono::seconds(5)) << "must not hang";
}

TEST(Handshake, TornHelloIsContainedOnTheCoordinatorSide)
{
    // The worker dies mid-Hello: the coordinator must drop the torn
    // connection and still serve a real worker afterwards.
    std::vector<SimConfig> cfgs = {makeIdealConfig(64, "swim")};
    cfgs[0].wl.iterations = 100;

    const std::string socket = testSocket("tornhello");
    ServeStats stats;
    std::thread coord([&] {
        serveSweep(cfgs, quickServeOptions(socket), &stats);
    });

    {
        LineChannel ch(connectUnix(socket, 10'000));
        Message hello;
        hello.type = MsgType::Hello;
        hello.proto = kWorkerProtoVersion;
        hello.worker = "torn";
        const std::string full = encodeMessage(hello);
        // Half a hello and EOF; never a complete line.
        ASSERT_TRUE(ch.sendLine(full.substr(0, full.size() / 2) +
                                "\x01partial"));
    }

    WorkerReport report = runWorker(quickWorkerOptions(socket, "ok"));
    coord.join();
    EXPECT_TRUE(report.drained) << report.error;
}

TEST(Heartbeat, FrozenCoordinatorIsDetectedInSeconds)
{
    // The coordinator welcomes on a 200ms heartbeat then freezes
    // completely (no pings, no replies).  The worker must declare it
    // dead from the missed-heartbeat deadline — well under 3s and far
    // under the 60s replyTimeout — instead of waiting a lease out.
    std::atomic<bool> holdOpen{true};
    FakeCoordinator fake([&holdOpen](int fd) {
        eatLine(fd);
        Message welcome;
        welcome.type = MsgType::Welcome;
        welcome.proto = kWorkerProtoVersion;
        welcome.jobs = 1;
        welcome.leaseMs = 60'000;
        welcome.heartbeatMs = 200;
        const std::string line = encodeMessage(welcome) + "\n";
        (void)!::write(fd, line.data(), line.size());
        // Frozen, but the connection stays open (half-open peer).
        while (holdOpen.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ::close(fd);
    });

    WorkerOptions options = quickWorkerOptions(fake.endpoint(), "w0");
    options.maxReconnects = 0;
    options.replyTimeoutMs = 60'000;
    const auto start = std::chrono::steady_clock::now();
    const WorkerReport report = runWorker(options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    holdOpen.store(false);
    EXPECT_FALSE(report.drained);
    EXPECT_FALSE(report.error.empty());
    EXPECT_LT(elapsed, std::chrono::seconds(3))
        << "frozen peer not detected by heartbeat deadline";
}

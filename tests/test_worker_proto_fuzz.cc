/**
 * @file
 * Fuzz-hardening suite for the sweep wire protocol (DESIGN.md §18).
 *
 * The decoder and LineChannel face bytes from crashed, skewed or
 * hostile peers: truncated frames, oversized lines, type confusion,
 * interleaved garbage.  The contract under all of it is containment —
 * decodeMessage returns false (never throws, never narrows), the
 * channel caps its buffers and reports a clean dead/overflowed state,
 * and nothing crashes under ASan/UBSan (this binary is in the
 * sanitize_smoke label set).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/random.hh"
#include "sim/worker_proto.hh"

using namespace sciq;

namespace {

/** A connected AF_UNIX socketpair wrapped for raw-byte injection. */
struct Pair
{
    int raw = -1;   ///< we write hostile bytes here
    int sock = -1;  ///< the victim LineChannel's end

    Pair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        raw = fds[0];
        sock = fds[1];
    }

    ~Pair() { ::close(raw); }

    void
    inject(const std::string &bytes)
    {
        ASSERT_EQ(::write(raw, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }
};

/** Every well-formed frame the protocol can produce, for mutation. */
std::vector<std::string>
corpus()
{
    std::vector<std::string> lines;
    Message m;

    m.type = MsgType::Hello;
    m.proto = kWorkerProtoVersion;
    m.worker = "fuzz-worker";
    lines.push_back(encodeMessage(m));

    m = Message();
    m.type = MsgType::Welcome;
    m.proto = kWorkerProtoVersion;
    m.jobs = 42;
    m.leaseMs = 60'000;
    m.heartbeatMs = 1'000;
    lines.push_back(encodeMessage(m));

    m = Message();
    m.type = MsgType::Reject;
    m.reason = "protocol version mismatch: want 2";
    lines.push_back(encodeMessage(m));

    m = Message();
    m.type = MsgType::LeaseReq;
    lines.push_back(encodeMessage(m));

    m = Message();
    m.type = MsgType::Lease;
    m.index = 7;
    m.key = "workload=swim iq=segmented iq_size=64";
    m.spec = "workload=swim iq=segmented iq_size=64 iters=1000";
    lines.push_back(encodeMessage(m));

    m = Message();
    m.type = MsgType::Wait;
    m.waitMs = 200;
    lines.push_back(encodeMessage(m));

    m = Message();
    m.type = MsgType::Drain;
    lines.push_back(encodeMessage(m));

    m = Message();
    m.type = MsgType::Result;
    m.index = 7;
    m.key = "workload=swim iq=segmented iq_size=64";
    m.result.workload = "swim";
    m.result.iqKind = "segmented";
    m.result.iqSize = 64;
    m.result.outcome.status = JobOutcome::Status::Ok;
    m.result.cycles = 123456;
    m.result.insts = 54321;
    m.result.ipc = 54321.0 / 123456.0;
    lines.push_back(encodeMessage(m));

    m = Message();
    m.type = MsgType::ResultAck;
    m.index = 7;
    lines.push_back(encodeMessage(m));

    m = Message();
    m.type = MsgType::Ping;
    m.seq = 1234567890123ull;
    lines.push_back(encodeMessage(m));

    m = Message();
    m.type = MsgType::Pong;
    m.seq = 1234567890123ull;
    lines.push_back(encodeMessage(m));

    return lines;
}

/** decodeMessage must classify, never throw. */
void
decodeMustContain(const std::string &line)
{
    Message out;
    EXPECT_NO_THROW((void)decodeMessage(line, out)) << line;
}

} // namespace

TEST(ProtoFuzz, CorpusRoundTrips)
{
    for (const std::string &line : corpus()) {
        Message out;
        ASSERT_TRUE(decodeMessage(line, out)) << line;
        EXPECT_EQ(encodeMessage(out), line);
    }
}

TEST(ProtoFuzz, TruncatedFramesDecodeFalseNotCrash)
{
    // Every prefix of every frame: a torn write can stop anywhere.
    for (const std::string &line : corpus()) {
        for (std::size_t n = 0; n < line.size(); ++n) {
            Message out;
            const std::string torn = line.substr(0, n);
            EXPECT_NO_THROW((void)decodeMessage(torn, out)) << torn;
        }
    }
}

TEST(ProtoFuzz, RandomMutationsAreContained)
{
    // Seeded byte-level mutations: flips, deletions, duplications and
    // splices between frames.  50k trials keeps this under a second.
    const std::vector<std::string> lines = corpus();
    Random rng(20'260'807);
    for (int trial = 0; trial < 50'000; ++trial) {
        std::string s = lines[rng.below(lines.size())];
        const unsigned edits = 1 + rng.below(8);
        for (unsigned e = 0; e < edits && !s.empty(); ++e) {
            const std::size_t at = rng.below(s.size());
            switch (rng.below(4)) {
              case 0:
                s[at] = static_cast<char>(rng.below(256));
                break;
              case 1:
                s.erase(at, 1 + rng.below(4));
                break;
              case 2:
                s.insert(at, s.substr(rng.below(s.size()),
                                      1 + rng.below(8)));
                break;
              default: {
                // Splice a window of another frame in (type confusion).
                const std::string &other =
                    lines[rng.below(lines.size())];
                const std::size_t from = rng.below(other.size());
                s.insert(at, other.substr(from, 1 + rng.below(16)));
                break;
              }
            }
        }
        decodeMustContain(s);
    }
}

TEST(ProtoFuzz, TypeConfusedFieldsDecodeFalse)
{
    // Structured type confusion the mutator may miss: valid JSON with
    // fields of the wrong JSON type or impossible values.
    const char *bad[] = {
        "{\"type\":42}",
        "{\"type\":\"no-such-type\"}",
        "{\"type\":[\"hello\"]}",
        "{\"type\":\"hello\",\"proto\":\"two\"}",
        "{\"type\":\"hello\",\"proto\":-2}",
        "{\"type\":\"hello\",\"proto\":4294967296}",
        "{\"type\":\"hello\",\"worker\":{\"name\":\"w0\"}}",
        "{\"type\":\"welcome\",\"proto\":4,\"jobs\":1.5,\"lease_ms\":1}",
        "{\"type\":\"welcome\",\"proto\":2,\"jobs\":-1}",
        "{\"type\":\"lease\",\"index\":1e300,\"key\":\"k\",\"spec\":\"s\"}",
        "{\"type\":\"lease\",\"index\":null,\"key\":\"k\",\"spec\":\"s\"}",
        "{\"type\":\"result\",\"index\":3,\"key\":\"k\",\"result\":7}",
        "{\"type\":\"result\",\"index\":3,\"key\":\"k\",\"result\":[]}",
        "{\"type\":\"result_ack\",\"index\":\"seven\"}",
        "{\"type\":\"ping\",\"seq\":-1}",
        "{\"type\":\"ping\",\"seq\":18446744073709551616}",
        "{\"type\":\"wait\",\"ms\":\"soon\"}",
        "[]",
        "null",
        "\"hello\"",
        "{}",
    };
    for (const char *line : bad) {
        Message out;
        EXPECT_FALSE(decodeMessage(line, out)) << line;
    }
}

TEST(ProtoFuzz, ChannelSurvivesInterleavedGarbage)
{
    // Garbage lines between valid frames: the receiver's skip-and-go-on
    // loop must still see every valid frame, in order.
    Pair p;
    LineChannel ch(p.sock);
    const std::vector<std::string> lines = corpus();
    Random rng(7);
    std::string stream;
    for (const std::string &line : lines) {
        stream += line + "\n";
        std::string junk;
        for (unsigned i = 0, n = 1 + rng.below(64); i < n; ++i) {
            char c = static_cast<char>(rng.below(256));
            junk += c == '\n' ? '\x01' : c;
        }
        stream += junk + "\n";
    }
    p.inject(stream);

    std::size_t seen = 0;
    std::string line;
    while (ch.recvLine(line, 1'000)) {
        Message out;
        if (!decodeMessage(line, out))
            continue;  // the containment contract: skip, don't die
        ASSERT_LT(seen, lines.size());
        EXPECT_EQ(encodeMessage(out), lines[seen]);
        if (++seen == lines.size())
            break;
    }
    EXPECT_EQ(seen, lines.size());
}

TEST(ProtoFuzz, OversizedLineTripsTheCapNotTheProcess)
{
    // A single line past maxLine() marks the channel overflowed and
    // dead (the caller contains it as a ResourceError-class failure);
    // it must never buffer without bound.
    Pair p;
    LineChannel ch(p.sock);
    ch.setMaxLine(4096);

    const std::string huge(64 * 1024, 'x');  // no newline anywhere
    p.inject(huge);

    std::string line;
    EXPECT_FALSE(ch.recvLine(line, 2'000));
    EXPECT_TRUE(ch.overflowed());
    EXPECT_FALSE(ch.alive());
}

TEST(ProtoFuzz, CompleteLinesBeforeAnOverflowAreStillDelivered)
{
    Pair p;
    LineChannel ch(p.sock);
    ch.setMaxLine(4096);

    p.inject("{\"type\":\"lease_req\"}\n" + std::string(64 * 1024, 'y'));

    std::string line;
    ASSERT_TRUE(ch.recvLine(line, 2'000));
    Message out;
    ASSERT_TRUE(decodeMessage(line, out));
    EXPECT_EQ(out.type, MsgType::LeaseReq);

    EXPECT_FALSE(ch.recvLine(line, 2'000));
    EXPECT_TRUE(ch.overflowed());
}

TEST(ProtoFuzz, PeerDisconnectIsACleanEofNotAnError)
{
    Pair p;
    LineChannel ch(p.sock);
    p.inject("{\"type\":\"drain\"}\n");
    ::close(p.raw);
    p.raw = -1;

    std::string line;
    ASSERT_TRUE(ch.recvLine(line, 1'000));
    Message out;
    ASSERT_TRUE(decodeMessage(line, out));
    EXPECT_EQ(out.type, MsgType::Drain);

    // Next read sees EOF: false return, dead channel, no overflow.
    EXPECT_FALSE(ch.recvLine(line, 1'000));
    EXPECT_FALSE(ch.alive());
    EXPECT_FALSE(ch.overflowed());

    // Sends to the gone peer fail cleanly (no SIGPIPE).
    EXPECT_FALSE(ch.sendLine("{\"type\":\"lease_req\"}"));
}

TEST(ProtoFuzz, FinalUnterminatedLineIsSurfacedOnEof)
{
    // A peer killed right before its trailing '\n': the complete bytes
    // it did write still reach the receiver (journal-tail semantics).
    Pair p;
    LineChannel ch(p.sock);
    p.inject("{\"type\":\"ping\",\"seq\":9}");
    ::close(p.raw);
    p.raw = -1;

    std::string line;
    ASSERT_TRUE(ch.recvLine(line, 1'000));
    Message out;
    ASSERT_TRUE(decodeMessage(line, out));
    EXPECT_EQ(out.type, MsgType::Ping);
    EXPECT_EQ(out.seq, 9u);
    EXPECT_FALSE(ch.recvLine(line, 1'000));
}

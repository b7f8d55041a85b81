/**
 * @file
 * Line-oriented coordinator/worker protocol for distributed sweeps
 * (DESIGN.md §17, availability model §18).
 *
 * Every message is one newline-delimited JSON object with a `type`
 * field, exchanged over a stream socket — AF_UNIX on one host, or
 * AF_INET/AF_INET6 (`host:port` endpoints) across machines:
 *
 *   worker -> coordinator   {"type":"hello","proto":4,"worker":"w0"}
 *   coordinator -> worker   {"type":"welcome","proto":4,"jobs":42,
 *                            "lease_ms":60000,"heartbeat_ms":1000}
 *                           {"type":"reject","reason":"..."}
 *   worker -> coordinator   {"type":"lease_req"}
 *   coordinator -> worker   {"type":"lease","index":7,"key":"...",
 *                            "spec":"workload=swim ..."}
 *                           {"type":"wait","ms":200}
 *                           {"type":"drain"}
 *   worker -> coordinator   {"type":"result","index":7,"key":"...",
 *                            "result":{...}}
 *   coordinator -> worker   {"type":"result_ack","index":7}
 *   either direction        {"type":"ping","seq":N} / {"type":"pong",
 *                            "seq":N}
 *
 * The handshake is versioned: a coordinator rejects any hello whose
 * `proto` differs from kWorkerProtoVersion, so mixed-build fleets fail
 * loudly instead of merging subtly different results.  The `result`
 * body is exactly the journal's compact RunResult object, so a result
 * streamed over the wire round-trips doubles bit-for-bit just like a
 * journal line (journal.hh), which is what makes the coordinator's
 * merged JSON byte-identical to a single-process run.
 *
 * Heartbeats make half-open connections visible in seconds instead of
 * a lease length: both sides ping on the Welcome's `heartbeat_ms`
 * cadence and treat a peer silent for kHeartbeatTimeoutFactor
 * intervals as dead.  Any received byte counts as liveness, so a
 * worker busy executing a job stays alive through its pinger thread
 * even though it only reads replies between jobs.
 *
 * A result is not discarded by the worker until the coordinator has
 * acknowledged it (`result_ack`) *after* journaling it durably; a
 * worker that loses its connection first redelivers on reconnect and
 * the coordinator's first-result-wins merge dedups.
 *
 * Decoding is tolerant in the same way the journal loader is: a torn
 * or truncated line (killed writer, half-flushed buffer) decodes to
 * `false` and is skipped by the receiver rather than aborting the
 * sweep.  Hostile input is contained: numeric fields are range-checked
 * before narrowing, and LineChannel caps both the longest buffered
 * line and the pending outbound bytes so one slow or malicious peer
 * cannot wedge or balloon the coordinator pump.
 */

#ifndef SCIQ_SIM_WORKER_PROTO_HH
#define SCIQ_SIM_WORKER_PROTO_HH

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>

#include "sim/simulator.hh"

namespace sciq {

/** Wire-format version; bump on any message, layout or configSpec change. */
constexpr unsigned kWorkerProtoVersion = 4;

/** A peer silent for this many heartbeat intervals is dead. */
constexpr unsigned kHeartbeatTimeoutFactor = 3;

enum class MsgType
{
    Hello,      ///< worker introduces itself (proto, name)
    Welcome,    ///< coordinator accepts (totals, lease, heartbeat)
    Reject,     ///< coordinator refuses (version mismatch, bad state)
    LeaseReq,   ///< idle worker asks for a job
    Lease,      ///< one job: index, sweep key, full config spec
    Wait,       ///< nothing leasable right now; retry in `waitMs`
    Drain,      ///< no work left, ever; worker should exit
    Result,     ///< finished job: index, key, journal-format result
    ResultAck,  ///< coordinator journaled the result durably
    Ping,       ///< liveness probe (either direction)
    Pong,       ///< liveness reply
};

const char *msgTypeName(MsgType type);

struct Message
{
    MsgType type = MsgType::Hello;

    unsigned proto = 0;       ///< hello/welcome
    std::string worker;       ///< hello: worker name
    std::size_t jobs = 0;     ///< welcome: total jobs in the sweep
    unsigned leaseMs = 0;     ///< welcome: lease length workers see
    unsigned heartbeatMs = 0; ///< welcome: ping cadence (0 = disabled)
    unsigned waitMs = 0;      ///< wait: suggested retry delay
    std::string reason;       ///< reject
    std::size_t index = 0;    ///< lease/result/result_ack: job index
    std::string key;          ///< lease/result: host-setting-free sweepKey
    std::string spec;         ///< lease: complete configSpec string
    std::uint64_t seq = 0;    ///< ping/pong sequence number
    RunResult result;         ///< result payload (journal format)
};

/** Serialize one message as a single line (no trailing newline). */
std::string encodeMessage(const Message &msg);

/**
 * Parse one line into `out`.  Returns false — never throws — on torn,
 * truncated, type-confused or otherwise malformed input, mirroring the
 * journal loader's tolerance.  Out-of-range numbers (negative indices,
 * non-integers, values past 2^53) are malformed, not narrowed.
 */
bool decodeMessage(const std::string &line, Message &out);

// ---------------------------------------------------------------------
// Stream-socket transport: AF_UNIX paths and TCP host:port endpoints.

/** Where a coordinator listens / a worker connects. */
struct Endpoint
{
    enum class Kind { Unix, Tcp };

    Kind kind = Kind::Unix;
    std::string path;  ///< unix: socket file path
    std::string host;  ///< tcp: hostname or numeric address
    unsigned port = 0; ///< tcp: port (0 = kernel-assigned, listen only)

    /** Human-readable form ("path" or "host:port"). */
    std::string str() const;
};

/**
 * Parse an explicit `host:port` endpoint ("127.0.0.1:7070",
 * "[::1]:7070", "build-box:9000").  Throws ConfigError with a
 * what-to-write message on bad syntax or an out-of-range port.
 */
Endpoint tcpEndpoint(const std::string &host_port);

/** An AF_UNIX endpoint at `path`. */
Endpoint unixEndpoint(const std::string &path);

/**
 * Auto-detect: a spec containing '/' is a unix path; otherwise it must
 * parse as host:port; otherwise it is treated as a unix path in the
 * current directory.
 */
Endpoint parseEndpoint(const std::string &spec);

/**
 * Create, bind and listen on `ep`.  Unix sockets remove any stale
 * file first; TCP listeners set SO_REUSEADDR so a restarted
 * coordinator can rebind immediately.  Throws ResourceError on
 * failure.
 */
int listenEndpoint(const Endpoint &ep);

/**
 * Accept one pending connection, or -1 when none is ready.  TCP
 * connections get TCP_NODELAY (one small JSON line per message; delay
 * coalescing would serialize the lease round-trip on the RTT).
 */
int acceptConn(int listen_fd);

/**
 * Connect to `ep`, retrying while the coordinator is still starting
 * up (or restarting after a crash), until `timeout_ms` elapses.
 * Throws ResourceError on timeout.
 */
int connectEndpoint(const Endpoint &ep, unsigned timeout_ms);

/** Local port a bound socket ended up on (0 for unix sockets). */
unsigned boundPort(int fd);

// Backward-compatible AF_UNIX spellings.
int listenUnix(const std::string &path);
int acceptUnix(int listen_fd);
int connectUnix(const std::string &path, unsigned timeout_ms);

/**
 * Buffered newline-delimited channel over one socket fd (owned:
 * closed on destruction; move-only).
 *
 * The coordinator uses the non-blocking trio pump()/popLine()/
 * flushQueued() from its poll loop; workers use the blocking
 * recvLine()/sendLine().  sendLine() never raises SIGPIPE — a peer
 * that died mid-send surfaces as `false`.  Sends (blocking or queued)
 * are serialized by an internal mutex so a heartbeat pinger thread
 * can share the channel with the main worker loop without interleaving
 * partial lines.
 *
 * Both directions are bounded: a single inbound line longer than
 * maxLine() marks the channel overflowed-and-dead (contained as a
 * ResourceError-class failure by the callers), and queued outbound
 * bytes past maxPending() mark it dead instead of buffering without
 * limit — a peer that stops reading cannot wedge the pump or balloon
 * the coordinator.
 */
class LineChannel
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit LineChannel(int fd) : fd_(fd), lastRecv_(Clock::now()) {}
    ~LineChannel();

    LineChannel(LineChannel &&other) noexcept;
    LineChannel &operator=(LineChannel &&other) noexcept;
    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;

    int fd() const { return fd_; }

    /** Open and not known-dead (no EOF, error or overflow seen). */
    bool alive() const { return fd_ >= 0 && !dead_; }

    /** The inbound line cap tripped (hostile/corrupt peer). */
    bool overflowed() const { return overflow_; }

    /** Longest accepted inbound line (default 1 MiB). */
    void setMaxLine(std::size_t bytes) { maxLine_ = bytes; }
    std::size_t maxLine() const { return maxLine_; }

    /** Outbound queue cap before the peer counts as wedged (4 MiB). */
    void setMaxPending(std::size_t bytes) { maxPending_ = bytes; }

    /** Milliseconds since any byte was received (liveness signal). */
    unsigned msSinceRecv() const;

    /** Write `line` + '\n', blocking; false once the peer is gone. */
    bool sendLine(const std::string &line);

    /**
     * Queue `line` + '\n' and opportunistically flush without
     * blocking.  False (and dead) when the pending cap is exceeded or
     * the peer is gone; the coordinator drops such connections.
     */
    bool queueLine(const std::string &line);

    /** Non-blocking drain of the outbound queue; false on hard error. */
    bool flushQueued();

    /** Outbound bytes still queued (poll for POLLOUT while nonzero). */
    std::size_t pendingOut() const { return obuf_.size(); }

    /**
     * Read whatever the socket has ready into the internal buffer
     * without blocking.  Returns false on EOF, a hard error or an
     * inbound-line overflow (the buffered complete lines remain
     * poppable).
     */
    bool pump();

    /** Pop the next complete buffered line; false when none. */
    bool popLine(std::string &line);

    /**
     * Blocking receive of one complete line, waiting up to
     * `timeout_ms` (0 = forever).  False on EOF, error, overflow or
     * timeout; distinguish a mere timeout via alive().
     */
    bool recvLine(std::string &line, unsigned timeout_ms);

    /** Close the fd now (e.g. to simulate an abrupt worker death). */
    void close();

  private:
    /** Append received bytes, update liveness, enforce the line cap. */
    bool takeIn(const char *data, std::size_t n);

    int fd_ = -1;
    bool dead_ = false;
    bool overflow_ = false;
    std::string buf_;
    std::string obuf_;
    std::size_t maxLine_ = 1u << 20;
    std::size_t maxPending_ = 4u << 20;
    Clock::time_point lastRecv_;
    std::mutex sendMu_;
};

} // namespace sciq

#endif // SCIQ_SIM_WORKER_PROTO_HH

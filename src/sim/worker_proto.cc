#include "worker_proto.hh"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/errors.hh"
#include "common/json.hh"
#include "sim/journal.hh"

namespace sciq {

const char *
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::Hello: return "hello";
      case MsgType::Welcome: return "welcome";
      case MsgType::Reject: return "reject";
      case MsgType::LeaseReq: return "lease_req";
      case MsgType::Lease: return "lease";
      case MsgType::Wait: return "wait";
      case MsgType::Drain: return "drain";
      case MsgType::Result: return "result";
      case MsgType::ResultAck: return "result_ack";
      case MsgType::Ping: return "ping";
      case MsgType::Pong: return "pong";
    }
    return "?";
}

std::string
encodeMessage(const Message &msg)
{
    std::ostringstream os;
    os << "{\"type\":\"" << msgTypeName(msg.type) << "\"";
    switch (msg.type) {
      case MsgType::Hello:
        os << ",\"proto\":" << msg.proto << ",\"worker\":";
        json::writeString(os, msg.worker);
        break;
      case MsgType::Welcome:
        os << ",\"proto\":" << msg.proto << ",\"jobs\":" << msg.jobs
           << ",\"lease_ms\":" << msg.leaseMs
           << ",\"heartbeat_ms\":" << msg.heartbeatMs;
        break;
      case MsgType::Reject:
        os << ",\"reason\":";
        json::writeString(os, msg.reason);
        break;
      case MsgType::LeaseReq:
      case MsgType::Drain:
        break;
      case MsgType::Wait:
        os << ",\"ms\":" << msg.waitMs;
        break;
      case MsgType::Lease:
        os << ",\"index\":" << msg.index << ",\"key\":";
        json::writeString(os, msg.key);
        os << ",\"spec\":";
        json::writeString(os, msg.spec);
        break;
      case MsgType::Result:
        os << ",\"index\":" << msg.index << ",\"key\":";
        json::writeString(os, msg.key);
        os << ",\"result\":";
        writeResultCompactJson(os, msg.result);
        break;
      case MsgType::ResultAck:
        os << ",\"index\":" << msg.index;
        break;
      case MsgType::Ping:
      case MsgType::Pong:
        os << ",\"seq\":" << msg.seq;
        break;
    }
    os << "}";
    return os.str();
}

namespace {

// Checked narrowing for wire-supplied numbers: a hostile or corrupt
// frame must decode to `false`, never hit the UB of an out-of-range
// double-to-integer cast.

std::uint64_t
wireU64(const json::Value &v)
{
    const double d = v.asNumber();
    if (!(d >= 0.0) || d > 9007199254740992.0 /* 2^53 */ ||
        d != std::floor(d)) {
        throw std::range_error("wire number out of range");
    }
    return static_cast<std::uint64_t>(d);
}

unsigned
wireU32(const json::Value &v)
{
    const std::uint64_t u = wireU64(v);
    if (u > 0xffffffffull)
        throw std::range_error("wire number out of range");
    return static_cast<unsigned>(u);
}

} // namespace

bool
decodeMessage(const std::string &line, Message &out)
{
    try {
        const json::Value v = json::parse(line);
        const std::string type = v.at("type").asString();
        if (type == "hello") {
            out.type = MsgType::Hello;
            out.proto = wireU32(v.at("proto"));
            out.worker = v.at("worker").asString();
        } else if (type == "welcome") {
            out.type = MsgType::Welcome;
            out.proto = wireU32(v.at("proto"));
            out.jobs = static_cast<std::size_t>(wireU64(v.at("jobs")));
            out.leaseMs = wireU32(v.at("lease_ms"));
            out.heartbeatMs = v.contains("heartbeat_ms")
                                  ? wireU32(v.at("heartbeat_ms"))
                                  : 0;
        } else if (type == "reject") {
            out.type = MsgType::Reject;
            out.reason = v.at("reason").asString();
        } else if (type == "lease_req") {
            out.type = MsgType::LeaseReq;
        } else if (type == "lease") {
            out.type = MsgType::Lease;
            out.index = static_cast<std::size_t>(wireU64(v.at("index")));
            out.key = v.at("key").asString();
            out.spec = v.at("spec").asString();
        } else if (type == "wait") {
            out.type = MsgType::Wait;
            out.waitMs = wireU32(v.at("ms"));
        } else if (type == "drain") {
            out.type = MsgType::Drain;
        } else if (type == "result") {
            out.type = MsgType::Result;
            out.index = static_cast<std::size_t>(wireU64(v.at("index")));
            out.key = v.at("key").asString();
            // Type confusion guard: resultFromJson tolerates missing
            // fields, so a non-object payload would otherwise decode
            // as an all-default (and journal-able) result.
            if (!v.at("result").isObject())
                return false;
            out.result = resultFromJson(v.at("result"));
        } else if (type == "result_ack") {
            out.type = MsgType::ResultAck;
            out.index = static_cast<std::size_t>(wireU64(v.at("index")));
        } else if (type == "ping" || type == "pong") {
            out.type = type == "ping" ? MsgType::Ping : MsgType::Pong;
            out.seq = v.contains("seq") ? wireU64(v.at("seq")) : 0;
        } else {
            return false;
        }
        return true;
    } catch (const std::exception &) {
        // Torn/truncated line or wrong field shape: not a message.
        return false;
    }
}

// ---------------------------------------------------------------------
// Endpoints

std::string
Endpoint::str() const
{
    if (kind == Kind::Unix)
        return path;
    return host + ":" + std::to_string(port);
}

Endpoint
tcpEndpoint(const std::string &host_port)
{
    const auto complain = [&](const std::string &why) -> ConfigError {
        return ConfigError("bad TCP endpoint '" + host_port + "': " +
                           why + " (want host:port, e.g. "
                           "127.0.0.1:7070 or [::1]:7070)");
    };

    Endpoint ep;
    ep.kind = Endpoint::Kind::Tcp;
    std::string portStr;
    if (!host_port.empty() && host_port[0] == '[') {
        // Bracketed IPv6 literal: [addr]:port.
        const std::size_t close = host_port.find(']');
        if (close == std::string::npos ||
            close + 1 >= host_port.size() ||
            host_port[close + 1] != ':') {
            throw complain("unterminated [ipv6] address");
        }
        ep.host = host_port.substr(1, close - 1);
        portStr = host_port.substr(close + 2);
    } else {
        const std::size_t colon = host_port.rfind(':');
        if (colon == std::string::npos)
            throw complain("missing ':port'");
        if (host_port.find(':') != colon) {
            throw complain(
                "raw IPv6 addresses need brackets: [addr]:port");
        }
        ep.host = host_port.substr(0, colon);
        portStr = host_port.substr(colon + 1);
    }
    if (ep.host.empty())
        throw complain("empty host");
    if (portStr.empty() ||
        portStr.find_first_not_of("0123456789") != std::string::npos) {
        throw complain("port '" + portStr + "' is not a number");
    }
    unsigned long port = 0;
    try {
        port = std::stoul(portStr);
    } catch (const std::exception &) {
        throw complain("port '" + portStr + "' is not a number");
    }
    if (port > 65535)
        throw complain("port " + portStr + " out of range (0-65535)");
    ep.port = static_cast<unsigned>(port);
    return ep;
}

Endpoint
unixEndpoint(const std::string &path)
{
    Endpoint ep;
    ep.kind = Endpoint::Kind::Unix;
    ep.path = path;
    return ep;
}

Endpoint
parseEndpoint(const std::string &spec)
{
    if (spec.find('/') != std::string::npos)
        return unixEndpoint(spec);
    if (spec.find(':') != std::string::npos)
        return tcpEndpoint(spec);
    return unixEndpoint(spec);
}

namespace {

sockaddr_un
unixAddr(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw ResourceError("socket path too long for AF_UNIX: '" +
                            path + "'");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

void
setNoDelay(int fd)
{
    // One small JSON line per message: without TCP_NODELAY the lease
    // round-trip serializes on Nagle coalescing.  Fails harmlessly on
    // AF_UNIX sockets.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** getaddrinfo with RAII free; throws ResourceError on failure. */
struct AddrList
{
    addrinfo *head = nullptr;

    AddrList(const Endpoint &ep, bool passive)
    {
        addrinfo hints{};
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
        const std::string service = std::to_string(ep.port);
        const int rc = ::getaddrinfo(ep.host.c_str(), service.c_str(),
                                     &hints, &head);
        if (rc != 0) {
            throw ResourceError("cannot resolve '" + ep.str() +
                                "': " + gai_strerror(rc));
        }
    }
    ~AddrList() { if (head) ::freeaddrinfo(head); }
    AddrList(const AddrList &) = delete;
    AddrList &operator=(const AddrList &) = delete;
};

int
listenTcp(const Endpoint &ep)
{
    const AddrList addrs(ep, /*passive=*/true);
    std::string lastErr = "no usable address";
    for (addrinfo *ai = addrs.head; ai; ai = ai->ai_next) {
        const int fd =
            ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            lastErr = strerror(errno);
            continue;
        }
        // A restarted coordinator must rebind the same endpoint
        // immediately; without SO_REUSEADDR, lingering connections
        // from the crashed instance block the bind for minutes.
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, 64) == 0) {
            return fd;
        }
        lastErr = strerror(errno);
        ::close(fd);
    }
    throw ResourceError("cannot listen on '" + ep.str() + "': " +
                        lastErr);
}

int
connectTcpOnce(const Endpoint &ep, std::string &err)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV;
    addrinfo *head = nullptr;
    const std::string service = std::to_string(ep.port);
    const int rc =
        ::getaddrinfo(ep.host.c_str(), service.c_str(), &hints, &head);
    if (rc != 0) {
        err = gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    for (addrinfo *ai = head; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            err = strerror(errno);
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            setNoDelay(fd);
            break;
        }
        err = strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(head);
    return fd;
}

} // namespace

int
listenEndpoint(const Endpoint &ep)
{
    if (ep.kind == Endpoint::Kind::Tcp)
        return listenTcp(ep);

    const sockaddr_un addr = unixAddr(ep.path);
    ::unlink(ep.path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw ResourceError("socket(): " + std::string(strerror(errno)));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        const std::string msg = strerror(errno);
        ::close(fd);
        throw ResourceError("cannot listen on '" + ep.path + "': " + msg);
    }
    return fd;
}

int
acceptConn(int listen_fd)
{
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0)
        setNoDelay(fd);
    return fd < 0 ? -1 : fd;
}

int
connectEndpoint(const Endpoint &ep, unsigned timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::string err = "timeout";
    for (;;) {
        if (ep.kind == Endpoint::Kind::Tcp) {
            if (ep.port == 0) {
                throw ResourceError("cannot connect to '" + ep.str() +
                                    "': port 0 is listen-only");
            }
            const int fd = connectTcpOnce(ep, err);
            if (fd >= 0)
                return fd;
        } else {
            const sockaddr_un addr = unixAddr(ep.path);
            const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd < 0) {
                throw ResourceError("socket(): " +
                                    std::string(strerror(errno)));
            }
            if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                          sizeof(addr)) == 0) {
                return fd;
            }
            err = strerror(errno);
            ::close(fd);
        }
        // The coordinator may still be binding its socket — or
        // restarting after a crash; retry until the connect deadline
        // instead of failing on startup races.
        if (std::chrono::steady_clock::now() >= deadline) {
            throw ResourceError("cannot connect to coordinator at '" +
                                ep.str() + "': " + err);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

unsigned
boundPort(int fd)
{
    sockaddr_storage ss{};
    socklen_t len = sizeof(ss);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&ss), &len) != 0)
        return 0;
    if (ss.ss_family == AF_INET) {
        return ntohs(reinterpret_cast<const sockaddr_in &>(ss).sin_port);
    }
    if (ss.ss_family == AF_INET6) {
        return ntohs(
            reinterpret_cast<const sockaddr_in6 &>(ss).sin6_port);
    }
    return 0;
}

int
listenUnix(const std::string &path)
{
    return listenEndpoint(unixEndpoint(path));
}

int
acceptUnix(int listen_fd)
{
    return acceptConn(listen_fd);
}

int
connectUnix(const std::string &path, unsigned timeout_ms)
{
    return connectEndpoint(unixEndpoint(path), timeout_ms);
}

// ---------------------------------------------------------------------
// LineChannel

LineChannel::~LineChannel() { close(); }

LineChannel::LineChannel(LineChannel &&other) noexcept
    : fd_(other.fd_), dead_(other.dead_), overflow_(other.overflow_),
      buf_(std::move(other.buf_)), obuf_(std::move(other.obuf_)),
      maxLine_(other.maxLine_), maxPending_(other.maxPending_),
      lastRecv_(other.lastRecv_)
{
    other.fd_ = -1;
}

LineChannel &
LineChannel::operator=(LineChannel &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        dead_ = other.dead_;
        overflow_ = other.overflow_;
        buf_ = std::move(other.buf_);
        obuf_ = std::move(other.obuf_);
        maxLine_ = other.maxLine_;
        maxPending_ = other.maxPending_;
        lastRecv_ = other.lastRecv_;
        other.fd_ = -1;
    }
    return *this;
}

void
LineChannel::close()
{
    // Serialized against concurrent sends (pinger thread): a send must
    // never race the close into a recycled fd number.
    std::lock_guard<std::mutex> lock(sendMu_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

unsigned
LineChannel::msSinceRecv() const
{
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - lastRecv_);
    return ms.count() < 0 ? 0 : static_cast<unsigned>(ms.count());
}

bool
LineChannel::takeIn(const char *data, std::size_t n)
{
    lastRecv_ = Clock::now();
    const bool chunkHasNewline = std::memchr(data, '\n', n) != nullptr;
    buf_.append(data, n);
    // The cap bounds a single line: if even the newest chunk brought
    // no terminator and the buffer is past the cap, the peer is
    // feeding one unbounded line — stop buffering and flag it.
    if (!chunkHasNewline && buf_.size() > maxLine_ &&
        buf_.find('\n', buf_.size() - n > maxLine_
                            ? buf_.size() - n
                            : 0) == std::string::npos) {
        overflow_ = true;
        dead_ = true;
        return false;
    }
    return true;
}

bool
LineChannel::sendLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(sendMu_);
    if (fd_ < 0 || dead_)
        return false;
    std::string framed = line;
    framed.push_back('\n');
    // Drain any queued bytes first so blocking and queued sends on the
    // same channel never interleave mid-line.
    std::string all = std::move(obuf_);
    obuf_.clear();
    all += framed;
    std::size_t off = 0;
    while (off < all.size()) {
        const ssize_t n = ::send(fd_, all.data() + off, all.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            dead_ = true;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
LineChannel::queueLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(sendMu_);
    if (fd_ < 0 || dead_)
        return false;
    obuf_ += line;
    obuf_.push_back('\n');
    if (obuf_.size() > maxPending_) {
        // The peer stopped reading: treat it as wedged rather than
        // buffering without bound.
        dead_ = true;
        return false;
    }
    // Opportunistic non-blocking drain.
    while (!obuf_.empty()) {
        const ssize_t n = ::send(fd_, obuf_.data(), obuf_.size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            dead_ = true;
            return false;
        }
        obuf_.erase(0, static_cast<std::size_t>(n));
    }
    return true;
}

bool
LineChannel::flushQueued()
{
    std::lock_guard<std::mutex> lock(sendMu_);
    if (fd_ < 0 || dead_)
        return obuf_.empty();
    while (!obuf_.empty()) {
        const ssize_t n = ::send(fd_, obuf_.data(), obuf_.size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            dead_ = true;
            return false;
        }
        obuf_.erase(0, static_cast<std::size_t>(n));
    }
    return true;
}

bool
LineChannel::pump()
{
    if (fd_ < 0 || dead_)
        return false;
    char chunk[4096];
    for (;;) {
        const ssize_t n =
            ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n > 0) {
            if (!takeIn(chunk, static_cast<std::size_t>(n)))
                return false;
            continue;
        }
        if (n == 0) {
            dead_ = true;
            return false;  // orderly EOF: peer is gone
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;  // drained everything currently available
        dead_ = true;
        return false;
    }
}

bool
LineChannel::popLine(std::string &line)
{
    const std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos)
        return false;
    line.assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    return true;
}

bool
LineChannel::recvLine(std::string &line, unsigned timeout_ms)
{
    const auto deadline = Clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
        if (popLine(line))
            return true;
        if (fd_ < 0 || dead_)
            return false;
        pollfd pfd{fd_, POLLIN, 0};
        int wait = -1;
        if (timeout_ms > 0) {
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(deadline - Clock::now());
            if (left.count() <= 0)
                return false;
            wait = static_cast<int>(left.count());
        }
        const int rc = ::poll(&pfd, 1, wait);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            dead_ = true;
            return false;
        }
        if (rc == 0)
            return false;  // timeout; channel still alive()
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n > 0) {
            if (!takeIn(chunk, static_cast<std::size_t>(n)))
                return false;
        } else if (n == 0) {
            // EOF: surface any buffered final line first, including an
            // unterminated tail — same semantics as the journal loader,
            // whose getline parses a final row whose '\n' was cut off.
            // A torn tail that isn't a full message still decodes to
            // false at the caller.
            dead_ = true;
            if (popLine(line))
                return true;
            if (buf_.empty())
                return false;
            line = std::move(buf_);
            buf_.clear();
            return true;
        } else if (errno != EINTR) {
            dead_ = true;
            return false;
        }
    }
}

} // namespace sciq

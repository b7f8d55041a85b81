#include "shard.hh"

#include <algorithm>
#include <cstdlib>
#include <list>
#include <sstream>
#include <thread>

#include <poll.h>
#include <unistd.h>

#include "common/errors.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "sim/checkpoint.hh"
#include "sim/config_fields.hh"
#include "sim/fault_injector.hh"
#include "sim/job_exec.hh"
#include "sim/journal.hh"
#include "sim/worker_proto.hh"

namespace sciq {

std::string
configSpec(const SimConfig &config)
{
    return configString(config, ConfigClass::Identity | ConfigClass::Job);
}

SimConfig
configFromSpec(const std::string &spec)
{
    ConfigMap map;
    std::istringstream is(spec);
    std::string token;
    while (is >> token) {
        if (!map.parseLine(token))
            throw ConfigError("malformed config-spec token '" + token +
                              "'");
    }
    SimConfig config;
    config.apply(map);
    return config;
}

// ---------------------------------------------------------------------
// JobBoard

JobBoard::JobBoard(const std::vector<char> &done, const Options &options)
    : options_(options), jobs_(done.size())
{
    for (std::size_t i = 0; i < done.size(); ++i) {
        if (done[i]) {
            jobs_[i].done = true;
            ++doneCount_;
        }
    }
}

JobBoard::Grant
JobBoard::lease(int worker, Clock::time_point now, std::size_t &index)
{
    if (allDone())
        return Grant::Drained;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        Job &j = jobs_[i];
        if (j.done || j.worker >= 0)
            continue;
        j.worker = worker;
        j.deadline = now + std::chrono::milliseconds(options_.leaseMs);
        ++leases_;
        index = i;
        return Grant::Leased;
    }
    return Grant::Wait;
}

bool
JobBoard::complete(std::size_t index)
{
    Job &j = jobs_[index];
    if (j.done)
        return false;
    j.done = true;
    j.worker = -1;
    ++doneCount_;
    return true;
}

void
JobBoard::drop(std::size_t index, std::vector<std::size_t> &requeued,
               std::vector<std::size_t> &failed)
{
    Job &j = jobs_[index];
    j.worker = -1;
    ++j.drops;
    if (j.drops > options_.maxLeaseDrops) {
        j.done = true;
        ++doneCount_;
        failed.push_back(index);
    } else {
        ++requeues_;
        requeued.push_back(index);
    }
}

void
JobBoard::workerLost(int worker, std::vector<std::size_t> &requeued,
                     std::vector<std::size_t> &failed)
{
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (!jobs_[i].done && jobs_[i].worker == worker)
            drop(i, requeued, failed);
    }
}

void
JobBoard::expireLeases(Clock::time_point now,
                       std::vector<std::size_t> &requeued,
                       std::vector<std::size_t> &failed)
{
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const Job &j = jobs_[i];
        if (!j.done && j.worker >= 0 && j.deadline <= now)
            drop(i, requeued, failed);
    }
}

// ---------------------------------------------------------------------
// Coordinator

namespace {

struct Conn
{
    Conn(int id_, int fd) : id(id_), ch(fd) {}

    int id;
    LineChannel ch;
    bool helloed = false;
    bool dead = false;
    std::string name;
    LineChannel::Clock::time_point lastPing =
        LineChannel::Clock::now();
};

} // namespace

std::vector<RunResult>
serveSweep(const std::vector<SimConfig> &configs,
           const ServeOptions &options, ServeStats *stats_out)
{
    using Clock = JobBoard::Clock;

    for (const SimConfig &cfg : configs) {
        if (cfg.deadlineSec > 0.0) {
            throw ConfigError(
                "distributed sweeps cannot serve deadline_sec jobs: "
                "wall-clock deadlines are not deterministic across "
                "workers (run them with a local sweep instead)");
        }
    }

    const std::size_t total = configs.size();
    std::vector<RunResult> results(total);
    std::vector<std::string> keys(total), specs(total);
    for (std::size_t i = 0; i < total; ++i) {
        keys[i] = sweepKey(configs[i]);
        specs[i] = configSpec(configs[i]);
    }

    // Resume exactly like SweepRunner::run: journaled-ok entries whose
    // (index, key) still match are merged up front and never re-leased.
    std::vector<char> have(total, 0);
    std::unique_ptr<ResultJournal> journal;
    if (!options.journal.empty()) {
        applyJournal(options.journal, keys, results, have);
        journal = std::make_unique<ResultJournal>(options.journal,
                                                  /*sync=*/true);
    }

    JobBoard board(have, {options.leaseMs, options.maxLeaseDrops});

    ServeStats stats;
    std::size_t done = 0;
    for (const char h : have)
        done += h != 0;

    auto finishJob = [&](std::size_t index, RunResult r) {
        if (journal)
            journal->record(index, keys[index], r);
        results[index] = std::move(r);
        ++done;
        if (options.progress)
            options.progress(done, total, results[index]);
        // Chaos hook: die at the worst possible instant — the result
        // is journaled durably but not yet acked, so the restarted
        // coordinator must resume from the journal while the worker
        // redelivers and gets deduped.
        if (options.faults && options.faults->takeCoordAbort()) {
            throw ResourceError(
                "injected coordinator abort after journaling job " +
                std::to_string(index));
        }
    };

    // Repeated lease drops contain the job as a Failed row through the
    // §13 taxonomy, exactly like an in-process job that kept throwing.
    auto failDropped = [&](const std::vector<std::size_t> &failed) {
        for (const std::size_t index : failed) {
            ++stats.boardFailed;
            job_exec::Classified c;
            c.code = ErrorCode::Resource;
            c.transient = true;
            c.message = "worker lease dropped " +
                        std::to_string(options.maxLeaseDrops + 1) +
                        " times (workers died or stalled)";
            warn("job %zu (%s): %s", index, keys[index].c_str(),
                 c.message.c_str());
            finishJob(index, job_exec::failedResult(
                                 configs[index], c,
                                 options.maxLeaseDrops + 1));
        }
    };

    const Endpoint ep = parseEndpoint(options.endpoint);
    const int lfd = listenEndpoint(ep);
    if (options.boundPortOut)
        options.boundPortOut->store(boundPort(lfd));
    std::list<Conn> conns;
    int nextConnId = 0;
    auto lastWorkerSeen = Clock::now();
    bool draining = false;
    Clock::time_point drainStart{};

    auto dropConn = [&](Conn &conn) {
        conn.dead = true;
        std::vector<std::size_t> requeued, failed;
        board.workerLost(conn.id, requeued, failed);
        failDropped(failed);
        conn.ch.close();
    };

    // Handle every complete line one connection has buffered; returns
    // false when the connection should be discarded.  Replies go
    // through queueLine: a peer that stopped reading cannot block the
    // pump, it just accumulates toward the pending cap and is dropped.
    auto processConn = [&](Conn &conn) {
        std::string line;
        while (conn.ch.popLine(line)) {
            Message msg;
            if (!decodeMessage(line, msg))
                continue;  // torn line: same tolerance as the journal
            switch (msg.type) {
              case MsgType::Hello: {
                Message reply;
                if (msg.proto != kWorkerProtoVersion) {
                    ++stats.rejectedWorkers;
                    reply.type = MsgType::Reject;
                    reply.reason =
                        "protocol version mismatch (coordinator " +
                        std::to_string(kWorkerProtoVersion) +
                        ", worker " + std::to_string(msg.proto) + ")";
                    conn.ch.sendLine(encodeMessage(reply));
                    return false;
                }
                conn.helloed = true;
                conn.name = msg.worker;
                ++stats.workersSeen;
                reply.type = MsgType::Welcome;
                reply.proto = kWorkerProtoVersion;
                reply.jobs = total;
                reply.leaseMs = options.leaseMs;
                reply.heartbeatMs = options.heartbeatMs;
                if (!conn.ch.queueLine(encodeMessage(reply)))
                    return false;
                break;
              }
              case MsgType::LeaseReq: {
                if (!conn.helloed) {
                    Message reply;
                    reply.type = MsgType::Reject;
                    reply.reason = "lease_req before hello";
                    conn.ch.queueLine(encodeMessage(reply));
                    return false;
                }
                Message reply;
                std::size_t index = 0;
                if (draining) {
                    // Stop-drain: no new leases, but keep the worker
                    // alive — it will reconnect into the restarted
                    // coordinator and resume from there.
                    reply.type = MsgType::Wait;
                    reply.waitMs = 200;
                    if (!conn.ch.queueLine(encodeMessage(reply)))
                        return false;
                    break;
                }
                switch (board.lease(conn.id, Clock::now(), index)) {
                  case JobBoard::Grant::Leased:
                    reply.type = MsgType::Lease;
                    reply.index = index;
                    reply.key = keys[index];
                    reply.spec = specs[index];
                    break;
                  case JobBoard::Grant::Wait:
                    reply.type = MsgType::Wait;
                    reply.waitMs = 100;
                    break;
                  case JobBoard::Grant::Drained:
                    reply.type = MsgType::Drain;
                    break;
                }
                if (!conn.ch.queueLine(encodeMessage(reply)))
                    return false;
                break;
              }
              case MsgType::Result: {
                if (!conn.helloed)
                    return false;
                if (msg.index >= total || keys[msg.index] != msg.key) {
                    warn("ignoring result for unknown job %zu (%s)",
                         msg.index, msg.key.c_str());
                    break;
                }
                const std::size_t index = msg.index;
                if (board.complete(index))
                    finishJob(index, std::move(msg.result));
                else
                    ++stats.duplicateResults;
                // Ack even the duplicate: the worker must learn its
                // copy is no longer needed.  The journal row is
                // fsync'd by the time finishJob returned.
                Message ack;
                ack.type = MsgType::ResultAck;
                ack.index = index;
                if (!conn.ch.queueLine(encodeMessage(ack)))
                    return false;
                break;
              }
              case MsgType::Ping: {
                Message pong;
                pong.type = MsgType::Pong;
                pong.seq = msg.seq;
                if (!conn.ch.queueLine(encodeMessage(pong)))
                    return false;
                break;
              }
              case MsgType::Pong:
                // Liveness is any-received-byte; nothing else to do.
                break;
              default:
                // Coordinator-bound streams never carry coordinator
                // replies; ignore rather than kill the worker.
                break;
            }
        }
        return !conn.dead;
    };

    auto cleanup = [&]() {
        conns.clear();
        ::close(lfd);
        if (ep.kind == Endpoint::Kind::Unix)
            ::unlink(ep.path.c_str());
    };

    // One poll + pump + process sweep over the fleet, shared by the
    // main loop and the post-completion drain.
    auto serviceConns = [&](bool accepting) {
        std::vector<pollfd> pfds;
        if (accepting)
            pfds.push_back({lfd, POLLIN, 0});
        for (Conn &conn : conns) {
            short events = POLLIN;
            if (conn.ch.pendingOut() > 0)
                events |= POLLOUT;
            pfds.push_back({conn.ch.fd(), events, 0});
        }
        ::poll(pfds.data(), pfds.size(), 50);

        if (accepting && (pfds[0].revents & POLLIN)) {
            // One accept per POLLIN wakeup: the listen fd stays
            // readable while the backlog is non-empty, so the next
            // loop iteration picks up any further pending workers.
            const int fd = acceptConn(lfd);
            if (fd >= 0)
                conns.emplace_back(nextConnId++, fd);
        }

        const auto now = LineChannel::Clock::now();
        std::size_t slot = accepting ? 1 : 0;
        for (auto it = conns.begin(); it != conns.end(); ++slot) {
            Conn &conn = *it;
            bool alive = true;
            // A conn accepted above has no pfds entry yet; it is
            // pumped on the next iteration.
            if (slot < pfds.size() &&
                (pfds[slot].revents & (POLLIN | POLLHUP | POLLERR)))
                alive = conn.ch.pump();
            if (options.heartbeatMs > 0 && alive) {
                if (conn.ch.msSinceRecv() >
                    options.heartbeatMs * kHeartbeatTimeoutFactor) {
                    // Half-open or frozen peer: detected in a few
                    // heartbeat intervals instead of a lease length.
                    ++stats.heartbeatDrops;
                    warn("dropping silent connection %d (%s): no bytes "
                         "for %ums",
                         conn.id, conn.name.c_str(),
                         conn.ch.msSinceRecv());
                    alive = false;
                } else if (conn.helloed &&
                           now - conn.lastPing >
                               std::chrono::milliseconds(
                                   options.heartbeatMs)) {
                    conn.lastPing = now;
                    Message ping;
                    ping.type = MsgType::Ping;
                    alive = conn.ch.queueLine(encodeMessage(ping));
                }
            }
            if (alive) {
                alive = processConn(conn) && conn.ch.flushQueued() &&
                        conn.ch.alive();
            }
            if (!alive) {
                dropConn(conn);
                it = conns.erase(it);
            } else {
                ++it;
            }
        }
    };

    try {
        // Main loop: poll the listen socket and every worker, expire
        // leases, and stop once the board is fully drained — or the
        // stop flag flips, in which case lease handout stops, in-flight
        // results are collected for drainGraceMs, and the (valid,
        // fsync'd) journal is left for the restarted coordinator.
        while (!board.allDone()) {
            if (!draining && options.stop && options.stop->load()) {
                draining = true;
                stats.interrupted = true;
                drainStart = Clock::now();
                inform("stop requested: draining %zu in-flight jobs, "
                       "%zu remaining overall",
                       conns.size(), board.remaining());
            }
            if (draining &&
                Clock::now() - drainStart >
                    std::chrono::milliseconds(options.drainGraceMs))
                break;

            serviceConns(/*accepting=*/true);

            if (!draining) {
                std::vector<std::size_t> requeued, failed;
                board.expireLeases(Clock::now(), requeued, failed);
                failDropped(failed);

                if (!conns.empty())
                    lastWorkerSeen = Clock::now();
                else if (Clock::now() - lastWorkerSeen >
                         std::chrono::milliseconds(
                             options.workerGraceMs)) {
                    throw ResourceError(
                        "no workers connected for " +
                        std::to_string(options.workerGraceMs) +
                        "ms with " + std::to_string(board.remaining()) +
                        " jobs remaining");
                }
            }
        }

        // Drain: answer every remaining lease_req with Drain and give
        // stragglers a moment to hear it before tearing down.  Keep
        // accepting: a worker reconnecting to redeliver a result we
        // already have (its ack was lost to a crash) gets a duplicate
        // ack and a clean Drain instead of a vanished listener.
        if (!stats.interrupted) {
            const auto drainDeadline =
                Clock::now() + std::chrono::milliseconds(2000);
            while (!conns.empty() && Clock::now() < drainDeadline)
                serviceConns(/*accepting=*/true);
        }
    } catch (...) {
        cleanup();
        throw;
    }
    cleanup();

    stats.leases = board.leases();
    stats.requeues = board.requeues();
    if (stats_out)
        *stats_out = stats;
    return results;
}

// ---------------------------------------------------------------------
// Worker

namespace {

/**
 * One worker connection: the channel plus its heartbeat pinger thread.
 * The pinger only ever *sends* (the main thread owns every read), so
 * the two threads meet solely inside LineChannel's send mutex.  A busy
 * worker keeps the coordinator's liveness clock fresh through these
 * pings even while a multi-minute job blocks its read loop.
 */
struct WorkerLink
{
    LineChannel ch;
    unsigned heartbeatMs = 0;

    explicit WorkerLink(int fd) : ch(fd) {}

    ~WorkerLink()
    {
        stopPinger_.store(true, std::memory_order_relaxed);
        if (pinger_.joinable())
            pinger_.join();
    }

    void
    startPinger()
    {
        if (heartbeatMs == 0)
            return;
        pinger_ = std::thread([this] {
            std::uint64_t seq = 0;
            const auto slice = std::chrono::milliseconds(
                std::min(heartbeatMs, 50u));
            auto next = LineChannel::Clock::now() +
                        std::chrono::milliseconds(heartbeatMs);
            while (!stopPinger_.load(std::memory_order_relaxed)) {
                if (LineChannel::Clock::now() < next) {
                    std::this_thread::sleep_for(slice);
                    continue;
                }
                next += std::chrono::milliseconds(heartbeatMs);
                Message ping;
                ping.type = MsgType::Ping;
                ping.seq = ++seq;
                if (!ch.sendLine(encodeMessage(ping)))
                    return;  // channel closed or dead: stop quietly
            }
        });
    }

    /**
     * Receive the next non-heartbeat message, answering pings along
     * the way.  False on EOF/error/timeout, and on a coordinator
     * frozen past the heartbeat deadline — which is how a half-open
     * TCP connection is detected in seconds rather than a full
     * replyTimeout.
     */
    bool
    recvReply(Message &msg, unsigned timeout_ms)
    {
        const auto deadline = LineChannel::Clock::now() +
                              std::chrono::milliseconds(timeout_ms);
        for (;;) {
            std::string line;
            if (ch.recvLine(line, 100)) {
                Message m;
                if (!decodeMessage(line, m))
                    continue;  // torn line: skip, like the journal
                if (m.type == MsgType::Ping) {
                    Message pong;
                    pong.type = MsgType::Pong;
                    pong.seq = m.seq;
                    ch.sendLine(encodeMessage(pong));
                    continue;
                }
                if (m.type == MsgType::Pong)
                    continue;
                msg = std::move(m);
                return true;
            }
            if (!ch.alive())
                return false;
            if (heartbeatMs > 0 &&
                ch.msSinceRecv() > heartbeatMs * kHeartbeatTimeoutFactor)
                return false;
            if (timeout_ms > 0 && LineChannel::Clock::now() >= deadline)
                return false;
        }
    }

    /** Send `res` and wait for its ResultAck. */
    bool
    deliver(const Message &res, unsigned timeout_ms)
    {
        if (!ch.sendLine(encodeMessage(res)))
            return false;
        Message msg;
        while (recvReply(msg, timeout_ms)) {
            if (msg.type == MsgType::ResultAck && msg.index == res.index)
                return true;
            // Anything else mid-ack is unexpected; keep waiting.
        }
        return false;
    }

  private:
    std::atomic<bool> stopPinger_{false};
    std::thread pinger_;
};

} // namespace

WorkerReport
runWorker(const WorkerOptions &options)
{
    WorkerReport report;
    std::string artifactDir = options.artifactDir;
    if (artifactDir.empty()) {
        if (const char *env = std::getenv("SCIQ_ARTIFACT_DIR"))
            artifactDir = env;
    }

    Endpoint ep;
    try {
        ep = parseEndpoint(options.endpoint);
    } catch (const std::exception &e) {
        report.error = e.what();
        return report;
    }

    // One warm-state cache per worker process, disk-backed when every
    // worker points at the same ckpt_dir: the cross-process producer
    // election (checkpoint.cc) makes N workers execute one warm-up
    // total.  Survives reconnects.
    std::shared_ptr<CheckpointCache> cache;
    try {
        if (!options.ckptDir.empty())
            cache = std::make_shared<CheckpointCache>(options.ckptDir);
    } catch (const std::exception &e) {
        report.error = e.what();
        return report;
    }

    // A finished-but-unacked result survives connection loss here and
    // is redelivered after the re-handshake; the coordinator's
    // first-result-wins merge dedups if the original did land.
    bool havePending = false;
    Message pending;

    // Consecutive connection failures without real progress (an acked
    // result or a granted lease).  Reset on progress, so a long sweep
    // tolerates any number of coordinator restarts.
    unsigned failures = 0;
    serial::Fnv64 nameHash;
    nameHash.update(options.name);
    const std::uint64_t jitterSeed = nameHash.digest() | 1;
    bool everConnected = false;

    for (;;) {
        // ----- connect + handshake (one attempt per loop iteration)
        std::unique_ptr<WorkerLink> link;
        bool lost = false;
        std::string lostWhat;
        try {
            link = std::make_unique<WorkerLink>(
                connectEndpoint(ep, options.connectTimeoutMs));
        } catch (const std::exception &e) {
            report.error = e.what();
            return report;
        }

        Message hello;
        hello.type = MsgType::Hello;
        hello.proto = kWorkerProtoVersion;
        hello.worker = options.name;
        Message msg;
        if (!link->ch.sendLine(encodeMessage(hello)) ||
            !link->recvReply(msg, options.replyTimeoutMs)) {
            // Coordinator vanished mid-handshake (torn Welcome): a
            // contained, retryable condition — not a hang.
            lost = true;
            lostWhat = "no handshake reply from coordinator";
        } else if (msg.type == MsgType::Reject) {
            // Permanent: reconnecting with the same hello cannot help.
            report.error = "rejected by coordinator: " + msg.reason;
            return report;
        } else if (msg.type != MsgType::Welcome ||
                   msg.proto != kWorkerProtoVersion) {
            report.error = "unexpected handshake reply";
            return report;
        } else {
            link->heartbeatMs = msg.heartbeatMs;
            link->startPinger();
            if (everConnected)
                ++report.reconnects;
            everConnected = true;
        }

        // ----- redeliver the unacked result from the previous link
        if (!lost && havePending) {
            if (link->deliver(pending, options.replyTimeoutMs)) {
                havePending = false;
                ++report.redelivered;
                failures = 0;
            } else {
                lost = true;
                lostWhat = "redelivery failed";
            }
        }

        // ----- lease-execute-report until drained or disconnected
        while (!lost) {
            Message req;
            req.type = MsgType::LeaseReq;
            if (!link->ch.sendLine(encodeMessage(req))) {
                lost = true;
                lostWhat = "coordinator connection lost";
                break;
            }
            if (!link->recvReply(msg, options.replyTimeoutMs)) {
                lost = true;
                lostWhat = "no lease reply from coordinator";
                break;
            }
            if (msg.type == MsgType::Drain) {
                report.drained = true;
                return report;
            }
            if (msg.type == MsgType::Wait) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(msg.waitMs));
                continue;
            }
            if (msg.type == MsgType::Reject) {
                report.error = "rejected by coordinator: " + msg.reason;
                return report;
            }
            if (msg.type != MsgType::Lease)
                continue;
            failures = 0;

            RunResult r;
            try {
                SimConfig cfg = configFromSpec(msg.spec);
                cfg.faults = options.faults;
                if (cfg.fastForward > 0 && cache)
                    cfg.ckptCache = cache;
                r = job_exec::executeWithRetry(
                    cfg, msg.key, msg.index, options.maxRetries,
                    options.backoffMs, artifactDir);
            } catch (...) {
                // A spec the worker cannot even parse still produces a
                // contained Failed row, so the job cannot loop forever
                // through requeues.
                job_exec::Classified c =
                    job_exec::classify(std::current_exception());
                SimConfig blank;
                r = job_exec::failedResult(blank, c, 1);
            }
            ++report.jobsRun;
            if (r.ckptRestored)
                ++report.restored;

            if (options.faults && options.faults->takeWorkerAbort()) {
                // Chaos hook: die in place of reporting, exactly like
                // a worker killed mid-job — the coordinator must
                // requeue the outstanding lease.
                report.aborted = true;
                link->ch.close();
                return report;
            }

            pending.type = MsgType::Result;
            pending.index = msg.index;
            pending.key = msg.key;
            pending.result = std::move(r);
            havePending = true;

            if (options.faults && options.faults->takeConnDrop()) {
                // Chaos hook: sever right at the send — the pending
                // result must survive the reconnect and be redelivered.
                link->ch.close();
                lost = true;
                lostWhat = "injected connection drop";
                break;
            }

            if (!link->deliver(pending, options.replyTimeoutMs)) {
                lost = true;
                lostWhat = "result ack never arrived";
                break;
            }
            havePending = false;
            failures = 0;
        }

        // ----- connection lost: bounded, jittered reconnect
        link.reset();  // joins the pinger, closes the fd
        ++failures;
        if (failures > options.maxReconnects) {
            report.error = lostWhat + " (gave up after " +
                           std::to_string(failures - 1) +
                           " reconnect attempts)";
            return report;
        }
        const unsigned delay = job_exec::backoffDelayMs(
            options.reconnectBackoffMs, failures,
            options.reconnectBackoffCapMs, jitterSeed);
        warn("worker %s: %s; reconnecting in %ums (attempt %u/%u)",
             options.name.c_str(), lostWhat.c_str(), delay, failures,
             options.maxReconnects);
        if (delay) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
    }
}

} // namespace sciq

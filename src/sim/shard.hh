/**
 * @file
 * Distributed sweep service: one coordinator leasing jobs to many
 * workers (DESIGN.md §17).
 *
 * One sweep, many processes.  The coordinator (serveSweep) owns the
 * job list and the final results vector; workers (runWorker, or the
 * examples/sweep_worker binary) connect over a local socket, lease one
 * job at a time, execute it through the exact per-job containment path
 * a single-process sweep uses (job_exec::executeWithRetry), and stream
 * the journal-format result back.  Because the result wire format is
 * the journal's compact JSON — which round-trips doubles bit-for-bit —
 * the coordinator's merged writeResultsJson output is byte-identical
 * to a single-process `jobs=N` run of the same configs (modulo the
 * wall-clock host/warm fields, exactly as between two local runs).
 *
 * Leasing is one in-order queue: an idle worker gets the lowest-index
 * job that is neither done nor leased.  Every job is a deterministic
 * function of its spec and the merge is by job index, so which worker
 * runs a job never shows in the output.
 *
 * Fault taxonomy reuse (DESIGN.md §13): a worker death is a lease
 * fault.  Its connection EOF (or lease expiry for a wedged-but-alive
 * worker) requeues the job; a job whose lease is dropped more than
 * `maxLeaseDrops` times is contained as a Failed row with a transient
 * ResourceError code — it appears in the final JSON like any other
 * contained failure, the sweep itself never dies.
 *
 * Availability model (DESIGN.md §18): endpoints may be AF_UNIX paths
 * or TCP host:port specs, heartbeats detect half-open connections in
 * seconds, workers reconnect with capped jittered backoff and
 * redeliver unacked results, and the coordinator journals each result
 * durably (fsync) before acking — so a coordinator killed at any
 * instant can be restarted on the same listen=/journal= pair, the
 * surviving workers reconnect into it, and the merged JSON stays
 * byte-identical to an uninterrupted run.
 */

#ifndef SCIQ_SIM_SHARD_HH
#define SCIQ_SIM_SHARD_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace sciq {

class FaultInjector;

/**
 * Complete wire form of a configuration: sweepKey(config) followed by
 * the Job-class fields of the config table (config_fields.hh).
 * configFromSpec(configSpec(c)) reproduces every Identity and Job
 * field of c exactly; Local fields (checkpoint paths, injector
 * budgets, wall-clock deadlines) are deliberately not part of it.
 */
std::string configSpec(const SimConfig &config);

/** Rebuild a SimConfig from a spec line; throws ConfigError on junk. */
SimConfig configFromSpec(const std::string &spec);

/**
 * Coordinator-side lease queue.  Each job holds at most one lease.
 * Socket-free and clocked explicitly so tests can drive expiry
 * deterministically.
 */
class JobBoard
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Options
    {
        unsigned leaseMs = 60'000;   ///< lease length before expiry
        unsigned maxLeaseDrops = 3;  ///< drops before the job fails
    };

    /**
     * One job per entry of `done`; `done[i]` marks jobs already
     * satisfied (journal resume).
     */
    JobBoard(const std::vector<char> &done, const Options &options);

    enum class Grant
    {
        Leased,   ///< `index` holds the leased job
        Wait,     ///< nothing leasable right now; ask again shortly
        Drained,  ///< every job is done; the worker can exit
    };

    /**
     * Lease the lowest-index pending, unleased job to the worker with
     * connection id `worker`.
     */
    Grant lease(int worker, Clock::time_point now, std::size_t &index);

    /**
     * Record a finished job.  Returns false when the job was already
     * completed (a result redelivered after a reconnect or an expired
     * lease) — the caller must discard that result.
     */
    bool complete(std::size_t index);

    /**
     * Drop the leases held by `worker` (its connection died).
     * Requeued job indices are appended to `requeued`; jobs that hit
     * the drop cap are appended to `failed` and marked done.
     */
    void workerLost(int worker, std::vector<std::size_t> &requeued,
                    std::vector<std::size_t> &failed);

    /** Same dropping logic for leases whose deadline passed. */
    void expireLeases(Clock::time_point now,
                      std::vector<std::size_t> &requeued,
                      std::vector<std::size_t> &failed);

    bool allDone() const { return doneCount_ == jobs_.size(); }
    std::size_t remaining() const { return jobs_.size() - doneCount_; }

    // Observability (serveSweep logs these; tests pin them).
    std::uint64_t leases() const { return leases_; }
    std::uint64_t requeues() const { return requeues_; }

  private:
    struct Job
    {
        bool done = false;
        unsigned drops = 0;
        int worker = -1;  ///< lease holder; -1 = not leased
        Clock::time_point deadline;
    };

    /** Release job `index`'s lease and charge it one drop. */
    void drop(std::size_t index, std::vector<std::size_t> &requeued,
              std::vector<std::size_t> &failed);

    Options options_;
    std::vector<Job> jobs_;
    std::size_t doneCount_ = 0;
    std::uint64_t leases_ = 0;
    std::uint64_t requeues_ = 0;
};

/** Coordinator policy + observability for one served sweep. */
struct ServeOptions
{
    /**
     * Where workers connect: an AF_UNIX socket path ("/tmp/sweep.sock")
     * or a TCP host:port spec ("127.0.0.1:7070", "[::1]:7070";
     * port 0 = kernel-assigned, reported via boundPortOut).
     */
    std::string endpoint;

    unsigned leaseMs = 60'000;
    unsigned maxLeaseDrops = 3;

    /**
     * Abort (ResourceError) when no worker is connected for this long
     * while jobs remain — a sweep with a dead fleet should fail loudly
     * rather than hang forever.
     */
    unsigned workerGraceMs = 60'000;

    /**
     * Heartbeat cadence advertised in the Welcome; a peer silent for
     * kHeartbeatTimeoutFactor intervals is dropped (its leases
     * requeue).  0 disables heartbeats entirely.
     */
    unsigned heartbeatMs = 1'000;

    /**
     * Same resumable JSONL journal as SweepRunner::Options.  Each row
     * is fsync'd before its result is acked, so a coordinator crash
     * cannot lose a result a worker already discarded.
     */
    std::string journal;

    /**
     * Graceful-drain trigger (SIGTERM/SIGINT in the binary): when the
     * pointed-to flag becomes true, the coordinator stops leasing,
     * collects in-flight results for up to drainGraceMs, leaves a
     * valid journal and returns with stats.interrupted set.
     */
    const std::atomic<bool> *stop = nullptr;

    /** How long a drain waits for in-flight results before returning. */
    unsigned drainGraceMs = 2'000;

    /**
     * Chaos injection (tests only): abortCoordinator throws a
     * ResourceError in the ack path after a result is journaled (see
     * FaultInjector), and the test restarts the coordinator in-process.
     */
    std::shared_ptr<FaultInjector> faults;

    /**
     * When non-null, receives the bound TCP port (useful with port 0).
     * Atomic because the common pattern runs serveSweep on its own
     * thread and polls this from the launcher.
     */
    std::atomic<unsigned> *boundPortOut = nullptr;

    SweepRunner::Progress progress;
};

/** Counters surfaced by serveSweep for tests and the CLI summary. */
struct ServeStats
{
    std::uint64_t leases = 0;
    std::uint64_t requeues = 0;
    std::uint64_t duplicateResults = 0;  ///< results already recorded
    std::uint64_t boardFailed = 0;       ///< jobs failed by drop cap
    std::uint64_t rejectedWorkers = 0;   ///< handshake rejections
    std::uint64_t workersSeen = 0;
    std::uint64_t heartbeatDrops = 0;    ///< conns dropped as silent
    bool interrupted = false;            ///< stop-flag graceful drain
};

/**
 * Serve `configs` to connecting workers and return results in input
 * order, exactly as SweepRunner::run would.  Job failures (including
 * repeated lease drops) are contained into RunResult::outcome; only
 * harness failures (unusable socket/journal, fleet death) propagate.
 * Wall-clock deadlines are rejected up front: a distributed sweep has
 * no deterministic notion of them.
 */
std::vector<RunResult> serveSweep(const std::vector<SimConfig> &configs,
                                  const ServeOptions &options,
                                  ServeStats *stats_out = nullptr);

/** One worker process/thread's configuration. */
struct WorkerOptions
{
    /** Coordinator endpoint: AF_UNIX path or TCP host:port spec. */
    std::string endpoint;
    std::string name = "worker";

    /** Shared warm-state store; all workers point at one directory. */
    std::string ckptDir;

    // Per-job containment policy (job_exec::executeWithRetry).
    unsigned maxRetries = 2;
    unsigned backoffMs = 10;
    std::string artifactDir;

    /**
     * Seeded fault injection (tests only), shared across this worker's
     * jobs.  The abortWorker budget drops the connection and returns
     * in place of sending a result, as a killed worker would (the
     * lease is outstanding, the result is lost).
     */
    std::shared_ptr<FaultInjector> faults;

    unsigned connectTimeoutMs = 10'000;

    /** Max wait for any coordinator reply (0 = forever). */
    unsigned replyTimeoutMs = 120'000;

    /**
     * Survive coordinator loss: on EOF/heartbeat-timeout the worker
     * keeps its unacked result, reconnects with capped exponential
     * backoff + jitter, re-handshakes under the same name, and
     * redelivers.  The failure counter resets on real progress (an
     * acked result or a granted lease), so a long sweep tolerates any
     * number of coordinator restarts as long as each one comes back.
     */
    unsigned maxReconnects = 8;
    unsigned reconnectBackoffMs = 100;
    unsigned reconnectBackoffCapMs = 5'000;
};

/** What one worker did, for logging and tests. */
struct WorkerReport
{
    std::uint64_t jobsRun = 0;
    std::uint64_t restored = 0;    ///< jobs whose warm-up was restored
    std::uint64_t reconnects = 0;  ///< successful re-handshakes
    std::uint64_t redelivered = 0; ///< results resent after reconnect
    bool drained = false;          ///< coordinator said Drain
    bool aborted = false;          ///< abortWorker fault fired
    std::string error;             ///< non-empty on protocol failure
};

/**
 * Run the worker loop: connect, handshake, lease-execute-report until
 * the coordinator drains us.  Never throws on job failures (they are
 * contained rows); protocol/transport trouble lands in report.error.
 */
WorkerReport runWorker(const WorkerOptions &options);

} // namespace sciq

#endif // SCIQ_SIM_SHARD_HH

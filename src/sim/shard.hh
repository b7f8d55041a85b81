/**
 * @file
 * Distributed sweep service: coordinator/worker sharding with leased
 * jobs (DESIGN.md §17).
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
 * Sharding: every job has a static home shard, shardOf(sweepKey, K) —
 * a pure function of the host-setting-free sweep key, so the partition
 * is stable under any permutation of the job list and any lease/retry
 * history.  An idle worker is served (1) pending jobs from its own
 * shard, then (2) pending jobs stolen from the fullest other shard,
 * then (3) a duplicate lease of the longest-outstanding in-flight job
 * (straggler hedging; first result wins, the duplicate is discarded).
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

/** FNV-1a over a sweep key (the shard hash; stable across hosts). */
std::uint64_t shardHash(const std::string &sweep_key);

/**
 * Home shard of a job: a pure, permutation-stable function of its
 * host-setting-free sweepKey.  `shards == 0` is treated as 1.
 */
unsigned shardOf(const std::string &sweep_key, unsigned shards);

/**
 * Complete wire form of a configuration: sweepKey(config) plus every
 * other apply()-understood key that affects the run's reported result
 * (validate/audit flags, watchdog window, functional-path selector).
 * configFromSpec(configSpec(c)) reproduces c's architected behaviour
 * exactly; host-local settings (checkpoint paths/caches, fault
 * injectors, wall-clock deadlines) are deliberately not part of the
 * spec.
 */
std::string configSpec(const SimConfig &config);

/** Rebuild a SimConfig from a spec line; throws ConfigError on junk. */
SimConfig configFromSpec(const std::string &spec);

/**
 * Coordinator-side lease state machine.  Socket-free and clocked
 * explicitly so tests can drive expiry deterministically.
 */
class JobBoard
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Options
    {
        unsigned shards = 1;            ///< static home-shard count
        unsigned leaseMs = 60'000;      ///< lease length before expiry
        unsigned maxLeaseDrops = 3;     ///< drops before the job fails
        unsigned duplicateAfterMs = 1'000;  ///< straggler-hedge age
    };

    /** `done[i]` marks jobs already satisfied (journal resume). */
    JobBoard(const std::vector<std::string> &keys,
             const std::vector<char> &done, const Options &options);

    enum class Grant
    {
        Leased,   ///< `index` holds the leased job
        Wait,     ///< nothing leasable right now; ask again shortly
        Drained,  ///< every job is done; the worker can exit
    };

    /**
     * Lease one job to the worker with connection id `worker` whose
     * assigned home shard is `shard`.
     */
    Grant lease(int worker, unsigned shard, Clock::time_point now,
                std::size_t &index);

    /**
     * Record a finished job.  Returns false when the job was already
     * completed (a duplicate lease lost the race) — the caller must
     * discard that result.
     */
    bool complete(std::size_t index);

    /**
     * Drop every lease held by `worker` (its connection died).
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
    unsigned shardOfJob(std::size_t index) const;

    // Observability (serveSweep logs these; tests pin them).
    std::uint64_t leases() const { return leases_; }
    std::uint64_t steals() const { return steals_; }
    std::uint64_t duplicates() const { return duplicates_; }
    std::uint64_t requeues() const { return requeues_; }

  private:
    struct Lease
    {
        int worker = -1;
        Clock::time_point start;
        Clock::time_point deadline;
    };

    struct Job
    {
        std::string key;
        unsigned shard = 0;
        bool done = false;
        unsigned drops = 0;
        std::vector<Lease> active;  ///< >1 only under duplicate leases
    };

    void drop(std::size_t index, std::vector<std::size_t> &requeued,
              std::vector<std::size_t> &failed);

    Options options_;
    std::vector<Job> jobs_;
    std::size_t doneCount_ = 0;
    std::uint64_t leases_ = 0;
    std::uint64_t steals_ = 0;
    std::uint64_t duplicates_ = 0;
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

    /**
     * Expected worker count = static shard count for shardOf().  The
     * coordinator still serves fewer or more workers than this; it
     * only fixes the partition function.  0 = 1.
     */
    unsigned shards = 1;

    unsigned leaseMs = 60'000;
    unsigned maxLeaseDrops = 3;
    unsigned duplicateAfterMs = 1'000;

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

    /** Same resumable JSONL journal as SweepRunner::Options. */
    std::string journal;

    /**
     * fsync the journal before each result is acked/counted.  On by
     * default: without it a coordinator crash can lose a
     * recorded-but-buffered row and break resume bit-identity.  Tests
     * that hammer thousands of tiny journals may turn it off.
     */
    bool syncJournal = true;

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
     * Chaos injection: abortCoordinator fires in the ack path after a
     * result is journaled (see FaultInjector).  abortExits selects
     * `_exit(137)` (process chaos) vs a thrown ResourceError
     * (in-process tests restart the coordinator in the same process).
     */
    std::shared_ptr<FaultInjector> faults;
    bool abortExits = false;

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
    std::uint64_t steals = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t requeues = 0;
    std::uint64_t duplicateResults = 0;  ///< losing duplicate leases
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
     * Seeded fault injection, shared across this worker's jobs.  The
     * abortWorker budget kills the worker in place of sending a result
     * (chaos testing: the lease is outstanding, the result is lost).
     */
    std::shared_ptr<FaultInjector> faults;

    /**
     * When the abortWorker fault fires: true = _exit(137) like a real
     * `kill -9` (process workers); false = drop the connection and
     * return (in-process test workers).
     */
    bool abortExits = false;

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

/**
 * @file
 * Deterministic seeded fault injection (DESIGN.md §13).
 *
 * Generalizes the auditor's forced over-promotion into a small menu
 * of faults that each target one detection/recovery path so negative
 * tests can prove the path actually fires:
 *
 *   - checkpoint-blob corruption   -> trailer checksum rejection and
 *     the checkpoint cache's warn+repair path
 *   - transient disk-write failure -> transient CheckpointError, eaten
 *     by the sweep runner's bounded retry
 *   - forced IQ over-promotion     -> auditor promotion-bound violation
 *     (IqParams::auditInjectOverPromote)
 *   - artificial commit stall      -> watchdog DeadlockError with a
 *     pipeline state dump (CoreParams::faultCommitStallAt)
 *
 * The last two are plain core/IQ parameters that tests set directly.
 * This injector carries the rest and is reachable from tests only,
 * through the `faults` member of SimConfig, ServeOptions and
 * WorkerOptions.  No fault has a config key or command-line option.
 *
 * Budgeted faults (`corruptCkptReads`, `failDiskWrites`) count down
 * atomically: a budget of 1 faults exactly the first attempt and lets
 * the retry succeed; -1 faults every attempt (exhausting retries).
 * The injector is shared via shared_ptr across a job's retries so the
 * budget spans them.  Corruption is seeded so a faulted run is exactly
 * reproducible.
 *
 * Chaos faults for the distributed service (DESIGN.md §18) use
 * fire-at-Nth semantics instead: `abortWorker = N` drops the worker's
 * connection in place of its Nth finished job's result,
 * `abortCoordinator = N` throws out of the coordinator at the Nth
 * journaled result, `dropConnection = N` severs the worker connection
 * at its Nth result send.  At-N (not first-N) placement is what lets a
 * seeded chaos trial plant a crash anywhere in the sweep, not just at
 * its start; -1 still means "every opportunity".
 */

#ifndef SCIQ_SIM_FAULT_INJECTOR_HH
#define SCIQ_SIM_FAULT_INJECTOR_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/random.hh"

namespace sciq {

class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed = 1) : seed_(seed) {}

    /** Remaining checkpoint reads to corrupt (-1 = every read). */
    std::atomic<std::int64_t> corruptCkptReads{0};

    /** Remaining checkpoint writes to fail (-1 = every write). */
    std::atomic<std::int64_t> failDiskWrites{0};

    /**
     * Abort the worker at its Nth finished job (-1 = every job): the
     * distributed worker (shard.cc) drops its connection in place of
     * sending its finished result - the lease stays outstanding, so the
     * coordinator's lease-expiry/EOF requeue path has to recover the
     * job.  Chaos coverage for DESIGN.md §17.
     */
    std::atomic<std::int64_t> abortWorker{0};

    /**
     * Abort the coordinator at the Nth journaled result (-1 = every
     * result).  Fires *after* the journal row is durably recorded and
     * before the ack, modelling the worst crash point: a restarted
     * coordinator must resume from the journal and the worker must
     * redeliver its unacked result (DESIGN.md §18).
     */
    std::atomic<std::int64_t> abortCoordinator{0};

    /**
     * Sever the worker connection at its Nth result send (-1 = every
     * send): the result is buffered, the worker reconnects with its
     * stable ID and redelivers; the coordinator's first-result-wins
     * merge dedups if the original actually arrived.
     */
    std::atomic<std::int64_t> dropConnection{0};

    /** True when the next checkpoint read should be corrupted. */
    bool takeCorruptRead() { return take(corruptCkptReads, corrupted_); }

    /** True when the next checkpoint write should fail. */
    bool takeDiskWriteFault() { return take(failDiskWrites, failed_); }

    /** True when the worker should abort instead of reporting. */
    bool takeWorkerAbort() { return takeAt(abortWorker, aborted_); }

    /** True when the coordinator should abort instead of acking. */
    bool takeCoordAbort() { return takeAt(abortCoordinator, coordAborts_); }

    /** True when the worker should sever instead of sending. */
    bool takeConnDrop() { return takeAt(dropConnection, connDrops_); }

    /**
     * Deterministically flip bytes in `blob` (seeded by the injector's
     * seed and the count of corruptions so far, so repeated faults
     * differ from each other but never between runs).  Flipping any
     * byte breaks the XXH64 trailer, so restore must reject the blob.
     */
    void
    corrupt(std::string &blob) const
    {
        if (blob.empty())
            return;
        Random rng(seed_ + corrupted_.load(std::memory_order_relaxed));
        for (int i = 0; i < 8; ++i) {
            const std::size_t pos = rng.below(blob.size());
            blob[pos] = static_cast<char>(
                blob[pos] ^ static_cast<char>(1 + rng.below(255)));
        }
    }

    // Observability for tests and artifact reports.
    std::uint64_t corruptedReads() const { return corrupted_.load(); }
    std::uint64_t failedWrites() const { return failed_.load(); }
    std::uint64_t workerAborts() const { return aborted_.load(); }
    std::uint64_t coordAborts() const { return coordAborts_.load(); }
    std::uint64_t connDrops() const { return connDrops_.load(); }

  private:
    static bool
    take(std::atomic<std::int64_t> &budget, std::atomic<std::uint64_t> &count)
    {
        std::int64_t cur = budget.load(std::memory_order_relaxed);
        while (true) {
            if (cur == 0)
                return false;
            if (cur < 0)
                break;  // unlimited: no decrement
            if (budget.compare_exchange_weak(cur, cur - 1,
                                             std::memory_order_relaxed))
                break;
        }
        count.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    /** Fire exactly at the Nth call (countdown reaching 1); -1 = every. */
    static bool
    takeAt(std::atomic<std::int64_t> &counter,
           std::atomic<std::uint64_t> &count)
    {
        std::int64_t cur = counter.load(std::memory_order_relaxed);
        while (true) {
            if (cur == 0)
                return false;
            if (cur < 0) {
                count.fetch_add(1, std::memory_order_relaxed);
                return true;
            }
            if (counter.compare_exchange_weak(cur, cur - 1,
                                              std::memory_order_relaxed)) {
                if (cur == 1) {
                    count.fetch_add(1, std::memory_order_relaxed);
                    return true;
                }
                return false;
            }
        }
    }

    std::uint64_t seed_;
    mutable std::atomic<std::uint64_t> corrupted_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> aborted_{0};
    std::atomic<std::uint64_t> coordAborts_{0};
    std::atomic<std::uint64_t> connDrops_{0};
};

} // namespace sciq

#endif // SCIQ_SIM_FAULT_INJECTOR_HH

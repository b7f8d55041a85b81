/**
 * @file
 * Top-level simulation configuration: Table 1 processor parameters plus
 * the IQ design under test and the workload to run.
 */

#ifndef SCIQ_SIM_SIM_CONFIG_HH
#define SCIQ_SIM_SIM_CONFIG_HH

#include <memory>
#include <ostream>
#include <string>

#include "common/config.hh"
#include "core/ooo_core.hh"
#include "workload/workloads.hh"

namespace sciq {

class CheckpointCache;
class FaultInjector;

struct SimConfig
{
    CoreParams core{};
    std::string workload = "swim";
    WorkloadParams wl{};

    /** Safety cap so misconfigured runs terminate. */
    Cycle maxCycles = 20'000'000;

    /**
     * Wall-clock deadline for the timed run (key: `deadline_sec=`);
     * 0 disables.  Exceeding it throws a DeadlockError flagged as a
     * timeout, which the sweep runner records as JobOutcome::Timeout.
     * Implemented by chunking the core's run loop, which is
     * tick-for-tick identical to an unchunked run.
     */
    double deadlineSec = 0.0;

    /** Compare committed state against the functional simulator. */
    bool validate = true;

    /**
     * Attach the cycle-level invariant auditor (DESIGN.md section 9).
     * Violations accumulate under the `core.audit` stats group and in
     * RunResult::auditViolations.  Key: `audit=1`.
     */
    bool audit = false;

    /**
     * With the auditor attached, panic (with a state dump) at the first
     * violation instead of counting on.  Key: `audit_panic=1`.
     */
    bool auditPanic = false;

    /**
     * Skip this many instructions with functional warming before the
     * timed run (the paper's checkpoint methodology at our scale).
     * Count-valued keys accept k/m/g suffixes, so `ff=300m` works.
     */
    std::uint64_t fastForward = 0;

    /**
     * Use the basic-block cache for the functional paths (warming and
     * validation golden runs); `bb_cache=0` selects the step()-based
     * reference interpreter.  Results are bit-identical either way —
     * this is pure acceleration, kept switchable as a differential
     * check.
     */
    bool bbCache = true;

    /**
     * Explicit checkpoint file (key: `ckpt=`): restore the warm-up
     * from this file if it exists, otherwise fast-forward cold and
     * save it there.  Requires fastForward > 0.
     */
    std::string ckptFile;

    /**
     * Checkpoint cache directory (key: `ckpt_dir=`): warm-ups are
     * restored from / persisted to `<dir>/ckpt-<key>.sciqckpt`, keyed
     * by checkpointKeyHash().  Requires fastForward > 0.
     */
    std::string ckptDir;

    /**
     * Shared in-process checkpoint cache (programmatic; SweepBatch
     * installs one per sweep so each distinct warm-up runs once and
     * every other configuration restores it).  Takes precedence over
     * ckptDir: a cache constructed with a directory covers both.
     */
    std::shared_ptr<CheckpointCache> ckptCache;

    /**
     * Optional fault injector (keys: `fault_seed=`, `fault_ckpt_corrupt=`,
     * `fault_disk_fail=`; see fault_injector.hh).  Shared across a
     * job's retries so fault budgets span them.
     */
    std::shared_ptr<FaultInjector> faults;

    /**
     * Apply key=value overrides, e.g.
     *   iq=segmented iq_size=512 seg_size=32 chains=128 hmp=1 lrp=1
     *   workload=swim iters=4096
     */
    void apply(const ConfigMap &overrides);

    /** Print the Table 1 parameter block. */
    void printParameters(std::ostream &os) const;
};

/** Construct the configurations used throughout the evaluation. */
SimConfig makeIdealConfig(unsigned iq_size, const std::string &workload);
SimConfig makeSegmentedConfig(unsigned iq_size, int chains, bool hmp,
                              bool lrp, const std::string &workload);
SimConfig makePrescheduledConfig(unsigned total_slots,
                                 const std::string &workload);
SimConfig makeFifoConfig(unsigned fifos, unsigned depth,
                         const std::string &workload);

} // namespace sciq

#endif // SCIQ_SIM_SIM_CONFIG_HH

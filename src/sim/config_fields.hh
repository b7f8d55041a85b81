/**
 * @file
 * Single source of truth for SimConfig's `key=value` fields, in the
 * style of run_result_fields.hh.  SimConfig::apply, sweepKey,
 * configSpec, every known-key list and `runner help=1` iterate this
 * one visitor, so job identity cannot drift from what apply() parses.
 *
 * An entry gives its key, class bits, field and lower bound (default
 * 0, also for doubles).  The field's C++ type is its parse/print type:
 * bool (0/1), unsigned, int, a 64-bit count, double (printed
 * shortest-round-trip), std::string or IqKind; every integer accepts
 * decimal k/m/g suffixes (`ff=300m`).  Each key has exactly one class:
 *   - Identity: changes results; in sweepKey and configSpec.
 *   - Job: changes how a result is produced or checked, not what it
 *     is; travels with a distributed job in configSpec only.
 *   - Local: never leaves the process.
 * The Sweep flag marks the keys a sweep front end (the benches,
 * sweep_serve's iters/ff) also takes and sets on every job.  Entries
 * are grouped by class, so a configSpec starts with its sweepKey.
 */

#ifndef SCIQ_SIM_CONFIG_FIELDS_HH
#define SCIQ_SIM_CONFIG_FIELDS_HH

#include <string>
#include <vector>

#include "sim/sim_config.hh"

namespace sciq {

/** Class and flag bits of a table entry; a set of classes is an OR. */
struct ConfigClass
{
    enum : unsigned {
        Identity = 1,
        Job = 2,
        Local = 4,
        All = Identity | Job | Local,
        Sweep = 8,
    };
};

template <typename V, typename C>
void
visitConfigFields(V &&v, C &c)
{
    constexpr unsigned I = ConfigClass::Identity;
    constexpr unsigned J = ConfigClass::Job;
    constexpr unsigned L = ConfigClass::Local;
    constexpr unsigned S = ConfigClass::Sweep;

    v("workload", I, c.workload);
    v("iters", I | S, c.wl.iterations);
    v("seed", I, c.wl.seed);
    v("scale", I, c.wl.scale);
    v("iq", I, c.core.iqKind);
    v("iq_size", I, c.core.iq.numEntries, 1);
    v("seg_size", I, c.core.iq.segmentSize, 1);
    v("chains", I, c.core.iq.maxChains, -1);  // -1 = unlimited
    v("hmp", I, c.core.iq.useHmp);
    v("lrp", I, c.core.iq.useLrp);
    v("pushdown", I, c.core.iq.enablePushdown);
    v("bypass", I, c.core.iq.enableBypass);
    v("resize", I, c.core.iq.dynamicResize);
    v("resize_interval", I, c.core.iq.resizeInterval);
    v("line_width", I, c.core.iq.preschedLineWidth, 1);
    v("issue_buffer", I, c.core.iq.issueBufferSize);
    v("fifos", I, c.core.iq.numFifos, 1);
    v("depth", I, c.core.iq.fifoDepth, 1);
    v("wrong_path", I, c.core.modelWrongPath);
    v("ff", I | S, c.fastForward);
    v("max_cycles", I, c.maxCycles);
    // Architected faults (DESIGN.md §13) change the run even with the
    // auditor off, so they are identity.
    v("fault_commit_stall", I, c.core.faultCommitStallAt);
    v("fault_overpromote", I, c.core.iq.auditInjectOverPromote);

    v("validate", J, c.validate);
    v("audit", J | S, c.audit);
    v("audit_panic", J | S, c.auditPanic);
    v("watchdog_cycles", J | S, c.core.watchdogCycles);

    v("ckpt_dir", L | S, c.ckptDir);
    v("deadline_sec", L | S, c.deadlineSec);
}

/** Every table key in `classes` that has all of `flags`, in order. */
std::vector<std::string> configKeys(unsigned classes, unsigned flags = 0);

/**
 * Space-separated `key=value` of the fields in `classes`, in table
 * order; apply() on it reproduces each of them exactly.
 */
std::string configString(const SimConfig &config, unsigned classes);

/** The entries of `args` whose key configKeys(classes, flags) lists. */
ConfigMap configOverrides(const ConfigMap &args, unsigned classes,
                          unsigned flags = 0);

} // namespace sciq

#endif // SCIQ_SIM_CONFIG_FIELDS_HH

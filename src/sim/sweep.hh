/**
 * @file
 * Parallel design-space sweep driver.  The evaluation reproduces the
 * paper's figures by running 100+ independent simulator configurations;
 * SweepRunner executes a batch of SimConfigs on a pool of worker
 * threads while preserving the input ordering of the results, so
 * `jobs=1` and `jobs=N` emit bit-identical tables.
 *
 * Safety model: every runSim() call owns its Program, OooCore and
 * DynInstPool outright, and the simulator keeps no global mutable
 * state, so configurations are embarrassingly parallel.  The only
 * cross-thread traffic is the work-queue index and the result slots,
 * which are disjoint per job.
 *
 * Fault containment (DESIGN.md §13): a job that throws does not kill
 * the sweep.  Its exception is classified through the error taxonomy
 * into RunResult::outcome — retried with backoff first when tagged
 * transient — and the failed row still appears in every table and JSON
 * file with its error code.  With a journal attached, finished jobs
 * are persisted as they complete and a restarted sweep re-runs only
 * the failed/missing ones.
 */

#ifndef SCIQ_SIM_SWEEP_HH
#define SCIQ_SIM_SWEEP_HH

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace sciq {

class SweepRunner
{
  public:
    /** Called after each finished run (always on the calling thread
     *  for jobs<=1, under a lock otherwise): done count, total, and
     *  the just-finished result.  Jobs skipped via the journal count
     *  toward `done` but produce no callback. */
    using Progress =
        std::function<void(std::size_t, std::size_t, const RunResult &)>;

    /** Per-sweep fault-containment and resumability policy. */
    struct Options
    {
        /**
         * Append-only JSONL journal path (key: `journal=`); "" = off.
         * Existing entries whose (index, sweep key) match the submitted
         * configs and ended ok are reused instead of re-run.
         */
        std::string journal;

        /** Extra attempts for errors tagged transient. */
        unsigned maxRetries = 2;

        /** Backoff before retry k is `backoffMs << (k-1)`. */
        unsigned backoffMs = 10;

        /**
         * Directory for failure artifacts (watchdog pipeline dumps,
         * auditor state); "" = $SCIQ_ARTIFACT_DIR, or no artifacts
         * when that is unset too.  Created on first use.
         */
        std::string artifactDir;

        Progress progress;
    };

    /** @param jobs worker threads; 0 = std::thread::hardware_concurrency. */
    explicit SweepRunner(unsigned jobs = 0);

    /**
     * Run every configuration and return results in input order.  Job
     * failures are contained into RunResult::outcome; only harness
     * failures (e.g. an unwritable journal) propagate, after all
     * workers have drained.
     */
    std::vector<RunResult> run(const std::vector<SimConfig> &configs,
                               const Options &options) const;

    /** Convenience overload with default containment options. */
    std::vector<RunResult> run(const std::vector<SimConfig> &configs,
                               const Progress &progress = nullptr) const;

    unsigned jobs() const { return jobs_; }

  private:
    unsigned jobs_;
};

/**
 * Emit results as a machine-readable JSON array (one object per run,
 * every RunResult field including the job outcome) for trajectory
 * tracking and plotting.
 */
void writeResultsJson(std::ostream &os,
                      const std::vector<RunResult> &results);

/** writeResultsJson to a file path; returns false on I/O failure. */
bool writeResultsJson(const std::string &path,
                      const std::vector<RunResult> &results);

} // namespace sciq

#endif // SCIQ_SIM_SWEEP_HH

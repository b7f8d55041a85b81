/**
 * @file
 * Shared helpers for the evaluation-reproduction benches: argument
 * handling, run-time scaling, parallel sweep execution and fixed-width
 * table output.
 *
 * Every bench accepts key=value arguments:
 *   iters=N      override the workload iteration count (0 = default)
 *   quick=1      reduce iteration counts ~4x for a fast smoke pass
 *   workloads=a,b,c   restrict to a subset of benchmarks
 *   jobs=N       sweep worker threads (default: hardware concurrency)
 *   bench_out=path    also write every result as JSON to `path`
 *   ff=N         fast-forward N instructions before the timed run
 *                (count keys accept k/m/g suffixes, e.g. ff=300m)
 *   bb_cache=0   use the step()-based reference interpreter for the
 *                functional paths (default: basic-block cache)
 *   ckpt_dir=path     persist/reuse warm-up checkpoints in `path`
 *   ckpt_reuse=0      disable the in-process sweep-level checkpoint
 *                     cache (each run fast-forwards cold again)
 *   journal=path      append-only JSONL result journal; restarting the
 *                     bench re-runs only unfinished/failed jobs
 *   retries=N    extra attempts for transient job errors (default 2)
 *   artifact_dir=path failure artifacts (pipeline dumps) land here
 *   watchdog_cycles=N no-commit deadlock watchdog window (0 = off)
 *   deadline_sec=S    per-job wall-clock deadline (0 = none)
 *
 * Unknown keys are rejected with a "did you mean" suggestion so a
 * typo'd override fails loudly instead of silently measuring the
 * wrong configuration.  A sweep bench exits nonzero when any of its
 * jobs failed or did not halt, or when bench_out could not be written.
 */

#ifndef SCIQ_BENCH_BENCH_UTIL_HH
#define SCIQ_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workload/workloads.hh"

namespace sciq {
namespace bench {

struct BenchArgs
{
    std::uint64_t iters = 0;  ///< 0 = kernel default
    bool quick = false;
    unsigned jobs = 0;        ///< 0 = hardware concurrency
    std::string benchOut;     ///< JSON output path ("" = none)
    std::uint64_t ff = 0;     ///< fast-forward length (0 = none)
    std::string ckptDir;      ///< on-disk checkpoint cache ("" = none)
    bool ckptReuse = true;    ///< share warm-ups across the sweep
    std::string journal;      ///< resumable result journal ("" = off)
    unsigned retries = 2;     ///< transient-error retry budget
    std::string artifactDir;  ///< failure artifacts ("" = env/off)
    std::vector<std::string> workloads;
    ConfigMap raw;

    /** Every result produced through SweepBatch, for bench_out. */
    std::vector<RunResult> collected;
};

/**
 * Parse bench command-line arguments.  `extra_known` lists the keys a
 * particular bench reads beyond the shared set (e.g. iq_size); any
 * other key aborts with a suggestion.  Negative counts are rejected
 * up front so they cannot wrap around in the unsigned config fields.
 */
inline BenchArgs
parseArgs(int argc, char **argv, std::vector<std::string> default_wls,
          std::vector<std::string> extra_known = {})
{
    BenchArgs args;
    args.raw = ConfigMap::fromArgs(argc, argv);

    std::vector<std::string> known = {
        "iters",       "quick",       "workloads",       "jobs",
        "bench_out",   "ff",          "ckpt_dir",        "ckpt_reuse",
        "audit",       "audit_panic", "journal",         "retries",
        "artifact_dir", "watchdog_cycles", "deadline_sec", "bb_cache",
    };
    known.insert(known.end(), extra_known.begin(), extra_known.end());
    const std::string complaint = args.raw.unknownKeyMessage(known);
    if (!complaint.empty()) {
        std::fprintf(stderr, "ERROR: %s\n", complaint.c_str());
        std::exit(2);
    }
    for (const char *key : {"iters", "jobs", "ff", "retries",
                            "watchdog_cycles"}) {
        if (args.raw.getCount(key, 0) < 0) {
            std::fprintf(stderr, "ERROR: %s= must be >= 0\n", key);
            std::exit(2);
        }
    }
    if (args.raw.getDouble("deadline_sec", 0.0) < 0.0) {
        std::fprintf(stderr, "ERROR: deadline_sec= must be >= 0\n");
        std::exit(2);
    }

    args.iters =
        static_cast<std::uint64_t>(args.raw.getCount("iters", 0));
    args.quick = args.raw.getBool("quick", false);
    args.jobs = static_cast<unsigned>(args.raw.getInt("jobs", 0));
    args.benchOut = args.raw.getString("bench_out", "");
    args.ff = static_cast<std::uint64_t>(args.raw.getCount("ff", 0));
    args.ckptDir = args.raw.getString("ckpt_dir", "");
    args.ckptReuse = args.raw.getBool("ckpt_reuse", true);
    args.journal = args.raw.getString("journal", "");
    args.retries = static_cast<unsigned>(args.raw.getInt("retries", 2));
    args.artifactDir = args.raw.getString("artifact_dir", "");
    std::string wls = args.raw.getString("workloads", "");
    if (wls.empty()) {
        args.workloads = std::move(default_wls);
    } else {
        std::size_t pos = 0;
        while (pos != std::string::npos) {
            auto comma = wls.find(',', pos);
            std::string tok = wls.substr(
                pos, comma == std::string::npos ? comma : comma - pos);
            // Skip empty tokens from stray/trailing commas ("a,,b",
            // "a,b,") instead of passing them on to workload lookup.
            if (!tok.empty())
                args.workloads.push_back(std::move(tok));
            pos = comma == std::string::npos ? comma : comma + 1;
        }
    }
    return args;
}

/** Apply the bench-wide iteration overrides to one configuration. */
inline void
applyArgs(SimConfig &cfg, const BenchArgs &args)
{
    cfg.wl.iterations = args.iters;
    if (args.quick && args.iters == 0) {
        // Quick mode: a fixed reduced iteration count (roughly a
        // quarter of the kernels' calibrated defaults).
        cfg.wl.iterations = 1500;
    }
    cfg.validate = false;  // benches measure; tests validate
    // Every bench accepts audit=1 to run under the invariant auditor.
    cfg.audit = args.raw.getBool("audit", false);
    cfg.auditPanic = args.raw.getBool("audit_panic", false);
    if (args.ff > 0)
        cfg.fastForward = args.ff;
    cfg.bbCache = args.raw.getBool("bb_cache", true);
    if (args.raw.has("watchdog_cycles")) {
        cfg.core.watchdogCycles = static_cast<Cycle>(
            args.raw.getCount("watchdog_cycles", 0));
    }
    cfg.deadlineSec = args.raw.getDouble("deadline_sec", 0.0);
}

/**
 * Deferred-execution batch over the SweepRunner.  A bench first add()s
 * every configuration it will report (remembering indices, or relying
 * on add order and next()), then calls run() once so all of them
 * execute in parallel, then formats its tables from the results.
 */
class SweepBatch
{
  public:
    explicit SweepBatch(BenchArgs &args) : args_(args) {}

    /** Queue one configuration; returns its result index. */
    std::size_t
    add(SimConfig cfg)
    {
        applyArgs(cfg, args_);
        configs_.push_back(std::move(cfg));
        return configs_.size() - 1;
    }

    /** Execute every queued configuration (jobs= worker threads). */
    void
    run()
    {
        // One shared checkpoint cache per sweep: each distinct warm-up
        // (workload x ff length) executes once and every other
        // configuration restores the snapshot.  ckpt_dir= additionally
        // persists the blobs so later sweeps skip warm-up entirely.
        bool anyFf = false;
        for (const SimConfig &cfg : configs_)
            anyFf = anyFf || cfg.fastForward > 0;
        if (anyFf && args_.ckptReuse) {
            auto cache =
                std::make_shared<CheckpointCache>(args_.ckptDir);
            for (SimConfig &cfg : configs_) {
                if (!cfg.ckptCache && cfg.ckptFile.empty())
                    cfg.ckptCache = cache;
            }
        }
        SweepRunner runner(args_.jobs);
        SweepRunner::Options options;
        options.journal = args_.journal;
        options.maxRetries = args_.retries;
        options.artifactDir = args_.artifactDir;
        results_ = runner.run(configs_, options);
        for (const RunResult &r : results_) {
            if (!r.outcome.ok()) {
                std::fprintf(
                    stderr, "WARNING: %s/%s %s: [%s] %s\n",
                    r.workload.c_str(), r.iqKind.c_str(),
                    jobStatusName(r.outcome.status),
                    errorCodeName(r.outcome.code),
                    r.outcome.message.c_str());
            } else if (!r.haltedCleanly) {
                std::fprintf(
                    stderr,
                    "WARNING: %s/%s did not halt within the cycle cap\n",
                    r.workload.c_str(), r.iqKind.c_str());
            }
        }
        args_.collected.insert(args_.collected.end(), results_.begin(),
                               results_.end());
    }

    const RunResult &result(std::size_t i) const { return results_[i]; }

    /** Consume results in add() order. */
    const RunResult &next() { return results_[cursor_++]; }

    std::size_t size() const { return configs_.size(); }

  private:
    BenchArgs &args_;
    std::vector<SimConfig> configs_;
    std::vector<RunResult> results_;
    std::size_t cursor_ = 0;
};

/** Run a single configuration through the sweep machinery. */
inline RunResult
runConfig(SimConfig cfg, BenchArgs &args)
{
    SweepBatch batch(args);
    batch.add(std::move(cfg));
    batch.run();
    return batch.result(0);
}

/**
 * Write collected results to bench_out (if requested) and return the
 * bench's exit status: nonzero when any collected job failed or did
 * not halt cleanly (SweepBatch::run already printed why), or when
 * bench_out could not be written.  `return finishBench(args);` ends
 * every sweep bench's main.
 */
inline int
finishBench(const BenchArgs &args)
{
    std::size_t bad = 0;
    for (const RunResult &r : args.collected)
        bad += !r.outcome.ok() || !r.haltedCleanly;
    int status = 0;
    if (bad > 0) {
        std::fprintf(stderr, "ERROR: %zu of %zu jobs failed or did not "
                             "halt cleanly\n",
                     bad, args.collected.size());
        status = 1;
    }
    if (args.benchOut.empty())
        return status;
    if (writeResultsJson(args.benchOut, args.collected)) {
        std::fprintf(stderr, "wrote %zu results to %s\n",
                     args.collected.size(), args.benchOut.c_str());
    } else {
        std::fprintf(stderr, "ERROR: could not write %s\n",
                     args.benchOut.c_str());
        status = 1;
    }
    return status;
}

inline void
hr(char c = '-', int width = 92)
{
    for (int i = 0; i < width; ++i)
        std::putchar(c);
    std::putchar('\n');
}

} // namespace bench
} // namespace sciq

#endif // SCIQ_BENCH_BENCH_UTIL_HH

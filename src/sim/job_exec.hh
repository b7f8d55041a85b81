/**
 * @file
 * Shared fault-containment plumbing for sweep job execution: exception
 * classification through the error taxonomy, Failed/Timeout result
 * rows, and failure-artifact persistence (DESIGN.md §13).  Used by the
 * in-process sweep (sweep.cc) and the sharded sweep service (shard.cc)
 * so a contained failure looks identical however the job was executed.
 */

#ifndef SCIQ_SIM_JOB_EXEC_HH
#define SCIQ_SIM_JOB_EXEC_HH

#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <thread>

#include "common/errors.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace sciq {
namespace job_exec {

/**
 * Exponential backoff delay for retry `attempt` (1-based): base << (n-1),
 * clamped to `cap_ms` when nonzero.  A nonzero `jitter_seed` spreads the
 * delay deterministically over [3/4, 5/4] of the nominal value so a
 * fleet of workers reconnecting after a coordinator crash does not
 * stampede the fresh listener in lockstep.
 */
inline unsigned
backoffDelayMs(unsigned base_ms, unsigned attempt, unsigned cap_ms = 0,
               std::uint64_t jitter_seed = 0)
{
    if (base_ms == 0)
        return 0;
    const unsigned shift = attempt > 1 ? attempt - 1 : 0;
    std::uint64_t delay = shift >= 32
                              ? std::uint64_t(base_ms) << 32
                              : std::uint64_t(base_ms) << shift;
    if (cap_ms && delay > cap_ms)
        delay = cap_ms;
    if (jitter_seed && delay >= 4) {
        Random rng(jitter_seed + attempt);
        const std::uint64_t spread = delay / 4;
        delay = delay - spread + rng.below(2 * spread + 1);
    }
    return static_cast<unsigned>(delay);
}

/** The in-flight exception, classified through the taxonomy. */
struct Classified
{
    ErrorCode code = ErrorCode::Internal;
    bool transient = false;
    bool timeout = false;
    std::string message;
    std::string context;  ///< captured state dump, if the error had one
};

inline Classified
classify(std::exception_ptr ep)
{
    Classified c;
    try {
        std::rethrow_exception(ep);
    } catch (const DeadlockError &e) {
        c.code = e.code();
        c.timeout = e.isTimeout();
        c.message = e.what();
        c.context = e.context();
    } catch (const SimError &e) {
        c.code = e.code();
        c.transient = e.transient();
        c.message = e.what();
        c.context = e.context();
    } catch (const std::bad_alloc &) {
        c.code = ErrorCode::Resource;
        c.message = "out of memory";
    } catch (const PanicError &e) {
        // Unclassified panic (SCIQ_ASSERT): an internal invariant.
        c.code = ErrorCode::Invariant;
        c.message = e.what();
    } catch (const FatalError &e) {
        c.code = ErrorCode::Config;
        c.message = e.what();
    } catch (const std::exception &e) {
        c.message = e.what();
    } catch (...) {
        c.message = "unknown exception";
    }
    return c;
}

/** A Failed/Timeout row: config identity, zero stats, the outcome. */
inline RunResult
failedResult(const SimConfig &config, const Classified &c, unsigned attempts)
{
    RunResult r;
    r.workload = config.workload;
    r.iqKind = iqKindName(config.core.iqKind);
    r.iqSize = config.core.iq.numEntries;
    r.chains = config.core.iqKind == IqKind::Segmented
                   ? config.core.iq.maxChains
                   : -1;
    r.outcome.status = c.timeout ? JobOutcome::Status::Timeout
                                 : JobOutcome::Status::Failed;
    r.outcome.code = c.code;
    r.outcome.message = c.message;
    r.outcome.attempts = attempts;
    return r;
}

/**
 * Persist a failure's captured context (e.g. the watchdog's pipeline
 * dump) under the artifact directory.  Best-effort: artifact I/O
 * trouble must never turn a contained failure into a fatal one.
 */
inline void
writeArtifact(const std::string &dir, std::size_t index,
              const Classified &c, const std::string &key)
{
    if (dir.empty() || c.context.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/job" + std::to_string(index) + "-" +
                             errorCodeName(c.code) + ".dump";
    std::ofstream out(path);
    if (!out) {
        warn("cannot write failure artifact '%s'", path.c_str());
        return;
    }
    out << "sweep key: " << key << "\nerror: " << c.message << "\n\n"
        << c.context;
    inform("wrote failure artifact %s", path.c_str());
}

/**
 * Run one job with bounded retry-with-backoff for transient errors.
 * Never throws: every exception ends up in the returned outcome.  The
 * single execution path shared by the in-process sweep runner
 * (sweep.cc) and distributed sweep workers (shard.cc), so a contained
 * failure looks identical however the job reached a core.
 */
inline RunResult
executeWithRetry(const SimConfig &config, const std::string &key,
                 std::size_t index, unsigned max_retries,
                 unsigned backoff_ms, const std::string &artifact_dir)
{
    for (unsigned attempt = 1;; ++attempt) {
        std::exception_ptr ep;
        try {
            RunResult r = runSim(config);
            r.outcome.attempts = attempt;
            return r;
        } catch (...) {
            ep = std::current_exception();
        }
        Classified c = classify(ep);
        if (c.transient && attempt <= max_retries) {
            warn("job %zu (%s): transient %s error, retrying "
                 "(attempt %u/%u): %s",
                 index, key.c_str(), errorCodeName(c.code), attempt,
                 max_retries + 1, c.message.c_str());
            if (backoff_ms) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    backoffDelayMs(backoff_ms, attempt)));
            }
            continue;
        }
        warn("job %zu (%s) %s: [%s] %s", index, key.c_str(),
             c.timeout ? "timed out" : "failed", errorCodeName(c.code),
             c.message.c_str());
        writeArtifact(artifact_dir, index, c, key);
        return failedResult(config, c, attempt);
    }
}

} // namespace job_exec
} // namespace sciq

#endif // SCIQ_SIM_JOB_EXEC_HH

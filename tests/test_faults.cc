/**
 * @file
 * Negative tests for the fault-injection / detection / recovery matrix
 * (DESIGN.md §13): each seeded fault must trip exactly the detection
 * path it targets, and each recovery path (retry, cache repair,
 * containment) must actually recover.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "sim/checkpoint.hh"
#include "sim/fault_injector.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"

using namespace sciq;
namespace fs = std::filesystem;

namespace {

/** Fresh scratch directory under the system temp dir, per test. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(fs::temp_directory_path() / ("sciq-fault-test-" + name))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    fs::path operator/(const std::string &leaf) const { return path_ / leaf; }

  private:
    fs::path path_;
};

SimConfig
smallConfig(const std::string &workload = "swim")
{
    SimConfig cfg = makeSegmentedConfig(64, 32, true, true, workload);
    cfg.wl.iterations = 200;
    return cfg;
}

// ---------------------------------------------------------------------
// FaultInjector unit behaviour.

TEST(FaultInjector, BudgetCountsDownAtomically)
{
    FaultInjector fi(7);
    fi.failDiskWrites = 2;
    EXPECT_TRUE(fi.takeDiskWriteFault());
    EXPECT_TRUE(fi.takeDiskWriteFault());
    EXPECT_FALSE(fi.takeDiskWriteFault());
    EXPECT_EQ(fi.failedWrites(), 2u);
}

TEST(FaultInjector, NegativeBudgetIsUnlimited)
{
    FaultInjector fi(7);
    fi.corruptCkptReads = -1;
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(fi.takeCorruptRead());
    EXPECT_EQ(fi.corruptedReads(), 10u);
}

TEST(FaultInjector, CorruptionIsSeededDeterministic)
{
    const std::string original(4096, 'x');

    std::string a = original, b = original;
    FaultInjector(42).corrupt(a);
    FaultInjector(42).corrupt(b);
    EXPECT_NE(a, original);
    EXPECT_EQ(a, b) << "same seed must corrupt identically";

    std::string c = original;
    FaultInjector(43).corrupt(c);
    EXPECT_NE(c, a) << "different seed must corrupt differently";
}

// ---------------------------------------------------------------------
// Commit-stall fault -> watchdog detection.

TEST(Watchdog, InjectedCommitStallThrowsDeadlockWithDump)
{
    SimConfig cfg = smallConfig();
    cfg.wl.iterations = 5000;
    cfg.core.faultCommitStallAt = 200;
    cfg.core.watchdogCycles = 2000;

    Simulator sim(cfg);
    try {
        sim.run();
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Deadlock);
        EXPECT_FALSE(e.isTimeout());
        EXPECT_NE(std::string(e.what()).find("no instruction committed"),
                  std::string::npos);
        // The embedded pipeline dump names the core and IQ state.
        EXPECT_NE(e.context().find("core state"), std::string::npos);
        EXPECT_NE(e.context().find("rob="), std::string::npos);
        EXPECT_NE(e.context().find("segmented iq"), std::string::npos);
        EXPECT_NE(e.context().find("segment 0"), std::string::npos);
    }
}

TEST(Watchdog, CleanRunsNeverTrip)
{
    SimConfig cfg = smallConfig();
    cfg.core.watchdogCycles = 2000;  // far below the 1M default
    RunResult r = runSim(cfg);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
}

TEST(Watchdog, ZeroDisables)
{
    SimConfig cfg = smallConfig();
    cfg.wl.iterations = 50;
    cfg.core.faultCommitStallAt = 200;
    cfg.core.watchdogCycles = 0;
    cfg.maxCycles = 5000;  // the cap, not the watchdog, ends the run
    cfg.validate = false;
    RunResult r = runSim(cfg);
    EXPECT_FALSE(r.haltedCleanly);
}

TEST(Watchdog, SweepContainsDeadlockAndWritesArtifact)
{
    ScratchDir dir("artifacts");
    std::vector<SimConfig> cfgs = {smallConfig(), smallConfig("gcc")};
    cfgs[0].wl.iterations = 5000;
    cfgs[0].core.faultCommitStallAt = 200;
    cfgs[0].core.watchdogCycles = 2000;

    SweepRunner::Options options;
    options.artifactDir = dir.str();
    std::vector<RunResult> results = SweepRunner(2).run(cfgs, options);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].outcome.status, JobOutcome::Status::Failed);
    EXPECT_EQ(results[0].outcome.code, ErrorCode::Deadlock);
    EXPECT_TRUE(results[1].outcome.ok());
    EXPECT_TRUE(results[1].validated);

    const std::string artifact = (dir / "job0-deadlock.dump").string();
    ASSERT_TRUE(fs::exists(artifact)) << artifact;
    EXPECT_GT(fs::file_size(artifact), 100u);
}

// ---------------------------------------------------------------------
// Wall-clock deadline -> timeout classification.

TEST(Deadline, ExpiredDeadlineIsTimeout)
{
    SimConfig cfg = smallConfig("ammp");
    cfg.wl.iterations = 100000;  // long enough to outlive the deadline
    cfg.deadlineSec = 1e-9;
    cfg.validate = false;

    try {
        runSim(cfg);
        FAIL() << "expected DeadlockError timeout";
    } catch (const DeadlockError &e) {
        EXPECT_TRUE(e.isTimeout());
        EXPECT_FALSE(e.context().empty());
    }

    std::vector<SimConfig> cfgs = {cfg};
    std::vector<RunResult> results = SweepRunner(1).run(cfgs);
    EXPECT_EQ(results[0].outcome.status, JobOutcome::Status::Timeout);
    EXPECT_EQ(results[0].outcome.code, ErrorCode::Deadlock);
}

// ---------------------------------------------------------------------
// Checkpoint corruption / disk faults -> retry and repair paths.

TEST(CheckpointFaults, CorruptReadExhaustsRetriesIntoFailedOutcome)
{
    // The name predates the cache-only warm-up path, where a corrupt
    // read is repaired, not retried; the persistent fault that burns
    // every retry is now a failing checkpoint write.
    ScratchDir dir("write-exhaust");
    SimConfig cfg = smallConfig("mgrid");
    cfg.fastForward = 1500;
    const RunResult pristine = runSim(cfg);  // cold, no cache
    cfg.ckptDir = dir.str();

    SimConfig faulted = cfg;
    faulted.faults = std::make_shared<FaultInjector>(42);
    faulted.faults->failDiskWrites = -1;  // every attempt, every retry

    std::vector<SimConfig> cfgs = {faulted, cfg};
    SweepRunner::Options options;
    options.maxRetries = 2;
    options.backoffMs = 1;
    std::vector<RunResult> results = SweepRunner(1).run(cfgs, options);

    EXPECT_EQ(results[0].outcome.status, JobOutcome::Status::Failed);
    EXPECT_EQ(results[0].outcome.code, ErrorCode::Checkpoint);
    EXPECT_EQ(results[0].outcome.attempts, 3u) << "retries must be burned";
    EXPECT_EQ(faulted.faults->failedWrites(), 3u);

    // The healthy job sharing the sweep and the cache is untouched,
    // bit-identical: each failed attempt released the producer key.
    EXPECT_TRUE(results[1].outcome.ok());
    EXPECT_EQ(results[1].cycles, pristine.cycles);
    EXPECT_EQ(results[1].insts, pristine.insts);
    EXPECT_TRUE(results[1].validated);
    EXPECT_TRUE(fs::exists(
        CheckpointCache(dir.str()).pathFor(checkpointKeyHash(cfg))));
}

TEST(CheckpointFaults, TransientDiskWriteFailureRecoversOnRetry)
{
    ScratchDir dir("disk-retry");
    SimConfig cfg = smallConfig("equake");
    cfg.fastForward = 1500;
    cfg.ckptDir = dir.str();
    cfg.faults = std::make_shared<FaultInjector>(11);
    cfg.faults->failDiskWrites = 1;

    std::vector<SimConfig> cfgs = {cfg};
    SweepRunner::Options options;
    options.maxRetries = 2;
    options.backoffMs = 1;
    std::vector<RunResult> results = SweepRunner(1).run(cfgs, options);

    EXPECT_TRUE(results[0].outcome.ok());
    EXPECT_EQ(results[0].outcome.attempts, 2u);
    EXPECT_EQ(cfg.faults->failedWrites(), 1u);
    EXPECT_TRUE(fs::exists(
        CheckpointCache(dir.str()).pathFor(checkpointKeyHash(cfg))))
        << "retry must persist the blob";
}

TEST(CheckpointFaults, CacheModeCorruptionTakesRepairPath)
{
    // In cache mode a damaged blob is not an error: warmUp logs,
    // re-warms cold and republishes (PR-4's repair path).  The fault
    // injector must exercise that path, not kill the job.
    ScratchDir dir("cache-repair");
    SimConfig cfg = smallConfig("ammp");
    cfg.fastForward = 1500;
    cfg.ckptDir = dir.str();

    RunResult first = runSim(cfg);  // produces the cache entry
    EXPECT_FALSE(first.ckptRestored);

    SimConfig faulted = cfg;
    faulted.faults = std::make_shared<FaultInjector>(99);
    faulted.faults->corruptCkptReads = 1;
    RunResult second = runSim(faulted);

    EXPECT_TRUE(second.outcome.ok());
    EXPECT_FALSE(second.ckptRestored) << "repair re-warms cold";
    EXPECT_EQ(second.cycles, first.cycles);
    EXPECT_TRUE(second.validated);

    // The republished entry is clean again.
    RunResult third = runSim(cfg);
    EXPECT_TRUE(third.ckptRestored);
    EXPECT_EQ(third.cycles, first.cycles);
}

// ---------------------------------------------------------------------
// Over-promotion fault -> auditor detection (through the taxonomy).

TEST(AuditFaults, InjectedOverPromotionContainedInSweep)
{
    SimConfig cfg = smallConfig();
    cfg.wl.iterations = 300;
    cfg.audit = true;
    cfg.auditPanic = true;
    cfg.core.iq.auditInjectOverPromote = true;

    std::vector<SimConfig> cfgs = {cfg};
    std::vector<RunResult> results = SweepRunner(1).run(cfgs);
    EXPECT_EQ(results[0].outcome.status, JobOutcome::Status::Failed);
    EXPECT_EQ(results[0].outcome.code, ErrorCode::Invariant);
}

// ---------------------------------------------------------------------
// Config keys end to end.

TEST(FaultKeys, ConfigMapBuildsInjectorAndWatchdog)
{
    SimConfig cfg;
    ConfigMap m;
    m.set("watchdog_cycles", "12345");
    m.set("deadline_sec", "2.5");
    cfg.apply(m);

    EXPECT_EQ(cfg.core.watchdogCycles, 12345u);
    EXPECT_DOUBLE_EQ(cfg.deadlineSec, 2.5);
    EXPECT_EQ(cfg.faults, nullptr) << "no key builds an injector";

    // Every fault, the injector and the step reference are reachable
    // from tests only: their former keys are unknown.
    for (const char *key :
         {"fault_seed", "fault_ckpt_corrupt", "fault_disk_fail",
          "fault_commit_stall", "fault_overpromote", "bb_cache", "ckpt"}) {
        ConfigMap removed;
        removed.set(key, "1");
        EXPECT_THROW(SimConfig().apply(removed), ConfigError) << key;
    }
}

} // namespace

/**
 * @file
 * Resumable result journals (DESIGN.md §13): sweep-key identity, the
 * compact JSON round trip that resumption's bit-identity contract
 * rests on, tolerant loading of killed-writer tails, and end-to-end
 * kill/resume equivalence with an uninterrupted sweep.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"

using namespace sciq;
namespace fs = std::filesystem;

namespace {

/** Fresh scratch directory under the system temp dir, per test. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(fs::temp_directory_path() / ("sciq-journal-test-" + name))
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

std::vector<SimConfig>
configSet()
{
    std::vector<SimConfig> cfgs;
    for (const auto &wl : {"swim", "gcc"}) {
        SimConfig seg = makeSegmentedConfig(64, 32, true, true, wl);
        seg.wl.iterations = 200;
        cfgs.push_back(seg);
        SimConfig ideal = makeIdealConfig(64, wl);
        ideal.wl.iterations = 200;
        cfgs.push_back(ideal);
    }
    return cfgs;
}

void
expectSameBits(double a, double b, const char *field)
{
    std::uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ab, bb) << field << " differs (" << a << " vs " << b << ")";
}

/** Architected fields only (host-perf is wall-clock, never compared). */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.iqKind, b.iqKind);
    EXPECT_EQ(a.iqSize, b.iqSize);
    EXPECT_EQ(a.chains, b.chains);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    expectSameBits(a.ipc, b.ipc, "ipc");
    expectSameBits(a.avgChains, b.avgChains, "avgChains");
    expectSameBits(a.hmpAccuracy, b.hmpAccuracy, "hmpAccuracy");
    expectSameBits(a.iqOccupancyAvg, b.iqOccupancyAvg, "iqOccupancyAvg");
    expectSameBits(a.deadlockCycleFrac, b.deadlockCycleFrac,
                   "deadlockCycleFrac");
    expectSameBits(a.l1dMissRate, b.l1dMissRate, "l1dMissRate");
    EXPECT_EQ(a.auditViolations, b.auditViolations);
    EXPECT_EQ(a.validated, b.validated);
    EXPECT_EQ(a.haltedCleanly, b.haltedCleanly);
    EXPECT_EQ(a.outcome.ok(), b.outcome.ok());
}

std::size_t
journalLines(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line))
        ++n;
    return n;
}

// ---------------------------------------------------------------------
// Sweep keys.

TEST(SweepKey, DeterministicAndSensitive)
{
    SimConfig a = makeSegmentedConfig(128, 64, true, true, "swim");
    EXPECT_EQ(sweepKey(a), sweepKey(a));

    SimConfig b = a;
    b.core.iq.numEntries = 256;
    EXPECT_NE(sweepKey(a), sweepKey(b));

    SimConfig c = a;
    c.workload = "gcc";
    EXPECT_NE(sweepKey(a), sweepKey(c));

    SimConfig d = a;
    d.wl.iterations = 999;
    EXPECT_NE(sweepKey(a), sweepKey(d));

    SimConfig e = a;
    e.core.iqKind = IqKind::Ideal;
    EXPECT_NE(sweepKey(a), sweepKey(e));

    // Both change simulated cycles, so both are part of a job's
    // identity (wrong-path modelling for every IQ kind).
    SimConfig f = a;
    f.core.modelWrongPath = !a.core.modelWrongPath;
    EXPECT_NE(sweepKey(a), sweepKey(f));
    SimConfig g = e;
    g.core.modelWrongPath = !e.core.modelWrongPath;
    EXPECT_NE(sweepKey(e), sweepKey(g));

    SimConfig h = a;
    h.core.iq.resizeInterval = a.core.iq.resizeInterval + 16;
    EXPECT_NE(sweepKey(a), sweepKey(h));
}

TEST(SweepKey, HostOnlySettingsExcluded)
{
    // Checkpoint caching, auditing and fault injection change how a
    // result is produced, never what it is - they must not invalidate
    // journal entries on resume.
    SimConfig a = makeSegmentedConfig(128, 64, true, true, "swim");
    SimConfig b = a;
    b.ckptDir = "/somewhere/else";
    b.audit = true;
    b.validate = false;
    b.bbCache = !a.bbCache;
    EXPECT_EQ(sweepKey(a), sweepKey(b));
}

// The suite name predates the removal of lockstep batching; the test
// still guards against the sweep's host settings leaking into the key.
TEST(LockstepBatch, SweepKeyInvariantUnderHostSettings)
{
    // sweepKey() identifies *what* is simulated; the worker count
    // describes *how*.  The key must not move when host settings
    // change, or journals would silently stop resuming across them.
    SimConfig c = makeSegmentedConfig(64, 32, true, true, "swim");
    const std::string key = sweepKey(c);
    EXPECT_FALSE(key.empty());
    for (unsigned jobs : {0u, 1u, 7u}) {
        SweepRunner runner(jobs);
        EXPECT_EQ(sweepKey(c), key);
    }
    EXPECT_EQ(key.find("batch"), std::string::npos);
    EXPECT_EQ(key.find("jobs"), std::string::npos);
}

// ---------------------------------------------------------------------
// Compact round trip.

TEST(JournalRoundTrip, EveryFieldBitIdentical)
{
    SimConfig cfg = makeSegmentedConfig(64, 32, false, false, "swim");
    cfg.wl.iterations = 200;
    RunResult r = runSim(cfg);
    ASSERT_TRUE(std::isnan(r.hmpAccuracy)) << "want a NaN in the round trip";

    std::ostringstream os;
    writeResultCompactJson(os, r);
    RunResult back = resultFromJson(json::parse(os.str()));

    expectIdentical(r, back);
    // Host-perf fields round-trip too (same source run).
    expectSameBits(r.hostSeconds, back.hostSeconds, "hostSeconds");
    expectSameBits(r.hostKcyclesPerSec, back.hostKcyclesPerSec,
                   "hostKcyclesPerSec");
    EXPECT_EQ(back.outcome.status, JobOutcome::Status::Ok);
    EXPECT_EQ(back.outcome.code, ErrorCode::None);
    EXPECT_EQ(back.outcome.attempts, r.outcome.attempts);

    // And the canonical array emitter sees identical bytes.
    std::ostringstream pretty_a, pretty_b;
    writeResultsJson(pretty_a, {r});
    writeResultsJson(pretty_b, {back});
    EXPECT_EQ(pretty_a.str(), pretty_b.str());
}

TEST(JournalRoundTrip, FailedOutcomeSurvives)
{
    RunResult r;
    r.workload = "swim";
    r.iqKind = "segmented";
    r.outcome.status = JobOutcome::Status::Failed;
    r.outcome.code = ErrorCode::Checkpoint;
    r.outcome.message = "checkpoint checksum mismatch (corrupted file)";
    r.outcome.attempts = 3;

    std::ostringstream os;
    writeResultCompactJson(os, r);
    RunResult back = resultFromJson(json::parse(os.str()));
    EXPECT_EQ(back.outcome.status, JobOutcome::Status::Failed);
    EXPECT_EQ(back.outcome.code, ErrorCode::Checkpoint);
    EXPECT_EQ(back.outcome.message, r.outcome.message);
    EXPECT_EQ(back.outcome.attempts, 3u);
}

// ---------------------------------------------------------------------
// Loader tolerance.

TEST(JournalLoad, MissingFileIsEmpty)
{
    EXPECT_TRUE(loadJournal("/nonexistent/journal.jsonl").empty());
}

TEST(JournalLoad, SkipsTruncatedTailLine)
{
    ScratchDir dir("truncated");
    const std::string path = (dir / "j.jsonl").string();

    RunResult r;
    r.workload = "swim";
    r.iqKind = "ideal";
    {
        ResultJournal journal(path);
        journal.record(0, "key0", r);
        journal.record(1, "key1", r);
    }
    // Simulate a kill mid-write: append half a line.
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"index\":2,\"key\":\"key2\",\"result\":{\"work";
    }

    std::vector<JournalEntry> entries = loadJournal(path);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].index, 0u);
    EXPECT_EQ(entries[0].key, "key0");
    EXPECT_EQ(entries[1].index, 1u);
    EXPECT_EQ(entries[1].result.workload, "swim");
}

// ---------------------------------------------------------------------
// End-to-end resume.

TEST(JournalResume, KilledSweepResumesBitIdentical)
{
    ScratchDir dir("resume");
    const std::string path = (dir / "sweep.jsonl").string();
    const std::vector<SimConfig> cfgs = configSet();

    // Reference: uninterrupted, journal-free.
    const std::vector<RunResult> reference = SweepRunner(2).run(cfgs);

    // "Killed" sweep: only the first half of the configs ran before the
    // process died (same indices and keys as the full list)...
    std::vector<SimConfig> firstHalf(cfgs.begin(),
                                     cfgs.begin() + cfgs.size() / 2);
    SweepRunner::Options options;
    options.journal = path;
    SweepRunner(2).run(firstHalf, options);
    const std::size_t halfLines = journalLines(path);
    EXPECT_EQ(halfLines, firstHalf.size());

    // ...plus a torn final line from the kill.
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"index\":9,\"key\":\"torn";
    }

    // Resume over the full config list.
    std::vector<RunResult> resumed = SweepRunner(2).run(cfgs, options);
    ASSERT_EQ(resumed.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        expectIdentical(reference[i], resumed[i]);

    // Only the missing jobs ran: one new journal line each.
    EXPECT_EQ(journalLines(path),
              halfLines + 1 + (cfgs.size() - firstHalf.size()));

    // A second resume re-runs nothing at all.
    std::vector<RunResult> again = SweepRunner(2).run(cfgs, options);
    EXPECT_EQ(journalLines(path),
              halfLines + 1 + (cfgs.size() - firstHalf.size()));
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        expectIdentical(reference[i], again[i]);
}

TEST(JournalResume, FailedEntriesAreRerun)
{
    ScratchDir dir("rerun-failed");
    const std::string path = (dir / "sweep.jsonl").string();
    const std::vector<SimConfig> cfgs = configSet();

    // Journal a failed outcome for job 1 under its real key.
    {
        RunResult failed;
        failed.workload = cfgs[1].workload;
        failed.iqKind = "ideal";
        failed.outcome.status = JobOutcome::Status::Failed;
        failed.outcome.code = ErrorCode::Resource;
        failed.outcome.message = "out of memory";
        ResultJournal journal(path);
        journal.record(1, sweepKey(cfgs[1]), failed);
    }

    SweepRunner::Options options;
    options.journal = path;
    std::vector<RunResult> results = SweepRunner(1).run(cfgs, options);

    // The failed entry was re-run and succeeded this time.
    EXPECT_TRUE(results[1].outcome.ok());
    EXPECT_TRUE(results[1].validated);
    // All jobs ran (1 old line + one new line per config).
    EXPECT_EQ(journalLines(path), 1 + cfgs.size());
}

TEST(JournalResume, StaleKeysAreRerun)
{
    ScratchDir dir("stale-key");
    const std::string path = (dir / "sweep.jsonl").string();
    const std::vector<SimConfig> cfgs = configSet();

    // An ok entry journaled under a different configuration's key must
    // not be mispaired when the config list changes.
    {
        RunResult ok;
        ok.workload = "swim";
        ok.iqKind = "segmented";
        ok.cycles = 12345;  // a poison value that must not leak through
        ResultJournal journal(path);
        journal.record(0, "workload=swim iters=777 stale", ok);
    }

    SweepRunner::Options options;
    options.journal = path;
    std::vector<RunResult> results = SweepRunner(1).run(cfgs, options);
    EXPECT_NE(results[0].cycles, 12345u);
    EXPECT_TRUE(results[0].validated);
}

} // namespace

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
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/errors.hh"
#include "sim/config_fields.hh"
#include "sim/journal.hh"
#include "sim/run_result_fields.hh"
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

/**
 * Changes the `target`th field of the config table (counting from 0)
 * and records which one.  Path-valued fields move under `dir`.
 */
struct Flipper
{
    Flipper(std::size_t target_, std::string dir_)
        : target(target_), dir(std::move(dir_))
    {
    }

    std::size_t target;
    std::string dir;
    std::size_t at = 0;
    std::string key;
    unsigned cls = 0;

    template <typename T>
    void
    operator()(const char *k, unsigned c, T &f, std::int64_t = 0)
    {
        if (at++ != target)
            return;
        key = k;
        cls = c;
        if constexpr (std::is_same_v<T, std::string>)
            f = dir + "/" + k;
        else if constexpr (std::is_same_v<T, bool>)
            f = !f;
        else if constexpr (std::is_same_v<T, IqKind>)
            f = f == IqKind::Ideal ? IqKind::Segmented : IqKind::Ideal;
        else if constexpr (std::is_same_v<T, double>)
            f += 60.0;  // generous, so a flipped deadline never fires
        else
            ++f;
    }
};

/** Every serialized RunResult field as exact text, keyed by name. */
struct ResultFields
{
    std::map<std::string, std::string> f;

    void str(const char *k, const std::string &v) { f[k] = v; }
    void uns(const char *k, unsigned v) { f[k] = std::to_string(v); }
    void i(const char *k, int v) { f[k] = std::to_string(v); }
    void u64(const char *k, std::uint64_t v) { f[k] = std::to_string(v); }
    void num(const char *k, double v)
    {
        std::ostringstream os;
        json::writeNumber(os, v);
        f[k] = os.str();
    }
    void b(const char *k, bool v) { f[k] = v ? "true" : "false"; }
};

/**
 * The result fields a Job or Local setting may move: host timing, the
 * warm-up's own counters (warm_*, bbcache_*, zero when the warm-up was
 * restored) and the outcome of the checks themselves.
 */
bool
hostOnlyField(const std::string &key)
{
    for (const char *prefix : {"host_", "warm_", "bbcache_"}) {
        if (key.rfind(prefix, 0) == 0)
            return true;
    }
    return key == "validated" || key == "audit_violations";
}

TEST(SweepKey, DeterministicAndSensitive)
{
    // Every Identity field of the table moves the key, for every IQ
    // kind; no Job or Local field does.
    const std::vector<SimConfig> kinds = {
        makeSegmentedConfig(128, 64, true, true, "swim"),
        makeIdealConfig(128, "swim"),
        makePrescheduledConfig(128, "swim"),
        makeFifoConfig(8, 16, "swim"),
    };
    std::set<std::string> identity;
    for (const SimConfig &a : kinds) {
        EXPECT_EQ(sweepKey(a), sweepKey(a));
        for (std::size_t n = 0;; ++n) {
            SimConfig b = a;
            Flipper flip(n, "/elsewhere");
            visitConfigFields(flip, b);
            if (flip.key.empty())
                break;
            if (flip.cls & ConfigClass::Identity) {
                identity.insert(flip.key);
                EXPECT_NE(sweepKey(a), sweepKey(b))
                    << flip.key << " on " << iqKindName(a.core.iqKind);
            } else {
                EXPECT_EQ(sweepKey(a), sweepKey(b))
                    << flip.key << " on " << iqKindName(a.core.iqKind);
            }
        }
    }
    // Knobs that change cycles and once drifted out of the key.
    for (const char *key : {"wrong_path", "resize_interval"})
        EXPECT_EQ(identity.count(key), 1u) << key;
}

TEST(SweepKey, HostOnlySettingsExcluded)
{
    // Job and Local settings (auditing, the checkpoint cache,
    // deadlines) change how a result is produced or checked,
    // never what it is - they must not invalidate journal entries, and
    // the result itself must agree outside host timing and the checks.
    ScratchDir dir("host-only");
    SimConfig a = makeSegmentedConfig(64, 32, true, true, "swim");
    a.wl.iterations = 200;
    a.fastForward = 2000;  // so the checkpoint paths are exercised
    const RunResult clean = runSim(a);
    ResultFields base;
    visitRunResultFields(base, clean);

    std::size_t flipped = 0;
    for (std::size_t n = 0;; ++n) {
        SimConfig b = a;
        Flipper flip(n, dir.str());
        visitConfigFields(flip, b);
        if (flip.key.empty())
            break;
        if (flip.cls & ConfigClass::Identity)
            continue;
        ++flipped;
        EXPECT_EQ(sweepKey(a), sweepKey(b)) << flip.key;
        const RunResult r = SweepRunner(1).run({b})[0];
        EXPECT_TRUE(r.outcome.ok()) << flip.key << ": "
                                    << r.outcome.message;
        ResultFields got;
        visitRunResultFields(got, r);
        for (const auto &[key, value] : base.f) {
            if (!hostOnlyField(key)) {
                EXPECT_EQ(got.f[key], value)
                    << flip.key << " moved " << key;
            }
        }
    }
    EXPECT_EQ(flipped, 6u);
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

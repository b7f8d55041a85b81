/**
 * @file
 * Randomized crash-recovery harness for the distributed sweep service
 * (DESIGN.md §18).
 *
 * Every trial runs a real coordinator/worker fleet over TCP loopback,
 * kills the coordinator once at a seeded random instant (after a
 * result is journaled, before it is acked — the worst-case window),
 * injects seeded worker-side connection drops and aborts, restarts the
 * coordinator on the same port + journal, and asserts the merged final
 * JSON is byte-identical (modulo the wall-clock fields) to an
 * uninterrupted single-process run.
 *
 * The trial count defaults to 20 (the CI chaos gate) and is overridden
 * with SCIQ_CHAOS_TRIALS=N for longer soaks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/errors.hh"
#include "common/random.hh"
#include "sim/fault_injector.hh"
#include "sim/journal.hh"
#include "sim/shard.hh"
#include "sim/sweep.hh"

using namespace sciq;

namespace {

std::vector<SimConfig>
chaosConfigSet()
{
    std::vector<SimConfig> cfgs;
    for (const auto &wl : {"swim", "gcc"}) {
        for (unsigned size : {32u, 64u}) {
            SimConfig seg = makeSegmentedConfig(size, 32, true, true, wl);
            seg.wl.iterations = 200;
            cfgs.push_back(seg);
        }
        SimConfig ideal = makeIdealConfig(64, wl);
        ideal.wl.iterations = 200;
        cfgs.push_back(ideal);
    }
    return cfgs;
}

/** writeResultsJson with the host wall-clock lines removed. */
std::string
maskedResultsJson(const std::vector<RunResult> &results)
{
    std::ostringstream os;
    writeResultsJson(os, results);
    static const char *masked[] = {
        "\"host_seconds\"", "\"host_kcycles_per_sec\"",
        "\"host_kinsts_per_sec\"", "\"warm_seconds\"",
        "\"warm_insts_per_sec\"",
    };
    std::istringstream is(os.str());
    std::string out, line;
    while (std::getline(is, line)) {
        bool skip = false;
        for (const char *m : masked)
            skip = skip || line.find(m) != std::string::npos;
        if (!skip)
            out += line + "\n";
    }
    return out;
}

std::string
trialJournal(unsigned trial)
{
    return "/tmp/sciq-chaos-" + std::to_string(::getpid()) + "-" +
           std::to_string(trial) + ".jsonl";
}

WorkerOptions
chaosWorkerOptions(const std::string &endpoint, const std::string &name)
{
    WorkerOptions options;
    options.endpoint = endpoint;
    options.name = name;
    options.backoffMs = 0;
    // Tight reconnect policy: trials restart the coordinator within
    // milliseconds, and a worker that outlives the whole sweep (the
    // coordinator finished without it) should give up fast instead of
    // sitting out the 120s production reply timeout.
    options.connectTimeoutMs = 2'000;
    options.replyTimeoutMs = 3'000;
    options.maxReconnects = 10;
    options.reconnectBackoffMs = 20;
    options.reconnectBackoffCapMs = 200;
    return options;
}

struct TrialResult
{
    bool crashFired = false;
    std::vector<RunResult> results;
    ServeStats stats;
    WorkerReport w0, w1;
};

/**
 * One chaos trial: coordinator + 2 workers over TCP loopback, one
 * injected coordinator crash, seeded worker faults, one restart.
 */
TrialResult
runChaosTrial(const std::vector<SimConfig> &cfgs, std::uint64_t seed)
{
    Random rng(seed);
    TrialResult trial;
    const unsigned trialTag =
        static_cast<unsigned>(seed & 0xffffffffu);
    const std::string journal = trialJournal(trialTag);
    std::remove(journal.c_str());

    // The crash instant: after journaling the Nth result, uniformly
    // over the whole sweep (including the very last result, which
    // exercises resume-with-nothing-left-to-do).
    const std::size_t abortAt = 1 + rng.below(cfgs.size());

    ServeOptions base;
    base.leaseMs = 60'000;
    base.workerGraceMs = 30'000;
    base.heartbeatMs = 500;
    base.journal = journal;

    std::atomic<unsigned> port{0};
    std::thread coord([&] {
        ServeOptions first = base;
        first.endpoint = "127.0.0.1:0";
        first.boundPortOut = &port;
        first.faults = std::make_shared<FaultInjector>(seed);
        first.faults->abortCoordinator =
            static_cast<std::int64_t>(abortAt);
        try {
            trial.results = serveSweep(cfgs, first, &trial.stats);
            return;  // abortAt > results delivered: cannot happen
        } catch (const ResourceError &) {
            trial.crashFired = true;
        }
        // The "supervisor restart": same port, same journal, no
        // faults.  Surviving workers reconnect into this instance.
        ServeOptions second = base;
        second.endpoint = "127.0.0.1:" + std::to_string(port);
        trial.results = serveSweep(cfgs, second, &trial.stats);
    });

    while (port == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::string peer = "127.0.0.1:" + std::to_string(port);

    // Worker faults ride along: w0 severs its connection at a seeded
    // result send (reconnect + redeliver path); w1 sometimes dies
    // outright (lease requeue path, the fleet degrades to one worker).
    WorkerOptions wo0 = chaosWorkerOptions(peer, "w0");
    wo0.faults = std::make_shared<FaultInjector>(seed ^ 0xabcdef);
    wo0.faults->dropConnection =
        static_cast<std::int64_t>(1 + rng.below(3));
    WorkerOptions wo1 = chaosWorkerOptions(peer, "w1");
    if (rng.chance(0.5)) {
        wo1.faults = std::make_shared<FaultInjector>(seed ^ 0x123456);
        wo1.faults->abortWorker =
            static_cast<std::int64_t>(1 + rng.below(2));
    }

    std::thread w0([&] { trial.w0 = runWorker(wo0); });
    std::thread w1([&] { trial.w1 = runWorker(wo1); });
    w0.join();
    w1.join();
    coord.join();
    std::remove(journal.c_str());
    return trial;
}

} // namespace

TEST(Chaos, CrashAfterFirstResultRecoversByteIdentically)
{
    // The deterministic smoke case: die right after the first result
    // is journaled, before its ack reaches the worker.  The worker
    // must redeliver, the restarted coordinator must dedup against the
    // resumed journal, and the merge must stay byte-identical.
    const std::vector<SimConfig> cfgs = chaosConfigSet();
    const std::string ref = maskedResultsJson(SweepRunner(1).run(cfgs));

    // Probe for a seed whose first draw lands the crash on result 1.
    std::uint64_t seed = 0;
    for (; seed < 64; ++seed) {
        Random probe(seed);
        if (probe.below(cfgs.size()) == 0)
            break;
    }
    ASSERT_LT(seed, 64u) << "no seed with abortAt == 1 found";

    const TrialResult trial = runChaosTrial(cfgs, seed);
    EXPECT_TRUE(trial.crashFired);
    ASSERT_EQ(trial.results.size(), cfgs.size());
    EXPECT_EQ(maskedResultsJson(trial.results), ref);
}

TEST(Chaos, RandomizedCoordinatorKillTrialsStayByteIdentical)
{
    const std::vector<SimConfig> cfgs = chaosConfigSet();
    const std::string ref = maskedResultsJson(SweepRunner(1).run(cfgs));

    unsigned trials = 20;
    if (const char *env = std::getenv("SCIQ_CHAOS_TRIALS"))
        trials = static_cast<unsigned>(std::atoi(env));

    unsigned redeliveries = 0, reconnects = 0;
    for (unsigned t = 0; t < trials; ++t) {
        const std::uint64_t seed = 0x5c1a05ull * 1000 + t;
        const TrialResult trial = runChaosTrial(cfgs, seed);
        ASSERT_TRUE(trial.crashFired) << "trial " << t;
        ASSERT_EQ(trial.results.size(), cfgs.size()) << "trial " << t;
        EXPECT_EQ(maskedResultsJson(trial.results), ref)
            << "trial " << t << " (seed " << seed << ") diverged";
        for (const RunResult &r : trial.results)
            EXPECT_TRUE(r.outcome.ok())
                << "trial " << t << ": " << r.outcome.message;
        redeliveries += trial.w0.redelivered + trial.w1.redelivered;
        reconnects += trial.w0.reconnects + trial.w1.reconnects;
    }
    // The chaos is real: across the batch the reconnect/redeliver
    // machinery must actually have been exercised, not dodged.
    EXPECT_GT(reconnects, 0u);
    EXPECT_GT(redeliveries, 0u);
}

TEST(Chaos, GracefulDrainLeavesAResumableJournal)
{
    // SIGTERM semantics without the signal: flip the stop flag after
    // the first result, assert the coordinator reports interrupted
    // with a valid journal, then restart and finish byte-identically.
    const std::vector<SimConfig> cfgs = chaosConfigSet();
    const std::string ref = maskedResultsJson(SweepRunner(1).run(cfgs));
    const std::string journal = trialJournal(999999);
    std::remove(journal.c_str());

    std::atomic<bool> stop{false};
    ServeOptions base;
    base.workerGraceMs = 30'000;
    base.heartbeatMs = 500;
    base.journal = journal;
    base.drainGraceMs = 500;

    std::atomic<unsigned> port{0};
    std::vector<RunResult> merged;
    ServeStats firstStats, secondStats;
    std::thread coord([&] {
        ServeOptions first = base;
        first.endpoint = "127.0.0.1:0";
        first.boundPortOut = &port;
        first.stop = &stop;
        first.progress = [&](std::size_t done, std::size_t,
                             const RunResult &) {
            if (done >= 1)
                stop.store(true);
        };
        serveSweep(cfgs, first, &firstStats);

        // The journal a drain leaves is valid and resumable: no torn
        // tail, at least the first result, every row well-formed.
        const auto rows = loadJournal(journal);
        EXPECT_GE(rows.size(), 1u);

        ServeOptions second = base;
        second.endpoint = "127.0.0.1:" + std::to_string(port);
        merged = serveSweep(cfgs, second, &secondStats);
    });

    while (port == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::string peer = "127.0.0.1:" + std::to_string(port);
    WorkerReport r0, r1;
    std::thread w0([&] { r0 = runWorker(chaosWorkerOptions(peer, "w0")); });
    std::thread w1([&] { r1 = runWorker(chaosWorkerOptions(peer, "w1")); });
    w0.join();
    w1.join();
    coord.join();
    std::remove(journal.c_str());

    EXPECT_TRUE(firstStats.interrupted);
    EXPECT_FALSE(secondStats.interrupted);
    ASSERT_EQ(merged.size(), cfgs.size());
    EXPECT_EQ(maskedResultsJson(merged), ref);
}

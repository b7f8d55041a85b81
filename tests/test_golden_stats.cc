/**
 * @file
 * Golden-stats regression harness.
 *
 * Every workload runs on the segmented and the ideal IQ at fixed seeds
 * with the invariant auditor enabled; a curated subset of the stats
 * tree is compared against the committed snapshots under
 * tests/golden/<workload>.json.  Counts must match exactly, derived
 * averages within a tiny relative tolerance.
 *
 * The segmented IQ's deterministic host-work counters (iq.work.*) are
 * pinned the same way, exactly, in tests/golden/work_proxy.json: a
 * scheduler change that makes the tick do more work fails here with
 * no wall-clock noise involved.
 *
 * Regenerate the snapshots after an intentional behaviour change with:
 *
 *     ./build/tests/test_golden_stats --update-golden
 *
 * and commit the refreshed files under tests/golden/.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/audit.hh"
#include "sim/simulator.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

bool g_update_golden = false;

/** One audited statistic: dotted path into the core stats tree. */
struct StatCheck
{
    const char *path;
    bool exact;  ///< false: relative tolerance for derived averages
};

constexpr double kRelTol = 1e-9;

/** Curated subset shared by every IQ model. */
const std::vector<StatCheck> &
commonChecks()
{
    static const std::vector<StatCheck> checks = {
        {"cycles", true},
        {"committed_insts", true},
        {"fetched_insts", true},
        {"wrong_path_insts", true},
        {"squashes", true},
        {"committed_loads", true},
        {"committed_stores", true},
        {"committed_branches", true},
        {"rob_occupancy", false},
        {"rob_occupancy_dist.mean", false},
        {"rob_occupancy_dist.samples", true},
        {"iq.inserted", true},
        {"iq.issued", true},
        {"iq.occupancy", false},
        {"lsq.loads_issued", true},
        {"lsq.store_drains", true},
        {"bpred.cond_mispredicts", true},
        // The auditor ran (audit=1 below) and found nothing.
        {"audit.cycles_audited", true},
        {"audit.negative_delay", true},
        {"audit.segment_overflow", true},
        {"audit.promotion_bound", true},
        {"audit.issue_over_width", true},
        {"audit.wire_delivery", true},
        {"audit.pool_bound", true},
    };
    return checks;
}

/** Chain-machinery statistics only the segmented IQ has. */
const std::vector<StatCheck> &
segmentedChecks()
{
    static const std::vector<StatCheck> checks = {
        {"iq.chains_created", true},
        {"iq.heads_from_loads", true},
        {"iq.promotions", true},
        {"iq.deadlock_cycles", true},
        {"iq.chains_in_use", false},
        {"iq.seg0_occupancy", false},
    };
    return checks;
}

/** Wakeup-array statistics specific to the prescheduled IQ (section 2). */
const std::vector<StatCheck> &
prescheduledChecks()
{
    static const std::vector<StatCheck> checks = {
        {"iq.array_stall_cycles", true},
        {"iq.issue_buffer_occ", false},
    };
    return checks;
}

/** Steering statistics specific to the dependence-FIFO IQ (section 2). */
const std::vector<StatCheck> &
fifoChecks()
{
    static const std::vector<StatCheck> checks = {
        {"iq.steered_behind_producer", true},
        {"iq.steered_to_empty", true},
        {"iq.no_empty_fifo_stalls", true},
    };
    return checks;
}

/** Descend a dotted path through nested JSON objects. */
const json::Value *
navigate(const json::Value &root, const std::string &path)
{
    const json::Value *v = &root;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        const std::size_t dot = path.find('.', pos);
        const std::string part =
            path.substr(pos, dot == std::string::npos ? dot : dot - pos);
        if (!v->contains(part))
            return nullptr;
        v = &v->at(part);
        if (dot == std::string::npos)
            break;
        pos = dot + 1;
    }
    return v;
}

/**
 * Count curated-subset mismatches between a golden tree and a freshly
 * produced one.  Returns the number of differing stats and appends a
 * description of each to @p diffs.
 */
unsigned
compareTrees(const json::Value &golden, const json::Value &current,
             const std::vector<const std::vector<StatCheck> *> &check_sets,
             std::string &diffs)
{
    unsigned mismatches = 0;
    auto differ = [&](const std::string &path, const std::string &why) {
        ++mismatches;
        diffs += "  " + path + ": " + why + "\n";
    };

    for (const auto *checks : check_sets) {
        for (const StatCheck &c : *checks) {
            const json::Value *g = navigate(golden, c.path);
            const json::Value *n = navigate(current, c.path);
            if (!g) {
                differ(c.path, "missing from golden snapshot");
                continue;
            }
            if (!n) {
                differ(c.path, "missing from current stats tree");
                continue;
            }
            if (g->isNull() && n->isNull())
                continue;
            if (!g->isNumber() || !n->isNumber()) {
                differ(c.path, "non-numeric value");
                continue;
            }
            const double gv = g->asNumber();
            const double nv = n->asNumber();
            if (c.exact) {
                if (gv != nv) {
                    differ(c.path, "expected " + std::to_string(gv) +
                                       ", got " + std::to_string(nv));
                }
            } else {
                const double tol =
                    kRelTol * std::max(1.0, std::fabs(gv));
                if (std::fabs(gv - nv) > tol) {
                    differ(c.path, "expected " + std::to_string(gv) +
                                       " +- " + std::to_string(tol) +
                                       ", got " + std::to_string(nv));
                }
            }
        }
    }
    return mismatches;
}

std::string
goldenPath(const std::string &workload)
{
    return std::string(SCIQ_GOLDEN_DIR) + "/" + workload + ".json";
}

/** The fixed configuration the snapshots were generated with. */
SimConfig
goldenConfig(const std::string &workload, const std::string &kind)
{
    SimConfig cfg = [&] {
        if (kind == "segmented")
            return makeSegmentedConfig(128, 64, true, true, workload);
        if (kind == "prescheduled")
            return makePrescheduledConfig(128, workload);
        if (kind == "fifo")
            return makeFifoConfig(16, 8, workload);
        return makeIdealConfig(128, workload);
    }();
    cfg.wl.iterations = 300;
    cfg.audit = true;
    return cfg;
}

/** Run one configuration and snapshot the whole core stats tree. */
std::string
runAndDump(const SimConfig &cfg)
{
    Simulator sim(cfg);
    RunResult r = sim.run();
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
    EXPECT_EQ(r.auditViolations, 0u);
    std::ostringstream os;
    sim.core().statGroup().dumpJson(os);
    return os.str();
}

class GoldenStats : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenStats, MatchesCommittedSnapshot)
{
    const std::string workload = GetParam();
    const std::string seg_tree =
        runAndDump(goldenConfig(workload, "segmented"));
    const std::string ideal_tree =
        runAndDump(goldenConfig(workload, "ideal"));
    const std::string presched_tree =
        runAndDump(goldenConfig(workload, "prescheduled"));
    const std::string fifo_tree =
        runAndDump(goldenConfig(workload, "fifo"));

    if (g_update_golden) {
        std::ofstream out(goldenPath(workload));
        ASSERT_TRUE(out) << "cannot write " << goldenPath(workload);
        out << "{\n\"segmented\": " << seg_tree << ",\n\"ideal\": "
            << ideal_tree << ",\n\"prescheduled\": " << presched_tree
            << ",\n\"fifo\": " << fifo_tree << "\n}\n";
        return;
    }

    json::Value golden;
    try {
        golden = json::parseFile(goldenPath(workload));
    } catch (const json::ParseError &e) {
        FAIL() << e.what()
               << "\n(regenerate with: test_golden_stats --update-golden)";
    }

    std::string diffs;
    unsigned bad = compareTrees(
        golden.at("segmented"), json::parse(seg_tree),
        {&commonChecks(), &segmentedChecks()}, diffs);
    bad += compareTrees(golden.at("ideal"), json::parse(ideal_tree),
                        {&commonChecks()}, diffs);
    bad += compareTrees(golden.at("prescheduled"),
                        json::parse(presched_tree),
                        {&commonChecks(), &prescheduledChecks()}, diffs);
    bad += compareTrees(golden.at("fifo"), json::parse(fifo_tree),
                        {&commonChecks(), &fifoChecks()}, diffs);
    EXPECT_EQ(bad, 0u)
        << "stat drift vs " << goldenPath(workload) << ":\n" << diffs
        << "(if intentional, regenerate with --update-golden)";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, GoldenStats,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Deterministic perf proxy: the iq.work.* counters of a pinned
// quick-mode segmented run, committed in tests/golden/work_proxy.json.

struct WorkPoint
{
    std::uint64_t sig = 0, plan = 0, scanned = 0, words = 0;
};

std::string
proxyPath()
{
    return std::string(SCIQ_GOLDEN_DIR) + "/work_proxy.json";
}

/** Per-workload counters gathered in update mode. */
std::map<std::string, WorkPoint> g_collected;

WorkPoint
workFromJson(const json::Value &e)
{
    auto u64 = [&e](const char *key) {
        return static_cast<std::uint64_t>(e.at(key).asNumber());
    };
    return {u64("signal_deliveries"), u64("plan_calls"),
            u64("segments_scanned"), u64("lane_words_touched")};
}

void
writeProxyFile()
{
    // Merge with the committed file so a filtered update run (a single
    // workload) does not drop the others.
    std::map<std::string, WorkPoint> merged;
    try {
        const json::Value root = json::parseFile(proxyPath());
        for (const std::string &wl : workloadNames()) {
            if (root.at("workloads").contains(wl))
                merged[wl] = workFromJson(
                    root.at("workloads").at(wl).at("reference"));
        }
    } catch (...) {
        // No readable committed file yet: write what we collected.
    }
    for (const auto &[wl, w] : g_collected)
        merged[wl] = w;

    std::ofstream out(proxyPath());
    if (!out) {
        std::fprintf(stderr, "ERROR: cannot write %s\n",
                     proxyPath().c_str());
        return;
    }
    out << "{\n  \"config\": {\"iq_size\": 256, \"iterations\": 300, "
           "\"fast_forward\": 1500},\n  \"workloads\": {\n";
    std::size_t i = 0;
    for (const auto &[wl, w] : merged) {
        out << "    \"" << wl << "\": {\n      \"reference\": "
            << "{\"signal_deliveries\": " << w.sig
            << ", \"plan_calls\": " << w.plan
            << ", \"segments_scanned\": " << w.scanned
            << ", \"lane_words_touched\": " << w.words << "}"
            << "\n    }" << (++i == merged.size() ? "\n" : ",\n");
    }
    out << "  }\n}\n";
    std::fprintf(stderr, "wrote %s\n", proxyPath().c_str());
}

class WorkProxy : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkProxy, MatchesCommittedCounters)
{
    const std::string workload = GetParam();
    SimConfig cfg = makeSegmentedConfig(256, 64, true, true, workload);
    cfg.wl.iterations = 300;
    cfg.fastForward = 1500;
    cfg.validate = true;
    const RunResult r = runSim(cfg);
    ASSERT_TRUE(r.validated);
    const WorkPoint w{r.iqSignalDeliveries, r.iqPlanCalls,
                      r.iqSegmentsScanned, r.iqLaneWordsTouched};

    if (g_update_golden) {
        // Written as one file after RUN_ALL_TESTS.
        g_collected[workload] = w;
        return;
    }

    json::Value golden;
    try {
        golden = json::parseFile(proxyPath());
    } catch (const json::ParseError &e) {
        FAIL() << e.what()
               << "\n(regenerate with: test_golden_stats --update-golden)";
    }
    ASSERT_TRUE(golden.at("workloads").contains(workload))
        << "no committed counters for " << workload
        << " (regenerate with --update-golden)";
    const WorkPoint want =
        workFromJson(golden.at("workloads").at(workload).at("reference"));
    EXPECT_EQ(w.sig, want.sig) << "signal_deliveries";
    EXPECT_EQ(w.plan, want.plan) << "plan_calls";
    EXPECT_EQ(w.scanned, want.scanned) << "segments_scanned";
    EXPECT_EQ(w.words, want.words) << "lane_words_touched";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkProxy,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

// The comparator itself: exact stats must differ on any change, toleranced
// stats only beyond the relative tolerance.  Without this, a vacuous
// comparator would let every golden test pass silently.
TEST(GoldenCompare, DetectsPerturbationBeyondTolerance)
{
    using json::Value;
    std::map<std::string, Value> iq;
    iq["occupancy"] = Value::makeNumber(0.5);
    std::map<std::string, Value> tree;
    tree["cycles"] = Value::makeNumber(1000.0);
    tree["iq"] = Value::makeObject(iq);
    const Value golden = Value::makeObject(tree);

    static const std::vector<StatCheck> checks = {
        {"cycles", true},
        {"iq.occupancy", false},
    };
    const std::vector<const std::vector<StatCheck> *> sets = {&checks};

    std::string diffs;
    EXPECT_EQ(compareTrees(golden, golden, sets, diffs), 0u) << diffs;

    // Off-by-one in an exact counter is a failure.
    tree["cycles"] = Value::makeNumber(1001.0);
    diffs.clear();
    EXPECT_EQ(compareTrees(golden, Value::makeObject(tree), sets, diffs),
              1u);
    EXPECT_NE(diffs.find("cycles"), std::string::npos);
    tree["cycles"] = Value::makeNumber(1000.0);

    // Sub-tolerance float noise passes; drift beyond it does not.
    iq["occupancy"] = Value::makeNumber(0.5 * (1.0 + 1e-12));
    tree["iq"] = Value::makeObject(iq);
    diffs.clear();
    EXPECT_EQ(compareTrees(golden, Value::makeObject(tree), sets, diffs),
              0u) << diffs;

    iq["occupancy"] = Value::makeNumber(0.5 * 1.01);
    tree["iq"] = Value::makeObject(iq);
    diffs.clear();
    EXPECT_EQ(compareTrees(golden, Value::makeObject(tree), sets, diffs),
              1u);
    EXPECT_NE(diffs.find("iq.occupancy"), std::string::npos);

    // A stat missing from either side is always reported.
    std::map<std::string, Value> sparse;
    sparse["cycles"] = Value::makeNumber(1000.0);
    diffs.clear();
    EXPECT_EQ(compareTrees(golden, Value::makeObject(sparse), sets, diffs),
              1u);
    EXPECT_NE(diffs.find("missing from current"), std::string::npos);
}

} // namespace

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden")
            g_update_golden = true;
    }
    const int rc = RUN_ALL_TESTS();
    if (g_update_golden && rc == 0)
        writeProxyFile();
    return rc;
}

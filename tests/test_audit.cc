/**
 * @file
 * Invariant-auditor sweep: every workload, both IQ models, two IQ
 * sizes, all with `audit=1` -- a healthy simulator must report zero
 * violations.  The negative tests prove the auditor actually fires by
 * enabling the test-only over-promotion fault injection, and the
 * transparency tests prove it only observes: with audit=1 the rest of
 * the stats tree is byte-identical to an unaudited run.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "common/errors.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/audit.hh"
#include "sim/simulator.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

using AuditParam = std::tuple<std::string, std::string, unsigned>;

class AuditSweep : public ::testing::TestWithParam<AuditParam>
{
};

TEST_P(AuditSweep, ZeroViolations)
{
    const auto &[workload, kind, iq_size] = GetParam();

    SimConfig cfg = kind == "segmented"
        ? makeSegmentedConfig(iq_size, 32, true, true, workload)
        : makeIdealConfig(iq_size, workload);
    cfg.wl.iterations = 200;
    cfg.audit = true;

    Simulator sim(cfg);
    RunResult r = sim.run();

    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.validated);
    ASSERT_NE(sim.auditor(), nullptr);
    EXPECT_GT(sim.auditor()->cyclesAudited.value(), 0.0);
    EXPECT_EQ(r.auditViolations, 0u)
        << "negative_delay=" << sim.auditor()->negativeDelay.value()
        << " segment_overflow=" << sim.auditor()->segmentOverflow.value()
        << " promotion_bound=" << sim.auditor()->promotionBound.value()
        << " issue_over_width=" << sim.auditor()->issueOverWidth.value()
        << " wire_delivery=" << sim.auditor()->wireDelivery.value()
        << " pool_bound=" << sim.auditor()->poolBound.value();
}

std::string
auditParamName(const ::testing::TestParamInfo<AuditParam> &info)
{
    return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_" +
           std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, AuditSweep,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::Values("segmented", "ideal"),
                       ::testing::Values(64u, 256u)),
    auditParamName);

TEST(AuditStats, GroupIsWiredIntoCoreTree)
{
    SimConfig cfg = makeSegmentedConfig(64, 32, true, true, "swim");
    cfg.wl.iterations = 100;
    cfg.audit = true;

    Simulator sim(cfg);
    sim.run();

    stats::Group &core_stats = sim.core().statGroup();
    EXPECT_TRUE(core_stats.contains("audit.cycles_audited"));
    EXPECT_GT(core_stats.lookup("audit.cycles_audited"), 0.0);
    EXPECT_EQ(core_stats.lookup("audit.promotion_bound"), 0.0);
    EXPECT_EQ(core_stats.lookup("audit.wire_delivery"), 0.0);
}

TEST(AuditNegative, InjectedOverPromotionIsCaught)
{
    // The fault injection ignores the previous-cycle free-entry snapshot
    // when computing the promotion budget, which violates the section 9
    // bound whenever a segment drained this cycle.  The auditor must
    // notice; a zero count here would mean the check is vacuous.  ammp
    // keeps segment 0 close to full, so the injected budget overshoots
    // hundreds of times in 300 iterations.
    SimConfig cfg = makeSegmentedConfig(64, 16, true, true, "ammp");
    cfg.wl.iterations = 300;
    cfg.audit = true;
    cfg.core.iq.auditInjectOverPromote = true;

    Simulator sim(cfg);
    RunResult r = sim.run();

    ASSERT_NE(sim.auditor(), nullptr);
    EXPECT_GT(sim.auditor()->promotionBound.value(), 0.0);
    EXPECT_GT(r.auditViolations, 0u);
}

TEST(AuditNegative, PanicModeThrowsOnFirstViolation)
{
    SimConfig cfg = makeSegmentedConfig(64, 16, true, true, "ammp");
    cfg.wl.iterations = 300;
    cfg.audit = true;
    cfg.auditPanic = true;
    cfg.core.iq.auditInjectOverPromote = true;

    Simulator sim(cfg);
    try {
        sim.run();
        FAIL() << "expected InvariantError";
    } catch (const InvariantError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Invariant);
        EXPECT_NE(std::string(e.what()).find("promotions"), std::string::npos);
        EXPECT_FALSE(e.context().empty()) << "panic path must capture a dump";
    }
}

/**
 * Flatten a parsed stats tree into one "path value" line per leaf, with
 * exact number formatting, skipping the top-level audit group.
 */
void
flattenStats(const json::Value &v, const std::string &path,
             std::ostringstream &out)
{
    if (v.isObject()) {
        for (const auto &[key, child] : v.asObject()) {
            if (path.empty() && key == "audit")
                continue;
            flattenStats(child, path + "/" + key, out);
        }
    } else if (v.isArray()) {
        for (std::size_t i = 0; i < v.size(); ++i)
            flattenStats(v.at(i), path + "/" + std::to_string(i), out);
    } else {
        out << path << ' ';
        if (v.isNumber())
            json::writeNumber(out, v.asNumber());
        else if (v.isString())
            json::writeString(out, v.asString());
        else if (v.isBool())
            out << v.asBool();
        else
            out << "null";
        out << '\n';
    }
}

/** Run `cfg` and return its stats tree without the audit group. */
std::string
statsWithoutAudit(const SimConfig &cfg, RunResult &r)
{
    Simulator sim(cfg);
    r = sim.run();
    std::ostringstream json_os;
    sim.core().statGroup().dumpJson(json_os);
    std::ostringstream out;
    flattenStats(json::parse(json_os.str()), "", out);
    return out.str();
}

class AuditTransparency : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AuditTransparency, StatsTreesByteIdenticalWithAuditOn)
{
    const std::string workload = GetParam();
    for (unsigned size : {64u, 256u}) {
        SimConfig cfg = makeSegmentedConfig(size, 64, true, true, workload);
        cfg.wl.iterations = 300;
        cfg.fastForward = 1500;
        cfg.validate = true;

        RunResult plain;
        const std::string plain_tree = statsWithoutAudit(cfg, plain);
        cfg.audit = true;
        RunResult audited;
        const std::string audited_tree = statsWithoutAudit(cfg, audited);

        ASSERT_TRUE(plain.validated) << size;
        ASSERT_TRUE(audited.validated) << size;
        EXPECT_EQ(audited.auditViolations, 0u) << size;
        EXPECT_EQ(plain.cycles, audited.cycles) << size;
        EXPECT_EQ(plain_tree, audited_tree) << "iq_size " << size;
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, AuditTransparency,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

} // namespace

/**
 * @file
 * Unit tests for the segmented dependence-chain instruction queue -
 * the paper's core contribution.  Covers chain creation policy (3.4),
 * delay-value maintenance and wire pipelining (3.2/3.3), promotion
 * thresholds (3.1), pushdown (4.1), dispatch bypass (4.2), LRP (4.3),
 * HMP (4.4) and deadlock recovery (4.5), plus scripted edge cases at
 * segment boundaries (tiny segments, suspend/resume, squash while
 * signals are in flight, deadlock recovery) that must drain cleanly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "branch/hit_miss_predictor.hh"
#include "branch/left_right_predictor.hh"
#include "iq/segmented_iq.hh"
#include "iq_harness.hh"

using namespace sciq;
using namespace sciq::test;

namespace {

struct SegFixture : public ::testing::Test
{
    SegFixture() : scoreboard(128), rec(scoreboard)
    {
        params.numEntries = 16;
        params.segmentSize = 4;  // 4 segments
        params.issueWidth = 4;
        params.maxChains = -1;
        params.enableBypass = true;
        params.enablePushdown = true;
        params.predictedLoadLatency = 4;
    }

    std::unique_ptr<SegmentedIq>
    makeIq()
    {
        return std::make_unique<SegmentedIq>(params, scoreboard, fu, &hmp,
                                             &lrp);
    }

    /** Dispatch helper mirroring the core: clear dst then insert. */
    void
    dispatch(SegmentedIq &iq, const DynInstPtr &inst)
    {
        ASSERT_TRUE(iq.canInsert(inst)) << "seq " << inst->seq;
        if (inst->physDst != kInvalidReg)
            scoreboard.clearReady(inst->physDst);
        iq.insert(inst, cycle);
    }

    void
    tick(SegmentedIq &iq, bool busy = true)
    {
        iq.tick(++cycle, busy);
    }

    IqParams params;
    Scoreboard scoreboard;
    FuPool fu;
    HitMissPredictor hmp{64};
    LeftRightPredictor lrp{64};
    IssueRecorder rec;
    Cycle cycle = 0;
};

} // namespace

TEST_F(SegFixture, ThresholdsAreTwoPerSegment)
{
    EXPECT_EQ(SegmentedIq::threshold(0), 2);
    EXPECT_EQ(SegmentedIq::threshold(1), 4);
    EXPECT_EQ(SegmentedIq::threshold(2), 6);
    EXPECT_EQ(SegmentedIq::threshold(7), 16);
}

TEST_F(SegFixture, LoadCreatesChainHead)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    EXPECT_NE(load->seg.headedChain, kNoChain);
    EXPECT_EQ(iq->chainsCreated.value(), 1.0);
    EXPECT_EQ(iq->headsFromLoads.value(), 1.0);
    EXPECT_EQ(iq->chainsInUse(), 1u);
}

TEST_F(SegFixture, NonLoadWithReadyOperandsHasNoChain)
{
    auto iq = makeIq();
    auto add = makeInst(1, Opcode::ADD, intReg(3), intReg(1), intReg(2));
    dispatch(*iq, add);
    EXPECT_EQ(add->seg.headedChain, kNoChain);
    EXPECT_EQ(add->seg.numMemberships, 0);
    EXPECT_EQ(iq->chainsCreated.value(), 0.0);
}

TEST_F(SegFixture, HmpPredictedHitSuppressesChain)
{
    params.useHmp = true;
    auto iq = makeIq();
    const Addr trained_pc = 0x1000 + 1 * kInstBytes;  // seq 1's pc
    for (int i = 0; i < 15; ++i)
        hmp.update(trained_pc, true);

    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    EXPECT_EQ(load->seg.headedChain, kNoChain);
    EXPECT_TRUE(load->hmpUsed);
    EXPECT_TRUE(load->hmpPredictedHit);
    EXPECT_EQ(iq->chainsCreated.value(), 0.0);

    // An untrained load still heads a chain.
    auto load2 = makeInst(2, Opcode::LD, intReg(4), intReg(1));
    dispatch(*iq, load2);
    EXPECT_NE(load2->seg.headedChain, kNoChain);
}

TEST_F(SegFixture, DependentJoinsProducersChainWithPredictedDelay)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    ASSERT_EQ(dep->seg.numMemberships, 1);
    const ChainMembership &m = dep->seg.memberships[0];
    EXPECT_EQ(m.chain, load->seg.headedChain);
    // Head in segment 0 (bypass put the load there): 2*0 + 4.
    EXPECT_EQ(m.delay, 4);
    EXPECT_EQ(m.headSegment, 0);
    EXPECT_FALSE(m.selfTimed);
}

TEST_F(SegFixture, TransitiveDelayAccumulatesExecutionLatency)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto mul = makeInst(2, Opcode::FMUL, fpReg(3), fpReg(2), fpReg(1));
    mul->staticInst.rs1 = intReg(2);  // depend on the load
    mul->archSrc = mul->staticInst.srcRegs();
    mul->physSrc = mul->archSrc;
    dispatch(*iq, mul);
    auto dep = makeInst(3, Opcode::FADD, fpReg(4), fpReg(3), fpReg(1));
    dispatch(*iq, dep);
    ASSERT_EQ(dep->seg.numMemberships, 1);
    // load(4) + fmul(4) behind the same chain head.
    EXPECT_EQ(dep->seg.memberships[0].delay, 8);
    EXPECT_EQ(dep->seg.memberships[0].chain, load->seg.headedChain);
}

TEST_F(SegFixture, BypassTargetsHighestNonEmptySegment)
{
    auto iq = makeIq();
    auto first = makeInst(1, Opcode::NOP);
    dispatch(*iq, first);
    EXPECT_EQ(first->seg.segment, 0);  // empty queue: straight to bottom
    for (SeqNum s = 2; s <= 4; ++s)
        dispatch(*iq, makeInst(s, Opcode::NOP));
    // Segment 0 now full; next insert lands in segment 1.
    auto fifth = makeInst(5, Opcode::NOP);
    dispatch(*iq, fifth);
    EXPECT_EQ(fifth->seg.segment, 1);
}

TEST_F(SegFixture, NoBypassDispatchesToTop)
{
    params.enableBypass = false;
    auto iq = makeIq();
    auto inst = makeInst(1, Opcode::NOP);
    dispatch(*iq, inst);
    EXPECT_EQ(inst->seg.segment, 3);
}

TEST_F(SegFixture, ReadyInstructionPromotesOneSegmentPerCycle)
{
    params.enableBypass = false;
    auto iq = makeIq();
    auto inst = makeInst(1, Opcode::NOP);
    dispatch(*iq, inst);
    EXPECT_EQ(inst->seg.segment, 3);
    tick(*iq);
    EXPECT_EQ(inst->seg.segment, 2);
    tick(*iq);
    EXPECT_EQ(inst->seg.segment, 1);
    tick(*iq);
    EXPECT_EQ(inst->seg.segment, 0);
    iq->issueSelect(cycle, rec.acceptAll());
    ASSERT_EQ(rec.issued.size(), 1u);
}

TEST_F(SegFixture, MemberDelayFollowsHeadWithWirePipelining)
{
    params.enableBypass = false;
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    ASSERT_EQ(dep->seg.numMemberships, 1);
    // Head dispatched into segment 3: delay = 2*3 + 4 = 10.
    EXPECT_EQ(dep->seg.memberships[0].delay, 10);

    // Head promotes 3->2; the member (in segment 3) sees the wire the
    // same cycle the head leaves its segment.
    tick(*iq);
    EXPECT_EQ(load->seg.segment, 2);
    EXPECT_EQ(dep->seg.memberships[0].delay, 8);
    EXPECT_EQ(dep->seg.memberships[0].headSegment, 2);

    // Subsequent assertions reach segment 3 one cycle per segment of
    // distance, so the member's view lags the head's true position.
    int last_delay = 8;
    for (int i = 0; i < 12 && !dep->seg.memberships[0].selfTimed; ++i) {
        tick(*iq);
        iq->issueSelect(cycle, rec.acceptAll());  // head issues from 0
        EXPECT_LE(dep->seg.memberships[0].delay, last_delay);
        last_delay = dep->seg.memberships[0].delay;
    }
    EXPECT_TRUE(dep->seg.memberships[0].selfTimed);
}

TEST_F(SegFixture, SelfTimedMemberCountsDownAndIssues)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);

    iq->issueSelect(cycle, rec.acceptAll());  // load issues (ready)
    ASSERT_EQ(rec.issued.size(), 1u);
    tick(*iq);  // assert delivered at segment 0; member self-times
    EXPECT_TRUE(dep->seg.memberships[0].selfTimed);
    EXPECT_EQ(dep->seg.memberships[0].delay, 3);  // 4 - first countdown
    for (int i = 0; i < 3; ++i)
        tick(*iq);
    EXPECT_EQ(dep->seg.memberships[0].delay, 0);

    // Once the value arrives the member issues from segment 0.
    scoreboard.setReady(intReg(2));
    iq->issueSelect(cycle, rec.acceptAll());
    EXPECT_EQ(rec.issued.size(), 2u);
}

TEST_F(SegFixture, SuspendStopsCountdownResumeRestarts)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);

    iq->issueSelect(cycle, rec.acceptAll());
    tick(*iq);  // self-timed, delay 3
    ASSERT_TRUE(dep->seg.memberships[0].selfTimed);

    // The load misses: suspend propagates on the chain wire (3.4).
    iq->onLoadMiss(load, cycle);
    tick(*iq);
    EXPECT_TRUE(dep->seg.memberships[0].suspended);
    const int frozen = dep->seg.memberships[0].delay;
    for (int i = 0; i < 5; ++i)
        tick(*iq);
    EXPECT_EQ(dep->seg.memberships[0].delay, frozen);

    // Data returns: resume self-timing.
    iq->onLoadComplete(load, cycle);
    tick(*iq);
    EXPECT_FALSE(dep->seg.memberships[0].suspended);
    tick(*iq);
    EXPECT_LT(dep->seg.memberships[0].delay, frozen);
}

TEST_F(SegFixture, TwoOutstandingOperandsMakeNewChainHead)
{
    auto iq = makeIq();
    auto load_a = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    auto load_b = makeInst(2, Opcode::LD, intReg(3), intReg(1));
    dispatch(*iq, load_a);
    dispatch(*iq, load_b);
    auto add = makeInst(3, Opcode::ADD, intReg(4), intReg(2), intReg(3));
    dispatch(*iq, add);
    EXPECT_EQ(add->seg.numMemberships, 2);
    EXPECT_NE(add->seg.headedChain, kNoChain);
    EXPECT_TRUE(add->hadTwoOutstanding);
    EXPECT_EQ(iq->twoOutstanding.value(), 1.0);
    EXPECT_EQ(iq->chainsInUse(), 3u);
}

TEST_F(SegFixture, SameChainOperandsMergeToOneMembership)
{
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(2, Opcode::ADDI, intReg(3), intReg(2), kInvalidReg);
    dep->staticInst.imm = 1;
    dispatch(*iq, dep);
    // Both operands of `add` come (transitively) from the same chain.
    auto add = makeInst(3, Opcode::ADD, intReg(4), intReg(2), intReg(3));
    dispatch(*iq, add);
    EXPECT_EQ(add->seg.numMemberships, 1);
    EXPECT_EQ(add->seg.headedChain, kNoChain);
    EXPECT_FALSE(add->hadTwoOutstanding);
    // Tracks the *later* operand: load(4) + addi(1) = 5.
    EXPECT_EQ(add->seg.memberships[0].delay, 5);
}

TEST_F(SegFixture, LrpRestrictsToOneChainAndNoNewHead)
{
    params.useLrp = true;
    auto iq = makeIq();
    auto load_a = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    auto load_b = makeInst(2, Opcode::LD, intReg(3), intReg(1));
    dispatch(*iq, load_a);
    dispatch(*iq, load_b);

    const Addr add_pc = 0x1000 + 3 * kInstBytes;
    for (int i = 0; i < 4; ++i)
        lrp.update(add_pc, false);  // right operand arrives later

    auto add = makeInst(3, Opcode::ADD, intReg(4), intReg(2), intReg(3));
    dispatch(*iq, add);
    EXPECT_EQ(add->seg.numMemberships, 1);
    EXPECT_EQ(add->seg.headedChain, kNoChain);
    EXPECT_TRUE(add->lrpUsed);
    EXPECT_FALSE(add->lrpPredictedLeft);
    EXPECT_EQ(add->seg.memberships[0].chain, load_b->seg.headedChain);
    EXPECT_EQ(iq->chainsInUse(), 2u);  // no third chain
}

TEST_F(SegFixture, ChainExhaustionStallsDispatch)
{
    params.maxChains = 1;
    auto iq = makeIq();
    auto load_a = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load_a);
    auto load_b = makeInst(2, Opcode::LD, intReg(3), intReg(1));
    EXPECT_FALSE(iq->canInsert(load_b));
    EXPECT_GT(iq->chainStalls.value(), 0.0);
    // A chainless instruction still dispatches.
    auto nop = makeInst(3, Opcode::NOP);
    EXPECT_TRUE(iq->canInsert(nop));
}

TEST_F(SegFixture, ChainFreedAfterWritebackDrain)
{
    params.maxChains = 1;
    auto iq = makeIq();
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    iq->issueSelect(cycle, rec.acceptAll());
    iq->onLoadComplete(load, cycle);
    iq->onWriteback(load, cycle);
    EXPECT_EQ(iq->chainsInUse(), 1u);  // still draining
    // After the wire-drain delay the chain wire is reusable.
    for (unsigned i = 0; i < iq->numSegments() + 3; ++i)
        tick(*iq);
    EXPECT_EQ(iq->chainsInUse(), 0u);
    auto load_b = makeInst(2, Opcode::LD, intReg(3), intReg(1));
    EXPECT_TRUE(iq->canInsert(load_b));
}

TEST_F(SegFixture, SquashRemovesInstructionsAndRestoresTable)
{
    auto iq = makeIq();
    auto nop = makeInst(1, Opcode::NOP);
    dispatch(*iq, nop);
    auto load = makeInst(2, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    auto dep = makeInst(3, Opcode::ADD, intReg(3), intReg(2), intReg(1));
    dispatch(*iq, dep);
    EXPECT_EQ(iq->occupancy(), 3u);
    EXPECT_EQ(iq->chainsInUse(), 1u);

    // Squash the load and its dependent (youngest first, as the core
    // does), keeping only seq 1.
    iq->onSquashInst(dep);
    iq->onSquashInst(load);
    iq->squash(1);
    EXPECT_EQ(iq->occupancy(), 1u);

    // The register info entry for r2 must be restored: a new reader of
    // r2 sees an available operand (pre-load state), not the squashed
    // load's chain.
    scoreboard.setReady(intReg(2));
    auto reader = makeInst(4, Opcode::ADD, intReg(4), intReg(2), intReg(1));
    dispatch(*iq, reader);
    EXPECT_EQ(reader->seg.numMemberships, 0);
}

TEST_F(SegFixture, PromotionLimitedByIssueWidthBandwidth)
{
    params.enableBypass = false;
    params.issueWidth = 2;
    auto iq = makeIq();
    // Six ready instructions in the top segment? Top holds only 4.
    std::vector<DynInstPtr> insts;
    for (SeqNum s = 1; s <= 4; ++s) {
        auto inst = makeInst(s, Opcode::NOP);
        dispatch(*iq, inst);
        insts.push_back(inst);
    }
    tick(*iq);
    // Only issueWidth (2) promoted; the oldest two go first.
    EXPECT_EQ(insts[0]->seg.segment, 2);
    EXPECT_EQ(insts[1]->seg.segment, 2);
    EXPECT_EQ(insts[2]->seg.segment, 3);
    EXPECT_EQ(insts[3]->seg.segment, 3);
}

TEST_F(SegFixture, PromotionLimitedByPreviousCycleFreeCount)
{
    params.enableBypass = true;
    auto iq = makeIq();
    // Fill segment 0 with unready loads (they never issue).
    std::vector<DynInstPtr> blockers;
    scoreboard.clearReady(intReg(1));
    for (SeqNum s = 1; s <= 4; ++s) {
        auto ld = makeInst(s, Opcode::LD, intReg(20 + s), intReg(1));
        dispatch(*iq, ld);
        EXPECT_EQ(ld->seg.segment, 0);
        blockers.push_back(ld);
    }
    // A ready instruction lands in segment 1 and cannot promote while
    // segment 0 shows no free entries.
    auto ready = makeInst(5, Opcode::NOP);
    dispatch(*iq, ready);
    EXPECT_EQ(ready->seg.segment, 1);
    tick(*iq);
    EXPECT_EQ(ready->seg.segment, 1);

    // Make one blocker issue; the free entry becomes visible to the
    // promotion logic one cycle later (previous-cycle rule).
    scoreboard.setReady(intReg(1));
    iq->issueSelect(cycle, rec.acceptAll());
    EXPECT_GE(rec.issued.size(), 1u);
    tick(*iq);  // free count recorded this cycle
    iq->issueSelect(cycle, rec.rejectAll());  // no further issue
    tick(*iq);
    EXPECT_EQ(ready->seg.segment, 0);
}

TEST_F(SegFixture, PushdownMovesIneligibleWorkDownward)
{
    params.numEntries = 32;
    params.segmentSize = 16;  // 2 segments
    params.issueWidth = 4;
    params.enableBypass = false;
    auto iq = makeIq();

    // A never-ready load heads a chain; its dependents are ineligible.
    scoreboard.clearReady(intReg(1));
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    tick(*iq);
    tick(*iq);  // the load promotes to segment 0 (delay 0) and waits

    std::vector<DynInstPtr> deps;
    for (SeqNum s = 2; s <= 14; ++s) {  // 13 insts: free(seg1)=3 < IW
        auto dep = makeInst(s, Opcode::ADD, intReg(20 + s), intReg(2),
                            intReg(3));
        dispatch(*iq, dep);
        deps.push_back(dep);
    }
    ASSERT_EQ(iq->segmentOccupancy(1), 13u);
    tick(*iq);
    // Segment 1 nearly full, segment 0 nearly empty: pushdown kicks in
    // even though no dependent is eligible by delay value.
    EXPECT_GT(iq->pushdownPromotions.value(), 0.0);
    EXPECT_GT(iq->segmentOccupancy(0), 1u);
}

TEST_F(SegFixture, DeadlockDetectedAndRecovered)
{
    params.numEntries = 4;
    params.segmentSize = 2;  // 2 tiny segments
    auto iq = makeIq();

    // A never-ready load plus dependents fill both segments; nothing
    // can issue or promote and nothing is in flight -> deadlock.
    scoreboard.clearReady(intReg(1));
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    for (SeqNum s = 2; s <= 4; ++s) {
        auto dep = makeInst(s, Opcode::ADD, intReg(10 + s), intReg(2),
                            intReg(3));
        ASSERT_TRUE(iq->canInsert(dep));
        scoreboard.clearReady(dep->physDst);
        iq->insert(dep, cycle);
    }
    EXPECT_EQ(iq->occupancy(), 4u);

    for (int i = 0; i < 4; ++i) {
        iq->issueSelect(cycle, rec.acceptAll());
        iq->tick(++cycle, /*core_busy=*/false);
    }
    EXPECT_GT(iq->deadlockCycles.value(), 0.0);
    EXPECT_GT(iq->deadlockRecoveries.value(), 0.0);

    // Recovery must preserve occupancy (nothing lost) and keep the
    // queue functional: making the load ready drains everything.
    EXPECT_EQ(iq->occupancy(), 4u);
    scoreboard.setReady(intReg(1));
    scoreboard.setReady(intReg(2));
    scoreboard.setReady(intReg(3));
    for (int i = 0; i < 20 && iq->occupancy() > 0; ++i) {
        iq->issueSelect(cycle, rec.acceptAll());
        iq->tick(++cycle, false);
    }
    EXPECT_EQ(iq->occupancy(), 0u);
}

TEST_F(SegFixture, NoDeadlockFlagWhileCoreBusy)
{
    params.numEntries = 4;
    params.segmentSize = 2;
    auto iq = makeIq();
    scoreboard.clearReady(intReg(1));
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    for (int i = 0; i < 4; ++i)
        iq->tick(++cycle, /*core_busy=*/true);
    EXPECT_EQ(iq->deadlockCycles.value(), 0.0);
}

TEST_F(SegFixture, Seg0AdmitsDelayZeroAndOne)
{
    // Paper 3.1: delay 1 is allowed into the bottom segment to enable
    // back-to-back issue of single-cycle dependent pairs.
    params.enableBypass = false;
    params.numEntries = 8;
    params.segmentSize = 4;  // 2 segments
    auto iq = makeIq();
    auto prod = makeInst(1, Opcode::ADD, intReg(2), intReg(1), intReg(1));
    dispatch(*iq, prod);
    auto dep = makeInst(2, Opcode::ADD, intReg(3), intReg(2), intReg(2));
    dispatch(*iq, dep);
    // The producer's operands were available, so its result is tracked
    // as a pure countdown: the dependent starts at delay = exec latency
    // = 1, which the bottom segment's threshold of 2 admits - this is
    // what enables back-to-back single-cycle dependent pairs.
    ASSERT_EQ(dep->seg.numMemberships, 1);
    EXPECT_EQ(dep->seg.memberships[0].delay, 1);
    EXPECT_TRUE(dep->seg.memberships[0].selfTimed);
    tick(*iq);
    EXPECT_EQ(prod->seg.segment, 0);
    EXPECT_EQ(dep->seg.segment, 0);  // delay 1 < threshold 2
}

TEST_F(SegFixture, OccupancyAndStatsSampled)
{
    auto iq = makeIq();
    dispatch(*iq, makeInst(1, Opcode::NOP));
    dispatch(*iq, makeInst(2, Opcode::NOP));
    tick(*iq);
    EXPECT_EQ(iq->occupancyAvg.samples(), 1u);
    EXPECT_DOUBLE_EQ(iq->occupancyAvg.value(), 2.0);
    EXPECT_EQ(iq->instsInserted.value(), 2.0);
}

TEST_F(SegFixture, TwoChainInstructionGatedByLaterChain)
{
    // Paper 3.2: an instruction on two chains "dynamically chooses the
    // larger value (indicating the later-arriving operand)".
    params.enableBypass = false;
    auto iq = makeIq();
    scoreboard.clearReady(intReg(1));
    auto fast_load = makeInst(1, Opcode::LD, intReg(2), intReg(3));
    auto slow_load = makeInst(2, Opcode::LD, intReg(4), intReg(1));
    dispatch(*iq, fast_load);
    dispatch(*iq, slow_load);
    auto add = makeInst(3, Opcode::ADD, intReg(5), intReg(2), intReg(4));
    dispatch(*iq, add);
    ASSERT_EQ(add->seg.numMemberships, 2);

    // Issue only the fast head: one membership self-times toward zero,
    // but the other (slow) chain still pins the effective delay, so
    // the instruction must not reach segment 0.
    for (int i = 0; i < 12; ++i) {
        iq->issueSelect(cycle, [&](const DynInstPtr &inst) {
            return inst == fast_load;
        });
        tick(*iq);
    }
    int fast_delay = -1, slow_delay = -1;
    for (int m = 0; m < 2; ++m) {
        if (add->seg.memberships[m].chain == fast_load->seg.headedChain)
            fast_delay = add->seg.memberships[m].delay;
        else
            slow_delay = add->seg.memberships[m].delay;
    }
    EXPECT_EQ(fast_delay, 0);
    EXPECT_GT(slow_delay, 1);
    EXPECT_GT(add->seg.segment, 0);
}

TEST_F(SegFixture, HmpMispredictionFloodsSegmentZero)
{
    // Paper 4.4: "predicting a miss reference as a hit ... will cause
    // a potentially large number of instructions dependent on the load
    // value to flood segment 0 well in advance of becoming ready."
    // Verify the mechanism (not the performance): with no chain, the
    // dependants count down and promote regardless of the load.
    params.useHmp = true;
    auto iq = makeIq();
    const Addr load_pc = 0x1000 + 1 * kInstBytes;
    for (int i = 0; i < 15; ++i)
        hmp.update(load_pc, true);  // train: predicted hit

    scoreboard.clearReady(intReg(1));  // the load can never issue
    auto load = makeInst(1, Opcode::LD, intReg(2), intReg(1));
    dispatch(*iq, load);
    ASSERT_EQ(load->seg.headedChain, kNoChain);  // HMP said hit

    std::vector<DynInstPtr> deps;
    for (SeqNum s = 2; s <= 7; ++s) {
        auto dep = makeInst(s, Opcode::ADD, intReg(10 + s), intReg(2),
                            intReg(3));
        dispatch(*iq, dep);
        deps.push_back(dep);
    }
    // Countdown memberships expire and the dependants flood segment 0
    // even though the load never issued; once it fills with non-ready
    // instructions the rest wedge behind it - the paper's "performance
    // degrades severely" scenario.
    for (int i = 0; i < 10; ++i)
        tick(*iq);
    EXPECT_EQ(iq->segmentOccupancy(0), params.segmentSize);
    unsigned ready = 0, in_seg0 = 0;
    for (const auto &dep : deps) {
        in_seg0 += dep->seg.segment == 0 ? 1 : 0;
        ready += iq->operandsReady(*dep) ? 1 : 0;
    }
    EXPECT_GE(in_seg0, 3u);   // the flood reached the issue buffer...
    EXPECT_EQ(ready, 0u);     // ...but none of them can actually issue
}

// ---------------------------------------------------------------------
// Scripted edge cases at segment boundaries.  Each scenario drives one
// queue through chain signals, suspends, squashes or deadlock recovery
// with structural checks after every step, and must then drain to an
// empty queue.

namespace {

class EdgeRig
{
  public:
    explicit EdgeRig(const IqParams &params)
        : iq_(params, scoreboard_, fu_, &hmp_, &lrp_)
    {
    }

    /** Dispatch one instruction if the queue admits it. */
    bool
    dispatch(SeqNum seq, Opcode op, RegIndex rd = kInvalidReg,
             RegIndex rs1 = kInvalidReg, RegIndex rs2 = kInvalidReg)
    {
        DynInstPtr inst = makeInst(seq, op, rd, rs1, rs2);
        if (!iq_.canInsert(inst))
            return false;
        if (inst->physDst != kInvalidReg)
            scoreboard_.clearReady(inst->physDst);
        iq_.insert(inst, cycle_);
        live_[seq] = inst;
        check("dispatch");
        return true;
    }

    /** One issue round with an issue budget; returns the issued seqs. */
    std::vector<SeqNum>
    issue(unsigned budget, bool complete = true)
    {
        std::vector<SeqNum> got;
        iq_.issueSelect(cycle_, [&](const DynInstPtr &inst) {
            if (got.size() >= budget)
                return false;
            got.push_back(inst->seq);
            inst->issued = true;
            if (complete && inst->physDst != kInvalidReg)
                scoreboard_.setReady(inst->physDst);
            return true;
        });
        // Segment 0 issues oldest-first, wherever the entries sit in
        // the age ring.
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end()))
            << "issue round out of age order at cycle " << cycle_;
        for (SeqNum s : got) {
            issued_[s] = live_[s];
            live_.erase(s);
        }
        check("issue");
        return got;
    }

    void
    tick(bool busy = true)
    {
        iq_.tick(++cycle_, busy);
        check("tick");
    }

    void
    loadMiss(SeqNum seq)
    {
        ASSERT_TRUE(issued_.count(seq));
        iq_.onLoadMiss(issued_[seq], cycle_);
        check("loadMiss");
    }

    /** Load data returns, then the load writes back. */
    void
    loadComplete(SeqNum seq)
    {
        ASSERT_TRUE(issued_.count(seq));
        const DynInstPtr &inst = issued_[seq];
        iq_.onLoadComplete(inst, cycle_);
        setReady(inst->physDst);
        iq_.onWriteback(inst, cycle_);
        check("loadComplete");
    }

    /** Squash everything younger than `keep` (youngest first). */
    void
    squash(SeqNum keep)
    {
        for (auto it = live_.rbegin(); it != live_.rend(); ++it) {
            if (it->first > keep)
                iq_.onSquashInst(it->second);
        }
        iq_.squash(keep);
        live_.erase(live_.upper_bound(keep), live_.end());
        check("squash");
    }

    void
    setReady(RegIndex r)
    {
        if (r != kInvalidReg)
            scoreboard_.setReady(r);
    }

    /** Model an outstanding producer outside the queue. */
    void clearReady(RegIndex r) { scoreboard_.clearReady(r); }

    /** Tick/issue until `seq` issues (it must, within the bound). */
    void
    issueUntil(SeqNum seq, bool complete, unsigned max_cycles = 30)
    {
        for (unsigned i = 0; i < max_cycles; ++i) {
            const std::vector<SeqNum> got = issue(1, complete);
            if (!got.empty() && got.front() == seq)
                return;
            EXPECT_TRUE(got.empty()) << "unexpected issue of "
                                     << got.front();
            tick();
        }
        FAIL() << "seq " << seq << " never issued";
    }

    /** Tick until empty (or a bound), issuing greedily. */
    void
    drain(unsigned max_cycles = 200)
    {
        for (unsigned i = 0; i < max_cycles && occupancy() > 0; ++i) {
            issue(8);
            tick();
        }
        EXPECT_EQ(occupancy(), 0u) << "failed to drain";
        EXPECT_TRUE(live_.empty());
    }

    std::size_t occupancy() const { return iq_.occupancy(); }
    const SegmentedIq &queue() const { return iq_; }

    /** A resident instruction (to read its ring ordinal). */
    const DynInstPtr &inst(SeqNum seq) { return live_.at(seq); }

  private:
    /** Occupancy, segment fields and delays stay consistent. */
    void
    check(const char *when)
    {
        SCOPED_TRACE(std::string(when) + " at cycle " +
                     std::to_string(cycle_));
        std::size_t held = 0;
        for (unsigned k = 0; k < iq_.numSegments(); ++k)
            held += iq_.segmentOccupancy(k);
        ASSERT_EQ(held, iq_.occupancy());
        ASSERT_EQ(live_.size(), iq_.occupancy());
        for (const auto &[seq, inst] : live_) {
            ASSERT_GE(inst->seg.segment, 0) << "seq " << seq;
            ASSERT_LT(inst->seg.segment,
                      static_cast<int>(iq_.numSegments()))
                << "seq " << seq;
            for (int m = 0; m < inst->seg.numMemberships; ++m)
                ASSERT_GE(inst->seg.memberships[m].delay, 0)
                    << "seq " << seq << " membership " << m;
        }
    }

    Scoreboard scoreboard_{128};
    FuPool fu_;
    HitMissPredictor hmp_{64};
    LeftRightPredictor lrp_{64};
    SegmentedIq iq_;
    Cycle cycle_ = 0;
    std::map<SeqNum, DynInstPtr> live_;
    std::map<SeqNum, DynInstPtr> issued_;
};

IqParams
tinyParams(unsigned entries, unsigned seg_size)
{
    IqParams p;
    p.numEntries = entries;
    p.segmentSize = seg_size;
    p.issueWidth = 4;
    p.maxChains = -1;
    p.enableBypass = false;  // keep everything flowing through segments
    p.enablePushdown = true;
    p.predictedLoadLatency = 4;
    return p;
}

} // namespace

TEST(SegmentedIqEdge, DeliveryAcrossManyTinySegments)
{
    // 6 two-entry segments: every chain-wire signal crosses several
    // segment boundaries.  A never-ready load heads the chain;
    // dependents fill the upper segments.
    EdgeRig rig(tinyParams(12, 2));
    rig.clearReady(intReg(1));  // the head's address is outstanding
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    for (SeqNum s = 2; s <= 9; ++s) {
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
        rig.tick();
    }
    for (int i = 0; i < 10; ++i) {
        rig.issue(2);
        rig.tick();
    }
    // Release the head: the Assert signal walks up through all six
    // segments while dependents promote down past each boundary.
    rig.setReady(intReg(1));
    rig.setReady(intReg(3));
    rig.drain();
}

TEST(SegmentedIqEdge, SuspendResumeStraddlingBoundaries)
{
    EdgeRig rig(tinyParams(12, 2));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    rig.setReady(intReg(1));
    for (SeqNum s = 2; s <= 7; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
    rig.setReady(intReg(3));

    // Issue the load (once it promotes into segment 0), then miss: the
    // Suspend signal chases the earlier Assert up the segment stack
    // while dependents are mid-promotion.
    rig.issueUntil(1, /*complete=*/false);
    rig.tick();
    rig.loadMiss(1);
    for (int i = 0; i < 6; ++i) {
        rig.issue(2);
        rig.tick();
    }
    // Data returns: Resume propagates and the queue drains.
    rig.loadComplete(1);
    rig.tick();
    rig.drain();
}

TEST(SegmentedIqEdge, SquashMidDelivery)
{
    EdgeRig rig(tinyParams(12, 2));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    ASSERT_TRUE(rig.dispatch(2, Opcode::LD, intReg(3), intReg(1)));
    for (SeqNum s = 3; s <= 8; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
    rig.tick();
    rig.tick();

    // Squash the younger half while chain signals are still in flight,
    // then re-fill the freed slots with a fresh dependence pattern.
    rig.squash(4);
    for (SeqNum s = 9; s <= 12; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(20 + (s - 9)), intReg(3),
                     intReg(4));
    rig.tick();
    rig.setReady(intReg(1));
    rig.setReady(intReg(3));
    rig.setReady(intReg(4));
    rig.drain();
}

TEST(SegmentedIqEdge, DeadlockRecoveryDrains)
{
    // Wedge a 4-entry queue behind a never-ready load; with the core
    // idle the deadlock detector fires and recovery must keep every
    // entry.  Bypass on so all four instructions fit past the 2-entry
    // dispatch segment.
    IqParams params = tinyParams(4, 2);
    params.enableBypass = true;
    EdgeRig rig(params);
    rig.clearReady(intReg(1));
    ASSERT_TRUE(rig.dispatch(1, Opcode::LD, intReg(2), intReg(1)));
    for (SeqNum s = 2; s <= 4; ++s)
        rig.dispatch(s, Opcode::ADD, intReg(10 + s), intReg(2), intReg(3));
    ASSERT_EQ(rig.occupancy(), 4u);
    for (int i = 0; i < 6; ++i) {
        rig.issue(4);
        rig.tick(/*busy=*/false);
    }
    EXPECT_GT(rig.queue().deadlockRecoveries.value(), 0.0);
    EXPECT_EQ(rig.occupancy(), 4u);
    rig.setReady(intReg(1));
    rig.setReady(intReg(2));
    rig.setReady(intReg(3));
    rig.drain();
}

// ---------------------------------------------------------------------
// The age ring: entries sit at their dispatch ordinal modulo a
// power-of-two capacity, and every segment walk starts at the oldest
// resident.  These scenarios put the walk across the physical end of
// the ring, past its initial capacity, and through a squash that hands
// ordinals back.

namespace {

/** Pass `count` ready, independent instructions straight through. */
void
flowThrough(EdgeRig &rig, SeqNum &next, unsigned count)
{
    for (unsigned i = 0; i < count; ++i) {
        ASSERT_TRUE(rig.dispatch(next, Opcode::ADD, intReg(20), intReg(3),
                                 intReg(4)));
        EXPECT_EQ(rig.issue(4), std::vector<SeqNum>{next});
        ++next;
        rig.tick();
    }
}

IqParams
bypassParams(unsigned entries, unsigned seg_size)
{
    IqParams p = tinyParams(entries, seg_size);
    p.enableBypass = true;  // ready work dispatches into segment 0
    return p;
}

} // namespace

TEST(SegmentedIqEdge, OrdinalWrapKeepsAgeOrder)
{
    EdgeRig rig(bypassParams(8, 4));
    const std::size_t cap = rig.queue().ringCapacity();
    SeqNum next = 1;

    // Move the ordinals to two slots before the physical end of the
    // ring, after one full lap.
    flowThrough(rig, next, static_cast<unsigned>(cap + cap - 2));
    ASSERT_EQ(rig.occupancy(), 0u);

    // An old entry waits on r1 in the ring's second-to-last slot; of
    // the three entries after it, two wrap to slots 0 and 1.
    rig.clearReady(intReg(1));
    const SeqNum old = next++;
    ASSERT_TRUE(rig.dispatch(old, Opcode::ADD, intReg(21), intReg(1)));
    EXPECT_EQ(rig.inst(old)->seg.ord & (cap - 1), cap - 2);
    for (SeqNum s = next; s < next + 3; ++s)
        ASSERT_TRUE(rig.dispatch(s, Opcode::ADD, intReg(22), intReg(1)));
    EXPECT_EQ(rig.inst(next + 2)->seg.ord & (cap - 1), 1u);
    rig.tick();
    EXPECT_TRUE(rig.issue(4).empty());

    // Ready, they issue in age order across the wrap, not slot order.
    rig.setReady(intReg(1));
    EXPECT_EQ(rig.issue(4),
              (std::vector<SeqNum>{old, next, next + 1, next + 2}));
    next += 3;
    EXPECT_EQ(rig.queue().ringCapacity(), cap);

    // Hold another old entry while more than a ring's worth of younger
    // entries dispatch and issue past it.
    rig.clearReady(intReg(1));
    const SeqNum held = next++;
    ASSERT_TRUE(rig.dispatch(held, Opcode::ADD, intReg(21), intReg(1)));
    flowThrough(rig, next, static_cast<unsigned>(cap + 8));
    EXPECT_GT(rig.queue().ringCapacity(), cap);
    rig.setReady(intReg(1));
    EXPECT_EQ(rig.issue(4), std::vector<SeqNum>{held});
    EXPECT_EQ(rig.occupancy(), 0u);
    rig.drain();
}

TEST(SegmentedIqEdge, RingGrowsPastInitialCapacity)
{
    // A reorder window of several ring capacities: unready entries of
    // very different ages stay resident across segments while ready
    // work streams past them.
    EdgeRig rig(bypassParams(16, 4));
    const std::size_t cap = rig.queue().ringCapacity();
    rig.clearReady(intReg(1));
    rig.clearReady(intReg(2));
    SeqNum next = 1;
    std::vector<SeqNum> waiting;
    for (int round = 0; round < 3; ++round) {
        waiting.push_back(next);
        ASSERT_TRUE(rig.dispatch(next++, Opcode::ADD, intReg(21),
                                 intReg(1)));
        flowThrough(rig, next, static_cast<unsigned>(cap));
    }
    EXPECT_GE(rig.queue().ringCapacity(), 4 * cap);

    // Fill the rest of the queue behind r2 so the waiters spread over
    // every segment.
    while (rig.occupancy() < 16) {
        waiting.push_back(next);
        ASSERT_TRUE(rig.dispatch(next++, Opcode::ADD, intReg(22),
                                 intReg(2)));
    }
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(rig.issue(4).empty());
        rig.tick();
    }

    // Released, everything issues oldest-first and the queue drains.
    rig.setReady(intReg(1));
    rig.setReady(intReg(2));
    std::vector<SeqNum> order;
    for (int i = 0; i < 200 && rig.occupancy() > 0; ++i) {
        for (SeqNum s : rig.issue(1))
            order.push_back(s);
        rig.tick();
    }
    EXPECT_EQ(order, waiting);
    rig.drain();
}

TEST(SegmentedIqEdge, SquashMidRingReusesOrdinals)
{
    EdgeRig rig(bypassParams(16, 8));
    const std::size_t cap = rig.queue().ringCapacity();
    SeqNum next = 1;
    flowThrough(rig, next, static_cast<unsigned>(cap / 2));

    // Eight entries in the middle of the ring, all in segment 0; the
    // middle two are ready and issue, the rest wait on r1.
    rig.clearReady(intReg(1));
    const SeqNum first = next;
    for (int i = 0; i < 8; ++i) {
        const bool ready = i == 3 || i == 4;
        ASSERT_TRUE(rig.dispatch(next++, Opcode::ADD, intReg(21),
                                 ready ? intReg(3) : intReg(1)));
    }
    const std::uint64_t reused = rig.inst(first + 3)->seg.ord;
    EXPECT_EQ(rig.issue(4), (std::vector<SeqNum>{first + 3, first + 4}));
    rig.tick();

    // Squash the three youngest.  The tail rewinds over them and over
    // the two issued slots below them, down to the youngest resident.
    rig.squash(first + 4);
    EXPECT_EQ(rig.occupancy(), 3u);

    // The re-dispatched path takes the freed ordinals.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(rig.dispatch(next++, Opcode::ADD, intReg(22),
                                 intReg(1)));
    }
    EXPECT_EQ(rig.inst(next - 4)->seg.ord, reused);
    rig.tick();
    rig.setReady(intReg(1));
    std::vector<SeqNum> order;
    for (int i = 0; i < 100 && rig.occupancy() > 0; ++i) {
        for (SeqNum s : rig.issue(1))
            order.push_back(s);
        rig.tick();
    }
    EXPECT_EQ(order, (std::vector<SeqNum>{first, first + 1, first + 2,
                                          next - 4, next - 3, next - 2,
                                          next - 1}));
    rig.drain();
}

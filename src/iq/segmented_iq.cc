#include "segmented_iq.hh"

#include <algorithm>
#include <chrono>

#include "branch/hit_miss_predictor.hh"
#include "branch/left_right_predictor.hh"
#include "common/logging.hh"

namespace sciq {

namespace {

/** Accumulate wall-clock into `acc` while in scope (profiling only). */
class ScopedTimer
{
  public:
    ScopedTimer(bool on, double &acc) : on_(on), acc_(acc)
    {
        if (on_)
            t0_ = std::chrono::steady_clock::now();
    }
    ~ScopedTimer()
    {
        if (on_) {
            acc_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
        }
    }

  private:
    bool on_;
    double &acc_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace

SegmentedIq::SegmentedIq(const IqParams &params_,
                         const Scoreboard &scoreboard_, const FuPool &fu_,
                         HitMissPredictor *hmp_, LeftRightPredictor *lrp_)
    : IqBase(params_, scoreboard_, fu_, "iq"),
      chains(params_.maxChains), hmp(hmp_), lrp(lrp_)
{
    SCIQ_ASSERT(params.numEntries % params.segmentSize == 0,
                "IQ size %u not a multiple of segment size %u",
                params.numEntries, params.segmentSize);
    const unsigned n = params.numEntries / params.segmentSize;
    SCIQ_ASSERT(n >= 1, "need at least one segment");
    segments.resize(n);
    freePrevCycle.assign(n, params.segmentSize);
    if (params.maxChains > 0)
        chainStates.resize(static_cast<std::size_t>(params.maxChains));

    SCIQ_ASSERT(!params.useHmp || hmp != nullptr,
                "useHmp set but no hit/miss predictor supplied");
    SCIQ_ASSERT(!params.useLrp || lrp != nullptr,
                "useLrp set but no left/right predictor supplied");

    statsGroup.addScalar("chains_created", &chainsCreated,
                         "chain heads allocated");
    statsGroup.addScalar("heads_from_loads", &headsFromLoads,
                         "chains created for load instructions");
    statsGroup.addScalar("two_outstanding", &twoOutstanding,
                         "insts with two pending operands in diff chains");
    statsGroup.addScalar("chain_stalls", &chainStalls,
                         "dispatch stalls due to exhausted chain wires");
    statsGroup.addScalar("promotions", &promotions,
                         "segment-to-segment promotions");
    statsGroup.addScalar("pushdown_promotions", &pushdownPromotions,
                         "promotions forced by the pushdown mechanism");
    statsGroup.addScalar("deadlock_cycles", &deadlockCycles,
                         "cycles with the deadlock condition asserted");
    statsGroup.addScalar("deadlock_recoveries", &deadlockRecoveries,
                         "deadlock recovery actions performed");
    statsGroup.addAverage("chains_in_use", &chainsInUseAvg,
                          "chains allocated, sampled per cycle");
    statsGroup.addAverage("seg0_occupancy", &seg0Occupancy,
                          "instructions in segment 0 per cycle");
    statsGroup.addAverage("seg0_ready", &seg0Ready,
                          "ready instructions in segment 0 per cycle");
    statsGroup.addAverage("dispatch_segment", &dispatchSegment,
                          "segment instructions dispatch into (bypass)");
    statsGroup.addScalar("resize_grows", &resizeGrows,
                         "segments re-enabled by dynamic resizing");
    statsGroup.addScalar("resize_shrinks", &resizeShrinks,
                         "segments gated off by dynamic resizing");
    statsGroup.addScalar("segment_cycles_active", &segmentCyclesActive,
                         "sum over cycles of powered segments");
    statsGroup.addAverage("active_segments", &activeSegmentsAvg,
                          "powered segments per cycle");
    statsGroup.addScalar("log_peak", &logPeak,
                         "peak per-chain signal-log length");
    statsGroup.addScalar("dirty_segments", &dirtySegments,
                         "segments visited by the promotion pass");

    // With resizing off all segments are always powered; with it on we
    // start minimal and grow under dispatch pressure.
    activeSegments = params.dynamicResize ? 1 : n;

    eligCount.assign(n, 0);
    regCdPos.fill(-1);
    regSubPos.fill(-1);
    regSubChain.fill(kNoChain);

    // Seed the near-full mask with the empty-segment free counts (a
    // segment smaller than the issue width is near-full even empty).
    for (unsigned k = 0; k < n; ++k)
        onSegSizeChanged(k);
}

void
SegmentedIq::SignalRing::grow()
{
    const std::size_t old_cap = buf.size();
    const std::size_t new_cap = old_cap ? old_cap * 2 : 8;
    std::vector<LoggedSignal> nb(new_cap);
    for (std::size_t i = 0; i < count; ++i)
        nb[i] = buf[(head + i) & (old_cap - 1)];
    buf = std::move(nb);
    head = 0;
}

std::size_t
SegmentedIq::occupancy() const
{
    return totalOcc;
}

SegmentedIq::ChainState &
SegmentedIq::stateOf(ChainId id)
{
    auto idx = static_cast<std::size_t>(id);
    if (idx >= chainStates.size())
        chainStates.resize(idx + 1);
    return chainStates[idx];
}

const SegmentedIq::ChainState &
SegmentedIq::stateOf(ChainId id) const
{
    return const_cast<SegmentedIq *>(this)->stateOf(id);
}

bool
SegmentedIq::entryAvailable(const RegInfoEntry &e)
{
    if (!e.pending)
        return true;
    return e.selfTimed && !e.suspended && e.latency <= 0;
}

unsigned
SegmentedIq::predictedLatency(const DynInst &inst) const
{
    if (inst.isLoad())
        return params.predictedLoadLatency;
    return fu.latency(inst.opClass());
}

SegmentedIq::Plan
SegmentedIq::computePlan(const DynInstPtr &inst, bool counting) const
{
    Plan plan;
    ++work.planCalls;

    // Collect pending-source memberships from the register info table,
    // with head position/self-timed status read from the (compact)
    // per-chain-wire state.
    const auto srcs = inst->staticInst.srcRegs();
    const bool is_store = inst->isStore();
    ChainMembership mem[2];
    int src_of[2] = {-1, -1};
    int n = 0;
    for (int i = 0; i < 2; ++i) {
        RegIndex r = srcs[i];
        if (r == kInvalidReg)
            continue;
        if (is_store && i == 1)
            continue;  // store data does not gate address generation
        const RegInfoEntry &e = regInfo[r];
        if (entryAvailable(e))
            continue;
        // A chain freed since this entry was written means its head
        // wrote back long ago; the entry self-times to completion, so
        // keep it only while its countdown is still pending (handled
        // by entryAvailable); with a stale generation the wire carries
        // a different chain, so fall back to a pure countdown.
        ChainMembership m;
        m.chain = e.chain;
        m.gen = e.gen;
        if (e.chain != kNoChain) {
            const ChainState &cs = stateOf(e.chain);
            if (cs.gen != e.gen) {
                // Wire reused: head long gone, value effectively ready.
                continue;
            }
            m.appliedSeq = cs.seqCounter;
            m.headSegment = cs.headSegment;
            m.selfTimed = cs.selfTimed;
            m.suspended = cs.suspended;
            m.delay = cs.selfTimed ? e.latency
                                   : 2 * cs.headSegment + e.latency;
        } else {
            m.selfTimed = true;
            m.suspended = false;
            m.delay = e.latency;
        }
        src_of[n] = i;
        mem[n++] = m;
    }

    // Merge two memberships of the same chain (track the later one),
    // and two pure-countdown memberships (the max delay dominates).
    const bool same_chain = n == 2 && mem[0].chain != kNoChain &&
                            mem[0].chain == mem[1].chain &&
                            mem[0].gen == mem[1].gen;
    const bool both_countdown =
        n == 2 && mem[0].chain == kNoChain && mem[1].chain == kNoChain;
    if (same_chain || both_countdown) {
        if (mem[1].delay > mem[0].delay) {
            mem[0] = mem[1];
            src_of[0] = src_of[1];
        }
        n = 1;
    }

    const bool two_real_chains = n == 2 && mem[0].chain != kNoChain &&
                                 mem[1].chain != kNoChain;
    if (two_real_chains)
        plan.hadTwoOutstanding = true;

    if (n == 2 && params.useLrp) {
        // Follow only the operand predicted to arrive later (4.3).
        plan.usedLrp = true;
        bool left = counting ? lrp->predictLeftCritical(inst->pc)
                             : lrp->peekLeftCritical(inst->pc);
        plan.lrpPickedLeft = left;
        int keep = -1;
        for (int k = 0; k < 2; ++k) {
            if ((left && src_of[k] == 0) || (!left && src_of[k] == 1))
                keep = k;
        }
        // If the predicted operand is not pending, keep the pending one.
        if (keep < 0)
            keep = 0;
        mem[0] = mem[keep];
        n = 1;
    }

    plan.numMemberships = n;
    for (int k = 0; k < n; ++k)
        plan.memberships[k] = mem[k];

    // Chain-head creation policy (3.4).
    if (inst->isLoad()) {
        bool predicted_hit = false;
        if (params.useHmp) {
            plan.usedHmp = true;
            predicted_hit = counting ? hmp->predictHit(inst->pc)
                                     : hmp->peekHit(inst->pc);
            plan.hmpPredictedHit = predicted_hit;
        }
        if (!predicted_hit) {
            plan.needNewChain = true;
            plan.isLoadHead = true;
        }
    } else if (two_real_chains && !params.useLrp &&
               inst->staticInst.dstReg() != kInvalidReg) {
        // A two-chain instruction must head a new chain so that its
        // dependents never need to follow more than two chains.
        plan.needNewChain = true;
    }

    return plan;
}

int
SegmentedIq::targetSegment() const
{
    // Dispatch is confined to the powered segments.
    const int n = static_cast<int>(activeSegments);
    if (!params.enableBypass) {
        return segments[n - 1].size() < params.segmentSize ? n - 1 : -1;
    }
    int highest = -1;
    for (int k = n - 1; k >= 0; --k) {
        if (!segments[k].empty()) {
            highest = k;
            break;
        }
    }
    if (highest < 0)
        return 0;  // entire queue empty: straight to the issue buffer
    if (segments[highest].size() < params.segmentSize)
        return highest;
    if (highest + 1 < n)
        return highest + 1;
    return -1;  // top (active) segment full
}

bool
SegmentedIq::canInsert(const DynInstPtr &inst)
{
    ScopedTimer timer(profiling, prof.dispatchSec);
    if (targetSegment() < 0) {
        dispatchStallsFull.inc();
        return false;
    }
    Plan plan = computePlan(inst, false);
    planMemo = plan;
    planMemoSeq = inst->seq;
    if (plan.needNewChain && !chains.available()) {
        chainStalls.inc();
        return false;
    }
    return true;
}

void
SegmentedIq::insertSorted(std::vector<DynInstPtr> &seg,
                          const DynInstPtr &inst)
{
    auto pos = std::lower_bound(seg.begin(), seg.end(), inst,
                                [](const DynInstPtr &a, const DynInstPtr &b) {
                                    return a->seq < b->seq;
                                });
    seg.insert(pos, inst);
}

void
SegmentedIq::insert(const DynInstPtr &inst, Cycle)
{
    ScopedTimer timer(profiling, prof.dispatchSec);
    const int target = targetSegment();
    SCIQ_ASSERT(target >= 0, "insert into full segmented IQ");

    Plan plan;
    if (planMemoSeq == inst->seq) {
        plan = planMemo;
        if (plan.usedLrp)
            lrp->predictLeftCritical(inst->pc);
        if (plan.usedHmp)
            hmp->predictHit(inst->pc);
    } else {
        plan = computePlan(inst, true);
    }
    planMemoSeq = kInvalidSeqNum;
    SCIQ_ASSERT(!plan.needNewChain || chains.available(),
                "insert without a free chain");

    inst->hadTwoOutstanding = plan.hadTwoOutstanding;
    inst->lrpUsed = plan.usedLrp;
    inst->lrpPredictedLeft = plan.lrpPickedLeft;
    inst->hmpUsed = plan.usedHmp;
    inst->hmpPredictedHit = plan.hmpPredictedHit;
    if (plan.hadTwoOutstanding)
        twoOutstanding.inc();

    auto &seg_state = inst->seg;
    seg_state.numMemberships = plan.numMemberships;
    for (int k = 0; k < plan.numMemberships; ++k)
        seg_state.memberships[k] = plan.memberships[k];

    if (plan.needNewChain) {
        auto [id, gen] = chains.alloc();
        seg_state.headedChain = id;
        seg_state.headedGen = gen;
        seg_state.chainReleased = false;
        ChainState &cs = stateOf(id);
        cs.gen = gen;
        cs.headSegment = target;
        cs.selfTimed = false;
        cs.suspended = false;
        cs.seqCounter = 0;
        cs.log.clear();
        // Subscriber lists are NOT cleared on wire reuse: stale-
        // generation listeners are skipped by delivery and drop off
        // through their own lifecycle.  If the cleared log left the
        // chain on the active list, the tick-5 prune sweep retires it.
        chainsCreated.inc();
        if (plan.isLoadHead)
            headsFromLoads.inc();
    }

    seg_state.segment = target;
    insertSorted(segments[target], inst);
    ++totalOcc;
    onSegSizeChanged(static_cast<unsigned>(target));
    for (int k = 0; k < seg_state.numMemberships; ++k) {
        subscribeMember(inst.get(), k);
        subSyncMemberCd(inst.get(), k);
    }
    refreshElig(inst.get());
    instsInserted.inc();
    dispatchSegment.sample(static_cast<double>(target));

    // Update the register information table for the destination.
    RegIndex dst = inst->staticInst.dstReg();
    if (dst != kInvalidReg) {
        undoLog.push_back({inst->seq, dst, regInfo[dst]});
        RegInfoEntry e;
        e.pending = true;
        const int exec_lat = static_cast<int>(predictedLatency(*inst));
        if (seg_state.headedChain != kNoChain) {
            e.chain = seg_state.headedChain;
            e.gen = seg_state.headedGen;
            e.appliedSeq = 0;
            e.latency = exec_lat;
            e.headSeg = target;
            e.selfTimed = false;
        } else {
            // Prefer to express the destination relative to a real
            // chain among the memberships (the latest one).
            int best = -1;
            for (int k = 0; k < plan.numMemberships; ++k) {
                if (plan.memberships[k].chain == kNoChain)
                    continue;
                if (best < 0 || plan.memberships[k].delay >
                                    plan.memberships[best].delay) {
                    best = k;
                }
            }
            if (best >= 0) {
                const ChainMembership &m = plan.memberships[best];
                e.chain = m.chain;
                e.gen = m.gen;
                e.appliedSeq = m.appliedSeq;
                e.headSeg = m.headSegment;
                e.selfTimed = m.selfTimed;
                e.suspended = m.suspended;
                e.latency = (m.selfTimed
                                 ? m.delay
                                 : m.delay - 2 * m.headSegment) + exec_lat;
            } else {
                // No real chains: pure countdown from now.
                int longest = 0;
                for (int k = 0; k < plan.numMemberships; ++k)
                    longest = std::max(longest,
                                       plan.memberships[k].delay);
                e.chain = kNoChain;
                e.selfTimed = true;
                e.latency = longest + exec_lat;
            }
        }
        unsubscribeReg(dst);
        regInfo[dst] = e;
        if (e.chain != kNoChain)
            subscribeReg(dst);
        syncRegCd(dst);
    }
}

int
SegmentedIq::effectiveDelay(const DynInst &inst) const
{
    int d = 0;
    for (int k = 0; k < inst.seg.numMemberships; ++k)
        d = std::max(d, inst.seg.memberships[k].delay);
    return d;
}

// --- Incremental-index maintenance (section 11) --------------------------

void
SegmentedIq::subscribeMember(DynInst *inst, int slot)
{
    ChainMembership &m = inst->seg.memberships[slot];
    if (m.chain == kNoChain)
        return;
    ChainState &cs = stateOf(m.chain);
    m.subIdx = static_cast<int>(cs.memberSubs.size());
    cs.memberSubs.push_back({inst, slot});
}

void
SegmentedIq::unsubscribeMember(DynInst *inst, int slot)
{
    ChainMembership &m = inst->seg.memberships[slot];
    if (m.subIdx < 0)
        return;
    ChainState &cs = stateOf(m.chain);
    const int i = m.subIdx;
    m.subIdx = -1;
    const MemberSub last = cs.memberSubs.back();
    cs.memberSubs[i] = last;
    cs.memberSubs.pop_back();
    if (static_cast<std::size_t>(i) < cs.memberSubs.size())
        last.inst->seg.memberships[last.slot].subIdx = i;
}

void
SegmentedIq::subSyncMemberCd(DynInst *inst, int slot)
{
    ChainMembership &m = inst->seg.memberships[slot];
    const bool want = m.selfTimed && !m.suspended && m.delay > 0;
    if (want && m.cdIdx < 0) {
        m.cdIdx = static_cast<int>(memberCountdown.size());
        memberCountdown.push_back({inst, slot});
    } else if (!want && m.cdIdx >= 0) {
        removeMemberCd(inst, slot);
    }
}

void
SegmentedIq::removeMemberCd(DynInst *inst, int slot)
{
    ChainMembership &m = inst->seg.memberships[slot];
    const int i = m.cdIdx;
    m.cdIdx = -1;
    const CdRef last = memberCountdown.back();
    memberCountdown[i] = last;
    memberCountdown.pop_back();
    if (static_cast<std::size_t>(i) < memberCountdown.size())
        last.inst->seg.memberships[last.slot].cdIdx = i;
}

void
SegmentedIq::subscribeReg(RegIndex r)
{
    ChainState &cs = stateOf(regInfo[r].chain);
    regSubChain[r] = regInfo[r].chain;
    regSubPos[r] = static_cast<int>(cs.regSubs.size());
    cs.regSubs.push_back(r);
}

void
SegmentedIq::unsubscribeReg(RegIndex r)
{
    if (regSubChain[r] == kNoChain)
        return;
    ChainState &cs = stateOf(regSubChain[r]);
    const int i = regSubPos[r];
    regSubChain[r] = kNoChain;
    regSubPos[r] = -1;
    const RegIndex last = cs.regSubs.back();
    cs.regSubs[i] = last;
    cs.regSubs.pop_back();
    if (static_cast<std::size_t>(i) < cs.regSubs.size())
        regSubPos[last] = i;
}

void
SegmentedIq::syncRegCd(RegIndex r)
{
    const RegInfoEntry &e = regInfo[r];
    const bool want =
        e.pending && e.selfTimed && !e.suspended && e.latency > 0;
    const int i = regCdPos[r];
    if (want && i < 0) {
        regCdPos[r] = static_cast<int>(regCountdown.size());
        regCountdown.push_back(r);
    } else if (!want && i >= 0) {
        regCdPos[r] = -1;
        const RegIndex last = regCountdown.back();
        regCountdown[i] = last;
        regCountdown.pop_back();
        if (static_cast<std::size_t>(i) < regCountdown.size())
            regCdPos[last] = i;
    }
}

void
SegmentedIq::refreshElig(DynInst *inst)
{
    const int k = inst->seg.segment;
    const bool now = k >= 1 && effectiveDelay(*inst) < threshold(k - 1);
    if (now == inst->seg.promoEligible)
        return;
    if (!now) {
        leaveElig(inst);
        return;
    }
    inst->seg.promoEligible = true;
    if (eligCount[static_cast<unsigned>(k)]++ == 0 && k < 64)
        eligMask |= 1ULL << k;
}

void
SegmentedIq::leaveElig(DynInst *inst)
{
    if (!inst->seg.promoEligible)
        return;
    inst->seg.promoEligible = false;
    const unsigned k = static_cast<unsigned>(inst->seg.segment);
    if (--eligCount[k] == 0 && k < 64)
        eligMask &= ~(1ULL << k);
}

void
SegmentedIq::onSegSizeChanged(unsigned k)
{
    if (k >= 64)
        return;
    const std::size_t free_now = params.segmentSize - segments[k].size();
    if (free_now < params.issueWidth)
        nearFullMask |= 1ULL << k;
    else
        nearFullMask &= ~(1ULL << k);
}

void
SegmentedIq::onLeaveQueue(const DynInstPtr &inst)
{
    DynInst *p = inst.get();
    for (int s = 0; s < p->seg.numMemberships; ++s) {
        unsubscribeMember(p, s);
        if (p->seg.memberships[s].cdIdx >= 0)
            removeMemberCd(p, s);
    }
    leaveElig(p);
    --totalOcc;
}

void
SegmentedIq::emitSignal(const DynInstPtr &head, SignalKind kind,
                        int origin_segment, Cycle cycle)
{
    if (head->seg.headedChain == kNoChain || head->seg.chainReleased)
        return;
    ChainState &cs = stateOf(head->seg.headedChain);
    if (cs.gen != head->seg.headedGen)
        return;

    switch (kind) {
      case SignalKind::Assert:
        if (cs.headSegment > 0)
            cs.headSegment -= 1;
        else
            cs.selfTimed = true;
        break;
      case SignalKind::Suspend:
        cs.suspended = true;
        break;
      case SignalKind::Resume:
        cs.suspended = false;
        break;
    }
    cs.log.push_back(LoggedSignal{++cs.seqCounter, cycle, origin_segment,
                                  kind});
    if (!cs.active) {
        cs.active = true;
        activeChains.push_back(head->seg.headedChain);
    }
    if (static_cast<double>(cs.log.size()) > logPeak.value())
        logPeak.set(static_cast<double>(cs.log.size()));
}

void
SegmentedIq::deliverToMembership(ChainMembership &m, int segment, Cycle now)
{
    work.laneWordsTouched += 4;  // DynInst deref + one ChainMembership
    if (m.chain == kNoChain)
        return;
    const ChainState &cs = stateOf(m.chain);
    if (cs.gen != m.gen)
        return;  // chain wire reused; all relevant signals were seen
    for (std::size_t i = 0; i < cs.log.size(); ++i) {
        const LoggedSignal &sig = cs.log.at(i);
        ++work.signalDeliveries;
        if (sig.seq <= m.appliedSeq)
            continue;
        const Cycle lag = segment > sig.originSegment
                              ? static_cast<Cycle>(segment -
                                                   sig.originSegment)
                              : 0;
        if (now < sig.cycle + lag)
            break;  // not yet visible here; later signals even less so
        m.appliedSeq = sig.seq;
        switch (sig.kind) {
          case SignalKind::Assert:
            if (m.headSegment > 0) {
                m.headSegment -= 1;
                m.delay = std::max(0, m.delay - 2);
            } else {
                m.selfTimed = true;
            }
            break;
          case SignalKind::Suspend:
            m.suspended = true;
            break;
          case SignalKind::Resume:
            m.suspended = false;
            break;
        }
    }
}

void
SegmentedIq::deliverToRegEntry(RegInfoEntry &e, const ChainState &cs,
                               Cycle now)
{
    work.laneWordsTouched += 3;  // one RegInfoEntry
    if (!e.pending || e.chain == kNoChain)
        return;
    if (cs.gen != e.gen)
        return;
    const int top = static_cast<int>(segments.size()) - 1;
    for (std::size_t i = 0; i < cs.log.size(); ++i) {
        const LoggedSignal &sig = cs.log.at(i);
        ++work.signalDeliveries;
        if (sig.seq <= e.appliedSeq)
            continue;
        const Cycle lag = top > sig.originSegment
                              ? static_cast<Cycle>(top -
                                                   sig.originSegment)
                              : 0;
        if (now < sig.cycle + lag)
            break;
        e.appliedSeq = sig.seq;
        switch (sig.kind) {
          case SignalKind::Assert:
            if (e.headSeg > 0)
                e.headSeg -= 1;
            else
                e.selfTimed = true;
            break;
          case SignalKind::Suspend:
            e.suspended = true;
            break;
          case SignalKind::Resume:
            e.suspended = false;
            break;
        }
    }
}

void
SegmentedIq::issueSelect(Cycle cycle, const TryIssue &try_issue)
{
    ScopedTimer timer(profiling, prof.issueSec);
    // Single pass: count ready entries for the stats sample and issue
    // oldest-first in the same sweep.  Issuing never changes another
    // entry's scoreboard readiness, so the fused count equals the
    // pre-issue count the stats used to take in a separate scan.
    auto &seg0 = segments[0];
    const std::size_t occ0 = seg0.size();
    unsigned ready = 0;
    unsigned issued = 0;
    for (auto it = seg0.begin(); it != seg0.end();) {
        // No refcounted copy on the scan path: the pointer is only
        // pinned (below) for the entry actually issued and erased.
        work.laneWordsTouched += 3;  // DynInstPtr deref + operand fields
        const bool r = operandsReady(**it);
        if (r)
            ++ready;
        if (r && issued < params.issueWidth && try_issue(*it)) {
            DynInstPtr inst = *it;
            instsIssued.inc();
            ++issued;
            ++issuedThisCycle;
            emitSignal(inst, SignalKind::Assert, 0, cycle);
            onLeaveQueue(inst);
            it = seg0.erase(it);
        } else {
            ++it;
        }
    }
    seg0Ready.sample(static_cast<double>(ready));
    seg0Occupancy.sample(static_cast<double>(occ0));
    if (issued > 0)
        onSegSizeChanged(0);
}

void
SegmentedIq::moveInst(const DynInstPtr &inst, unsigned from, unsigned to,
                      Cycle cycle)
{
    auto &src = segments[from];
    auto it = std::find(src.begin(), src.end(), inst);
    SCIQ_ASSERT(it != src.end(), "moveInst: inst not in segment %u", from);
    work.laneWordsTouched += 6;  // erase/insert shuffles + index upkeep
    leaveElig(inst.get());
    src.erase(it);
    onSegSizeChanged(from);
    inst->seg.segment = static_cast<int>(to);
    insertSorted(segments[to], inst);
    onSegSizeChanged(to);
    refreshElig(inst.get());

    // A promoting chain head asserts its wire in the segment it leaves.
    emitSignal(inst, SignalKind::Assert, static_cast<int>(from), cycle);
}

void
SegmentedIq::setAuditTracking(bool on)
{
    auditTracking = on;
    const std::size_t n = segments.size();
    freePrevSnapshot.assign(on ? n : 0, params.segmentSize);
    promotedInto.assign(on ? n : 0, 0);
}

void
SegmentedIq::dumpSegment(std::ostream &os, unsigned k) const
{
    const auto &seg = segments[k];
    os << "segment " << k << ": " << seg.size() << "/" << params.segmentSize
       << " entries, admit threshold " << threshold(k) << "\n";
    for (const auto &inst : seg) {
        os << "  seq=" << inst->seq << " pc=" << std::hex << inst->pc
           << std::dec << " seg=" << inst->seg.segment;
        if (inst->seg.headedChain != kNoChain) {
            os << " heads=" << inst->seg.headedChain
               << (inst->seg.chainReleased ? "(released)" : "");
        }
        for (int m = 0; m < inst->seg.numMemberships; ++m) {
            const ChainMembership &mem = inst->seg.memberships[m];
            os << " [chain=" << mem.chain << " delay=" << mem.delay
               << " headSeg=" << mem.headSegment
               << (mem.selfTimed ? " selfTimed" : "")
               << (mem.suspended ? " suspended" : "")
               << " applied=" << mem.appliedSeq << "]";
        }
        os << "\n";
    }
}

void
SegmentedIq::dumpState(std::ostream &os) const
{
    os << "segmented iq: occ=" << totalOcc << "/" << params.numEntries
       << " chains=" << chains.inUse() << "(peak " << chains.peak() << ")"
       << " activeSegments=" << activeSegments << "/" << segments.size()
       << " deadlockCycles="
       << static_cast<std::uint64_t>(deadlockCycles.value())
       << " deadlockRecoveries="
       << static_cast<std::uint64_t>(deadlockRecoveries.value()) << "\n";
    for (unsigned k = 0; k < segments.size(); ++k)
        dumpSegment(os, k);
}

void
SegmentedIq::tick(Cycle cycle, bool core_busy)
{
    const unsigned n = static_cast<unsigned>(segments.size());

    if (auditTracking) {
        freePrevSnapshot = freePrevCycle;
        promotedInto.assign(n, 0);
    }

    // 0. Release chain wires whose drain delay has matured.
    while (!chainDrainQueue.empty() &&
           chainDrainQueue.front().second <= cycle) {
        chains.free(chainDrainQueue.front().first);
        chainDrainQueue.pop_front();
    }

    // 1-3. Promotion, signal delivery, self-timed countdowns -- the
    //    per-cycle scheduler substages.
    promotedThisCycle = 0;
    {
        ScopedTimer t(profiling, prof.promoteSec);
        tickPromote(cycle);
    }
    {
        ScopedTimer t(profiling, prof.deliverSec);
        tickDeliver(cycle);
    }
    {
        ScopedTimer t(profiling, prof.countdownSec);
        tickCountdown();
    }

    // 4. Deadlock detection and recovery (section 4.5).
    const std::size_t occ = totalOcc;
    if (occ > 0 && issuedThisCycle == 0 && promotedThisCycle == 0 &&
        !core_busy) {
        deadlockCycles.inc();
        runDeadlockRecovery(cycle);
    }
    issuedThisCycle = 0;

    // 5. Previous-cycle free counts for the next promotion round, and
    //    signal-log pruning (everything older than the wire pipeline
    //    depth has been seen everywhere).
    for (unsigned k = 0; k < n; ++k) {
        freePrevCycle[k] = static_cast<unsigned>(params.segmentSize -
                                                 segments[k].size());
    }
    if (cycle > n + 1) {
        const Cycle horizon = cycle - n - 1;
        for (std::size_t c = 0; c < activeChains.size();) {
            ChainState &cs =
                chainStates[static_cast<std::size_t>(activeChains[c])];
            while (!cs.log.empty() && cs.log.front().cycle < horizon)
                cs.log.pop_front();
            if (cs.log.empty()) {
                cs.active = false;
                activeChains[c] = activeChains.back();
                activeChains.pop_back();
            } else {
                ++c;
            }
        }
    }

    // 6. Dynamic segment resizing (paper section 7): gate segments by
    //    occupancy, shrinking only when the segment being turned off
    //    is already empty so no instruction is orphaned.
    if (params.dynamicResize && cycle >= nextResizeCheck) {
        nextResizeCheck = cycle + params.resizeInterval;
        const double active_cap =
            static_cast<double>(activeSegments) * params.segmentSize;
        if (activeSegments < n &&
            static_cast<double>(occ) > params.resizeGrowOcc * active_cap) {
            ++activeSegments;
            resizeGrows.inc();
        } else if (activeSegments > 1 &&
                   segments[activeSegments - 1].empty() &&
                   static_cast<double>(occ) <
                       params.resizeShrinkOcc *
                           static_cast<double>(activeSegments - 1) *
                           params.segmentSize) {
            --activeSegments;
            resizeShrinks.inc();
        }
    }
    segmentCyclesActive.inc(static_cast<double>(activeSegments));
    activeSegmentsAvg.sample(static_cast<double>(activeSegments));

    occupancyAvg.sample(static_cast<double>(occ));
    chainsInUseAvg.sample(static_cast<double>(chains.inUse()));
    if (profiling)
        ++prof.ticks;
}

void
SegmentedIq::tickPromote(Cycle cycle)
{
    // Promotion, per segment boundary, oldest-eligible first, limited
    // by inter-segment bandwidth and by the *previous* cycle's free
    // count in the destination (section 3.1).  Only dirty segments --
    // ones with tracked promotion candidates or pushdown pressure --
    // are visited; a segment with neither has empty eligible/pushdown
    // lists and its round is a no-op.
    const unsigned n = static_cast<unsigned>(segments.size());
    unsigned dirty = 0;
    const bool any_candidates =
        n > 64 || eligMask != 0 ||
        (params.enablePushdown && nearFullMask != 0);
    for (unsigned k = 1; any_candidates && k < n; ++k) {
        auto &seg = segments[k];
        if (seg.empty())
            continue;
        ++work.segmentsScanned;
        work.laneWordsTouched += 2;  // size/free probes

        bool pushdown_possible = false;
        const unsigned iw = params.issueWidth;
        const std::size_t free_here = params.segmentSize - seg.size();
        const std::size_t free_below =
            params.segmentSize - segments[k - 1].size();
        if (params.enablePushdown) {
            pushdown_possible =
                free_here < iw &&
                free_below * 2 > 3 * iw;  // > 1.5*IW without floats
        }
        if (eligCount[k] == 0 && !pushdown_possible)
            continue;
        ++dirty;

        const int thresh = threshold(k - 1);
        std::vector<DynInstPtr> &eligible = scratchElig;
        std::vector<DynInstPtr> &pushdown = scratchPush;
        eligible.clear();
        pushdown.clear();
        for (auto &inst : seg) {
            work.laneWordsTouched += 3;  // ptr deref + membership delays
            if (effectiveDelay(*inst) < thresh)
                eligible.push_back(inst);
        }

        if (pushdown_possible) {
            for (auto &inst : seg) {
                if (pushdown.size() >= iw)
                    break;
                work.laneWordsTouched += 3;
                if (effectiveDelay(*inst) >= thresh)
                    pushdown.push_back(inst);
            }
        }

        unsigned budget = std::min<unsigned>(
            params.issueWidth,
            std::min<unsigned>(
                freePrevCycle[k - 1],
                static_cast<unsigned>(params.segmentSize -
                                      segments[k - 1].size())));
        if (params.auditInjectOverPromote) {
            // Test-only fault: drop the previous-cycle free bound and
            // fill whatever space the destination has *now*.
            budget = std::min<unsigned>(
                params.issueWidth,
                static_cast<unsigned>(params.segmentSize -
                                      segments[k - 1].size()));
        }

        for (auto &inst : eligible) {
            if (budget == 0)
                break;
            moveInst(inst, k, k - 1, cycle);
            promotions.inc();
            ++promotedThisCycle;
            if (auditTracking)
                ++promotedInto[k - 1];
            --budget;
        }
        for (auto &inst : pushdown) {
            if (budget == 0)
                break;
            moveInst(inst, k, k - 1, cycle);
            promotions.inc();
            pushdownPromotions.inc();
            ++promotedThisCycle;
            if (auditTracking)
                ++promotedInto[k - 1];
            --budget;
        }
        eligible.clear();
        pushdown.clear();
    }
    dirtySegments.inc(static_cast<double>(dirty));
}

void
SegmentedIq::tickDeliver(Cycle cycle)
{
    // Deliver chain-wire signals (including those generated by this
    // cycle's issues and promotions) with pipelined visibility.  Only
    // chains with in-flight signals can change listener state, and per
    // chain only its subscribers are walked; everything a full sweep
    // would touch beyond that is a guaranteed no-op (no-chain
    // membership, stale generation, or empty log).
    for (std::size_t c = 0; c < activeChains.size(); ++c) {
        const ChainId id = activeChains[c];
        ChainState &cs = chainStates[static_cast<std::size_t>(id)];
        if (cs.log.empty())
            continue;
        for (const MemberSub &sub : cs.memberSubs) {
            deliverToMembership(sub.inst->seg.memberships[sub.slot],
                                sub.inst->seg.segment, cycle);
            subSyncMemberCd(sub.inst, sub.slot);
            refreshElig(sub.inst);
        }
        for (RegIndex r : cs.regSubs) {
            deliverToRegEntry(regInfo[r], cs, cycle);
            syncRegCd(r);
        }
    }
}

void
SegmentedIq::tickCountdown()
{
    // Self-timed countdowns (members and table entries), walking the
    // explicit countdown lists.  List membership is exactly the old
    // sweep's predicate (selfTimed, not suspended, delay > 0), and
    // decrements of distinct entries commute, so any visit order
    // matches the sweep.  Removal swaps the back element into the
    // hole, so the index does not advance then.
    for (std::size_t i = 0; i < memberCountdown.size();) {
        const CdRef ref = memberCountdown[i];
        ChainMembership &mem = ref.inst->seg.memberships[ref.slot];
        work.laneWordsTouched += 3;
        mem.delay -= 1;
        refreshElig(ref.inst);
        if (mem.delay == 0)
            removeMemberCd(ref.inst, ref.slot);
        else
            ++i;
    }
    for (std::size_t i = 0; i < regCountdown.size();) {
        const RegIndex r = regCountdown[i];
        work.laneWordsTouched += 2;
        regInfo[r].latency -= 1;
        if (regInfo[r].latency == 0)
            syncRegCd(r);
        else
            ++i;
    }
}

void
SegmentedIq::runDeadlockRecovery(Cycle cycle)
{
    deadlockRecoveries.inc();
    const unsigned n = static_cast<unsigned>(segments.size());

    // If the issue buffer is full of non-ready instructions, recycle
    // its youngest back to the top segment (placed after the bottom-up
    // force promotions have guaranteed it a slot).
    DynInstPtr recycled;
    if (activeSegments > 1 && segments[0].size() >= params.segmentSize) {
        recycled = segments[0].back();
        leaveElig(recycled.get());
        segments[0].pop_back();
        onSegSizeChanged(0);
    }

    // Force every full segment to promote one instruction downward;
    // processing bottom-up guarantees the destination has a slot.
    for (unsigned k = 1; k < n; ++k) {
        if (segments[k].size() < params.segmentSize)
            continue;
        if (segments[k - 1].size() >= params.segmentSize)
            continue;  // cannot happen after bottom-up processing
        DynInstPtr oldest = segments[k].front();
        moveInst(oldest, k, k - 1, cycle);
        promotions.inc();
        ++promotedThisCycle;
    }

    // With nothing full, nothing promoted and nothing in flight, the
    // scheduler has stalled on stale delay values; nudge the oldest
    // instruction in the lowest non-empty segment downward so the
    // oldest ready instruction eventually reaches the issue buffer.
    if (promotedThisCycle == 0 && !recycled) {
        for (unsigned k = 1; k < n; ++k) {
            if (segments[k].empty())
                continue;
            if (segments[k - 1].size() < params.segmentSize) {
                DynInstPtr oldest = segments[k].front();
                moveInst(oldest, k, k - 1, cycle);
                promotions.inc();
                ++promotedThisCycle;
            }
            break;
        }
    }

    if (recycled) {
        const unsigned top = activeSegments - 1;
        recycled->seg.segment = static_cast<int>(top);
        if (recycled->seg.headedChain != kNoChain &&
            !recycled->seg.chainReleased) {
            ChainState &cs = stateOf(recycled->seg.headedChain);
            if (cs.gen == recycled->seg.headedGen)
                cs.headSegment = static_cast<int>(top);
        }
        insertSorted(segments[top], recycled);
        onSegSizeChanged(top);
        refreshElig(recycled.get());
        SCIQ_ASSERT(segments[top].size() <= params.segmentSize,
                    "deadlock recovery overflowed the top segment");
    }
}

void
SegmentedIq::onLoadMiss(const DynInstPtr &inst, Cycle cycle)
{
    emitSignal(inst, SignalKind::Suspend, 0, cycle);
}

void
SegmentedIq::onLoadComplete(const DynInstPtr &inst, Cycle cycle)
{
    emitSignal(inst, SignalKind::Resume, 0, cycle);
}

void
SegmentedIq::releaseChain(const DynInstPtr &inst, Cycle cycle)
{
    if (inst->seg.headedChain == kNoChain || inst->seg.chainReleased)
        return;
    // Delay the wire's reuse until every in-flight signal has been
    // seen at the top of the queue.
    inst->seg.chainReleased = true;
    chainDrainQueue.emplace_back(inst->seg.headedChain,
                                 cycle + segments.size() + 2);
}

void
SegmentedIq::onWriteback(const DynInstPtr &inst, Cycle cycle)
{
    // Chains are deallocated when the head writes back (section 6.1).
    releaseChain(inst, cycle);
}

void
SegmentedIq::onCommit(const DynInstPtr &inst)
{
    while (!undoLog.empty() && undoLog.front().seq <= inst->seq)
        undoLog.pop_front();
}

void
SegmentedIq::onSquashInst(const DynInstPtr &inst)
{
    // Called youngest-first: table restores unwind in reverse order.
    while (!undoLog.empty() && undoLog.back().seq == inst->seq) {
        const RegIndex r = undoLog.back().archDst;
        unsubscribeReg(r);
        regInfo[r] = undoLog.back().prev;
        if (regInfo[r].pending && regInfo[r].chain != kNoChain)
            subscribeReg(r);
        syncRegCd(r);
        undoLog.pop_back();
    }
    releaseChain(inst, 0);
}

void
SegmentedIq::squash(SeqNum youngest_kept)
{
    // Segments are seq-sorted, so the squashed set is a suffix.
    for (unsigned k = 0; k < segments.size(); ++k) {
        auto &seg = segments[k];
        auto pos = std::upper_bound(
            seg.begin(), seg.end(), youngest_kept,
            [](SeqNum s, const DynInstPtr &p) { return s < p->seq; });
        if (pos == seg.end())
            continue;
        for (auto it = pos; it != seg.end(); ++it)
            onLeaveQueue(*it);
        seg.erase(pos, seg.end());
        onSegSizeChanged(k);
    }
}

} // namespace sciq

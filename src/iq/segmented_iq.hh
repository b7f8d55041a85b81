/**
 * @file
 * The paper's contribution: a segmented instruction queue scheduled by
 * dependence chains (Raasch, Binkert & Reinhardt, ISCA 2002).
 *
 * The queue is a pipeline of small segments; instructions issue only
 * from segment 0 (the issue buffer).  Promotion from segment to segment
 * is governed by per-instruction *delay values* maintained as a fixed
 * latency behind a *chain head*:
 *
 *  - each segment k admits instructions whose delay is below its
 *    threshold 2*(k+1); dispatch into the top segment is unconditional;
 *  - chain heads broadcast one-hot chain-wire signals when they promote
 *    or issue; the wires are pipelined upward one segment per cycle;
 *  - members decrement their delay by 2 per head promotion, and enter
 *    self-timed (1/cycle) mode once the head issues;
 *  - a load head that misses sends a suspend signal up its chain, and a
 *    resume signal on completion;
 *  - enhancements: full-segment pushdown (4.1), empty-segment dispatch
 *    bypass (4.2), left/right operand prediction (4.3), hit/miss
 *    prediction (4.4), and deadlock detection/recovery (4.5).
 *
 * Implementation note: chain-wire signals are kept in a per-chain log
 * with an explicit generation cycle and origin segment; an entry in
 * segment s applies a signal generated at cycle g from segment o once
 * the current cycle reaches g + (s - o).  This models the paper's
 * one-segment-per-cycle wire pipelining exactly while guaranteeing
 * that entries which move between segments (promotion, dispatch
 * bypass, deadlock recovery) never miss or double-apply a signal.
 *
 * Scheduling is event-driven (DESIGN.md section 11): signal delivery
 * walks only the chains with in-flight signals and, per chain, only
 * the entries subscribed to it; self-timed countdowns walk explicit
 * countdown lists; the promotion pass visits only segments with
 * promotion candidates (or pushdown pressure), tracked incrementally
 * on every delay/segment change.  Per-cycle cost is therefore
 * proportional to scheduler *activity*, not queue occupancy.  The
 * invariant auditor (audit=1) re-derives every index from a full
 * rescan each cycle and counts disagreements.
 *
 * Per-entry scheduler state lives in each DynInst (`DynInst::seg`);
 * segments hold seq-sorted instruction pointers.  Deterministic
 * host-work counters (DESIGN.md section 16) count what the scheduler
 * touches, so CI can gate on its cost exactly.
 */

#ifndef SCIQ_IQ_SEGMENTED_IQ_HH
#define SCIQ_IQ_SEGMENTED_IQ_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "iq/chain_allocator.hh"
#include "iq/iq_base.hh"

namespace sciq {

class HitMissPredictor;
class LeftRightPredictor;

class SegmentedIq : public IqBase
{
  public:
    /**
     * @param hmp Optional hit/miss predictor (used when params.useHmp).
     * @param lrp Optional left/right predictor (used when params.useLrp).
     */
    SegmentedIq(const IqParams &params, const Scoreboard &scoreboard,
                const FuPool &fu, HitMissPredictor *hmp,
                LeftRightPredictor *lrp);

    bool canInsert(const DynInstPtr &inst) override;
    void insert(const DynInstPtr &inst, Cycle cycle) override;
    void issueSelect(Cycle cycle, const TryIssue &try_issue) override;
    void tick(Cycle cycle, bool core_busy) override;
    void onLoadMiss(const DynInstPtr &inst, Cycle cycle) override;
    void onLoadComplete(const DynInstPtr &inst, Cycle cycle) override;
    void onWriteback(const DynInstPtr &inst, Cycle cycle) override;
    void onCommit(const DynInstPtr &inst) override;
    void onSquashInst(const DynInstPtr &inst) override;
    void squash(SeqNum youngest_kept) override;
    std::size_t occupancy() const override;

    /** The segmented design adds a dispatch pipeline stage (section 5). */
    unsigned extraDispatchCycles() const override { return 1; }

    unsigned
    numSegments() const
    {
        return static_cast<unsigned>(segments.size());
    }

    std::size_t segmentOccupancy(unsigned k) const
    {
        return segments[k].size();
    }

    /** Promotion threshold of segment k (paper section 3.1). */
    static int threshold(unsigned k) { return 2 * (static_cast<int>(k) + 1); }

    unsigned chainsInUse() const { return chains.inUse(); }
    unsigned chainsPeak() const { return chains.peak(); }

    /**
     * Deterministic host-work counters (DESIGN.md section 16).  Plain
     * integers outside the stats tree: they measure *host* effort, not
     * the simulated machine.  Exact and noise-free, so CI can gate on
     * them where wall-clock would flake.
     */
    struct WorkCounters
    {
        std::uint64_t signalDeliveries = 0;  ///< chain-log entries examined
        std::uint64_t planCalls = 0;         ///< full computePlan executions
        std::uint64_t segmentsScanned = 0;   ///< promotion-pass segment visits
        std::uint64_t laneWordsTouched = 0;  ///< 8-byte sched words touched
    };
    const WorkCounters &workCounters() const { return work; }

    /**
     * Wall-clock per-substage accounting of the scheduler hot path,
     * enabled by setProfiling(true) (micro benches only; adds a timer
     * call per substage and never affects architected state).
     */
    struct TickProfile
    {
        double promoteSec = 0.0;    ///< tick step 1 (promotion pass)
        double deliverSec = 0.0;    ///< tick step 2 (signal delivery)
        double countdownSec = 0.0;  ///< tick step 3 (self-timed countdown)
        double issueSec = 0.0;      ///< issueSelect
        double dispatchSec = 0.0;   ///< canInsert + insert
        std::uint64_t ticks = 0;
    };
    void setProfiling(bool on) { profiling = on; }
    const TickProfile &profile() const { return prof; }

    /** Segments currently powered (== numSegments unless resizing). */
    unsigned activeSegmentCount() const { return activeSegments; }

    void setAuditTracking(bool on) override;

    /** Pipe-trace-style dump of one segment's entries (audit panics). */
    void dumpSegment(std::ostream &os, unsigned k) const;

    /** Every segment plus chain-allocator state (watchdog dumps). */
    void dumpState(std::ostream &os) const override;

    // --- Statistics (Table 2, Figure 2 and section 6 text) ---------------
    stats::Scalar chainsCreated;
    stats::Scalar headsFromLoads;
    stats::Scalar twoOutstanding;     ///< insts w/ 2 pending operand chains
    stats::Scalar chainStalls;        ///< dispatch stalls: no free chain
    stats::Scalar promotions;
    stats::Scalar pushdownPromotions;
    stats::Scalar deadlockCycles;
    stats::Scalar deadlockRecoveries;
    stats::Average chainsInUseAvg;
    stats::Average seg0Occupancy;
    stats::Average seg0Ready;         ///< ready instructions in segment 0
    stats::Average dispatchSegment;   ///< bypass effectiveness

    // Dynamic-resizing / power-proxy statistics (section 7).
    stats::Scalar resizeGrows;
    stats::Scalar resizeShrinks;
    stats::Scalar segmentCyclesActive;  ///< sum over cycles of segments on
    stats::Average activeSegmentsAvg;

    // Scheduling-index statistics (section 11).
    stats::Scalar logPeak;       ///< peak per-chain signal-log length
    stats::Scalar dirtySegments; ///< segments visited by the promotion pass

  private:
    friend class Auditor;

    enum class SignalKind : std::uint8_t { Assert, Suspend, Resume };

    /** One chain-wire event, pipelined upward from originSegment. */
    struct LoggedSignal
    {
        std::uint64_t seq;
        Cycle cycle;
        int originSegment;
        SignalKind kind;
    };

    /**
     * Bounded FIFO of in-flight chain-wire signals.  Pruning at the
     * delivery horizon (tick step 5) keeps the population to the wire
     * pipeline depth, so the ring stays at its initial capacity in
     * practice; it grows by doubling rather than asserting a hard cap.
     */
    class SignalRing
    {
      public:
        bool empty() const { return count == 0; }
        std::size_t size() const { return count; }
        void clear() { head = 0; count = 0; }
        const LoggedSignal &front() const { return buf[head]; }
        const LoggedSignal &at(std::size_t i) const
        {
            return buf[(head + i) & (buf.size() - 1)];
        }
        void
        push_back(const LoggedSignal &sig)
        {
            if (count == buf.size())
                grow();
            buf[(head + count) & (buf.size() - 1)] = sig;
            ++count;
        }
        void
        pop_front()
        {
            head = (head + 1) & (buf.size() - 1);
            --count;
        }

      private:
        void grow();

        std::vector<LoggedSignal> buf;  ///< power-of-two capacity
        std::size_t head = 0;
        std::size_t count = 0;
    };

    /** One resident-entry subscription to a chain wire. */
    struct MemberSub
    {
        DynInst *inst;
        int slot;  ///< membership index within the instruction
    };

    /**
     * Authoritative per-chain-wire state, read by dispatch when a new
     * member joins, plus the signal log in-flight entries consume and
     * the subscriber index delivery walks.  Subscriber lists survive
     * wire reuse: stale-generation subscribers are skipped by the
     * delivery generation check and unsubscribe through their normal
     * lifecycle (issue, squash, table overwrite).
     */
    struct ChainState
    {
        std::uint32_t gen = 0;
        int headSegment = 0;
        bool selfTimed = false;   ///< head has issued
        bool suspended = false;
        bool active = false;      ///< on the activeChains list
        std::uint64_t seqCounter = 0;
        SignalRing log;
        std::vector<MemberSub> memberSubs;  ///< resident listeners
        std::vector<RegIndex> regSubs;      ///< regInfo listeners
    };

    /** Dispatch-stage register information table entry (section 3.3). */
    struct RegInfoEntry
    {
        bool pending = false;
        ChainId chain = kNoChain;   ///< kNoChain: pure countdown entry
        std::uint32_t gen = 0;
        std::uint64_t appliedSeq = 0;
        int latency = 0;            ///< rel. to head issue / to now if selfTimed
        int headSeg = 0;            ///< tracked head location (lagged)
        bool selfTimed = false;
        bool suspended = false;
    };

    /** Undo record for squash recovery of the table. */
    struct Undo
    {
        SeqNum seq;
        RegIndex archDst;
        RegInfoEntry prev;
    };

    /** Everything insert() needs, precomputed identically by canInsert. */
    struct Plan
    {
        ChainMembership memberships[2];
        int numMemberships = 0;
        bool needNewChain = false;
        bool isLoadHead = false;
        bool hadTwoOutstanding = false;
        bool usedLrp = false;
        bool lrpPickedLeft = false;
        bool usedHmp = false;
        bool hmpPredictedHit = false;
    };

    /** True once the table says this operand's value is available. */
    static bool entryAvailable(const RegInfoEntry &e);

    /** Predicted latency from issue to dependent-ready (section 3.3). */
    unsigned predictedLatency(const DynInst &inst) const;

    /**
     * Build the chain/membership plan for an instruction.
     * @param counting true to update predictor statistics (insert path).
     */
    Plan computePlan(const DynInstPtr &inst, bool counting) const;

    /** Dispatch target segment honouring the bypass rule (section 4.2). */
    int targetSegment() const;

    int effectiveDelay(const DynInst &inst) const;

    ChainState &stateOf(ChainId id);
    const ChainState &stateOf(ChainId id) const;

    /** Record a signal on a chain's wire (updates authoritative state). */
    void emitSignal(const DynInstPtr &head, SignalKind kind,
                    int origin_segment, Cycle cycle);

    /** Apply every signal now visible at this entry's segment. */
    void deliverToMembership(ChainMembership &m, int segment, Cycle now);

    /** Apply every signal now visible at the table (top segment). */
    void deliverToRegEntry(RegInfoEntry &e, const ChainState &cs,
                           Cycle now);

    // --- Incremental-index maintenance (section 11) ----------------------
    // Subscriber lists, countdown lists and promotion-candidate counts
    // are redundant views over the authoritative per-entry state; every
    // mutation site keeps them in sync and the auditor re-derives them
    // from a full rescan under audit=1.

    /** Register membership `slot` of `inst` on its chain's wire. */
    void subscribeMember(DynInst *inst, int slot);
    void unsubscribeMember(DynInst *inst, int slot);

    /** Keep membership `slot` on/off the self-timed countdown list. */
    void subSyncMemberCd(DynInst *inst, int slot);
    void removeMemberCd(DynInst *inst, int slot);

    void subscribeReg(RegIndex r);
    void unsubscribeReg(RegIndex r);
    /** Keep table entry r on/off the self-timed countdown list. */
    void syncRegCd(RegIndex r);

    /** Recompute promotion eligibility of a resident instruction. */
    void refreshElig(DynInst *inst);
    void leaveElig(DynInst *inst);

    /** Update the near-full (pushdown pressure) bit for segment k. */
    void onSegSizeChanged(unsigned k);

    /** Drop every index reference as inst leaves the queue. */
    void onLeaveQueue(const DynInstPtr &inst);

    void insertSorted(std::vector<DynInstPtr> &seg, const DynInstPtr &inst);

    /** Move inst down one pipeline step; heads assert their wire. */
    void moveInst(const DynInstPtr &inst, unsigned from, unsigned to,
                  Cycle cycle);

    /** Begin the delayed release of a head's chain wire. */
    void releaseChain(const DynInstPtr &inst, Cycle cycle);

    void runDeadlockRecovery(Cycle cycle);

    // tick() substages.
    void tickPromote(Cycle cycle);
    void tickDeliver(Cycle cycle);
    void tickCountdown();

    mutable WorkCounters work;
    bool profiling = false;
    TickProfile prof;

    std::vector<std::vector<DynInstPtr>> segments;  ///< [0]=issue buffer
    std::vector<unsigned> freePrevCycle;            ///< per segment

    std::vector<ChainState> chainStates;
    std::deque<std::pair<ChainId, Cycle>> chainDrainQueue;

    // --- Incremental scheduling indices (section 11) ---------------------

    /** Chains with a non-empty signal log (unordered, swap-removed). */
    std::vector<ChainId> activeChains;

    /** One self-timed countdown reference (membership slot). */
    struct CdRef
    {
        DynInst *inst;
        int slot;
    };
    std::vector<CdRef> memberCountdown;   ///< memberships counting down
    std::vector<RegIndex> regCountdown;   ///< table entries counting down

    // Back-pointers for O(1) swap-removal from the register-side lists.
    std::array<int, kNumArchRegs> regCdPos;       ///< pos in regCountdown
    std::array<int, kNumArchRegs> regSubPos;      ///< pos in chain regSubs
    std::array<ChainId, kNumArchRegs> regSubChain;  ///< subscribed chain

    std::vector<unsigned> eligCount;  ///< promotion candidates per segment
    std::uint64_t eligMask = 0;       ///< segments (<64) with candidates
    std::uint64_t nearFullMask = 0;   ///< segments (<64) w/ pushdown pressure
    std::size_t totalOcc = 0;         ///< occupancy, O(1)

    // Promotion-pass scratch (reused to keep allocations off the hot
    // path; only live within one segment's round).
    std::vector<DynInstPtr> scratchElig, scratchPush;

    std::array<RegInfoEntry, kNumArchRegs> regInfo;
    std::deque<Undo> undoLog;

    // canInsert -> insert plan memo.  Dispatch always probes canInsert
    // immediately before insert with no intervening queue mutation, so
    // insert can reuse the admission plan instead of recomputing it;
    // insert re-issues the stat-counting predictor reads the peek-mode
    // pass skipped (predict and peek return identical values).  A seq
    // mismatch (e.g. insert without a matching probe) falls back to a
    // full computePlan.
    SeqNum planMemoSeq = kInvalidSeqNum;
    Plan planMemo;

    mutable ChainAllocator chains;
    HitMissPredictor *hmp;
    LeftRightPredictor *lrp;

    unsigned issuedThisCycle = 0;
    unsigned promotedThisCycle = 0;
    unsigned activeSegments = 1;
    Cycle nextResizeCheck = 0;

    // Audit bookkeeping (setAuditTracking): what each tick's promotion
    // round actually used and did, so the auditor can re-check the
    // bound after the fact.  Deadlock-recovery moves are not counted.
    bool auditTracking = false;
    std::vector<unsigned> freePrevSnapshot;  ///< freePrevCycle at tick start
    std::vector<unsigned> promotedInto;      ///< promotions per destination
};

} // namespace sciq

#endif // SCIQ_IQ_SEGMENTED_IQ_HH

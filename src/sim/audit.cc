#include "audit.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/errors.hh"
#include "common/logging.hh"
#include "core/ooo_core.hh"
#include "iq/ideal_iq.hh"
#include "iq/segmented_iq.hh"

namespace sciq {

namespace {

/** Warn about the first few violations even when not panicking. */
constexpr int kMaxWarnings = 5;

} // namespace

Auditor::Auditor(bool panic_on_violation)
    : panicOnViolation_(panic_on_violation), group_("audit")
{
    group_.addScalar("cycles_audited", &cyclesAudited,
                     "cycles the invariant auditor ran");
    group_.addScalar("negative_delay", &negativeDelay,
                     "chain-member delay values below zero");
    group_.addScalar("segment_overflow", &segmentOverflow,
                     "segment occupancy above capacity");
    group_.addScalar("promotion_bound", &promotionBound,
                     "promotions above the prev-cycle free bound");
    group_.addScalar("issue_over_width", &issueOverWidth,
                     "cycles issuing more than the issue width");
    group_.addScalar("wire_delivery", &wireDelivery,
                     "chain-wire signals missed past their arrival cycle");
    group_.addScalar("pool_bound", &poolBound,
                     "cycles with leaked DynInstPool slots");
    group_.addScalar("occ_index", &occIndex,
                     "O(1) occupancy counters disagreeing with a rescan");
    group_.addScalar("promo_index", &promoIndex,
                     "promotion-candidate indices disagreeing with a rescan");
    group_.addScalar("sub_index", &subIndex,
                     "chain subscriber indices disagreeing with a rescan");
    group_.addScalar("countdown_index", &countdownIndex,
                     "self-timed countdown lists disagreeing with a rescan");
    group_.addScalar("ready_index", &readyIndex,
                     "ideal ready-list entries disagreeing with a rescan");
    group_.addScalar("wb_ring_bound", &wbRingBound,
                     "writeback-ring population diverging from in-flight");
}

void
Auditor::attach(OooCore &core)
{
    core.statGroup().addChild(&group_);
    core.iqUnit().setAuditTracking(true);
    core.setCycleHook([this](OooCore &c, Cycle cycle) {
        auditCycle(c, cycle);
    });
}

void
Auditor::violation(stats::Scalar &counter, const char *invariant,
                   Cycle cycle, const std::string &detail)
{
    counter.inc();
    ++total_;
    if (panicOnViolation_) {
        throw InvariantError("audit: invariant '" + std::string(invariant) +
                                 "' violated at cycle " +
                                 std::to_string(cycle),
                             detail);
    }
    if (total_ <= kMaxWarnings) {
        warn("audit: invariant '%s' violated at cycle %llu\n%s",
             invariant, static_cast<unsigned long long>(cycle),
             detail.c_str());
    }
}

void
Auditor::auditCycle(OooCore &core, Cycle cycle)
{
    cyclesAudited.inc();

    if (core.issuedThisCycleCount > core.params.iq.issueWidth) {
        std::ostringstream os;
        core.debugDump(os);
        violation(issueOverWidth, "issue <= issueWidth", cycle,
                  "issued " + std::to_string(core.issuedThisCycleCount) +
                      " > width " +
                      std::to_string(core.params.iq.issueWidth) + "\n" +
                      os.str());
    }

    // Everything holding a DynInstPtr is bounded: the ROB, the front-end
    // queue, and completed-but-squashed instructions draining through
    // the writeback queue (themselves once-ROB residents).  Twice the
    // ROB plus the front end is a deliberately generous but *finite*
    // ceiling: a storage leak (e.g. a container pinning recycled slots)
    // grows monotonically and crosses it quickly.
    const std::size_t pool_cap =
        2 * static_cast<std::size_t>(core.params.robSize) +
        core.frontEndCap;
    if (core.instPool.liveCount() > pool_cap) {
        std::ostringstream os;
        core.debugDump(os);
        violation(poolBound, "pool live count <= window bound", cycle,
                  "live " + std::to_string(core.instPool.liveCount()) +
                      " > bound " + std::to_string(pool_cap) + "\n" +
                      os.str());
    }

    // The writeback ring holds exactly the issued-but-not-yet-written-
    // back instructions (squashed ones included; they drain normally).
    std::size_t wb_pop = 0;
    for (const auto &bucket : core.wbRing)
        wb_pop += bucket.size();
    if (wb_pop != core.inFlightExec) {
        violation(wbRingBound, "writeback ring population == in-flight",
                  cycle,
                  "ring holds " + std::to_string(wb_pop) +
                      " but inFlightExec=" +
                      std::to_string(core.inFlightExec));
    }

    if (auto *seg = dynamic_cast<SegmentedIq *>(core.iq.get()))
        auditSegmented(*seg, cycle);
    else if (auto *ideal = dynamic_cast<IdealIq *>(core.iq.get()))
        auditIdeal(*ideal, cycle);
}

void
Auditor::auditSegmented(SegmentedIq &iq, Cycle cycle)
{
    const unsigned n = iq.numSegments();

    // Every segment's residents, oldest first, read once per audit.
    std::vector<std::vector<DynInstPtr>> segs(n);
    for (unsigned k = 0; k < n; ++k)
        segs[k] = iq.segmentEntries(k);

    auto segDump = [&iq](unsigned k) {
        std::ostringstream os;
        iq.dumpSegment(os, k);
        return os.str();
    };

    for (unsigned k = 0; k < n; ++k) {
        const auto &seg = segs[k];

        if (seg.size() > iq.params.segmentSize) {
            violation(segmentOverflow, "segment occupancy <= capacity",
                      cycle,
                      "segment " + std::to_string(k) + " holds " +
                          std::to_string(seg.size()) + " > " +
                          std::to_string(iq.params.segmentSize) + "\n" +
                          segDump(k));
        }

        for (const auto &inst : seg) {
            if (inst->seg.segment != static_cast<int>(k)) {
                violation(segmentOverflow,
                          "entry segment field matches its segment", cycle,
                          "seq " + std::to_string(inst->seq) +
                              " records segment " +
                              std::to_string(inst->seg.segment) +
                              " but lives in " + std::to_string(k) + "\n" +
                              segDump(k));
            }

            for (int m = 0; m < inst->seg.numMemberships; ++m) {
                const ChainMembership &mem = inst->seg.memberships[m];
                if (mem.delay < 0) {
                    violation(negativeDelay, "chain delay >= 0", cycle,
                              "seq " + std::to_string(inst->seq) +
                                  " membership " + std::to_string(m) +
                                  " delay " + std::to_string(mem.delay) +
                                  "\n" + segDump(k));
                }

                // Chain-wire exactness: every signal is applied on the
                // cycle it becomes visible at this segment.  A signal
                // generated at cycle g from segment o reaches segment s
                // at g + max(0, s - o); anything still unapplied a full
                // cycle past that arrival was missed by delivery.
                // (Signals generated after this cycle's delivery pass -
                // e.g. load-resume events from the LSQ - are legitimately
                // pending, hence the strict comparison.)
                if (mem.chain == kNoChain)
                    continue;
                const auto &cs = iq.stateOf(mem.chain);
                if (cs.gen != mem.gen)
                    continue;
                if (mem.appliedSeq > cs.seqCounter) {
                    violation(wireDelivery,
                              "applied signal count <= signals generated",
                              cycle,
                              "seq " + std::to_string(inst->seq) +
                                  " applied " +
                                  std::to_string(mem.appliedSeq) + " > " +
                                  std::to_string(cs.seqCounter) + "\n" +
                                  segDump(k));
                }
                for (std::size_t si = 0; si < cs.log.size(); ++si) {
                    const auto &sig = cs.log.at(si);
                    if (sig.seq <= mem.appliedSeq)
                        continue;
                    const Cycle lag =
                        static_cast<int>(k) > sig.originSegment
                            ? static_cast<Cycle>(static_cast<int>(k) -
                                                 sig.originSegment)
                            : 0;
                    if (sig.cycle + lag < cycle) {
                        violation(
                            wireDelivery,
                            "chain-wire signals arrive on schedule", cycle,
                            "seq " + std::to_string(inst->seq) +
                                " in segment " + std::to_string(k) +
                                " missed signal " +
                                std::to_string(sig.seq) + " of chain " +
                                std::to_string(mem.chain) +
                                " (generated cycle " +
                                std::to_string(sig.cycle) +
                                " at segment " +
                                std::to_string(sig.originSegment) + ")\n" +
                                segDump(k));
                    }
                }
            }
        }
    }

    // The dispatch-stage register table listens at the top segment.
    {
        const int top = static_cast<int>(n) - 1;
        for (std::size_t r = 0; r < iq.regInfo.size(); ++r) {
            const auto &e = iq.regInfo[r];
            if (!e.pending || e.chain == kNoChain)
                continue;
            const auto &cs = iq.stateOf(e.chain);
            if (cs.gen != e.gen)
                continue;
            for (std::size_t si = 0; si < cs.log.size(); ++si) {
                const auto &sig = cs.log.at(si);
                if (sig.seq <= e.appliedSeq)
                    continue;
                const Cycle lag =
                    top > sig.originSegment
                        ? static_cast<Cycle>(top - sig.originSegment)
                        : 0;
                if (sig.cycle + lag < cycle) {
                    violation(wireDelivery,
                              "chain-wire signals arrive on schedule",
                              cycle,
                              "regInfo[" + std::to_string(r) +
                                  "] missed signal " +
                                  std::to_string(sig.seq) + " of chain " +
                                  std::to_string(e.chain) +
                                  " (generated cycle " +
                                  std::to_string(sig.cycle) +
                                  " at segment " +
                                  std::to_string(sig.originSegment) + ")");
                }
            }
        }
    }

    // Promotion respects the previous-cycle free count and the
    // inter-segment bandwidth (deadlock-recovery force promotions are
    // exempt and not counted by the tracking hooks).
    if (iq.auditTracking && !iq.promotedInto.empty()) {
        for (unsigned k = 0; k + 1 < n; ++k) {
            const unsigned bound = std::min<unsigned>(
                iq.params.issueWidth, iq.freePrevSnapshot[k]);
            if (iq.promotedInto[k] > bound) {
                violation(promotionBound,
                          "promotions <= prev-cycle free entries", cycle,
                          "segment " + std::to_string(k) + " accepted " +
                              std::to_string(iq.promotedInto[k]) +
                              " promotions, bound " +
                              std::to_string(bound) + "\n" + segDump(k));
            }
        }
    }

    // --- Incremental scheduling indices vs. full rescan (section 11) ---
    // Every index the event-driven tick consults is a redundant view
    // over per-entry state; re-derive each one the slow way and count
    // any disagreement.

    // O(1) occupancy.
    std::size_t occ_scan = 0;
    for (unsigned k = 0; k < n; ++k)
        occ_scan += segs[k].size();
    if (occ_scan != iq.totalOcc) {
        violation(occIndex, "segmented occupancy counter == rescan", cycle,
                  "totalOcc=" + std::to_string(iq.totalOcc) +
                      " but segments hold " + std::to_string(occ_scan));
    }

    // Age ring and segment masks, from each resident's own state: its
    // ordinal names its slot and lies in [headOrd, tailOrd); ordinals
    // increase with seq; it is not below its segment's low ordinal;
    // its occupancy bit is set in its segment's mask only, and its
    // eligibility bit there equals its promoEligible flag.  Popcounts
    // matching the rescanned counts then rule out stray bits.
    {
        const std::size_t cap = iq.ring.size();
        auto bit = [](const std::uint64_t *mask, std::size_t pos) {
            return ((mask[pos >> 6] >> (pos & 63)) & 1) != 0;
        };
        std::vector<unsigned> occ_in(n, 0);
        std::vector<unsigned> elig_in(n, 0);
        std::size_t residents = 0;
        const DynInst *prev = nullptr;
        if (iq.tailOrd - iq.headOrd > cap ||
            (iq.headOrd < iq.tailOrd &&
             !iq.ring[iq.headOrd & iq.ringMask])) {
            violation(occIndex, "ring span fits and starts at a resident",
                      cycle,
                      "head " + std::to_string(iq.headOrd) + " tail " +
                          std::to_string(iq.tailOrd) + " capacity " +
                          std::to_string(cap));
        }
        for (std::uint64_t i = 0; i < cap; ++i) {
            // Slots in ordinal order from the head, then the rest.
            const std::uint64_t ord = iq.headOrd + i;
            const DynInstPtr &inst = iq.ring[ord & iq.ringMask];
            if (!inst)
                continue;
            ++residents;
            auto who = [&inst] {
                return "seq " + std::to_string(inst->seq) + " ord " +
                       std::to_string(inst->seg.ord);
            };
            if (inst->seg.ord != ord || ord >= iq.tailOrd) {
                violation(occIndex, "ordinal names its slot within span",
                          cycle,
                          who() + " in slot for ord " + std::to_string(ord) +
                              ", span [" + std::to_string(iq.headOrd) +
                              ", " + std::to_string(iq.tailOrd) + ")");
            }
            if (prev != nullptr && prev->seq >= inst->seq) {
                violation(occIndex, "ordinals increase with seq", cycle,
                          who() + " follows seq " + std::to_string(prev->seq));
            }
            prev = inst.get();
            const std::size_t pos = ord & iq.ringMask;
            const int home = inst->seg.segment;
            const std::uint64_t low =
                home >= 0 && static_cast<unsigned>(home) < n
                    ? iq.lowOrd[static_cast<unsigned>(home)]
                    : 0;
            if (ord < low) {
                violation(occIndex, "segment low ordinal <= resident",
                          cycle,
                          who() + " in segment " + std::to_string(home) +
                              " below its low ordinal " +
                              std::to_string(low));
            }
            for (unsigned k = 0; k < n; ++k) {
                const bool here = home == static_cast<int>(k);
                if (bit(iq.occOf(k), pos) != here) {
                    violation(occIndex,
                              "occupancy bit set in own segment only",
                              cycle,
                              who() + " in segment " + std::to_string(home) +
                                  ", segment " + std::to_string(k) +
                                  " bit " + std::to_string(!here));
                }
                const bool want_elig = here && inst->seg.promoEligible;
                if (bit(iq.eligOf(k), pos) != want_elig) {
                    violation(promoIndex,
                              "eligibility bit == promoEligible", cycle,
                              who() + " flag " +
                                  std::to_string(inst->seg.promoEligible) +
                                  ", segment " + std::to_string(k) +
                                  " bit " + std::to_string(!want_elig));
                }
                occ_in[k] += here;
                elig_in[k] += want_elig;
            }
        }
        if (residents != iq.totalOcc) {
            violation(occIndex, "ring residents == occupancy counter",
                      cycle,
                      "ring holds " + std::to_string(residents) +
                          ", totalOcc=" + std::to_string(iq.totalOcc));
        }
        for (unsigned k = 0; k < n; ++k) {
            unsigned occ_pop = 0;
            unsigned elig_pop = 0;
            for (std::size_t w = 0; w < iq.ringWords; ++w) {
                occ_pop += std::popcount(iq.occOf(k)[w]);
                elig_pop += std::popcount(iq.eligOf(k)[w]);
            }
            if (occ_pop != occ_in[k] || iq.segCount[k] != occ_in[k]) {
                violation(occIndex, "occupancy mask popcount == count",
                          cycle,
                          "segment " + std::to_string(k) + " popcount " +
                              std::to_string(occ_pop) + " count " +
                              std::to_string(iq.segCount[k]) +
                              " residents " + std::to_string(occ_in[k]));
            }
            if (elig_pop != elig_in[k] || iq.eligCount[k] != elig_in[k]) {
                violation(promoIndex, "eligibility mask popcount == count",
                          cycle,
                          "segment " + std::to_string(k) + " popcount " +
                              std::to_string(elig_pop) + " count " +
                              std::to_string(iq.eligCount[k]) +
                              " flagged " + std::to_string(elig_in[k]));
            }
        }
    }

    // Promotion-candidate counts, activity masks, and per-entry flags;
    // subscriber and countdown back-pointers along the way.
    std::size_t subs_scan = 0;   // resident memberships on a wire
    std::size_t cds_scan = 0;    // resident memberships counting down
    for (unsigned k = 0; k < n; ++k) {
        unsigned elig_scan = 0;
        const auto &seg = segs[k];
        for (const auto &inst : seg) {
            const bool elig =
                k >= 1 &&
                iq.effectiveDelay(*inst) < SegmentedIq::threshold(k - 1);
            if (elig)
                ++elig_scan;
            if (elig != inst->seg.promoEligible) {
                violation(promoIndex,
                          "promotion-eligibility flag == rescan", cycle,
                          "seq " + std::to_string(inst->seq) +
                              " flag " +
                              std::to_string(inst->seg.promoEligible) +
                              " but predicate says " +
                              std::to_string(elig) + "\n" + segDump(k));
            }

            for (int m = 0; m < inst->seg.numMemberships; ++m) {
                const ChainMembership &mem = inst->seg.memberships[m];
                const bool on_wire = mem.chain != kNoChain;
                if (on_wire != (mem.subIdx >= 0)) {
                    violation(subIndex,
                              "membership subscribed iff on a wire", cycle,
                              "seq " + std::to_string(inst->seq) +
                                  " membership " + std::to_string(m) +
                                  " chain " + std::to_string(mem.chain) +
                                  " subIdx " + std::to_string(mem.subIdx));
                } else if (on_wire) {
                    ++subs_scan;
                    const auto &subs = iq.stateOf(mem.chain).memberSubs;
                    const auto idx = static_cast<std::size_t>(mem.subIdx);
                    if (idx >= subs.size() ||
                        subs[idx].inst != inst.get() ||
                        subs[idx].slot != m) {
                        violation(subIndex,
                                  "subscriber back-pointer is exact",
                                  cycle,
                                  "seq " + std::to_string(inst->seq) +
                                      " membership " + std::to_string(m) +
                                      " subIdx " +
                                      std::to_string(mem.subIdx));
                    }
                }

                const bool want_cd =
                    mem.selfTimed && !mem.suspended && mem.delay > 0;
                if (want_cd != (mem.cdIdx >= 0)) {
                    violation(countdownIndex,
                              "membership counts down iff self-timed",
                              cycle,
                              "seq " + std::to_string(inst->seq) +
                                  " membership " + std::to_string(m) +
                                  " cdIdx " + std::to_string(mem.cdIdx) +
                                  " predicate " + std::to_string(want_cd));
                } else if (want_cd) {
                    ++cds_scan;
                    const auto idx = static_cast<std::size_t>(mem.cdIdx);
                    if (idx >= iq.memberCountdown.size() ||
                        iq.memberCountdown[idx].inst != inst.get() ||
                        iq.memberCountdown[idx].slot != m) {
                        violation(countdownIndex,
                                  "countdown back-pointer is exact", cycle,
                                  "seq " + std::to_string(inst->seq) +
                                      " membership " + std::to_string(m) +
                                      " cdIdx " +
                                      std::to_string(mem.cdIdx));
                    }
                }
            }
        }

        if (elig_scan != iq.eligCount[k]) {
            violation(promoIndex, "promotion-candidate count == rescan",
                      cycle,
                      "segment " + std::to_string(k) + " tracks " +
                          std::to_string(iq.eligCount[k]) +
                          " candidates, rescan finds " +
                          std::to_string(elig_scan) + "\n" + segDump(k));
        }

        if (k < 64) {
            const bool mask_bit = (iq.eligMask >> k) & 1;
            if (mask_bit != (iq.eligCount[k] > 0)) {
                violation(promoIndex, "eligibility mask matches counts",
                          cycle,
                          "segment " + std::to_string(k) + " bit " +
                              std::to_string(mask_bit) + " count " +
                              std::to_string(iq.eligCount[k]));
            }
            const bool near_full =
                iq.params.segmentSize - iq.segmentOccupancy(k) <
                iq.params.issueWidth;
            if (near_full != (((iq.nearFullMask >> k) & 1) != 0)) {
                violation(promoIndex, "near-full mask matches occupancy",
                          cycle,
                          "segment " + std::to_string(k) + " holds " +
                              std::to_string(iq.segmentOccupancy(k)) +
                              " of " +
                              std::to_string(iq.params.segmentSize));
            }
        }
    }

    // Back-pointer exactness above makes the per-list maps injective,
    // so matching totals prove the lists hold exactly the resident
    // references - no leaks pinning recycled pool slots.
    if (cds_scan != iq.memberCountdown.size()) {
        violation(countdownIndex, "countdown list size == rescan", cycle,
                  "list holds " +
                      std::to_string(iq.memberCountdown.size()) +
                      ", rescan finds " + std::to_string(cds_scan));
    }
    std::size_t subs_held = 0;
    std::size_t active_flags = 0;
    for (std::size_t c = 0; c < iq.chainStates.size(); ++c) {
        const auto &cs = iq.chainStates[c];
        subs_held += cs.memberSubs.size();
        if (cs.active)
            ++active_flags;
        if (!cs.log.empty() && !cs.active) {
            violation(subIndex, "chains with signals in flight are active",
                      cycle,
                      "chain " + std::to_string(c) + " logs " +
                          std::to_string(cs.log.size()) +
                          " signals but is not on the active list");
        }
        // The wire state either carries the allocator's current
        // generation (allocated, or draining before reuse) or lags it
        // by exactly the free() bump; anything else is gen drift.
        const ChainId id = static_cast<ChainId>(c);
        if (!iq.chains.isLive(id, cs.gen) &&
            iq.chains.generation(id) != cs.gen + 1) {
            violation(subIndex, "chain-state generation tracks allocator",
                      cycle,
                      "chain " + std::to_string(c) + " state gen " +
                          std::to_string(cs.gen) + " allocator gen " +
                          std::to_string(iq.chains.generation(id)));
        }
    }
    if (subs_held != subs_scan) {
        violation(subIndex, "subscriber list sizes == rescan", cycle,
                  "lists hold " + std::to_string(subs_held) +
                      ", rescan finds " + std::to_string(subs_scan));
    }
    if (active_flags != iq.activeChains.size()) {
        violation(subIndex, "active-chain list size == flags", cycle,
                  "list holds " + std::to_string(iq.activeChains.size()) +
                      ", " + std::to_string(active_flags) +
                      " chains are flagged active");
    }

    // Register-table side: subscription and countdown back-pointers.
    std::size_t reg_cds_scan = 0;
    for (std::size_t r = 0; r < iq.regInfo.size(); ++r) {
        const auto &e = iq.regInfo[r];
        if (iq.regSubChain[r] != e.chain) {
            violation(subIndex, "table subscription tracks its chain",
                      cycle,
                      "regInfo[" + std::to_string(r) + "] chain " +
                          std::to_string(e.chain) + " but subscribed to " +
                          std::to_string(iq.regSubChain[r]));
        } else if (e.chain != kNoChain) {
            const auto &subs = iq.stateOf(e.chain).regSubs;
            const int pos = iq.regSubPos[r];
            if (pos < 0 ||
                static_cast<std::size_t>(pos) >= subs.size() ||
                subs[static_cast<std::size_t>(pos)] !=
                    static_cast<RegIndex>(r)) {
                violation(subIndex, "table subscriber back-pointer exact",
                          cycle,
                          "regInfo[" + std::to_string(r) + "] pos " +
                              std::to_string(pos));
            }
        }

        const bool want_cd =
            e.pending && e.selfTimed && !e.suspended && e.latency > 0;
        const int cd = iq.regCdPos[r];
        if (want_cd != (cd >= 0)) {
            violation(countdownIndex,
                      "table entry counts down iff self-timed", cycle,
                      "regInfo[" + std::to_string(r) + "] cdPos " +
                          std::to_string(cd) + " predicate " +
                          std::to_string(want_cd));
        } else if (want_cd) {
            ++reg_cds_scan;
            if (static_cast<std::size_t>(cd) >= iq.regCountdown.size() ||
                iq.regCountdown[static_cast<std::size_t>(cd)] !=
                    static_cast<RegIndex>(r)) {
                violation(countdownIndex,
                          "table countdown back-pointer exact", cycle,
                          "regInfo[" + std::to_string(r) + "] cdPos " +
                              std::to_string(cd));
            }
        }
    }
    if (reg_cds_scan != iq.regCountdown.size()) {
        violation(countdownIndex, "table countdown size == rescan", cycle,
                  "list holds " + std::to_string(iq.regCountdown.size()) +
                      ", rescan finds " + std::to_string(reg_cds_scan));
    }
}

void
Auditor::auditIdeal(IdealIq &iq, Cycle cycle)
{
    // The ready list must hold exactly the resident instructions whose
    // gating operands are all ready; pendingOps must agree with the
    // scoreboard (readiness is monotone during residency, so the event
    // counts cannot drift from the polled truth).
    auto in_ready = [&iq](const DynInstPtr &inst) {
        auto pos = std::lower_bound(
            iq.readyList.begin(), iq.readyList.end(), inst,
            [](const DynInstPtr &a, const DynInstPtr &b) {
                return a->seq < b->seq;
            });
        return pos != iq.readyList.end() && *pos == inst;
    };

    for (const auto &inst : iq.insts) {
        if (!inst->ideal.inQueue) {
            violation(readyIndex, "resident instructions are flagged",
                      cycle, "seq " + std::to_string(inst->seq) +
                                 " resident but not inQueue");
        }
        int pending_scan = 0;
        for (RegIndex r : iq.iqSources(*inst)) {
            if (r != kInvalidReg && !iq.scoreboard.isReady(r))
                ++pending_scan;
        }
        if (pending_scan != inst->ideal.pendingOps) {
            violation(readyIndex, "pending-operand count == rescan", cycle,
                      "seq " + std::to_string(inst->seq) + " tracks " +
                          std::to_string(inst->ideal.pendingOps) +
                          " pending, scoreboard says " +
                          std::to_string(pending_scan));
        }
        if ((pending_scan == 0) != in_ready(inst)) {
            violation(readyIndex, "ready list == operands-ready residents",
                      cycle,
                      "seq " + std::to_string(inst->seq) + " pending " +
                          std::to_string(pending_scan) +
                          (in_ready(inst) ? " yet on" : " yet off") +
                          " the ready list");
        }
    }
    if (iq.readyList.size() > iq.insts.size()) {
        violation(readyIndex, "ready list within residency", cycle,
                  "ready " + std::to_string(iq.readyList.size()) +
                      " > resident " + std::to_string(iq.insts.size()));
    }
    for (const auto &inst : iq.readyList) {
        auto pos = std::lower_bound(
            iq.insts.begin(), iq.insts.end(), inst,
            [](const DynInstPtr &a, const DynInstPtr &b) {
                return a->seq < b->seq;
            });
        if (pos == iq.insts.end() || *pos != inst) {
            violation(readyIndex, "ready instructions are resident", cycle,
                      "seq " + std::to_string(inst->seq) +
                          " ready but not resident");
        }
    }
}

} // namespace sciq

#include "ooo_core.hh"

#include <algorithm>
#include <bit>
#include <ostream>
#include <sstream>

#include "isa/disassembler.hh"

#include "common/errors.hh"
#include "common/logging.hh"
#include "iq/fifo_iq.hh"
#include "iq/ideal_iq.hh"
#include "iq/prescheduled_iq.hh"
#include "iq/segmented_iq.hh"

namespace sciq {

const char *
iqKindName(IqKind kind)
{
    switch (kind) {
      case IqKind::Ideal: return "ideal";
      case IqKind::Segmented: return "segmented";
      case IqKind::Prescheduled: return "prescheduled";
      case IqKind::Fifo: return "fifo";
    }
    return "?";
}

void
CoreParams::finalize()
{
    if (robSize == 0)
        robSize = 3 * iq.numEntries;
    if (lsqSize == 0)
        lsqSize = robSize;
    if (numPhysRegs == 0)
        numPhysRegs = kNumArchRegs + robSize + 16;
}

OooCore::OooCore(const Program &program_, const CoreParams &params_)
    : program(program_), params(params_), statsGroup("core"),
      mem(params_.mem),
      rename((params.finalize(), params.numPhysRegs)),
      scoreboard(params.numPhysRegs),
      physReadyCycle(params.numPhysRegs, 0),
      fu(params.fu), bp(params.bp), btbUnit(params.btbEntries, params.btbAssoc),
      ras(params.rasEntries), hmp(params.hmpEntries),
      lrp(params.lrpEntries), rob(params.robSize),
      fetchPc(program_.entry())
{
    switch (params.iqKind) {
      case IqKind::Ideal:
        iq = std::make_unique<IdealIq>(params.iq, scoreboard, fu);
        break;
      case IqKind::Segmented:
        iq = std::make_unique<SegmentedIq>(params.iq, scoreboard, fu,
                                           &hmp, &lrp);
        break;
      case IqKind::Prescheduled:
        iq = std::make_unique<PrescheduledIq>(params.iq, scoreboard, fu);
        break;
      case IqKind::Fifo:
        iq = std::make_unique<FifoIq>(params.iq, scoreboard, fu);
        break;
    }

    // Writeback ring: power-of-two capacity strictly above the largest
    // FU latency, so (cycle & mask) buckets never alias live events.
    std::size_t wb_cap = 1;
    while (wb_cap <= fu.maxLatency())
        wb_cap *= 2;
    wbRing.resize(wb_cap);
    wbMask = wb_cap - 1;

    Lsq::Callbacks cb;
    cb.onLoadComplete = [this](const DynInstPtr &inst, Cycle cycle) {
        markLoadComplete(inst, cycle);
    };
    cb.onLoadMiss = [this](const DynInstPtr &inst, Cycle cycle) {
        iq->onLoadMiss(inst, cycle);
    };
    cb.onStoreReady = [this](const DynInstPtr &inst, Cycle cycle) {
        markStoreReady(inst, cycle);
    };
    lsq = std::make_unique<Lsq>(params.lsqSize, mem.dcache(), fu,
                                scoreboard, std::move(cb));

    program.load(commitMem);

    // ~0 is never a line address (lines are aligned), so it marks an
    // empty memo slot.
    readyLineMemo.fill(~static_cast<Addr>(0));
    icLineMask = ~static_cast<Addr>(mem.icache().lineBytes() - 1);
    icLineShift = static_cast<unsigned>(
        std::countr_zero(static_cast<Addr>(mem.icache().lineBytes())));

    if (params.warmICache) {
        const unsigned line = mem.icache().lineBytes();
        for (Addr pc = program.base();
             pc < program.base() + program.size() * kInstBytes;
             pc += line) {
            mem.icache().warmInsert(pc);
            mem.l2cache().warmInsert(pc);
            lineReadyAt[pc & ~static_cast<Addr>(line - 1)] = 0;
        }
    }

    frontEndCap = params.fetchWidth *
                  (params.fetchToDecode + params.decodeToDispatch +
                   iq->extraDispatchCycles() + 2);

    statsGroup.addScalar("cycles", &cyclesStat, "simulated cycles");
    statsGroup.addScalar("committed_insts", &committedInsts,
                         "instructions committed");
    statsGroup.addScalar("fetched_insts", &fetchedInsts,
                         "instructions fetched (incl. wrong path)");
    statsGroup.addScalar("wrong_path_insts", &wrongPathInsts,
                         "wrong-path instructions fetched");
    statsGroup.addScalar("squashes", &squashes, "pipeline squashes");
    statsGroup.addScalar("mispredicts_resolved", &mispredictsResolved,
                         "mispredicted control insts resolved");
    statsGroup.addScalar("committed_loads", &committedLoads, "");
    statsGroup.addScalar("committed_stores", &committedStores, "");
    statsGroup.addScalar("committed_branches", &committedBranches, "");
    statsGroup.addScalar("committed_cond_branches", &committedCondBranches,
                         "");
    statsGroup.addAverage("rob_occupancy", &robOccupancy,
                          "ROB occupancy per cycle");
    const double rob_hi = static_cast<double>(params.robSize) + 1.0;
    robOccupancyDist.configure(
        0.0, rob_hi,
        std::max(1.0, rob_hi / 64.0));
    statsGroup.addDistribution("rob_occupancy_dist", &robOccupancyDist,
                               "ROB occupancy distribution");

    statsGroup.addChild(&iq->statGroup());
    statsGroup.addChild(&lsq->statGroup());
    statsGroup.addChild(&fu.statGroup());
    statsGroup.addChild(&bp.statGroup());
    statsGroup.addChild(&btbUnit.statGroup());
    statsGroup.addChild(&hmp.statGroup());
    statsGroup.addChild(&lrp.statGroup());
    statsGroup.addChild(&mem.statGroup());
}

OooCore::~OooCore() = default;

std::uint64_t
OooCore::FetchContext::readMem(Addr addr, unsigned size)
{
    // Byte-wise forwarding from in-flight (speculative) stores,
    // youngest first, falling back to committed memory.  One pass over
    // the store queue fills every covered byte from its youngest
    // producer - equivalent to the per-byte youngest-first search, at
    // one queue walk per load instead of one per byte.
    const Addr lineLo = addr >> kSpecLineShift;
    const Addr lineHi = (addr + size - 1) >> kSpecLineShift;
    bool overlapPossible = false;
    for (Addr l = lineLo; l <= lineHi; ++l)
        overlapPossible |= core.specStoreLines[l & (kSpecLineBuckets - 1)] != 0;
    if (!overlapPossible)
        return core.commitMem.read(addr, size);

    std::uint64_t value = 0;
    unsigned filled = 0;  // per-byte bitmask; size <= 8
    const unsigned all = (size >= 8) ? 0xffu : ((1u << size) - 1u);
    for (auto it = core.storeQueueSpec.rbegin();
         it != core.storeQueueSpec.rend() && filled != all; ++it) {
        const DynInstPtr &st = *it;
        const Addr lo = st->effAddr;
        const Addr hi = lo + st->staticInst.memSize();
        if (lo >= addr + size || hi <= addr)
            continue;
        const unsigned first = lo > addr ? static_cast<unsigned>(lo - addr)
                                         : 0u;
        const unsigned last = hi < addr + size
                                  ? static_cast<unsigned>(hi - addr)
                                  : size;
        for (unsigned i = first; i < last; ++i) {
            if (filled & (1u << i))
                continue;  // a younger store already produced this byte
            const Addr a = addr + i;
            const auto byte =
                static_cast<std::uint8_t>(st->memValue >> (8 * (a - lo)));
            value |= static_cast<std::uint64_t>(byte) << (8 * i);
            filled |= 1u << i;
        }
    }
    for (unsigned i = 0; i < size; ++i) {
        if (filled & (1u << i))
            continue;
        const auto byte =
            static_cast<std::uint8_t>(core.commitMem.read(addr + i, 1));
        value |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return value;
}

void
OooCore::trackSpecStore(const DynInst &st, int delta)
{
    const Addr lo = st.effAddr >> kSpecLineShift;
    const Addr hi =
        (st.effAddr + st.staticInst.memSize() - 1) >> kSpecLineShift;
    for (Addr l = lo; l <= hi; ++l) {
        specStoreLines[l & (kSpecLineBuckets - 1)] =
            static_cast<std::uint16_t>(
                specStoreLines[l & (kSpecLineBuckets - 1)] + delta);
    }
}

bool
OooCore::lineReady(Addr pc)
{
    const Addr line = pc & icLineMask;
    Addr &memo = readyLineMemo[(line >> icLineShift) & (kReadyMemoSize - 1)];
    if (memo == line)
        return true;
    auto it = lineReadyAt.find(line);
    if (it != lineReadyAt.end() && it->second <= curCycle) {
        memo = line;
        return true;
    }
    return false;
}

void
OooCore::touchLine(Addr pc)
{
    const Addr line = pc & icLineMask;
    if (readyLineMemo[(line >> icLineShift) & (kReadyMemoSize - 1)] == line)
        return;  // observed ready; nothing to start
    if (lineReadyAt.count(line))
        return;  // ready or in flight
    lineReadyAt[line] = kCycleNever;
    mem.icache().access(line, false, curCycle,
                        [this, line](Cycle when, AccessOutcome) {
                            lineReadyAt[line] = when;
                        });
}

void
OooCore::predictControl(const DynInstPtr &inst)
{
    const Instruction &si = inst->staticInst;
    const Addr pc = inst->pc;
    const Addr fallthrough = pc + kInstBytes;

    inst->historySnap = bp.snapshot();

    if (si.isCondBranch()) {
        inst->usedCondPredictor = true;
        inst->predictedTaken = bp.predict(pc);
        const Addr target =
            pc + static_cast<Addr>(static_cast<std::uint64_t>(si.imm)) *
                     kInstBytes;
        inst->predictedNextPc = inst->predictedTaken ? target : fallthrough;
        return;
    }

    switch (si.op) {
      case Opcode::J:
        inst->predictedTaken = true;
        inst->predictedNextPc = inst->oracleNextPc;  // direct: exact
        break;
      case Opcode::JAL:
        inst->predictedTaken = true;
        inst->predictedNextPc = inst->oracleNextPc;  // direct: exact
        ras.push(fallthrough);
        break;
      case Opcode::JR: {
        inst->predictedTaken = true;
        inst->predictedNextPc = ras.pop();
        break;
      }
      case Opcode::JALR: {
        inst->predictedTaken = true;
        Addr target;
        inst->predictedNextPc =
            btbUnit.lookup(pc, target) ? target : fallthrough;
        ras.push(fallthrough);
        break;
      }
      default:
        inst->predictedNextPc = fallthrough;
        break;
    }
}

void
OooCore::fetchStage()
{
    if (fetchHalted || fetchInvalid || curCycle < fetchResumeCycle)
        return;
    if (frontEndQueue.size() >= frontEndCap)
        return;

    unsigned fetched = 0;
    unsigned branches = 0;
    FetchContext xc(*this);

    while (fetched < params.fetchWidth &&
           frontEndQueue.size() < frontEndCap) {
        if (!lineReady(fetchPc)) {
            touchLine(fetchPc);
            break;
        }
        // Prefetch the sequential successor line.
        touchLine(fetchPc + mem.icache().lineBytes());

        const Instruction *si = program.fetch(fetchPc);
        if (!si) {
            // Wrong-path fetch ran off the program image; wait for the
            // redirect.
            fetchInvalid = true;
            break;
        }

        if (si->isControl() && branches >= params.maxBranchesPerFetch)
            break;

        DynInstPtr inst = instPool.create();
        inst->staticInst = *si;
        inst->pc = fetchPc;
        inst->seq = nextSeq++;
        inst->fetchCycle = curCycle;
        inst->onWrongPath = wrongPathMode;
        inst->archSrc = si->srcRegs();
        inst->archDst = si->dstReg();

        // Oracle execution on the speculative state.
        xc.wroteReg = false;
        ExecResult res = execute(*si, fetchPc, xc);
        inst->oracleNextPc = res.nextPc;
        inst->oracleTaken = res.taken;
        inst->isHalt = res.halted;
        inst->effAddr = res.effAddr;
        inst->memValue = res.memValue;
        if (xc.wroteReg)
            inst->dstValue = xc.lastValue;

        if (inst->isStore()) {
            storeQueueSpec.push_back(inst);
            trackSpecStore(*inst, +1);
        }

        inst->predictedNextPc = fetchPc + kInstBytes;
        if (si->isControl()) {
            ++branches;
            predictControl(inst);
        }
        inst->mispredicted = inst->predictedNextPc != inst->oracleNextPc &&
                             !inst->isHalt;

        // Checkpoint fetch state after executing the control inst so a
        // squash can restart cleanly at its successor.
        if (si->isControl()) {
            inst->checkpoint = instPool.takeCheckpoint();
            if (!inst->checkpoint)
                inst->checkpoint = std::make_unique<FetchCheckpoint>();
            inst->checkpoint->regs = specRegs;
            inst->checkpoint->ras = ras.snapshot();
        }

        inst->dispatchReadyCycle = curCycle + params.fetchToDecode +
                                   params.decodeToDispatch +
                                   iq->extraDispatchCycles();

        frontEndQueue.push_back(inst);
        fetchedInsts.inc();
        if (wrongPathMode)
            wrongPathInsts.inc();
        ++fetched;

        if (inst->isHalt) {
            fetchHalted = true;
            break;
        }

        if (inst->mispredicted) {
            if (!params.modelWrongPath) {
                fetchInvalid = true;  // stall until the redirect
                break;
            }
            wrongPathMode = true;
        }

        fetchPc = inst->predictedNextPc;

        // A taken control transfer ends the fetch group.
        if (si->isControl() && inst->predictedTaken)
            break;
    }
}

void
OooCore::dispatchStage()
{
    for (unsigned n = 0; n < params.dispatchWidth; ++n) {
        if (frontEndQueue.empty())
            break;
        DynInstPtr inst = frontEndQueue.front();
        if (inst->dispatchReadyCycle > curCycle)
            break;
        if (rob.full())
            break;
        if (inst->archDst != kInvalidReg && !rename.hasFreeReg())
            break;
        if (inst->staticInst.isMem() && lsq->full())
            break;
        if (!iq->canInsert(inst))
            break;

        frontEndQueue.pop_front();

        // Rename sources then destination.
        for (int i = 0; i < 2; ++i) {
            inst->physSrc[i] = inst->archSrc[i] == kInvalidReg
                                   ? kInvalidReg
                                   : rename.lookup(inst->archSrc[i]);
        }
        if (inst->archDst != kInvalidReg) {
            auto [phys, prev] = rename.allocate(inst->archDst);
            inst->physDst = phys;
            inst->prevPhysDst = prev;
            scoreboard.clearReady(phys);
            physReadyCycle[phys] = kCycleNever;
        }

        rob.pushBack(inst);
        if (inst->staticInst.isMem())
            lsq->insert(inst);
        iq->insert(inst, curCycle);
        inst->dispatched = true;
    }
}

void
OooCore::issueStage()
{
    iq->issueSelect(curCycle, [this](const DynInstPtr &inst) -> bool {
        if (!fu.tryAcquire(inst->opClass(), curCycle))
            return false;
        inst->issued = true;
        inst->issueCycle = curCycle;
        ++issuedThisCycleCount;
        const unsigned lat = fu.latency(inst->opClass());
        SCIQ_ASSERT(lat > 0 && lat <= wbMask,
                    "FU latency %u outside the writeback ring", lat);
        wbRing[(curCycle + lat) & wbMask].push_back(inst);
        ++inFlightExec;
        return true;
    });
}

void
OooCore::markLoadComplete(const DynInstPtr &inst, Cycle cycle)
{
    inst->completed = true;
    inst->completeCycle = cycle;
    if (inst->physDst != kInvalidReg) {
        scoreboard.setReady(inst->physDst);
        physReadyCycle[inst->physDst] = cycle;
        iq->onRegReady(inst->physDst);
    }
    iq->onLoadComplete(inst, cycle);
    // A load "writes back" when its data returns: chains headed by it
    // are deallocated here.
    iq->onWriteback(inst, cycle);
}

void
OooCore::markStoreReady(const DynInstPtr &inst, Cycle cycle)
{
    if (!inst->completed) {
        inst->completed = true;
        inst->completeCycle = cycle;
    }
}

void
OooCore::writebackStage()
{
    auto &bucket = wbRing[curCycle & wbMask];
    if (bucket.empty())
        return;
    // Swap the bucket out (capacities ping-pong, so draining stays
    // allocation-free): nothing may append to this cycle's bucket
    // while it is being walked.
    wbScratch.clear();
    wbScratch.swap(bucket);

    for (DynInstPtr &inst : wbScratch) {
        SCIQ_ASSERT(inFlightExec > 0, "writeback underflow");
        --inFlightExec;
        if (inst->squashed)
            continue;

        if (inst->staticInst.isMem()) {
            // Address generation finished; the LSQ takes over.
            lsq->setAddrReady(inst, curCycle);
            continue;
        }

        inst->completed = true;
        inst->completeCycle = curCycle;
        if (inst->physDst != kInvalidReg) {
            scoreboard.setReady(inst->physDst);
            physReadyCycle[inst->physDst] = curCycle;
            iq->onRegReady(inst->physDst);
        }
        iq->onWriteback(inst, curCycle);

        if (inst->isControl() && inst->mispredicted) {
            mispredictsResolved.inc();
            if (!pendingSquashBranch ||
                inst->seq < pendingSquashBranch->seq) {
                pendingSquashBranch = inst;
            }
        }
    }
    wbScratch.clear();  // release the DynInstPtr refs promptly
}

void
OooCore::doSquash()
{
    DynInstPtr branch = pendingSquashBranch;
    pendingSquashBranch = nullptr;
    const SeqNum target = branch->seq;
    squashes.inc();

    // Walk the ROB youngest-first, undoing rename and dispatch effects.
    while (!rob.empty() && rob.back()->seq > target) {
        DynInstPtr inst = rob.back();
        rob.popBack();
        inst->squashed = true;
        if (observer)
            observer->onSquash(*inst, curCycle);
        iq->onSquashInst(inst);
        if (inst->physDst != kInvalidReg) {
            rename.undo(inst->archDst, inst->physDst, inst->prevPhysDst);
            scoreboard.setReady(inst->physDst);  // back on the free list
            iq->onRegReady(inst->physDst);
        }
    }

    for (auto &inst : frontEndQueue)
        inst->squashed = true;
    frontEndQueue.clear();

    iq->squash(target);
    lsq->squash(target);
    while (!storeQueueSpec.empty() && storeQueueSpec.back()->seq > target) {
        trackSpecStore(*storeQueueSpec.back(), -1);
        storeQueueSpec.pop_back();
    }

    // Restore the speculative fetch state from the branch's checkpoint.
    SCIQ_ASSERT(branch->checkpoint != nullptr,
                "mispredicted control inst lacks a checkpoint");
    specRegs = branch->checkpoint->regs;
    ras.restore(branch->checkpoint->ras);
    bp.restore(branch->historySnap);
    if (branch->usedCondPredictor)
        bp.pushSpecHistory(branch->oracleTaken);

    fetchPc = branch->oracleNextPc;
    fetchHalted = false;
    fetchInvalid = false;
    wrongPathMode = branch->onWrongPath;
    fetchResumeCycle = curCycle + 1;
}

void
OooCore::commitStage()
{
    // Injected fault: a commit stage that silently stops retiring - the
    // failure mode a wedged scheduler presents - so the watchdog's
    // detection path can be exercised deterministically.
    if (params.faultCommitStallAt && curCycle >= params.faultCommitStallAt)
        return;

    for (unsigned n = 0; n < params.commitWidth; ++n) {
        if (rob.empty())
            break;
        DynInstPtr inst = rob.front();
        if (!inst->completed)
            break;

        if (inst->isStore()) {
            commitMem.write(inst->effAddr, inst->staticInst.memSize(),
                            inst->memValue);
            lsq->commitStore(inst, curCycle);
            SCIQ_ASSERT(!storeQueueSpec.empty() &&
                            storeQueueSpec.front() == inst,
                        "spec store queue out of sync at commit");
            trackSpecStore(*inst, -1);
            storeQueueSpec.pop_front();
            committedStores.inc();
        } else if (inst->isLoad()) {
            lsq->commitLoad(inst);
            committedLoads.inc();
        }

        if (inst->archDst != kInvalidReg)
            committedRegs[inst->archDst] = inst->dstValue;

        // Predictor training.
        if (inst->usedCondPredictor) {
            bp.update(inst->pc, inst->oracleTaken, inst->historySnap);
            if (inst->mispredicted)
                bp.condMispredicts.inc();
            committedBranches.inc();
            committedCondBranches.inc();
        } else if (inst->isControl()) {
            committedBranches.inc();
        }
        if (inst->staticInst.isIndirect())
            btbUnit.update(inst->pc, inst->oracleNextPc);

        if (inst->isLoad()) {
            const bool was_hit =
                inst->loadForwarded || inst->loadWasL1Hit;
            hmp.update(inst->pc, was_hit);
            if (inst->hmpUsed)
                hmp.recordOutcome(inst->hmpPredictedHit, was_hit);
        }

        if (inst->hadTwoOutstanding) {
            const Cycle left = physReadyCycle[inst->physSrc[0]];
            const Cycle right = physReadyCycle[inst->physSrc[1]];
            const bool left_later = left > right;
            lrp.update(inst->pc, left_later);
            if (inst->lrpUsed && inst->lrpPredictedLeft != left_later)
                lrp.mispredicts.inc();
        }

        if (inst->physDst != kInvalidReg)
            rename.release(inst->prevPhysDst);

        iq->onCommit(inst);
        inst->committed = true;
        rob.popFront();
        committedInsts.inc();
        lastCommitCycle = curCycle;
        if (observer)
            observer->onCommit(*inst, curCycle);

        if (inst->isHalt) {
            haltCommitted = true;
            break;
        }
    }
}

bool
OooCore::coreBusy() const
{
    return inFlightExec > 0 || lsq->busy();
}

void
OooCore::tick()
{
    ++curCycle;
    cyclesStat.inc();
    issuedThisCycleCount = 0;

    mem.tick(curCycle);
    fu.beginCycle(curCycle);

    commitStage();
    writebackStage();
    if (pendingSquashBranch)
        doSquash();
    issueStage();
    iq->tick(curCycle, coreBusy());
    lsq->tick(curCycle);
    dispatchStage();
    fetchStage();

    robOccupancy.sample(static_cast<double>(rob.size()));
    robOccupancyDist.sample(static_cast<double>(rob.size()));

    if (cycleHook)
        cycleHook(*this, curCycle);
}

void
OooCore::seedState(const std::array<std::uint64_t, kNumArchRegs> &regs,
                   const SparseMemory &memory_image, Addr start_pc)
{
    SCIQ_ASSERT(curCycle == 0 && nextSeq == 1,
                "seedState after simulation started");
    specRegs = regs;
    committedRegs = regs;
    commitMem = memory_image;
    fetchPc = start_pc;
}

void
OooCore::debugDump(std::ostream &os) const
{
    os << "=== core state @ cycle " << curCycle << " ===\n"
       << "committed=" << committedCount() << " fetched="
       << static_cast<std::uint64_t>(fetchedInsts.value())
       << " rob=" << rob.size() << "/" << rob.capacity()
       << " frontEnd=" << frontEndQueue.size()
       << " iqOcc=" << iq->occupancy()
       << " inFlightExec=" << inFlightExec
       << " lsqBusy=" << (lsq->busy() ? 1 : 0)
       << " fetchPc=" << std::hex << fetchPc << std::dec
       << " fetchHalted=" << fetchHalted
       << " fetchInvalid=" << fetchInvalid << "\n";
    const std::size_t show = std::min<std::size_t>(rob.size(), 8);
    for (std::size_t i = 0; i < show; ++i) {
        const DynInstPtr &inst = rob.at(i);
        os << "  rob[" << i << "] seq=" << inst->seq << " pc=" << std::hex
           << inst->pc << std::dec << " '"
           << disassemble(inst->staticInst) << "'"
           << " disp=" << inst->dispatched << " issued=" << inst->issued
           << " comp=" << inst->completed
           << " addrRdy=" << inst->addrReady
           << " memSent=" << inst->memAccessSent;
        if (inst->dispatched) {
            os << " srcRdy=" << scoreboard.isReady(inst->physSrc[0])
               << scoreboard.isReady(inst->physSrc[1]);
        }
        os << "\n";
    }
}

void
OooCore::dumpPipelineState(std::ostream &os) const
{
    debugDump(os);
    os << "lsq=" << lsq->size() << " busy=" << (lsq->busy() ? 1 : 0)
       << " storeQueueSpec=" << storeQueueSpec.size() << "\n";
    iq->dumpState(os);
}

std::uint64_t
OooCore::run(std::uint64_t max_insts, Cycle max_cycles)
{
    const std::uint64_t start = committedCount();
    const Cycle cycle_limit =
        max_cycles == ~0ULL ? ~0ULL : curCycle + max_cycles;
    while (!haltCommitted && committedCount() - start < max_insts &&
           curCycle < cycle_limit) {
        tick();
        if (params.watchdogCycles &&
            curCycle - lastCommitCycle >= params.watchdogCycles) {
            std::ostringstream dump;
            dumpPipelineState(dump);
            throw DeadlockError(
                "watchdog: no instruction committed for " +
                    std::to_string(curCycle - lastCommitCycle) +
                    " cycles (cycle " + std::to_string(curCycle) +
                    ", committed " + std::to_string(committedCount()) + ")",
                dump.str());
        }
    }
    return committedCount() - start;
}

} // namespace sciq

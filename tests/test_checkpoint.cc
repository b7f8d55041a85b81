/**
 * @file
 * Warm-state checkpoint/restore tests (DESIGN.md §12).
 *
 * Three layers of coverage:
 *  - per-component save -> restore -> save round-trips must reproduce
 *    the first blob bit for bit;
 *  - a restored Simulator run must produce byte-identical stats trees
 *    to a cold fast-forwarded run, for every workload on both the
 *    segmented and the ideal IQ (the module's correctness contract),
 *    including when the warm-up was produced under a different IQ;
 *  - corrupted, truncated, version-bumped, mislabelled and mismatched
 *    blobs are rejected with specific CheckpointError messages.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "branch/branch_predictor.hh"
#include "branch/btb.hh"
#include "branch/hit_miss_predictor.hh"
#include "branch/left_right_predictor.hh"
#include "branch/ras.hh"
#include "common/serialize.hh"
#include "isa/program.hh"
#include "sim/checkpoint.hh"
#include "sim/fast_forward.hh"
#include "sim/simulator.hh"
#include "workload/workloads.hh"

using namespace sciq;
namespace fs = std::filesystem;

namespace {

/** Fresh scratch directory under the system temp dir, per test. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(fs::temp_directory_path() / ("sciq-ckpt-test-" + name))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    fs::path operator/(const std::string &leaf) const
    {
        return path_ / leaf;
    }

  private:
    fs::path path_;
};

SimConfig
testConfig(const std::string &workload, IqKind kind)
{
    SimConfig cfg = makeSegmentedConfig(128, 64, true, true, workload);
    cfg.core.iqKind = kind;
    cfg.wl.iterations = 300;
    cfg.fastForward = 1500;
    cfg.validate = true;
    return cfg;
}

std::string
statsDump(Simulator &sim)
{
    std::ostringstream os;
    sim.core().statGroup().dumpJson(os);
    return os.str();
}

/** Serialize `obj` through its save() into a fresh buffer. */
template <typename T>
std::string
blobOf(const T &obj)
{
    serial::Writer w;
    obj.save(w);
    return w.take();
}

/** Restore `obj` from `blob` and check the whole blob was consumed. */
template <typename T>
void
restoreFrom(T &obj, const std::string &blob)
{
    serial::Reader r(blob);
    obj.restore(r);
    ASSERT_EQ(r.remaining(), 0u);
}

} // namespace

// ---------------------------------------------------------------------
// Serialization primitives.

TEST(Serialize, ScalarsRoundTrip)
{
    serial::Writer w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.f64(-1.5e-300);
    w.str("hello");
    w.tag("TAG1");

    serial::Reader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.f64(), -1.5e-300);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_NO_THROW(r.expectTag("TAG1"));
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, TruncationThrows)
{
    serial::Writer w;
    w.u64(42);
    std::string cut = w.take().substr(0, 3);
    serial::Reader r(cut);
    EXPECT_THROW(r.u64(), serial::Error);
}

TEST(Serialize, WrongTagThrows)
{
    serial::Writer w;
    w.tag("AAAA");
    serial::Reader r(w.buffer());
    try {
        r.expectTag("BBBB");
        FAIL() << "expectTag should have thrown";
    } catch (const serial::Error &e) {
        EXPECT_NE(std::string(e.what()).find("BBBB"),
                  std::string::npos);
    }
}

TEST(Serialize, FnvMatchesKnownVector)
{
    // FNV-1a 64-bit test vector: empty input hashes to the offset
    // basis, and "a" to 0xaf63dc4c8601ec8c.
    serial::Fnv64 empty;
    EXPECT_EQ(empty.digest(), 0xcbf29ce484222325ULL);
    serial::Fnv64 a;
    a.update("a");
    EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cULL);
}

TEST(Serialize, Xxh64MatchesPublishedVectors)
{
    // XXH64 reference vectors (seed 0).
    EXPECT_EQ(serial::xxh64(nullptr, 0), 0xEF46DB3751D8E999ULL);
    EXPECT_EQ(serial::xxh64("a", 1), 0xD24EC4F1A98C6E5BULL);
}

TEST(Serialize, Xxh64DistinguishesEveryLength)
{
    // Lengths 0..64 cover the byte, 4-byte and 8-byte tails and one
    // and two 32-byte stripes.
    std::string buf(64, '\0');
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<char>(i * 37 + 11);
    std::set<std::uint64_t> seen;
    for (std::size_t len = 0; len <= buf.size(); ++len)
        EXPECT_TRUE(seen.insert(serial::xxh64(buf.data(), len)).second)
            << "length " << len << " collides";
}

TEST(Serialize, Xxh64SeesEverySingleBitFlip)
{
    std::string buf(100, '\0');
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<char>(i * 13 + 5);
    const std::uint64_t clean = serial::xxh64(buf.data(), buf.size());
    for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
        std::string flipped = buf;
        flipped[bit / 8] =
            static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        EXPECT_NE(serial::xxh64(flipped.data(), flipped.size()), clean)
            << "bit " << bit;
    }
}

TEST(ProgramChecksum, ChangesWithOneDataByte)
{
    auto build = [](std::uint8_t last) {
        Program p;
        p.addWords(0x10000, {1, 2, 3});
        std::vector<std::uint8_t> bytes(40, 0x5a);
        bytes.back() = last;
        p.addData(0x20000, std::move(bytes));
        return p;
    };
    EXPECT_EQ(build(0x5a).checksum(), build(0x5a).checksum());
    EXPECT_NE(build(0x5a).checksum(), build(0x5b).checksum());
}

// ---------------------------------------------------------------------
// Per-component round-trips: save -> restore -> save reproduces the
// blob bit for bit.

TEST(CheckpointComponents, SparseMemoryRoundTrip)
{
    SparseMemory mem;
    mem.write(0x1000, 8, 0x1122334455667788ULL);
    mem.write(0x20'0000, 8, 42);
    mem.write(0x3f'ffff, 1, 0x7f);

    const std::string blob = blobOf(mem);
    SparseMemory back;
    restoreFrom(back, blob);
    EXPECT_EQ(back.read(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(back.read(0x3f'ffff, 1), 0x7fu);
    EXPECT_EQ(blobOf(back), blob);
    EXPECT_TRUE(back.equalContents(mem));
}

TEST(CheckpointComponents, FunctionalCoreRoundTrip)
{
    Program prog = buildWorkload("twolf", {.iterations = 200});
    FunctionalCore core(prog);
    core.run(3000);

    const std::string blob = blobOf(core);
    FunctionalCore back(prog);
    restoreFrom(back, blob);
    EXPECT_EQ(back.pc(), core.pc());
    EXPECT_EQ(back.instCount(), core.instCount());
    for (RegIndex r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(back.reg(r), core.reg(r)) << "reg " << r;
    EXPECT_EQ(blobOf(back), blob);

    // The restored core must continue executing identically.
    core.run(500);
    back.run(500);
    EXPECT_EQ(back.pc(), core.pc());
    for (RegIndex r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(back.reg(r), core.reg(r)) << "reg " << r;
}

TEST(CheckpointComponents, BranchPredictorRoundTrip)
{
    HybridBranchPredictor bp;
    for (int i = 0; i < 500; ++i) {
        const Addr pc = 0x4000 + (i % 37) * 4;
        const auto snap = bp.snapshot();
        bp.predict(pc);
        bp.update(pc, i % 3 != 0, snap);
    }

    const std::string blob = blobOf(bp);
    HybridBranchPredictor back;
    restoreFrom(back, blob);
    EXPECT_EQ(blobOf(back), blob);
    // Stats counters are part of the warm state (predict() counts).
    EXPECT_EQ(back.lookups.value(), bp.lookups.value());
    EXPECT_EQ(back.condPredicts.value(), bp.condPredicts.value());
}

TEST(CheckpointComponents, BranchPredictorSizeMismatchThrows)
{
    HybridBranchPredictor bp;
    const std::string blob = blobOf(bp);
    BranchPredictorParams small;
    small.globalPhtEntries = 1024;
    HybridBranchPredictor other(small);
    serial::Reader r(blob);
    EXPECT_THROW(other.restore(r), serial::Error);
}

TEST(CheckpointComponents, BtbRasHmpLrpRoundTrip)
{
    Btb btb(256, 4);
    ReturnAddressStack ras(16);
    HitMissPredictor hmp(512);
    LeftRightPredictor lrp(512);
    for (int i = 0; i < 300; ++i) {
        const Addr pc = 0x8000 + i * 12;
        btb.update(pc, pc + 40);
        Addr tgt = 0;
        btb.lookup(pc - 12, tgt);
        ras.push(pc + 4);
        if (i % 5 == 0)
            ras.pop();
        hmp.predictHit(pc);
        hmp.update(pc, i % 2 == 0);
        hmp.recordOutcome(i % 2 == 0, i % 2 == 0);
        lrp.predictLeftCritical(pc);
        lrp.update(pc, i % 3 == 0);
    }

    {
        const std::string blob = blobOf(btb);
        Btb back(256, 4);
        restoreFrom(back, blob);
        EXPECT_EQ(blobOf(back), blob);
    }
    {
        const std::string blob = blobOf(ras);
        ReturnAddressStack back(16);
        serial::Reader r(blob);
        back.restore(r);
        EXPECT_EQ(r.remaining(), 0u);
        EXPECT_EQ(blobOf(back), blob);
    }
    {
        const std::string blob = blobOf(hmp);
        HitMissPredictor back(512);
        restoreFrom(back, blob);
        EXPECT_EQ(blobOf(back), blob);
    }
    {
        const std::string blob = blobOf(lrp);
        LeftRightPredictor back(512);
        restoreFrom(back, blob);
        EXPECT_EQ(blobOf(back), blob);
    }
}

TEST(CheckpointComponents, CacheRoundTripThroughWarmedCore)
{
    // Warm a timing core's hierarchy with a real fast-forward, then
    // round-trip each cache level into a cold core of the same shape.
    Program prog = buildWorkload("swim", {.iterations = 400});
    CoreParams params;
    params.iqKind = IqKind::Ideal;
    params.iq.numEntries = 64;

    FunctionalCore golden(prog);
    OooCore warm(prog, params);
    fastForward(golden, warm, 4000);

    OooCore cold(prog, params);
    const std::string l1i = blobOf(warm.memHierarchy().icache());
    const std::string l1d = blobOf(warm.memHierarchy().dcache());
    const std::string l2 = blobOf(warm.memHierarchy().l2cache());

    restoreFrom(cold.memHierarchy().icache(), l1i);
    restoreFrom(cold.memHierarchy().dcache(), l1d);
    restoreFrom(cold.memHierarchy().l2cache(), l2);
    EXPECT_EQ(blobOf(cold.memHierarchy().icache()), l1i);
    EXPECT_EQ(blobOf(cold.memHierarchy().dcache()), l1d);
    EXPECT_EQ(blobOf(cold.memHierarchy().l2cache()), l2);
}

TEST(CheckpointComponents, CacheGeometryMismatchThrows)
{
    Program prog = buildWorkload("swim", {.iterations = 200});
    CoreParams params;
    params.iqKind = IqKind::Ideal;
    params.iq.numEntries = 64;
    OooCore a(prog, params);

    CoreParams other = params;
    other.mem.l1d.sizeBytes = 32 * 1024;
    OooCore b(prog, other);

    const std::string blob = blobOf(a.memHierarchy().dcache());
    serial::Reader r(blob);
    EXPECT_THROW(b.memHierarchy().dcache().restore(r), serial::Error);
}

// ---------------------------------------------------------------------
// Whole-checkpoint blob: save -> restore -> save identity.

TEST(Checkpoint, BlobRoundTripIsBitIdentical)
{
    SimConfig cfg = testConfig("vortex", IqKind::Segmented);
    Program prog = buildWorkload(cfg.workload, cfg.wl);

    FunctionalCore golden(prog);
    OooCore core(prog, cfg.core);
    FastForwardStats ff = fastForward(golden, core, cfg.fastForward);
    const std::string blob = saveCheckpoint(cfg, golden, core, ff);

    OooCore core2(prog, cfg.core);
    FastForwardStats ff2 = restoreCheckpoint(blob, cfg, prog, core2);
    EXPECT_EQ(ff2.instsSkipped, ff.instsSkipped);
    EXPECT_EQ(ff2.hitHalt, ff.hitHalt);

    // Re-derive the warm functional state (deterministic replay) and
    // re-save from the restored core: every byte must match.
    FunctionalCore golden2(prog);
    golden2.run(ff.instsSkipped);
    EXPECT_EQ(saveCheckpoint(cfg, golden2, core2, ff2), blob);
}

// ---------------------------------------------------------------------
// The correctness contract: restored == cold, bit for bit, for every
// workload on both IQ designs.

class CheckpointIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, IqKind>>
{
};

TEST_P(CheckpointIdentity, RestoredMatchesColdBitForBit)
{
    const auto &[workload, kind] = GetParam();
    SimConfig cfg = testConfig(workload, kind);
    cfg.ckptCache = std::make_shared<CheckpointCache>();  // memory-only

    Simulator coldSim(cfg);
    RunResult cold = coldSim.run();
    EXPECT_FALSE(cold.ckptRestored);
    ASSERT_TRUE(cold.haltedCleanly);
    ASSERT_TRUE(cold.validated);

    Simulator warmSim(cfg);
    RunResult warm = warmSim.run();
    EXPECT_TRUE(warm.ckptRestored);
    ASSERT_TRUE(warm.haltedCleanly);
    ASSERT_TRUE(warm.validated);

    EXPECT_EQ(cold.cycles, warm.cycles);
    EXPECT_EQ(cold.insts, warm.insts);
    // The whole stats tree, byte for byte — caches, predictors, IQ,
    // LSQ, ROB: any drift in restored warm state shows up here.
    EXPECT_EQ(statsDump(coldSim), statsDump(warmSim));

    EXPECT_EQ(cfg.ckptCache->produced(), 1u);
    EXPECT_EQ(cfg.ckptCache->memoryHits(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CheckpointIdentity,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::Values(IqKind::Segmented,
                                         IqKind::Ideal)),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) == IqKind::Segmented
                    ? "_segmented"
                    : "_ideal");
    });

// ---------------------------------------------------------------------
// Interchange across IQ designs: a sweep's checkpoint cache shares one
// warm-up among every config of a workload, so warm state must carry
// no fingerprint of the IQ it was produced under.

TEST(CheckpointInterchange, WarmBlobsAreIqIndependent)
{
    for (const std::string &wl : {std::string("swim"), std::string("vortex")}) {
        SimConfig ideal = testConfig(wl, IqKind::Ideal);
        ideal.core.iq.numEntries = 64;
        SimConfig seg = testConfig(wl, IqKind::Segmented);
        seg.core.iq.numEntries = 256;
        Program prog = buildWorkload(wl, ideal.wl);

        FunctionalCore golden0(prog);
        OooCore core0(prog, ideal.core);
        FastForwardStats ff0 = fastForward(golden0, core0, ideal.fastForward);
        const std::string blob0 = saveCheckpoint(ideal, golden0, core0, ff0);

        FunctionalCore golden1(prog);
        OooCore core1(prog, seg.core);
        FastForwardStats ff1 = fastForward(golden1, core1, seg.fastForward);
        const std::string blob1 = saveCheckpoint(seg, golden1, core1, ff1);

        EXPECT_EQ(blob0, blob1) << wl;
    }
}

TEST(CheckpointInterchange, RestoreAcrossIqKindsMatchesColdBitForBit)
{
    // The ideal IQ produces the warm checkpoint; the segmented IQ
    // restores it.  The restored run must match a cold segmented run
    // byte for byte.
    SimConfig producer_cfg = testConfig("mgrid", IqKind::Ideal);
    SimConfig consumer_cfg = testConfig("mgrid", IqKind::Segmented);
    auto cache = std::make_shared<CheckpointCache>();  // memory-only
    producer_cfg.ckptCache = cache;
    consumer_cfg.ckptCache = cache;

    Simulator producer(producer_cfg);
    RunResult first = producer.run();
    ASSERT_TRUE(first.validated);
    EXPECT_FALSE(first.ckptRestored);

    Simulator restored(consumer_cfg);
    RunResult warm = restored.run();
    ASSERT_TRUE(warm.validated);
    EXPECT_TRUE(warm.ckptRestored);

    Simulator cold(testConfig("mgrid", IqKind::Segmented));
    RunResult coldR = cold.run();
    ASSERT_TRUE(coldR.validated);

    EXPECT_EQ(coldR.cycles, warm.cycles);
    EXPECT_EQ(coldR.insts, warm.insts);
    EXPECT_EQ(statsDump(cold), statsDump(restored));
}

// ---------------------------------------------------------------------
// Rejection paths.

class CheckpointReject : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg = testConfig("gcc", IqKind::Ideal);
        prog = std::make_unique<Program>(
            buildWorkload(cfg.workload, cfg.wl));
        FunctionalCore golden(*prog);
        OooCore core(*prog, cfg.core);
        ff = fastForward(golden, core, cfg.fastForward);
        blob = saveCheckpoint(cfg, golden, core, ff);
    }

    /** Expect restoreCheckpoint(mutated) to fail mentioning `what`. */
    void
    expectReject(const std::string &mutated, const std::string &what)
    {
        OooCore core(*prog, cfg.core);
        try {
            restoreCheckpoint(mutated, cfg, *prog, core);
            FAIL() << "expected CheckpointError containing '" << what
                   << "'";
        } catch (const CheckpointError &e) {
            EXPECT_NE(std::string(e.what()).find(what),
                      std::string::npos)
                << "actual message: " << e.what();
        }
    }

    SimConfig cfg;
    std::unique_ptr<Program> prog;
    FastForwardStats ff;
    std::string blob;
};

TEST_F(CheckpointReject, CorruptedByteFailsChecksum)
{
    std::string bad = blob;
    bad[bad.size() / 2] ^= 0x01;
    expectReject(bad, "checksum");
}

TEST_F(CheckpointReject, TruncationIsRejected)
{
    expectReject(blob.substr(0, blob.size() - 9), "checksum");
    expectReject(blob.substr(0, 4), "truncated");
    expectReject("", "truncated");
}

TEST_F(CheckpointReject, BadMagicIsRejected)
{
    std::string bad = blob;
    bad[0] = 'X';
    expectReject(bad, "magic");
}

TEST_F(CheckpointReject, FutureVersionIsRejected)
{
    std::string bad = blob;
    bad[8] = static_cast<char>(kCheckpointVersion + 1);
    expectReject(bad, "version");
}

TEST_F(CheckpointReject, PreviousVersionIsRejected)
{
    // Version 1 blobs carried an FNV-1a trailer; their cache keys
    // differ too, so a cache never finds them, but a blob handed in
    // directly must still be refused by its version.
    std::string bad = blob;
    bad[8] = static_cast<char>(kCheckpointVersion - 1);
    expectReject(bad, "version");
}

TEST_F(CheckpointReject, DifferentConfigurationIsRejected)
{
    SimConfig other = cfg;
    other.fastForward += 1;  // key hash input
    OooCore core(*prog, other.core);
    EXPECT_THROW(restoreCheckpoint(blob, other, *prog, core),
                 CheckpointError);

    other = cfg;
    other.wl.seed += 1;  // workload fingerprint input
    Program otherProg = buildWorkload(other.workload, other.wl);
    OooCore core2(otherProg, other.core);
    EXPECT_THROW(restoreCheckpoint(blob, other, otherProg, core2),
                 CheckpointError);
}

TEST_F(CheckpointReject, UnreadableFileThrows)
{
    EXPECT_THROW(readCheckpointFile("/nonexistent/dir/x.sciqckpt"),
                 CheckpointError);
}

// ---------------------------------------------------------------------
// CheckpointCache semantics.

TEST(CheckpointCacheTest, ProducerElectionAndMemoryHits)
{
    CheckpointCache cache;  // memory-only
    EXPECT_EQ(cache.pathFor(1), "");

    CheckpointCache::Blob b = cache.findOrBegin(7);
    EXPECT_EQ(b, nullptr);  // we are the producer
    cache.publish(7, "payload");

    CheckpointCache::Blob again = cache.findOrBegin(7);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(*again, "payload");
    EXPECT_EQ(cache.produced(), 1u);
    EXPECT_EQ(cache.memoryHits(), 1u);
    EXPECT_EQ(cache.diskHits(), 0u);
}

TEST(CheckpointCacheTest, CancelReleasesTheKey)
{
    CheckpointCache cache;
    EXPECT_EQ(cache.findOrBegin(3), nullptr);
    cache.cancel(3);
    // The key is claimable again after a cancel.
    EXPECT_EQ(cache.findOrBegin(3), nullptr);
    cache.publish(3, "second try");
    EXPECT_EQ(*cache.findOrBegin(3), "second try");
}

TEST(CheckpointCacheTest, DiskBackingPersistsAcrossInstances)
{
    ScratchDir dir("cache-disk");
    const std::uint64_t key = 0x123456789abcdef0ULL;
    {
        CheckpointCache cache(dir.str());
        EXPECT_EQ(cache.findOrBegin(key), nullptr);
        cache.publish(key, "persisted");
        EXPECT_TRUE(fs::exists(cache.pathFor(key)));
    }
    {
        CheckpointCache cache(dir.str());
        CheckpointCache::Blob b = cache.findOrBegin(key);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(*b, "persisted");
        EXPECT_EQ(cache.diskHits(), 1u);
        EXPECT_EQ(cache.produced(), 0u);
    }
}

// ---------------------------------------------------------------------
// End-to-end through SimConfig keys.

TEST(CheckpointEndToEnd, DirModeSharesAcrossRuns)
{
    ScratchDir dir("dir-mode");
    SimConfig cfg = testConfig("applu", IqKind::Segmented);
    cfg.ckptDir = dir.str();

    RunResult first = runSim(cfg);
    EXPECT_FALSE(first.ckptRestored);
    EXPECT_TRUE(first.validated);

    // The same configuration restores the warm-up it created.
    RunResult again = runSim(cfg);
    EXPECT_TRUE(again.ckptRestored);
    EXPECT_TRUE(again.validated);
    EXPECT_EQ(first.cycles, again.cycles);
    EXPECT_EQ(first.insts, again.insts);

    // A different IQ configuration restores the same warm-up: the key
    // deliberately excludes IQ parameters.
    SimConfig other = cfg;
    other.core.iq.numEntries = 256;
    other.core.iq.maxChains = 32;
    RunResult second = runSim(other);
    EXPECT_TRUE(second.ckptRestored);
    EXPECT_TRUE(second.validated);
}

TEST(CheckpointEndToEnd, DamagedCacheFileIsRepairedCold)
{
    ScratchDir dir("repair");
    SimConfig cfg = testConfig("equake", IqKind::Ideal);
    cfg.ckptDir = dir.str();

    RunResult first = runSim(cfg);
    EXPECT_FALSE(first.ckptRestored);

    // Corrupt the persisted blob in place.
    CheckpointCache probe(dir.str());
    const std::string path =
        probe.pathFor(checkpointKeyHash(cfg));
    ASSERT_TRUE(fs::exists(path));
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(200);
        f.put('\xff');
    }

    // The damaged file is detected, the run falls back to a cold
    // fast-forward (identical results) and republishes a good blob.
    RunResult second = runSim(cfg);
    EXPECT_FALSE(second.ckptRestored);
    EXPECT_TRUE(second.validated);
    EXPECT_EQ(first.cycles, second.cycles);

    RunResult third = runSim(cfg);
    EXPECT_TRUE(third.ckptRestored);
    EXPECT_EQ(first.cycles, third.cycles);
}

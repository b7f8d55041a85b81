/**
 * @file
 * Randomised differential testing: generate random (but guaranteed-
 * terminating) SRV programs full of data-dependent branches, loads,
 * stores and mixed-latency arithmetic, then require every IQ design's
 * committed state to match the functional model bit for bit.
 *
 * This is the heavy hammer for pipeline bookkeeping bugs - squash
 * recovery, LSQ ordering, rename undo, chain teardown - because random
 * programs explore corner interleavings no hand-written test does.
 * Beyond the fixed per-design configs, a config-space sweep draws
 * random segmented-IQ geometries and enhancement mixes.  Every core
 * runs under the cycle-level invariant auditor, which must report
 * zero violations.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "core/ooo_core.hh"
#include "isa/asm_builder.hh"
#include "isa/functional_core.hh"
#include "sim/audit.hh"

using namespace sciq;

namespace {

constexpr Addr kRegion = 0x200000;
constexpr std::uint64_t kRegionWords = 512;

/** Generate a random terminating program. */
Program
randomProgram(std::uint64_t seed)
{
    Random rng(seed);
    AsmBuilder b;

    std::vector<std::uint64_t> data(kRegionWords);
    for (auto &w : data)
        w = rng.next();
    b.words(kRegion, data);

    auto reg = [&](unsigned lo = 1, unsigned hi = 8) {
        return intReg(
            static_cast<unsigned>(rng.range(static_cast<int>(lo),
                                            static_cast<int>(hi))));
    };
    auto freg = [&] {
        return fpReg(static_cast<unsigned>(rng.range(1, 4)));
    };

    for (unsigned r = 1; r <= 8; ++r)
        b.li(intReg(r), static_cast<std::int64_t>(rng.next() >> 8));
    b.la(intReg(20), kRegion);

    int label_id = 0;

    // Random address within the data region from a data register.
    auto random_addr = [&](RegIndex into) {
        b.andi(intReg(15), reg(), static_cast<std::int64_t>(
                                      kRegionWords - 1));
        b.slli(intReg(15), intReg(15), 3);
        b.add(into, intReg(15), intReg(20));
    };

    auto emit_op = [&] {
        switch (rng.below(12)) {
          case 0:
            b.add(reg(), reg(), reg());
            break;
          case 1:
            b.sub(reg(), reg(), reg());
            break;
          case 2:
            b.xor_(reg(), reg(), reg());
            break;
          case 3:
            b.mul(reg(), reg(), reg());
            break;
          case 4:
            b.div(reg(), reg(), reg());  // division by zero is defined
            break;
          case 5:
            b.slli(reg(), reg(), rng.range(1, 12));
            break;
          case 6: {
            random_addr(intReg(16));
            b.ld(reg(), intReg(16), 0);
            break;
          }
          case 7: {
            random_addr(intReg(16));
            b.st(reg(), intReg(16), 0);
            break;
          }
          case 8:
            b.fcvtif(freg(), reg());
            break;
          case 9:
            b.fadd(freg(), freg(), freg());
            break;
          case 10:
            b.fmul(freg(), freg(), freg());
            break;
          case 11:
            b.fcvtfi(reg(), freg());
            break;
        }
    };

    const unsigned blocks = 16 + static_cast<unsigned>(rng.below(12));
    for (unsigned blk = 0; blk < blocks; ++blk) {
        // Occasionally a short counted loop around the block.
        const bool looped = rng.chance(0.4);
        const std::string loop_label = "loop" + std::to_string(label_id);
        if (looped) {
            b.li(intReg(25), rng.range(2, 7));
            b.label(loop_label);
        }

        const unsigned ops = 3 + static_cast<unsigned>(rng.below(6));
        for (unsigned k = 0; k < ops; ++k) {
            // Data-dependent forward skip over a couple of ops: the
            // bread and butter of squash testing.
            if (rng.chance(0.25)) {
                const std::string skip =
                    "skip" + std::to_string(label_id++);
                switch (rng.below(3)) {
                  case 0:
                    b.beq(reg(), reg(), skip);
                    break;
                  case 1:
                    b.blt(reg(), reg(), skip);
                    break;
                  case 2:
                    b.bgeu(reg(), reg(), skip);
                    break;
                }
                emit_op();
                if (rng.chance(0.5))
                    emit_op();
                b.label(skip);
            } else {
                emit_op();
            }
        }

        if (looped) {
            b.addi(intReg(25), intReg(25), -1);
            b.bne(intReg(25), intReg(0), loop_label);
            ++label_id;
        }
    }

    // Fold everything into the checksum register and stop.
    for (unsigned r = 1; r <= 8; ++r)
        b.xor_(intReg(10), intReg(10), intReg(r));
    b.fcvtfi(intReg(9), fpReg(1));
    b.xor_(intReg(10), intReg(10), intReg(9));
    b.halt();
    return b.build("fuzz" + std::to_string(seed));
}

constexpr int kFixedVariants = 6;

/**
 * A seeded random segmented IQ: segment size, segment count, chain
 * wires and every enhancement drawn independently.
 */
CoreParams
randomSegmentedConfig(std::uint64_t draw)
{
    Random rng(draw);
    auto pick = [&rng](std::initializer_list<int> options) {
        return options.begin()[rng.below(options.size())];
    };
    CoreParams p;
    p.iqKind = IqKind::Segmented;
    p.iq.segmentSize = static_cast<unsigned>(pick({2, 4, 8, 16, 32}));
    p.iq.numEntries =
        p.iq.segmentSize * static_cast<unsigned>(rng.range(1, 16));
    p.iq.maxChains = pick({-1, 4, 8, 32, 128});
    p.iq.useHmp = rng.chance(0.5);
    p.iq.useLrp = rng.chance(0.5);
    p.iq.enablePushdown = rng.chance(0.5);
    p.iq.enableBypass = rng.chance(0.5);
    p.iq.dynamicResize = rng.chance(0.5);
    p.iq.resizeInterval = static_cast<unsigned>(pick({16, 32, 1000}));
    return p;
}

/** Variants below kFixedVariants are fixed designs; above, draws. */
CoreParams
configFor(int variant)
{
    if (variant >= kFixedVariants)
        return randomSegmentedConfig(static_cast<std::uint64_t>(variant));
    CoreParams p;
    switch (variant) {
      case 0:
        p.iqKind = IqKind::Ideal;
        p.iq.numEntries = 64;
        break;
      case 1:
        p.iqKind = IqKind::Segmented;
        p.iq.numEntries = 128;
        p.iq.segmentSize = 16;
        p.iq.maxChains = 32;
        p.iq.useHmp = true;
        p.iq.useLrp = true;
        break;
      case 2:
        p.iqKind = IqKind::Segmented;
        p.iq.numEntries = 64;
        p.iq.segmentSize = 8;
        p.iq.maxChains = 8;  // chain starvation stress
        break;
      case 3:
        p.iqKind = IqKind::Prescheduled;
        p.iq.numEntries = 128;
        break;
      case 4:
        p.iqKind = IqKind::Fifo;
        p.iq.numFifos = 8;
        p.iq.fifoDepth = 8;
        p.iq.numEntries = 64;
        break;
      default:
        p.iqKind = IqKind::Segmented;
        p.iq.numEntries = 128;
        p.iq.segmentSize = 16;
        p.iq.maxChains = 64;
        p.iq.dynamicResize = true;
        p.iq.resizeInterval = 32;
        break;
    }
    return p;
}

const char *kVariantNames[kFixedVariants] = {
    "ideal",        "segmented_comb", "segmented_starved",
    "prescheduled", "fifo",           "segmented_resize"};

std::string
variantName(int variant)
{
    if (variant < kFixedVariants)
        return kVariantNames[variant];
    return "segmented_draw" + std::to_string(variant - kFixedVariants);
}

/** Config-space cases: (program seed, config draw) pairs, 40 in all. */
std::vector<std::tuple<int, int>>
configSpaceCases()
{
    std::vector<std::tuple<int, int>> cases;
    for (int i = 0; i < 40; ++i)
        cases.emplace_back(100 + i, kFixedVariants + i);
    return cases;
}

} // namespace

class FuzzValidation
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(FuzzValidation, RandomProgramMatchesGoldenModel)
{
    auto [seed, variant] = GetParam();
    Program prog = randomProgram(static_cast<std::uint64_t>(seed));

    FunctionalCore golden(prog);
    golden.run(5'000'000);
    ASSERT_TRUE(golden.halted()) << "generator produced a non-halting "
                                    "program (seed "
                                 << seed << ")";

    const std::string name = variantName(variant);
    OooCore core(prog, configFor(variant));
    Auditor auditor;
    auditor.attach(core);
    core.run(~0ULL, 5'000'000);
    ASSERT_TRUE(core.halted()) << name << " seed " << seed;
    EXPECT_GT(auditor.cyclesAudited.value(), 0.0);
    EXPECT_EQ(auditor.totalViolations(), 0u) << name << " seed " << seed;
    ASSERT_EQ(core.committedCount(), golden.instCount());
    for (RegIndex r = 1; r < kNumArchRegs; ++r) {
        ASSERT_EQ(core.commitRegs()[r], golden.reg(r))
            << name << " seed " << seed << " reg " << static_cast<int>(r);
    }
    ASSERT_TRUE(core.commitMemory().equalContents(golden.memory()))
        << name << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByDesign, FuzzValidation,
    ::testing::Combine(::testing::Range(1, 11),
                       ::testing::Range(0, kFixedVariants)),
    [](const auto &info) {
        return variantName(std::get<1>(info.param)) + "_seed" +
               std::to_string(std::get<0>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    ConfigSpace, FuzzValidation, ::testing::ValuesIn(configSpaceCases()),
    [](const auto &info) {
        return variantName(std::get<1>(info.param)) + "_seed" +
               std::to_string(std::get<0>(info.param));
    });

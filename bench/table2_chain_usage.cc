/**
 * @file
 * Reproduces **Table 2** of the paper: average and peak dependence-
 * chain usage for a 512-entry segmented IQ with unlimited chains,
 * under the four chain-creation policies (Baseline, HMP, LRP, both).
 *
 * Expected shape: HMP cuts chains by ~1/3 (except on high-miss-rate
 * codes like swim), LRP by ~58%, combined ~67%; peaks can exceed the
 * IQ size because chains are freed only at head writeback.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace sciq;
using namespace sciq::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, workloadNames(), {"iq_size"});

    const unsigned kIqSize = static_cast<unsigned>(
        args.raw.getInt("iq_size", 512));

    std::printf("Table 2: chain usage, %u-entry segmented IQ, unlimited "
                "chains\n\n",
                kIqSize);
    std::printf("%-9s | %9s %9s | %9s %9s | %9s %9s | %9s %9s\n", "bench",
                "base avg", "peak", "hmp avg", "peak", "lrp avg", "peak",
                "comb avg", "peak");
    hr('-', 100);

    SweepBatch batch(args);
    for (const auto &wl : args.workloads) {
        for (auto [use_hmp, use_lrp] :
             {std::pair{false, false}, std::pair{true, false},
              std::pair{false, true}, std::pair{true, true}}) {
            batch.add(
                makeSegmentedConfig(kIqSize, -1, use_hmp, use_lrp, wl));
        }
    }
    batch.run();

    double sums[8] = {};
    for (const auto &wl : args.workloads) {
        std::printf("%-9s |", wl.c_str());
        for (int col = 0; col < 4; ++col) {
            RunResult r = batch.next();
            std::printf(" %9.1f %9.0f %s", r.avgChains, r.peakChains,
                        col == 3 ? "" : "|");
            sums[col * 2] += r.avgChains;
            sums[col * 2 + 1] += r.peakChains;
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    hr('-', 100);
    std::printf("%-9s |", "average");
    const double n = static_cast<double>(args.workloads.size());
    for (int col = 0; col < 4; ++col) {
        std::printf(" %9.1f %9.0f %s", sums[col * 2] / n,
                    sums[col * 2 + 1] / n, col == 3 ? "" : "|");
    }
    std::printf("\n\nPaper reference (512 entries): base avg 352 / "
                "peak 516; HMP avg 235; LRP avg 147; comb avg 117.\n");
    return finishBench(args);
}

/**
 * @file
 * Reproduces **Figure 2** of the paper: performance of 512-entry
 * segmented-IQ configurations relative to an ideal single-cycle
 * 512-entry IQ.
 *
 * For each benchmark, four configurations (base, HMP, LRP, comb) are
 * evaluated at three chain budgets (unlimited, 128, 64), exactly the
 * twelve bars the paper plots per benchmark, plus the average row.
 *
 * Expected shape (paper section 6.1/6.2): base-unlimited within ~16%
 * of ideal on average; finite chain budgets hurt the base config badly
 * (-17% at 128 chains, -27% at 64) and HMP/LRP recover most of it.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace sciq;
using namespace sciq::bench;

int
main(int argc, char **argv)
{
    // gcc is omitted exactly as in the paper's Figure 2 ("whose
    // behavior in this portion of the study is uninteresting").
    BenchArgs args = parseArgs(argc, argv,
                               {"mgrid", "vortex", "twolf", "applu",
                                "ammp", "swim", "equake"},
                               {"iq_size"});

    const unsigned kIqSize = static_cast<unsigned>(
        args.raw.getInt("iq_size", 512));
    const std::vector<std::pair<const char *, std::pair<bool, bool>>>
        configs = {{"base", {false, false}},
                   {"hmp", {true, false}},
                   {"lrp", {false, true}},
                   {"comb", {true, true}}};
    const std::vector<int> chain_budgets = {-1, 128, 64};

    std::printf("Figure 2: %u-entry segmented IQ relative to ideal "
                "%u-entry IQ\n",
                kIqSize, kIqSize);
    std::printf("(percent of ideal-IQ performance; paper plots the "
                "same 12 bars per benchmark)\n\n");
    std::printf("%-9s %7s |", "bench", "ideal");
    for (int chains : chain_budgets) {
        for (const auto &[name, flags] : configs) {
            (void)flags;
            std::printf(" %5s%s", name,
                        chains < 0 ? "/inf" : chains == 128 ? "/128"
                                                            : "/064");
        }
        std::printf(" |");
    }
    std::printf("\n");
    hr('-', 128);

    SweepBatch batch(args);
    for (const auto &wl : args.workloads) {
        batch.add(makeIdealConfig(kIqSize, wl));
        for (int chains : chain_budgets) {
            for (const auto &[name, flags] : configs) {
                (void)name;
                batch.add(makeSegmentedConfig(
                    kIqSize, chains, flags.first, flags.second, wl));
            }
        }
    }
    batch.run();

    std::vector<double> sums;

    for (const auto &wl : args.workloads) {
        RunResult ideal = batch.next();
        std::printf("%-9s %7.3f |", wl.c_str(), ideal.ipc);

        std::vector<double> rels;
        for (int chains : chain_budgets) {
            (void)chains;
            for (std::size_t c = 0; c < configs.size(); ++c) {
                RunResult r = batch.next();
                double rel = ideal.ipc > 0 ? 100.0 * r.ipc / ideal.ipc
                                           : 0.0;
                rels.push_back(rel);
                std::printf(" %8.1f", rel);
            }
            std::printf(" |");
        }
        std::printf("\n");
        std::fflush(stdout);
        if (sums.empty())
            sums.assign(rels.size(), 0.0);
        for (std::size_t i = 0; i < rels.size(); ++i)
            sums[i] += rels[i];
    }

    hr('-', 128);
    std::printf("%-9s %7s |", "average", "");
    std::size_t idx = 0;
    for (std::size_t g = 0; g < chain_budgets.size(); ++g) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            std::printf(" %8.1f",
                        sums[idx++] /
                            static_cast<double>(args.workloads.size()));
        }
        std::printf(" |");
    }
    std::printf("\n\nPaper reference points: base/unlimited avg ~84%%; "
                "base/128 ~71%%; base/64 ~61%%;\n"
                "HMP and LRP recover most of the loss at finite chain "
                "counts (comb/128 ~80%%).\n");
    return finishBench(args);
}

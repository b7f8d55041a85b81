/**
 * @file
 * Ablation A1 (beyond the paper's tables, motivated by sections 4.1
 * and 4.2): contribution of the *pushdown* and *dispatch bypass*
 * enhancements to segmented-IQ performance.
 *
 * The paper motivates both qualitatively ("a large segmented IQ has a
 * severe negative impact on a number of integer benchmarks" without
 * bypass; pushdown fixes top-segment clogging) but publishes no
 * numbers; this bench quantifies each on our substrate.
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

    std::printf("Ablation: pushdown (4.1) and dispatch bypass (4.2), "
                "%u-entry segmented IQ, comb/128\n\n",
                kIqSize);
    std::printf("%-9s | %8s %8s %8s %8s | %10s %10s\n", "bench", "full",
                "no-push", "no-byp", "neither", "push gain%",
                "byp gain%");
    hr('-', 80);

    SweepBatch batch(args);
    for (const auto &wl : args.workloads) {
        for (auto [pushdown, bypass] :
             {std::pair{true, true}, std::pair{false, true},
              std::pair{true, false}, std::pair{false, false}}) {
            SimConfig cfg = makeSegmentedConfig(kIqSize, 128, true, true,
                                                wl);
            cfg.core.iq.enablePushdown = pushdown;
            cfg.core.iq.enableBypass = bypass;
            batch.add(std::move(cfg));
        }
    }
    batch.run();

    for (const auto &wl : args.workloads) {
        double ipc[4];
        for (double &v : ipc)
            v = batch.next().ipc;
        std::printf("%-9s | %8.3f %8.3f %8.3f %8.3f | %10.1f %10.1f\n",
                    wl.c_str(), ipc[0], ipc[1], ipc[2], ipc[3],
                    ipc[1] > 0 ? 100.0 * (ipc[0] / ipc[1] - 1.0) : 0.0,
                    ipc[2] > 0 ? 100.0 * (ipc[0] / ipc[2] - 1.0) : 0.0);
    }
    std::printf("\nExpected: bypass mainly helps low-occupancy integer "
                "codes (vortex, twolf, gcc) by skipping\nempty "
                "segments; pushdown helps codes with long dependence "
                "chains that clog the top segment.\n");
    return finishBench(args);
}

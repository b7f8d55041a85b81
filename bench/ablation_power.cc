/**
 * @file
 * Ablation A3: dynamic segment resizing (paper section 7).
 *
 * "The segmented structure lends itself naturally to dynamic resizing
 * by gating clocks and/or power on a segment granularity."  This bench
 * quantifies that claim on our substrate: segments are gated off when
 * queue occupancy is low and re-enabled under pressure.  We report IPC
 * plus a first-order energy proxy (powered segment-cycles, i.e. the
 * clock/leakage cost that gating saves).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace sciq;
using namespace sciq::bench;

namespace {

SimConfig
makeResizeConfig(const std::string &wl, bool resize)
{
    SimConfig cfg = makeSegmentedConfig(512, 128, true, true, wl);
    cfg.core.iq.dynamicResize = resize;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, workloadNames());

    std::printf("Ablation: dynamic segment resizing, 512-entry "
                "segmented IQ (16 segments of 32)\n\n");
    std::printf("%-9s | %8s %8s | %8s %10s | %10s %12s\n", "bench",
                "ipc off", "ipc on", "IPC cost%", "avg active",
                "energy sv%", "(of 16 segs)");
    hr('-', 86);

    SweepBatch batch(args);
    for (const auto &wl : args.workloads) {
        batch.add(makeResizeConfig(wl, false));
        batch.add(makeResizeConfig(wl, true));
    }
    batch.run();

    for (const auto &wl : args.workloads) {
        RunResult off = batch.next();
        RunResult on = batch.next();
        const double ipc_cost =
            off.ipc > 0 ? 100.0 * (1.0 - on.ipc / off.ipc) : 0.0;
        const double saved =
            off.segCyclesActive > 0
                ? 100.0 * (1.0 - on.segCyclesActive / off.segCyclesActive)
                : 0.0;
        std::printf("%-9s | %8.3f %8.3f | %8.1f %10.1f | %10.1f\n",
                    wl.c_str(), off.ipc, on.ipc, ipc_cost,
                    on.segActiveAvg, saved);
    }

    std::printf("\nExpected: codes that never fill the queue (gcc, "
                "twolf, vortex) keep most segments gated\nwith little "
                "IPC cost; window-hungry FP codes grow to full size "
                "and save little.\n");
    return finishBench(args);
}

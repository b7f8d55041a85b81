/**
 * @file
 * Reproduces the segment-0 occupancy observations of section 6.1:
 * on mgrid the 32-entry segment 0 holds ~16 ready instructions (>25%
 * of all ready instructions in the queue); vortex and twolf keep >33%
 * of their ready instructions in segment 0 and use only a fraction of
 * the 512-entry queue.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace sciq;
using namespace sciq::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv,
                               {"mgrid", "vortex", "twolf", "swim"},
                               {"iq_size"});
    const unsigned kIqSize = static_cast<unsigned>(
        args.raw.getInt("iq_size", 512));

    std::printf("Segment-0 occupancy, %u-entry segmented IQ "
                "(unlimited chains, base policy)\n\n",
                kIqSize);
    std::printf("%-9s | %10s %10s %12s %12s\n", "bench", "seg0 occ",
                "seg0 ready", "IQ occupancy", "IPC");
    hr('-', 62);

    SweepBatch batch(args);
    for (const auto &wl : args.workloads)
        batch.add(makeSegmentedConfig(kIqSize, -1, false, false, wl));
    batch.run();

    for (const auto &wl : args.workloads) {
        RunResult r = batch.next();
        std::printf("%-9s | %10.1f %10.1f %12.1f %12.3f\n", wl.c_str(),
                    r.seg0OccupancyAvg, r.seg0ReadyAvg, r.iqOccupancyAvg,
                    r.ipc);
    }

    std::printf("\nPaper reference: mgrid holds ~16 ready instructions "
                "in its 32-entry segment 0; vortex and\ntwolf use no "
                "more than ~136 of 512 queue entries and keep >33%% of "
                "ready instructions in segment 0.\n");
    return finishBench(args);
}

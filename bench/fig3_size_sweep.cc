/**
 * @file
 * Reproduces **Figure 3** of the paper: IPC across instruction-queue
 * sizes for every benchmark and four designs:
 *
 *   Ideal           - monolithic single-cycle IQ, 32..512 entries
 *   Comb-128chains  - segmented IQ (HMP+LRP), 128 chain wires
 *   Comb-64chains   - segmented IQ (HMP+LRP), 64 chain wires
 *   Prescheduled    - Michaud/Seznec array, 128/320/704/1472 slots
 *
 * Expected shape: FP codes climb steeply with size on the ideal and
 * segmented queues (the segmented ones tracking below the ideal and
 * saturating earlier with only 64 chains); gcc is flat; prescheduling
 * trails the segmented design at comparable capacities, with only
 * vortex improving as the prescheduling array grows.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace sciq;
using namespace sciq::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, workloadNames());

    const std::vector<unsigned> sizes = {32, 64, 128, 256, 512};
    // 32-entry issue buffer + {8,24,56,120} lines of 12 (paper 6.3).
    const std::vector<unsigned> presched_sizes = {128, 320, 704, 1472};

    std::printf("Figure 3: IPC vs IQ size\n\n");

    // Queue every point of the figure, run them all in parallel, then
    // print the tables in add order.
    SweepBatch batch(args);
    for (const auto &wl : args.workloads) {
        for (unsigned s : sizes)
            batch.add(makeIdealConfig(s, wl));
        for (int chains : {128, 64}) {
            for (unsigned s : sizes)
                batch.add(makeSegmentedConfig(s, chains, true, true, wl));
        }
        for (unsigned s : presched_sizes)
            batch.add(makePrescheduledConfig(s, wl));
    }
    batch.run();

    for (const auto &wl : args.workloads) {
        std::printf("%s\n", wl.c_str());
        std::printf("  %-16s", "size");
        for (unsigned s : sizes)
            std::printf(" %8u", s);
        std::printf("\n");
        hr('-', 60);

        std::printf("  %-16s", "ideal");
        for (unsigned s : sizes) {
            (void)s;
            std::printf(" %8.3f", batch.next().ipc);
        }
        std::printf("\n");

        for (int chains : {128, 64}) {
            std::printf("  comb-%-3dchains  ", chains);
            for (unsigned s : sizes) {
                (void)s;
                std::printf(" %8.3f", batch.next().ipc);
            }
            std::printf("\n");
        }

        std::printf("  %-16s", "prescheduled");
        for (unsigned s : presched_sizes) {
            (void)s;
            std::printf(" %8.3f", batch.next().ipc);
        }
        std::printf("  (sizes 128/320/704/1472)\n\n");
    }

    std::printf("Paper reference shapes: FP benchmarks gain up to "
                "~400%% from 32->512 on the ideal IQ;\n"
                "segmented tracks 55-98%% of ideal; gcc is flat; "
                "prescheduling only helps vortex as it grows.\n");
    return finishBench(args);
}

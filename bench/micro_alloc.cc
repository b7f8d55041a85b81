/**
 * @file
 * M2: micro-benchmark for this PR's two harness optimisations.
 *
 *  1. DynInst allocation: heap shared_ptr (the old fetch path) vs the
 *     per-core DynInstPool recycler, in a window-churn pattern that
 *     mimics fetch -> squash/commit.
 *  2. Sweep throughput: the same small fig3-style configuration set
 *     run serially (jobs=1) and through the parallel SweepRunner,
 *     reporting the wall-clock speedup.
 *
 * Arguments: quick=1 shrinks the sweep; jobs=N sets the parallel
 * worker count (default hardware concurrency).
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/dyn_inst_pool.hh"

using namespace sciq;
using namespace sciq::bench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Churn a ~window-sized set of in-flight instructions the way the
 * pipeline does: allocate a fetch group, retire the oldest group.
 */
template <typename MakeFn>
double
churn(std::uint64_t total, MakeFn make)
{
    constexpr std::size_t kWindow = 256;
    constexpr std::size_t kGroup = 8;
    using Ptr = decltype(make());
    std::vector<Ptr> window;
    window.reserve(kWindow);
    std::uint64_t made = 0;
    std::size_t retire = 0;
    const auto start = Clock::now();
    while (made < total) {
        for (std::size_t i = 0; i < kGroup && made < total; ++i, ++made) {
            Ptr inst = make();
            inst->seq = static_cast<SeqNum>(made);
            if (window.size() < kWindow) {
                window.push_back(std::move(inst));
            } else {
                window[retire] = std::move(inst);
                retire = (retire + 1) % kWindow;
            }
        }
    }
    window.clear();
    return secondsSince(start);
}

std::vector<SimConfig>
sweepConfigs(BenchArgs &args)
{
    std::vector<SimConfig> cfgs;
    for (const auto &wl : {"swim", "mgrid", "gcc", "twolf"}) {
        for (unsigned size : {32u, 64u, 128u, 256u}) {
            SimConfig cfg = makeSegmentedConfig(size, 128, true, true, wl);
            applyArgs(cfg, args);
            cfgs.push_back(std::move(cfg));
        }
    }
    return cfgs;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, {});

    // ---- Part 1: DynInst allocation/recycle ----------------------------
    const std::uint64_t n = args.quick ? 2'000'000 : 10'000'000;

    const double heap_s =
        churn(n, [] { return std::make_shared<DynInst>(); });

    DynInstPool pool;
    const double pool_s = churn(n, [&pool] { return pool.create(); });

    std::printf("DynInst allocation (%llu insts, 256-entry window "
                "churn)\n",
                static_cast<unsigned long long>(n));
    std::printf("  heap shared_ptr : %8.1f ns/inst\n",
                1e9 * heap_s / static_cast<double>(n));
    std::printf("  DynInstPool     : %8.1f ns/inst  (%.2fx faster, "
                "%llu slots for %llu insts)\n",
                1e9 * pool_s / static_cast<double>(n),
                pool_s > 0 ? heap_s / pool_s : 0.0,
                static_cast<unsigned long long>(pool.slotsAllocated()),
                static_cast<unsigned long long>(n));

    // ---- Part 2: serial vs parallel sweep ------------------------------
    if (args.iters == 0 && !args.quick) {
        // Keep the default run short enough to repeat serially.
        args.iters = 3000;
    }
    std::vector<SimConfig> cfgs = sweepConfigs(args);

    unsigned jobs = args.jobs ? args.jobs
                              : std::thread::hardware_concurrency();
    if (jobs == 0)
        jobs = 1;

    std::printf("\nSweep throughput (%zu configs, fig3-style "
                "segmented set)\n",
                cfgs.size());

    auto start = Clock::now();
    std::vector<RunResult> serial = SweepRunner(1).run(cfgs);
    const double serial_s = secondsSince(start);
    std::printf("  jobs=1          : %8.2f s\n", serial_s);

    start = Clock::now();
    std::vector<RunResult> parallel = SweepRunner(jobs).run(cfgs);
    const double parallel_s = secondsSince(start);
    std::printf("  jobs=%-2u         : %8.2f s  (%.2fx speedup, "
                "%u hw threads)\n",
                jobs, parallel_s,
                parallel_s > 0 ? serial_s / parallel_s : 0.0,
                std::thread::hardware_concurrency());

    // Determinism cross-check while we have both result sets.
    for (std::size_t i = 0; i < serial.size(); ++i) {
        if (serial[i].cycles != parallel[i].cycles ||
            serial[i].insts != parallel[i].insts) {
            std::printf("ERROR: serial/parallel results diverge at "
                        "config %zu\n",
                        i);
            return 1;
        }
    }
    std::printf("  serial and parallel results identical: yes\n");

    args.collected = std::move(parallel);
    return finishBench(args);
}

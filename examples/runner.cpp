/**
 * @file
 * General-purpose simulation driver: run any workload on any queue
 * configuration and dump the full hierarchical statistics tree -
 * the "sim-outorder" style front door to the library.
 *
 * Usage examples:
 *   runner workload=swim iq=segmented iq_size=512 chains=128 hmp=1 lrp=1
 *   runner workload=gcc iq=prescheduled iq_size=320 stats=1
 *   runner workload=equake ff=5000 iters=2000 resize=1
 *   runner help=1      lists every config key (config_fields.hh)
 *
 * After the result row, `warm-up: cold|restored|none` says whether the
 * ff= prefix was run here or restored from a ckpt_dir= checkpoint.
 *
 * A failed run prints `ERROR: [<code>] <message>` and exits 2 for a
 * config or workload error, 1 for any other.
 */

#include <exception>
#include <iostream>

#include "common/config.hh"
#include "sim/config_fields.hh"
#include "sim/job_exec.hh"
#include "sim/simulator.hh"

using namespace sciq;

namespace {

int
runOne(const ConfigMap &args)
{
    SimConfig cfg = makeSegmentedConfig(512, 128, true, true, "swim");
    if (args.has("help")) {
        // Every config key with its value here; integers accept k/m/g.
        std::cout << "identity keys: "
                  << configString(cfg, ConfigClass::Identity)
                  << "\n\njob keys: " << configString(cfg, ConfigClass::Job)
                  << "\n\nlocal keys: "
                  << configString(cfg, ConfigClass::Local)
                  << "\n\nrunner keys: stats=0/1 (dump all statistics)\n";
        return 0;
    }
    cfg.apply(args, {"stats", "help"});

    cfg.printParameters(std::cout);
    std::cout << '\n';

    Simulator sim(cfg);
    RunResult r = sim.run();
    printResultHeader(std::cout);
    printResultRow(std::cout, r);
    std::cout << "warm-up: "
              << (cfg.fastForward == 0 ? "none"
                  : r.ckptRestored     ? "restored"
                                       : "cold")
              << '\n';

    std::cout << "\nbranch mispredict/cond-branch: "
              << 100.0 * r.branchMispredictRate << "%"
              << "   L1D miss (incl. delayed): "
              << 100.0 * r.l1dMissRate << "%\n";

    if (args.getBool("stats", false)) {
        std::cout << "\n==== full statistics ====\n";
        sim.core().statGroup().dump(std::cout);
        sim.warmStatGroup().dump(std::cout);
    }
    return r.haltedCleanly && (!cfg.validate || r.validated) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runOne(ConfigMap::fromArgs(argc, argv));
    } catch (...) {
        return job_exec::reportFailure(std::current_exception());
    }
}

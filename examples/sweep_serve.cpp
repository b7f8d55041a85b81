/**
 * @file
 * Distributed-sweep coordinator (and single-process reference runner).
 *
 * Serves a configuration set to sweep_worker processes over an AF_UNIX
 * socket or a TCP listener (DESIGN.md §17/§18) and merges their
 * streamed results into the same final JSON a single-process sweep
 * writes — byte-identical up to the host wall-clock fields.
 *
 * SIGTERM/SIGINT trigger a graceful drain: leasing stops, in-flight
 * results are collected and journaled (fsync'd), and the process exits
 * with status 3.  Re-running with the same listen=/journal= resumes
 * the sweep; surviving workers reconnect by themselves.
 *
 * Usage examples:
 *   # coordinator, expecting ~3 workers, over a unix socket
 *   sweep_serve socket=/tmp/sweep.sock workers=3 out=dist.json \
 *               journal=dist.jsonl
 *   # same over TCP (workers connect=host:port from other machines)
 *   sweep_serve listen=0.0.0.0:7070 workers=3 journal=dist.jsonl
 *   # single-process reference over the same config set
 *   sweep_serve mode=local jobs=4 out=ref.json
 *   # explicit config list (one configSpec line per job)
 *   sweep_serve spec=jobs.txt socket=/tmp/sweep.sock out=dist.json
 */

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/config.hh"
#include "sim/checkpoint.hh"
#include "sim/fault_injector.hh"
#include "sim/shard.hh"
#include "sim/worker_proto.hh"

using namespace sciq;

namespace {

std::atomic<bool> g_stop{false};

void
onStopSignal(int)
{
    g_stop.store(true);
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/**
 * The built-in config sets.  `quick` is the CI differential set: three
 * IQ designs per workload, big enough to exercise sharding and work
 * stealing, small enough for a smoke gate.  `tiny` is for local
 * experiments.
 */
std::vector<SimConfig>
presetConfigs(const std::string &preset,
              std::vector<std::string> workloads)
{
    std::uint64_t iters = 0;
    if (preset == "quick") {
        if (workloads.empty())
            workloads = {"swim", "twolf"};
        iters = 1500;
    } else if (preset == "tiny") {
        if (workloads.empty())
            workloads = {"swim", "gcc"};
        iters = 200;
    } else {
        throw ConfigError("unknown preset '" + preset +
                          "' (quick|tiny)");
    }

    std::vector<SimConfig> configs;
    for (const std::string &wl : workloads) {
        configs.push_back(makeSegmentedConfig(64, 32, true, true, wl));
        configs.push_back(makeSegmentedConfig(256, 32, true, true, wl));
        configs.push_back(makeIdealConfig(256, wl));
    }
    for (SimConfig &cfg : configs) {
        cfg.wl.iterations = iters;
        cfg.validate = false;
    }
    return configs;
}

std::vector<SimConfig>
specFileConfigs(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot read spec file '" + path + "'");
    std::vector<SimConfig> configs;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        configs.push_back(configFromSpec(line));
    }
    return configs;
}

} // namespace

int
main(int argc, char **argv)
{
    ConfigMap args = ConfigMap::fromArgs(argc, argv);
    if (args.has("help")) {
        std::cout <<
            "keys: mode=serve|local     (default serve)\n"
            "      preset=quick|tiny    built-in config set\n"
            "      spec=FILE            configSpec lines instead of a "
            "preset\n"
            "      workloads=a,b iters=N ff=N   preset overrides\n"
            "      socket=PATH          AF_UNIX listen socket\n"
            "      listen=HOST:PORT     TCP listener instead of a "
            "socket\n"
            "      workers=N            expected worker count (= shard "
            "count)\n"
            "      lease_ms=N lease_drops=N dup_ms=N grace_ms=N\n"
            "      heartbeat_ms=N       ping cadence (0 disables)\n"
            "      drain_ms=N           SIGTERM/SIGINT drain window\n"
            "      journal=FILE out=FILE sync_journal=0|1\n"
            "      jobs=N ckpt_dir=DIR  (mode=local)\n"
            "      retries=N artifact_dir=DIR\n"
            "      fault_coord_abort=N fault_seed=N  (chaos testing:\n"
            "      _exit(137) after journaling the Nth result)\n";
        return 0;
    }
    const std::string complaint = args.unknownKeyMessage(
        {"mode", "preset", "spec", "workloads", "iters", "ff", "socket",
         "listen", "workers", "lease_ms", "lease_drops", "dup_ms",
         "grace_ms", "heartbeat_ms", "drain_ms", "journal", "out",
         "sync_journal", "jobs", "ckpt_dir", "retries",
         "artifact_dir", "fault_coord_abort", "fault_seed", "help"});
    if (!complaint.empty()) {
        std::cerr << complaint << "\n";
        return 2;
    }

    try {
        std::vector<SimConfig> configs;
        if (args.has("spec")) {
            configs = specFileConfigs(args.getString("spec"));
        } else {
            configs = presetConfigs(
                args.getString("preset", "quick"),
                splitList(args.getString("workloads")));
        }
        for (SimConfig &cfg : configs) {
            cfg.wl.iterations = static_cast<std::uint64_t>(args.getCount(
                "iters", static_cast<std::int64_t>(cfg.wl.iterations)));
            cfg.fastForward = static_cast<std::uint64_t>(args.getCount(
                "ff", static_cast<std::int64_t>(cfg.fastForward)));
        }
        if (configs.empty()) {
            std::cerr << "no configurations to run\n";
            return 2;
        }

        const std::string mode = args.getString("mode", "serve");
        std::vector<RunResult> results;
        bool interrupted = false;
        auto progress = [](std::size_t done, std::size_t total,
                           const RunResult &r) {
            std::cout << "[" << done << "/" << total << "] "
                      << r.workload << " " << r.iqKind << "/" << r.iqSize
                      << " -> " << jobStatusName(r.outcome.status)
                      << "\n";
        };

        if (mode == "local") {
            SweepRunner::Options options;
            options.journal = args.getString("journal");
            options.maxRetries =
                static_cast<unsigned>(args.getInt("retries", 2));
            options.artifactDir = args.getString("artifact_dir");
            options.progress = progress;

            // Mirror the distributed fleet's shared warm-state store:
            // one cache for the whole sweep (bench_util.hh idiom).
            std::shared_ptr<CheckpointCache> cache;
            const std::string ckptDir = args.getString("ckpt_dir");
            for (SimConfig &cfg : configs) {
                if (cfg.fastForward == 0)
                    continue;
                if (!cache)
                    cache = std::make_shared<CheckpointCache>(ckptDir);
                cfg.ckptCache = cache;
            }

            SweepRunner runner(
                static_cast<unsigned>(args.getInt("jobs", 0)));
            results = runner.run(configs, options);
        } else if (mode == "serve") {
            ServeOptions options;
            if (args.has("listen")) {
                // Validate up front so a typo fails with a what-to-write
                // message instead of a late bind error.
                options.endpoint =
                    tcpEndpoint(args.getString("listen")).str();
            } else {
                options.endpoint =
                    args.getString("socket", "/tmp/sciq-sweep.sock");
            }
            options.shards =
                static_cast<unsigned>(args.getInt("workers", 1));
            options.leaseMs =
                static_cast<unsigned>(args.getInt("lease_ms", 60'000));
            options.maxLeaseDrops =
                static_cast<unsigned>(args.getInt("lease_drops", 3));
            options.duplicateAfterMs =
                static_cast<unsigned>(args.getInt("dup_ms", 1'000));
            options.workerGraceMs =
                static_cast<unsigned>(args.getInt("grace_ms", 60'000));
            options.heartbeatMs = static_cast<unsigned>(
                args.getInt("heartbeat_ms", 1'000));
            options.drainGraceMs =
                static_cast<unsigned>(args.getInt("drain_ms", 2'000));
            options.journal = args.getString("journal");
            options.syncJournal = args.getInt("sync_journal", 1) != 0;
            options.progress = progress;
            options.abortExits = true;
            if (args.has("fault_coord_abort")) {
                options.faults = std::make_shared<FaultInjector>(
                    static_cast<std::uint64_t>(
                        args.getInt("fault_seed", 1)));
                options.faults->abortCoordinator =
                    args.getInt("fault_coord_abort", 0);
            }

            // Graceful drain on SIGTERM/SIGINT: stop leasing, journal
            // the in-flight results, exit 3 so supervisors restart us.
            std::signal(SIGINT, onStopSignal);
            std::signal(SIGTERM, onStopSignal);
            options.stop = &g_stop;

            ServeStats stats;
            results = serveSweep(configs, options, &stats);
            interrupted = stats.interrupted;
            std::cout << "served " << results.size() << " jobs to "
                      << stats.workersSeen << " workers: "
                      << stats.leases << " leases, " << stats.steals
                      << " steals, " << stats.duplicates
                      << " duplicate leases ("
                      << stats.duplicateResults << " losing results), "
                      << stats.requeues << " requeues, "
                      << stats.boardFailed << " drop-cap failures, "
                      << stats.rejectedWorkers << " rejected workers, "
                      << stats.heartbeatDrops << " heartbeat drops\n";
        } else {
            std::cerr << "unknown mode '" << mode << "' (serve|local)\n";
            return 2;
        }

        if (interrupted) {
            // The sweep is incomplete by request; the journal is valid
            // and fsync'd.  Do not write out= — a restart on the same
            // journal produces the byte-identical final file instead.
            std::cout << "interrupted: journal is resumable, rerun "
                         "with the same listen=/journal= to finish\n";
            return 3;
        }

        std::size_t ok = 0, restored = 0;
        for (const RunResult &r : results) {
            ok += r.outcome.ok();
            restored += r.ckptRestored;
        }
        std::cout << ok << "/" << results.size() << " jobs ok, "
                  << restored << " restored a warm-up checkpoint\n";

        const std::string out = args.getString("out");
        if (!out.empty()) {
            if (!writeResultsJson(out, results)) {
                std::cerr << "cannot write '" << out << "'\n";
                return 1;
            }
            std::cout << "wrote " << out << "\n";
        }
        return ok == results.size() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "sweep_serve: " << e.what() << "\n";
        return 1;
    }
}

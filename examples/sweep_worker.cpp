/**
 * @file
 * Distributed-sweep worker: connects to a sweep_serve coordinator over
 * an AF_UNIX socket or TCP, leases jobs one at a time and streams
 * results back (DESIGN.md §17/§18).
 *
 * Point every worker of a fleet at the same ckpt_dir= and the
 * cross-process producer election makes the whole fleet execute each
 * distinct warm-up exactly once.
 *
 * A worker survives coordinator restarts: on EOF or a missed heartbeat
 * deadline it keeps its unacked result, reconnects with capped
 * jittered backoff, and redelivers.
 *
 * Usage:
 *   sweep_worker socket=/tmp/sweep.sock name=w0 ckpt_dir=/tmp/ckpt
 *   sweep_worker connect=coordinator-host:7070 name=w1
 */

#include <iostream>

#include "common/config.hh"
#include "sim/shard.hh"
#include "sim/worker_proto.hh"

using namespace sciq;

int
main(int argc, char **argv)
{
    ConfigMap args = ConfigMap::fromArgs(argc, argv);
    if (args.has("help")) {
        std::cout <<
            "keys: socket=PATH          coordinator AF_UNIX socket\n"
            "      connect=HOST:PORT    coordinator TCP endpoint\n"
            "      name=ID              worker name for logs\n"
            "      ckpt_dir=DIR         shared warm-state store\n"
            "      retries=N backoff_ms=N artifact_dir=DIR\n"
            "      connect_timeout_ms=N\n"
            "      reconnects=N reconnect_ms=N   coordinator-loss "
            "retry policy\n";
        return 0;
    }
    const std::string complaint = args.unknownKeyMessage(
        {"socket", "connect", "name", "ckpt_dir", "retries",
         "backoff_ms", "artifact_dir", "connect_timeout_ms",
         "reconnects", "reconnect_ms", "help"});
    if (!complaint.empty()) {
        std::cerr << complaint << "\n";
        return 2;
    }

    WorkerOptions options;
    try {
        if (args.has("connect")) {
            // Validate up front so a typo fails with a what-to-write
            // message instead of a late connect error.
            options.endpoint =
                tcpEndpoint(args.getString("connect")).str();
        } else {
            options.endpoint = args.getString("socket");
        }
        // Range-checked, so a negative count cannot wrap.
        options.maxRetries = args.getUnsigned("retries", 2);
        options.backoffMs = args.getUnsigned("backoff_ms", 10);
        options.connectTimeoutMs =
            args.getUnsigned("connect_timeout_ms", 10'000);
        options.maxReconnects = args.getUnsigned("reconnects", 8);
        options.reconnectBackoffMs = args.getUnsigned("reconnect_ms", 100);
    } catch (const std::exception &e) {
        std::cerr << "sweep_worker: " << e.what() << "\n";
        return 2;
    }
    if (options.endpoint.empty()) {
        std::cerr << "sweep_worker: socket= or connect= is required\n";
        return 2;
    }
    options.name = args.getString("name", "worker");
    options.ckptDir = args.getString("ckpt_dir");
    options.artifactDir = args.getString("artifact_dir");

    const WorkerReport report = runWorker(options);
    std::cout << options.name << ": ran " << report.jobsRun << " jobs, "
              << report.restored << " restored a warm-up, "
              << report.reconnects << " reconnects, "
              << report.redelivered << " redelivered\n";
    if (!report.error.empty()) {
        std::cerr << options.name << ": " << report.error << "\n";
        return 1;
    }
    return report.drained ? 0 : 1;
}

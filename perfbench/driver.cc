/**
 * @file
 * Measurement driver of the repository benchmark (see README.md here).
 *
 * Runs one workload for a time budget and writes every raw measurement
 * to a JSON file: per-job host times and exact simulated counts, per-
 * pass wall-clock, the setup probes and, when traced, the span list.
 * All statistics (medians, percentiles, span self time, correctness
 * gate) are computed by run.py from that file.
 *
 * Every layer is measured from outside, by timing calls into its public
 * functions: buildWorkload, Simulator::Simulator, Simulator::prepare,
 * OooCore::run, Simulator::collect and SweepRunner::run.  Nothing in
 * src/ is instrumented; the segmented IQ's own tick profile is switched
 * on only in traced passes.
 *
 *   sciq_perfbench --workload W --seed N --seconds S --trace 0|1 --out F
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "core/ooo_core.hh"
#include "iq/segmented_iq.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workload/workloads.hh"

using namespace sciq;

namespace {

using Clock = std::chrono::steady_clock;

// Workload sizing.  Every job fast-forwards kFastForward instructions
// (functional warming of caches and predictors) and then simulates the
// rest of a kIterations-iteration kernel to HALT.
constexpr std::uint64_t kIterations = 3000;
constexpr std::uint64_t kFastForward = 20'000;

// job_s_p90 needs at least ten samples beyond it, so a run holds at
// least this many jobs even when the time budget is shorter.
constexpr std::size_t kMinJobs = 100;

// Cycles per OooCore::run call in traced passes; chunked runs are
// tick-for-tick identical to one call.
constexpr Cycle kRunChunk = 1u << 16;

// Setup probes in one fig3_sweep run (setup_s is their median).
constexpr int kFig3Probes = 3;

/** CPUs this process may run on, as nproc counts them. */
unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: sciq_perfbench --workload "
                 "seg256|ideal256|fig3_sweep --seed N --seconds S "
                 "--trace 0|1 --out FILE\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload") {
                a.workload = val;
            } else if (key == "--seed") {
                if (val.empty() || val[0] == '-')
                    usage("--seed must be a non-negative integer");
                std::size_t used = 0;
                a.seed = std::stoull(val, &used);
                if (used != val.size())
                    usage("--seed must be a non-negative integer");
                haveSeed = true;
            } else if (key == "--seconds") {
                a.seconds = std::stod(val);
            } else if (key == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace must be 0 or 1");
                a.trace = val == "1";
            } else if (key == "--out") {
                a.out = val;
            } else {
                usage(("unknown argument " + key).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (a.workload != "seg256" && a.workload != "ideal256" &&
        a.workload != "fig3_sweep")
        usage("unknown workload");
    if (!haveSeed || a.out.empty() || !(a.seconds > 0.0))
        usage("--seed, --seconds > 0 and --out are required");
    return a;
}

/** One recorded span; times are seconds since the driver started. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long job = -1;             ///< job id, -1 outside a job
};

/**
 * In-memory span recorder.  When off, begin() returns 0 and records
 * nothing, so untraced passes pay only the clock reads they need for
 * their own end-to-end numbers.
 */
class Trace
{
  public:
    explicit Trace(Clock::time_point t0) : t0_(t0) {}

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    std::uint64_t
    add(const std::string &name, std::uint64_t parent, long job,
        double start, double end)
    {
        if (!on)
            return 0;
        spans.push_back({spans.size() + 1, parent, name, start, end, job});
        return spans.size();
    }

    std::uint64_t
    begin(const std::string &name, std::uint64_t parent, long job)
    {
        return add(name, parent, job, now(), 0.0);
    }

    void
    end(std::uint64_t id)
    {
        if (id)
            spans[id - 1].end = now();
    }

    bool on = false;
    std::vector<Span> spans;

  private:
    Clock::time_point t0_;
};

/** Host times, exact counts and checks of one job. */
struct JobRecord
{
    long id = 0;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    double constructS = 0.0;
    double prepareS = 0.0;
    double runS = 0.0;
    bool ok = true;
    std::string error;
    RunResult r;

    // Exact model counts read from the core after the run (direct
    // jobs only; a sweep job exposes just its RunResult, so these and
    // the IQ tick profile stay 0 there).
    double fetched = 0.0;
    double l1dAccesses = 0.0;
    double l1dMisses = 0.0;
    double mshrFullStalls = 0.0;
    double condBranches = 0.0;
    double condMispredicts = 0.0;
    double promotions = 0.0;
    double chainStalls = 0.0;
    SegmentedIq::TickProfile profile;
};

/** "<kernel>/<iq>-<size>[-c<chains>]", from a result's identity. */
std::string
jobName(const RunResult &r)
{
    std::string n =
        r.workload + "/" + r.iqKind + "-" + std::to_string(r.iqSize);
    if (r.chains >= 0)
        n += "-c" + std::to_string(r.chains);
    return n;
}

std::string
jobName(const SimConfig &cfg)
{
    RunResult id;
    id.workload = cfg.workload;
    id.iqKind = iqKindName(cfg.core.iqKind);
    id.iqSize = cfg.core.iq.numEntries;
    id.chains = cfg.core.iqKind == IqKind::Segmented ? cfg.core.iq.maxChains
                                                     : -1;
    return jobName(id);
}

void
sizeJob(SimConfig &cfg, std::uint64_t seed)
{
    cfg.wl.iterations = kIterations;
    cfg.wl.seed = seed;
    cfg.fastForward = kFastForward;
    cfg.validate = true;
}

std::vector<SimConfig>
serialConfigs(const std::string &workload, std::uint64_t seed)
{
    std::vector<SimConfig> configs;
    for (const std::string &wl : workloadNames()) {
        SimConfig cfg = workload == "seg256"
                            ? makeSegmentedConfig(256, 128, true, true, wl)
                            : makeIdealConfig(256, wl);
        sizeJob(cfg, seed);
        configs.push_back(std::move(cfg));
    }
    return configs;
}

/** Figure 3's design points: 19 per kernel, 152 in all. */
std::vector<SimConfig>
fig3Configs(std::uint64_t seed,
            const std::shared_ptr<CheckpointCache> &cache)
{
    std::vector<SimConfig> configs;
    for (const std::string &wl : workloadNames()) {
        for (unsigned s : {32u, 64u, 128u, 256u, 512u})
            configs.push_back(makeIdealConfig(s, wl));
        for (int chains : {128, 64}) {
            for (unsigned s : {32u, 64u, 128u, 256u, 512u})
                configs.push_back(
                    makeSegmentedConfig(s, chains, true, true, wl));
        }
        for (unsigned s : {128u, 320u, 704u, 1472u})
            configs.push_back(makePrescheduledConfig(s, wl));
    }
    for (SimConfig &cfg : configs) {
        sizeJob(cfg, seed);
        cfg.ckptCache = cache;
    }
    return configs;
}

void
readCore(JobRecord &job, Simulator &sim)
{
    OooCore &core = sim.core();
    job.fetched = core.fetchedInsts.value();
    Cache &l1d = core.memHierarchy().dcache();
    job.l1dAccesses = l1d.accesses.value();
    job.l1dMisses = l1d.misses.value() + l1d.delayedHits.value();
    job.mshrFullStalls = l1d.mshrFullStalls.value();
    job.condBranches = core.committedCondBranches.value();
    job.condMispredicts = core.branchPredictor().condMispredicts.value();
    if (auto *seg = dynamic_cast<SegmentedIq *>(&core.iqUnit())) {
        job.promotions = seg->promotions.value();
        job.chainStalls = seg->chainStalls.value();
        job.profile = seg->profile();
    }
}

/**
 * Drive one job through the Simulator's public phases, as
 * Simulator::run() does: construct, prepare, OooCore::run, collect.
 * With `simulate` false only construct + prepare run (setup probe).
 */
JobRecord
runDirect(const SimConfig &cfg, long id, Trace &trace,
          std::uint64_t parent, bool simulate)
{
    JobRecord job;
    job.id = id;
    job.name = jobName(cfg);
    job.start = trace.now();
    const std::uint64_t jobSpan = trace.add("job", parent, id, job.start, 0);
    try {
        if (trace.on) {
            // The workload layer alone; Simulator::Simulator repeats
            // this build, so untraced passes skip it.
            const std::uint64_t s = trace.begin("workload.build", jobSpan, id);
            const Program program = buildWorkload(cfg.workload, cfg.wl);
            trace.end(s);
        }

        std::uint64_t s = trace.begin("sim.construct", jobSpan, id);
        double t = trace.now();
        Simulator sim(cfg);
        job.constructS = trace.now() - t;
        trace.end(s);

        s = trace.begin("sim.prepare", jobSpan, id);
        t = trace.now();
        bool restored = false;
        const std::uint64_t skipped = sim.prepare(restored);
        job.prepareS = trace.now() - t;
        trace.end(s);
        job.r.ckptRestored = restored;
        const stats::Group &warm = sim.warmStatGroup();
        job.r.warmSeconds = warm.lookup("seconds");
        job.r.warmInstsPerSec = warm.lookup("insts_per_sec");
        job.r.bbBlocks = static_cast<std::uint64_t>(
            warm.lookup("bbcache.blocks"));
        job.r.bbTraceHits = static_cast<std::uint64_t>(
            warm.lookup("bbcache.trace_hits"));
        job.r.bbSuccHits = static_cast<std::uint64_t>(
            warm.lookup("bbcache.succ_hits"));

        if (simulate) {
            OooCore &core = sim.core();
            auto *seg = dynamic_cast<SegmentedIq *>(&core.iqUnit());
            if (seg && trace.on)
                seg->setProfiling(true);
            t = trace.now();
            if (trace.on) {
                Cycle remaining = cfg.maxCycles;
                while (!core.halted() && remaining > 0) {
                    const Cycle step = std::min(kRunChunk, remaining);
                    s = trace.begin("core.run", jobSpan, id);
                    core.run(~0ULL, step);
                    trace.end(s);
                    remaining -= step;
                }
            } else {
                core.run(~0ULL, cfg.maxCycles);
            }
            job.runS = trace.now() - t;

            s = trace.begin("sim.collect", jobSpan, id);
            job.r = sim.collect(job.runS, skipped, restored);
            trace.end(s);
            readCore(job, sim);
        }
    } catch (const std::exception &e) {
        job.ok = false;
        job.error = e.what();
    }
    job.end = trace.now();
    if (jobSpan)
        trace.spans[jobSpan - 1].end = job.end;
    return job;
}

struct PassRecord
{
    int index = 0;
    bool traced = false;
    std::string kind;  ///< "serial", "sweep" or "setup_probe"
    unsigned threads = 1;
    double start = 0.0;
    double end = 0.0;
    std::vector<JobRecord> jobs;
};

/** seg256 / ideal256: the 8 kernels one after another on this thread. */
PassRecord
serialPass(const Args &args, int index, long &nextJob, Trace &trace)
{
    PassRecord pass;
    pass.index = index;
    pass.traced = trace.on;
    pass.kind = "serial";
    pass.start = trace.now();
    const std::uint64_t span = trace.add("pass", 0, -1, pass.start, 0);
    for (const SimConfig &cfg : serialConfigs(args.workload, args.seed))
        pass.jobs.push_back(
            runDirect(cfg, nextJob++, trace, span, true));
    pass.end = trace.now();
    if (span)
        trace.spans[span - 1].end = pass.end;
    return pass;
}

/**
 * fig3_sweep setup: construct + prepare every sweep job serially with a
 * fresh shared checkpoint cache, as the sweep itself shares warm-ups.
 * SweepRunner runs these phases inside its own workers, so setup_s is
 * measured here, from outside.
 */
PassRecord
setupProbe(const Args &args, int index, long &nextJob, Trace &trace)
{
    PassRecord pass;
    pass.index = index;
    pass.traced = trace.on;
    pass.kind = "setup_probe";
    auto cache = std::make_shared<CheckpointCache>();
    pass.start = trace.now();
    const std::uint64_t span = trace.add("setup", 0, -1, pass.start, 0);
    for (const SimConfig &cfg : fig3Configs(args.seed, cache))
        pass.jobs.push_back(
            runDirect(cfg, nextJob++, trace, span, false));
    pass.end = trace.now();
    if (span)
        trace.spans[span - 1].end = pass.end;
    return pass;
}

/**
 * fig3_sweep: one SweepRunner::run over all 152 design points.  A job's
 * end is stamped by the progress callback, which runs on the worker
 * that finished it; its start is that worker's previous end (or the
 * pass start), as workers take the next job at once.
 */
PassRecord
sweepPass(const Args &args, int index, long &nextJob, Trace &trace,
          unsigned threads)
{
    PassRecord pass;
    pass.index = index;
    pass.traced = trace.on;
    pass.kind = "sweep";
    pass.threads = threads;
    auto cache = std::make_shared<CheckpointCache>();
    const std::vector<SimConfig> configs = fig3Configs(args.seed, cache);

    std::map<std::string, std::size_t> indexOf;
    for (std::size_t i = 0; i < configs.size(); ++i)
        indexOf[jobName(configs[i])] = i;
    std::vector<double> start(configs.size(), 0.0);
    std::vector<double> end(configs.size(), 0.0);
    std::map<std::thread::id, double> lastEnd;

    pass.start = trace.now();
    SweepRunner::Options options;
    options.progress = [&](std::size_t, std::size_t, const RunResult &r) {
        const std::size_t i = indexOf.at(jobName(r));
        const double now = trace.now();
        auto it = lastEnd.find(std::this_thread::get_id());
        start[i] = it == lastEnd.end() ? pass.start : it->second;
        end[i] = now;
        lastEnd[std::this_thread::get_id()] = now;
    };
    const std::vector<RunResult> results =
        SweepRunner(threads).run(configs, options);
    pass.end = trace.now();

    const std::uint64_t span = trace.add("pass", 0, -1, pass.start, pass.end);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        JobRecord job;
        job.id = nextJob++;
        job.name = jobName(configs[i]);
        job.start = start[i];
        job.end = end[i];
        job.r = results[i];
        job.runS = results[i].hostSeconds;
        job.ok = results[i].outcome.ok();
        job.error = results[i].outcome.message;
        trace.add("job", span, job.id, job.start, job.end);
        pass.jobs.push_back(std::move(job));
    }
    return pass;
}

// ---- JSON output ---------------------------------------------------------

class Obj
{
  public:
    explicit Obj(std::ostream &os) : os_(os) { os_ << '{'; }
    ~Obj() { os_ << '}'; }
    Obj(const Obj &) = delete;
    Obj &operator=(const Obj &) = delete;

    std::ostream &
    key(const char *k)
    {
        if (!first_)
            os_ << ',';
        first_ = false;
        json::writeString(os_, k);
        return os_ << ':';
    }
    void num(const char *k, double v) { json::writeNumber(key(k), v); }
    void str(const char *k, const std::string &v)
    {
        json::writeString(key(k), v);
    }
    void b(const char *k, bool v) { key(k) << (v ? "true" : "false"); }

  private:
    std::ostream &os_;
    bool first_ = true;
};

void
writeJob(std::ostream &os, const JobRecord &j)
{
    Obj o(os);
    o.num("id", j.id);
    o.str("name", j.name);
    o.num("start", j.start);
    o.num("end", j.end);
    o.num("construct_s", j.constructS);
    o.num("prepare_s", j.prepareS);
    o.num("run_s", j.runS);
    o.b("ok", j.ok);
    o.str("error", j.error);
    o.b("halted", j.r.haltedCleanly);
    o.b("validated", j.r.validated);
    o.b("restored", j.r.ckptRestored);
    o.num("cycles", static_cast<double>(j.r.cycles));
    o.num("insts", static_cast<double>(j.r.insts));
    o.num("work_signal_deliveries",
          static_cast<double>(j.r.iqSignalDeliveries));
    o.num("work_plan_calls", static_cast<double>(j.r.iqPlanCalls));
    o.num("work_segments_scanned",
          static_cast<double>(j.r.iqSegmentsScanned));
    o.num("work_lane_words_touched",
          static_cast<double>(j.r.iqLaneWordsTouched));
    o.num("warm_s", j.r.warmSeconds);
    o.num("warm_ips", j.r.warmInstsPerSec);
    o.num("bb_blocks", static_cast<double>(j.r.bbBlocks));
    o.num("bb_trace_hits", static_cast<double>(j.r.bbTraceHits));
    o.num("bb_succ_hits", static_cast<double>(j.r.bbSuccHits));
    o.num("fetched", j.fetched);
    o.num("l1d_accesses", j.l1dAccesses);
    o.num("l1d_misses", j.l1dMisses);
    o.num("mshr_full_stalls", j.mshrFullStalls);
    o.num("cond_branches", j.condBranches);
    o.num("cond_mispredicts", j.condMispredicts);
    o.num("promotions", j.promotions);
    o.num("chain_stalls", j.chainStalls);
    o.num("iq_promote_s", j.profile.promoteSec);
    o.num("iq_deliver_s", j.profile.deliverSec);
    o.num("iq_countdown_s", j.profile.countdownSec);
    o.num("iq_issue_s", j.profile.issueSec);
    o.num("iq_dispatch_s", j.profile.dispatchSec);
}

void
writeOutput(std::ostream &os, const Args &args, unsigned threads,
            const std::vector<PassRecord> &passes, const Trace &trace)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    Obj o(os);
    o.str("workload", args.workload);
    o.num("seed", static_cast<double>(args.seed));
    o.num("seconds", args.seconds);
    o.b("trace", args.trace);
    o.num("threads", threads);
    o.num("max_rss_kb", static_cast<double>(usage.ru_maxrss));
    o.key("passes") << '[';
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const PassRecord &pass = passes[p];
        if (p)
            os << ',';
        Obj po(os);
        po.num("index", pass.index);
        po.b("traced", pass.traced);
        po.str("kind", pass.kind);
        po.num("threads", pass.threads);
        po.num("start", pass.start);
        po.num("end", pass.end);
        po.key("jobs") << '[';
        for (std::size_t j = 0; j < pass.jobs.size(); ++j) {
            if (j)
                os << ',';
            writeJob(os, pass.jobs[j]);
        }
        os << ']';
    }
    os << ']';
    o.key("spans") << '[';
    for (std::size_t i = 0; i < trace.spans.size(); ++i) {
        const Span &s = trace.spans[i];
        if (i)
            os << ',';
        Obj so(os);
        so.num("id", static_cast<double>(s.id));
        so.num("parent", static_cast<double>(s.parent));
        so.str("name", s.name);
        so.num("start", s.start);
        so.num("end", s.end);
        so.num("job", s.job);
    }
    os << ']';
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Trace trace(Clock::now());
    const bool sweep = args.workload == "fig3_sweep";
    const unsigned threads = sweep ? nproc() : 1;

    // Passes run until `until` and until the phase holds `minJobs` jobs;
    // fig3_sweep interleaves `probes` setup probes with its first passes.
    // A traced run spends the first half of its budget untraced (the
    // overhead reference) and the second half traced.
    std::vector<PassRecord> passes;
    long nextJob = 0;
    int index = 0;
    auto runPhase = [&](bool traced, double until, std::size_t minJobs,
                        int probes) {
        trace.on = traced;
        std::size_t jobs = 0;
        while (jobs == 0 || jobs < minJobs || probes > 0 ||
               trace.now() < until) {
            if (probes > 0) {
                passes.push_back(setupProbe(args, index++, nextJob, trace));
                --probes;
            }
            passes.push_back(
                sweep ? sweepPass(args, index++, nextJob, trace, threads)
                      : serialPass(args, index++, nextJob, trace));
            jobs += passes.back().jobs.size();
        }
    };
    const int probes = sweep ? kFig3Probes : 0;
    if (args.trace) {
        runPhase(false, args.seconds / 2, 0, std::min(probes, 1));
        runPhase(true, args.seconds, 0, std::min(probes, 1));
    } else {
        runPhase(false, args.seconds, kMinJobs, probes);
    }

    std::ofstream out(args.out);
    writeOutput(out, args, threads, passes, trace);
    out << '\n';
    out.close();
    if (!out) {
        std::fprintf(stderr, "error: could not write %s\n", args.out.c_str());
        return 1;
    }
    return 0;
}

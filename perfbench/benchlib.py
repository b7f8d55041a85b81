"""Statistics, span analysis, correctness gate and A/B verdicts of the
repository benchmark.  Pure functions over the driver's raw JSON, kept
apart from run.py so test_benchlib.py can check them without a build.
"""

import json
import math
import statistics

# Counts the simulator produces deterministically: compared exactly,
# never through medians and noise bounds.
EXACT_METRICS = {
    "core.cycles", "core.insts", "core.commit_fetch_ratio",
    "mem.l1d_accesses", "mem.l1d_miss_ratio", "mem.mshr_full_stalls",
    "branch.cond_mispredict_ratio", "iq.promotions", "iq.chain_stalls",
    "isa.bb_hit_ratio",
    "iq.work.signal_deliveries", "iq.work.plan_calls",
    "iq.work.segments_scanned", "iq.work.lane_words_touched",
}

# Per-job fields that must repeat exactly across passes of one run and
# between its traced and untraced passes.
IDENTITY_FIELDS = (
    "cycles", "insts", "work_signal_deliveries", "work_plan_calls",
    "work_segments_scanned", "work_lane_words_touched",
)

MIN_BEYOND = 10  # samples a reported percentile must have beyond it


# ---- percentiles --------------------------------------------------------

def nearest_rank(values, p):
    """Nearest-rank percentile p (0 < p <= 1) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank percentile p of n."""
    return n - max(1, math.ceil(p * n))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---- spans --------------------------------------------------------------

def check_spans(spans, tol=1e-6):
    """Problems with the span tree as a list of strings: ids must be
    unique, parents must exist, children must lie inside their parent,
    and a child inside a job must carry that job's id."""
    problems = []
    by_id = {}
    for s in spans:
        if s["id"] in by_id:
            problems.append("duplicate span id %d" % s["id"])
        by_id[s["id"]] = s
    for s in spans:
        if s["end"] < s["start"]:
            problems.append("span %d ends before it starts" % s["id"])
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append("span %d has unknown parent %d"
                            % (s["id"], s["parent"]))
            continue
        if (s["start"] < parent["start"] - tol
                or s["end"] > parent["end"] + tol):
            problems.append("span %d lies outside its parent %d"
                            % (s["id"], parent["id"]))
        if parent["job"] >= 0 and s["job"] != parent["job"]:
            problems.append("span %d has job %d, parent has job %d"
                            % (s["id"], s["job"], parent["job"]))
    return problems


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the part its children cover}.  Children
    are clipped to the parent; overlapping children (parallel sweep
    jobs) count once."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - covered(kids)
    return out


def self_time_by_root(spans):
    """{root span id: {span name: summed self time}} - one entry per
    pass or setup probe."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    roots = {}
    for s in spans:
        root = s
        while root["parent"] != 0:
            root = by_id[root["parent"]]
        names = roots.setdefault(root["id"], {})
        names[s["name"]] = names.get(s["name"], 0.0) + selfs[s["id"]]
    return roots


# ---- correctness gate ---------------------------------------------------

def job_failures(passes):
    """{job id: reason} for every failed job.  A job fails when it threw
    or its outcome is not ok, it did not halt, its commit state did not
    match the functional model, or its simulated counts differ from the
    same job in another pass (traced or untraced) of the run."""
    failures = {}
    reference = {}
    for p in passes:
        for j in p["jobs"]:
            if not j["ok"]:
                failures[j["id"]] = "outcome: " + j["error"]
                continue
            if p["kind"] == "setup_probe":
                continue
            if not j["halted"]:
                failures[j["id"]] = "did not halt"
            elif not j["validated"]:
                failures[j["id"]] = "commit state differs from the " \
                                    "functional model"
            ident = tuple(j[f] for f in IDENTITY_FIELDS)
            ref = reference.setdefault(j["name"], (j["id"], ident))
            if ident != ref[1]:
                failures[j["id"]] = "counts differ from job %d" % ref[0]
    return failures


# ---- metrics ------------------------------------------------------------

def _wall(p):
    return p["end"] - p["start"]


def _job_s(j):
    return j["end"] - j["start"]


def _sweep_tail(p):
    """Seconds from the moment fewer jobs than threads remain
    unfinished until the pass ends."""
    ends = sorted(j["end"] for j in p["jobs"])
    k = len(ends) - p["threads"]  # 0-based index of that completion
    if k < 0:
        return _wall(p)
    return p["end"] - ends[k]


def end_to_end(raw):
    """End-to-end metrics of an untraced run, plus their sample counts.
    Returns (metrics {name: (value, unit)}, notes {name: text})."""
    work = [p for p in raw["passes"]
            if not p["traced"] and p["kind"] != "setup_probe"]
    probes = [p for p in raw["passes"]
              if not p["traced"] and p["kind"] == "setup_probe"]
    if not work:
        raise ValueError("run holds no untraced pass")
    sweep = work[0]["kind"] == "sweep"

    kips = []
    for p in work:
        insts = sum(j["insts"] for j in p["jobs"])
        secs = _wall(p) if sweep else sum(j["run_s"] for j in p["jobs"])
        kips.append(insts / secs / 1e3)
    walls = [_wall(p) for p in work]
    jobs = [_job_s(j) for p in work for j in p["jobs"]]
    setup_src = probes if sweep else work
    setups = [sum(j["construct_s"] + j["prepare_s"] for j in p["jobs"])
              for p in setup_src]
    if not setups:
        raise ValueError("run holds no setup measurement")

    n = len(jobs)
    metrics = {
        "sim_kips": (statistics.median(kips), "kinst/s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_s_p50": (statistics.median(jobs), "s"),
        "job_s_p90": (nearest_rank(jobs, 0.9), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "max_rss_mb": (raw["max_rss_kb"] / 1024.0, "MB"),
    }
    notes = {
        "sim_kips": "median of %d passes" % len(kips),
        "wall_s": "median of %d passes" % len(walls),
        "job_s_p50": "n=%d jobs" % n,
        "job_s_p90": "n=%d jobs, %d beyond" % (n, samples_beyond(n, 0.9)),
        "setup_s": "median of %d %s" % (
            len(setups), "setup probes" if sweep else "passes"),
        "max_rss_mb": "peak of the measuring process",
    }
    return metrics, notes


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw):
    """Per-layer metrics {name: (value, unit)} of a traced run.  Host
    times are medians over traced passes (setup probes for the setup
    layers of fig3_sweep) of per-pass sums of span self time; exact
    counts are per-pass sums, identical in every pass."""
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"]
                if not p["traced"] and p["kind"] != "setup_probe"]
    work = [p for p in traced if p["kind"] != "setup_probe"]
    probes = [p for p in traced if p["kind"] == "setup_probe"]
    if not work or not untraced:
        raise ValueError("traced run needs traced and untraced passes")
    sweep = work[0]["kind"] == "sweep"
    setup_passes = probes if sweep else work

    by_root = self_time_by_root(raw["spans"])
    roots = {}  # pass index -> {name: self seconds}
    root_pass = {}
    for s in raw["spans"]:
        if s["parent"] == 0:
            root_pass[s["id"]] = s
    for root_id, names in by_root.items():
        roots[_pass_of(root_pass[root_id], raw["passes"])] = names

    def span_median(passes, name):
        return statistics.median(
            [roots.get(p["index"], {}).get(name, 0.0) for p in passes])

    def per_pass_median(fn):
        return statistics.median([fn(p["jobs"]) for p in work])

    def total(field):
        return lambda jobs: sum(j[field] for j in jobs)

    first = work[0]["jobs"]
    cycles = sum(j["cycles"] for j in first)
    run_s = (per_pass_median(total("run_s")) if sweep
             else span_median(work, "core.run"))
    iq_parts = ["iq_promote_s", "iq_deliver_s", "iq_countdown_s",
                "iq_issue_s", "iq_dispatch_s"]
    iq_self = per_pass_median(
        lambda jobs: sum(j[f] for j in jobs for f in iq_parts))

    warm_s = sum(j["warm_s"] for p in setup_passes for j in p["jobs"])
    warm_insts = sum(j["warm_s"] * j["warm_ips"]
                     for p in setup_passes for j in p["jobs"])
    bb_succ = sum(j["bb_succ_hits"] for p in setup_passes for j in p["jobs"])
    bb_all = bb_succ + sum(j["bb_trace_hits"] + j["bb_blocks"]
                           for p in setup_passes for j in p["jobs"])
    restored = sum(j["restored"] for p in setup_passes for j in p["jobs"])
    setup_jobs = sum(len(p["jobs"]) for p in setup_passes)

    def busy(p):
        return sum(_job_s(j) for j in p["jobs"]) / (p["threads"] * _wall(p))

    wall_traced = statistics.median([_wall(p) for p in work])
    wall_untraced = statistics.median([_wall(p) for p in untraced])
    count = lambda field: sum(j[field] for j in first)

    return {
        "workload.build_s": (span_median(setup_passes, "workload.build"), "s"),
        "sim.construct_s": (span_median(setup_passes, "sim.construct"), "s"),
        "sim.prepare_s": (span_median(setup_passes, "sim.prepare"), "s"),
        "sim.collect_s": (span_median(work, "sim.collect"), "s"),
        "isa.warm_minsts": (_ratio(warm_insts, warm_s) / 1e6, "Minst/s"),
        "isa.bb_hit_ratio": (_ratio(bb_succ, bb_all), "ratio"),
        "sim.ckpt_restore_ratio": (_ratio(restored, setup_jobs), "ratio"),
        "sim.sweep_busy_frac": (
            statistics.median([busy(p) for p in work]), "ratio"),
        "sim.sweep_tail_s": (
            statistics.median([_sweep_tail(p) for p in work]), "s"),
        "core.run_s": (run_s, "s"),
        "core.ns_per_cycle": (_ratio(run_s, cycles) * 1e9, "ns/cycle"),
        "core.non_iq_s": (run_s - iq_self, "s"),
        "iq.self_s": (iq_self, "s"),
        "iq.share": (_ratio(iq_self, run_s), "ratio"),
        "iq.promote_s": (per_pass_median(total("iq_promote_s")), "s"),
        "iq.deliver_s": (per_pass_median(total("iq_deliver_s")), "s"),
        "iq.countdown_s": (per_pass_median(total("iq_countdown_s")), "s"),
        "iq.issue_s": (per_pass_median(total("iq_issue_s")), "s"),
        "iq.dispatch_s": (per_pass_median(total("iq_dispatch_s")), "s"),
        "iq.work.signal_deliveries": (count("work_signal_deliveries"),
                                      "count"),
        "iq.work.plan_calls": (count("work_plan_calls"), "count"),
        "iq.work.segments_scanned": (count("work_segments_scanned"),
                                     "count"),
        "iq.work.lane_words_touched": (count("work_lane_words_touched"),
                                       "count"),
        "core.cycles": (cycles, "count"),
        "core.insts": (count("insts"), "count"),
        "core.commit_fetch_ratio": (_ratio(count("insts"), count("fetched")),
                                    "ratio"),
        "mem.l1d_accesses": (count("l1d_accesses"), "count"),
        "mem.l1d_miss_ratio": (_ratio(count("l1d_misses"),
                                      count("l1d_accesses")), "ratio"),
        "mem.mshr_full_stalls": (count("mshr_full_stalls"), "count"),
        "branch.cond_mispredict_ratio": (
            _ratio(count("cond_mispredicts"), count("cond_branches")),
            "ratio"),
        "iq.promotions": (count("promotions"), "count"),
        "iq.chain_stalls": (count("chain_stalls"), "count"),
        "trace.wall_ratio": (_ratio(wall_traced, wall_untraced), "ratio"),
    }


def _pass_of(root_span, passes):
    """Index of the pass whose interval holds a root span."""
    for p in passes:
        if (p["traced"] and p["start"] <= root_span["start"] + 1e-9
                and root_span["end"] <= p["end"] + 1e-9):
            return p["index"]
    raise ValueError("root span %d matches no traced pass" % root_span["id"])


# ---- output -------------------------------------------------------------

def result_line(correct, attempted, failed, metrics):
    """The benchmark's final stdout line: strict JSON (no NaN or
    infinity) with exactly the keys correct, attempted, failed and
    metrics."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False)


# ---- A/B comparison (choosing-metrics guide, section 8) -----------------

def _better(a, b, direction):
    """True when value b is better than value a."""
    return b > a if direction == "higher" else b < a


def verdict(base, change, direction, bound=None, exact=False):
    """Compare per-run values of one (workload, metric) pair.  `base` and
    `change` are equally long lists, paired by position.  Returns a dict
    with each side's quartiles, the share of pairs the change won and a
    verdict: improved, unchanged, worse or unresolved."""
    if not base or len(base) != len(change):
        raise ValueError("need equally many runs on both sides")
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if _better(a, b, direction))
    losses = sum(1 for a, b in pairs if _better(b, a, direction))
    bq = quartiles(base)
    cq = quartiles(change)
    out = {"base": bq, "change": cq, "won": wins / len(pairs)}

    if exact:
        if wins == 0 and losses == 0:
            out["verdict"] = "unchanged"
        elif wins == len(pairs):
            out["verdict"] = "improved"
        elif losses == len(pairs):
            out["verdict"] = "worse"
        else:
            out["verdict"] = "unresolved"
        return out

    spread = bq[2] - bq[0]
    diff = abs(cq[1] - bq[1])
    if (wins >= 0.9 * len(pairs) and diff > spread
            and _better(bq[1], cq[1], direction)):
        out["verdict"] = "improved"
        return out
    if bound is None:
        # Per-layer metrics carry no bound: the base's own spread is it.
        limit = spread
        rel_spread_wide = False
    else:
        limit = bound * abs(bq[1])
        rel_spread_wide = spread > limit
    all_better = all(_better(a, b, direction) for a in base for b in change)
    worse_by = (bq[1] - cq[1]) if direction == "higher" else (cq[1] - bq[1])
    if rel_spread_wide and not all_better:
        out["verdict"] = "unresolved"
    elif worse_by > limit:
        out["verdict"] = "worse"
    else:
        out["verdict"] = "unchanged"
    return out


def parse_records(text):
    """The bench-record objects found in captured benchmark output."""
    records = []
    for line in text.splitlines():
        if line.startswith("bench-record "):
            records.append(json.loads(line[len("bench-record "):]))
    return records


def compare(base_records, change_records, spec):
    """Rows (workload, metric, unit, verdict dict) for every pair found
    on both sides.  `spec` is the parsed BENCHMARK.json."""
    info = {}
    for m in spec["end_to_end"]:
        info[m["name"]] = (m["better"], m.get("bound"))
    for m in spec["per_layer"]:
        info[m["name"]] = (m["better"], None)

    def group(records):
        g = {}
        for r in records:
            for name, m in r["metrics"].items():
                key = (r["workload"], bool(r["trace"]), name)
                g.setdefault(key, []).append(m["value"])
        return g

    base = group(base_records)
    change = group(change_records)
    rows = []
    for key in sorted(base):
        if key not in change or key[2] not in info:
            continue
        n = min(len(base[key]), len(change[key]))
        direction, bound = info[key[2]]
        v = verdict(base[key][:n], change[key][:n], direction, bound,
                    exact=key[2] in EXACT_METRICS)
        rows.append((key[0], key[2], n, v))
    return rows

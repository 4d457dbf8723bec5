"""Metric derivation for the end-to-end benchmark.

Turns the raw record that ``actnet_e2e`` writes (iterations, job rows,
spans, registry counter deltas, profiler busy times) into the named
end-to-end and per-layer metrics of BENCHMARK.json. Pure functions only, so
perfbench/test_derive.py can check them without building anything.
"""

import math
import statistics

# Cache-key prefix -> measurement kind (see src/core/keys.h).
KEY_KINDS = (
    ("calibration", "calibration"),
    ("impact/", "impact"),
    ("base/", "baseline"),
    ("deg/", "degradation"),
    ("pair/", "pair"),
)
KINDS = tuple(kind for _, kind in KEY_KINDS)
APPS = ("AMG", "FFT", "Lulesh", "MCB", "MILC", "VPFFT")

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise it is missing.
MIN_BEYOND = 10

# Per-layer metric -> (registry counter, profiler subsystem) sources.
COUNTERS = {
    "sim.events": "sim.engine.events_executed",
    "sim.ladder_spills": "sim.engine.ladder.spills",
    "net.messages": "net.messages_sent",
    "net.packets": "net.packets_delivered",
    "net.drr_rounds": "net.link.drr_rounds",
    "mpi.sends_eager": "mpi.sends_eager",
    "mpi.sends_rendezvous": "mpi.sends_rendezvous",
}
PROFILED = {
    "sim.engine.self_s": "engine",
    "net.self_s": "net",
    "mpi.self_s": "mpi",
    "core.db.self_s": "cache_io",
}


class Missing:
    """A metric the program no longer exposes (or too few samples)."""

    def __init__(self, why):
        self.why = why

    def __repr__(self):
        return "Missing(%r)" % self.why


def key_kind(key):
    for prefix, kind in KEY_KINDS:
        if key.startswith(prefix):
            return kind
    return None


def key_apps(key):
    """Apps a job's cache key names (a pair names two)."""
    return [part for part in key.split("/")[1:] if part in APPS]


def group_by_kind(jobs):
    """{kind: [wall_ms, ...]} over executed (not cached) job rows."""
    groups = {kind: [] for kind in KINDS}
    for key, wall_ms, _events, cached in jobs:
        kind = key_kind(key)
        if kind is not None and not cached:
            groups[kind].append(wall_ms)
    return groups


def ratio(num, den):
    """num / den, with 0 for an empty base (nothing attempted, nothing
    wasted or shared)."""
    return num / den if den else 0.0


def nearest_rank(values, q):
    """Nearest-rank q-quantile and the number of samples beyond it."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1], len(xs) - rank


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values, q, min_beyond=MIN_BEYOND):
    """The q-quantile if at least `min_beyond` samples lie beyond it."""
    if not values:
        return Missing("no samples")
    value, beyond = nearest_rank(values, q)
    if beyond < min_beyond:
        return Missing("%d samples beyond p%g, need %d" % (beyond, q * 100, min_beyond))
    return value


def self_times(spans):
    """Self time per span name: each span's duration minus the part of it
    its child spans cover. `spans` rows are [name, start, end, parent, run]."""
    children = {}
    for i, (_name, _s, _e, parent, _run) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = {}
    for i, (name, start, end, _parent, _run) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, []), key=lambda j: spans[j][1]):
            cs, ce = max(spans[c][1], start), min(spans[c][2], end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[name] = out.get(name, 0.0) + max(0.0, (end - start) - covered)
    return out


def span_total(spans, name):
    return sum(e - s for n, s, e, _p, _r in spans if n == name)


def fastest_wall(iters):
    """The run's wall time: what an iteration takes when the host adds
    nothing to it.

    Every iteration of a run repeats the same simulated work (the run's
    digests agree), so their wall times differ only by what the host adds.
    Where the iterations record the steps they ran one after another
    (`stage_s`, the same steps in every iteration), each step's fastest
    time is taken on its own and the sum of these, plus the fastest
    remainder outside the steps, is the wall time: a short step finds a
    quiet moment of the host more often than a whole iteration does.
    Otherwise it is the fastest iteration."""
    stages = [it.get("stage_s") or [] for it in iters]
    n = len(stages[0])
    if n == 0 or any(len(s) != n for s in stages):
        return min(it["wall_s"] for it in iters)
    rest = min(it["wall_s"] - sum(s) for it, s in zip(iters, stages))
    return max(0.0, rest) + sum(min(s[k] for s in stages) for k in range(n))


def end_to_end(raw):
    """End-to-end metrics from the untraced iterations of a run."""
    iters = [it for it in raw["iterations"] if not it["traced"]]
    return {
        "wall_s": fastest_wall(iters),
        "setup_s": statistics.median(raw["setup_samples"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "queue_mae_pct": statistics.median(it["queue_mae_pct"] for it in iters),
    }


def per_layer(raw, baseline_walls=()):
    """Per-layer metrics from the traced iterations of a run; counts and
    times are per iteration. The tracing overhead compares the traced wall
    time (`fastest_wall`) with the median of `baseline_walls`, the wall times
    that untraced runs of the same sources recorded; without them it is
    missing."""
    traced = [it for it in raw["iterations"] if it["traced"]]
    n = len(traced)
    spans = raw["spans"]
    counters = raw["counters"]
    prof = raw["prof_ns"]
    jobs = [job for it in traced for job in it["jobs"]]
    wall = sum(it["wall_s"] for it in traced)
    m = {}

    m["core.parallel.cpu_per_wall"] = ratio(sum(it["cpu_s"] for it in traced), wall)
    utils = [u for it in traced for u in it["worker_utilization"]]
    job_wall_s = sum(j[1] for j in jobs) / 1e3
    m["core.parallel.worker_utilization"] = (
        statistics.mean(utils) if utils else ratio(job_wall_s, wall))

    # Prefetch vs lazy split. Where the benchmark calls ParallelRunner
    # itself, spans give it directly. Inside valid::run_conformance the main
    # thread only waits during prefetch and does all lazy work itself, so
    # its CPU time (less the separately timed M/G/1 check) is the lazy part.
    mg1 = raw.get("mg1_check_s", 0.0)
    if any(s[0] == "core.parallel.prefetch" for s in spans):
        prefetch = span_total(spans, "core.parallel.prefetch")
        lazy = span_total(spans, "core.models.predict")
    elif any(s[0] == "valid.run_conformance" for s in spans):
        main_cpu = sum(it["main_cpu_s"] for it in traced)
        lazy = max(0.0, main_cpu - mg1)
        prefetch = max(0.0, span_total(spans, "valid.run_conformance") - main_cpu)
    else:
        prefetch = lazy = 0.0
    m["core.parallel.prefetch_s"] = ratio(prefetch, n)
    m["core.campaign.lazy_s"] = ratio(lazy, n)

    groups = group_by_kind(jobs)
    for kind in KINDS:
        walls = groups[kind]
        m["core.measure.%s.count" % kind] = ratio(len(walls), n)
        m["core.measure.%s.wall_ms_p50" % kind] = median_or_zero(walls)
        m["core.measure.%s.wall_ms_p95" % kind] = tail_percentile(walls, 0.95)

    app_wall = {app: 0.0 for app in APPS}
    for key, wall_ms, _events, cached in jobs:
        if not cached:
            for app in key_apps(key):
                app_wall[app] += wall_ms / 1e3
    for app in APPS:
        m["apps.%s.job_wall_s" % app] = ratio(app_wall[app], n)

    def counter(name):
        if name not in counters:
            return Missing("registry has no counter %s" % name)
        return ratio(counters[name], n)

    for metric, source in COUNTERS.items():
        m[metric] = counter(source)
    for metric, subsystem in PROFILED.items():
        m[metric] = (ratio(prof[subsystem] / 1e9, n) if subsystem in prof
                     else Missing("profiler has no subsystem %s" % subsystem))
    m["sim.events_per_busy_s"] = ratio(sum(j[2] for j in jobs), job_wall_s)

    sent = counters.get("net.messages_sent")
    ffwd = counters.get("net.flowfwd.messages")
    demoted = counters.get("net.flowfwd.demotions")
    trains = counters.get("net.fastpath.trains")
    m["net.flowfwd.share"] = (ratio(ffwd, sent) if None not in (ffwd, sent)
                              else Missing("flow-forward counters"))
    m["net.flowfwd.demotion_ratio"] = (ratio(demoted, ffwd) if None not in (demoted, ffwd)
                                       else Missing("flow-forward counters"))
    m["net.fastpath.train_share"] = (ratio(trains, sent) if None not in (trains, sent)
                                     else Missing("fast-path counters"))

    m["queueing.mg1_check_s"] = ratio(mg1, n)
    m["core.db.load_s"] = ratio(span_total(spans, "core.db.load"), n)
    m["core.models.predict_s"] = ratio(span_total(spans, "core.models.predict"), n)

    def extra(name):
        return ratio(sum(it["extra"].get(name, 0.0) for it in traced), n)

    m["core.db.records"] = extra("db_records")
    m["core.db.bytes"] = extra("db_bytes")
    m["valid.gates_checked"] = extra("gates_checked")
    m["valid.gates_failed"] = extra("gates_failed")

    baseline = list(baseline_walls)
    if baseline:
        traced_wall = fastest_wall(traced)
        m["obs.traced_overhead_pct"] = (
            ratio(traced_wall, statistics.median(baseline)) - 1.0) * 100.0
    else:
        m["obs.traced_overhead_pct"] = Missing("no untraced run of these sources recorded")
    return m

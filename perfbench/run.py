#!/usr/bin/env python3
"""End-to-end benchmark of the actnet pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench/ (which compiles the
library sources under src/) into $CARGO_TARGET_DIR or .bench_build, runs one
workload through the actnet_e2e harness for S seconds, checks its results
and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Workloads, metrics and the reasons
behind them are described in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import derive  # noqa: E402

WORKLOADS = ("paper-campaign", "quick-conformance", "fat-tree-sparse")
MAX_WORKERS = 4
# A run must end within 180 s of its start, plus the time its build took
# (at most 900 s in all). The harness gets what is left of that, less a
# margin for deriving and printing the result.
RUN_BUDGET_S = 175
FIRST_RUN_BUDGET_S = 880
MARGIN_S = 3
# Set-up is timed in this many fresh processes; setup_s is their median.
SETUP_ROUNDS = 31
# Operations (simulated experiments) of one iteration, counted as failed
# when the harness dies or runs out of time before it reports any.
NOMINAL_OPS = {"paper-campaign": 315, "quick-conformance": 18, "fat-tree-sparse": 7}
# Inputs that decide simulated results; a digest is only compared against
# earlier runs of the same sources.
SOURCE_DIRS = ("src", "valid", "perfbench")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def failed_run(workload, why):
    """Prints the result of a run that produced no record and exits."""
    print("CHECK FAILED: " + why)
    n = NOMINAL_OPS[workload]
    print(json.dumps({"correct": False, "attempted": n, "failed": n, "metrics": {}}))
    sys.exit(0)


def build(root, build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    obj = os.path.join(build_dir, "perfbench")
    os.makedirs(obj, exist_ok=True)
    log_path = os.path.join(obj, "build.log")
    jobs = str(max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0)))))
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(obj, "CMakeCache.txt")):
            cmd = [cmake, "-S", os.path.join(root, "perfbench"), "-B", obj,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(obj, ignore_errors=True)
                fail("cmake configure failed")
        rc = subprocess.call([cmake, "--build", obj, "-j", jobs],
                             stdout=log, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("build failed")
    return os.path.join(obj, "actnet_e2e")


def source_hash(root):
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def load_state(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def save_state(path, state):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def verdict(raw, state, sources):
    """(correct, detail) for one run. A run's digest must match every
    iteration of the run and every earlier run of the same (sources,
    workload, seed) in this checkout."""
    iters = raw["iterations"]
    bad = [it for it in iters if not it["ok"]]
    if bad:
        return False, bad[0]["detail"]
    digests = sorted({it["digest"] for it in iters})
    if len(digests) != 1:
        return False, "iterations disagree on the result digest: %s" % digests
    key = "%s/%s/%d" % (sources, raw["workload"], raw["seed"])
    previous = state.setdefault("digests", {}).setdefault(key, digests[0])
    if previous != digests[0]:
        return False, "digest %s differs from an earlier run's %s" % (digests[0], previous)
    return True, ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t0 = time.monotonic()
    if args.seed < 1:
        fail("--seed must be >= 1", 2)

    root = os.getcwd()
    tolerances = os.path.join("valid", "tolerances.json")
    for needed in (os.path.join("src", "CMakeLists.txt"), tolerances, "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("%s not found; run from the repository root" % needed, 2)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    deadline = min(time.monotonic() + RUN_BUDGET_S, t0 + FIRST_RUN_BUDGET_S) - MARGIN_S

    sources = source_hash(root)
    state_path = os.path.join(build_dir, "perfbench-state.json")
    state = load_state(state_path)
    # Untraced wall times of earlier runs of the same sources: the baseline
    # of the tracing overhead.
    walls_key = "%s/%s" % (sources, args.workload)
    recorded_walls = state.get("walls", {}).get(walls_key, [])

    workers = max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0))))
    raw_path = os.path.join(build_dir, "raw-%s-%d.json" % (args.workload, os.getpid()))
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    # No ACTNET_* setting of the caller may steer the run: regime knobs,
    # telemetry and windows all stay at the program's defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ACTNET_")}
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workers", str(workers), "--work-dir", work_dir,
              "--tolerances", tolerances]

    def run(cmd):
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            shutil.rmtree(work_dir, ignore_errors=True)
            failed_run(args.workload, "%s did not finish in time" % args.workload)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-4000:])
            shutil.rmtree(work_dir, ignore_errors=True)
            failed_run(args.workload, "actnet_e2e exited with %d" % proc.returncode)
        return proc.stdout.decode()

    # Set-up: each round is a fresh process, timed from its spawn to the
    # moment its pipeline would start.
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_ROUNDS):
            out = run([binary, "--setup-only", "--spawn-ns", str(time.monotonic_ns())]
                      + common)
            setup_samples.append(float(out.split()[-1]))

    run([binary] + common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--out", raw_path])
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)
    raw["setup_samples"] = setup_samples

    correct, detail = verdict(raw, state, sources)
    attempted = sum(it["experiments"] or NOMINAL_OPS[args.workload]
                    for it in raw["iterations"])
    failed = 0 if correct else attempted

    if args.trace:
        derived, declared = derive.per_layer(raw, recorded_walls), spec["per_layer"]
    else:
        derived, declared = derive.end_to_end(raw), spec["end_to_end"]
        if correct:
            state.setdefault("walls", {}).setdefault(walls_key, []).append(derived["wall_s"])
    save_state(state_path, state)
    metrics = {}
    for m in declared:
        value = derived.get(m["name"], derive.Missing("not derived"))
        if isinstance(value, derive.Missing):
            # Reported, not failed: the result line carries 0 for it.
            print("missing %s: %s" % (m["name"], value.why))
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    iters = raw["iterations"]
    print("%s seed=%d workers=%d iterations=%d (traced %d) experiments=%d %s" % (
        args.workload, args.seed, workers, len(iters),
        sum(1 for it in iters if it["traced"]), attempted, iters[0]["extra"]))
    if args.trace:
        for name, self_s in sorted(derive.self_times(raw["spans"]).items()):
            print("span self time %-28s %.4f s" % (name, self_s))
    if not correct:
        print("CHECK FAILED: " + detail)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The awgsim simulator's benchmark: one command per workload run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload busywait --seed 1 --seconds 20 --trace 0

Builds the Go pass program in perfbench/ (all build state under
.bench_build/), then runs timed passes of one workload, each in a fresh
process, until --seconds have been measured (at least MIN_PASSES passes).
Every unit of every pass is checked; passes of one seed must agree on the
digest of every simulated result.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, plus the
tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BIN = os.path.join(BUILD, "perfbench")

WORKLOADS = ("busywait", "fault_sweep", "fleet_churn", "litmus_hunt")
MIN_PASSES = 3  # timed passes per run
TAIL_BEYOND = 10  # units that must lie beyond the tail percentile
RUN_LIMIT_S = 150  # after the build, a run starts no pass that could end past this
GOGC = "400"  # awgexp's batch setting
WARMUP_S = 2  # unmeasured passes before the first timed one


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    """Keep every file the Go toolchain writes inside the checkout."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOFLAGS"] = ""
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no simulator source next to perfbench/ (missing go.mod)")
    os.makedirs(BUILD, exist_ok=True)
    try:
        r = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout.decode(errors="replace"))


def run_pass(workload, seed, workers, trace_path, deadline, extra=()):
    env = dict(os.environ)
    env["GOMAXPROCS"] = str(workers)
    env["GOGC"] = GOGC
    cmd = [BIN, "-workload", workload, "-seed", str(seed), "-workers", str(workers), *extra]
    if trace_path:
        cmd += ["-trace", trace_path]
    t_exec = time.time_ns()
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s pass ran past the run's time limit" % workload)
    if r.returncode != 0:
        fail("%s pass exited %d:\n%s" % (workload, r.returncode, r.stderr.decode(errors="replace")))
    rec = json.loads(r.stdout.decode().strip().splitlines()[-1])
    # Set-up is measured from the exec of the pass, so process start counts.
    rec["setup_exec_s"] = (rec["units_start_ns"] - t_exec) / 1e9
    return rec


def percentile(xs, q):
    """Linear-interpolated q-th percentile of xs."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(units_per_pass):
    """Highest whole percentile with TAIL_BEYOND of a pass's units beyond it.
    A pass with fewer than 2 * TAIL_BEYOND units counts MIN_PASSES passes'
    units instead, so the percentile is fixed per workload."""
    n = units_per_pass if units_per_pass >= 2 * TAIL_BEYOND else units_per_pass * MIN_PASSES
    return math.floor(100 * (1 - TAIL_BEYOND / n)), n


def check(passes):
    """Correctness: equal digests across passes of one seed, and no failed
    unit other than the known-defect cell."""
    problems = []
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append("passes of one seed disagree on the result digest: %s" % sorted(digests))
    for i, p in enumerate(passes):
        for u in p["units"]:
            if u["failed"] and not u.get("known_defect"):
                problems.append("pass %d unit %s failed: %s" % (i, u["id"], u.get("detail", "")))
    return problems


def end_to_end(passes):
    """Every metric is a median over the run's passes, so one pass that a
    burst of host contention slowed does not set it."""
    units = [[u["ms"] for u in p["units"]] for p in passes]
    q, basis = tail_percentile(len(units[0]))
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "sim_mcycles_per_s": (statistics.median(p["sim_cycles"] / p["wall_s"] / 1e6 for p in passes), "Mcycles/s"),
        "unit_ms_p50": (statistics.median(statistics.median(u) for u in units), "ms"),
        "unit_ms_tail": (statistics.median(percentile(u, q) for u in units), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
        "setup_s": (statistics.median(p["setup_exec_s"] for p in passes), "s"),
    }
    print("units: %d per pass, %d passes; unit_ms_tail is p%d of each pass, the highest whole percentile "
          "with >= %d of %d units beyond it" % (len(units[0]), len(passes), q, TAIL_BEYOND, basis))
    return metrics


def per_layer(traced, untraced):
    names = sorted(traced[0]["layers"])
    metrics = {n: (statistics.median(p["layers"][n] for p in traced), "") for n in names}
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced), "s")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("seed must be non-negative")

    build()
    workers = len(os.sched_getaffinity(0))
    # The run's clock starts after the build and the warm-up: --seconds is
    # measuring time.
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    trace_dir = os.path.join(BUILD, "trace")

    # Unmeasured short passes first, so the first timed pass does not pay
    # for a cold binary or an idle host's wake-up: after an idle spell this
    # host leaves a CPU idle for up to a second of the next pass.
    while time.monotonic() - start < WARMUP_S:
        run_pass("busywait", args.seed, workers, None, deadline, ["-quick"])
    start = time.monotonic()
    passes, traced, untraced = [], [], []
    while True:
        # One step is one pass, or an untraced and a traced pass.
        step = (2 if args.trace else 1) * (statistics.median(p["wall_s"] for p in passes) if passes else 0)
        enough = len(traced) >= 1 if args.trace else len(passes) >= MIN_PASSES
        if enough and time.monotonic() - start + step > args.seconds:
            break
        if passes and time.monotonic() + step > deadline:
            break
        if args.trace:
            # Alternate which side of a pair runs first, so a drifting host
            # does not bias the tracing overhead.
            path = os.path.join(trace_dir, "%s-seed%d-pass%d.json" % (args.workload, args.seed, len(traced)))
            for traced_side in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                if traced_side:
                    traced.append(run_pass(args.workload, args.seed, workers, path, deadline))
                else:
                    untraced.append(run_pass(args.workload, args.seed, workers, None, deadline))
            passes = untraced + traced
        else:
            passes.append(run_pass(args.workload, args.seed, workers, None, deadline))

    # Keep every pass record of the run for later analysis.
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    with open(os.path.join(BUILD, "runs", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(passes, f)

    first = passes[0]
    print("host: cpu=%r gomaxprocs=%d workers=%d gogc=%s go=%s; workload=%s seed=%d; %s"
          % (first["cpu_model"], first["gomaxprocs"], first["workers"], first["gogc"],
             first["go_version"], args.workload, args.seed, first["cache_state"]))
    for i, p in enumerate(passes):
        kind = "traced " if p.get("layers") else ""
        print("%spass %d: wall %.3fs cpu %.3fs setup %.4fs rss %.1fMiB sim %.1fMcycles runs %d"
              " host idle %.2fs steal %.2fs digest %s"
              % (kind, i, p["wall_s"], p["cpu_s"], p["setup_exec_s"], p["peak_rss_mb"],
                 p["sim_cycles"] / 1e6, p["sim_runs"], p["host_idle_s"], p["host_steal_s"], p["digest"][:16]))
    print("result digest (every unit's simulated result): %s" % first["digest"])
    for u in first["units"]:
        if u["failed"]:
            tag = "known defect, counted as failed" if u.get("known_defect") else "FAILED"
            print("unit %s: %s: %s" % (u["id"], tag, u.get("detail", "")))
    problems = check(passes)
    for msg in problems:
        print("check: " + msg)

    if args.trace:
        metrics = per_layer(traced, untraced)
        print("spans: %s" % trace_dir)
    else:
        metrics = end_to_end(passes)
    attempted = sum(len(p["units"]) for p in passes)
    failed = sum(1 for p in passes for u in p["units"] if u["failed"])
    print("failed_frac: %.6f (%d of %d units)" % (failed / attempted, failed, attempted))
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u or unit_of(n)} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(out))


# Per-layer units that the name's suffix does not give.
LAYER_UNITS = {
    "event.ns_per_event": "ns",
    "event.mevents_per_s": "Mevents/s",
    "sim.prefix_mcycles_saved": "Mcycles",
    "runtime.allocs_k": "thousands",
    "trace.cpu_profile_samples_k": "thousands",
}


def unit_of(name):
    """Unit of a per-layer metric."""
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    for suffix, unit in (("_share", "ratio"), ("_ratio", "ratio"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_kb", "KiB"), ("_mb", "MiB"), ("_mcycles", "Mcycles"),
                         ("_mlines", "Mlines")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Writes perfbench/PREDICTIONS.json: for each per-layer metric, the
end-to-end metrics and workload it should move, the workload where it should
stay flat, and its seed-state value on every workload from a traced run.

Usage (from the root of a checkout): python3 perfbench/predictions.py [--seed 1] [--seconds 20]

Later performance changes cite these names; re-run the script after a
change that is accepted, so the seed-state values describe the new parent.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("busywait", "fault_sweep", "fleet_churn", "litmus_hunt")

# metric prefix or name -> (end-to-end metrics it should move, workload it
# should move them on, workload where it should stay flat). The longest
# matching key wins.
PREDICTIONS = {
    "event": (["wall_s", "cpu_s", "sim_mcycles_per_s"], "busywait", "litmus_hunt"),
    "gpu.atomics": (["wall_s", "sim_mcycles_per_s"], "busywait", "litmus_hunt"),
    "gpu.bank_wait_mcycles": (["wall_s", "sim_mcycles_per_s"], "busywait", "litmus_hunt"),
    "gpu.ops_interpreted": (["cpu_s", "sim_mcycles_per_s"], "busywait", "litmus_hunt"),
    "gpu.cpu_share": (["wall_s", "cpu_s"], "busywait", "litmus_hunt"),
    "gpu.switches": (["wall_s", "unit_ms_p50"], "fault_sweep", "busywait"),
    "gpu.context_mb": (["wall_s", "unit_ms_p50"], "fault_sweep", "busywait"),
    "gpu.restore_us": (["wall_s", "unit_ms_tail"], "fault_sweep", "busywait"),
    "gpu.snapshot_us": (["wall_s", "unit_ms_p50"], "fleet_churn", "busywait"),
    "gpu.snapshot_kb": (["peak_rss_mb", "wall_s"], "fleet_churn", "busywait"),
    "mem": (["wall_s", "sim_mcycles_per_s"], "busywait", "litmus_hunt"),
    "syncmon": (["wall_s", "unit_ms_tail"], "fault_sweep", "busywait"),
    "cp": (["wall_s", "unit_ms_tail"], "fault_sweep", "busywait"),
    "policy": (["wall_s", "unit_ms_p50"], "fault_sweep", "busywait"),
    "policy.cpu_share": (["wall_s", "cpu_s"], "busywait", "litmus_hunt"),
    "policy.timeouts": (["wall_s", "unit_ms_p50"], "fleet_churn", "litmus_hunt"),
    "core": (["wall_s", "cpu_s"], "litmus_hunt", "busywait"),
    "hashutil": (["wall_s", "cpu_s"], "litmus_hunt", "busywait"),
    "kernels": (["setup_s", "wall_s"], "litmus_hunt", "busywait"),
    "prog": (["setup_s", "wall_s"], "litmus_hunt", "busywait"),
    "sim": (["wall_s", "peak_rss_mb"], "litmus_hunt", "busywait"),
    "sim.forks": (["wall_s", "unit_ms_p50"], "fault_sweep", "busywait"),
    "sim.prefix_mcycles_saved": (["wall_s", "unit_ms_p50"], "fault_sweep", "busywait"),
    "fault": (["wall_s", "setup_s"], "fault_sweep", "busywait"),
    "fleet": (["wall_s", "unit_ms_p50"], "fleet_churn", "busywait"),
    "litmus": (["wall_s", "unit_ms_p50"], "litmus_hunt", "busywait"),
    "litmus.generate_ms": (["setup_s"], "litmus_hunt", "busywait"),
    "runtime": (["cpu_s", "peak_rss_mb"], "litmus_hunt", "busywait"),
    "runtime.map_cpu_share": (["cpu_s", "wall_s"], "fault_sweep", "busywait"),
    "selftime.bench": (["setup_s", "wall_s"], "fault_sweep", "busywait"),
    "selftime.sim": (["wall_s"], "litmus_hunt", "busywait"),
    "selftime.gpu": (["wall_s"], "fleet_churn", "busywait"),
    "selftime.kernels": (["setup_s"], "litmus_hunt", "busywait"),
    "selftime.fleet": (["wall_s"], "fleet_churn", "busywait"),
    "selftime.litmus": (["wall_s"], "litmus_hunt", "busywait"),
    # Simulated results: a simulator-only change must leave these identical.
    "model": ([], "none", "all"),
    # Properties of the measurement itself.
    "trace": ([], "none", "all"),
}


def prediction(name):
    keys = [k for k in PREDICTIONS if name == k or name.startswith(k + ".") or name.startswith(k + "_")]
    if not keys:
        sys.exit("predictions: no prediction for per-layer metric %s" % name)
    return PREDICTIONS[max(keys, key=len)]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    state = {}
    for wl in WORKLOADS:
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", "1"], stdout=subprocess.PIPE, check=True)
        out = json.loads(r.stdout.decode().strip().splitlines()[-1])
        if not out["correct"]:
            sys.exit("predictions: %s traced run not correct" % wl)
        state[wl] = out["metrics"]

    table = {}
    for name in sorted(state[WORKLOADS[0]]):
        moves, on, flat = prediction(name)
        table[name] = {
            "unit": state[WORKLOADS[0]][name]["unit"],
            "moves": moves,
            "on": on,
            "flat_on": flat,
            "seed_state": {wl: state[wl][name]["value"] for wl in WORKLOADS},
        }
    doc = {
        "about": "Per-layer predictions: which end-to-end metric each layer metric should move, on which "
                 "workload, and where it should stay flat; seed_state is the traced run's median at "
                 "--seed %d on the commit that wrote this file." % args.seed,
        "metrics": table,
    }
    with open(os.path.join(HERE, "PREDICTIONS.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()

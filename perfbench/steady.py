"""Steadiness check: run the benchmark repeatedly and compare spreads to bounds.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--sets 2]
                                [--seconds N] [--out runs.json]

Runs `run.py --trace 0` once per workload and seed, one run at a time,
seed-major so that slow phases of the machine fall on every workload.  For
each end-to-end metric and workload it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, and flags a
spread above the metric's bound in BENCHMARK.json.  With --sets 2 the seed
list is run twice and a second median worse than the first by more than the
bound is flagged too.  Exit code 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed, "error": "timed out"}
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "wall_s": wall,
                "error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "wall_s": wall, "env": env,
            "result": result}


def spread(values):
    """Median, quartiles and (Q3 - Q1) / median, as the driver computes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def report(runs, spec, sets):
    flagged = []
    bad = [r for r in runs if "error" in r or not r["result"]["correct"]]
    for r in bad:
        flagged.append(f"{r['workload']} seed {r['seed']}: "
                       f"{r.get('error') or 'incorrect result'}")
    workloads = sorted({r["workload"] for r in runs})
    print(f"{'workload':16s} {'metric':14s} {'median':>14s} {'q1':>14s}"
          f" {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for wl in workloads:
        for m in spec["end_to_end"]:
            per_set = []
            for k in range(sets):
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                        if r["workload"] == wl and r["set"] == k and r not in bad]
                if len(vals) < 2:
                    continue
                med, q1, q3, sp = spread(vals)
                per_set.append(med)
                mark = ""
                if sp > m["bound"]:
                    mark = "  SPREAD > BOUND"
                    flagged.append(f"{wl} {m['name']} set {k + 1}: spread"
                                   f" {sp:.3f} > bound {m['bound']}")
                print(f"{wl:16s} {m['name']:14s} {med:14.6g} {q1:14.6g}"
                      f" {q3:14.6g} {sp:8.3f} {m['bound']:6.2f}{mark}")
            if len(per_set) == 2:
                w = worse_by(per_set[0], per_set[1], m["better"])
                if w > m["bound"]:
                    flagged.append(f"{wl} {m['name']}: second median worse"
                                   f" by {w:.3f} > bound {m['bound']}")
                print(f"{'':16s} {'':14s} second median vs first: worse by {w:+.3f}")
    walls = [r["wall_s"] for r in runs if "wall_s" in r]
    if walls:
        print(f"run wall time: median {statistics.median(walls):.1f} s,"
              f" max {max(walls):.1f} s, total {sum(walls):.0f} s")
    for msg in flagged:
        print(f"FLAG {msg}")
    return flagged


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", help="write every run's output here as JSON")
    args = p.parse_args(argv)

    runs = []
    for k in range(args.sets):
        for seed in parse_seeds(args.seeds):
            for wl in args.workloads.split(","):
                r = run_once(wl, seed, args.seconds)
                r["set"] = k
                runs.append(r)
                status = r.get("error") or ("ok" if r["result"]["correct"] else "INCORRECT")
                print(f"# set {k + 1} seed {seed} {wl}: {status}"
                      f" ({r.get('wall_s', 0):.1f} s)", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)
    return 1 if report(runs, spec, args.sets) else 0


if __name__ == "__main__":
    sys.exit(main())

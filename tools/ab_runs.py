"""In-process A/B timing of engine.run under two source trees, interleaved.

Run from the root of a checkout:

    python3 tools/ab_runs.py --src ../parent/src --src src   # 10 rounds
    python3 tools/ab_runs.py --rounds 1 --src src --src src  # smoke run
    python3 tools/ab_runs.py --population custom --src ../parent/src --src src

The inputs are the stop-rule populations of the benchmark's workloads,
built from dyksplit.fixtures without the benchmark's rotations: classic,
fixtures.random_halfspaces(s, 50, 20) on the classic schedule at
check_level "sweep", s = 1..8; product, random_halfspaces(s, 20, 10,
m=19) on the product schedule at "off", s = 1..16; and custom, the
custom-cli workload's path through the library, random_mixed(s, 8, 6,
m=2) on its pattern repaired by rewrite_deferred (hash_runs.custom_plan)
at "full" with the per-sweep trace, s = 1..16; each solved to stop_gap
1e-8 within 50000 cycles.  The product population's runs are cold and
stopped by the gap rule on halfspaces, so engine.run solves them in rounds
on a working set (engine._working_set_run), each round on the classic
plan of its sets; against a tree from before that path, or one whose
rounds run another plan (such as the product form of their sets), their
x and cycle counts differ, and the bitwise gate below reports them.
--population, which can be repeated, times
only the named populations (default: all three).  After one untimed
warm-up round, every round
solves each instance under one tree and right after under the other, and
flips which tree goes first from round to round, so that a drift in
machine speed reaches both alike.  Both solves of an instance must give a
bitwise-equal x and the same cycle count; the run exits with status 1
when one does not.

Prints, per round and population, each tree's total solve time and the
ratio of the second tree's to the first's, then per population the median
ratio with its quartiles (statistics.quantiles), and how many rounds each
tree took less time.  The package is imported from each --src; BLAS and
OpenMP pools are pinned to one thread, as in tools/bench_grid.py.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import warnings
from time import perf_counter

from bench_grid import import_package   # next to this script; pins BLAS
from hash_runs import custom_plan

STOP_GAP = 1e-8
MAX_ITERATIONS = 50_000
POPULATIONS = ("classic", "product", "custom")


def population(dk, name):
    """The (spec, plan, params) of each instance of a population, in the
    package dk."""
    if name == "classic":
        params = dk.SolveParams(stop_gap=STOP_GAP,
                                max_iterations=MAX_ITERATIONS,
                                check_level="sweep")
        return [(dk.fixtures.random_halfspaces(s, 50, 20),
                 dk.classic_dykstra_schedule(50), params)
                for s in range(1, 9)]
    if name == "custom":
        params = dk.SolveParams(stop_gap=STOP_GAP,
                                max_iterations=MAX_ITERATIONS,
                                check_level="full", per_sweep_trace=True)
        plan = custom_plan(dk, nested=False)
        return [(dk.fixtures.random_mixed(s, 8, 6, m=2), plan, params)
                for s in range(1, 17)]
    params = dk.SolveParams(stop_gap=STOP_GAP, max_iterations=MAX_ITERATIONS,
                            check_level="off")
    return [(dk.fixtures.random_halfspaces(s, 20, 10, m=19),
             dk.product_space_schedule(20), params) for s in range(1, 17)]


def quartiles(values):
    """The first and third quartiles of values, both the one value when
    there is only one."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def time_round(packages, solves, first):
    """Each tree's total time over one solve of every instance, tree first
    solving each instance first, and the instances whose two results
    differ."""
    totals = [0.0, 0.0]
    differ = []
    for k in range(len(solves[0])):
        results = [None, None]
        for t in (first, 1 - first):
            spec, plan, params = solves[t][k]
            t0 = perf_counter()
            results[t] = packages[t].run(spec, plan, params)
            totals[t] += perf_counter() - t0
        a, b = results
        if (a.x.tobytes() != b.x.tobytes()
                or a.cycles_run != b.cycles_run):
            differ.append(k)
    return totals, differ


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", action="append", required=True,
                   help="directory holding the dyksplit package; give it"
                        " twice, once per tree")
    p.add_argument("--rounds", type=int, default=10,
                   help="timed rounds, after one warm-up round")
    p.add_argument("--population", action="append", choices=POPULATIONS,
                   help="time only this population; can be repeated"
                        " (default: all)")
    args = p.parse_args(argv)
    if len(args.src) != 2:
        p.error("give --src exactly twice")
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    names = [name for name in POPULATIONS
             if not args.population or name in args.population]
    packages = [import_package(src, f"dyksplit_{k}")
                for k, src in enumerate(args.src)]
    failed = False
    ratios = {name: [] for name in names}
    wins = {name: [0, 0] for name in names}
    print(f"{'round':>5s} {'population':10s} {'first':>5s}"
          f" {'tree 0 s':>10s} {'tree 1 s':>10s} {'ratio':>7s}")
    with warnings.catch_warnings():
        # the product schedule's growth monitor is advisory; expected here
        for dk in packages:
            warnings.simplefilter("ignore", dk.ScheduleGrowthWarning)
        solves = {name: [population(dk, name) for dk in packages]
                  for name in names}
        for rnd in range(args.rounds + 1):   # round 0 is the warm-up
            first = rnd % 2
            for name in names:
                totals, differ = time_round(packages, solves[name], first)
                for k in differ:
                    failed = True
                    print(f"differ: {name} instance {k + 1}: x or cycle"
                          f" count", file=sys.stderr)
                if not rnd:
                    continue
                ratio = totals[1] / totals[0]
                ratios[name].append(ratio)
                wins[name][totals[1] < totals[0]] += 1
                print(f"{rnd:5d} {name:10s} {first:5d} {totals[0]:10.4f}"
                      f" {totals[1]:10.4f} {ratio:7.3f}", flush=True)
    for name in names:
        q1, q3 = quartiles(ratios[name])
        print(f"{name}: median ratio {statistics.median(ratios[name]):.3f}"
              f" (quartiles {q1:.3f}..{q3:.3f}; tree 1 / tree 0); tree 0"
              f" won {wins[name][0]} and tree 1 won {wins[name][1]} of"
              f" {args.rounds} rounds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

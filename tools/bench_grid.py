"""Per-sweep cost of the engine over a grid of schedule, size and check level.

Run from the root of a checkout:

    python3 tools/bench_grid.py --out grid.json
    python3 tools/bench_grid.py --sizes 10x8 --runs 1 --cycles 2   # smoke run

Each grid point runs engine.run on fixtures.random_halfspaces(1, r, d) (the
product schedule with m = r - 1) for a fixed number of cycles, with no stop
rule, once as a warm-up and then --runs times.  It reports the best timed
run in microseconds per sweep.  The grid is {classic, product} x --sizes x
{off, sweep, full}.  The package is imported from --src, by default the src/
directory of this checkout, so one script can time two trees.  BLAS and
OpenMP pools are pinned to one thread, as in perfbench/run.py.

The last line of standard output is the JSON result; --out also writes it
to a file.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCHEDULES = ("classic", "product")
LEVELS = ("off", "sweep", "full")
SIZES = ((10, 8), (50, 20), (200, 50))


def parse_size(text):
    r, _, d = text.partition("x")
    try:
        return int(r), int(d)
    except ValueError:
        raise argparse.ArgumentTypeError(f"size {text!r} is not RxD") from None


def import_package(src):
    sys.path.insert(0, str(src))
    import dyksplit
    import dyksplit.fixtures  # noqa: F401  (dk.fixtures below)
    if Path(dyksplit.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"imported dyksplit from {dyksplit.__file__},"
                         f" not from {src}")
    return dyksplit


def time_point(dk, schedule, r, d, level, cycles, runs):
    """Best of runs timed solves, in microseconds per sweep."""
    if schedule == "classic":
        spec = dk.fixtures.random_halfspaces(1, r, d)
        plan = dk.classic_dykstra_schedule(r)
    else:
        spec = dk.fixtures.random_halfspaces(1, r, d, m=r - 1)
        plan = dk.product_space_schedule(r)
    params = dk.SolveParams(max_iterations=cycles, check_level=level)
    sweeps = cycles * len(plan.pattern)
    best = float("inf")
    with warnings.catch_warnings():
        # the product schedule's growth monitor is advisory; expected here
        warnings.simplefilter("ignore", dk.ScheduleGrowthWarning)
        for k in range(runs + 1):
            t0 = perf_counter()
            dk.run(spec, plan, params)
            elapsed = perf_counter() - t0
            if k:   # run 0 is the warm-up
                best = min(best, elapsed)
    return 1e6 * best / sweeps, sweeps


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="directory holding the dyksplit package")
    p.add_argument("--sizes", nargs="+", type=parse_size, default=SIZES,
                   metavar="RxD", help="grid sizes (default: 10x8 50x20 200x50)")
    p.add_argument("--cycles", type=int, default=20)
    p.add_argument("--runs", type=int, default=7,
                   help="timed runs per point, after one warm-up run")
    p.add_argument("--out", help="also write the JSON result here")
    args = p.parse_args(argv)
    if args.cycles < 1 or args.runs < 1:
        p.error("--cycles and --runs must be at least 1")
    dk = import_package(args.src)
    import numpy

    points = []
    print(f"{'schedule':8s} {'r':>4s} {'d':>4s} {'level':6s} {'us/sweep':>10s}")
    for schedule in SCHEDULES:
        for r, d in args.sizes:
            for level in LEVELS:
                us, sweeps = time_point(dk, schedule, r, d, level,
                                        args.cycles, args.runs)
                points.append({"schedule": schedule, "r": r, "d": d,
                               "check_level": level, "us_per_sweep": us,
                               "sweeps": sweeps})
                print(f"{schedule:8s} {r:4d} {d:4d} {level:6s} {us:10.1f}",
                      flush=True)
    result = {
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__, "src": str(Path(args.src).resolve()),
                "machine": platform.machine()},
        "cycles": args.cycles, "runs": args.runs, "points": points}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

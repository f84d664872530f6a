"""Per-sweep cost of the engine over a grid of schedule, size and check level.

Run from the root of a checkout:

    python3 tools/bench_grid.py --out grid.json
    python3 tools/bench_grid.py --src ../parent/src --src src   # two trees
    python3 tools/bench_grid.py --sizes 10x8 --runs 1 --cycles 2   # smoke run
    python3 tools/bench_grid.py --schedules classic --sizes 400x50   # one point

Each grid point runs engine.run on fixtures.random_halfspaces(1, r, d) (the
product schedule with m = r - 1, the mixed-block schedule
fixtures.mixed_block_schedule with m = 1; the pairs schedule, whose sweeps
are the outer sets {1, 2}, {3, 4}, ..., solves each pair of halfspaces in
closed form) for a fixed number of cycles, with
no stop rule, once as a warm-up and then --runs times.  It reports the best
timed run in microseconds per sweep, the share of sweeps that a tree's
screen of still sweeps skipped (RunResult.skipped_sweeps; null where the
tree does not count them), the most cycles that one check pass of the
warm-up run took (null at check level off), and the tracemalloc peak of
one more, untimed run in KiB.  Each peak is taken in a fresh child
process with hash seed 0, one at a time, after one untimed solve there,
so that it does not depend on the points run before it or on the hash
seed.  The grid is
--schedules (default classic, product, mixed and pairs) x --sizes x {off,
sweep, full}.  The package is imported from each --src, by default the src/
directory of this checkout.  Given two trees, each grid point times them
in turn, one run of each at a time, and flips which goes first from run to
run, so that a drift in machine speed reaches both alike.  Given one tree
several times (--src src --src src), the run exits with status 1 if its
peaks differ at any point.
BLAS and OpenMP pools are pinned to one thread, as in perfbench/run.py.

After the three levels of each schedule and size, a "full/sweep" line gives
each tree's us_per_sweep at full over that at sweep, the cost of the full
check against the sweep check; the full point's full_over_sweep holds the
same ratios.  The last line of standard output is the JSON result, with
one value per tree in each point's us_per_sweep, skipped, batch_cycles and
peak_kib; --out also writes it to a file.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCHEDULES = ("classic", "product", "mixed", "pairs")
LEVELS = ("off", "sweep", "full")
SIZES = ((10, 8), (50, 20), (200, 50))


def parse_size(text):
    r, _, d = text.partition("x")
    try:
        return int(r), int(d)
    except ValueError:
        raise argparse.ArgumentTypeError(f"size {text!r} is not RxD") from None


def import_package(src, name):
    """The dyksplit package in the directory src, as the module name."""
    init = Path(src).resolve() / "dyksplit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no dyksplit package in {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    dk = importlib.util.module_from_spec(spec)
    sys.modules[name] = dk
    spec.loader.exec_module(dk)
    importlib.import_module(f"{name}.fixtures")   # dk.fixtures below
    return dk


def peak_kib(fn, *args):
    """The tracemalloc peak of one call fn(*args), in KiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def make_solve(dk, schedule, r, d, level, cycles):
    """The spec, plan and params of a grid point's solve in package dk."""
    if schedule == "classic":
        spec = dk.fixtures.random_halfspaces(1, r, d)
        plan = dk.classic_dykstra_schedule(r)
    elif schedule == "product":
        spec = dk.fixtures.random_halfspaces(1, r, d, m=r - 1)
        plan = dk.product_space_schedule(r)
    elif schedule == "mixed":
        spec = dk.fixtures.random_halfspaces(1, r, d, m=1)
        plan = dk.fixtures.mixed_block_schedule(r)
    else:   # two consecutive rows per outer set, the last alone for odd r
        spec = dk.fixtures.random_halfspaces(1, r, d)
        plan = dk.CyclePlan(pattern=tuple(
            dk.SweepPlan(outer={i, i + 1} if i < r else {i})
            for i in range(1, r + 1, 2)))
    return (spec, plan,
            dk.SolveParams(max_iterations=cycles, check_level=level))


def child_peak(src, point):
    """peak_kib of a grid point's solve in the package in src after one
    untimed solve; run in a fresh process (fresh_peak).  Every tree is
    imported under one name, whose hash, like the hash seed, moves the
    peak."""
    dk = import_package(src, "dyksplit_peak")
    spec, plan, params = make_solve(dk, *point)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dk.ScheduleGrowthWarning)
        dk.run(spec, plan, params)
        return peak_kib(dk.run, spec, plan, params)


def fresh_peak(src, point):
    """child_peak in a new process of its own, with hash seed 0, which this
    one waits for."""
    os.environ["PYTHONHASHSEED"] = "0"   # the spawned process's
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(child_peak, (src, point))


@contextlib.contextmanager
def recording_batches(dk, batches, priced=False):
    """dk's check pass, _CCheck.check, wrapped for the duration to append
    the cycle numbers of each batch it checks to batches, as a list; with
    priced, also the pricing of checks-off cycle ends, _flush_cycle_ends."""
    engine = dk.engine
    check, flush = engine._CCheck.check, engine._flush_cycle_ends

    def recorded(self, *args):   # args[5] is the batch of _Pending cycles
        batches.append([cyc.n for cyc in args[5]])
        return check(self, *args)

    def recorded_flush(*args):   # args[4] is the batch of _Pending cycles
        batches.append([cyc.n for cyc in args[4]])
        return flush(*args)

    engine._CCheck.check = recorded
    if priced:
        engine._flush_cycle_ends = recorded_flush
    try:
        yield
    finally:
        engine._CCheck.check, engine._flush_cycle_ends = check, flush


def time_point(packages, srcs, schedule, r, d, level, cycles, runs):
    """Best of runs timed solves per package, in microseconds per sweep, the
    share of sweeps each package's last solve skipped (None where it does
    not count them), the most cycles of a checked batch in each package's
    warm-up solve (None at level off), the tracemalloc peak of one untimed
    solve per package (fresh_peak), and the sweeps."""
    point = (schedule, r, d, level, cycles)
    solves = [(dk,) + make_solve(dk, *point) for dk in packages]
    sweeps = cycles * len(solves[0][2].pattern)
    best = [float("inf")] * len(packages)
    skipped = [None] * len(packages)
    batches = [None] * len(packages)
    with warnings.catch_warnings():
        # the product schedule's growth monitor is advisory; expected here
        for dk in packages:
            warnings.simplefilter("ignore", dk.ScheduleGrowthWarning)
        for k in range(runs + 1):
            order = range(len(solves))
            for t in (order if k % 2 else reversed(order)):
                dk, spec, plan, params = solves[t]
                cycles = []   # run 0, the warm-up, records its batches
                t0 = perf_counter()
                with (contextlib.nullcontext() if k
                      else recording_batches(dk, cycles)):
                    result = dk.run(spec, plan, params)
                elapsed = perf_counter() - t0
                n_skipped = getattr(result, "skipped_sweeps", None)
                skipped[t] = None if n_skipped is None else n_skipped / sweeps
                if k:
                    best[t] = min(best[t], elapsed)
                else:
                    batches[t] = max(map(len, cycles), default=None)
    peaks = [fresh_peak(src, point) for src in srcs]
    return [1e6 * b / sweeps for b in best], skipped, batches, peaks, sweeps


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", action="append",
                   help="directory holding the dyksplit package, once per tree"
                        " to time (default: src/ here)")
    p.add_argument("--sizes", nargs="+", type=parse_size, default=SIZES,
                   metavar="RxD", help="grid sizes (default: 10x8 50x20 200x50)")
    p.add_argument("--schedules", nargs="+", choices=SCHEDULES,
                   default=SCHEDULES, help="grid schedules (default: all)")
    p.add_argument("--cycles", type=int, default=20)
    p.add_argument("--runs", type=int, default=7,
                   help="timed runs per point, after one warm-up run")
    p.add_argument("--out", help="also write the JSON result here")
    args = p.parse_args(argv)
    if args.cycles < 1 or args.runs < 1:
        p.error("--cycles and --runs must be at least 1")
    srcs = args.src or [str(ROOT / "src")]
    packages = [import_package(src, f"dyksplit_{k}")
                for k, src in enumerate(srcs)]
    import numpy

    points = []
    print(f"{'schedule':8s} {'r':>4s} {'d':>4s} {'level':6s} "
          + " ".join(f"{'us/sweep':>10s}" for _ in srcs) + " "
          + " ".join(f"{'skipped':>8s}" for _ in srcs) + " "
          + " ".join(f"{'batch':>5s}" for _ in srcs) + " "
          + " ".join(f"{'peak KiB':>10s}" for _ in srcs))
    for schedule in args.schedules:
        for r, d in args.sizes:
            for level in LEVELS:
                us, skipped, batches, peaks, sweeps = time_point(
                    packages, srcs, schedule, r, d, level, args.cycles,
                    args.runs)
                points.append({"schedule": schedule, "r": r, "d": d,
                               "check_level": level, "us_per_sweep": us,
                               "skipped": skipped, "batch_cycles": batches,
                               "peak_kib": peaks, "sweeps": sweeps})
                print(f"{schedule:8s} {r:4d} {d:4d} {level:6s} "
                      + " ".join(f"{u:10.1f}" for u in us) + " "
                      + " ".join("       -" if f is None else f"{f:8.3f}"
                                 for f in skipped) + " "
                      + " ".join("    -" if b is None else f"{b:5d}"
                                 for b in batches) + " "
                      + " ".join(f"{p:10.1f}" for p in peaks), flush=True)
            sweep, full = (pt["us_per_sweep"] for pt in points[-2:])
            points[-1]["full_over_sweep"] = ratios = [
                f / s for f, s in zip(full, sweep)]
            print(f"{schedule:8s} {r:4d} {d:4d} full/sweep "
                  + " ".join(f"{q:6.2f}" for q in ratios), flush=True)
    result = {
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__,
                "src": [str(Path(src).resolve()) for src in srcs],
                "machine": platform.machine()},
        "cycles": args.cycles, "runs": args.runs, "points": points}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result))
    # one tree given several times must give one peak per point
    differ = [pt for pt in points if len(set(pt["peak_kib"])) > 1]
    if len({os.path.realpath(src) for src in srcs}) == 1 and differ:
        for pt in differ:
            print(f"peaks differ: {pt['schedule']} ({pt['r']}, {pt['d']})"
                  f" {pt['check_level']}: {pt['peak_kib']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

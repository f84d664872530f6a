"""Hash every result of a fixed run set under one or more source trees.

Run from the root of a checkout:

    python3 tools/hash_runs.py --src ../parent/src --src src   # two trees
    python3 tools/hash_runs.py --quick --src src --src src      # smoke run

The run set is every combination of
- fixture: fixtures.random_halfspaces and fixtures.random_mixed;
- schedule: classic (m = 0), product (m = r - 1), mixed-block
  (fixtures.mixed_block_schedule, m = 1), and two custom patterns of 8
  terms with m = 2, repaired by rewrite_deferred, whose sweeps take the
  prox, quadratic and stacked tiers and either the pair tier (pairs, the
  custom-cli benchmark's pattern) or the nested loop (nested);
- check_level off, sweep and full;
- no stop rule, or stop_gap 1e-8;
- with and without the per-sweep trace;
over the instances (seed, r, d) in INSTANCES, or QUICK with --quick; the
custom patterns take r = 8 and d = 6, and only the instances of that
size.  These runs stop at MAX_ITERATIONS cycles, before any product run
closes its gap, so the set also holds runs that stop by the gap rule, with
stop_gap 1e-8 and a cap of GAP_STOP_CAP cycles: product runs of the (8, 6)
instances of both fixtures in GAP_STOPS, or QUICK_GAP_STOPS with --quick,
at every check level, which stop in 74 to 2927 cycles, and runs of the
custom pair pattern in CUSTOM_GAP_STOPS, or QUICK_CUSTOM_GAP_STOPS, at
check_level sweep and full, whose stops fall inside a checked batch of six
cycles and not on its last.  Two more product runs, in FOLD_RUNS, at
check_level full with the per-sweep trace, cover the outer set {r} that
joins its blocks' stack (engine._CSweep): fixtures.random_balls, whose
stack is a ball stack, and random_mixed at an odd r, whose outer
halfspace is not of its last blocks' kind and is solved by itself.  For
each of these gap stops the run prints its cycle
and its place in its batch: the batch that one check pass checked, or
with checks off the batch of cycle ends priced together
(engine._flush_cycle_ends).  Some runs of the first kind stop by the gap
rule too, the classic (30, 10) ones inside one-cycle batches; per tree, the
run prints how many runs of the whole set stopped by the gap rule in
batches of each size, so that a log shows both batches of one cycle and
batches of more under the bitwise comparison.  Every run so far keeps
its cycle starts, which keeps it on the whole plan.  The product gap
stops of GAP_STOPS, or QUICK_GAP_STOPS, are then run once more at every
check level without them: cold product runs stopped by the gap rule on
halfspace and ball terms, which engine.run solves in rounds on a working
set (engine._working_set_run).  A run's hash covers every RunResult field
but the work counter skipped_sweeps, and rounds where it is None, as it is
on the whole plan and in trees without the field, every trace row, every
cycle start and every certificate, each float by its bytes; a run that
raises is hashed by its error.  The package is imported from each --src.

The run exits with status 1 when some run's hash differs between the
trees, after printing each such run.  It also prints, per tree, how many
sweeps a screen skipped as still (RunResult.skipped_sweeps), where the
tree counts them, of all the sweeps the runs made, and beside that total
the same count per schedule, so that a change to the screen shows where it
skips.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import struct
import sys
import warnings

import numpy as np

INSTANCES = [(seed, r, d) for seed in (1, 2, 3) for r, d in ((8, 6), (30, 10))]
QUICK = [(1, 8, 6)]
FIXTURES = ("halfspaces", "mixed")
SCHEDULES = ("classic", "product", "mixed", "pairs", "nested")
LEVELS = ("off", "sweep", "full")
MAX_ITERATIONS = 40
STOP_GAP = 1e-8
# (fixture, seed) of the product gap stops, at (8, 6)
GAP_STOPS = [(fixture, seed) for fixture in FIXTURES for seed in (1, 2, 3)]
QUICK_GAP_STOPS = [("halfspaces", 3)]   # 74 cycles
# (fixture, seed) of the custom pair pattern's gap stops: cycles 112, 86,
# 17 and 106, the 3rd, 1st, 4th and 3rd of a batch of six cycles after the
# pattern's one lead-in cycle
CUSTOM_GAP_STOPS = [("halfspaces", 1), ("halfspaces", 2), ("halfspaces", 3),
                    ("mixed", 6)]
QUICK_CUSTOM_GAP_STOPS = [("halfspaces", 3)]
# (fixture, r) of the product runs of FOLD_RUNS, at seed 1 and d = 6
FOLD_RUNS = [("balls", 8), ("mixed", 7)]
GAP_STOP_CAP = 5000
# not a result: how much solver work a run skipped
SKIP_FIELDS = {"skipped_sweeps"}
# hashed only when set, so that a run on the whole plan hashes as in trees
# without the field
UNSET_FIELDS = {"rounds"}


def custom_plan(dk, nested):
    """A custom pattern (r = 8, m = 2), repaired by rewrite_deferred: its
    joint subproblems have three term rows each when nested, else two."""
    S = dk.SweepPlan
    plan = dk.CyclePlan(pattern=(
        S(outer={9}), S(inner={9: {1, 2, 3, 9} if nested else {1, 2, 9}}),
        S(outer={3, 4, 5} if nested else {3, 4}), S(outer={10}),
        S(outer={5}), S(outer={6}, inner={10: {5, 10}}), S(outer={7}),
        S(outer={8})))
    return dk.rewrite_deferred(plan, 8, 2)


def make_problem(dk, fixture, schedule, seed, r, d):
    """The spec and plan of one instance of the run set, in package dk."""
    make = {"halfspaces": dk.fixtures.random_halfspaces,
            "mixed": dk.fixtures.random_mixed,
            "balls": dk.fixtures.random_balls}[fixture]
    if schedule == "classic":
        return make(seed, r, d), dk.classic_dykstra_schedule(r)
    if schedule == "product":
        return make(seed, r, d, m=r - 1), dk.product_space_schedule(r)
    if schedule == "mixed":
        return make(seed, r, d, m=1), dk.fixtures.mixed_block_schedule(r)
    return make(seed, 8, 6, m=2), custom_plan(dk, schedule == "nested")


def feed(h, obj):
    """Add obj to the hash h: arrays and floats by their bytes, containers
    and dataclasses item by item, sets in sorted order."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(struct.pack("<d", float(obj)))
    elif obj is None or isinstance(obj, (bool, int, str, np.integer,
                                         np.bool_)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (set, frozenset)):
        h.update(b"set")
        feed(h, sorted(obj, key=repr))
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            feed(h, key)
            feed(h, obj[key])
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.name not in SKIP_FIELDS and not (
                    f.name in UNSET_FIELDS and getattr(obj, f.name) is None):
                h.update(f.name.encode())
                feed(h, getattr(obj, f.name))
    elif hasattr(obj, "__len__") and hasattr(obj, "__getitem__"):
        h.update(b"[")
        for item in obj:
            feed(h, item)
        h.update(b"]")
    else:   # DualState and other plain objects, by their attributes
        h.update(type(obj).__name__.encode())
        for key, value in sorted(vars(obj).items()):
            h.update(key.encode())
            feed(h, value)


def digest(result):
    """The hex digest of a RunResult: every field but SKIP_FIELDS, every
    trace row, cycle start and certificate, by its bytes."""
    h = hashlib.sha256()
    feed(h, result)
    return h.hexdigest()


def hash_run(dk, key):
    """(hex digest, skipped sweeps or None, sweeps, where it stopped) of
    one run of the run set; where is None but for a run that stops by the
    gap rule, and then (cycle, place in its batch, batch size), the last
    two None when no recorded batch holds the cycle."""
    from bench_grid import recording_batches   # next to this script
    fixture, schedule, level, gap, per_sweep, seed, r, d, cap, keep = key
    spec, plan = make_problem(dk, fixture, schedule, seed, r, d)
    params = dk.SolveParams(max_iterations=cap,
                            stop_gap=STOP_GAP if gap else None,
                            check_level=level, per_sweep_trace=per_sweep)
    batches = []   # the cycle numbers of each checked or priced batch
    try:
        with recording_batches(dk, batches, priced=True):
            result = dk.run(spec, plan, params, keep_cycle_starts=keep)
    except Exception as exc:   # a failing run is hashed by its error
        h = hashlib.sha256()
        feed(h, f"{type(exc).__name__}: {exc}")
        return h.hexdigest(), 0, 0, None
    where = None
    if result.stop_reason == "gap":
        n = result.cycles_run
        # its place in the first batch that held it; the batches of a run
        # in rounds count the cycles of each round from 1
        batch = (None if getattr(result, "rounds", None) else
                 next((b for b in batches if n in b), None))
        where = ((n, None, None) if batch is None
                 else (n, batch.index(n) + 1, len(batch)))
    return (digest(result), getattr(result, "skipped_sweeps", None),
            sum(row.w for row in result.cycle_rows), where)


def _place(where):
    """A gap stop's cycle and place in its batch, as the log prints it."""
    n, place, size = where
    return (f"cycle {n}" if place is None
            else f"cycle {n}, {place} of a batch of {size}")


def run_keys(instances, gap_stops, custom_gap_stops, folds=()):
    """The run set's keys: (fixture, schedule, level, gap, per_sweep, seed,
    r, d, cap, whether the run keeps its cycle starts)."""
    return [(fixture, schedule, level, gap, per_sweep) + inst
            + (MAX_ITERATIONS, True)
            for inst in instances for fixture in FIXTURES
            for schedule in SCHEDULES
            if schedule in SCHEDULES[:3] or inst[1:] == (8, 6)
            for level in LEVELS for gap in (False, True)
            for per_sweep in (False, True)] + [
        (fixture, "product", level, True, False, seed, 8, 6, GAP_STOP_CAP,
         True)
        for fixture, seed in gap_stops for level in LEVELS] + [
        (fixture, "pairs", level, True, False, seed, 8, 6, GAP_STOP_CAP,
         True)
        for fixture, seed in custom_gap_stops for level in LEVELS[1:]] + [
        (fixture, "product", "full", False, True, 1, r, 6, MAX_ITERATIONS,
         True)
        for fixture, r in folds] + [
        (fixture, "product", level, True, False, seed, 8, 6, GAP_STOP_CAP,
         False)
        for fixture, seed in gap_stops for level in LEVELS]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", action="append", required=True,
                   help="directory holding the dyksplit package, once per"
                        " tree")
    p.add_argument("--quick", action="store_true",
                   help="one small instance per fixture")
    args = p.parse_args(argv)
    from bench_grid import import_package   # next to this script
    packages = [import_package(src, f"dyksplit_{k}")
                for k, src in enumerate(args.src)]
    keys = (run_keys(QUICK, QUICK_GAP_STOPS, QUICK_CUSTOM_GAP_STOPS)
            if args.quick
            else run_keys(INSTANCES, GAP_STOPS, CUSTOM_GAP_STOPS, FOLD_RUNS))
    mismatches = 0
    # per tree, the skipped sweeps per schedule, or None where not counted
    skipped = [dict.fromkeys(SCHEDULES, 0) for _ in packages]
    sweeps = dict.fromkeys(SCHEDULES, 0)
    # per tree, the runs that stopped by the gap rule per size of the batch
    # that held the stop cycle
    stops = [{} for _ in packages]
    with warnings.catch_warnings():
        for dk in packages:
            warnings.simplefilter("ignore", dk.ScheduleGrowthWarning)
        for key in keys:
            hashes = []
            for t, dk in enumerate(packages):
                digest, n_skipped, n_sweeps, where = hash_run(dk, key)
                hashes.append(digest)
                if where is not None:
                    stops[t][where[2]] = stops[t].get(where[2], 0) + 1
                if not t:
                    sweeps[key[1]] += n_sweeps
                    if where is not None and key[8] == GAP_STOP_CAP:
                        print("gap stop: " + " ".join(
                            map(str, key[:3] + key[5:6]))
                            + ("" if key[9] else " working set") + ": "
                            + _place(where))
                if n_skipped is None:
                    skipped[t] = None
                elif skipped[t] is not None:
                    skipped[t][key[1]] += n_skipped
            if len(set(hashes)) > 1:
                mismatches += 1
                print("mismatch: " + " ".join(map(str, key)) + ": "
                      + " ".join(x[:12] for x in hashes))
    print(f"{len(keys)} runs, {mismatches} mismatches")
    for src, sizes in zip(args.src, stops):
        print(f"{src}: gap stops {sum(sizes.values())}, by batch size: "
              + ", ".join(f"{'none' if k is None else k}: {sizes[k]}"
                          for k in sorted(sizes, key=lambda k: k or 0)))
    for src, counts in zip(args.src, skipped):
        if counts is None:
            print(f"{src}: skipped sweeps not counted")
            continue
        print(f"{src}: skipped sweeps {sum(counts.values())} of"
              f" {sum(sweeps.values())} ("
              + ", ".join(f"{name} {counts[name]} of {sweeps[name]}"
                          for name in SCHEDULES) + ")")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

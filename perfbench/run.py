"""dyksplit benchmark: time to the duality-gap stop rule, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classic-checked --seed 1 --seconds 30 --trace 0

Each run solves the workload's fixture population (workloads.py) in passes,
one solve at a time, every solve on its own rotated copy of an instance, and
checks each solve's x against oracle.reference_solve.  --seconds sets the
number of passes.

--trace 0 reports the end-to-end metrics with tracing off:
  solve_s_p50   median over instances of each instance's median solve time
                (engine.run; for custom-cli from engine.run entry to the end
                of cli.main, trace output included)
  solve_s_tail  the highest instance time with at least ten solves beyond it;
                the percentile and sample count are printed on "# solves"
  sweeps_per_s  sweeps executed / solve seconds, over all solves
  cycles_total  cycles to the stop rule, summed over all solves (exact)
  setup_s       median work before engine.run: spec, plan and validate, or
                for custom-cli everything cli.main does before the engine
  peak_mem_mb   tracemalloc peak of one untimed solve of the instance with
                the median cycle count
  fail_frac     failed / attempted solves; printed in the table, and in the
                JSON result as "failed" and "attempted"
Times are at the reference speed of speed.py; the same timings as measured
are printed above them.

--trace 1 solves each input twice, untraced and then with every layer
wrapped (tracer.py), and reports the per-layer metrics and the tracing
overhead.  It fails its correctness check if the traced solves take other
cycle counts than the untraced ones, or if the layers' self times do not sum
to the outermost spans' busy time.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  The lines before it give the run's environment and a
readable table.  The package is imported from src/ next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one thread, as with workers=1.
_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import dyksplit from this checkout's src/, never from elsewhere."""
    init = SRC / "dyksplit" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no dyksplit package at {init.parent}")
    sys.path.insert(0, str(SRC))
    import dyksplit
    if Path(dyksplit.__file__).resolve() != init.resolve():
        raise SetupError(f"imported dyksplit from {dyksplit.__file__}")
    return dyksplit


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def tail(groups):
    """Highest instance time with at least ten solves beyond it.

    groups holds, per instance, the times of its copies; an instance stands
    for its median copy and counts its copies as solves.  Returns
    (value, percentile of solves, solves beyond).  Below 21 solves that value
    would not lie above the median, so the maximum is returned with none
    beyond (only in runs far shorter than the default).
    """
    ranked = sorted(((statistics.median(c), len(c)) for c in groups), reverse=True)
    n = sum(count for _, count in ranked)
    beyond = 0
    for value, count in ranked:
        if beyond >= 10 and n >= 21:
            return value, 100.0 * (n - beyond) / n, beyond
        beyond += count
    return ranked[0][0], 100.0, 0


def peak_memory(wl, inp):
    """tracemalloc peak (bytes) over one solve, and that solve's outcome."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = wl.solve(inp)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def environment(dyksplit, args, wl, inputs):
    import numpy
    import scipy
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    fixtures = sorted({i.fixture_seed for i in inputs})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dyksplit": dyksplit.__version__,
        "nproc": usable,
        "blas_threads": {v: os.environ[v] for v in _PINNED},
        "workload": wl.name,
        "seed": args.seed,
        "fixture_seeds": f"{fixtures[0]}..{fixtures[-1]}",
        "passes": max(i.copy for i in inputs) + 1,
        "trace": args.trace,
    }


def end_to_end(outcomes, checked, peak_bytes):
    """Metrics from the timed solves; fail_frac counts every checked solve.

    Times are at the reference speed (speed.py).  Returns the metrics, the
    same timings as measured, and the sample counts.
    """
    failed = sum(o.error is not None for o in checked)
    ok = [o for o in outcomes if o.error is None] or outcomes

    def timings(scale):
        # one time per fixture instance, the median over its rotated copies:
        # a median over all solves jumps between instances whose costs differ
        copies = {}
        for o in ok:
            copies.setdefault(o.inp.fixture_seed, []).append(o.solve_s / scale(o))
        times = [statistics.median(c) for c in copies.values()]
        tail_s, tail_pct, beyond = tail(copies.values())
        return times, {
            "solve_s_p50": (statistics.median(times), "s"),
            "solve_s_tail": (tail_s, "s"),
            "sweeps_per_s": (sum(o.sweeps for o in ok)
                             / sum(o.solve_s / scale(o) for o in ok), "1/s"),
            "setup_s": (statistics.median(o.setup_s / scale(o) for o in ok), "s"),
        }, (tail_pct, beyond)

    _, raw, _ = timings(lambda o: 1.0)
    times, values, (tail_pct, beyond) = timings(lambda o: o.speed)
    values.update({
        "cycles_total": (sum(o.cycles for o in ok), "count"),
        "peak_mem_mb": (peak_bytes / 1e6, "MB"),
        "fail_frac": (failed / len(checked), "ratio"),
    })
    info = {"solves": len(ok), "instances": len(times),
            "tail_percentile": tail_pct,
            "tail_beyond": beyond,
            "speed_factor_median": statistics.median(o.speed for o in ok)}
    return values, raw, info


def per_layer(pairs, tracer):
    """Per-layer metrics; times at the reference speed (median factor)."""
    traced = [t for _, t in pairs if t.error is None]
    sweeps = max(1, sum(o.sweeps for o in traced))
    cycles = max(1, sum(o.cycles for o in traced))
    solves = max(1, len(traced))
    st = tracer.stats
    us = 1e6 / statistics.median(t.speed for _, t in pairs)

    def calls_per_sweep(layer):
        return st[layer].calls / sweeps

    def self_us_per_sweep(layer):
        return st[layer].self_time * us / sweeps

    untraced_s = sum(u.total_s / u.speed for u, _ in pairs)
    traced_s = sum(t.total_s / t.speed for _, t in pairs)
    values = {
        "terms.conjugate.calls_per_sweep": (calls_per_sweep("terms.conjugate"), "count"),
        "terms.conjugate.self_us_per_sweep": (self_us_per_sweep("terms.conjugate"), "us"),
        "state.dual_objective.calls_per_sweep": (calls_per_sweep("state.dual_objective"), "count"),
        "state.dual_objective.self_us_per_sweep": (self_us_per_sweep("state.dual_objective"), "us"),
        "state.fenchel.calls_per_sweep": (calls_per_sweep("state.fenchel"), "count"),
        "state.fenchel.self_us_per_sweep": (self_us_per_sweep("state.fenchel"), "us"),
        "terms.value.calls_per_sweep": (calls_per_sweep("terms.value"), "count"),
        "terms.value.self_us_per_sweep": (self_us_per_sweep("terms.value"), "us"),
        "state.primal_value.self_us_per_cycle": (st["state.primal_value"].self_time * us / cycles, "us"),
        "engine.self_us_per_sweep": (self_us_per_sweep("engine"), "us"),
        "terms.prox.calls_per_sweep": (calls_per_sweep("terms.prox"), "count"),
        "terms.prox.self_us_per_sweep": (self_us_per_sweep("terms.prox"), "us"),
        "engine.certificates.self_us_per_cycle": (st["engine.certificates"].self_time * us / cycles, "us"),
        "engine.exact_sweep_frac": (sum(o.exact_sweeps for o in traced) / sweeps, "ratio"),
        "cli.self_ms_per_solve": (st["cli"].self_time * us / 1e3 / solves, "ms"),
        "cli.trace_bytes_per_sweep": (sum(o.trace_bytes for o in traced) / sweeps, "B"),
        "schedule.validate.calls": (st["schedule.validate"].calls / solves, "count"),
        "schedule.validate.busy_us": (st["schedule.validate"].busy * us / solves, "us"),
        "schedule.rewrite.busy_us": (st["schedule.rewrite"].busy * us / solves, "us"),
        "config.build.busy_us": (st["config.build"].busy * us / solves, "us"),
        "trace.overhead_frac": (traced_s / untraced_s, "ratio"),
    }
    return values


def integrity(pairs, tracer):
    """Problems that make a traced run untrustworthy, as messages."""
    problems = []
    for u, t in pairs:
        if u.error is None and t.error is None and u.cycles != t.cycles:
            problems.append(
                f"fixture {u.inp.fixture_seed} pass {u.inp.copy}: traced run took"
                f" {t.cycles} cycles, untraced {u.cycles}")
    self_sum, root = tracer.self_sum(), tracer.root_busy
    if abs(self_sum - root) > 1e-8 * max(root, 1e-12):
        problems.append(f"layer self times sum to {self_sum!r} s but the"
                        f" outermost spans were busy {root!r} s")
    return problems


def print_table(title, values):
    print(title)
    for name, (value, unit) in values.items():
        print(f"  {name:40s} {value!r:>24s} {unit}")


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time to aim for; sets the number of passes"
                        " over the instance population")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instances", type=int, default=None,
                   help="fixture population size (default: the workload's)")
    return p.parse_args(argv)


def run(argv):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    dyksplit = import_package()
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import PASS_S, WORKLOADS

    wl = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    wl.work_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT)
    try:
        passes = max(1, round(args.seconds / PASS_S))
        if args.trace:   # it solves every input twice
            passes = max(1, passes // 2)
        inputs = wl.make_inputs(args.seed, passes, args.instances)
        print("# env " + json.dumps(environment(dyksplit, args, wl, inputs)))
        with wl.session():
            wl.solve(inputs[0])   # warm-up: first-call costs are not timed
            probe = SpeedProbe()

            def timed(inp, wrapping=contextlib.nullcontext()):
                with wrapping:
                    out = wl.solve(inp)
                out.speed = probe.factor()
                return out

            if args.trace:
                tracer = Tracer()
                pairs = [(timed(inp), timed(inp, tracer)) for inp in inputs]
                outcomes = [o for pair in pairs for o in pair]
                checked = outcomes
            else:
                outcomes = [timed(inp) for inp in inputs]
                # tracemalloc slows a solve about fivefold, so one solve is
                # measured: the instance with the median cycle count
                ranked = sorted(outcomes, key=lambda o: (o.cycles, o.inp.fixture_seed))
                peak_bytes, mem_out = peak_memory(wl, ranked[len(ranked) // 2].inp)
                checked = outcomes + [mem_out]
    finally:
        shutil.rmtree(wl.work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:   # another run still uses it
            pass

    failures = [o for o in checked if o.error is not None]
    for o in failures:
        print(f"FAILED fixture {o.inp.fixture_seed} pass {o.inp.copy}: {o.error}")
    problems = []
    if args.trace:
        values = per_layer(pairs, tracer)
        problems = integrity(pairs, tracer)
        print(tracer.table())
        if tracer.absent:
            print("absent (0 calls): " + ", ".join(tracer.absent))
        print_table(f"per-layer metrics ({len(pairs)} traced solves,"
                    f" cycles_total untraced"
                    f" {sum(u.cycles for u, _ in pairs)},"
                    f" traced {sum(t.cycles for _, t in pairs)})", values)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        values, raw, info = end_to_end(outcomes, checked, peak_bytes)
        print(f"# solves {json.dumps(info)}")
        print_table("as measured (wall time, not normalised)", raw)
        print_table("end-to-end metrics (times at the reference speed)", values)
        wanted = [m["name"] for m in spec["end_to_end"]]
    for msg in problems:
        print(f"INTEGRITY: {msg}")

    result = {
        "correct": not failures and not problems,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in wanted if name in values},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except (SetupError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

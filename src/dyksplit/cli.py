"""Command-line front end: solve, validate, compare, oracle.

Exit codes: 0 success (solve: the gap rule fired), 1 configuration or
schedule error, 2 iteration cap reached, 3 oracle reports infeasible.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import warnings
from itertools import islice

import numpy as np

from . import config as cfg_mod
from . import engine, oracle, schedule
from .state import WeakDualityError, gap_report

TRACE_COLUMNS = ("n", "w", "F", "v_diff", "gamma_n", "growth_monitor",
                 "cert_max_residual", "approx_flag")

_TRACE_HELP = """\
trace columns (fixed order):
  n                  cycle number (1-based)
  w                  sweep index (per-sweep rows) or the cycle's sweep count
  F                  dual objective after the row's last sweep (empty when
                     check_level=off skips per-sweep evaluation)
  v_diff             movement of the dual sum over the row's sweeps
  gamma_n            cycle certificate radius (last row of each cycle)
  growth_monitor     ||z||_F / sqrt(n) at the cycle end
  cert_max_residual  largest certificate distance to the iterate
  approx_flag        1 when a nested approximate tier ran in scope
"""


_GROWTH_ADVISORY = ("advisory: growth condition not met (an outer set has"
                    " more than one index or a block more than two); the"
                    " sqrt-n growth monitor is not guaranteed")


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise cfg_mod.ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise cfg_mod.ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return cfg_mod.RunConfig.from_dict(raw)


def _fmt(x):
    return "" if x is None else repr(float(x))


# bound once: the JSON writer calls them for every float of every row
_repr = float.__repr__
_isfinite = math.isfinite


def _json_float(x):
    """A float field as json.dumps writes it; None and the values of rows
    built by hand (ints, say) go through json.dumps itself."""
    if type(x) is float:
        if _isfinite(x):
            return _repr(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    return "null" if x is None else json.dumps(x)


def _csv_lines(fields):
    for n, w, F, v_diff, _, gamma, growth, cert, approx in fields:
        yield (f"{n},{w},{_fmt(F)},{_fmt(v_diff)},{_fmt(gamma)},"
               f"{_fmt(growth)},{_fmt(cert)},{1 if approx else 0}\n")


def _json_lines(fields):
    """The rows as json.dumps writes each, one per line after a separator."""
    f = _json_float
    sep = "\n"
    for n, w, F, v_diff, inner, gamma, growth, cert, approx in fields:
        diffs = ", ".join([f'"{j}": {f(d)}' for j, d in inner])
        yield (f'{sep}{{"n": {n}, "w": {w}, "F": {f(F)}, "v_diff":'
               f' {f(v_diff)}, "inner_diffs": {{{diffs}}}, "gamma_n":'
               f' {f(gamma)}, "growth_monitor": {f(growth)},'
               f' "cert_max_residual": {f(cert)},'
               f' "approx_flag": {"true" if approx else "false"}}}')
        sep = ",\n"


def _write_trace(path, fmt, rows, meta):
    """Write the trace rows, TraceRows or any iterable of TraceRow, as they
    are formatted, 64 lines at a time; the bytes are those of one
    json.dumps per row (JSON) or _fmt per field (CSV).  A run's rows are
    formatted from their fields, not built."""
    fields = (rows.fields(0) if isinstance(rows, engine.TraceRows) else
              ((r.n, r.w, r.F, r.v_diff, r.inner_diffs.items(), r.gamma_n,
                r.growth_monitor, r.cert_max_residual, r.approx)
               for r in rows))
    with open(path, "w") as fh:
        if fmt == "csv":
            if meta.get("schedule_rewritten"):
                fh.write("# schedule auto-deferred: (B)-violating blocks"
                         " moved to cycle starts\n")
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            lines = _csv_lines(fields)
        else:
            fh.write(f'{{"meta": {json.dumps(meta)}, "rows": [')
            lines = _json_lines(fields)
        while chunk := "".join(islice(lines, 64)):
            fh.write(chunk)
        if fmt != "csv":
            fh.write("\n]}\n")


def _note_workers(args, *built):
    """One note per run when --workers or a config's solve.workers > 1 is set.

    SolveParams' DeprecationWarning for the config key is raised inside the
    library, where Python's default filters hide it.
    """
    if args.workers is not None:
        name = "--workers"
    elif any(b.params.workers > 1 for b in built):
        name = "solve.workers"
    else:
        return
    print(f"note: {name} is deprecated and ignored; sweeps run serially",
          file=sys.stderr)


def cmd_solve(args):
    cfg = _load_config(args.config)
    built = cfg_mod.build(cfg, seed_override=args.seed)
    del cfg   # the parsed JSON, which nothing reads after build
    _note_workers(args, built)
    if built.mode == "product-reference":
        raise cfg_mod.ConfigError(
            "product-reference is a compare-only mode; use 'compare'")
    plan = built.plan
    analysis = schedule.validate(plan, built.spec.r, built.spec.m)
    rewritten = False
    for v in analysis.violations:
        print(f"schedule violation: {v.message}")
    if not (analysis.valid_A and analysis.valid_B):
        if args.auto_defer and analysis.valid_A:
            plan = schedule.rewrite_deferred(plan, built.spec.r, built.spec.m)
            rewritten = True
            moved = len(plan.pattern) - len(built.plan.pattern)
            print(f"schedule rewritten: {moved} deferred block sweep(s)"
                  f" prepended, one lead-in cycle added")
        else:
            _err("schedule is invalid; --auto-defer can move (B)-violating"
                 " blocks to the next cycle start" if analysis.valid_A else
                 "schedule is invalid: some index is never touched")
            return 1
    # a deferral rewrite moves whole blocks: the growth condition stays
    if not analysis.sqrt_growth_ok:
        print(_GROWTH_ADVISORY, file=sys.stderr)
    del analysis   # run validates the plan it is given itself

    with warnings.catch_warnings():
        # the advisory above says it once per solve, in one line
        warnings.simplefilter("ignore", engine.ScheduleGrowthWarning)
        result = engine.run(built.spec, plan, built.params,
                            z_init=built.z_init)
    report = gap_report(built.spec, result.state, result.x)

    if built.output.trace_path:
        rows = (result.sweep_rows if built.params.per_sweep_trace
                else result.cycle_rows)
        meta = {"stop_reason": result.stop_reason,
                "cycles": result.cycles_run,
                "F": result.F,
                "schedule_rewritten": rewritten,
                "any_approx": result.any_approx,
                "rounds": result.rounds}
        _write_trace(built.output.trace_path, built.output.format, rows, meta)
        print(f"trace written to {built.output.trace_path}")

    print(f"cycles run: {result.cycles_run} (stop: {result.stop_reason})")
    print(f"sweeps skipped by the screen: {result.skipped_sweeps}")
    if result.rounds is not None:
        print(f"working set: {len(result.rounds)} round(s),"
              f" |W| {len(result.rounds[0])} -> {len(result.rounds[-1])}")
    print(f"dual objective: {result.F!r}")
    if np.isfinite(report.primal_value):
        print(f"primal value: {report.primal_value!r}"
              f" (gap {report.gap!r})")
    else:
        print("primal value: inf (iterate not yet feasible)")
    print(f"x: {[float(v) for v in result.x]!r}")
    return 0 if result.stop_reason == "gap" else 2


def cmd_validate(args):
    cfg = _load_config(args.config)
    built = cfg_mod.build(cfg, seed_override=args.seed)
    if built.plan is None:
        raise cfg_mod.ConfigError("product-reference has no schedule to validate")
    analysis = schedule.validate(built.plan, built.spec.r, built.spec.m)
    pat = analysis.pattern
    print(f"pattern: {len(built.plan.pattern)} sweep(s),"
          f" {len(built.plan.lead_in)} lead-in cycle(s)")
    print(f"last-touch sweeps p: { {i: pat.p[i] for i in sorted(pat.p)} }")
    print(f"matched outer solves q: { {i: pat.q[i] for i in sorted(pat.q)} }")
    # the pattern's sweeps, then each lead-in cycle's
    cycles = [("", built.plan.pattern)] + [
        (f"lead-in cycle {k} ", c)
        for k, c in enumerate(built.plan.lead_in, start=1)]
    for label, c in cycles:
        for w, sweep in enumerate(c, start=1):
            tiers = "; ".join(engine.sweep_tiers(built.spec, sweep))
            print(f"{label}sweep {w}: {tiers or 'empty'}")
    for v in analysis.violations:
        print(f"violation: {v.message}")
    if not analysis.sqrt_growth_ok:
        print(_GROWTH_ADVISORY)
    ok = analysis.valid_A and analysis.valid_B
    print("schedule valid" if ok else "schedule INVALID")
    return 0 if ok else 1


def _spec_signature(spec):
    return (spec.d, spec.r, spec.x0.tolist(),
            [cfg_mod.term_to_dict(t) for t in spec.terms])


def _run_side(built, n_cycles):
    """Per-cycle prox duals and the final primal point for one compare side."""
    if built.mode == "product-reference":
        z0 = None if built.z_init is None else built.z_init[:built.spec.r]
        hist = engine.product_space_reference(built.spec, z_init=z0,
                                              n_cycles=n_cycles)
        x = built.spec.x0 - hist[-1].sum(axis=0) / built.spec.r
        return hist, x
    params = built.params
    params.max_iterations = n_cycles
    params.stop_gap = None
    result = engine.run(built.spec, built.plan, params, z_init=built.z_init,
                        keep_cycle_starts=True)
    prox = [z[:built.spec.r].copy() for z in result.cycle_start_duals]
    return prox, result.x


def cmd_compare(args):
    if args.cycles < 1:
        raise cfg_mod.ConfigError("--cycles must be at least 1")
    built_a = cfg_mod.build(_load_config(args.config_a),
                            seed_override=args.seed)
    built_b = cfg_mod.build(_load_config(args.config_b),
                            seed_override=args.seed)
    _note_workers(args, built_a, built_b)
    if _spec_signature(built_a.spec) != _spec_signature(built_b.spec):
        raise cfg_mod.ConfigError("the two configs describe different problems")

    duals_a, x_a = _run_side(built_a, args.cycles)
    duals_b, x_b = _run_side(built_b, args.cycles)
    n_common = min(len(duals_a), len(duals_b))
    per_cycle = []
    for k in range(n_common):
        diff = duals_a[k] - duals_b[k]
        per_cycle.append(float(np.sqrt((diff * diff).sum(axis=1)).max()))
    max_dual = max(per_cycle)
    x_diff = float(np.linalg.norm(x_a - x_b))

    if args.report:
        print("cycle  max dual difference")
        for k, dv in enumerate(per_cycle):
            print(f"{k + 1:5d}  {dv!r}")
        print(f"final x difference: {x_diff!r}")
        return 0
    print(f"max dual difference over {n_common} cycle starts: {max_dual!r}")
    print(f"final x difference: {x_diff!r}")
    if max_dual <= 1e-9:
        print("equivalent to 1e-9")
        return 0
    print("NOT equivalent to 1e-9")
    return 1


def cmd_oracle(args):
    cfg = _load_config(args.config)
    built = cfg_mod.build(cfg, seed_override=args.seed)
    spec = built.spec
    x_star = None
    if not args.reference:
        try:
            inst = oracle.PolyhedralInstance.from_spec(spec)
        except ValueError:
            inst = None
        if inst is not None:
            x_star = oracle.qp_project(inst)
            if x_star is None:
                print("infeasible: the constraints have empty intersection")
                return 3
    if x_star is None:
        try:
            x_star = oracle.reference_solve(spec, tol=1e-10)
        except oracle.ConvergenceError as exc:
            _err(f"reference loop did not converge ({exc})")
            return 1
    alpha = (spec.m + 1) * spec.quad_value(x_star)
    print(f"x_star: {[float(v) for v in x_star]!r}")
    print(f"alpha: {alpha!r}")
    return 0


def _parser(command=None):
    """The command line's parser, with the subparser of command only when
    it names one, else with every subparser, as -h and errors print them.

    The usage names every command either way, so that an error the parser
    reports after a command prints the same usage; only errors of the
    command argument itself, which name it, come from the full parser.
    """
    names = ("solve", "validate", "compare", "oracle")
    every = command not in names
    parser = argparse.ArgumentParser(
        prog="dyksplit",
        description="Dykstra-style splitting with flexible sweep schedules.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if every else "{" + ",".join(names) + "}")

    if every or command == "solve":
        p_solve = sub.add_parser(
            "solve", help="run a config to convergence or the cycle cap",
            epilog=_TRACE_HELP,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        p_solve.add_argument("config")
        p_solve.add_argument("--auto-defer", action="store_true",
                             help="rewrite (B)-violating blocks into deferred"
                                  " sweeps instead of refusing")
        p_solve.add_argument("--workers", type=int, default=None,
                             help="deprecated and ignored")
        p_solve.add_argument("--seed", type=int, default=None,
                             help="override the fixture generator seed")
        p_solve.set_defaults(func=cmd_solve)

    if every or command == "validate":
        p_val = sub.add_parser("validate", help="analyze a schedule, print"
                                                " p/q maps and violations")
        p_val.add_argument("config")
        p_val.add_argument("--seed", type=int, default=None)
        p_val.set_defaults(func=cmd_validate)

    if every or command == "compare":
        p_cmp = sub.add_parser(
            "compare", help="run two configs on the same problem and compare"
                            " per-cycle duals")
        p_cmp.add_argument("config_a")
        p_cmp.add_argument("config_b")
        p_cmp.add_argument("--cycles", type=int, default=50)
        p_cmp.add_argument("--report", action="store_true",
                           help="print the per-cycle table and exit 0")
        p_cmp.add_argument("--workers", type=int, default=None,
                           help="deprecated and ignored")
        p_cmp.add_argument("--seed", type=int, default=None)
        p_cmp.set_defaults(func=cmd_compare)

    if every or command == "oracle":
        p_orc = sub.add_parser(
            "oracle", help="ground-truth projection for the config's problem")
        p_orc.add_argument("config")
        p_orc.add_argument("--reference", action="store_true",
                           help="force the projection-loop reference solver")
        p_orc.add_argument("--seed", type=int, default=None)
        p_orc.set_defaults(func=cmd_oracle)
    return parser


def _parse_args(argv):
    """The command line's arguments, parsed with only the first argument's
    subparser when it names a command (_parser).  The parser is let go on
    return, so that it is not kept alive while the command runs."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _parser(argv[0] if argv else None).parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    # the parser is a reference cycle: collect the young generations, where
    # it lives, so that it is freed before the command runs rather than
    # whenever the collector next reaches it
    gc.collect(1)
    try:
        return args.func(args)
    except (cfg_mod.ConfigError, schedule.ScheduleStructureError,
            schedule.UnresolvableDeferralError,
            engine.InvalidScheduleError, WeakDualityError) as exc:
        _err(str(exc))
        return 1
    except engine.EngineInvariantError as exc:
        _err(f"engine invariant failed: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

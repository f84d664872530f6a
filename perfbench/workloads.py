"""The benchmark's workloads: inputs from a seed, one solve, output checks.

Every workload solves a fixed population of fixture instances (fixture seeds
1..N).  Each solve gets its own copy of an instance, turned by a random
rotation drawn from the benchmark seed, the pass number and the fixture seed.
A rotation is an isometry, so the copy has the same solution geometry, cycle
count and cost as the fixture while its numbers differ from seed to seed.
Drawing fresh fixture seeds for each run instead made the per-run median and
cycle sum spread 15-20% between runs (N up to 100, simulated from a 300-seed
scan of cycle counts), wider than any usable regression bound.

No translation is applied: the engine's tolerances are absolute, and a
shifted copy would test scale rather than speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from dyksplit import cli, engine, fixtures, oracle, schedule
from dyksplit.engine import ScheduleGrowthWarning, SolveParams
from dyksplit.state import ProblemSpec
from dyksplit.terms import Halfspace, Indicator, L2Ball

STOP_GAP = 1e-8
# Far above any instance's cycle count here (the slowest product-lean fixture
# in a 120-seed scan needed 4539 cycles); the cap only stops a hung run.
MAX_ITERATIONS = 50_000
REF_TOL = 1e-10
# Populations are sized so that one pass over them takes about this long on a
# 2-vCPU x86 VM (Python 3.11, numpy 2.4): classic-checked 8-9 s, product-lean
# about 10 s, custom-cli about 14 s; a run makes seconds / PASS_S passes.
PASS_S = 10.0

# The custom-cli pattern (r = 8, m = 2).  Sweep 2 is a three-member block
# (nested fallback), sweep 3 a two-index outer set (nested fallback), and the
# block {5, 10} in sweep 6 violates (B): --auto-defer moves it to the next
# cycle start.
CUSTOM_PATTERN = [
    {"outer": [9]},
    {"blocks": {"9": [1, 2, 9]}},
    {"outer": [3, 4]},
    {"outer": [10]},
    {"outer": [5]},
    {"outer": [6], "blocks": {"10": [5, 10]}},
    {"outer": [7]},
    {"outer": [8]},
]


def rotation(rng, d):
    """Haar-distributed orthogonal d x d matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def rotate_spec(spec, q):
    """The spec's sets and anchor under x -> q x (indicator terms only)."""
    terms = []
    for t in spec.terms:
        s = t.set
        if isinstance(s, Halfspace):
            terms.append(Indicator(Halfspace(q @ s.a, s.b)))
        elif isinstance(s, L2Ball):
            terms.append(Indicator(L2Ball(q @ s.center, s.radius)))
        else:
            raise TypeError(f"no rotation rule for {type(s).__name__}")
    return ProblemSpec(q @ spec.x0, terms, m=spec.m)


def term_dicts(spec):
    """Config-file form of the spec's terms."""
    out = []
    for t in spec.terms:
        s = t.set
        if isinstance(s, Halfspace):
            out.append({"kind": "halfspace", "a": s.a.tolist(), "b": s.b})
        else:
            out.append({"kind": "l2ball", "center": s.center.tolist(),
                        "radius": s.radius})
    return out


@dataclass
class Input:
    fixture_seed: int
    copy: int
    spec: ProblemSpec
    x_ref: np.ndarray
    bound: float
    config_path: str | None = None


@dataclass
class Outcome:
    """One attempted solve."""
    inp: Input
    setup_s: float = 0.0
    solve_s: float = 0.0
    cycles: int = 0
    sweeps: int = 0
    exact_sweeps: int = 0
    trace_bytes: int = 0
    error: str | None = None
    # slowdown of the machine around this solve (speed.py); times / speed
    # are times at the reference speed
    speed: float = 1.0

    @property
    def total_s(self):
        return self.setup_s + self.solve_s


class RunProbe:
    """Records when engine.run is entered and what it returns.

    Installed around a whole phase (not per solve) so that the CLI workload
    can split set-up from sweeps; it adds one Python call per solve.
    """

    def __init__(self):
        self.entered = None
        self.result = None
        self._orig = None

    def __enter__(self):
        self._orig = orig = engine.run

        def probed(*args, **kwargs):
            self.entered = perf_counter()
            self.result = orig(*args, **kwargs)
            return self.result

        engine.run = probed
        return self

    def __exit__(self, *exc):
        engine.run = self._orig
        return False


def _count_sweeps(result):
    rows = result.cycle_rows
    total = sum(row.w for row in rows)
    if result.sweep_rows is not None:
        exact = sum(not row.approx for row in result.sweep_rows)
    else:
        # per-cycle flags only: an approximate cycle counts as no exact sweep
        exact = sum(row.w for row in rows if not row.approx)
    return total, exact


@dataclass
class Workload:
    """One closed-loop workload: a single solve at a time.

    Why each workload was chosen is recorded next to its name in
    BENCHMARK.json.
    """
    name: str
    population: int
    work_dir: str = ""

    # -- inputs ------------------------------------------------------------

    def base_spec(self, fixture_seed):
        raise NotImplementedError

    def make_inputs(self, seed, passes, population=None):
        """All inputs of one run, with their reference solutions."""
        population = population or self.population
        bases = {s: self.base_spec(s) for s in range(1, population + 1)}
        inputs = []
        for k in range(passes):
            for s, base in bases.items():
                rng = np.random.default_rng([seed, k, s])
                spec = rotate_spec(base, rotation(rng, base.d))
                x_ref = oracle.reference_solve(spec, tol=REF_TOL)
                bound = math.sqrt(2.0 * STOP_GAP / (spec.m + 1)) + REF_TOL
                inp = Input(s, k, spec, x_ref, bound)
                self.prepare(inp)
                inputs.append(inp)
        return inputs

    def prepare(self, inp):
        """Benchmark-side work for an input that is not part of a solve."""

    # -- solving -------------------------------------------------------------

    def solve(self, inp):
        """One timed solve; failures are recorded, never raised."""
        out = Outcome(inp)
        try:
            x, stop = self._solve(inp, out)
        except Exception as exc:   # any failure is counted, the run goes on
            out.error = f"{type(exc).__name__}: {exc}"
            return out
        if stop != "gap":
            out.error = f"stopped on {stop!r}, not on the gap rule"
        elif not np.all(np.isfinite(x)):
            out.error = "non-finite solution"
        else:
            dist = float(np.linalg.norm(x - inp.x_ref))
            if dist > inp.bound:
                out.error = (f"solution is {dist:.3e} from the reference,"
                             f" beyond {inp.bound:.3e}")
        return out

    def _solve(self, inp, out):
        raise NotImplementedError

    @contextlib.contextmanager
    def session(self):
        """Set-up shared by every solve of a phase (warning filter, probe)."""
        # product_space_schedule warns on every run that its growth monitor
        # is advisory; that is expected here and would flood stderr
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScheduleGrowthWarning)
            yield


class LibraryWorkload(Workload):
    """Solved through the library API; set-up builds the problem from raw data."""
    check_level: str

    def _params(self):
        return SolveParams(stop_gap=STOP_GAP, max_iterations=MAX_ITERATIONS,
                           workers=1, check_level=self.check_level)

    def _solve(self, inp, out):
        src = inp.spec
        t0 = perf_counter()
        terms = [Indicator(Halfspace(t.set.a, t.set.b)) for t in src.terms]
        spec = ProblemSpec(src.x0, terms, m=src.m)
        plan = self.plan(spec.r)
        analysis = schedule.validate(plan, spec.r, spec.m)
        if not (analysis.valid_A and analysis.valid_B):
            raise RuntimeError("workload schedule is invalid")
        params = self._params()
        t1 = perf_counter()
        result = engine.run(spec, plan, params)
        t2 = perf_counter()
        out.setup_s, out.solve_s = t1 - t0, t2 - t1
        out.cycles = result.cycles_run
        out.sweeps, out.exact_sweeps = _count_sweeps(result)
        return result.x, result.stop_reason


class ClassicChecked(LibraryWorkload):
    check_level = "sweep"

    def base_spec(self, fixture_seed):
        return fixtures.random_halfspaces(fixture_seed, 50, 20)

    def plan(self, r):
        return schedule.classic_dykstra_schedule(r)


class ProductLean(LibraryWorkload):
    check_level = "off"

    def base_spec(self, fixture_seed):
        return fixtures.random_halfspaces(fixture_seed, 20, 10, m=19)

    def plan(self, r):
        return schedule.product_space_schedule(r)


class CustomCli(Workload):
    _probe = None   # the RunProbe of the current session

    @property
    def trace_path(self):
        return os.path.join(self.work_dir, "trace.json")

    def base_spec(self, fixture_seed):
        return fixtures.random_mixed(fixture_seed, 8, 6, m=2)

    def prepare(self, inp):
        tag = f"{inp.fixture_seed}-{inp.copy}"
        cfg = {
            "problem": {"x0": inp.spec.x0.tolist(),
                        "terms": term_dicts(inp.spec)},
            "splitting": {"m": inp.spec.m,
                          "schedule": {"mode": "custom",
                                       "cycles": {"pattern": CUSTOM_PATTERN}}},
            "solve": {"check_level": "full", "stop_gap": STOP_GAP,
                      "max_iterations": MAX_ITERATIONS, "workers": 1},
            "output": {"trace_path": self.trace_path, "format": "json",
                       "per_sweep": True},
        }
        inp.config_path = os.path.join(self.work_dir, f"config-{tag}.json")
        with open(inp.config_path, "w") as fh:
            json.dump(cfg, fh)

    @contextlib.contextmanager
    def session(self):
        with super().session(), RunProbe() as probe:
            self._probe = probe
            try:
                yield
            finally:
                self._probe = None

    def _solve(self, inp, out):
        probe = self._probe
        probe.entered = probe.result = None
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["solve", inp.config_path, "--auto-defer"])
        t2 = perf_counter()
        if probe.entered is None:
            raise RuntimeError(f"solve exited with code {code} before the engine ran")
        out.setup_s, out.solve_s = probe.entered - t0, t2 - probe.entered
        text = buf.getvalue()
        if code != 0:
            raise RuntimeError(f"solve exited with code {code}: {text[-300:]!r}")
        cycles, stop, x = _parse_solve_output(text)
        if cycles != probe.result.cycles_run:
            raise RuntimeError("printed cycle count disagrees with the run")
        out.cycles = cycles
        out.sweeps, out.exact_sweeps = _count_sweeps(probe.result)
        out.trace_bytes = os.path.getsize(self.trace_path)
        return x, stop


def _parse_solve_output(text):
    cycles = stop = x = None
    for line in text.splitlines():
        if line.startswith("cycles run: "):
            head, _, tail = line[len("cycles run: "):].partition(" (stop: ")
            cycles, stop = int(head), tail.rstrip(")")
        elif line.startswith("x: "):
            x = np.array(json.loads(line[3:]), dtype=float)
    if cycles is None or x is None:
        raise RuntimeError("solve output lacks the cycle count or x")
    return cycles, stop, x


WORKLOADS = {
    "classic-checked": ClassicChecked("classic-checked", population=8),
    "product-lean": ProductLean("product-lean", population=16),
    "custom-cli": CustomCli("custom-cli", population=16),
}

"""Run configuration: one self-contained JSON document per run.

Sections: problem (explicit terms or a seeded generator), splitting (m and
the schedule), solve (engine knobs), output (trace destination).  Parsing is
strict, unknown keys are errors, and from_dict(to_dict(cfg)) == cfg for every
valid config.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import fixtures
from .engine import SolveParams
from .schedule import CyclePlan, SweepPlan, classic_dykstra_schedule, product_space_schedule
from .state import ProblemSpec
from .terms import (AffineSubspace, Box, Halfspace, Hyperplane, Indicator,
                    L1Norm, L2Ball, Quadratic, _as_count, _as_number)


class ConfigError(ValueError):
    """Bad run configuration."""


MODES = ("classic", "product", "custom", "product-reference")
FORMATS = ("csv", "json")


def _numbers(value, where):
    """Check that value is a number or a nested list of numbers."""
    if isinstance(value, list):
        for v in value:
            _numbers(v, where)
    else:
        _as_number(where, value)
    return value


def _object(d, where):
    """d, which must be a JSON object."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object,"
                          f" not {type(d).__name__}")
    return d


def _list(value, where):
    """value, which must be a JSON list."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list,"
                          f" not {type(value).__name__}")
    return value


def _only_keys(d, allowed, where):
    extra = set(d) - set(allowed)
    if extra:
        raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")


def _section(cls, d, where):
    """Parse the JSON object d into the dataclass cls.

    The keys are cls's fields; a field whose default factory is itself a
    dataclass is a subsection and is parsed the same way.
    """
    fs = {f.name: f for f in fields(cls)}
    _only_keys(_object(d, where), fs, where)
    kwargs = {}
    for k, v in d.items():
        sub = fs[k].default_factory
        kwargs[k] = (_section(sub, v, k if where == "config" else f"{where}.{k}")
                     if is_dataclass(sub) else v)
    return cls(**kwargs)


@dataclass
class ProblemConfig:
    dim: int | None = None
    x0: list | None = None
    terms: list | None = None
    generator: dict | None = None


@dataclass
class ScheduleConfig:
    mode: str = "classic"
    cycles: dict | None = None


@dataclass
class SplittingConfig:
    m: int | None = None
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)


@dataclass
class SolveConfig:
    max_iterations: int = 1000
    stop_gap: float | None = None
    nested_bcm_sweeps: int = 64
    nested_tol: float = 1e-12
    workers: int = 1          # deprecated and ignored, see SolveParams
    check_level: str = "sweep"
    z_init: object = "zeros"


@dataclass
class OutputConfig:
    trace_path: str | None = None
    format: str = "csv"
    per_sweep: bool = False

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ConfigError(f"output.format must be one of {FORMATS}")
        if not isinstance(self.per_sweep, bool):
            raise ConfigError(f"output.per_sweep must be true or false,"
                              f" not {self.per_sweep!r}")
        if not isinstance(self.trace_path, (str, type(None))):
            raise ConfigError(f"output.trace_path must be a string,"
                              f" not {self.trace_path!r}")


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    splitting: SplittingConfig = field(default_factory=SplittingConfig)
    solve: SolveConfig = field(default_factory=SolveConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    @classmethod
    def from_dict(cls, d):
        return _section(cls, d, "config")

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# building runtime objects
# ---------------------------------------------------------------------------

# kind -> (class, keys); each key is both a constructor argument and an
# attribute of the class
_TERM_KEYS = {
    "halfspace": (Halfspace, ("a", "b")),
    "hyperplane": (Hyperplane, ("a", "b")),
    "box": (Box, ("lo", "hi")),
    "l2ball": (L2Ball, ("center", "radius")),
    "affine": (AffineSubspace, ("matrix", "rhs")),
    "l1": (L1Norm, ("weight",)),
    "quadratic": (Quadratic, ("center", "weight")),
}


def term_from_dict(d, dim, position=None):
    """The term of a config's term object; position (1-based) names it."""
    where = "term" if position is None else f"term {position}"
    if "kind" not in _object(d, where):
        raise ConfigError(f"{where} has no kind")
    kind = d["kind"]
    if kind not in _TERM_KEYS:
        raise ConfigError(f"unknown term kind {kind!r},"
                          f" expected one of {sorted(_TERM_KEYS)}")
    cls, keys = _TERM_KEYS[kind]
    _only_keys(d, ("kind",) + keys, f"term {kind}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ConfigError(f"term {kind} missing keys {missing}")
    args = [_numbers(d[k], f"bad {kind} term: {k}") for k in keys]
    try:
        if cls is L1Norm:
            return L1Norm(dim, *args)
        if cls is Quadratic:
            return Quadratic(*args)
        return Indicator(cls(*args))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} term: {exc}") from exc


def term_to_dict(term):
    """Config form of a term; term_from_dict inverts it."""
    obj = term.set if isinstance(term, Indicator) else term
    for kind, (cls, keys) in _TERM_KEYS.items():
        if type(obj) is cls:
            out = {"kind": kind}
            for k in keys:
                val = getattr(obj, k)
                out[k] = val.tolist() if isinstance(val, np.ndarray) else val
            return out
    raise ConfigError(f"{type(obj).__name__} has no config form")


def sweep_from_dict(d, where):
    """The SweepPlan of a config's sweep object; where names it."""
    _only_keys(_object(d, where), ("outer", "blocks"), where)
    inner = {}
    for j, members in _object(d.get("blocks") or {},
                              f"{where} blocks").items():
        # JSON object keys are strings; int() would also take "1_0" or " 1"
        if not (str(j).isascii() and str(j).isdigit()):
            raise ConfigError(f"{where} block key {j!r} is not a decimal"
                              f" index")
        inner[int(j)] = _list(members, f"{where} block {j}")
    # SweepPlan checks the indices
    return SweepPlan(outer=_list(d.get("outer") or [], f"{where} outer"),
                     inner=inner)


def _sweeps(sweeps, where):
    return tuple(sweep_from_dict(s, f"{where} sweep {k}")
                 for k, s in enumerate(_list(sweeps, where), start=1))


def plan_from_cycles(cycles):
    _only_keys(_object(cycles, "schedule.cycles"), ("pattern", "lead_in"),
               "schedule.cycles")
    if not cycles.get("pattern"):
        raise ConfigError("custom schedule needs a nonempty pattern")
    lead = _list(cycles.get("lead_in") or [], "lead_in")
    return CyclePlan(pattern=_sweeps(cycles["pattern"], "pattern"),
                     lead_in=tuple(_sweeps(c, f"lead_in cycle {k}")
                                   for k, c in enumerate(lead, start=1)))


@dataclass
class Built:
    spec: ProblemSpec
    plan: CyclePlan | None
    params: SolveParams
    mode: str
    output: OutputConfig
    z_init: np.ndarray | None


def _resolve_terms(pc, m, seed_override):
    if pc.generator is not None:
        if pc.terms is not None or pc.x0 is not None:
            raise ConfigError("problem.generator excludes explicit terms/x0")
        g = dict(pc.generator)
        _only_keys(g, ("kind", "r", "dim", "seed"), "problem.generator")
        for k in ("kind", "r", "dim"):
            if k not in g:
                raise ConfigError(f"problem.generator missing {k!r}")
        seed = (seed_override if seed_override is not None
                else _as_count("problem.generator.seed", g.get("seed", 0)))
        return fixtures.generate(g["kind"],
                                 _as_count("problem.generator.r", g["r"]),
                                 _as_count("problem.generator.dim", g["dim"]),
                                 seed, m=m)
    if pc.x0 is None or pc.terms is None:
        raise ConfigError("problem needs x0 and terms (or a generator)")
    x0 = np.asarray(_numbers(pc.x0, "problem.x0"), dtype=float).ravel()
    dim = x0.size if pc.dim is None else _as_count("problem.dim", pc.dim)
    if x0.size != dim:
        raise ConfigError(f"x0 has length {x0.size}, dim says {dim}")
    if not isinstance(pc.terms, list):
        raise ConfigError(f"problem.terms must be a list,"
                          f" not {type(pc.terms).__name__}")
    terms = [term_from_dict(t, dim, k)
             for k, t in enumerate(pc.terms, start=1)]
    return ProblemSpec(x0, terms, m=m)


def build(cfg, seed_override=None):
    """Turn a RunConfig into spec, plan, and engine params.

    A value of the wrong type or out of range anywhere in the config raises
    ConfigError, whichever constructor or conversion rejects it.  Numbers
    are taken as given, never coerced: a bool or a string is not a number,
    and a count must be integral.
    """
    try:
        return _build(cfg, seed_override)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _build(cfg, seed_override):
    mode = cfg.splitting.schedule.mode
    if mode not in MODES:
        raise ConfigError(f"schedule.mode must be one of {MODES}")

    # the mode pins m before the spec is built
    m_cfg = cfg.splitting.m
    if m_cfg is not None:
        m_cfg = _as_count("splitting.m", m_cfg)
    if mode == "classic":
        if m_cfg not in (None, 0):
            raise ConfigError("classic mode requires m = 0")
        m_probe = 0
    elif mode in ("product", "product-reference"):
        m_probe = None   # needs r first
    else:
        m_probe = m_cfg or 0

    if m_probe is None:
        # build once with m = 0 to learn r, then rebuild lifted
        base = _resolve_terms(cfg.problem, 0, seed_override)
        r = base.r
        want = r - 1 if mode == "product" else 0
        if mode == "product" and m_cfg not in (None, r - 1):
            raise ConfigError(f"product mode forces m = r-1 = {r - 1}")
        spec = ProblemSpec(base.x0, base.terms, m=want)
    else:
        spec = _resolve_terms(cfg.problem, m_probe, seed_override)

    if mode in ("product", "product-reference"):
        for k, t in enumerate(spec.terms, start=1):
            if not isinstance(t, Indicator):
                raise ConfigError(
                    f"{mode} mode needs indicator terms, term {k} is not")

    if mode == "classic":
        plan = classic_dykstra_schedule(spec.r)
    elif mode == "product":
        if spec.r < 2:
            raise ConfigError("product mode needs r >= 2")
        plan = product_space_schedule(spec.r)
    elif mode == "custom":
        if cfg.splitting.schedule.cycles is None:
            raise ConfigError("custom mode needs schedule.cycles")
        plan = plan_from_cycles(cfg.splitting.schedule.cycles)
    else:
        plan = None

    sc = cfg.solve
    params = SolveParams(
        max_iterations=_as_count("solve.max_iterations", sc.max_iterations),
        stop_gap=(None if sc.stop_gap is None
                  else _as_number("solve.stop_gap", sc.stop_gap)),
        nested_bcm_sweeps=_as_count("solve.nested_bcm_sweeps",
                                    sc.nested_bcm_sweeps),
        nested_tol=_as_number("solve.nested_tol", sc.nested_tol),
        workers=_as_count("solve.workers", sc.workers),
        check_level=sc.check_level,
        per_sweep_trace=cfg.output.per_sweep)

    if sc.z_init == "zeros" or sc.z_init is None:
        z_init = None
    else:
        z_init = np.asarray(_numbers(sc.z_init, "solve.z_init"), dtype=float)
        if z_init.shape != (spec.n_duals, spec.d):
            raise ConfigError(
                f"z_init has shape {z_init.shape},"
                f" expected {(spec.n_duals, spec.d)}")
        if not np.isfinite(z_init).all():
            raise ConfigError("z_init must be finite")

    return Built(spec=spec, plan=plan, params=params, mode=mode,
                 output=cfg.output, z_init=z_init)

"""Per-layer tracing from outside the package.

The tracer replaces public dyksplit functions at the name their caller
resolves (a module global or a class attribute) with a wrapper that records
a span, and puts the originals back when it is uninstalled.  Nothing under
``src/`` is modified.

Spans live on an in-memory stack.  When a span closes its duration is added
to its layer's busy time and to the enclosing span's child time, so a
layer's self time is its busy time minus the time covered by its wrapped
children.  Only per-layer aggregates are kept (a run closes millions of
spans); they are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (layer, module, class or None, attribute).  The module named is the one
# whose global the caller resolves at call time: engine imports
# dual_objective_z, fenchel_residual and certificate_points by name, and cli
# imports gap_report by name.
TARGETS = (
    ("terms.prox", "dyksplit.terms", "Indicator", "prox"),
    ("terms.conjugate", "dyksplit.terms", "Indicator", "conjugate"),
    ("terms.value", "dyksplit.terms", "Indicator", "value"),
    ("state.dual_objective", "dyksplit.engine", None, "dual_objective_z"),
    ("state.fenchel", "dyksplit.engine", None, "fenchel_residual"),
    ("state.primal_value", "dyksplit.state", "ProblemSpec", "primal_value"),
    ("state.gap_report", "dyksplit.cli", None, "gap_report"),
    ("schedule.validate", "dyksplit.schedule", None, "validate"),
    ("schedule.rewrite", "dyksplit.schedule", None, "rewrite_deferred"),
    ("config.build", "dyksplit.config", None, "build"),
    ("engine.certificates", "dyksplit.engine", None, "certificate_points"),
    ("engine", "dyksplit.engine", None, "run"),
    ("cli", "dyksplit.cli", None, "main"),
)


class LayerStats:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregating span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.stats = {layer: LayerStats() for layer, *_ in TARGETS}
        self.absent = []
        self.root_busy = 0.0
        self._stack = []
        self._saved = []

    def _owner(self, module, cls):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return None
        return mod if cls is None else getattr(mod, cls, None)

    def install(self):
        self.absent = []
        for layer, module, cls, attr in TARGETS:
            owner = self._owner(module, cls)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                # a later version may drop the name: count it as 0 calls
                self.absent.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            had_own = cls is None or attr in vars(owner)
            self._saved.append((owner, attr, fn, had_own))
            setattr(owner, attr, self._wrap(fn, self.stats[layer]))

    def uninstall(self):
        while self._saved:
            owner, attr, fn, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, st):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                st.calls += 1
                st.busy += dur
                st.self_time += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    tracer.root_busy += dur

        return traced

    def self_sum(self):
        return sum(st.self_time for st in self.stats.values())

    def table(self):
        """Human-readable per-layer summary, one line per layer."""
        lines = [f"{'layer':24s} {'calls':>10s} {'busy_s':>12s} {'self_s':>12s}"]
        for layer, st in self.stats.items():
            lines.append(f"{layer:24s} {st.calls:10d} {st.busy:12.6f}"
                         f" {st.self_time:12.6f}")
        return "\n".join(lines)

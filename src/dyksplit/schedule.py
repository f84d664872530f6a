"""Sweep schedules: construction, touch-pattern validation, deferral rewrite.

A cycle is a finite list of sweeps.  Each sweep names one outer index set S
(solved jointly against the frozen complement) and, in parallel, any number of
inner blocks S'_j, each governed by a distinct quadratic-copy index j held to
a frozen block sum.  Index convention is 1-based throughout this module:
1..r are the proximable terms, r+1..r+m the quadratic copies.

Validity of a plan is a property of its touch pattern:

(A) every dual index is touched at least once per cycle, and
(B) every index whose *last* touch happens inside an inner block S'_j must be
    preceded by an outer solve of j after which no member of that block is
    touched again until the block runs.

Plans that violate (B) only can be repaired by rewrite_deferred, which moves
each offending block to the start of the *next* cycle (prepended sweeps) and
emits one lead-in cycle so the first pass skips the not-yet-earned blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import _as_count


class ScheduleStructureError(ValueError):
    """Malformed plan: overlapping blocks, bad index ranges, empty cycles."""


class UnresolvableDeferralError(ValueError):
    """No deferral rewrite can make the plan satisfy condition (B)."""


def _as_index_set(values, what):
    """values as a frozenset of 1-based indices, each by the integer rule of
    counts (terms._as_count): an integral float is taken, a bool, a string,
    a fractional or non-finite number is not."""
    out = set()
    for v in values:
        i = v
        if type(i) is not int:   # most indices are, and take no conversion
            try:
                i = _as_count(f"{what} index", v)
            except ValueError as exc:
                raise ScheduleStructureError(str(exc)) from None
        if i < 1:
            raise ScheduleStructureError(
                f"{what} contains a non-positive index: {v!r}")
        out.add(i)
    return frozenset(out)


@dataclass(frozen=True, eq=True)
class SweepPlan:
    """One sweep: an outer set and a map of inner blocks keyed by their j."""

    outer: frozenset = frozenset()
    inner: dict = field(default_factory=dict)

    def __post_init__(self):
        outer = _as_index_set(self.outer, "outer set")
        inner = {}
        for j, block in dict(self.inner).items():
            (ji,) = _as_index_set((j,), "block key")
            members = _as_index_set(block, f"block for j={ji}")
            if not members:
                continue
            if ji not in members:
                raise ScheduleStructureError(
                    f"block for j={ji} does not contain j")
            if len(members) < 2:
                raise ScheduleStructureError(
                    f"block for j={ji} must couple j with at least one term index")
            inner[ji] = members
        taken = set(outer)
        for ji, members in inner.items():
            if taken & members:
                raise ScheduleStructureError(
                    f"block for j={ji} overlaps another set in the same sweep")
            taken |= members
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    @property
    def touched(self):
        out = set(self.outer)
        for members in self.inner.values():
            out |= members
        return out


@dataclass(frozen=True, eq=True)
class CyclePlan:
    """Periodic sweep pattern, optionally preceded by explicit lead-in cycles."""

    pattern: tuple = ()
    lead_in: tuple = ()

    def __post_init__(self):
        pattern = tuple(self.pattern)
        if not pattern:
            raise ScheduleStructureError("cycle pattern must contain at least one sweep")
        lead_in = tuple(tuple(c) for c in self.lead_in)
        for c in lead_in:
            if not c:
                raise ScheduleStructureError("lead-in cycles must be nonempty")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "lead_in", lead_in)

    @property
    def w_bar(self):
        return len(self.pattern)

    def cycle(self, n):
        """Sweeps of 1-based cycle n."""
        if n < 1:
            raise IndexError("cycle numbers are 1-based")
        if n <= len(self.lead_in):
            return self.lead_in[n - 1]
        return self.pattern


@dataclass(frozen=True)
class Violation:
    kind: str      # "A" or "B"
    index: int     # 1-based dual index the condition fails for
    cycle: str     # "pattern" or "lead-in k"
    message: str


@dataclass
class CycleAnalysis:
    """Touch-pattern facts for one cycle's sweep list."""

    label: str
    p: dict                  # i -> last sweep touching i
    q: dict                  # i -> matched outer-solve sweep for inner-last i
    via_block: dict          # i -> governing j when the last touch is inner
    block_members: dict      # i -> frozenset, the block at sweep p[i]
    valid_A: bool
    valid_B: bool
    violations: list
    sqrt_growth_ok: bool


@dataclass
class ScheduleAnalysis:
    """Per-cycle analyses plus the aggregate verdicts.

    cycles[0] is always the periodic pattern; lead-in cycles follow in order.
    p and q expose the pattern's maps for convenience.
    """

    cycles: list
    valid_A: bool
    valid_B: bool
    violations: list
    sqrt_growth_ok: bool

    @property
    def pattern(self):
        return self.cycles[0]

    @property
    def p(self):
        return self.cycles[0].p

    @property
    def q(self):
        return self.cycles[0].q

    def for_cycle(self, plan, n):
        """Analysis matching plan.cycle(n)."""
        if n <= len(plan.lead_in):
            return self.cycles[1 + (n - 1)]
        return self.cycles[0]


def _check_ranges(sweeps, r, m, label):
    hi = r + m
    for w, sw in enumerate(sweeps, start=1):
        for i in sw.outer:
            if i > hi:
                raise ScheduleStructureError(
                    f"{label} sweep {w}: outer index {i} out of range 1..{hi}")
        for j, members in sw.inner.items():
            if not (r < j <= hi):
                raise ScheduleStructureError(
                    f"{label} sweep {w}: block key j={j} is not a quadratic"
                    f" index in {r + 1}..{hi}")
            bad = [i for i in members if i != j and not (1 <= i <= r)]
            if bad:
                raise ScheduleStructureError(
                    f"{label} sweep {w}: block for j={j} contains non-term"
                    f" indices {sorted(bad)}")


def _analyze_cycle(sweeps, r, m, label):
    touches = {}   # i -> list of (w, j-or-None)
    for w, sw in enumerate(sweeps, start=1):
        for i in sw.outer:
            touches.setdefault(i, []).append((w, None))
        for j, members in sw.inner.items():
            for i in members:
                touches.setdefault(i, []).append((w, j))

    p, q, via_block, block_members = {}, {}, {}, {}
    violations = []
    for i in range(1, r + m + 1):
        if i not in touches:
            violations.append(Violation(
                kind="A", index=i, cycle=label,
                message=f"(A) violated: index {i} is never touched in {label}"))
            continue
        w_last, j_last = touches[i][-1]
        p[i] = w_last
        if j_last is None:
            continue
        via_block[i] = j_last
        members = sweeps[w_last - 1].inner[j_last]
        block_members[i] = members
        found = None
        for w_cand in range(w_last - 1, 0, -1):
            if j_last not in sweeps[w_cand - 1].outer:
                continue
            window_clean = True
            for w_mid in range(w_cand + 1, w_last):
                if members & sweeps[w_mid - 1].touched:
                    window_clean = False
                    break
            if window_clean:
                found = w_cand
                break
        if found is None:
            violations.append(Violation(
                kind="B", index=i, cycle=label,
                message=(f"(B) violated for index {i}: its last touch is the"
                         f" block for j={j_last} at sweep {w_last} of {label},"
                         f" but no earlier outer solve of {j_last} leaves the"
                         f" block untouched until then")))
        else:
            q[i] = found

    sqrt_ok = all(len(sw.outer) <= 1 for sw in sweeps) and all(
        len(b) == 2 for sw in sweeps for b in sw.inner.values())
    a_bad = {v.index for v in violations if v.kind == "A"}
    b_bad = {v.index for v in violations if v.kind == "B"}
    return CycleAnalysis(
        label=label, p=p, q=q, via_block=via_block, block_members=block_members,
        valid_A=not a_bad, valid_B=not b_bad, violations=violations,
        sqrt_growth_ok=sqrt_ok)


def validate(plan, r, m):
    """Analyze a CyclePlan against problem sizes (r terms, m quadratic copies).

    Raises ScheduleStructureError for malformed plans.  Condition (A)/(B)
    failures are reported in the returned ScheduleAnalysis, not raised.
    """
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    _check_ranges(plan.pattern, r, m, "pattern")
    for k, c in enumerate(plan.lead_in, start=1):
        _check_ranges(c, r, m, f"lead-in {k}")
    cycles = [_analyze_cycle(plan.pattern, r, m, "pattern")]
    for k, c in enumerate(plan.lead_in, start=1):
        cycles.append(_analyze_cycle(c, r, m, f"lead-in {k}"))
    violations = [v for c in cycles for v in c.violations]
    return ScheduleAnalysis(
        cycles=cycles,
        valid_A=all(c.valid_A for c in cycles),
        valid_B=all(c.valid_B for c in cycles),
        violations=violations,
        sqrt_growth_ok=all(c.sqrt_growth_ok for c in cycles))


def classic_dykstra_schedule(r):
    """One index per sweep, 1..r in order; for plain problems (m = 0)."""
    if r < 1:
        raise ValueError("need r >= 1")
    return CyclePlan(pattern=tuple(SweepPlan(outer={i}) for i in range(1, r + 1)))


def product_space_schedule(r):
    """Two-sweep cycle matching the simultaneous-projection lifting (m = r-1).

    Sweep 1 solves all quadratic copies jointly; sweep 2 runs the last term as
    an outer solve and couples each copy j to term j-r in a two-point block.
    """
    if r < 2:
        raise ValueError("the product-space schedule needs r >= 2")
    quads = frozenset(range(r + 1, 2 * r))
    blocks = {j: frozenset({j - r, j}) for j in quads}
    return CyclePlan(pattern=(
        SweepPlan(outer=quads),
        SweepPlan(outer={r}, inner=blocks),
    ))


def rewrite_deferred(plan, r, m):
    """Move every (B)-violating inner block to the start of the next cycle.

    Returns the plan unchanged when (B) already holds.  Otherwise the pattern
    gains one prepended sweep per deferred block (original sweep order kept)
    and loses those blocks from their old sweeps, and a single lead-in cycle
    is added that replaces the deferred sweeps with empty ones.  Raises
    UnresolvableDeferralError when a violating block's j never gets an outer
    solve, or when one deferral pass still leaves (B) unsatisfied.
    """
    analysis = validate(plan, r, m)
    if analysis.valid_B:
        return plan
    if plan.lead_in:
        raise ScheduleStructureError(
            "deferral rewrite is defined for periodic plans without lead-in cycles")

    pat = analysis.pattern
    deferred = sorted({(pat.p[v.index], pat.via_block[v.index])
                       for v in pat.violations if v.kind == "B"})
    outer_js = {j for sw in plan.pattern for j in sw.outer}
    orphans = [j for _, j in deferred if j not in outer_js]
    if orphans:
        raise UnresolvableDeferralError(
            f"blocks governed by {sorted(set(orphans))} can never satisfy (B):"
            f" those indices have no outer solve in the pattern")

    stripped = []
    for w, sw in enumerate(plan.pattern, start=1):
        inner = {j: b for j, b in sw.inner.items() if (w, j) not in deferred}
        stripped.append(SweepPlan(outer=sw.outer, inner=inner))
    prepend = [SweepPlan(inner={j: plan.pattern[w - 1].inner[j]})
               for w, j in deferred]
    new_pattern = tuple(prepend) + tuple(stripped)
    lead = tuple([SweepPlan()] * len(prepend)) + tuple(stripped)
    out = CyclePlan(pattern=new_pattern, lead_in=(lead,))

    check = validate(out, r, m)
    if not check.valid_B:
        first = next(v for v in check.violations if v.kind == "B")
        raise UnresolvableDeferralError(
            f"deferral did not repair the plan: {first.message}")
    return out

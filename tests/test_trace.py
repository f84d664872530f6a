"""The run's trace: rows built from typed columns, and the trace writer."""

import builtins
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import dyksplit as dk
from dyksplit import engine, fixtures
from dyksplit.cli import TRACE_COLUMNS, _write_trace
from dyksplit.engine import TraceRow

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:   # only the movement sums' property needs it
    given = None

from . import test_engine
from .test_check_batches import _assert_same_result, _neumaier_sum


def _deferred_run(level="sweep", per_sweep=True, cycles=11):
    # a lead-in cycle of its own sweeps, blocks of one and four members,
    # and an approximate nested fallback in every cycle
    return dk.run(fixtures.random_mixed(8, 8, 6, m=2),
                  test_engine._custom_nested_plan(),
                  dk.SolveParams(max_iterations=cycles, check_level=level,
                                 per_sweep_trace=per_sweep))


@pytest.mark.parametrize("sweeps", [False, True])
def test_trace_rows_are_a_read_only_sequence(sweeps):
    res = _deferred_run()
    rows = res.sweep_rows if sweeps else res.cycle_rows
    assert isinstance(rows, dk.TraceRows)
    listed = list(rows)
    assert len(rows) == len(listed) > 9
    assert all(type(row) is TraceRow for row in listed)
    assert not hasattr(listed[0], "__dict__")   # slotted
    for k in (0, 1, 8, 9, 10, len(rows) - 1, -1, -2, -len(rows)):
        assert rows[k] == listed[k]
    assert rows[np.int64(3)] == listed[3]
    for s in (slice(None), slice(2, 7), slice(-5, None), slice(None, None, 3),
              slice(None, None, -1), slice(7, 2)):
        assert rows[s] == listed[s]
    for k in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[k]
    assert rows == listed and listed == rows
    assert rows == tuple(listed)
    assert rows != listed[:-1]
    assert rows != listed[:-1] + [TraceRow(0, 0, None, 0.0, {}, None, None,
                                           None, False)]
    assert rows != None   # noqa: E711
    # a row is built on each access: changing one leaves the trace as it is
    rows[0].F = None
    rows[0].inner_diffs[99] = 1.0
    assert rows[0] == listed[0]
    with pytest.raises(TypeError):
        rows[0] = listed[0]
    with pytest.raises(TypeError):
        hash(rows)


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
def test_cycle_rows_agree_with_the_result_arrays(level):
    res = _deferred_run(level)
    rows = res.cycle_rows
    assert len(rows) == res.cycles_run == 11
    assert [row.n for row in rows] == list(range(1, 12))
    # the lead-in cycle has its own sweep count
    assert [row.w for row in rows] == [len(
        test_engine._custom_nested_plan().cycle(n)) for n in range(1, 12)]
    assert [row.gamma_n for row in rows] == res.gamma.tolist()
    assert [row.growth_monitor for row in rows] == res.growth.tolist()
    assert [row.F for row in rows] == res.F_per_cycle.tolist()
    assert all(row.inner_diffs == {} for row in rows)
    assert all(row.approx for row in rows) and res.any_approx
    certs = [row.cert_max_residual for row in rows]
    if level == "off":
        assert certs == [None] * 11
    else:
        assert all(type(c) is float for c in certs)
        assert certs[-1] == max(c.residual for c in res.certificates)
    # the arrays are read-only views of the columns the rows read
    for name in ("gamma", "growth", "F_per_cycle", "sq_diff_cumsum"):
        assert not getattr(res, name).flags.writeable


@pytest.mark.parametrize("level", ["off", "sweep", "full"])
def test_sweep_rows_partition_each_cycle(level):
    plan = test_engine._custom_nested_plan()
    res = _deferred_run(level)
    sweeps = list(res.sweep_rows)
    k = 0
    for cycle in res.cycle_rows:
        part = sweeps[k:k + cycle.w]
        k += cycle.w
        assert [row.n for row in part] == [cycle.n] * cycle.w
        assert [row.w for row in part] == list(range(1, cycle.w + 1))
        for row, sweep in zip(part, plan.cycle(cycle.n)):
            assert list(row.inner_diffs) == sorted(sweep.inner)
        *inner, last = part
        for row in inner:
            assert (row.gamma_n, row.growth_monitor,
                    row.cert_max_residual) == (None, None, None)
        assert (last.gamma_n, last.growth_monitor,
                last.cert_max_residual) == (cycle.gamma_n,
                                            cycle.growth_monitor,
                                            cycle.cert_max_residual)
        assert cycle.approx == any(row.approx for row in part)
        # gamma_n adds every movement of the cycle's sweeps in order
        gamma = 0.0
        for row in part:
            gamma += row.v_diff + math.fsum([0.0, *row.inner_diffs.values()])
        assert gamma == pytest.approx(cycle.gamma_n, rel=1e-12)
        if level == "off":   # no sweep has an objective
            assert all(row.F is None for row in part)
        else:
            assert all(type(row.F) is float for row in part)
            assert last.F == cycle.F
    assert k == len(sweeps)


def test_cycle_rows_do_not_depend_on_the_per_sweep_trace():
    with_sweeps, without = _deferred_run(), _deferred_run(per_sweep=False)
    assert without.sweep_rows is None
    assert with_sweeps.cycle_rows == without.cycle_rows


def _reference_trace(path, fmt, rows, meta):
    """The trace as one json.dumps per row and ",".join per CSV line."""
    def fmt_float(x):
        return "" if x is None else repr(float(x))

    if fmt == "csv":
        lines = []
        if meta.get("schedule_rewritten"):
            lines.append("# schedule auto-deferred: (B)-violating blocks"
                         " moved to cycle starts")
        lines.append(",".join(TRACE_COLUMNS))
        for row in rows:
            lines.append(",".join([
                str(row.n), str(row.w), fmt_float(row.F),
                fmt_float(row.v_diff), fmt_float(row.gamma_n),
                fmt_float(row.growth_monitor),
                fmt_float(row.cert_max_residual),
                "1" if row.approx else "0"]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    with open(path, "w") as fh:
        fh.write(f'{{"meta": {json.dumps(meta)}, "rows": [')
        sep = "\n"
        for row in rows:
            fh.write(sep + json.dumps({
                "n": row.n, "w": row.w, "F": row.F, "v_diff": row.v_diff,
                "inner_diffs": {str(j): v for j, v in row.inner_diffs.items()},
                "gamma_n": row.gamma_n, "growth_monitor": row.growth_monitor,
                "cert_max_residual": row.cert_max_residual,
                "approx_flag": row.approx}))
            sep = ",\n"
        fh.write("\n]}\n")


_INF, _NAN = float("inf"), float("nan")
_ODD_ROWS = [
    TraceRow(1, 3, None, 0.0, {}, None, None, None, False),
    TraceRow(1, 3, -_INF, 1e-300, {2: 0.1, 10: 5e-324}, 0.30000000000000004,
             None, None, True),
    TraceRow(2, 3, _NAN, _INF, {7: _NAN, 8: -_INF, 9: _INF}, _INF, _NAN,
             -0.0, False),
    TraceRow(12, 1, -1.5e300, 1.0, {3: 2.0}, 1e16, 123456789.0, 1e-7, True),
    # rows built by hand may hold ints and numpy floats
    TraceRow(13, 2, 0, -3, {4: 0, 5: np.float64(0.1)}, 1, np.float64(_NAN),
             np.float64(2.5), False),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("rewritten", [False, True])
def test_trace_writer_gives_the_bytes_of_the_reference_encoder(
        tmp_path, fmt, rewritten):
    meta = {"stop_reason": "gap", "cycles": 2, "F": -1.25,
            "schedule_rewritten": rewritten, "any_approx": True}
    res = _deferred_run("full", cycles=150)   # over 64 lines per write
    cases = [_ODD_ROWS, [], _ODD_ROWS[:1], res.sweep_rows, res.cycle_rows,
             list(res.sweep_rows)]
    for k, rows in enumerate(cases):
        ours, ref = tmp_path / f"ours{k}", tmp_path / f"ref{k}"
        _write_trace(str(ours), fmt, rows, meta)
        _reference_trace(str(ref), fmt, list(rows), meta)
        assert ours.read_bytes() == ref.read_bytes()
    if fmt == "json":   # NaN and the infinities as json writes them
        text = (tmp_path / "ours0").read_text()
        assert '"F": NaN, "v_diff": Infinity' in text
        assert '"inner_diffs": {"7": NaN, "8": -Infinity, "9": Infinity}' \
            in text
        assert json.loads(text)["rows"][0]["F"] is None


def test_movements_keep_their_bits_under_a_compensated_sum(monkeypatch):
    # gamma_n and the squared movements add the block movements left to
    # right whatever sum() does: Python 3.12 compensates a float sum
    spec = fixtures.random_halfspaces(1, 8, 3, m=7)
    plan = dk.product_space_schedule(8)
    params = dk.SolveParams(max_iterations=60, check_level="sweep",
                            per_sweep_trace=True)
    plain = dk.run(spec, plan, params)
    monkeypatch.setattr(builtins, "sum", _neumaier_sum)
    _assert_same_result(dk.run(spec, plan, params), plain)


def _scalar_movement_sums(v, moves, sweeps, margins):
    """gamma_n, the sum of squared movements and the sum of dual-sum moves
    of sweeps 1..len(v), and their margins, by the scalar formula: every
    sweep, left to right from 0.0."""
    gamma = sq = v_sum = 0.0
    k = 0
    for w, v_diff in enumerate(v):
        inner_sum = inner_sq = 0.0
        for d in moves[k:k + len(sweeps[w].block_js)]:
            inner_sum += d
            inner_sq += d * d
        k += len(sweeps[w].block_js)
        gamma += v_diff + inner_sum
        sq += v_diff * v_diff + inner_sq
        v_sum += v_diff
        margins[w] = 0.5 * v_diff * v_diff + 0.5 * inner_sq
    return gamma, sq, v_sum


if given is not None:
    # mostly exact zeros, the moves of still and skipped sweeps, then any
    # size down to the subnormals, and an overflow's inf and inf - inf
    _MOVES = st.one_of(
        st.just(0.0), st.just(0.0), st.just(-0.0),
        st.floats(min_value=0.0, max_value=1e300),
        st.sampled_from([5e-324, 1e-160, 1e160, math.inf, math.nan]))


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_movement_sums_match_the_scalar_formula_bit_for_bit():
    # a cycle's movement sums pass over each sweep without blocks that
    # moved nothing, and only zero its margin: every result
    # has the bits of the scalar formula, also for the sweeps before a
    # non-finite one (the prefix v_diffs[:w - 1] of a cycle's moves)
    seen = []

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(st.lists(st.tuples(_MOVES, st.lists(_MOVES, max_size=3)),
                    min_size=1, max_size=12),
           st.booleans(), st.data())
    def check(cycle, blocks, data):
        if not blocks:
            cycle = [(v_diff, []) for v_diff, _ in cycle]
        W = len(cycle)
        sweeps = [SimpleNamespace(block_js=tuple(range(len(moves))))
                  for _, moves in cycle]
        v = np.array([v_diff for v_diff, _ in cycle])
        moves = np.array([d for _, m in cycle for d in m], dtype=float)
        for u in (W, data.draw(st.integers(0, W - 1), label="prefix")):
            ours, ref = np.full(W, 7.0), np.full(W, 7.0)
            got = engine._movement_sums(v[:u], moves, sweeps, ours)
            want = _scalar_movement_sums(v[:u].tolist(), moves.tolist(),
                                         sweeps, ref)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert ours.tobytes() == ref.tobytes()
        seen.append(bool(moves.size))

    check()
    assert len(seen) >= 300 and 0 < sum(seen) < len(seen)

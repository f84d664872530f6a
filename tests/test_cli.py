"""End-to-end command-line checks through main(argv)."""

import json
import zlib

import numpy as np
import pytest

import dyksplit as dk
from dyksplit.cli import TRACE_COLUMNS, main
from dyksplit.config import (ConfigError, RunConfig, build, term_from_dict,
                             term_to_dict)

from .support import TERM_KINDS, sample_term

ANGLES = [0.0, 100.0, 215.0]


def _corner_problem():
    return {"x0": [1.0, 1.0],
            "terms": [{"kind": "halfspace", "a": [1.0, 0.0], "b": 0.0},
                      {"kind": "halfspace", "a": [0.0, 1.0], "b": 0.0}]}


def _vertex_problem():
    terms = [{"kind": "halfspace",
              "a": [float(np.cos(np.deg2rad(t))), float(np.sin(np.deg2rad(t)))],
              "b": b}
             for t, b in zip(ANGLES, [0.05, 0.1, 0.08])]
    return {"x0": [1.2, 0.9], "terms": terms}


def _dump(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_solve_gap_exit_zero(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    path = _dump(tmp_path, "run.json", {
        "problem": _corner_problem(),
        "solve": {"stop_gap": 1e-10, "max_iterations": 50},
        "output": {"trace_path": str(trace)}})
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "stop: gap" in out
    assert "x: [0.0, 0.0]" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 2        # one cycle, one row


def test_solve_cap_exit_two(tmp_path, capsys):
    path = _dump(tmp_path, "run.json", {
        "problem": _vertex_problem(),
        "solve": {"stop_gap": 1e-14, "max_iterations": 3}})
    assert main(["solve", path]) == 2
    assert "stop: max_iterations" in capsys.readouterr().out


def test_solve_bad_config_exit_one(tmp_path, capsys):
    path = _dump(tmp_path, "run.json", {"problem": _corner_problem(),
                                        "solver": {}})
    assert main(["solve", path]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"problem": None},
    {"solve": 5},
    {"problem": _corner_problem(), "splitting": {"schedule": None}},
    [_corner_problem()],
], ids=["problem-null", "solve-number", "schedule-null", "config-list"])
def test_solve_non_object_section_exit_one(tmp_path, capsys, cfg):
    path = _dump(tmp_path, "run.json", cfg)
    assert main(["solve", path]) == 1
    assert "must be a JSON object" in capsys.readouterr().err


_NAN, _INF = float("nan"), float("inf")


def _custom(m, pattern):
    return {"m": m, "schedule": {"mode": "custom",
                                 "cycles": {"pattern": pattern}}}


# non-finite values, then values of the wrong type; every one is reported as
# a config error, not a traceback, and some with a message of their own
@pytest.mark.parametrize("cfg,match", [
    ({"problem": {"x0": [1.0, 1.0],
                  "terms": [{"kind": "halfspace", "a": [1.0, 0.0],
                             "b": _INF}]}}, None),
    ({"problem": {"x0": [1.0, 1.0],
                  "terms": [{"kind": "l2ball", "center": [0.0, 0.0],
                             "radius": _NAN}]}}, None),
    ({"problem": {"x0": [_NAN, 1.0], "terms": _corner_problem()["terms"]}},
     None),
    ({"problem": _corner_problem(), "solve": {"stop_gap": _NAN}}, None),
    ({"problem": _corner_problem(), "solve": {"nested_tol": _NAN}}, None),
    ({"problem": _corner_problem(),
      "solve": {"z_init": [[_NAN, 0.0], [0.0, 0.0]]}}, None),
    ({"problem": _corner_problem(), "solve": {"max_iterations": None}}, None),
    ({"problem": _corner_problem(), "solve": {"nested_tol": [1]}}, None),
    ({"problem": _corner_problem(), "solve": {"stop_gap": {}}}, None),
    ({"problem": {"x0": [1.0, 1.0],
                  "terms": [{"kind": "halfspace", "a": [1.0, 0.0],
                             "b": None}]}}, None),
    ({"problem": {"x0": "abc", "terms": _corner_problem()["terms"]}}, None),
    ({"problem": {"x0": [1.0, 1.0], "terms": [5]}},
     "term 1 must be a JSON object, not int"),
    ({"problem": _corner_problem(),
      "splitting": _custom("x", [{"outer": [1]}])}, None),
    ({"problem": _corner_problem(),
      "splitting": _custom(0, [{"outer": ["a"]}])}, None),
    ({"problem": _corner_problem(), "solve": {"max_iterations": 2.7}},
     "solve.max_iterations must be an integer, not 2.7"),
    ({"problem": _corner_problem(), "output": {"per_sweep": "false"}},
     "output.per_sweep must be true or false, not 'false'"),
    ({"problem": {"x0": [1.0, 1.0],
                  "terms": [{"kind": "halfspace", "a": [1.0, 0.0],
                             "b": True}]}},
     "bad halfspace term: b must be a number, not True"),
    ({"problem": _corner_problem(), "solve": {"stop_gap": True}},
     "solve.stop_gap must be a number, not True"),
    ({"problem": _corner_problem(), "solve": {"nested_tol": "1e-12"}},
     "solve.nested_tol must be a number, not '1e-12'"),
    ({"problem": _corner_problem(), "solve": {"workers": 1.5}},
     "solve.workers must be an integer, not 1.5"),
    ({"problem": _corner_problem(), "solve": {"nested_bcm_sweeps": False}},
     "solve.nested_bcm_sweeps must be an integer, not False"),
    ({"problem": _corner_problem(), "splitting": {"m": 0.5}},
     "splitting.m must be an integer, not 0.5"),
    ({"problem": _corner_problem(), "output": {"per_sweep": 1}},
     "output.per_sweep must be true or false, not 1"),
], ids=["halfspace-b-inf", "ball-radius-nan", "x0-nan", "stop-gap-nan",
        "nested-tol-nan", "z-init-nan", "max-iterations-null",
        "nested-tol-list", "stop-gap-object", "halfspace-b-null", "x0-string",
        "term-number", "m-string", "sweep-index-string",
        "max-iterations-fraction", "per-sweep-string", "halfspace-b-bool",
        "stop-gap-bool", "nested-tol-string", "workers-fraction",
        "nested-bcm-sweeps-bool", "m-fraction", "per-sweep-number"])
def test_solve_non_finite_config_exit_one(tmp_path, capsys, cfg, match):
    path = _dump(tmp_path, "run.json", cfg)
    assert main(["solve", path]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if match is not None:
        assert f"error: {match}\n" in err


@pytest.mark.parametrize("value,ok", [
    (3, True), (3.0, True), (2.7, False), (True, False), ("3", False),
    (float("inf"), False)])
def test_config_integers_are_strict(value, ok):
    cfg = RunConfig.from_dict({"problem": _corner_problem(),
                               "solve": {"max_iterations": value}})
    if ok:
        assert build(cfg).params.max_iterations == 3
    else:
        with pytest.raises(ConfigError, match="must be an integer"):
            build(cfg)


def test_validate_classic_ok(tmp_path, capsys):
    path = _dump(tmp_path, "run.json", {"problem": _vertex_problem()})
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "schedule valid" in out
    assert "p: {1: 1, 2: 2, 3: 3}" in out


_DEFERRED_CYCLES = {"pattern": [
    {"outer": [3]},
    {"outer": [1]},
    {"outer": [2], "blocks": {"3": [1, 3]}},
    {"outer": [4], "blocks": {"3": [2, 3]}},
]}


def _deferred_config(extra_solve=None, trace=None):
    cfg = {"problem": {"x0": [1.1, 0.7],
                       "terms": [{"kind": "halfspace", "a": [1.0, 0.0],
                                  "b": 0.2},
                                 {"kind": "halfspace",
                                  "a": [0.6, 0.8], "b": 0.1}]},
           "splitting": {"m": 2, "schedule": {"mode": "custom",
                                              "cycles": _DEFERRED_CYCLES}},
           "solve": {"stop_gap": 1e-11, "max_iterations": 600}}
    if extra_solve:
        cfg["solve"].update(extra_solve)
    if trace:
        cfg["output"] = {"trace_path": trace}
    return cfg


def test_validate_flags_deferred_blocks(tmp_path, capsys):
    path = _dump(tmp_path, "run.json", _deferred_config())
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "schedule INVALID" in out
    assert "violation:" in out


def test_solve_refuses_invalid_schedule(tmp_path, capsys):
    path = _dump(tmp_path, "run.json", _deferred_config())
    assert main(["solve", path]) == 1
    cap = capsys.readouterr()
    assert "schedule violation:" in cap.out
    assert "--auto-defer" in cap.err


def test_solve_auto_defer_rewrites_and_converges(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    path = _dump(tmp_path, "run.json", _deferred_config(trace=str(trace)))
    assert main(["solve", path, "--auto-defer"]) == 0
    out = capsys.readouterr().out
    assert "schedule rewritten: 2 deferred block sweep(s)" in out
    assert "stop: gap" in out
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# schedule auto-deferred")
    assert lines[1] == ",".join(TRACE_COLUMNS)


def test_compare_product_modes_equivalent(tmp_path, capsys):
    base = {"problem": _vertex_problem()}
    a = dict(base, splitting={"schedule": {"mode": "product"}})
    b = dict(base, splitting={"schedule": {"mode": "product-reference"}})
    pa = _dump(tmp_path, "a.json", a)
    pb = _dump(tmp_path, "b.json", b)
    assert main(["compare", pa, pb, "--cycles", "40"]) == 0
    assert "equivalent to 1e-9" in capsys.readouterr().out
    assert main(["compare", pa, pb, "--cycles", "5", "--report"]) == 0
    report = capsys.readouterr().out
    assert "cycle  max dual difference" in report
    assert "final x difference:" in report


def test_compare_rejects_mismatched_problems(tmp_path, capsys):
    a = {"problem": _vertex_problem(),
         "splitting": {"schedule": {"mode": "product"}}}
    b = {"problem": _corner_problem(),
         "splitting": {"schedule": {"mode": "product-reference"}}}
    pa = _dump(tmp_path, "a.json", a)
    pb = _dump(tmp_path, "b.json", b)
    assert main(["compare", pa, pb]) == 1
    assert "different problems" in capsys.readouterr().err


@pytest.mark.parametrize("cycles", ["0", "-3"])
def test_compare_rejects_cycles_below_one(tmp_path, capsys, cycles):
    path = _dump(tmp_path, "a.json", {"problem": _corner_problem()})
    assert main(["compare", path, path, "--cycles", cycles]) == 1
    assert "error: --cycles must be at least 1" in capsys.readouterr().err


def test_solve_trace_identical_across_workers(tmp_path, capsys):
    texts = []
    for w in (1, 2, 8):
        trace = tmp_path / f"trace_{w}.csv"
        cfg = {"problem": _vertex_problem(),
               "splitting": {"schedule": {"mode": "product"}},
               "solve": {"max_iterations": 40},
               "output": {"trace_path": str(trace)}}
        path = _dump(tmp_path, f"run_{w}.json", cfg)
        assert main(["solve", path, "--workers", str(w)]) == 2
        err = capsys.readouterr().err
        assert err.count("--workers is deprecated and ignored") == 1
        texts.append(trace.read_text())
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("flag", [[], ["--workers", "2"]])
def test_config_workers_prints_one_note(tmp_path, capsys, flag):
    # the config key's DeprecationWarning comes from inside the library and
    # is hidden by Python's default filters, so the CLI says it itself
    cfg = {"problem": _vertex_problem(),
           "splitting": {"schedule": {"mode": "product"}},
           "solve": {"max_iterations": 5, "workers": 4}}
    path = _dump(tmp_path, "run.json", cfg)
    with pytest.warns(DeprecationWarning, match="workers"):
        assert main(["solve", path, *flag]) == 2
    err = capsys.readouterr().err
    assert err.count("deprecated and ignored; sweeps run serially") == 1
    with pytest.warns(DeprecationWarning, match="workers"):
        assert main(["compare", path, path, "--cycles", "3", *flag]) == 0
    err = capsys.readouterr().err
    assert err.count("deprecated and ignored; sweeps run serially") == 1
    cfg["solve"]["workers"] = 1
    path = _dump(tmp_path, "one.json", cfg)
    assert main(["solve", path]) == 2
    assert "deprecated" not in capsys.readouterr().err


def test_oracle_feasible(tmp_path, capsys):
    path = _dump(tmp_path, "run.json", {"problem": _corner_problem()})
    assert main(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert "x_star: [0.0, 0.0]" in out
    assert "alpha: 1.0" in out


def test_oracle_infeasible_exit_three(tmp_path, capsys):
    cfg = {"problem": {"x0": [0.5, 0.0],
                       "terms": [{"kind": "halfspace", "a": [1.0, 0.0],
                                  "b": 0.0},
                                 {"kind": "halfspace", "a": [-1.0, 0.0],
                                  "b": -1.0}]}}
    path = _dump(tmp_path, "run.json", cfg)
    assert main(["oracle", path]) == 3
    assert "infeasible" in capsys.readouterr().out


def test_oracle_reference_route(tmp_path, capsys):
    cfg = {"problem": {"x0": [3.0, 0.0],
                       "terms": [{"kind": "l2ball", "center": [0.0, 0.0],
                                  "radius": 1.0}]}}
    path = _dump(tmp_path, "run.json", cfg)
    assert main(["oracle", path, "--reference"]) == 0
    out = capsys.readouterr().out
    assert "x_star: [1.0, 0.0]" in out
    assert "alpha: 2.0" in out


def test_generated_problem_seed_override(tmp_path, capsys):
    cfg = {"problem": {"generator": {"kind": "halfspaces", "r": 3, "dim": 3,
                                     "seed": 5}},
           "solve": {"stop_gap": 1e-9, "max_iterations": 2000}}
    path = _dump(tmp_path, "run.json", cfg)
    assert main(["solve", path]) == 0
    first = capsys.readouterr().out
    assert main(["solve", path, "--seed", "6"]) == 0
    second = capsys.readouterr().out
    assert first != second


def test_config_round_trip():
    cfg = RunConfig.from_dict({
        "problem": _vertex_problem(),
        "splitting": {"m": 2, "schedule": {"mode": "custom",
                                           "cycles": _DEFERRED_CYCLES}},
        "solve": {"stop_gap": 1e-9, "workers": 4, "z_init": "zeros"},
        "output": {"format": "json", "per_sweep": True}})
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("kind", TERM_KINDS)
def test_term_dict_round_trip(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    d = 4
    t = sample_term(kind, rng, d)
    once = term_to_dict(t)
    assert once["kind"] == kind
    assert term_to_dict(term_from_dict(once, d)) == once
    assert json.loads(json.dumps(once)) == once


def test_json_trace_contains_inner_diffs(tmp_path):
    trace = tmp_path / "trace.json"
    cfg = _deferred_config(extra_solve={"per_sweep": None})
    cfg["solve"].pop("per_sweep")
    cfg["output"] = {"trace_path": str(trace), "format": "json",
                     "per_sweep": True}
    cfg["solve"]["max_iterations"] = 4
    cfg["solve"]["stop_gap"] = None
    path = _dump(tmp_path, "run.json", cfg)
    assert main(["solve", path, "--auto-defer"]) == 2
    payload = json.loads(trace.read_text())
    assert payload["meta"]["schedule_rewritten"] is True
    assert payload["meta"]["stop_reason"] == "max_iterations"
    rows = payload["rows"]
    assert any(row["inner_diffs"] for row in rows)
    assert all(row["approx_flag"] is False for row in rows)

"""Smoke test: every workload once at a tiny size, untraced and traced.

    python3 perfbench/test_smoke.py
    python3 -m pytest perfbench/test_smoke.py

Asserts that each run exits 0, that every metric named in BENCHMARK.json is
emitted with its unit, that no solve failed (fail_frac == 0), and that the
benchmark refuses to run in a directory without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--instances", "2"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(workload, trace, section):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    return lines, result


def check_workload(workload):
    lines, result = check_run(workload, 0, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    fail_frac = [line.split() for line in lines
                 if line.split()[:1] == ["fail_frac"]]
    assert fail_frac == [["fail_frac", "0.0", "ratio"]]
    check_run(workload, 1, "per_layer")


def test_classic_checked():
    check_workload("classic-checked")


def test_product_lean():
    check_workload("product-lean")


def test_custom_cli():
    check_workload("custom-cli")


def test_tracer_reports_absent_names_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    from dyksplit import engine

    original = engine.run
    missing = ("gone.layer", "dyksplit.engine", None, "no_such_function")
    saved = tracer.TARGETS
    tracer.TARGETS = saved + (missing,)
    try:
        t = tracer.Tracer()
        with t:
            assert engine.run is not original
        assert t.absent == ["dyksplit.engine.no_such_function"]
        assert t.stats["gone.layer"].calls == 0
        assert engine.run is original
    finally:
        tracer.TARGETS = saved


def test_refuses_without_sources():
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:   # a benchmark run still uses it
            pass


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")

"""Self-test of the benchmark at tiny sizes (8-rank rings, one micro
size, class T NAS).

    python3 -m pytest -q perfbench/test_selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 300


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the benchmark at tiny size from ``cwd``."""
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0",
           "--scale", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_benchmark():
    import run

    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, unit) for name, unit, _kind in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"]
                                      for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "5",
                 "--trace", str(trace))
    out = result(proc)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in spec}
    lines = proc.stdout.splitlines()[:-1]
    for m in spec:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[1:2] == [m["name"]]
                   and line.split()[-1] == m["unit"] for line in lines), \
            f"{m['name']} not printed with unit {m['unit']}"
    assert "fail_ratio 0" in proc.stdout


def test_corrupted_payload_raises_fail_ratio():
    proc = bench(ROOT, "--workload", "mesh-ring", "--seed", "5",
                 "--trace", "0", "--corrupt")
    out = result(proc)
    assert out["correct"] is False
    assert 0 < out["failed"] < out["attempted"]
    ratio = float(proc.stdout.split("fail_ratio ")[1].split()[0])
    assert ratio == pytest.approx(out["failed"] / out["attempted"], rel=1e-5)
    assert ratio > 0
    assert "corrupt payload" in proc.stdout


def test_headline_rows_reproduce_the_library():
    import run
    wl = run.import_program()
    from repro.bench.figures import headline

    rows = wl.headline_rows(wl.Rep(), seed=11)
    assert [(r, p, m) for r, p, m in rows] == [
        (row, v["paper"], v["measured"]) for row, v in headline().items()]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "mesh-ring", "--seed", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""Smoke test: every workload at the tiny scale prints every metric it names.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int) -> tuple[str, dict]:
    proc = bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed(workload, trace):
    stdout, result = tiny_run(workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert "failed_frac  0.0 ratio" in stdout
        assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_categories_stay_in_their_workload(workload):
    _, first = tiny_run(workload, 1)
    again = json.loads(
        bench(
            ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", "1", "--scale", "tiny",
        ).stdout.splitlines()[-1]
    )
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B", "calls/step")}
    for name in counts:
        assert first["metrics"][name] == again["metrics"][name], name
    for name in counts:
        if name.startswith("categories.") or name.startswith("universe.carrier_at"):
            used = first["metrics"][name]["value"] > 0
            assert used == (workload == "functor-mimicry"), name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

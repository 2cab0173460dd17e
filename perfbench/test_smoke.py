"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is reported with its unit,
that the correctness gates ran, and that the benchmark refuses to run
without the package sources. Gate outcomes are not asserted: the bands are
set for the full sizes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in report["metrics"].items()} == expected
    gates = [line for line in lines if line.startswith("gates: ")]
    assert gates and int(gates[0].split()[1]) > 0, proc.stdout
    assert any(line.startswith("failed_frac") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = _bench(tmp_path, WORKLOAD_NAMES[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, -1],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child", 5.0, 6.0, 0, 1],
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_removed_name_is_reported_absent():
    t = tracer.Tracer()
    assert not t.wrap(tracer, "no_such_function", "gone.function")
    assert t.absent == ["gone.function"]

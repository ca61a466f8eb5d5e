"""Smoke tests of the benchmark at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q
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
sys.path.insert(0, str(HERE))

from common import END_TO_END, PER_LAYER, fingerprint  # noqa: E402
from compare import refusal  # noqa: E402
from spans import nesting_errors, self_times  # noqa: E402

WORKLOADS = ("soa-100k", "sharded2-100k", "service-sweep")


def run_bench(workload: str, trace: int, cwd: Path = ROOT,
              script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalogue = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(catalogue)
    report = "\n".join(lines[:-1])
    for name, (unit, _better) in catalogue.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in report.splitlines() if line.startswith("  ")
        ), f"{name} [{unit}] missing from the report"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_are_not_negative(workload):
    out = run_bench(workload, 1)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    stem = f"{workload}-seed5-trace1"
    record = json.loads((ROOT / ".perfbench_out" / f"{stem}.json").read_text())
    spans = json.loads((ROOT / record["spans_file"]).read_text())
    assert spans and spans[0]["name"] == "workload"
    assert nesting_errors(spans) == []
    assert min(self_times(spans)) >= 0.0
    assert record["trace_summary"]["coverage"] >= 0.95


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("soa-100k", 0, cwd=tmp_path,
                    script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_compare_refuses_records_from_another_machine():
    record = {"workload": "soa-100k", "seconds": 20, "scale": 1.0,
              "fingerprint": fingerprint()}
    assert refusal([record, dict(record)]) == ""
    other = dict(record, fingerprint=dict(record["fingerprint"], cores=1))
    assert "different machines" in refusal([record, other])

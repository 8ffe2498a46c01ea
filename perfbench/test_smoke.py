"""Smoke test of the benchmark itself: every workload at tiny sizes, both modes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
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

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the per-command figures each workload prints besides the gated metrics
WORKLOAD_METRICS = {
    "solve_mid": ["setup_s", "analyze_s", "reconstruct_s", "peak_rss_mb",
                  "roundtrip_max_err", "failed_ratio"],
    "io_large": ["setup_s", "generate_s", "plotdata_s", "peak_rss_mb", "failed_ratio"],
    "batch_small": ["setup_s", "roundtrip_p50_ms", "roundtrip_p95_ms", "series_per_s",
                    "roundtrip_max_err", "failed_ratio"],
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, m in result["metrics"].items():
        # the traced-minus-untraced difference is noise and may be negative
        assert name == "trace.overhead_s" or m["value"] > 0, name

    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed7-trace{trace}.json").read_text())
    assert set(record["env"]) == {"python", "numpy", "scipy", "nproc", "blas_threads", "git_commit"}
    names = WORKLOAD_METRICS[workload] if not trace else ["failed_ratio"]
    for name in names:
        assert record["metrics"][name]["unit"], name
        assert f"  {name} " in proc.stdout, name
    assert record["metrics"]["failed_ratio"]["value"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("batch_small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

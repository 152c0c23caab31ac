"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q bench/test_smoke.py

A tiny run of each workload, traced and untraced, must print every metric
that BENCHMARK.json declares, and each output check must be able to fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_workloads_have_plans():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in declared:
        assert any(line.startswith(f"{m['name']}: ") for line in lines[:-1]), m["name"]


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _run(bench.WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- each check can fail -----------------------------------------------------

HEADER = "# poisson_eb 0.1.0 experiment report\nn,replicate,method,metric,value,std_error,flags\n"


def _rows(*lines: str) -> str:
    return HEADER + "".join(line + "\n" for line in lines)


def test_digest_check_fails_on_differing_sweeps():
    same = {"rows_sha256": "a", "slopes_sha256": "b"}
    assert bench.check_digests([same, dict(same)]) == []
    assert bench.check_digests([same, {**same, "rows_sha256": "c"}])


def test_finite_or_flagged_check_fails_on_silent_nan():
    assert bench.check_finite_or_flagged(bench.parse_rows(_rows(
        "100,0,npmle,individual_regret,nan,0.0,failed:NumericalFailureError"))) == []
    assert bench.check_finite_or_flagged(bench.parse_rows(_rows(
        "100,0,npmle,individual_regret,nan,0.0,")))
    assert bench.check_finite_or_flagged(bench.parse_rows(_rows(
        "100,0,npmle,individual_regret,0.5,inf,")))


def test_oracle_check_fails_on_nonzero_regret():
    assert bench.check_oracle_zero(bench.parse_rows(_rows(
        "100,0,oracle,individual_regret,0.0,0.0,"))) == []
    assert bench.check_oracle_zero(bench.parse_rows(_rows(
        "100,0,oracle,individual_regret,1e-300,0.0,")))


def test_two_path_check_fails_when_paths_disagree():
    agree = [f"150,{r},npmle,total_regret,{v},0.0," for r, v in enumerate((1.0, 1.2, 0.8))]
    agree += [f"150,{r},npmle,total_regret_direct,{v},0.0," for r, v in enumerate((1.1, 0.7, 1.3))]
    assert bench.check_two_paths(bench.parse_rows(_rows(*agree))) == []
    apart = agree[:3] + [f"150,{r},npmle,total_regret_direct,{v},0.0,"
                         for r, v in enumerate((5.0, 5.1, 4.9))]
    assert bench.check_two_paths(bench.parse_rows(_rows(*apart)))


def test_failed_check_fails_the_run(monkeypatch, capsys):
    bad = _rows("1000,0,oracle,individual_regret,0.25,0.0,")
    timing = {"wall_s": 1.0, "reference_s": 1.0, "probes": 21, "probe_median_s": 3e-4}
    worker = {"traced": False, "setup": timing, "sweep": timing,
              "rows_sha256": "a", "slopes_sha256": "b", "peak_rss_mb": 100.0,
              "rows_csv": bad, "versions": {}}
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setattr(bench, "run_worker", lambda *a, **k: worker)
    monkeypatch.setattr(bench, "provenance", lambda versions: {})
    assert bench.main(["--workload", "tail-p1.5", "--seed", "3", "--seconds", "0",
                       "--trace", "0", "--tiny"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


# -- the host clock ---------------------------------------------------------

def test_host_clock_scales_slices_by_the_probe(monkeypatch):
    import worker

    monkeypatch.setattr(worker, "probe", lambda: 2.0 * worker.PROBE_REF_S)
    clock = worker.HostClock()
    clock.start()
    t_end = time.perf_counter() + 0.3
    while time.perf_counter() < t_end:
        sum(range(1000))
    timing = clock.stop()
    assert timing["probes"] >= 4
    assert 0.25 < timing["wall_s"] < 0.35
    assert timing["reference_s"] == pytest.approx(timing["wall_s"] / 2.0)

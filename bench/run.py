"""The poisson-eb benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep-p2 --seed 1 --seconds 55 --trace 0

Workloads are the plan files in ``bench/workloads/``; each says why it was
chosen, and ``BENCHMARK.json`` names the ones its bounds gate.  The
workload seed replaces the plan's seed.  A run starts fresh worker
processes one after another until ``--seconds`` is spent, at least three;
each sets up and sweeps once, as one ``peb`` run does.  With ``--trace 0``
the run reports the median set-up time, the median sweep time, throughput
and peak memory; the times are at the reference host speed (see
``worker.HostClock``), and the wall times are printed beside them.  With
``--trace 1`` untraced and traced workers alternate and the run reports
per-layer metrics (see ``bench/README.md``).

Every run checks its outputs: all sweeps in the invocation produce the same
CSV digests, every row is finite or flagged, oracle rows score exactly zero
regret, and the two total-regret paths agree within 3 standard errors.  A
failed check prints ``"correct": false`` and exits 1.  The last line of
standard output is the JSON result; a run record goes to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.plan"))
MIN_WORKERS = 3
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# output checks (pure functions of the rows CSV and the sweep digests)
# ---------------------------------------------------------------------------

def parse_rows(rows_csv: str) -> list:
    body = "\n".join(line for line in rows_csv.splitlines() if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    for r in rows:
        r["n"], r["replicate"] = int(r["n"]), int(r["replicate"])
        r["value"], r["std_error"] = float(r["value"]), float(r["std_error"])
    return rows


def check_digests(workers: list) -> list:
    problems = []
    for key in ("rows_sha256", "slopes_sha256"):
        seen = {w[key] for w in workers}
        if len(seen) != 1:
            problems.append(f"{key} differs across {len(workers)} sweeps of one seed: {sorted(seen)}")
    return problems


def check_finite_or_flagged(rows: list) -> list:
    return [f"row {r['n']}/{r['replicate']}/{r['method']}/{r['metric']} is not finite "
            f"and carries no flag" for r in rows
            if not (math.isfinite(r["value"]) and math.isfinite(r["std_error"]))
            and not r["flags"]]


def check_oracle_zero(rows: list) -> list:
    return [f"oracle row {r['n']}/{r['replicate']}/{r['metric']} scores {r['value']!r}, not 0"
            for r in rows if r["method"] == "oracle" and r["value"] != 0.0]


def check_two_paths(rows: list) -> list:
    """The acceptance battery's rule: |mean(product) - mean(direct)| <= 3 SE."""
    problems = []
    for method in sorted({r["method"] for r in rows if r["metric"] == "total_regret_direct"}):
        prod = [r["value"] for r in rows if r["method"] == method and r["metric"] == "total_regret"]
        dire = [r["value"] for r in rows
                if r["method"] == method and r["metric"] == "total_regret_direct"]
        if len(prod) < 2 or len(dire) < 2:
            problems.append(f"{method}: two-path check needs >= 2 replicates per path")
            continue
        se = math.hypot(statistics.stdev(prod) / math.sqrt(len(prod)),
                        statistics.stdev(dire) / math.sqrt(len(dire)))
        diff = abs(statistics.fmean(prod) - statistics.fmean(dire))
        if not diff <= 3.0 * se:
            problems.append(f"{method}: total-regret paths differ by {diff:.4g} > 3 SE = {3 * se:.4g}")
    return problems


def run_checks(rows_csv: str, workers: list) -> list:
    rows = parse_rows(rows_csv)
    return (check_digests(workers) + check_finite_or_flagged(rows)
            + check_oracle_zero(rows) + check_two_paths(rows))


def row_counts(rows_csv: str) -> dict:
    """Scheduled rows, failed rows, trials and NPMLE-backed rows of one sweep."""
    rows = parse_rows(rows_csv)
    npmle = [r for r in rows if r["method"] == "npmle"]
    return {
        "rows": len(rows),
        "failed_rows": sum(r["flags"].startswith("failed:") for r in rows),
        "trials": len({(r["n"], r["replicate"], r["method"]) for r in rows
                       if not r["flags"].startswith("failed:")}),
        "npmle_rows": len(npmle),
        "uncertified_rows": sum("solver_not_converged" in r["flags"] for r in npmle),
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(versions: dict) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = sorted((ROOT / "src" / "poisson_eb").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        **versions,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": sha or "unknown (not a git checkout)",
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


# ---------------------------------------------------------------------------
# running workers
# ---------------------------------------------------------------------------

def run_worker(plan: Path, seed: int, trace: int, tiny: bool, spans_out: Path | None,
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--plan", str(plan),
           "--seed", str(seed), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.perf_counter(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the plan to its smoke-test size (bench/test_smoke.py)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "poisson_eb" / "__init__.py").is_file():
        print(f"error: no poisson_eb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The library is single-threaded; pin BLAS to one thread (<= nproc) so
    # runs on a shared box do not oversubscribe it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    plan = HERE / "workloads" / f"{args.workload}.plan"
    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")

    t_start = time.perf_counter()
    deadline = t_start + RUN_TIMEOUT_S
    workers: list = []
    try:
        # Start another worker while it would end nearer --seconds than
        # stopping now does.  A traced run alternates untraced and traced
        # workers, so each kind has a median.
        while True:
            traced = args.trace and len(workers) % 2 == 1
            first_traced = traced and len(workers) == 1
            spans_out = out_dir / f"{stem}.spans.jsonl" if first_traced else None
            workers.append(run_worker(plan, args.seed, int(traced), args.tiny, spans_out,
                                      deadline))
            elapsed = time.perf_counter() - t_start
            per_worker = elapsed / len(workers)
            if len(workers) >= MIN_WORKERS and elapsed + per_worker / 2 > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows_csv = workers[0]["rows_csv"]
    problems = run_checks(rows_csv, workers)
    counts = row_counts(rows_csv)
    plain = [w for w in workers if not w["traced"]]
    sweep_s = statistics.median(w["sweep"]["reference_s"] for w in plain)
    setup_s = statistics.median(w["setup"]["reference_s"] for w in workers)
    walls = {"setup": statistics.median(w["setup"]["wall_s"] for w in workers),
             "sweep": statistics.median(w["sweep"]["wall_s"] for w in plain)}
    if args.trace:
        traced_workers = [w for w in workers if w["traced"]]
        metrics = {k: statistics.median(w["per_layer"][k] for w in traced_workers)
                   for k in traced_workers[0]["per_layer"]}
        metrics["experiments.fail_frac"] = counts["failed_rows"] / counts["rows"]
        metrics["experiments.uncertified_frac"] = (
            counts["uncertified_rows"] / counts["npmle_rows"] if counts["npmle_rows"] else 0.0)
        metrics["trace.overhead_frac"] = (
            statistics.median(w["sweep"]["reference_s"] for w in traced_workers) / sweep_s - 1.0)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "sweep_s": sweep_s,
            "trials_per_s": counts["trials"] / sweep_s,
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        }
        units = END_TO_END

    prov = provenance(workers[0]["versions"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "wall_s": time.perf_counter() - t_start,
        "provenance": prov,
        "counts": counts,
        "checks_failed": problems,
        "wall_time_s": walls,
        "workers": [{k: v for k, v in w.items() if k not in ("rows_csv", "per_layer")}
                    for w in workers],
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("provenance: " + json.dumps(prov))
    print(f"workers: {len(workers)} ({len(plain)} untraced), one sweep each")
    print(f"wall time: set-up {walls['setup']:.6g} s, sweep {walls['sweep']:.6g} s "
          f"(medians; the host ran at {sweep_s / walls['sweep']:.3f} of the reference "
          f"speed during sweeps)")
    print(f"fail_frac: {counts['failed_rows']}/{counts['rows']} rows; "
          f"uncertified_frac: {counts['uncertified_rows']}/{counts['npmle_rows']} NPMLE-backed rows")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": counts["rows"] * len(workers),
        "failed": counts["failed_rows"] * len(workers),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

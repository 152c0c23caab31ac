"""Collect run records from ``bench/runs/`` into a committed results file.

Usage (from the repository root, after the runs)::

    python3 bench/summarize.py bench/results/baseline

writes ``<stem>.json`` (every untraced run's metrics with their median and
quartiles per workload, every traced run's per-layer metrics, provenance)
and ``<stem>.md`` (the same as tables).  Tiny smoke-test runs are skipped.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from spans import PER_LAYER  # noqa: E402


def collect(runs_dir: Path) -> dict:
    out: dict = {}
    for path in sorted(runs_dir.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec["tiny"]:
            continue
        wl = out.setdefault(rec["workload"], {"untraced": [], "traced": []})
        wl["traced" if rec["trace"] else "untraced"].append(rec)
    return out


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med,
            "n": len(values)}


def main(stem: str) -> None:
    data = collect(HERE / "runs")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    gated = {w["name"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc: dict = {"workloads": {}}
    md = ["# poisson-eb benchmark results", ""]
    for name, wl in sorted(data.items()):
        untraced = sorted(wl["untraced"], key=lambda r: r["seed"])
        entry: dict = {
            "gated": name in gated,
            "untraced_runs": [{"seed": r["seed"], "seconds": r["seconds"],
                               "correct": not r["checks_failed"], "metrics": r["metrics"],
                               "wall_time_s": r["wall_time_s"]}
                              for r in untraced],
            "end_to_end": {k: spread([r["metrics"][k] for r in untraced])
                           for k in END_TO_END} if untraced else {},
            "wall_time_s": {k: spread([r["wall_time_s"][k] for r in untraced])
                            for k in ("setup", "sweep")} if untraced else {},
            "traced_runs": [{"seed": r["seed"], "seconds": r["seconds"],
                             "per_layer": r["metrics"]} for r in wl["traced"]],
        }
        doc["workloads"][name] = entry
        doc.setdefault("provenance", (untraced or wl["traced"])[0]["provenance"])
        md += [f"## {name} ({'gated' if name in gated else 'not gated'})", ""]
        if untraced:
            md += [f"End to end, {len(untraced)} untraced runs (seeds "
                   f"{', '.join(str(r['seed']) for r in untraced)}; "
                   f"{sum(not r['checks_failed'] for r in untraced)} passed every check):", "",
                   "| metric | unit | median | q1 | q3 | IQR / median | bound |",
                   "|---|---|---|---|---|---|---|"]
            for k, unit in END_TO_END.items():
                s = entry["end_to_end"][k]
                md.append(f"| {k} | {unit} | {s['median']:.4g} | {s['q1']:.4g} | "
                          f"{s['q3']:.4g} | {s['iqr_over_median']:.3f} | "
                          f"{bounds[k] if name in gated else '-'} |")
            for k in ("setup", "sweep"):
                s = entry["wall_time_s"][k]
                md.append(f"| {k} wall time (not a metric) | s | {s['median']:.4g} | "
                          f"{s['q1']:.4g} | {s['q3']:.4g} | {s['iqr_over_median']:.3f} | - |")
            md.append("")
        for rec in wl["traced"]:
            md += [f"Per layer, traced run (seed {rec['seed']}): median over its traced "
                   "workers, each one set-up and one sweep.", "", "| metric | unit | value |",
                   "|---|---|---|"]
            md += [f"| {k} | {PER_LAYER[k]} | {v:.4g} |" for k, v in rec["metrics"].items()]
            md.append("")
    prov = doc.get("provenance", {})
    md += ["## Provenance", ""] + [f"- {k}: {v}" for k, v in prov.items()] + [""]
    Path(f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    Path(f"{stem}.md").write_text("\n".join(md))


if __name__ == "__main__":
    main(sys.argv[1])

"""Rewrite the pinned rows and slopes CSVs of every plan in this directory.

    PYTHONPATH=src python tests/data/golden/regenerate.py

`tests/test_acceptance.py::test_outputs_match_the_pinned_files` reruns the
plans and compares.  A change that moves a row reruns this script and states
the drift in CHANGES.md.
"""

from pathlib import Path

from poisson_eb.experiments import parse_plan, run_plan

for plan_path in sorted(Path(__file__).resolve().parent.glob("*.plan")):
    report = run_plan(parse_plan(plan_path.read_text()))
    plan_path.with_suffix(".rows.csv").write_text(report.rows_csv())
    plan_path.with_suffix(".slopes.csv").write_text(report.slopes_csv())

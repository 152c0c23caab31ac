"""Rewrite the pinned rows and slopes CSVs of every plan in this directory.

    PYTHONPATH=src python tests/data/golden/regenerate.py

`tests/test_acceptance.py::test_outputs_match_the_pinned_files` reruns the
plans and compares.  A change that moves a row reruns this script and states
the drift in CHANGES.md.  For each file it rewrites, the script prints the
(method, metric) cells whose records differ from the file it replaces, and
``header`` when the header lines do, so the drift can be read off its output.
"""

import csv
from pathlib import Path

from poisson_eb.experiments import parse_plan, run_plan


def by_cell(text: str, at: int) -> dict:
    """A report CSV's header lines, and its records keyed by the (method, metric)
    pair in columns `at` and `at` + 1."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = {("header",): lines[:head]}
    for record in csv.reader(lines[head:]):
        cells.setdefault(tuple(record[at:at + 2]), []).append(record)
    return cells


for plan_path in sorted(Path(__file__).resolve().parent.glob("*.plan")):
    report = run_plan(parse_plan(plan_path.read_text()))
    for suffix, text, at in ((".rows.csv", report.rows_csv(), 2),
                             (".slopes.csv", report.slopes_csv(), 0)):
        path = plan_path.with_suffix(suffix)
        old, new = (by_cell(path.read_text(), at) if path.exists() else {}), by_cell(text, at)
        changed = sorted(cell for cell in old.keys() | new.keys() if old.get(cell) != new.get(cell))
        print(f"{path.name}: " + ("; ".join(",".join(cell) for cell in changed) or "unchanged"))
        path.write_text(text)

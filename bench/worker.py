"""One benchmark worker: a fresh process that sets up and sweeps once.

Started by ``run.py``, never by hand.  A worker does what one
``peb regret-sweep`` run does.  Set-up is timed from the import of
``poisson_eb.cli`` through ``parse_plan`` to a finished ``resolve``.  The
sweep is ``run_plan(plan, resolved)`` plus rendering the rows and slopes
CSVs.  Both are timed on a :class:`HostClock`, which also gives their time
at the reference host speed.  With ``--trace 1`` the library's public
functions are wrapped from outside while the worker sets up and sweeps, and
the worker reports per-layer metrics from the spans.  The last line on
standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics

# The reference host speed: the one at which probe() takes exactly this long.
# It fixes the scale of the reference times; see bench/README.md.
PROBE_REF_S = 3.0e-4
PROBE_PERIOD_S = 0.05


def probe() -> float:
    """Seconds this process takes for a fixed piece of interpreter work.

    About 0.3 ms.  It uses no library, so it can run before ``poisson_eb``
    is imported.
    """
    t = time.perf_counter()
    sum(i * i for i in range(4000))
    sorted(range(2000, 0, -1))
    "x".join(str(i) for i in range(500))
    return time.perf_counter() - t


class HostClock:
    """Times a stretch of work, and its time at the reference host speed.

    The host is shared: how fast it runs this process changes by up to half
    within a second and can stay changed for minutes.  While the clock runs,
    a timer signal interrupts the work every ``PROBE_PERIOD_S`` and times
    :func:`probe`, which gauges the host's speed just then.  The work
    between two ticks is a slice.  ``wall_s`` is the sum of the slices'
    wall times, so the ticks' own time is left out.  ``reference_s``
    scales each slice by ``PROBE_REF_S`` over the median of the five probe
    times nearest it.
    """

    def __init__(self) -> None:
        self.marks: list = []   # (start of a tick, its duration, probe time)
        self._previous = None
        self._ticking = False

    def _tick(self, *_args) -> None:
        if self._ticking:  # a signal that arrives during a tick is dropped
            return
        self._ticking = True
        # The first probe warms the caches that the work just used, so the
        # second gauges the host rather than the state the work left.
        t = time.perf_counter()
        probe()
        speed = probe()
        self.marks.append((t, time.perf_counter() - t, speed))
        self._ticking = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._tick()
        signal.signal(signal.SIGALRM, self._previous)
        wall = reference = 0.0
        probes = [p for _, _, p in self.marks]
        for i, ((t0, d0, _), (t1, _, _)) in enumerate(zip(self.marks, self.marks[1:])):
            speed = statistics.median(probes[max(i - 2, 0): i + 3])
            wall += t1 - (t0 + d0)
            reference += (t1 - (t0 + d0)) * PROBE_REF_S / speed
        return {"wall_s": wall, "reference_s": reference, "probes": len(probes),
                "probe_median_s": statistics.median(probes)}


def tiny(plan):
    """The smoke-test size of a plan: its two smallest n and two replicates.

    A plan with the direct leave-one-out path keeps its replicates: the
    two-path check compares means within their standard errors, which two
    replicates cannot estimate.
    """
    return dataclasses.replace(plan, n_grid=plan.n_grid[:2],
                               replicates=plan.replicates if plan.direct_total else 2)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))

    for _ in range(20):
        probe()
    clock = HostClock()
    clock.start()
    t0 = time.perf_counter()
    importlib.import_module("poisson_eb.cli")
    import_s = time.perf_counter() - t0
    from poisson_eb import experiments, priors

    where = Path(experiments.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"poisson_eb imported from {where}, not from {src}")

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    plan = experiments.parse_plan(Path(args.plan).read_text())
    plan = dataclasses.replace(plan, seed=args.seed)
    if args.tiny:
        plan = tiny(plan)
    resolved = priors.resolve(plan.prior, p=plan.p, disc_tol=plan.disc_tol, seed=plan.seed)
    setup = clock.stop()

    clock = HostClock()
    clock.start()
    report = experiments.run_plan(plan, resolved)
    rows, slopes = report.rows_csv(), report.slopes_csv()
    sweep = clock.stop()

    out = {
        "traced": bool(tracer),
        "setup": setup,
        "sweep": sweep,
        "rows_sha256": hashlib.sha256(rows.encode()).hexdigest(),
        "slopes_sha256": hashlib.sha256(slopes.encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows_csv": rows,
        "versions": _versions(),
    }
    if tracer:
        tracer.uninstall()
        out["per_layer"] = {**layer_metrics(tracer.spans), "cli.import_s": import_s}
        if args.spans_out:
            tracer.write_jsonl(args.spans_out, out["per_layer"])
    print(json.dumps(out))


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    main()

"""Outside-in span recorder for the benchmark's traced runs.

The tracer replaces public functions of ``poisson_eb`` with timing wrappers
in every module namespace where a caller looks them up (a function imported
with ``from .mixtures import pmf_on_range`` is patched in the importing
module too), and replaces the public methods of ``ResolvedPrior`` on the
class.  Nothing is written into the library.  Spans live in memory as
``(id, parent, name, start_ns, end_ns, attrs)`` and are written as JSON
lines when the run ends.  ``uninstall`` restores every patched name.

Per-layer metrics are derived from the spans by :func:`layer_metrics`.
``cells`` are computed from call arguments as (y_hi + 1) * atoms; they are
not counted by the library.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.import_s": "s",
    "priors.resolve.s": "s",
    "priors.pmf.s": "s",
    "priors.quantile_y.s": "s",
    "priors.oracle_table.s": "s",
    "priors.mmse_ref.s": "s",
    "priors.sample_counts.calls": "count",
    "priors.sample_counts.s": "s",
    "priors.sample_counts.draws": "count",
    "mixtures.pmf_on_range.calls": "count",
    "mixtures.pmf_on_range.s": "s",
    "mixtures.pmf_on_range.cells": "computed_cells",
    "mixtures.posterior_moment_table.calls": "count",
    "mixtures.posterior_moment_table.s": "s",
    "mixtures.posterior_moment_table.cells": "computed_cells",
    "mixtures.pmf_table.s": "s",
    "mixtures.hellinger_sq.s": "s",
    "npmle.fit_npmle.adaptive.calls": "count",
    "npmle.fit_npmle.adaptive.s": "s",
    "npmle.fit_npmle.restricted.calls": "count",
    "npmle.fit_npmle.restricted.s": "s",
    "npmle.fit_npmle.sweeps": "count",
    "npmle.fit_npmle.rounds": "count",
    "npmle.fit_npmle.grid_points": "count",
    "npmle.fit_npmle.distinct_y": "count",
    "npmle.fit_npmle.unconverged": "count",
    "npmle.fit_npmle.kkt_gap_max": "ratio",
    "npmle.kkt_gap_on_grid.s": "s",
    "rules.fit_rule.oracle.calls": "count",
    "rules.fit_rule.oracle.s": "s",
    "rules.fit_rule.robbins_plain.calls": "count",
    "rules.fit_rule.robbins_plain.s": "s",
    "rules.fit_rule.robbins_addone.calls": "count",
    "rules.fit_rule.robbins_addone.s": "s",
    "rules.fit_rule.robbins_trunc.calls": "count",
    "rules.fit_rule.robbins_trunc.s": "s",
    "rules.fit_rule.npmle_eb.calls": "count",
    "rules.fit_rule.npmle_eb.s": "s",
    "rules.npmle_eb.calls": "count",
    "rules.npmle_eb.s": "s",
    "rules.robbins.calls": "count",
    "rules.robbins.s": "s",
    "rules.robbins_truncated.calls": "count",
    "rules.robbins_truncated.s": "s",
    "experiments.run_plan.s": "s",
    "experiments.run_plan.self_s": "s",
    "experiments.density_risk_trial.s": "s",
    "experiments.individual_regret_trial.s": "s",
    "experiments.fit_rate.s": "s",
    "experiments.fail_frac": "fraction",
    "experiments.uncertified_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cells(args, kwargs, result):
    return {"cells": (int(_arg(args, kwargs, 1, "y_hi")) + 1)
            * _arg(args, kwargs, 0, "prior").n_atoms}


def _fit_attrs(args, kwargs, fit):
    grid = _arg(args, kwargs, 1, "grid") if len(args) > 1 or "grid" in kwargs else None
    data = args[0] if args else kwargs["data"]
    return {
        "variant": "adaptive" if grid is None else "restricted",
        "sweeps": fit.iterations,
        "grid_points": int(fit.grid.size),
        "distinct_y": getattr(data, "distinct", None),
        "converged": bool(fit.converged),
        "kkt_gap": float(fit.kkt_gap),
    }


def _rule_attrs(args, kwargs, rule):
    return {"kind": _arg(args, kwargs, 0, "config").kind}


def _draw_attrs(args, kwargs, result):
    # args[0] is the ResolvedPrior instance
    return {"draws": int(_arg(args, kwargs, 2, "size"))}


# (module, attribute, span name, attrs(args, kwargs, result) or None)
_FUNCTIONS = [
    ("poisson_eb.experiments", "run_plan", "experiments.run_plan", None),
    ("poisson_eb.experiments", "density_risk_trial", "experiments.density_risk_trial", None),
    ("poisson_eb.experiments", "individual_regret_trial",
     "experiments.individual_regret_trial", None),
    ("poisson_eb.experiments", "fit_rate", "experiments.fit_rate", None),
    ("poisson_eb.priors", "resolve", "priors.resolve", None),
    ("poisson_eb.npmle", "fit_npmle", "npmle.fit_npmle", _fit_attrs),
    ("poisson_eb.npmle", "kkt_gap_on_grid", "npmle.kkt_gap_on_grid", None),
    ("poisson_eb.mixtures", "pmf_on_range", "mixtures.pmf_on_range", _cells),
    ("poisson_eb.mixtures", "posterior_moment_table",
     "mixtures.posterior_moment_table", _cells),
    ("poisson_eb.mixtures", "pmf_table", "mixtures.pmf_table", None),
    ("poisson_eb.mixtures", "hellinger_sq", "mixtures.hellinger_sq", None),
    ("poisson_eb.rules", "fit_rule", "rules.fit_rule", _rule_attrs),
    ("poisson_eb.rules", "npmle_eb", "rules.npmle_eb", None),
    ("poisson_eb.rules", "robbins", "rules.robbins", None),
    ("poisson_eb.rules", "robbins_truncated", "rules.robbins_truncated", None),
]

_METHODS = [
    ("pmf", "priors.pmf", None),
    ("quantile_y", "priors.quantile_y", None),
    ("oracle_table", "priors.oracle_table", None),
    ("mmse_ref", "priors.mmse_ref", None),
    ("sample_counts", "priors.sample_counts", _draw_attrs),
]


class Tracer:
    """Records spans around the library's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter_ns(), None, {}])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, **attrs) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter_ns()
        span[5].update(attrs)
        self._stack.pop()

    def _wrap(self, fn, name, attrs_fn):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(sid, error=type(exc).__name__)
                raise
            self.close(sid, **(attrs_fn(args, kwargs, result) if attrs_fn else {}))
            return result

        return functools.wraps(fn)(traced)

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every lookup site of the traced functions in loaded modules."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "poisson_eb" or k.startswith("poisson_eb."))]
        for mod_name, attr, name, attrs_fn in _FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, attrs_fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = sys.modules["poisson_eb.priors"].ResolvedPrior
        for attr, name, attrs_fn in _METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, attrs_fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path, summary: dict) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1, **attrs}) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


def self_times(spans: list) -> dict:
    """Seconds per span name, each span's duration minus its direct children's."""
    child_ns: dict = {}
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    out: dict = {}
    for sid, _, name, t0, t1, _ in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0 - child_ns.get(sid, 0)) / 1e9
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and busy times (inclusive seconds) from a span list."""
    by_id = {s[0]: s for s in spans}
    out = dict.fromkeys(PER_LAYER, 0)

    def add(key, value):
        if key in out:
            out[key] += value

    for sid, parent, name, t0, t1, attrs in spans:
        secs = (t1 - t0) / 1e9
        if name == "npmle.fit_npmle":
            variant = attrs.get("variant", "adaptive")
            add(f"npmle.fit_npmle.{variant}.calls", 1)
            add(f"npmle.fit_npmle.{variant}.s", secs)
            for key in ("sweeps", "grid_points", "distinct_y"):
                add(f"npmle.fit_npmle.{key}", attrs.get(key) or 0)
            add("npmle.fit_npmle.unconverged", int(not attrs.get("converged", True)))
            out["npmle.fit_npmle.kkt_gap_max"] = max(
                out["npmle.fit_npmle.kkt_gap_max"], attrs.get("kkt_gap", 0))
        elif name == "npmle.kkt_gap_on_grid":
            add("npmle.kkt_gap_on_grid.s", secs)
            up = by_id.get(parent)
            if up is not None and up[2] == "npmle.fit_npmle" \
                    and up[5].get("variant") == "adaptive":
                add("npmle.fit_npmle.rounds", 1)
        elif name == "rules.fit_rule":
            add(f"rules.fit_rule.{attrs.get('kind')}.calls", 1)
            add(f"rules.fit_rule.{attrs.get('kind')}.s", secs)
        else:
            add(f"{name}.calls", 1)
            add(f"{name}.s", secs)
            add(f"{name}.cells", attrs.get("cells", 0))
            add(f"{name}.draws", attrs.get("draws", 0))
    out["experiments.run_plan.self_s"] = self_times(spans).get("experiments.run_plan", 0.0)
    return out

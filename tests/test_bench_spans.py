"""The traced benchmark patches library names from outside; they must exist.

`bench/spans.py` wraps the functions listed in its `_FUNCTIONS` and the
`ResolvedPrior` methods in `_METHODS`, and its attribute callbacks read call
arguments by name and result attributes.  A library change that removes or
renames one of them breaks `bench/run.py --trace 1` without failing anything
else, so this test loads the bench module (standard library only) by path
and checks each name against the library.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from poisson_eb.mixtures import DiscretePrior
from poisson_eb.npmle import CountHistogram, fit_npmle
from poisson_eb.priors import PriorSpec, ResolvedPrior, resolve
from poisson_eb.rules import EstimatorConfig, fit_rule

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(spans):
    for mod_name, attr, _, _ in spans._FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_every_traced_method_is_defined_on_resolved_prior(spans):
    for attr, _, _ in spans._METHODS:
        assert callable(ResolvedPrior.__dict__.get(attr)), attr  # patched on the class itself
    # _draw_attrs reads the draw count as the third argument, after self and seed
    assert tuple(inspect.signature(ResolvedPrior.sample_counts).parameters)[:3] == (
        "self", "seed", "size")


@pytest.mark.parametrize("module, function, params", [
    ("poisson_eb.mixtures", "pmf_on_range", ("prior", "y_hi")),
    ("poisson_eb.mixtures", "posterior_moment_table", ("prior", "y_hi")),
    ("poisson_eb.npmle", "fit_npmle", ("data",)),
    ("poisson_eb.rules", "fit_rule", ("config",)),
])
def test_arguments_read_by_name_lead_the_signature(module, function, params):
    # the callbacks read these by position, or by name when passed by keyword
    fn = getattr(importlib.import_module(module), function)
    assert tuple(inspect.signature(fn).parameters)[: len(params)] == params


def test_attribute_callbacks_read_existing_attributes(spans):
    prior = DiscretePrior([1.0, 5.0], [0.5, 0.5])
    assert spans._cells((prior, 9), {}, None) == {"cells": 20}
    assert spans._cells((), {"prior": prior, "y_hi": 9}, None) == {"cells": 20}

    data = CountHistogram.from_counts({0: 3, 2: 4, 7: 1})
    assert hasattr(data, "distinct")  # read with getattr(..., None), which would hide it
    fit = fit_npmle(data)
    attrs = spans._fit_attrs((data,), {}, fit)
    assert attrs == {"variant": "adaptive", "sweeps": fit.iterations,
                     "grid_points": fit.grid.size, "distinct_y": 3,
                     "converged": fit.converged, "kkt_gap": fit.kkt_gap}

    config = EstimatorConfig("robbins_addone")
    rule = fit_rule(config, 8, train=data)
    assert spans._rule_attrs((config, 8), {"train": data}, rule) == {"kind": "robbins_addone"}
    assert spans._draw_attrs((None, (1, 2), 50), {}, None) == {"draws": 50}


def test_tracer_installs_and_restores(spans):
    resolved = resolve(PriorSpec("two_point", {"eps": 0.2, "a": 5.0}))
    original = fit_rule
    tracer = spans.Tracer()
    tracer.install()
    try:
        from poisson_eb import experiments

        experiments.individual_regret_trial(resolved, 50, "robbins-addone", (1, 50, 0, 1))
    finally:
        tracer.uninstall()
    import poisson_eb.rules

    assert poisson_eb.rules.fit_rule is original
    names = {span[2] for span in tracer.spans}
    assert {"experiments.individual_regret_trial", "rules.fit_rule"} <= names
    assert spans.layer_metrics(tracer.spans)["rules.fit_rule.robbins_addone.calls"] == 1

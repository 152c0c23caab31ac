"""Command-line front end: fit, estimate, sweep, match, verify.

Every artifact written by a subcommand starts with a header recording the
library version and the fully resolved configuration, so a run can be
reproduced from its own output.  Exit codes: 0 success, 1 verification
failure, 2 invalid configuration or input, 3 numerical failure, or under
``--strict`` an uncertified result once the output is written.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from ._version import __version__
from .errors import InvalidInputError, NumericalFailureError, PoissonEBError
from .experiments import parse_plan, run_plan
from .moment_match import local_moment_match
from .npmle import fit_npmle, load_count_data
from .priors import parse_prior_spec, resolve
from .rules import CLI_KIND_NAMES, EstimatorConfig, fit_rule
from .verify import run_all

_EXIT_VERIFY_FAIL = 1
_EXIT_BAD_CONFIG = 2
_EXIT_NUMERICAL = 3


def _config_header(command: str, **params) -> list[str]:
    body = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [f"# poisson_eb {__version__}", f"# {command}: {body}"]


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_json(path: str | None, command: str, config: dict, key: str, payload: dict) -> None:
    meta = {"tool": f"poisson_eb {__version__}", "command": command, "config": config}
    _write_text(path, json.dumps({"meta": meta, key: payload}, indent=2) + "\n")


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


@contextmanager
def _exit_codes(context: str = ""):
    """The one map from library errors to exit codes, `context` prefixing the message."""
    try:
        yield
    except NumericalFailureError as exc:
        _fail(_EXIT_NUMERICAL, f"{context}{exc}")
    except (PoissonEBError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        _fail(_EXIT_BAD_CONFIG, f"{context}{exc}")


def _require_certified(strict: bool, fit) -> None:
    """Under strict, an uncertified fit exits 3; call after writing the output."""
    if strict and fit is not None and not fit.converged:
        _fail(_EXIT_NUMERICAL, f"NPMLE did not reach tol={fit.tol:g} within {fit.iterations} "
                               f"weight-solve steps (kkt_gap={fit.kkt_gap:.3e})")


@click.group()
@click.version_option(version=__version__, prog_name="peb")
@click.option("--seed", type=int, default=None,
              help="Base seed for any randomized step; overrides a plan's seed.")
@click.option("--strict/--lenient", default=None,
              help="Exit 3 after writing the output if an NPMLE fit in it is uncertified "
                   "or a sweep row failed (default: strict for fits, lenient for sweeps).")
@click.pass_context
def main(ctx: click.Context, seed: int | None, strict: bool | None) -> None:
    """Poisson empirical-Bayes toolkit: NPMLE fits, Robbins-style rules, sweeps."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, strict=strict)


@main.command("npmle-fit")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", default=None, help="Output JSON path (default stdout).")
@click.option("--tol", default=1e-6, show_default=True, help="KKT certificate tolerance.")
@click.option("--max-iter", default=10_000, show_default=True,
              help="Cap on the solver's weight-solve steps.")
@click.pass_context
def cmd_npmle_fit(ctx, input_path, out_path, tol, max_iter):
    """Fit the nonparametric MLE mixing distribution to count data.

    INPUT_PATH holds either newline-separated integer counts or a JSON
    histogram {"counts": {"0": 12, "1": 7, ...}}.  Single fits default to
    strict mode.
    """
    strict = ctx.obj["strict"] is not False  # default strict for single fits
    with _exit_codes("could not parse counts: "):
        data = load_count_data(Path(input_path).read_text())
    with _exit_codes():
        fit = fit_npmle(data, tol=tol, max_iter=max_iter)
    _write_json(out_path, "npmle-fit", {"input": str(input_path), "tol": tol,
                                        "max_iter": max_iter, "strict": strict},
                "fit", fit.to_dict())
    _require_certified(strict, fit)


@main.command("eb-estimate")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(sorted(CLI_KIND_NAMES)), default="npmle",
              show_default=True)
@click.option("--y0", default=None, type=int,
              help="Truncation level: identity rule beyond this y.")
@click.option("--rho", default=1e-6, show_default=True,
              help="Density floor for the regularized mixture rule.")
@click.option("--y-cap", default=None, type=int,
              help="Largest y in the output table (default: max observed + 5).")
@click.option("--tol", default=1e-6, show_default=True)
@click.option("--out", "out_path", default=None, help="Output CSV path (default stdout).")
@click.pass_context
def cmd_eb_estimate(ctx, input_path, method, y0, rho, y_cap, tol, out_path):
    """Tabulate an empirical-Bayes estimate of theta for each count y."""
    strict = ctx.obj["strict"] is not False
    with _exit_codes():
        data = load_count_data(Path(input_path).read_text())
        kind = CLI_KIND_NAMES[method]
        if kind == "oracle":
            raise InvalidInputError("the oracle rule needs a known prior; use the library API")
        if y0 is None and kind == "robbins_trunc":
            raise InvalidInputError("--y0 is required for method robbins-trunc")
        config = EstimatorConfig(kind=kind, y0=math.inf if y0 is None else y0, rho=rho,
                                 npmle_tol=tol)
        cap = y_cap if y_cap is not None else data.y_max + 5
        fit = fit_npmle(data, tol=tol) if kind == "npmle_eb" else None
        rule = fit_rule(config, cap, train=data, fit=fit)
    buf = io.StringIO()
    for line in _config_header("eb-estimate", input=input_path, method=method,
                               y0=y0, rho=rho, y_cap=cap, tol=tol, strict=strict):
        buf.write(line + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["y", "estimate"])
    for y in range(cap + 1):
        w.writerow([y, repr(float(rule.table[y]))])
    _write_text(out_path, buf.getvalue())
    _require_certified(strict, fit)


def _run_plan_command(ctx, plan_path, out_rows, out_slopes, forced_metrics=None):
    from dataclasses import replace

    with _exit_codes("bad plan: "):
        plan = parse_plan(Path(plan_path).read_text())
        if ctx.obj["seed"] is not None:
            plan = replace(plan, seed=ctx.obj["seed"])
        if forced_metrics is not None:
            plan = replace(plan, metrics=forced_metrics)
        resolved = resolve(plan.prior, p=plan.p, disc_tol=plan.disc_tol, seed=plan.seed)
    report = run_plan(plan, resolved)
    _write_text(out_rows, report.rows_csv())
    if out_slopes is not None:
        _write_text(out_slopes, report.slopes_csv())
    n_failed = sum(r.flags.startswith("failed:") for r in report.rows)
    n_uncertified = sum("solver_not_converged" in r.flags for r in report.rows)
    if ctx.obj["strict"] and (n_failed or n_uncertified):  # default lenient for sweeps
        _fail(_EXIT_NUMERICAL, f"{n_failed} row(s) failed and {n_uncertified} row(s) "
                               "carry an uncertified NPMLE fit")


@main.command("regret-sweep")
@click.argument("plan_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_rows", default=None, help="Row CSV path (default stdout).")
@click.option("--out-slopes", default=None, help="Optional slope-summary CSV path.")
@click.pass_context
def cmd_regret_sweep(ctx, plan_path, out_rows, out_slopes):
    """Run a regret experiment plan and write its report CSVs."""
    _run_plan_command(ctx, plan_path, out_rows, out_slopes)


@main.command("density-risk")
@click.argument("plan_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_rows", default=None, help="Row CSV path (default stdout).")
@click.option("--out-slopes", default=None, help="Optional slope-summary CSV path.")
@click.pass_context
def cmd_density_risk(ctx, plan_path, out_rows, out_slopes):
    """Run a plan with the metric forced to squared-Hellinger density risk."""
    _run_plan_command(ctx, plan_path, out_rows, out_slopes,
                      forced_metrics=("hellinger_sq",))


@main.command("moment-match")
@click.option("--source", required=True,
              help='Prior spec, e.g. "family=heavy_tail p=2" or "family=discrete atoms=1,5 weights=0.5,0.5".')
@click.option("--m", "big_m", type=float, required=True, help="Window-scale parameter M.")
@click.option("--eta", type=float, required=True, help="Target sup-norm pmf accuracy.")
@click.option("--c", "c_const", type=float, default=1.0, show_default=True,
              help="Partition width constant.")
@click.option("--p", type=float, default=None, help="Moment index for resolving the source.")
@click.option("--out", "out_path", default=None, help="Output JSON path (default stdout).")
@click.pass_context
def cmd_moment_match(ctx, source, big_m, eta, c_const, p, out_path):
    """Compress a prior to few atoms while matching local moments."""
    with _exit_codes():
        spec = parse_prior_spec(source)
        resolved = resolve(spec, p=p, seed=ctx.obj["seed"] or 0)
        report = local_moment_match(resolved.discretization, big_m, eta, C=c_const)
    _write_json(out_path, "moment-match",
                {"source": source, "M": big_m, "eta": eta, "C": c_const, "p": p},
                "report", report.to_dict())


@main.command("verify")
@click.pass_context
def cmd_verify(ctx):
    """Run the identity/bound/certificate self-checks; exit 1 on any failure."""
    results = run_all()
    for res in results:
        click.echo(str(res))
    failed = [r for r in results if not r.passed]
    click.echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        raise SystemExit(_EXIT_VERIFY_FAIL)


if __name__ == "__main__":
    main()

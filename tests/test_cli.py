import ast
import json
import sys
import warnings

import pytest
from click.testing import CliRunner

from poisson_eb import cli
from poisson_eb import experiments as ex
from poisson_eb.cli import main
from poisson_eb.errors import NumericalFailureError
from poisson_eb.verify import CheckResult

PLAN_TEXT = """\
name = cli_demo
prior = family=two_point eps=0.2 a=5
p = 2
n_grid = 20,40
replicates = 2
methods = robbins,robbins-addone
metrics = individual_regret,total_regret
seed = 11
"""


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# npmle-fit
# ---------------------------------------------------------------------------

def test_npmle_fit_constant_counts(runner, tmp_path):
    data = write(tmp_path, "counts.txt", "3\n3\n3\n3\n")
    result = runner.invoke(main, ["npmle-fit", data])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["meta"]["command"] == "npmle-fit"
    assert doc["fit"]["converged"] is True
    assert doc["fit"]["prior"]["atoms"] == [pytest.approx(3.0, abs=1e-6)]
    assert doc["fit"]["prior"]["weights"] == [1.0]
    assert doc["fit"]["kkt_gap"] <= doc["fit"]["tol"]


def test_npmle_fit_json_histogram_and_out_file(runner, tmp_path):
    data = write(tmp_path, "counts.json", json.dumps({"counts": {"0": 5, "2": 5}}))
    out = tmp_path / "fit.json"
    result = runner.invoke(main, ["npmle-fit", data, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["fit"]["converged"] is True
    assert doc["meta"]["config"]["strict"] is True       # single fits default strict


def test_npmle_fit_rejects_garbage(runner, tmp_path):
    data = write(tmp_path, "bad.txt", "zero\nthree\n")
    result = runner.invoke(main, ["npmle-fit", data])
    assert result.exit_code == 2
    result = runner.invoke(main, ["npmle-fit", str(tmp_path / "missing.txt")])
    assert result.exit_code == 2


@pytest.mark.parametrize("big", ["100000000000000000000", "10000000000000000000"])
def test_npmle_fit_counts_beyond_int64_exit_2(runner, tmp_path, big):
    data = write(tmp_path, "counts.txt", f"1\n2\n{big}\n")
    result = runner.invoke(main, ["npmle-fit", data])
    assert result.exit_code == 2, result.output
    assert "could not parse counts: observed values must be whole numbers below 2^63" \
        in result.output


@pytest.mark.parametrize("counts, message", [
    ({str(2 ** 63): 1}, "observed values must be whole numbers below 2^63"),
    ({"1": 2 ** 63}, "counts must be positive integers below 2^63"),
    ({"5": 2 ** 62, "6": 2 ** 62}, "counts must total below 2^63"),
])
def test_npmle_fit_json_counts_beyond_int64_exit_2(runner, tmp_path, counts, message):
    data = write(tmp_path, "counts.json", json.dumps({"counts": counts}))
    result = runner.invoke(main, ["npmle-fit", data])
    assert result.exit_code == 2, result.output
    assert f"could not parse counts: {message}" in result.output


def test_npmle_fit_uncertified_exits_3_unless_lenient(runner, tmp_path):
    data = write(tmp_path, "counts.json", json.dumps({"counts": {"0": 30, "4": 15, "9": 5}}))
    args = ["npmle-fit", data, "--tol", "1e-15", "--max-iter", "200"]
    strict = runner.invoke(main, args)
    assert strict.exit_code == 3, strict.output
    assert "NPMLE did not reach tol=1e-15" in strict.output
    lenient = runner.invoke(main, ["--lenient"] + args)
    assert lenient.exit_code == 0, lenient.output
    doc = json.loads(lenient.output)
    assert doc["fit"]["converged"] is False
    assert doc["fit"]["kkt_gap"] > 1e-15
    assert doc["meta"]["config"]["strict"] is False


@pytest.mark.parametrize("counts", [[5, 3], {"3": 2.5, "0": 4}, {"3": True, "0": 4}])
def test_npmle_fit_malformed_counts_exit_2(runner, tmp_path, counts):
    data = write(tmp_path, "counts.json", json.dumps({"counts": counts}))
    result = runner.invoke(main, ["npmle-fit", data])
    assert result.exit_code == 2, result.output
    assert "could not parse counts" in result.output


# ---------------------------------------------------------------------------
# eb-estimate
# ---------------------------------------------------------------------------

SAMPLE = "0\n0\n1\n1\n1\n1\n2\n2\n3\n4\n"    # N = [2,4,2,1,1]


def test_eb_estimate_robbins_table(runner, tmp_path):
    data = write(tmp_path, "counts.txt", SAMPLE)
    result = runner.invoke(main, ["eb-estimate", data, "--method", "robbins", "--y-cap", "3"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0].startswith("# poisson_eb")
    assert lines[2] == "y,estimate"
    assert lines[3] == "0,2.0"       # 1 * N(1)/N(0) = 4/2
    assert lines[4] == "1,1.0"
    assert lines[5] == "2,1.5"
    assert lines[6] == "3,4.0"


def test_eb_estimate_trunc_requires_y0(runner, tmp_path):
    data = write(tmp_path, "counts.txt", SAMPLE)
    result = runner.invoke(main, ["eb-estimate", data, "--method", "robbins-trunc"])
    assert result.exit_code == 2
    result = runner.invoke(
        main, ["eb-estimate", data, "--method", "robbins-trunc", "--y0", "2", "--y-cap", "7"]
    )
    assert result.exit_code == 0
    rows = dict(line.split(",") for line in result.output.splitlines()[3:])
    assert rows["7"] == "7.0"                      # identity beyond y0
    assert rows["1"] == repr(0.8)                  # add-one below y0


def test_eb_estimate_rejects_oracle(runner, tmp_path):
    data = write(tmp_path, "counts.txt", SAMPLE)
    result = runner.invoke(main, ["eb-estimate", data, "--method", "oracle"])
    assert result.exit_code == 2


@pytest.mark.parametrize("method", ["robbins", "robbins-addone"])
def test_eb_estimate_rejects_y0_for_untruncated_rules(runner, tmp_path, method):
    data = write(tmp_path, "counts.txt", SAMPLE)
    result = runner.invoke(main, ["eb-estimate", data, "--method", method, "--y0", "2"])
    assert result.exit_code == 2, result.output
    assert "never truncates" in result.output


@pytest.mark.parametrize("method", ["robbins", "npmle"])
def test_eb_estimate_rejects_negative_y_cap(runner, tmp_path, method):
    data = write(tmp_path, "counts.txt", SAMPLE)
    result = runner.invoke(main, ["eb-estimate", data, "--method", method, "--y-cap", "-1"])
    assert result.exit_code == 2, result.output
    assert "y_cap must be >= 0" in result.output


def test_eb_estimate_npmle_method(runner, tmp_path):
    data = write(tmp_path, "counts.txt", "2\n2\n2\n2\n2\n2\n2\n2\n2\n2\n")
    result = runner.invoke(main, ["eb-estimate", data, "--method", "npmle", "--y-cap", "4"])
    assert result.exit_code == 0, result.output
    rows = dict(line.split(",") for line in result.output.splitlines()[3:])
    # constant data fits a unit mass at 2, whose posterior mean is 2 everywhere
    for y in range(5):
        assert float(rows[str(y)]) == pytest.approx(2.0, abs=1e-5)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_regret_sweep_reruns_byte_identical(runner, tmp_path):
    plan = write(tmp_path, "plan.txt", PLAN_TEXT)
    out1, out2 = tmp_path / "rows1.csv", tmp_path / "rows2.csv"
    r1 = runner.invoke(main, ["regret-sweep", plan, "--out", str(out1)])
    r2 = runner.invoke(main, ["regret-sweep", plan, "--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.splitlines()[0].startswith("# poisson_eb")
    assert "individual_regret" in text and "total_regret" in text


def test_regret_sweep_seed_override(runner, tmp_path):
    plan = write(tmp_path, "plan.txt", PLAN_TEXT)
    result = runner.invoke(main, ["--seed", "99", "regret-sweep", plan])
    assert result.exit_code == 0
    assert "seed=99" in result.output.splitlines()[1]


def test_regret_sweep_rejects_bad_plan(runner, tmp_path):
    plan = write(tmp_path, "plan.txt", "voltage = 9\n" + PLAN_TEXT)
    result = runner.invoke(main, ["regret-sweep", plan])
    assert result.exit_code == 2


@pytest.mark.parametrize("bad", [
    "tuning_c = -1",
    "tuning_c = inf",                       # every tuned row would fail in math.ceil
    "direct_total = 7",                     # a flag: 0 or 1
    "direct_total = -1",
    "disc_tol = 0.5",
    "prior = family=heavy_tail p=1.5",      # p = 2 moments are infinite
    "prior = family=two_point a=5",         # eps missing
    # keys that plans no longer take: refused as unknown, never silently ignored
    "solver_tol = 2",
    "npmle_rho = -1",
    "npmle_rho = 0.9",
    "npmle_y0 = -3",
    "robbins_y0 = -2",
    "seed = -1",
    "prior = family=heavy_tail p=1,2",      # p takes one number
    "prior = family=two_point eps=0.2 a=5 epz=0.3",  # no such parameter
    "methods = robbins-addone,robbins-addone",       # each row would be written twice
    "metrics = individual_regret,individual_regret",
    "prior = family=heavy_tail p=inf",      # the normalizer 1/E_2(p) overflows
    "p = nan",                              # a NaN moment order
])
def test_regret_sweep_rejects_bad_plan_values(runner, tmp_path, bad):
    # the bad line replaces the plan's own line for its key, if any
    key = bad.partition("=")[0].strip()
    kept = [line for line in PLAN_TEXT.splitlines() if line.partition("=")[0].strip() != key]
    plan = write(tmp_path, "plan.txt", "\n".join(kept + [bad]) + "\n")
    result = runner.invoke(main, ["regret-sweep", plan])
    assert result.exit_code == 2, result.output
    assert "bad plan" in result.output
    assert "twice" not in result.output


def test_regret_sweep_refuses_direct_total_without_total_regret(runner, tmp_path):
    # no total_regret_direct row would be written, yet the header would say direct_total=1
    plan = write(tmp_path, "plan.txt", PLAN_TEXT.replace(",total_regret", "") + "direct_total = 1\n")
    result = runner.invoke(main, ["regret-sweep", plan])
    assert result.exit_code == 2, result.output
    assert "direct_total = 1 needs total_regret" in result.output


def test_regret_sweep_refuses_robbins_trunc_at_p_at_most_1(runner, tmp_path):
    # it once exited 0 with every robbins-trunc row NaN and failed:UnsupportedRegimeError
    text = PLAN_TEXT.replace("p = 2\n", "").replace("robbins,robbins-addone", "robbins-trunc,npmle")
    result = runner.invoke(main, ["regret-sweep", write(tmp_path, "plan.txt", text)])
    assert result.exit_code == 2, result.output
    assert "bad plan: tuning requires p > 1 (got p = 1.0)" in result.output


@pytest.mark.parametrize("extra, message", [
    ("replicates = 50", "plan key 'replicates' is set twice"),
    ("prior = family=heavy_tail p=2 p=3", "plan key 'prior' is set twice"),
])
def test_regret_sweep_rejects_a_repeated_key(runner, tmp_path, extra, message):
    plan = write(tmp_path, "plan.txt", PLAN_TEXT + extra + "\n")
    result = runner.invoke(main, ["regret-sweep", plan])
    assert result.exit_code == 2, result.output
    assert f"bad plan: {message}" in result.output


def test_regret_sweep_out_slopes_writes_the_slope_summary(runner, tmp_path):
    text = PLAN_TEXT.replace("n_grid = 20,40", "n_grid = 20,60,200,700").replace(
        "replicates = 2", "replicates = 1")
    rows, slopes = tmp_path / "rows.csv", tmp_path / "slopes.csv"
    result = runner.invoke(main, ["regret-sweep", write(tmp_path, "plan.txt", text),
                                  "--out", str(rows), "--out-slopes", str(slopes)])
    assert result.exit_code == 0, result.output
    report = ex.run_plan(ex.parse_plan(text))
    assert rows.read_text() == report.rows_csv()
    assert slopes.read_text() == report.slopes_csv()
    assert slopes.read_text().splitlines()[2] == "method,metric,slope,ci_lo,ci_hi,n_points"
    assert len(report.slopes) == 4                   # 2 methods x 2 metrics


def test_regret_sweep_rejects_negative_seed_option(runner, tmp_path):
    plan = write(tmp_path, "plan.txt", PLAN_TEXT)
    result = runner.invoke(main, ["--seed", "-1", "regret-sweep", plan])
    assert result.exit_code == 2, result.output
    assert "bad plan: seed must be >= 0" in result.output


def test_sweep_strictness_controls_exit_code(runner, tmp_path, monkeypatch):
    def boom(*a, **k):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(ex, "individual_regret_trial", boom)
    plan = write(tmp_path, "plan.txt", PLAN_TEXT)
    lenient = runner.invoke(main, ["regret-sweep", plan])
    assert lenient.exit_code == 0
    assert "failed:ValueError" in lenient.output
    strict = runner.invoke(main, ["--strict", "regret-sweep", plan])
    assert strict.exit_code == 3


def test_strict_sweep_exits_3_on_uncertified_rows(runner, tmp_path, monkeypatch):
    real_fit = ex.fit_npmle
    monkeypatch.setattr(ex, "fit_npmle", lambda data, **kw: real_fit(data, max_iter=1, **kw))
    plan = write(tmp_path, "plan.txt", PLAN_TEXT.replace("robbins,robbins-addone", "npmle"))
    out = tmp_path / "rows.csv"
    lenient = runner.invoke(main, ["regret-sweep", plan])
    assert lenient.exit_code == 0, lenient.output
    assert "solver_not_converged" in lenient.output
    strict = runner.invoke(main, ["--strict", "regret-sweep", plan, "--out", str(out)])
    assert strict.exit_code == 3, strict.output
    assert "uncertified" in strict.output
    body = out.read_text().splitlines()[3:]
    assert len(body) == 2 * 2 * 2                  # every row is written first
    assert all("solver_not_converged" in line for line in body)


def test_seed_flag_overrides_plan_seed_even_at_zero(runner, tmp_path):
    plan = write(tmp_path, "plan.txt", PLAN_TEXT)         # the plan sets seed = 11
    forced = runner.invoke(main, ["--seed", "0", "regret-sweep", plan])
    assert forced.exit_code == 0, forced.output
    assert " seed=0 " in forced.output.splitlines()[1]
    default = runner.invoke(main, ["regret-sweep", plan])
    assert default.exit_code == 0, default.output
    assert " seed=11 " in default.output.splitlines()[1]


# ---------------------------------------------------------------------------
# moment-match and verify
# ---------------------------------------------------------------------------

def test_moment_match_verbatim_source(runner):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = CliRunner().invoke(
            main,
            ["moment-match", "--source", "family=discrete atoms=1,5 weights=0.5,0.5",
             "--m", "16", "--eta", "1e-2"],
        )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["report"]["approximant"]["atoms"] == [1.0, 5.0]
    assert doc["report"]["achieved_sup_error"] == 0.0
    assert doc["meta"]["config"]["M"] == 16.0


def test_moment_match_rejects_bad_source(runner):
    result = runner.invoke(
        main, ["moment-match", "--source", "family=gaussian", "--m", "16", "--eta", "1e-2"]
    )
    assert result.exit_code == 2


def test_moment_match_refuses_a_tiny_partition_constant(runner):
    result = runner.invoke(main, ["moment-match", "--source", "family=point_mass value=1",
                                  "--m", "16", "--eta", "1e-3", "--c", "1e-300"])
    assert result.exit_code == 2, result.output
    assert "windows, over 1e+05" in result.output


def test_moment_match_rejects_source_missing_a_parameter(runner):
    result = runner.invoke(
        main, ["moment-match", "--source", "family=heavy_tail", "--m", "64", "--eta", "1e-2"]
    )
    assert result.exit_code == 2, result.output
    assert "heavy_tail needs parameter 'p'" in result.output


def test_moment_match_rejects_an_unknown_parameter(runner):
    # a misspelt name once fell back to the default point_mass(1)
    result = runner.invoke(
        main, ["moment-match", "--source", "family=point_mass valu=3",
               "--m", "64", "--eta", "1e-2"]
    )
    assert result.exit_code == 2, result.output
    assert "point_mass takes no parameter 'valu'" in result.output


def test_moment_match_rejects_a_list_for_a_single_parameter(runner):
    result = runner.invoke(
        main, ["moment-match", "--source", "family=two_point eps=0.1,0.2 a=5",
               "--m", "64", "--eta", "1e-2"]
    )
    assert result.exit_code == 2, result.output
    assert "prior parameter 'eps' takes one value" in result.output


def test_verify_command_passes(runner):
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 0, result.output
    assert "6/6 checks passed" in result.output
    assert "[FAIL]" not in result.output


def test_verify_command_exits_1_when_a_check_fails(runner, monkeypatch):
    results = [CheckResult("fine", True, 0.0), CheckResult("broken", False, 2.0, "off")]
    monkeypatch.setattr(cli, "run_all", lambda: results)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 1, result.output
    assert "[FAIL] broken: worst=2.000e+00 off" in result.output
    assert "1/2 checks passed" in result.output


def test_numerical_failure_exits_3(runner, monkeypatch):
    def uncertifiable(*args, **kwargs):
        raise NumericalFailureError("could not certify the discretization")

    monkeypatch.setattr(cli, "resolve", uncertifiable)
    result = runner.invoke(main, ["moment-match", "--source", "family=heavy_tail p=2",
                                  "--m", "64", "--eta", "1e-2"])
    assert result.exit_code == 3, result.output
    assert "error: could not certify the discretization" in result.output


def test_cli_import_skips_scipy_stats(in_fresh_interpreter):
    # every peb run pays for what importing the CLI pulls in; only NPMLE fits
    # and a few commands load scipy, on first use
    code = ("import poisson_eb.cli\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert in_fresh_interpreter(code) == "[]"


_RUN_PLAN = """
from poisson_eb import parse_plan, resolve, run_plan
plan = parse_plan({plan!r})
resolved = resolve(plan.prior, p=plan.p, disc_tol=plan.disc_tol, seed=plan.seed)
before = set(sys.modules)
report = run_plan(plan, resolved)
assert not any("failed" in r.flags for r in report.rows)
print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))
print(sorted(set(sys.modules) - before))
print('numpy.ma' in sys.modules)
"""


def test_f_modeling_and_oracle_plan_runs_without_scipy(in_fresh_interpreter):
    plan = ("prior = family=heavy_tail p=1.5\nn_grid = 1000,10000\nreplicates = 1\n"
            "methods = robbins-addone,robbins-trunc,oracle\n")
    # nor numpy.ma, which plain np.unique loads on first use
    assert in_fresh_interpreter(_RUN_PLAN.format(plan=plan)).splitlines() == ["[]", "[]",
                                                                              "False"]


def test_npmle_plan_loads_only_the_compiled_nnls(in_fresh_interpreter):
    plan = ("prior = family=heavy_tail p=2\nn_grid = 100,1000\nreplicates = 1\n"
            "methods = npmle\nmetrics = hellinger_sq,individual_regret\n")
    code = _RUN_PLAN.format(plan=plan) + (
        "import numpy as np\n"
        "import scipy.optimize\n"
        "from poisson_eb import npmle\n"
        "rng = np.random.default_rng(7)\n"
        "A, b = rng.random((30, 12)), rng.standard_normal(30)\n"
        "x, rnorm = npmle.nnls(A, b)\n"
        "y, ynorm = scipy.optimize.nnls(A, b)\n"
        "print(npmle.nnls is not scipy.optimize.nnls, x.tobytes() == y.tobytes(), rnorm == ynorm)\n")
    scipy_loaded, loaded_in_trials, ma_loaded, agree = in_fresh_interpreter(code).splitlines()
    scipy_loaded = ast.literal_eval(scipy_loaded)
    assert "scipy.optimize._slsqplib" in scipy_loaded
    assert "scipy" not in scipy_loaded  # the package is found, and its __init__ never runs
    assert not [m for m in scipy_loaded if m.startswith(("scipy.optimize", "scipy.linalg",
                                                         "scipy.special"))
                and m != "scipy.optimize._slsqplib"]
    assert loaded_in_trials == "[]"
    assert ma_loaded == "False"
    assert agree == "True True True"

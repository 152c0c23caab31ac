import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import poisson_eb
from poisson_eb import experiments as ex
from poisson_eb.cli import main

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
    "solver_tol = 2",
    "disc_tol = 0.5",
    "prior = family=heavy_tail p=1.5",      # p = 2 moments are infinite
    "prior = family=two_point a=5",         # eps missing
    "npmle_rho = -1",
    "npmle_rho = 0.9",                      # above 1/e
    "npmle_y0 = -3",
    "robbins_y0 = -2",
    "seed = -1",
    "prior = family=heavy_tail p=1,2",      # p takes one number
    "prior = family=two_point eps=0.2 a=5 epz=0.3",  # no such parameter
    "prior = family=heavy_tail p=inf",      # the normalizer 1/E_2(p) overflows
    "p = nan",                              # a NaN moment order
])
def test_regret_sweep_rejects_bad_plan_values(runner, tmp_path, bad):
    plan = write(tmp_path, "plan.txt", PLAN_TEXT + bad + "\n")
    result = runner.invoke(main, ["regret-sweep", plan])
    assert result.exit_code == 2, result.output
    assert "bad plan" in result.output


def test_regret_sweep_rejects_negative_seed_option(runner, tmp_path):
    plan = write(tmp_path, "plan.txt", PLAN_TEXT)
    result = runner.invoke(main, ["--seed", "-1", "regret-sweep", plan])
    assert result.exit_code == 2, result.output
    assert "bad plan: seed must be >= 0" in result.output


def test_density_risk_forces_metric(runner, tmp_path):
    plan = write(tmp_path, "plan.txt", PLAN_TEXT)
    result = runner.invoke(main, ["density-risk", plan])
    assert result.exit_code == 0, result.output
    body = [l for l in result.output.splitlines() if l and not l.startswith("#")][1:]
    assert body, "expected data rows"
    for line in body:
        cells = line.split(",")
        assert cells[2] == "npmle"
        assert cells[3] == "hellinger_sq"


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


def test_cli_import_skips_scipy_stats():
    # every peb run pays for what importing the CLI pulls in
    src = str(Path(poisson_eb.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import poisson_eb.cli; "
            "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"

"""Command-line interface, exercised in process through main()."""

import csv
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from equivkit import mvt, statdist, univariate
from equivkit.cli import main
from equivkit.powerkernel import UnivPowerQuery, power_uni
from equivkit.simkit import CSV_HEADER, run_simulation, univariate_sweep_config
from equivkit.statdist import t_quantile
from equivkit.univariate import (
    CalibrationTable,
    ctost_adjust,
    ctost_star_calibrate,
    delta_tost_adjust,
)

C0 = float(np.log(1.25))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# assess
# ---------------------------------------------------------------------------

def test_assess_inline_summary(capsys):
    payload = run_json(
        capsys, "assess", "--method", "ctost",
        "--theta-hat", "0.05", "--sigma1-hat", "0.05", "--nu2", "20",
    )
    assert payload["method"] == "ctost"
    assert payload["margins"][0] == pytest.approx(0.14090086996663614, abs=1e-10)
    assert payload["reject_null"] is True
    assert payload["verdict"] == "equivalent"


def test_assess_inline_multivariate_warns_identity(capsys):
    with pytest.warns(UserWarning, match="assuming independence"):
        payload = run_json(
            capsys, "assess", "--method", "ctost",
            "--theta-hat", "0.01,0.02", "--sigma1-hat", "0.1,0.12", "--nu2", "20")
    assert payload["meta"]["dim"] == 2
    assert payload["meta"]["correlation_assumed"] is True


def test_assess_matches_library_bit_for_bit(capsys):
    payload = run_json(
        capsys, "assess", "--method", "ctost",
        "--theta-hat", "0.03", "--sigma1-hat", "0.08", "--nu2", "12",
    )
    assert payload["margins"][0] == ctost_adjust(0.08, 12).c_used


def test_assess_case_study_all_layers(capsys):
    payload = run_json(capsys, "assess", "--case-study", "--method", "ctost")
    assert payload["meta"]["dim"] == 4
    assert len(payload["dimension_names"]) == 4
    assert payload["verdict"] == "equivalent"
    assert payload["meta"]["gamma"] == pytest.approx(0.3089, abs=5e-4)


def test_assess_case_study_marks_assumed_correlation(capsys):
    for method in ("tost", "alpha-tost"):
        payload = run_json(capsys, "assess", "--case-study", "--method", method)
        assert payload["meta"]["correlation_assumed"] is True


def test_case_study_alias(capsys):
    a = run_json(capsys, "assess", "--case-study", "--method", "tost")
    b = run_json(capsys, "case-study", "--method", "tost")
    assert a == b
    assert a["verdict"] == "not equivalent"


def test_assess_text_format(capsys):
    code, out, err = run_cli(
        capsys, "assess", "--case-study", "--method", "ctost",
        "--format", "text")
    assert code == 0
    assert "equivalent" in out
    assert "stratum corneum" in out


def test_assess_csv_format_rejected(capsys):
    code, out, err = run_cli(
        capsys, "assess", "--case-study", "--format", "csv")
    assert code == 2
    assert "json or text" in json.loads(err)["error"]["message"]


def test_assess_refined_flag_promotes_method(capsys):
    payload = run_json(
        capsys, "assess", "--method", "ctost", "--refined",
        "--theta-hat", "0.01", "--sigma1-hat", "0.1", "--nu2", "5",
    )
    assert payload["method"] == "ctost-star"
    want = ctost_star_calibrate(0.1, 5)
    assert payload["margins"][0] == want.c_used
    assert payload["meta"]["alpha_c"] == want.alpha_c


@pytest.mark.parametrize("argv", [
    ("assess", "--theta-hat", "0.1", "--sigma1-hat", "inf", "--nu2", "20",
     "--method", "ctost"),
    ("assess", "--theta-hat", "0.1", "--sigma1-hat", "nan", "--nu2", "20",
     "--method", "delta-tost"),
    ("adjust", "--method", "ctost", "--sigma1", "inf", "--nu2", "20"),
], ids=["assess-inf", "assess-nan", "adjust-inf"])
def test_non_finite_standard_error_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "finite" in json.loads(err)["error"]["message"]


def test_assess_univariate_methods_rejected_for_mvt(capsys):
    code, out, err = run_cli(
        capsys, "assess", "--case-study", "--method", "delta-tost")
    assert code == 2
    assert "univariate" in json.loads(err)["error"]["message"]


def test_assess_csv_input(tmp_path, capsys):
    p = tmp_path / "d.csv"
    rows = ["subject,dimension,reference,test"]
    rng = np.random.default_rng(8)
    for i in range(10):
        ref = float(np.exp(rng.normal(0, 0.2)))
        tst = ref * float(np.exp(rng.normal(0.02, 0.1)))
        rows.append(f"p{i},c,{ref!r},{tst!r}")
    p.write_text("\n".join(rows) + "\n")
    payload = run_json(capsys, "assess", "--input", str(p), "--method", "tost")
    assert payload["method"] == "tost"
    assert payload["meta"]["nu2"] == 9


def test_assess_json_input(tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(
        {"theta_hat": 0.02, "sigma1_hat": 0.06, "nu2": 15, "scale": "log"}))
    payload = run_json(capsys, "assess", "--input", str(p), "--method", "alpha-tost")
    assert payload["method"] == "alpha-tost"
    assert payload["meta"]["alpha_adj"] >= 0.05


def test_assess_malformed_input_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("subject,dimension,reference,test\ns1,d,oops,1\n")
    code, out, err = run_cli(capsys, "assess", "--input", str(p))
    assert code == 2
    body = json.loads(err)
    assert body["error"]["type"] == "InputError"
    assert "oops" in body["error"]["message"]


def test_assess_missing_file_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "assess", "--input", "/nonexistent/data.csv")
    assert code == 2


# ---------------------------------------------------------------------------
# adjust
# ---------------------------------------------------------------------------

def test_adjust_ctost(capsys):
    payload = run_json(
        capsys, "adjust", "--method", "ctost", "--sigma1", "0.05",
        "--nu2", "20")
    assert payload["c_used"] == pytest.approx(0.14090086996663614, abs=1e-12)
    assert payload["t_used"] == 0
    assert payload["converged"] is True


def test_adjust_delta_tost_reports_iterations(capsys):
    payload = run_json(
        capsys, "adjust", "--method", "delta-tost", "--sigma1", "0.1",
        "--nu2", "20")
    assert payload["iterations"] == delta_tost_adjust(0.1, 20).iterations > 0


def test_adjust_refined_small_sample(capsys):
    payload = run_json(
        capsys, "adjust", "--method", "ctost", "--refined",
        "--sigma1", "0.1", "--nu2", "5")
    assert payload["method"] == "ctost-star"
    assert payload["alpha_c"] < 0.05


def test_adjust_tost_is_an_error(capsys):
    code, out, err = run_cli(
        capsys, "adjust", "--method", "tost", "--sigma1", "0.1", "--nu2", "20")
    assert code == 2
    assert "adjustment" in json.loads(err)["error"]["message"]


def test_adjust_mvt(capsys):
    payload = run_json(
        capsys, "adjust", "--method", "ctost",
        "--sigma1", "0.1,0.15", "--nu2", "20")
    assert len(payload["c_star"]) == 2
    assert payload["gamma"] >= 0.05


def test_adjust_mvt_marks_assumed_correlation(capsys):
    with pytest.warns(UserWarning, match="assuming independence"):
        payload = run_json(
            capsys, "adjust", "--sigma1-hat", "0.1,0.15", "--nu2", "20")
    assert payload["correlation_assumed"] is True
    assert payload["converged"] is True


# ---------------------------------------------------------------------------
# power / size
# ---------------------------------------------------------------------------

def test_power_single_point_matches_library(capsys):
    payload = run_json(
        capsys, "power", "--method", "tost", "--sigma1", "0.1",
        "--nu2", "20", "--theta", "0.0")
    assert len(payload) == 1
    row = payload[0]
    want = power_uni(UnivPowerQuery(
        theta=0.0, sigma1=0.1, nu2=20,
        t=float(t_quantile(0.05, 20)), c=C0))
    assert row["power"] == want
    assert row["t"] == float(t_quantile(0.05, 20))


def test_power_method_ordering(capsys):
    payload = run_json(
        capsys, "power", "--method", "tost,alpha-tost,ctost",
        "--sigma1", "0.1", "--nu2", "20", "--theta", "0.0")
    by_method = {row["method"]: row["power"] for row in payload}
    assert by_method["tost"] <= by_method["alpha-tost"] + 1e-12
    assert by_method["alpha-tost"] <= by_method["ctost"] + 1e-12


def test_size_exactness_contrast(capsys):
    payload = run_json(
        capsys, "size", "--method", "tost,ctost", "--sigma1", "0.05,0.15",
        "--nu2", "20")
    for row in payload:
        if row["method"] == "ctost":
            assert row["size"] == pytest.approx(0.05, abs=1e-8)
        else:
            assert row["size"] <= 0.05 + 1e-10


def test_adjust_joint_margin_nonconvergence_exit_code(monkeypatch, capsys):
    def unmatched(sigma, level, c0, **kw):
        c, iters, conv, resid = match_margin(sigma, level, c0, **kw)
        return c, iters, np.zeros_like(conv), resid

    match_margin = mvt._match_margin
    monkeypatch.setattr(mvt, "_match_margin", unmatched)
    with pytest.warns(UserWarning, match="assuming independence"):
        code, out, err = run_cli(capsys, "adjust", "--sigma1-hat", "0.1,0.15",
                                 "--nu2", "20")
    assert code == 3
    body = json.loads(err)
    assert body["error"]["type"] == "NonConvergenceError"
    assert "marginal size" in body["error"]["message"]


def test_assess_joint_alpha_star_nonconvergence_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(univariate, "_ROOT_MAX_ITER", 3)
    with pytest.warns(UserWarning, match="assuming independence"):
        code, _, err = run_cli(capsys, "assess", "--method", "alpha-tost",
                               "--theta-hat", "0,0", "--sigma1-hat", "0.1,0.14",
                               "--nu2", "20")
    assert code == 3
    body = json.loads(err)
    assert body["error"]["type"] == "NonConvergenceError"
    assert "joint alpha*" in body["error"]["message"]


def test_power_nonconvergence_exit_code(monkeypatch, capsys):
    # this row's 65-point Gauss-Kronrod pair disagrees; with the largest
    # rule cut to that pair the probability cannot be certified
    monkeypatch.setattr(statdist, "_GK_LAST", 32)
    code, out, err = run_cli(
        capsys, "power", "--method", "tost", "--sigma1", "0.006",
        "--nu2", "1", "--theta", "0.1")
    assert code == 3
    body = json.loads(err)
    assert body["error"]["type"] == "NonConvergenceError"
    assert re.search(r"65 points.*lo=-53\.857.*, hi=20\.523.*, nu2=1, t=6\.31375",
                     body["error"]["message"])


def test_power_grid_shape(capsys):
    payload = run_json(
        capsys, "power", "--method", "tost", "--sigma1", "0.05,0.1",
        "--nu2", "10,20", "--theta", "0.0,0.1")
    assert len(payload) == 8


def test_power_csv_format(tmp_path, capsys):
    out_file = tmp_path / "p.csv"
    code, out, err = run_cli(
        capsys, "power", "--method", "tost", "--sigma1", "0.1",
        "--nu2", "20", "--theta", "0.0", "--format", "csv",
        "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    assert len(rows) == 1
    assert float(rows[0]["power"]) == pytest.approx(0.39276236550322513, abs=1e-12)


def test_power_bad_grid_value(capsys):
    code, out, err = run_cli(
        capsys, "power", "--method", "tost", "--sigma1", "0.1,zap",
        "--nu2", "20", "--theta", "0.0")
    assert code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_csv_and_provenance(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    payload = run_json(
        capsys, "simulate", "--design", "univariate-sweep", "--desk",
        "--replicates", "300", "--methods", "tost,ctost", "--nu2", "10",
        "--out", str(out_file), "--seed", "5")
    assert payload["design"] == "univariate-sweep"
    assert payload["seed"] == 5
    assert payload["out"] == str(out_file)
    assert payload["config"]["replicates"] == 300
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert payload["records"] == len(lines) - 1


def test_simulate_byte_identical_across_runs(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, err = run_cli(
            capsys, "simulate", "--design", "univariate-sweep", "--desk",
            "--replicates", "200", "--methods", "ctost", "--nu2", "10",
            "--out", str(path), "--seed", "9")
        assert code == 0, err
    assert a.read_bytes() == b.read_bytes()


def test_simulate_mvt_design(tmp_path, capsys):
    out_file = tmp_path / "mvt.csv"
    payload = run_json(
        capsys, "simulate", "--design", "mvt-kappa", "--desk",
        "--replicates", "150", "--out", str(out_file), "--rho", "0.0")
    assert payload["design"] == "mvt-kappa"
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    assert {r["method"] for r in rows} == {"tost", "ctost"}
    assert all(r["K"] == "2" for r in rows)


def test_simulate_mvt_invalid_rho_rejected(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--design", "mvt-kappa", "--desk", "--K", "4",
        "--replicates", "150", "--rho", "1.5", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "(-1, 1)" in json.loads(err)["error"]["message"]


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_build_and_use(tmp_path, capsys):
    out_file = tmp_path / "tbl.csv"
    payload = run_json(
        capsys, "table", "--sigma-grid", "0.05,0.1,0.2",
        "--nu-grid", "5,10,20", "--out", str(out_file))
    assert payload["sigma_points"] == 3
    assert payload["nu_points"] == 3
    assert os.path.exists(out_file)
    # the freshly built table drives the table-lookup strategy
    got = run_json(
        capsys, "adjust", "--method", "ctost", "--refined",
        "--strategy", "table-lookup", "--table-path", str(out_file),
        "--sigma1", "0.1", "--nu2", "10")
    want = ctost_star_calibrate(0.1, 10, strategy="quadrature")
    assert got["alpha_c"] == pytest.approx(want.alpha_c, abs=1e-4)


def test_table_lookup_out_of_range_message(tmp_path, capsys):
    out_file = tmp_path / "tbl.csv"
    run_json(capsys, "table", "--sigma-grid", "0.05,0.1",
             "--nu-grid", "5,10", "--out", str(out_file))
    code, out, err = run_cli(
        capsys, "adjust", "--method", "ctost", "--refined",
        "--strategy", "table-lookup", "--table-path", str(out_file),
        "--sigma1", "0.4", "--nu2", "5")
    assert code == 2
    assert "outside table range" in json.loads(err)["error"]["message"]


def test_adjust_rejects_a_table_not_built_by_quadrature(tmp_path, capsys):
    table = tmp_path / "mc.csv"
    _toy_table().to_csv(table)
    table.write_text(table.read_text().replace("quadrature", "monte-carlo"))
    code, _, err = run_cli(
        capsys, "adjust", "--method", "ctost", "--refined",
        "--strategy", "table-lookup", "--table-path", str(table),
        "--sigma1", "0.1", "--nu2", "10")
    assert code == 2
    assert "strategy column" in json.loads(err)["error"]["message"]


def _toy_table(c0=C0):
    sg = np.array([0.005, 0.25])
    ng = np.array([5.0, 40.0])
    return CalibrationTable(sigma_grid=sg, nu_grid=ng, alpha_c=np.full((2, 2), 0.02),
                            c0=c0, alpha0=0.05)


SWEEP_ARGV = ("simulate", "--design", "univariate-sweep", "--desk",
              "--replicates", "200", "--methods", "ctost,ctost-star",
              "--nu2", "10", "--seed", "9")


def test_simulate_table_path_is_passed_to_the_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EQUIVKIT_CALIBRATION_TABLE", raising=False)
    toy = _toy_table()
    toy.to_csv(tmp_path / "toy.csv")
    out_file = tmp_path / "sweep.csv"
    run_json(capsys, *SWEEP_ARGV, "--table-path", str(tmp_path / "toy.csv"),
             "--out", str(out_file))
    assert "EQUIVKIT_CALIBRATION_TABLE" not in os.environ
    cfg = dataclasses.replace(
        univariate_sweep_config(seed=9, replicates=200),
        methods=("ctost", "ctost-star"), nu2_set=(10,))
    want = [r["rate"] for r in run_simulation(cfg, table=toy).records
            if r["method"] == "ctost-star"]
    bundled = [r["rate"] for r in run_simulation(cfg).records
               if r["method"] == "ctost-star"]
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    got = [float(r["rate"]) for r in rows if r["method"] == "ctost-star"]
    assert got == want
    assert got != bundled


def test_simulate_corrupt_table_exit_code(tmp_path, capsys):
    bad = tmp_path / "corrupt.csv"
    bad.write_text("sigma1,nu2,alpha_c,strategy,c0,alpha0\n0.1,5,oops,quadrature\n")
    code, _, err = run_cli(capsys, *SWEEP_ARGV, "--table-path", str(bad),
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "InputError"
    assert not (tmp_path / "x.csv").exists()


def test_simulate_mismatched_table_exit_code(tmp_path, capsys):
    _toy_table(c0=0.3).to_csv(tmp_path / "other.csv")
    code, _, err = run_cli(capsys, *SWEEP_ARGV, "--table-path", str(tmp_path / "other.csv"),
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "table was built for" in json.loads(err)["error"]["message"]


# ---------------------------------------------------------------------------
# interface conventions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("table", "--seed", "5"),
    ("table", "--tol", "1e-3"),
    ("simulate", "--design", "mvt-kappa", "--tol", "1e-1"),
])
def test_unread_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["assess", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "log 1.25" in out
    assert "0.05" in out


def test_json_uses_17_significant_digits(capsys):
    code, out, err = run_cli(
        capsys, "adjust", "--method", "ctost", "--sigma1", "0.05",
        "--nu2", "20")
    assert code == 0
    assert "0.22314355131420976" in out  # c0 rendered at full precision


FROZEN_UNIVARIATE = os.path.join(os.path.dirname(__file__), "data",
                                 "frozen_cli_univariate.json")


def test_univariate_outputs_match_frozen_text(capsys):
    # stdout of adjust, assess and size at one univariate summary, frozen as
    # raw text: it pins key order, every digit and the keys perfbench reads
    # (meta t_used, alpha_adj, alpha_c, c_star, saturated; converged)
    with open(FROZEN_UNIVARIATE, encoding="utf-8") as fh:
        frozen = json.load(fh)
    assert len(frozen) == 11
    for command, want in frozen.items():
        code, out, err = run_cli(capsys, *command.split())
        assert code == 0, err
        assert out == want, command


def test_seeded_outputs_stable_across_invocations(capsys):
    a = run_json(capsys, "assess", "--case-study", "--method", "ctost",
                 "--seed", "3")
    b = run_json(capsys, "assess", "--case-study", "--method", "ctost",
                 "--seed", "3")
    assert a == b

"""Simulation harness: reproducibility, schema discipline, and agreement
between empirical rates and the analytic rejection probabilities."""

import dataclasses
import hashlib
import json
import pathlib
import time

import numpy as np
import pytest

from equivkit import cli, simkit, univariate
from equivkit.base import EquivalenceSpec, InputError, NonConvergenceError
from equivkit.powerkernel import UnivPowerQuery, power_uni
from equivkit.simkit import (
    CSV_HEADER,
    MVT_SIGMA_CONFIGS,
    SimulationConfig,
    SimulationResult,
    emit_plot_data,
    mvt_kappa_config,
    run_mvt_kappa,
    run_simulation,
    run_univariate_sweep,
    univariate_sweep_config,
)
from equivkit.statdist import t_quantile
from equivkit.univariate import UnivSummary, ctost_adjust, decide

C0 = float(np.log(1.25))


def _small_univ(methods=("tost", "ctost"), replicates=500, seed=7,
                sigma_grid=(0.05, 0.15), nu2_set=(10,), theta_grid=None):
    return SimulationConfig(
        design="univariate-sweep",
        sigma_grid=sigma_grid,
        nu2_set=nu2_set,
        theta_or_kappa_grid=theta_grid if theta_grid is not None else (0.0, C0),
        methods=methods,
        replicates=replicates,
        seed=seed,
    )


def _small_mvt(methods=("tost", "ctost"), replicates=200, seed=3,
               rho_set=(0.0,), K=2, kappa_grid=(0.0, 1.0)):
    return SimulationConfig(
        design="mvt-kappa",
        sigma_grid=((0.08, 0.12),),
        nu2_set=(20,),
        theta_or_kappa_grid=kappa_grid,
        K=K,
        rho_set=rho_set,
        methods=methods,
        replicates=replicates,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InputError):
        SimulationConfig(design="bootstrap", sigma_grid=(0.1,), nu2_set=(10,),
                         theta_or_kappa_grid=(0.0,))
    with pytest.raises(InputError):
        _small_univ(replicates=50)
    with pytest.raises(InputError):
        _small_univ(methods=())
    with pytest.raises(InputError):
        _small_univ(methods=("anova",))
    with pytest.raises(InputError):
        _small_univ(sigma_grid=(0.1, -0.2))
    with pytest.raises(InputError):
        _small_univ(nu2_set=())
    with pytest.raises(InputError):
        SimulationConfig(design="univariate-sweep", sigma_grid=(0.1,),
                         nu2_set=(10,), theta_or_kappa_grid=(0.0,), K=2)


def test_config_mvt_rules():
    ok = _small_mvt(K=4, methods=("tost", "ctost"))
    assert ok.K == 4
    with pytest.raises(InputError):
        _small_mvt(rho_set=(1.0,))
    with pytest.raises(InputError, match="delta-tost"):
        _small_mvt(methods=("delta-tost",))
    with pytest.raises(InputError):
        SimulationConfig(design="mvt-kappa", sigma_grid=(0.1,), nu2_set=(20,),
                         theta_or_kappa_grid=(0.0,), K=2)
    with pytest.raises(InputError, match="nonnegative"):
        _small_mvt(kappa_grid=(-0.5, 1.0))


def test_config_methods_deduplicated_in_order():
    cfg = _small_univ(methods=("ctost", "tost", "ctost"))
    assert cfg.methods == ("ctost", "tost")


def test_factory_desk_defaults():
    cfg = univariate_sweep_config("desk")
    assert cfg.design == "univariate-sweep"
    assert len(cfg.sigma_grid) == 21
    assert cfg.sigma_grid[0] == pytest.approx(0.01)
    assert cfg.sigma_grid[-1] == pytest.approx(0.2)
    assert cfg.nu2_set == (10, 20, 40, 80)
    assert cfg.replicates == 10_000
    assert set(cfg.theta_or_kappa_grid) == {0.0, C0}

    mv = mvt_kappa_config("desk")
    assert mv.design == "mvt-kappa"
    assert mv.K == 2
    assert mv.sigma_grid == MVT_SIGMA_CONFIGS
    assert len(mv.theta_or_kappa_grid) == 30
    assert mv.theta_or_kappa_grid[0] == 0.0
    assert mv.theta_or_kappa_grid[-1] == pytest.approx(1.2)
    assert mv.replicates == 10_000


def test_factory_full_scale():
    cfg = univariate_sweep_config("full")
    assert len(cfg.sigma_grid) == 1000
    assert cfg.replicates == 100_000
    mv = mvt_kappa_config("full")
    assert mv.replicates == 50_000
    with pytest.raises(InputError):
        univariate_sweep_config("jumbo")


def test_config_hash_tracks_content():
    a = _small_univ(seed=7)
    b = _small_univ(seed=7)
    c = _small_univ(seed=8)
    ra = run_univariate_sweep(a)
    rb = run_univariate_sweep(b)
    rc = run_univariate_sweep(c)
    assert ra.config_hash == rb.config_hash
    assert ra.config_hash != rc.config_hash


# ---------------------------------------------------------------------------
# univariate sweep
# ---------------------------------------------------------------------------

def test_sweep_record_schema_and_counts():
    cfg = _small_univ()
    res = run_univariate_sweep(cfg)
    assert isinstance(res, SimulationResult)
    want = len(cfg.sigma_grid) * len(cfg.nu2_set) * \
        len(cfg.theta_or_kappa_grid) * len(cfg.methods)
    assert len(res.records) == want
    keys = set(CSV_HEADER.split(","))
    for rec in res.records:
        assert set(rec) == keys
        assert rec["design"] == "univariate-sweep"
        assert rec["K"] == 1
        assert rec["n"] == cfg.replicates
        assert rec["seed"] == cfg.seed
        assert 0.0 <= rec["rate"] <= 1.0


def test_sweep_stderr_is_binomial():
    res = run_univariate_sweep(_small_univ())
    for rec in res.records:
        p, n = rec["rate"], rec["n"]
        assert rec["stderr"] == pytest.approx(np.sqrt(p * (1 - p) / n), abs=1e-12)


def test_sweep_deterministic():
    a = run_univariate_sweep(_small_univ(seed=11))
    b = run_univariate_sweep(_small_univ(seed=11))
    assert a.records == b.records


def test_sweep_method_order_does_not_change_rates():
    # common random numbers per cell: each method sees the same draws no
    # matter which other methods run alongside it
    both = run_univariate_sweep(_small_univ(methods=("tost", "ctost"), seed=5))
    alone = run_univariate_sweep(_small_univ(methods=("ctost",), seed=5))
    rates_both = {
        (r["sigma_config"], r["theta_or_kappa"]): r["rate"]
        for r in both.records if r["method"] == "ctost"
    }
    rates_alone = {
        (r["sigma_config"], r["theta_or_kappa"]): r["rate"]
        for r in alone.records
    }
    assert rates_both == rates_alone


def test_sweep_crn_margin_dominance_is_exact():
    # with shared draws the classical test's effective margin
    # c0 - t * s is below the matched margin for every replicate, so its
    # rejection count can never exceed the corrected test's, cell by cell
    cfg = _small_univ(methods=("tost", "ctost"), replicates=2000, seed=29,
                      sigma_grid=(0.03, 0.08, 0.16), nu2_set=(6, 25))
    res = run_univariate_sweep(cfg)
    cells = {}
    for r in res.records:
        key = (r["sigma_config"], r["nu2"], r["theta_or_kappa"])
        cells.setdefault(key, {})[r["method"]] = r["rate"]
    assert cells
    for key, by_method in cells.items():
        assert by_method["tost"] <= by_method["ctost"], key


def test_sweep_rates_match_analytic_power():
    cfg = _small_univ(methods=("tost", "ctost"), replicates=8000, seed=41,
                      sigma_grid=(0.1,), nu2_set=(20,), theta_grid=(0.0, C0))
    res = run_univariate_sweep(cfg)
    t0 = float(t_quantile(0.05, 20))
    chat = ctost_adjust(0.1, 20).c_used
    for rec in res.records:
        th = rec["theta_or_kappa"]
        if rec["method"] == "tost":
            want = power_uni(UnivPowerQuery(theta=th, sigma1=0.1, nu2=20,
                                            t=t0, c=C0))
        else:
            want = power_uni(UnivPowerQuery(theta=th, sigma1=0.1, nu2=20,
                                            t=0.0, c=chat))
        se = max(rec["stderr"], 1e-4)
        assert rec["rate"] == pytest.approx(want, abs=5 * se), rec["method"]


def test_sweep_exact_size_of_corrected_test_at_boundary():
    # the corrected margin has size alpha0 by construction; at nu2 = 80 the
    # empirical boundary rate must sit within Monte Carlo error of 0.05
    cfg = _small_univ(methods=("ctost",), replicates=20_000, seed=101,
                      sigma_grid=(0.05, 0.15), nu2_set=(80,), theta_grid=(C0,))
    res = run_univariate_sweep(cfg)
    for rec in res.records:
        assert rec["rate"] == pytest.approx(0.05, abs=5 * rec["stderr"])


def test_sweep_all_methods_run():
    cfg = _small_univ(
        methods=("tost", "alpha-tost", "delta-tost", "ctost", "ctost-star"),
        replicates=300, sigma_grid=(0.1,), nu2_set=(10,), theta_grid=(0.0,))
    res = run_univariate_sweep(cfg)
    assert {r["method"] for r in res.records} == set(cfg.methods)


def test_sweep_delta_tost_size_at_small_sigma():
    # at sigma 0.02 most replicates meet the margin tolerance at the first
    # bisection midpoint; the margin must be that midpoint, not a wider one
    cfg = _small_univ(methods=("delta-tost",), replicates=2000, seed=0,
                      sigma_grid=(0.02,), nu2_set=(20,), theta_grid=(C0,))
    rate = run_univariate_sweep(cfg).records[0]["rate"]
    assert rate <= 0.1


@pytest.mark.parametrize("method,solver", [("alpha-tost", "_alpha_star"),
                                           ("delta-tost", "_match_margin"),
                                           ("ctost", "_match_margin")])
def test_sweep_raises_when_a_solve_stops_at_its_cap(monkeypatch, method, solver):
    # the sweep solves with the univariate solver, which stops at the cap;
    # a replicate whose verdict is fixed stops earlier, counted as
    # converged, so the raise shows a replicate still unsettled at round 3
    calls = []
    solve = getattr(univariate, solver)
    monkeypatch.setattr(univariate, solver, lambda *a, **k: calls.append(1) or solve(*a, **k))
    monkeypatch.setattr(univariate, "_ROOT_MAX_ITER", 3)
    cfg = _small_univ(methods=(method,), replicates=100, nu2_set=(20,))
    with pytest.raises(NonConvergenceError, match=f"{method}.*nu2=20"):
        run_univariate_sweep(cfg)
    assert calls


@pytest.mark.parametrize("method,cap", [("alpha-tost", 12), ("delta-tost", 8)])
def test_sweep_does_not_raise_when_every_verdict_settles_before_the_cap(monkeypatch,
                                                                       method, cap):
    # at this cap the full solves of the sweep's draws stop unconverged,
    # but every replicate's verdict is fixed before it: the sweep does not
    # raise and its rates are those of the uncapped solves
    cfg = _small_univ(methods=(method,), replicates=100, nu2_set=(20,))
    want = run_univariate_sweep(cfg).records
    monkeypatch.setattr(univariate, "_ROOT_MAX_ITER", cap)
    unconverged = 0
    for i_s, sigma in enumerate(cfg.sigma_grid):
        for i_t in range(2):
            rng = simkit.rng_stream(cfg.seed, "univ", i_s, 0, i_t)
            rng.standard_normal(cfg.replicates)
            sh = simkit._sigma_hat_draws(sigma, 20, cfg.replicates, rng)
            try:
                univariate._rule(method, sh, 20)
            except NonConvergenceError:
                unconverged += 1
    assert unconverged
    assert run_univariate_sweep(cfg).records == want


DESK_DIGEST = pathlib.Path(__file__).resolve().parent / "data" / "desk_sweep_digest.json"


def test_desk_sweep_writes_its_frozen_csv(tmp_path, capsys):
    # the default desk sweep (168 cells of 10^4 replicates, four methods),
    # whose digest was recorded with every solve run to its root, within a
    # 60 s ceiling (scripts/gen_desk_sweep_digest.py writes the digest)
    frozen = json.loads(DESK_DIGEST.read_text(encoding="utf-8"))
    out = tmp_path / "desk.csv"
    start = time.perf_counter()
    assert cli.main([*frozen["argv"], "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    blob = out.read_bytes()
    assert blob.count(b"\n") == frozen["lines"] == 673
    assert hashlib.sha256(blob).hexdigest() == frozen["sha256"]
    assert elapsed < 60.0, f"desk sweep took {elapsed:.1f}s"


@pytest.mark.parametrize("method", ["ctost", "ctost-star", "delta-tost"])
def test_sweep_raises_when_a_margin_match_fails(monkeypatch, method):
    solve = univariate._match_margin

    def unconverged(sigma, level, c0, **kw):
        c, iters, conv, resid = solve(sigma, level, c0, **kw)
        return c, iters, np.zeros_like(conv), resid

    monkeypatch.setattr(univariate, "_match_margin", unconverged)
    cfg = _small_univ(methods=(method,), replicates=100, nu2_set=(20,))
    with pytest.raises(NonConvergenceError, match=f"{method}.*nu2=20"):
        run_univariate_sweep(cfg)


def test_run_simulation_dispatch():
    with pytest.raises(InputError):
        run_univariate_sweep(_small_mvt())
    with pytest.raises(InputError):
        run_mvt_kappa(_small_univ())
    res = run_simulation(_small_univ())
    assert res.records[0]["design"] == "univariate-sweep"


def _flat_table(c0=C0, alpha0=0.05, level=0.02):
    return univariate.CalibrationTable(
        sigma_grid=np.array([0.01, 0.3]), nu_grid=np.array([5.0, 100.0]),
        alpha_c=np.full((2, 2), level), c0=c0, alpha0=alpha0)


def test_sweep_uses_the_given_table():
    cfg = _small_univ(methods=("ctost-star",), replicates=200)
    table = _flat_table()
    flat = run_univariate_sweep(cfg, table=table)
    # every drawn sigma1_hat lies inside the table, so each margin is
    # matched at the table's level
    for rec, (i_s, sigma), (i_t, theta) in zip(
            flat.records, [(0, 0.05), (0, 0.05), (1, 0.15), (1, 0.15)],
            [(0, 0.0), (1, C0)] * 2):
        rng = simkit.rng_stream(cfg.seed, "univ", i_s, 0, i_t)
        th = theta + sigma * rng.standard_normal(cfg.replicates)
        sh = simkit._sigma_hat_draws(sigma, 10, cfg.replicates, rng)
        u, _, _, _ = univariate._match_margin(sh, table.lookup(sh, 10), C0)
        assert rec["rate"] == np.count_nonzero(np.abs(th) < C0 + sh * u) / cfg.replicates
    assert flat.records != run_univariate_sweep(cfg).records


def test_sweep_clamps_table_levels_at_nominal():
    # a table level above alpha0 is clamped, as ctost_star_calibrate clamps
    # it, so on the same draws ctost-star matches its margins at alpha0 and
    # rejects exactly as often as ctost
    table = _flat_table(level=0.07)
    adj = univariate.ctost_star_calibrate(0.1, 20, strategy="table-lookup", table=table)
    assert adj.clamped and adj.alpha_c == 0.05
    cfg = _small_univ(methods=("ctost", "ctost-star"), replicates=20_000, seed=3,
                      sigma_grid=(0.1,), nu2_set=(20,), theta_grid=(C0,))
    plain, star = run_univariate_sweep(cfg, table=table).records
    assert star["rate"] == plain["rate"]


@pytest.mark.parametrize("source", ["bundled", "flat", "quadrature"])
def test_sweep_verdicts_equal_decide_verdicts(source):
    # each replicate's verdict in the sweep is decide's verdict on the same
    # (theta_hat, s) draw, for all five methods; ctost-star reads the
    # bundled table or a flat user table of 0.02 (far from quadrature's
    # levels), each calibrating draws past the 0.3 grid edge by quadrature,
    # or, at an alpha0 no table fits, quadrature alone
    alpha0 = 0.1 if source == "quadrature" else 0.05
    given = _flat_table() if source == "flat" else None
    table = {"bundled": univariate.default_calibration_table(), "flat": given}.get(source)
    cfg = dataclasses.replace(
        _small_univ(methods=simkit.UNIV_METHODS, replicates=100, seed=11,
                    sigma_grid=(0.05, 0.25), theta_grid=(0.0,)),
        alpha0=alpha0)
    records = run_univariate_sweep(cfg, table=given).records
    off_grid = 0
    for i_s, sigma in enumerate(cfg.sigma_grid):
        rng = simkit.rng_stream(cfg.seed, "univ", i_s, 0, 0)
        th = sigma * rng.standard_normal(cfg.replicates)
        sh = simkit._sigma_hat_draws(sigma, 10, cfg.replicates, rng)
        rejects = simkit._univ_cell_rejections(cfg, table, 10, th, sh)
        for method in cfg.methods:
            spec = EquivalenceSpec(c0=C0, alpha0=alpha0, method=method)
            verdicts = []
            for t_i, s_i in zip(th, sh):
                on_grid = table is not None and np.isfinite(
                    table.lookup(s_i, 10, out_of_range="nan"))
                off_grid += method == "ctost-star" and table is not None and not on_grid
                strategy = "table-lookup" if on_grid else "quadrature"
                rep = decide(UnivSummary(t_i, s_i, 10), spec, strategy=strategy,
                             table=table)
                verdicts.append(rep.reject)
            np.testing.assert_array_equal(rejects[method], verdicts, err_msg=method)
            rec, = [r for r in records
                    if r["sigma_config"] == repr(sigma) and r["method"] == method]
            assert rec["rate"] == np.count_nonzero(verdicts) / cfg.replicates
    assert (off_grid > 0) == (table is not None)


def test_sweep_table_must_fit_the_config():
    cfg = _small_univ(methods=("ctost-star",), replicates=200)
    with pytest.raises(InputError, match="table was built for"):
        run_univariate_sweep(cfg, table=_flat_table(c0=0.3))
    with pytest.raises(InputError, match="table was built for"):
        run_simulation(cfg, table=_flat_table(alpha0=0.1))
    # without a table, a config the bundled table does not fit uses quadrature
    off = dataclasses.replace(cfg, alpha0=0.1)
    assert run_univariate_sweep(off).records[0]["n"] == 200


def test_mvt_kappa_rejects_a_table():
    with pytest.raises(InputError, match="no calibration table"):
        run_simulation(_small_mvt(), table=_flat_table())


# ---------------------------------------------------------------------------
# multivariate trajectory design
# ---------------------------------------------------------------------------

def test_mvt_kappa_schema_and_determinism():
    cfg = _small_mvt()
    a = run_mvt_kappa(cfg)
    b = run_mvt_kappa(cfg)
    assert a.records == b.records
    want = len(cfg.sigma_grid) * len(cfg.rho_set) * \
        len(cfg.theta_or_kappa_grid) * len(cfg.methods)
    assert len(a.records) == want
    for rec in a.records:
        assert rec["design"] == "mvt-kappa"
        assert rec["K"] == 2
        assert rec["sigma_config"] == "0.08:0.12"
        assert 0.0 <= rec["rate"] <= 1.0


def test_mvt_kappa_power_decreases_along_trajectory():
    # moving the truth along the worst-case direction toward the boundary
    # can only lose power; compare the ends of the trajectory
    cfg = _small_mvt(replicates=400, kappa_grid=(0.0, 0.5, 1.0), seed=13)
    res = run_mvt_kappa(cfg)
    for method in cfg.methods:
        rates = {r["theta_or_kappa"]: r["rate"] for r in res.records
                 if r["method"] == method}
        assert rates[0.0] >= rates[1.0] - 0.05


def test_mvt_kappa_ctost_dominates_tost():
    # shared draws per cell plus the large analytic power gap at these
    # configurations keep the corrected rate above the classical one
    cfg = _small_mvt(replicates=300, rho_set=(0.0, 0.5), seed=17)
    res = run_mvt_kappa(cfg)
    cells = {}
    for r in res.records:
        key = (r["rho"], r["theta_or_kappa"])
        cells.setdefault(key, {})[r["method"]] = r["rate"]
    for key, by_method in cells.items():
        assert by_method["tost"] <= by_method["ctost"], key


def test_mvt_kappa_size_calibration_at_boundary():
    # at kappa = 1 the truth is the worst boundary point used to fit the
    # margins, so the corrected rejection rate must be near alpha0
    cfg = _small_mvt(replicates=3000, methods=("ctost",), kappa_grid=(1.0,),
                     rho_set=(0.5,), seed=23)
    res = run_mvt_kappa(cfg)
    rec = res.records[0]
    assert rec["rate"] == pytest.approx(0.05, abs=max(5 * rec["stderr"], 0.01))


def test_mvt_kappa_k4_tost_runs():
    cfg = _small_mvt(K=4, methods=("tost",), replicates=200,
                     kappa_grid=(0.0, 1.0))
    res = run_mvt_kappa(cfg)
    assert all(r["K"] == 4 for r in res.records)
    assert len(res.records) == 2


def test_mvt_kappa_k4_ctost_boundary_rate():
    # the fixed box fitted at the true covariance carries its exact size
    # into four dimensions as well
    cfg = _small_mvt(K=4, methods=("ctost",), replicates=3000,
                     kappa_grid=(1.0,), seed=29)
    res = run_mvt_kappa(cfg)
    rec = res.records[0]
    assert rec["rate"] == pytest.approx(0.05, abs=max(5 * rec["stderr"], 0.01))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_header_and_shape(tmp_path):
    res = run_univariate_sweep(_small_univ())
    p = tmp_path / "out.csv"
    emit_plot_data(res, p)
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(res.records) + 1
    assert text.endswith("\n")


def test_emit_floats_roundtrip(tmp_path):
    res = run_univariate_sweep(_small_univ(seed=19))
    p = tmp_path / "out.csv"
    emit_plot_data(res, p)
    lines = p.read_text().splitlines()[1:]
    cols = CSV_HEADER.split(",")
    for rec, line in zip(res.records, lines):
        parts = line.split(",")
        row = dict(zip(cols, parts))
        assert float(row["rate"]) == rec["rate"]
        assert float(row["stderr"]) == rec["stderr"]
        assert int(row["n"]) == rec["n"]


def test_emit_byte_identical_reruns(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit_plot_data(run_univariate_sweep(_small_univ(seed=2)), p1)
    emit_plot_data(run_univariate_sweep(_small_univ(seed=2)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_rejects_empty():
    empty = SimulationResult(records=(), seed=0, config_hash="x",
                             code_version="0")
    with pytest.raises(InputError):
        emit_plot_data(empty, "/tmp/never.csv")

"""End-to-end checklist of the package's headline behaviors.

Each test covers one numbered item and prints a single line of the form
``ACCEPTANCE n: PASS/FAIL (x.xs)`` so a full run reads as a checklist.
Runtime ceilings are asserted where a bound is part of the contract; the
line is printed unbuffered so it appears even under pytest capture.
"""

import json
import sys
import time
from contextlib import contextmanager, nullcontext
from importlib import resources

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from equivkit.cli import main as cli_main
from equivkit.ingest import load_case_study
from equivkit.mvt import MvtSummary, ctost_mvt_adjust, lambda_argsup, mvt_decide
from equivkit.powerkernel import (
    MvtPowerQuery,
    UnivPowerQuery,
    power_mvt,
    power_uni,
    size_uni,
)
from equivkit.simkit import MVT_SIGMA_CONFIGS, SimulationConfig, run_simulation
from equivkit.statdist import rng_stream, sample_wishart_diag, t_quantile
from equivkit.univariate import (
    _match_margin,
    alpha_tost_adjust,
    ctost_adjust,
    delta_tost_adjust,
    margin_for_multiplier,
)

C0 = 0.22314355131420976  # log 1.25
ALPHA0 = 0.05


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _expose_capture_manager(request):
    """Let criterion() print past pytest's file-descriptor capture."""
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


@contextmanager
def criterion(n, budget=None):
    """Time a block and print its PASS/FAIL line past pytest's capture."""
    t0 = time.perf_counter()
    verdict = "FAIL"
    try:
        yield
        if budget is not None:
            elapsed = time.perf_counter() - t0
            assert elapsed < budget, (
                f"runtime {elapsed:.1f}s exceeded the {budget}s ceiling")
        verdict = "PASS"
    finally:
        elapsed = time.perf_counter() - t0
        uncaptured = (_CAPTURE_MANAGER.global_and_fixture_disabled()
                      if _CAPTURE_MANAGER is not None else nullcontext())
        with uncaptured:
            print(f"ACCEPTANCE {n}: {verdict} ({elapsed:.1f}s)",
                  file=sys.__stdout__, flush=True)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# 1: case-study TOST row
# ---------------------------------------------------------------------------

TOST_ROW = [(-0.496, 0.691), (-0.234, 0.379), (-0.399, 0.403), (-0.259, 0.406)]


def test_1_case_study_tost_intervals_and_verdict(capsys):
    with criterion(1, budget=1.0):
        code, out, _ = run_cli(
            capsys, "assess", "--case-study", "--method", "tost")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "not equivalent"
        intervals = np.asarray(payload["intervals"], dtype=float)
        expected = np.asarray(TOST_ROW, dtype=float)
        assert np.max(np.abs(intervals - expected)) <= 1e-3


# ---------------------------------------------------------------------------
# 2: case-study verdict pattern and interval lengths
# ---------------------------------------------------------------------------

def _bundled_case_study_payload():
    """The case-study JSON exactly as the package ships it."""
    return json.loads(resources.files("equivkit.data")
                      .joinpath("cutaneous_case_study.json")
                      .read_text(encoding="utf-8"))


def test_2_case_study_verdict_pattern():
    with criterion(2):
        s = load_case_study()
        # the bundled summary carries per-region standard errors only, so
        # the documented identity-correlation fallback applies
        assert np.array_equal(s.correlation_hat, np.eye(s.dim))
        rep = {m: mvt_decide(s, method=m).to_dict()
               for m in ("tost", "ctost", "alpha-tost")}
        longest = {m: max(hi - lo for lo, hi in rep[m]["intervals"])
                   for m in rep}
        assert rep["tost"]["verdict"] == "not equivalent"
        assert rep["ctost"]["verdict"] == "equivalent"
        assert longest["ctost"] < longest["tost"]
        assert longest["ctost"] < longest["alpha-tost"]
        # With independent regions the joint size of the level-adjusted
        # test factorizes, so its shared level, margins and verdict are
        # fixed by the inputs alone: the quadrature oracle gives
        # alpha* = 0.378999 (worst point on the stratum-corneum axis) and
        # margins 0.11874, 0.16919, 0.15260, 0.16461, which every
        # |theta_hat| clears (tightest slack 0.0211), so equivalence.
        oracle = oracles.alpha_star_joint_indep(s.sigma1_hat, s.nu2)
        alpha_rep = rep["alpha-tost"]
        assert alpha_rep["meta"]["alpha_adj"] == pytest.approx(
            oracle["alpha"], abs=1e-5)
        assert np.max(np.abs(np.asarray(alpha_rep["margins"])
                             - oracle["margins"])) <= 1e-5
        oracle_verdict = ("equivalent"
                          if np.all(np.abs(s.theta_hat) < oracle["margins"])
                          else "not equivalent")
        assert alpha_rep["verdict"] == oracle_verdict


@pytest.mark.skipif(
    _bundled_case_study_payload().get("correlation") is None,
    reason="the bundled case study has no 'correlation' entry; the recorded "
           "alpha-tost verdict rests on the estimated cross-region "
           "correlation")
def test_2_case_study_recorded_alpha_tost_verdict():
    # The reference analysis of this dataset records a non-equivalent
    # declaration for the level-adjusted method, reached with estimated
    # cross-region correlations; under the identity fallback the method
    # declares equivalence instead (see the test above).
    with criterion("2 (recorded alpha-tost verdict)"):
        rep = mvt_decide(load_case_study(), method="alpha-tost")
        assert rep.verdict == "not equivalent"


# ---------------------------------------------------------------------------
# 3: level-adjustment anchor value
# ---------------------------------------------------------------------------

def test_3_alpha_adjustment_anchor():
    with criterion(3, budget=1.0):
        adj = alpha_tost_adjust(0.1, 15)
        assert adj.alpha_adj == pytest.approx(0.054, abs=1e-3)


# ---------------------------------------------------------------------------
# 4: matching residuals over random instances
# ---------------------------------------------------------------------------

def test_4_matched_sizes_over_random_draws():
    with criterion(4, budget=30.0):
        rng = np.random.default_rng(2026)
        for _ in range(100):
            sigma = float(rng.uniform(0.01, 0.3))
            nu2 = int(rng.integers(5, 101))
            c_hat = ctost_adjust(sigma, nu2).c_used
            assert size_uni(sigma, nu2, 0.0, c_hat) == pytest.approx(
                ALPHA0, abs=1e-9)
            a = alpha_tost_adjust(sigma, nu2)
            assert size_uni(sigma, nu2, a.t_used, C0) == pytest.approx(
                ALPHA0, abs=1e-7)
            d = delta_tost_adjust(sigma, nu2)
            assert size_uni(sigma, nu2, d.t_used, d.c_used) == pytest.approx(
                ALPHA0, abs=1e-7)


# ---------------------------------------------------------------------------
# 5: the zero multiplier maximizes power among size-matched rules
# ---------------------------------------------------------------------------

def test_5_zero_multiplier_dominates_on_grid():
    with criterion(5, budget=120.0):
        thetas = (0.0, C0 / 2, 0.9 * C0)
        for nu2 in (10, 20):
            t_nominal = float(t_quantile(ALPHA0, nu2))
            for sigma in (0.05, 0.1, 0.15):
                c_zero = ctost_adjust(sigma, nu2).c_used
                p_zero = {th: power_uni(UnivPowerQuery(th, sigma, nu2, 0.0, c_zero))
                          for th in thetas}
                for t in (0.2, 0.5, 1.0, t_nominal):
                    c_t = margin_for_multiplier(sigma, nu2, t, tol=1e-10)
                    for th in thetas:
                        p_t = power_uni(UnivPowerQuery(th, sigma, nu2, t, c_t))
                        assert p_t <= p_zero[th] + 1e-9


# ---------------------------------------------------------------------------
# 6: with sigma known, all multiplier choices give one rejection region
# ---------------------------------------------------------------------------

def test_6_known_sigma_margins_collapse():
    with criterion(6):
        zs = (0.0, 0.5, 1.0, 1.6449, 2.0)
        rng = np.random.default_rng(61)
        for _ in range(20):
            sigma = float(rng.uniform(0.02, 0.5))

            def shifted_size(c, z):
                # with sigma known the rule rejects at the fixed threshold
                # c - z * sigma, whose size no longer involves nu2
                return size_uni(sigma, 10, 0.0, c - z * sigma) - ALPHA0

            margins = [
                brentq(shifted_size, z * sigma + 1e-9,
                       z * sigma + C0 + 12.0 * sigma, args=(z,), xtol=1e-12)
                for z in zs
            ]
            anchored = [c - z * sigma for c, z in zip(margins, zs)]
            assert max(anchored) - min(anchored) <= 1e-8
            assert anchored[0] == pytest.approx(
                ctost_adjust(sigma, 10).c_used, abs=1e-7)


# ---------------------------------------------------------------------------
# 7: desk-scale empirical size study
# ---------------------------------------------------------------------------

def test_7_desk_scale_size_study():
    with criterion(7, budget=300.0):
        cfg = SimulationConfig(
            design="univariate-sweep", sigma_grid=(0.05, 0.1, 0.15),
            nu2_set=(20, 40, 80), theta_or_kappa_grid=(C0,), K=1,
            rho_set=(0.0,), methods=("tost", "ctost", "ctost-star"),
            replicates=10_000, seed=12, c0=C0, alpha0=ALPHA0)
        rates = {}
        for r in run_simulation(cfg).records:
            rates[(r["sigma_config"], r["nu2"], r["method"])] = r["rate"]
        for sigma in (0.05, 0.1, 0.15):
            for nu2 in (20, 40, 80):
                key = repr(float(sigma))
                assert rates[(key, nu2, "ctost-star")] == pytest.approx(
                    ALPHA0, abs=0.0065)
                assert rates[(key, nu2, "tost")] < rates[(key, nu2, "ctost")]
        # With margins recomputed from each replicate's estimated scale, the
        # uncalibrated corrected test runs hot, and its true rate is the
        # plug-in size that quadrature over the scale estimate gives:
        # 0.0578, 0.0589, 0.0560 at nu2 = 20 (sigma 0.05, 0.10, 0.15),
        # 0.0539, 0.0546, 0.0527 at nu2 = 40 and 0.0520, 0.0523, 0.0513 at
        # nu2 = 80.  Raw ctost is held to that value, not to alpha0, with
        # the same band; the inflation itself must show and shrink with
        # nu2, since it is what the calibrated variant repairs.
        for sigma in (0.05, 0.1, 0.15):
            key = repr(float(sigma))
            plugin = [oracles.ctost_plugin_size_quad(sigma, nu2, ALPHA0, C0)
                      for nu2 in (20, 40, 80)]
            assert ALPHA0 < plugin[2] < plugin[1] < plugin[0]
            for nu2, expected in zip((20, 40, 80), plugin):
                assert rates[(key, nu2, "ctost")] == pytest.approx(
                    expected, abs=0.0065)
                # same draws, a calibrated level never above alpha0 and a
                # margin increasing in the level: ctost-star rejects a
                # subset of what ctost rejects
                assert (rates[(key, nu2, "ctost-star")]
                        <= rates[(key, nu2, "ctost")])


# ---------------------------------------------------------------------------
# 8: small-sample refinement keeps the size in check
# ---------------------------------------------------------------------------

def test_8_small_sample_refined_size():
    with criterion(8, budget=120.0):
        cfg = SimulationConfig(
            design="univariate-sweep", sigma_grid=(0.12,), nu2_set=(5,),
            theta_or_kappa_grid=(C0,), K=1, rho_set=(0.0,),
            methods=("ctost", "ctost-star"), replicates=10_000,
            seed=8, c0=C0, alpha0=ALPHA0)
        rates = {r["method"]: r["rate"] for r in run_simulation(cfg).records}
        # the unrefined margin may overshoot here; the refinement must not
        assert rates["ctost-star"] <= ALPHA0 + 0.0065


# ---------------------------------------------------------------------------
# 9: joint margin fixed point across dimensions and correlations
# ---------------------------------------------------------------------------

def test_9_joint_margin_fixed_point_grid():
    with criterion(9, budget=300.0):
        for K in (2, 4):
            for rho in (0.0, 0.5, 0.9):
                corr = np.full((K, K), rho)
                np.fill_diagonal(corr, 1.0)
                for pair in MVT_SIGMA_CONFIGS:
                    sig = np.array(pair if K == 2
                                   else (pair[0], pair[0], pair[1], pair[1]))
                    adj = ctost_mvt_adjust(
                        MvtSummary(np.zeros(K), sig, corr, 20), seed=0)
                    assert adj.converged
                    assert adj.outer_iterations <= 50
                    assert adj.gamma >= ALPHA0
                    marginal = np.array([
                        size_uni(float(s), 20, 0.0, float(c))
                        for s, c in zip(sig, adj.c_star)])
                    assert np.max(np.abs(marginal - adj.gamma)) <= 1e-8
                    q = MvtPowerQuery(adj.lambda_.lambda_, sig, corr, 20,
                                      np.zeros(K), adj.c_star)
                    assert power_mvt(q, tol=1e-6, seed=0) == pytest.approx(
                        ALPHA0, abs=1e-5)


# ---------------------------------------------------------------------------
# 10: boundary search beats random probes and lands on an axis
# ---------------------------------------------------------------------------

def test_10_boundary_argsup_beats_random_probes():
    with criterion(10, budget=60.0):
        rng = np.random.default_rng(10)
        for sig in ((0.1, 0.15), (0.08, 0.12, 0.2)):
            sig = np.asarray(sig)
            K = sig.size
            c = C0 + sig * _match_margin(sig, 0.08)[0]
            res = lambda_argsup(sig, np.eye(K), 20, c, seed=0)
            lam = np.asarray(res.lambda_)
            assert np.count_nonzero(lam) == 1
            assert np.max(np.abs(lam)) == pytest.approx(C0, abs=1e-12)
            for _ in range(1000):
                probe = rng.uniform(-C0, C0, size=K)
                probe[rng.integers(K)] = C0 * (1 if rng.random() < 0.5 else -1)
                val = oracles.omega_joint(probe, sig, np.eye(K), c)
                assert res.objective >= val - 1e-10


# ---------------------------------------------------------------------------
# 11: the zero-multiplier member is the more powerful one at the center
# ---------------------------------------------------------------------------

def test_11_zero_multiplier_member_power():
    with criterion(11, budget=300.0):
        nu2, sigma, n = 20, 0.1, 50_000
        t0 = float(t_quantile(ALPHA0, nu2))
        member = oracles.t_member_margins(sigma, nu2, t0)
        # the member really sits at the nominal global size
        q = MvtPowerQuery(np.array([C0, 0.0]), np.full(2, sigma), np.eye(2),
                          nu2, np.full(2, t0), np.full(2, member["c"]))
        assert power_mvt(q, seed=1) == pytest.approx(ALPHA0, abs=1e-6)
        adj = ctost_mvt_adjust(
            MvtSummary(np.zeros(2), np.full(2, sigma), np.eye(2), nu2), seed=0)
        rng = rng_stream(20260822, "member-power")
        theta_hat = sigma * rng.standard_normal((n, 2))
        s_hat = sample_wishart_diag(np.full(2, sigma), np.eye(2), nu2, n, rng)
        rej_zero = np.all(np.abs(theta_hat) < adj.c_star[None, :], axis=1)
        rej_member = np.all(np.abs(theta_hat) < member["c"] - t0 * s_hat,
                            axis=1)
        diff = rej_zero.astype(float) - rej_member.astype(float)
        se = diff.std(ddof=1) / np.sqrt(n)
        assert diff.mean() >= -3.0 * se


# ---------------------------------------------------------------------------
# 12: kappa-trajectory study, size at the corner and dominance before it
# ---------------------------------------------------------------------------

def test_12_kappa_trajectory_study():
    with criterion(12, budget=600.0):
        cfg = SimulationConfig(
            design="mvt-kappa", sigma_grid=MVT_SIGMA_CONFIGS, nu2_set=(20,),
            theta_or_kappa_grid=tuple(np.linspace(0.0, 1.2, 31)), K=2,
            rho_set=(0.0, 0.5, 0.9), methods=("tost", "ctost"),
            replicates=10_000, seed=3, c0=C0, alpha0=ALPHA0)
        rates = {}
        for r in run_simulation(cfg).records:
            key = (r["sigma_config"], r["rho"], r["theta_or_kappa"],
                   r["method"])
            rates[key] = r["rate"]
        for pair in MVT_SIGMA_CONFIGS:
            label = ":".join(repr(v) for v in pair)
            for rho in (0.0, 0.5, 0.9):
                # the boundary box is fitted at the cell's true covariance,
                # so the corrected rate at kappa = 1 estimates alpha0 itself
                assert rates[(label, rho, 1.0, "ctost")] == pytest.approx(
                    ALPHA0, abs=0.0065)
                for kappa in cfg.theta_or_kappa_grid:
                    if kappa >= 1.0:
                        continue
                    assert (rates[(label, rho, kappa, "ctost")]
                            >= rates[(label, rho, kappa, "tost")] - 0.005)


# ---------------------------------------------------------------------------
# 13: seeded commands are reproducible byte for byte
# ---------------------------------------------------------------------------

def test_13_seeded_commands_byte_identical(tmp_path, capsys):
    with criterion(13):
        commands = {
            "sweep": ("simulate", "--design", "univariate-sweep", "--desk",
                      "--replicates", "200", "--methods", "tost,ctost",
                      "--nu2", "10", "--seed", "9"),
            "kappa": ("simulate", "--design", "mvt-kappa", "--desk",
                      "--replicates", "150", "--rho", "0.0", "--seed", "4"),
            "table": ("table", "--sigma-grid", "0.08,0.12", "--nu-grid",
                      "10,20"),
            "power": ("power", "--method", "ctost", "--theta", "0,0.05",
                      "--sigma1", "0.08,0.12", "--nu2", "20", "--seed", "1",
                      "--format", "csv"),
        }
        for name, argv in commands.items():
            blobs = []
            for run in ("a", "b"):
                out_file = tmp_path / f"{name}-{run}.csv"
                code, _, err = run_cli(
                    capsys, *argv, "--out", str(out_file))
                assert code == 0, err
                blobs.append(out_file.read_bytes())
            assert blobs[0] == blobs[1], f"{name} output differs across runs"

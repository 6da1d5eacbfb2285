"""Joint (all-dimensions-must-pass) equivalence machinery.

The solved margins are validated by scipy-only reimplementations: dense
boundary scans with scipy's multivariate normal CDF, closed-form products
in the independent case, and per-row agreement between the batch solver and
the scalar one.
"""

import numpy as np
import pytest
from scipy import special

from equivkit import mvt, powerkernel, statdist, univariate
from equivkit.base import EquivalenceSpec, InputError, NonConvergenceError
from equivkit.ingest import load_case_study
from equivkit.mvt import (
    LambdaResult,
    MvtAdjustment,
    MvtSummary,
    _omega_joint,
    ctost_mvt_adjust,
    lambda_argsup,
    mvt_decide,
    repair_correlation,
)
from equivkit.powerkernel import MvtPowerQuery, power_mvt, size_uni
from equivkit.univariate import (
    UnivSummary,
    _match_margin,
    _size_fixed,
    alpha_tost_adjust,
    ctost_adjust,
)
from equivkit.statdist import t_quantile

import oracles

C0 = float(np.log(1.25))


def _summary(theta, sigma, corr, nu2=20):
    return MvtSummary(
        theta_hat=np.asarray(theta, dtype=float),
        sigma1_hat=np.asarray(sigma, dtype=float),
        correlation_hat=np.asarray(corr, dtype=float),
        nu2=nu2,
    )


def _equicorr(k, rho):
    m = np.full((k, k), rho)
    np.fill_diagonal(m, 1.0)
    return m


# ---------------------------------------------------------------------------
# summaries and correlation repair
# ---------------------------------------------------------------------------

def test_summary_validation():
    with pytest.raises(InputError):
        _summary([0.1, 0.2], [0.1], np.eye(2))
    with pytest.raises(InputError):
        _summary([0.1, 0.2], [0.1, -0.1], np.eye(2))
    with pytest.raises(InputError):
        _summary([0.1, 0.2], [0.1, 0.1], np.array([[1.0, 0.3], [0.1, 1.0]]))
    with pytest.raises(InputError):
        _summary([0.1, 0.2], [0.1, 0.1], np.array([[1.0, 0.3], [0.3, 0.9]]))
    with pytest.raises(InputError):
        _summary([0.1, 0.2], [0.1, 0.1], _equicorr(2, 1.5))
    with pytest.raises(InputError):
        _summary([0.1], [0.1], np.eye(1), nu2=0)
    s = _summary([0.1, 0.2], [0.1, 0.1], _equicorr(2, 0.4))
    assert s.dim == 2


def test_repair_correlation_passthrough():
    good = _equicorr(3, 0.5)
    out = repair_correlation(good)
    np.testing.assert_allclose(out, good, atol=1e-15)


def test_repair_correlation_fixes_singular_matrix():
    # rank-deficient: rho = 1 duplicated dimensions
    bad = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]])
    with pytest.warns(UserWarning):
        out = repair_correlation(bad)
    np.linalg.cholesky(out)  # now PD
    np.testing.assert_allclose(np.diag(out), 1.0, atol=1e-12)
    np.testing.assert_allclose(out, out.T, atol=1e-15)
    assert np.max(np.abs(out - bad)) < 0.01


def test_repair_correlation_symmetrizes():
    asym = np.array([[1.0, 0.31], [0.29, 1.0]])
    out = repair_correlation(asym)
    assert out[0, 1] == pytest.approx(0.3, abs=1e-12)


# ---------------------------------------------------------------------------
# worst-case boundary point
# ---------------------------------------------------------------------------

def test_lambda_argsup_independent_case_is_axis_point():
    sigma = np.array([0.1, 0.1])
    lam = lambda_argsup(sigma, np.eye(2), 20, np.full(2, 0.2))
    # one coordinate at +-c0, the other at zero
    on_axis = np.isclose(np.abs(lam.lambda_), C0, atol=1e-12)
    assert on_axis.sum() == 1
    assert np.abs(lam.lambda_[~on_axis]) < 1e-12
    # objective equals the closed-form product at that point
    want = (
        (special.ndtr((0.2 - C0) / 0.1) - special.ndtr((-0.2 - C0) / 0.1))
        * (special.ndtr(0.2 / 0.1) - special.ndtr(-0.2 / 0.1))
    )
    assert lam.objective == pytest.approx(want, rel=1e-9)


def test_lambda_argsup_unequal_margins_picks_weaker_axis():
    # the face with the larger marginal size at the boundary wins
    sigma = np.array([0.05, 0.15])
    c = np.array([0.18, 0.21])
    lam = lambda_argsup(sigma, np.eye(2), 20, c)
    sizes = [oracles.omega_quad(C0, sigma[k], 20, 0.0, c[k]) for k in range(2)]
    centers = [oracles.omega_quad(0.0, sigma[k], 20, 0.0, c[k]) for k in range(2)]
    vals = [sizes[0] * centers[1], centers[0] * sizes[1]]
    assert lam.face == int(np.argmax(vals))
    assert lam.objective == pytest.approx(max(vals), rel=1e-8)


@pytest.mark.parametrize("rho", [-0.6, 0.3, 0.8])
def test_lambda_argsup_matches_dense_face_scan(rho):
    sigma = np.array([0.09, 0.13])
    corr = _equicorr(2, rho)
    c = np.array([0.2, 0.24])
    lam = lambda_argsup(sigma, corr, 20, c)
    # dense scan of both positive faces with scipy rectangle probabilities
    best = -1.0
    grid = np.linspace(-C0, C0, 2001)
    for face in range(2):
        for y in grid:
            theta = np.empty(2)
            theta[face] = C0
            theta[1 - face] = y
            v = oracles.rect_prob_scipy((-c - theta) / sigma, (c - theta) / sigma, corr)
            best = max(best, v)
    assert lam.objective == pytest.approx(best, abs=2e-6)
    assert lam.objective >= best - 2e-6


@pytest.mark.parametrize("rho, c", [(0.5, 0.12), (0.9, 0.15)])
def test_lambda_argsup_face_search_converges(rho, c):
    # K = 4 faces on which coordinate ascent stopped at its sweep cap
    sigma = np.array([0.12, 0.12, 0.16, 0.16])
    c = np.full(4, c)
    lam = lambda_argsup(sigma, _equicorr(4, rho), 20, c)
    assert lam.converged
    # the objective is the fit's own rectangle at the returned point
    assert lam.objective == _omega_joint(lam.lambda_, sigma, _equicorr(4, rho), c)
    assert lam.lambda_[lam.face] == C0
    assert np.all(np.abs(lam.lambda_) <= C0)


def test_adjust_k3_high_correlation_reports_converged_search():
    s = _summary(np.zeros(3), [0.1, 0.12, 0.15], _equicorr(3, 0.8))
    adj = ctost_mvt_adjust(s)
    assert adj.lambda_.converged
    assert adj.converged


def test_lambda_argsup_sampled_objective_point():
    # the mvt-kappa cell's tost direction: sigma (0.08, 0.12), rho 0.5
    t = np.full(2, t_quantile(0.05, 20))
    lam = lambda_argsup(np.array([0.08, 0.12]), _equicorr(2, 0.5), 20,
                        np.full(2, C0), tol=1e-3, seed=123, t=t)
    assert lam.converged
    np.testing.assert_allclose(lam.lambda_, [0.0697884, C0], atol=1e-6)
    q = MvtPowerQuery(lam.lambda_, np.array([0.08, 0.12]), _equicorr(2, 0.5),
                      20, t, np.full(2, C0))
    assert lam.objective == power_mvt(q, tol=1e-3, seed=123, n_wishart=4000)


def _axis_closed_form(sigma, nu2, t, c):
    """max_h size_h * prod_{j != h} P_j(0) for independent coordinates."""
    edge = [oracles.omega_quad(C0, s, nu2, t, ck) for s, ck in zip(sigma, c)]
    centre = [oracles.omega_quad(0.0, s, nu2, t, ck) for s, ck in zip(sigma, c)]
    per_face = [edge[h] * np.prod(np.delete(centre, h)) for h in range(len(c))]
    return max(per_face)


@pytest.mark.parametrize("t", [0.0, 1.7])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_lambda_argsup_diagonal_takes_closed_form(k, t):
    rng = np.random.default_rng(100 * k + int(10 * t))
    sigma = rng.uniform(0.05, 0.2, size=k)
    c = rng.uniform(0.18, 0.3, size=k)
    nu2 = 20
    lam = lambda_argsup(sigma, np.eye(k), nu2, c, t=t)
    # an axis point, found from the 2K axis candidates alone
    assert lam.candidates_evaluated == 2 * k
    assert lam.converged
    assert abs(lam.lambda_[lam.face]) == C0
    assert lam.lambda_[lam.face] == lam.sign * C0
    assert np.all(np.delete(lam.lambda_, lam.face) == 0.0)
    assert lam.objective == pytest.approx(_axis_closed_form(sigma, nu2, t, c),
                                          rel=1e-8)
    # no point of the null boundary does better
    for _ in range(500):
        theta = rng.uniform(-C0, C0, size=k)
        theta[rng.integers(k)] = rng.choice([-C0, C0])
        probe = power_mvt(MvtPowerQuery(theta, sigma, np.eye(k), nu2,
                                        np.full(k, t), c))
        assert lam.objective >= probe - 1e-12


@pytest.mark.parametrize("k", [2, 3, 5])
def test_mvt_decide_alpha_tost_diagonal_matches_oracle(k):
    rng = np.random.default_rng(7 + k)
    sigma = rng.uniform(0.08, 0.3, size=k)
    s = _summary(np.zeros(k), sigma, np.eye(k), nu2=11)
    rep = mvt_decide(s, EquivalenceSpec(method="alpha-tost"))
    ref = oracles.alpha_star_joint_indep(sigma, 11)
    assert rep.meta["alpha_adj"] == pytest.approx(ref["alpha"], abs=1e-5)
    np.testing.assert_allclose(rep.margins, ref["margins"], atol=1e-5)


def test_lambda_argsup_rejects_bad_margins():
    with pytest.raises(InputError):
        lambda_argsup(np.array([0.1, 0.1]), np.eye(2), 20, np.array([0.2, -0.1]))


# ---------------------------------------------------------------------------
# joint margin adjustment
# ---------------------------------------------------------------------------

def test_adjust_k1_reduces_to_univariate():
    s = _summary([0.05], [0.08], np.eye(1))
    adj = ctost_mvt_adjust(s)
    uni = ctost_adjust(0.08, 20)
    assert adj.c_star[0] == pytest.approx(uni.c_used, abs=1e-7)
    assert adj.gamma == pytest.approx(0.05, abs=1e-6)


def test_adjust_independent_k2_structure():
    sigma = np.array([0.1, 0.15])
    s = _summary([0.0, 0.0], sigma, np.eye(2))
    adj = ctost_mvt_adjust(s, tol=1e-7)
    assert adj.converged
    # both margins are matched at the shared marginal size gamma
    sizes = _size_fixed(adj.c_star, sigma, C0)
    np.testing.assert_allclose(sizes, adj.gamma, atol=1e-7)
    assert adj.gamma >= 0.05 - 1e-12
    # independent case: joint size at the axis worst point factors exactly
    k = adj.lambda_.face
    other = 1 - k
    prod = oracles.omega_quad(C0, sigma[k], 20, 0.0, adj.c_star[k]) * \
        oracles.omega_quad(0.0, sigma[other], 20, 0.0, adj.c_star[other])
    assert prod == pytest.approx(0.05, abs=2e-6)


def test_adjust_symmetric_problem_gives_equal_margins():
    s = _summary([0.0, 0.0], [0.12, 0.12], _equicorr(2, 0.5))
    adj = ctost_mvt_adjust(s)
    assert adj.c_star[0] == pytest.approx(adj.c_star[1], abs=1e-9)


def test_adjust_gamma_never_below_nominal():
    for rho in (-0.5, 0.0, 0.4, 0.9):
        s = _summary([0.0, 0.0], [0.1, 0.13], _equicorr(2, rho))
        adj = ctost_mvt_adjust(s)
        assert adj.gamma >= 0.05 - 1e-12


def test_adjust_correlated_size_verified_by_dense_scan():
    sigma = np.array([0.1, 0.15])
    corr = _equicorr(2, 0.5)
    s = _summary([0.0, 0.0], sigma, corr)
    adj = ctost_mvt_adjust(s, tol=1e-6)
    assert adj.converged
    c = adj.c_star
    best = -1.0
    grid = np.linspace(-C0, C0, 4001)
    for face in range(2):
        for y in grid:
            theta = np.empty(2)
            theta[face] = C0
            theta[1 - face] = y
            v = oracles.rect_prob_scipy((-c - theta) / sigma, (c - theta) / sigma, corr)
            best = max(best, v)
    assert best == pytest.approx(0.05, abs=5e-6)


def test_adjust_margins_beat_marginal_correction():
    # the joint solve can only widen margins relative to the marginal one:
    # requiring all dimensions to pass lowers the joint size, so each
    # dimension runs at gamma >= alpha0 and c*_k >= chat(sigma_k)
    sigma = np.array([0.1, 0.15])
    s = _summary([0.0, 0.0], sigma, _equicorr(2, 0.4))
    adj = ctost_mvt_adjust(s)
    for k in range(2):
        assert adj.c_star[k] >= ctost_adjust(float(sigma[k]), 20).c_used - 1e-9


# ctost_mvt_adjust(seed=0) on acceptance 9's correlated cells, frozen from
# the fit that reset gamma to alpha0 and searched from the face centres in
# every outer round: (K, rho, sigma pair, (c*_1, c*_2), gamma); at K = 4 the
# sigmas and margins are (a, a, b, b)
FROZEN_FITS = [
    (2, 0.5, (0.08, 0.08), (0.09865493799269447, 0.09865493799269447), 0.059812452006608764),
    (2, 0.5, (0.12, 0.12), (0.07273020686855278, 0.07273020686855278), 0.09818306616292574),
    (2, 0.5, (0.16, 0.16), (0.06859280727852393, 0.06859280727852393), 0.13291153524664107),
    (2, 0.5, (0.08, 0.12), (0.09839844169106571, 0.04739188942876044), 0.05943186646100779),
    (2, 0.5, (0.08, 0.16), (0.0983067791605502, 0.03126008203801557), 0.05929631781224791),
    (2, 0.5, (0.12, 0.16), (0.07243195637717043, 0.0510087703169525), 0.09768416975972002),
    (2, 0.9, (0.08, 0.08), (0.09298092358202978, 0.09298092358202978), 0.05182623856550796),
    (2, 0.9, (0.12, 0.12), (0.0578203142367178, 0.0578203142367178), 0.07454227505864387),
    (2, 0.9, (0.16, 0.16), (0.05131437242022425, 0.05131437242022425), 0.09828706064575374),
    (2, 0.9, (0.08, 0.12), (0.09211865155983111, 0.041019706802779846), 0.050689928379437435),
    (2, 0.9, (0.08, 0.16), (0.09196328764145541, 0.026658821922001388), 0.05048729726744215),
    (2, 0.9, (0.12, 0.16), (0.055936574096328934, 0.037716029513220575), 0.07173257871752665),
    (4, 0.5, (0.08, 0.08), (0.10717467746804465, 0.10717467746804465), 0.07356530515532772),
    (4, 0.5, (0.12, 0.12), (0.10273678635535621, 0.10273678635535621), 0.1545293383110391),
    (4, 0.5, (0.16, 0.16), (0.11397969064109652, 0.11397969064109652), 0.22997490266877005),
    (4, 0.5, (0.08, 0.12), (0.12337177032812051, 0.07741284778812253), 0.10616434618749175),
    (4, 0.5, (0.08, 0.16), (0.13622398729484408, 0.07139085510534705), 0.1386265990147147),
    (4, 0.5, (0.12, 0.16), (0.11469971224528543, 0.09147280750006237), 0.18064147820843002),
    (4, 0.9, (0.08, 0.08), (0.0945019999583731, 0.0945019999583731), 0.05387961534254533),
    (4, 0.9, (0.12, 0.12), (0.07157938107713453, 0.07157938107713453), 0.09626416520726434),
    (4, 0.9, (0.16, 0.16), (0.07346651042203409, 0.07346651042203409), 0.14288713790204738),
    (4, 0.9, (0.08, 0.12), (0.10781633217930311, 0.05791960597473429), 0.07469140790282122),
    (4, 0.9, (0.08, 0.16), (0.11984847772776958, 0.05132606612496282), 0.09831013599429239),
    (4, 0.9, (0.12, 0.16), (0.0801412458314006, 0.0576948580972425), 0.11094625463218397),
]


@pytest.mark.parametrize("k, rho, pair, c_star, gamma", FROZEN_FITS)
def test_adjust_matches_frozen_fits(k, rho, pair, c_star, gamma):
    sigma = np.array(pair if k == 2 else (pair[0], pair[0], pair[1], pair[1]))
    adj = ctost_mvt_adjust(_summary(np.zeros(k), sigma, _equicorr(k, rho)),
                           seed=0)
    assert adj.converged
    want = np.array(c_star if k == 2 else (c_star[0],) * 2 + (c_star[1],) * 2)
    np.testing.assert_allclose(adj.c_star, want, rtol=0, atol=1e-8)
    assert adj.gamma == pytest.approx(gamma, abs=2e-8)


def test_argsup_warm_start_finds_the_same_point():
    # the fit restarts each face at its last maximizer; at t = 0 a face has
    # one maximizer, so the start does not move what is found
    sigma = np.array([0.08, 0.08, 0.12, 0.12])
    corr = _equicorr(4, 0.5)
    c = np.array([0.12, 0.12, 0.08, 0.08])
    cold, ends = mvt._argsup_fixed(sigma, corr, c, C0, 1e-5, 0)
    c_next = c + np.array([0.004, 0.004, 0.002, 0.002])
    want, _ = mvt._argsup_fixed(sigma, corr, c_next, C0, 1e-5, 0)
    got, _ = mvt._argsup_fixed(sigma, corr, c_next, C0, 1e-5, 0, ends)
    assert cold.converged and got.converged
    assert got.face == want.face
    np.testing.assert_allclose(got.lambda_, want.lambda_, atol=1e-6)
    assert got.objective == pytest.approx(want.objective, abs=1e-12)
    assert got.candidates_evaluated < want.candidates_evaluated


def test_argsup_axis_values_in_one_call_equal_single_calls():
    # the 2K axis candidates go through one rect_prob call; each box's
    # value is independent of its batch, so nothing the search finds moves
    sigma = np.array([0.08, 0.1, 0.12, 0.12])
    c = np.array([0.1, 0.09, 0.08, 0.07])
    for corr in (_equicorr(4, 0.5), _equicorr(4, -0.2), np.eye(4)):
        obj = powerkernel._JointRejection(c[None, :], sigma, corr,
                                          {"tol": 1e-5, "seed": 0, "n_points": None})
        axes = np.vstack([sgn * C0 * np.eye(4)[h] for h in range(4) for sgn in (1, -1)])
        batch = obj.value(axes)
        assert batch.tolist() == [obj.value(x) for x in axes]
        lam, _ = mvt._argsup_fixed(sigma, corr, c, C0, 1e-5, 0)
        assert lam.objective >= np.max(batch)
        if not np.any(corr - np.eye(4)):
            # independent coordinates: the best axis point is the answer
            assert lam.objective == np.max(batch)
            assert lam.candidates_evaluated == 8


def test_adjust_k5_correlated_fit_converges(monkeypatch):
    # equicorrelated rectangles take the one-factor rule at any K: no
    # quasi-Monte Carlo anywhere in the fit
    def no_qmc(*args, **kw):
        raise AssertionError("quasi-Monte Carlo rectangle")

    monkeypatch.setattr(statdist, "_genz_qmc", no_qmc)
    sigma = np.array([0.08, 0.08, 0.1, 0.12, 0.12])
    adj = ctost_mvt_adjust(_summary(np.zeros(5), sigma, _equicorr(5, 0.5)))
    assert adj.converged
    assert adj.gamma >= 0.05
    marginal = [size_uni(float(s), 20, 0.0, float(c))
                for s, c in zip(sigma, adj.c_star)]
    np.testing.assert_allclose(marginal, adj.gamma, rtol=0, atol=1e-8)


def test_adjust_raises_when_the_inner_loop_hits_its_cap(monkeypatch):
    # the gamma solve stops at the root-finder's cap, here one round; the
    # margin solves inside it keep the full cap
    def full_cap(*args, **kw):
        with monkeypatch.context() as m:
            m.setattr(univariate, "_ROOT_MAX_ITER", 200)
            return _match_margin(*args, **kw)

    monkeypatch.setattr(univariate, "_ROOT_MAX_ITER", 1)
    monkeypatch.setattr(mvt, "_match_margin", full_cap)
    s = _summary([0.0, 0.0], [0.1, 0.13], _equicorr(2, 0.5))
    with pytest.raises(NonConvergenceError, match="after 1 inner rounds"):
        ctost_mvt_adjust(s)


def test_adjust_raises_when_a_margin_does_not_match(monkeypatch):
    def unmatched(sigma, level, c0, **kw):
        c, iters, conv = _match_margin(sigma, level, c0, **kw)
        return c, iters, np.zeros_like(conv)

    monkeypatch.setattr(mvt, "_match_margin", unmatched)
    s = _summary([0.0, 0.0], [0.1, 0.13], _equicorr(2, 0.5))
    with pytest.raises(NonConvergenceError, match="marginal size"):
        ctost_mvt_adjust(s)


def test_joint_alpha_star_raises_at_the_cap(monkeypatch):
    # three worst-point searches cannot bring the joint size within 1e-6
    monkeypatch.setattr(univariate, "_ROOT_MAX_ITER", 3)
    s = _summary([0.0, 0.0], [0.1, 0.14], np.eye(2))
    with pytest.raises(NonConvergenceError, match=r"joint alpha\* .* 3 rounds"):
        mvt_decide(s, method="alpha-tost")


def test_case_study_margins_frozen():
    summary = load_case_study()
    adj = ctost_mvt_adjust(summary)
    assert adj.converged
    np.testing.assert_allclose(
        adj.c_star, [0.1643, 0.1453, 0.1428, 0.1431], atol=5e-4)
    assert adj.gamma == pytest.approx(0.3089, abs=5e-4)
    assert adj.lambda_.objective == pytest.approx(0.05, abs=1e-6)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def test_mvt_decide_tost_matches_marginal_intervals():
    s = _summary([0.05, -0.02], [0.06, 0.08], _equicorr(2, 0.3), nu2=15)
    rep = mvt_decide(s, EquivalenceSpec(method="tost"))
    t = float(t_quantile(0.05, 15))
    for k, (lo, hi) in enumerate(rep.intervals):
        assert lo == pytest.approx(s.theta_hat[k] - t * s.sigma1_hat[k], abs=1e-12)
        assert hi == pytest.approx(s.theta_hat[k] + t * s.sigma1_hat[k], abs=1e-12)
    inside = all(-C0 < lo and hi < C0 for lo, hi in rep.intervals)
    assert rep.reject == inside


def test_mvt_decide_ctost_report_coherent():
    s = _summary([0.05, -0.02], [0.1, 0.12], _equicorr(2, 0.5))
    rep = mvt_decide(s, EquivalenceSpec(method="ctost"))
    assert rep.method == "ctost"
    assert len(rep.margins) == 2
    assert rep.reject == all(
        abs(th) < m for th, m in zip(rep.theta_hat, rep.margins))
    assert rep.meta["gamma"] >= 0.05 - 1e-12
    if rep.iip:
        for k, (lo, hi) in enumerate(rep.intervals):
            assert (-C0 < lo and hi < C0) == (abs(rep.theta_hat[k]) < rep.margins[k])


def test_mvt_decide_alpha_tost_independent_case():
    sigma = np.array([0.1, 0.1])
    s = _summary([0.0, 0.0], sigma, np.eye(2))
    rep = mvt_decide(s, EquivalenceSpec(method="alpha-tost"))
    alpha = rep.meta["alpha_adj"]
    t = rep.meta["t_used"]
    assert alpha > 0.05
    # solved level really makes the worst-case joint size alpha0; in the
    # independent equal-sigma case that size is the axis product
    joint = oracles.omega_quad(C0, 0.1, 20, t, C0) * \
        oracles.omega_quad(0.0, 0.1, 20, t, C0)
    assert joint == pytest.approx(0.05, abs=5e-6)


def test_alpha_star_joint_indep_oracle_reference_values():
    # the bundled case study falls back to independent regions, where the
    # oracle's axis-product level is the reference for the joint alpha-tost
    s = load_case_study()
    ref = oracles.alpha_star_joint_indep(s.sigma1_hat, s.nu2)
    assert ref["alpha"] == pytest.approx(0.378999, abs=1e-6)
    assert ref["t"] == pytest.approx(0.31589, abs=1e-5)
    np.testing.assert_allclose(
        ref["margins"], [0.11874, 0.16919, 0.15260, 0.16461], atol=1e-5)
    assert ref["face"] == 0
    assert ref["joint_size"] == pytest.approx(0.05, abs=1e-9)


def test_mvt_decide_rejects_univariate_only_methods():
    s = _summary([0.0, 0.0], [0.1, 0.1], np.eye(2))
    with pytest.raises(InputError):
        mvt_decide(s, EquivalenceSpec(method="ctost"), method="delta-tost")
    with pytest.raises(InputError):
        mvt_decide(s, EquivalenceSpec(method="ctost"), method="ctost-star")


def test_omega_joint_matches_scipy_rect():
    sigma = np.array([0.1, 0.14])
    corr = _equicorr(2, 0.45)
    theta = np.array([0.21, 0.02])
    c = np.array([0.2, 0.23])
    got = _omega_joint(theta, sigma, corr, c)
    want = oracles.rect_prob_scipy((-c - theta) / sigma, (c - theta) / sigma, corr)
    assert got == pytest.approx(want, abs=1e-7)


def test_omega_joint_k3_matches_scipy_rect():
    sigma = np.array([0.1, 0.14, 0.08])
    corr = np.array([[1.0, 0.45, 0.2], [0.45, 1.0, -0.1], [0.2, -0.1, 1.0]])
    theta = np.array([0.21, 0.02, -0.05])
    c = np.array([0.2, 0.23, 0.19])
    got = _omega_joint(theta, sigma, corr, c, tol=1e-5, seed=1)
    want = oracles.rect_prob_scipy((-c - theta) / sigma, (c - theta) / sigma, corr)
    assert got == pytest.approx(want, abs=5e-5)

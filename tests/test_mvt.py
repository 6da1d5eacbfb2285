"""Joint (all-dimensions-must-pass) equivalence machinery.

The solved margins are validated by scipy-only reimplementations: dense
boundary scans with scipy's multivariate normal CDF, closed-form products
in the independent case, and per-row agreement between the batch solver and
the scalar one.
"""

import json

import numpy as np
import pytest
from scipy import special

from equivkit import mvt, powerkernel, statdist, univariate
from equivkit.base import EquivalenceSpec, InputError, NonConvergenceError
from equivkit.cli import main
from equivkit.ingest import load_case_study
from equivkit.mvt import (
    LambdaResult,
    MvtAdjustment,
    MvtSummary,
    ctost_mvt_adjust,
    lambda_argsup,
    mvt_decide,
    repair_correlation,
)
from equivkit.powerkernel import MvtPowerQuery, power_mvt, size_uni
from equivkit.univariate import (
    UnivSummary,
    _match_margin,
    _size,
    alpha_tost_adjust,
    ctost_adjust,
)
from equivkit.simkit import MVT_SIGMA_CONFIGS, SimulationConfig, run_mvt_kappa
from equivkit.statdist import t_quantile

import oracles
from test_statdist import _random_corr

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
    for bad in (np.inf, np.nan):
        with pytest.raises(InputError, match="finite"):
            _summary([0.1, 0.2], [0.1, bad], np.eye(2))
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
    assert lam.objective == oracles.omega_joint(lam.lambda_, sigma, _equicorr(4, rho), c)
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
    # an axis point, found from the K axis candidates alone
    assert lam.candidates_evaluated == k
    assert lam.converged
    assert lam.lambda_[lam.face] == C0
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


# worst-point searches with independent coordinates, frozen from the search
# that evaluated each t > 0 axis candidate by its own power_mvt call:
# (sigma, c, t, lambda_, objective, face, candidates_evaluated,
# converged), all at nu2 = 20; re-frozen on the K positive axes and the
# standardized kernel, with objectives moved by under 3e-14 relative
FROZEN_INDEPENDENT_SEARCHES = [
    ([0.091, 0.109], [0.171, 0.194], 0.0, [0.0, C0], 0.37076497156509186, 1, 2, True),
    ([0.169, 0.089], [0.222, 0.159], 1.7, [C0, 0.0], 0.0003929002813423085, 0, 2, True),
    ([0.144, 0.071, 0.187], [0.235, 0.206, 0.295], 0.0, [0.0, 0.0, C0],
     0.5782331497522574, 2, 3, True),
    ([0.175, 0.19, 0.125], [0.269, 0.202, 0.21], 1.7, [0.0, C0, 0.0],
     6.484202229808205e-07, 1, 3, True),
    ([0.098, 0.186, 0.196, 0.154, 0.181], [0.29, 0.252, 0.214, 0.221, 0.198], 0.0,
     [C0, 0.0, 0.0, 0.0, 0.0], 0.2771986482392652, 0, 5, True),
    ([0.195, 0.083, 0.167, 0.074, 0.165], [0.225, 0.212, 0.226, 0.186, 0.216], 1.7,
     [C0, 0.0, 0.0, 0.0, 0.0], 1.5948725234894473e-08, 0, 5, True),
    ([0.08, 0.12], [0.2, 0.2], 0.0, [0.0, C0], 0.4180649919552545, 1, 2, True),
    ([0.08, 0.15], [0.2, 0.2], 1.7, [0.0, C0], 0.0016189901192589869, 1, 2, True),
]


@pytest.mark.parametrize("sigma, c, t, lam, objective, face, evals, converged",
                         FROZEN_INDEPENDENT_SEARCHES)
def test_lambda_argsup_independent_matches_frozen_searches(
        sigma, c, t, lam, objective, face, evals, converged):
    k = len(sigma)
    got = lambda_argsup(np.array(sigma), np.eye(k), 20, np.array(c), t=t)
    assert got.lambda_.tolist() == lam
    assert (got.objective, got.face) == (objective, face)
    assert (got.candidates_evaluated, got.converged) == (evals, converged)


def test_lambda_argsup_rejects_bad_margins():
    with pytest.raises(InputError):
        lambda_argsup(np.array([0.1, 0.1]), np.eye(2), 20, np.array([0.2, -0.1]))


# inputs are checked at entry, whatever path the search then takes
@pytest.mark.parametrize("sigma, corr, c, t, match", [
    ([0.1, -0.1], np.eye(2), [0.2, 0.2], None, "sigma1"),
    ([0.1, 0.0], _equicorr(2, 0.5), [0.2, 0.2], None, "sigma1 entries must be positive"),
    ([0.1, 0.1], _equicorr(2, 1.2), [0.2, 0.2], None, "positive definite"),
    ([0.1, 0.1], _equicorr(2, 0.5), [0.2, 0.2], -1, "t >= 0"),
    ([0.1, 0.1, 0.1], np.eye(3), [0.2, 0.2], None, "length 3"),
])
def test_lambda_argsup_rejects_bad_inputs(sigma, corr, c, t, match):
    with pytest.raises(InputError, match=match):
        lambda_argsup(np.array(sigma), corr, 20, np.array(c), t=t)


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
    sizes = _size((adj.c_star - C0) / sigma, sigma, C0)
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


# ctost_mvt_adjust(seed=0) on acceptance 9's correlated cells: (K, rho,
# sigma pair, (c*_1, c*_2), gamma); at K = 4 the sigmas and margins are
# (a, a, b, b).  The plain rows were frozen from the fit that reset gamma to
# alpha0 and searched from the face centres in every outer round; the
# pytest.param rows were re-frozen from the fit that starts at the
# alpha0-matched margins and keep the test names of their first freeze
FROZEN_FITS = [
    (2, 0.5, (0.08, 0.08), (0.09865493799269447, 0.09865493799269447), 0.059812452006608764),
    (2, 0.5, (0.12, 0.12), (0.07273020686855278, 0.07273020686855278), 0.09818306616292574),
    pytest.param(2, 0.5, (0.16, 0.16), (0.06859274524258258, 0.06859274524258258),
                 0.13291140889185674, id="2-0.5-pair2-c_star2-0.13291153524664107"),
    pytest.param(2, 0.5, (0.08, 0.12), (0.09839823597119678, 0.047391671832929555),
                 0.059431561976454036, id="2-0.5-pair3-c_star3-0.05943186646100779"),
    pytest.param(2, 0.5, (0.08, 0.16), (0.09830684631548255, 0.03126013373881653),
                 0.05929641703123718, id="2-0.5-pair4-c_star4-0.05929631781224791"),
    pytest.param(2, 0.5, (0.12, 0.16), (0.0724319316014122, 0.051008749327604824),
                 0.0976841283625787, id="2-0.5-pair5-c_star5-0.09768416975972002"),
    (2, 0.9, (0.08, 0.08), (0.09298092358202978, 0.09298092358202978), 0.05182623856550796),
    pytest.param(2, 0.9, (0.12, 0.12), (0.05782033264194947, 0.05782033264194947),
                 0.07454230269285203, id="2-0.9-pair7-c_star7-0.07454227505864387"),
    (2, 0.9, (0.16, 0.16), (0.05131437242022425, 0.05131437242022425), 0.09828706064575374),
    pytest.param(2, 0.9, (0.08, 0.12), (0.09211858193717115, 0.041019639212306475),
                 0.050689837431425855, id="2-0.9-pair9-c_star9-0.050689928379437435"),
    (2, 0.9, (0.08, 0.16), (0.09196328764145541, 0.026658821922001388), 0.05048729726744215),
    (2, 0.9, (0.12, 0.16), (0.055936574096328934, 0.037716029513220575), 0.07173257871752665),
    (4, 0.5, (0.08, 0.08), (0.10717467746804465, 0.10717467746804465), 0.07356530515532772),
    pytest.param(4, 0.5, (0.12, 0.12), (0.10273689163501565, 0.10273689163501565),
                 0.15452955864261947, id="4-0.5-pair13-c_star13-0.1545293383110391"),
    pytest.param(4, 0.5, (0.16, 0.16), (0.11397951884928131, 0.11397951884928131),
                 0.2299745167366598, id="4-0.5-pair14-c_star14-0.22997490266877005"),
    (4, 0.5, (0.08, 0.12), (0.12337177032812051, 0.07741284778812253), 0.10616434618749175),
    pytest.param(4, 0.5, (0.08, 0.16), (0.13622391492204045, 0.07139075746359658),
                 0.13862639901674692, id="4-0.5-pair16-c_star16-0.1386265990147147"),
    pytest.param(4, 0.5, (0.12, 0.16), (0.11469953614663819, 0.09147262025969263),
                 0.18064107790615822, id="4-0.5-pair17-c_star17-0.18064147820843002"),
    (4, 0.9, (0.08, 0.08), (0.0945019999583731, 0.0945019999583731), 0.05387961534254533),
    pytest.param(4, 0.9, (0.12, 0.12), (0.07157928529892449, 0.07157928529892449),
                 0.09626400619290613, id="4-0.9-pair19-c_star19-0.09626416520726434"),
    pytest.param(4, 0.9, (0.16, 0.16), (0.07346665117199136, 0.07346665117199136),
                 0.1428874274231645, id="4-0.9-pair20-c_star20-0.14288713790204738"),
    pytest.param(4, 0.9, (0.08, 0.12), (0.10781634949174607, 0.057919626313685496),
                 0.07469143846207248, id="4-0.9-pair21-c_star21-0.07469140790282122"),
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


@pytest.mark.parametrize("k, rho, pair, c_star, gamma", FROZEN_FITS)
def test_frozen_fits_are_solutions(k, rho, pair, c_star, gamma):
    # each frozen margin has marginal size gamma, and at K = 2 no face of
    # the null boundary holds a joint rejection probability above alpha0
    sizes = [size_uni(s, 20, 0.0, c) for s, c in zip(pair, c_star)]
    np.testing.assert_allclose(sizes, gamma, rtol=0, atol=1e-10)
    if k == 2:
        faces = oracles.face_max_k2(pair, _equicorr(2, rho), c_star, C0)
        assert max(value for value, _ in faces) <= 0.05 + 1e-6


def test_argsup_warm_start_finds_the_same_point():
    # the fit restarts each face at its last maximizer; at t = 0 a face has
    # one maximizer, so the start does not move what is found
    sigma = np.array([0.08, 0.08, 0.12, 0.12])
    corr = _equicorr(4, 0.5)
    c = np.array([0.12, 0.12, 0.08, 0.08])
    cold, ends = mvt._argsup_fixed(sigma, corr, (c - C0) / sigma, C0, 1e-5, 0)
    u_next = (c + np.array([0.004, 0.004, 0.002, 0.002]) - C0) / sigma
    want, _ = mvt._argsup_fixed(sigma, corr, u_next, C0, 1e-5, 0)
    got, _ = mvt._argsup_fixed(sigma, corr, u_next, C0, 1e-5, 0, ends)
    assert cold.converged and got.converged
    assert got.face == want.face
    np.testing.assert_allclose(got.lambda_, want.lambda_, atol=1e-6)
    assert got.objective == pytest.approx(want.objective, abs=1e-12)
    assert got.candidates_evaluated < want.candidates_evaluated


def test_argsup_axis_values_in_one_call_equal_single_calls():
    # the K axis candidates go through one rect_prob call; each box's
    # value is independent of its batch, so nothing the search finds moves
    sigma = np.array([0.08, 0.1, 0.12, 0.12])
    u = (np.array([0.1, 0.09, 0.08, 0.07]) - C0) / sigma
    for corr in (_equicorr(4, 0.5), _equicorr(4, -0.2), np.eye(4)):
        obj = powerkernel._JointRejection(np.full(4, C0), u[None, :], sigma, corr,
                                          {"tol": 1e-5, "seed": 0, "n_points": None})
        axes = C0 * np.eye(4)
        batch = obj.value(axes)
        assert batch.tolist() == [obj.value(x) for x in axes]
        lam, _ = mvt._argsup_fixed(sigma, corr, u, C0, 1e-5, 0)
        assert lam.objective >= np.max(batch)
        if not np.any(corr - np.eye(4)):
            # independent coordinates: the best axis point is the answer
            assert lam.objective == np.max(batch)
            assert lam.candidates_evaluated == 4


K4_SIGMA = np.array([0.08, 0.08, 0.12, 0.12])
K4_C = np.array([0.12, 0.12, 0.08, 0.08])
# face starts of the warm search: the face ends of the cold K = 4 search
WARM_STARTS = [
    [0.0697078512921893, 0.10450108191723112, 0.10450108191723112],
    [0.0697078512921893, 0.10450108191723112, 0.10450108191723112],
    [0.06465664505398137, 0.06465664505398136, 0.09695278179755754],
    [0.06465664505398137, 0.06465664505398136, 0.09695278179755754],
]


def _frozen_search(case):
    if case.startswith("k2"):
        rho = float(case[3:])
        return lambda_argsup(np.array([0.09, 0.13]), _equicorr(2, rho), 20,
                             np.array([0.12, 0.16]))
    if case.startswith("k3"):
        return lambda_argsup(np.array([0.08, 0.1, 0.12]), _equicorr(3, float(case[3:])),
                             20, np.array([0.1, 0.09, 0.08]))
    if case == "k4":
        return lambda_argsup(K4_SIGMA, _equicorr(4, 0.5), 20, K4_C)
    if case == "k4-random":
        return lambda_argsup(np.linspace(0.08, 0.12, 4),
                             _random_corr(np.random.default_rng(3), 4), 20,
                             np.array([0.1, 0.09, 0.08, 0.07]))
    if case == "k4-warm":
        c = K4_C + np.array([0.004, 0.004, 0.002, 0.002])
        return mvt._argsup_fixed(K4_SIGMA, _equicorr(4, 0.5), (c - C0) / K4_SIGMA, C0,
                                 1e-5, 0,
                                 [np.array(x) for x in WARM_STARTS])[0]
    # t > 0: the sampled objective, two starts per face
    return lambda_argsup(np.array([0.08, 0.12]), _equicorr(2, 0.5), 20, np.full(2, C0),
                         tol=1e-3, seed=123, t=np.full(2, t_quantile(0.05, 20)),
                         n_wishart=1000)


# worst-point searches frozen from the ascent that searched one face at a
# time: (case, lambda_, objective, face, candidates_evaluated);
# re-frozen on the K positive axes and boxes in standardized offsets, with
# lambda_ moved by under 6e-17 and objectives by under 4e-16 relative.  The
# K = 2 rows were re-frozen from the face roots, which moved lambda_ by up to
# 5.4e-10, onto the exact maximizer, and the objectives by up to 1.1e-16
# (test_k2_frozen_searches_match_the_scalar_oracle)
FROZEN_SEARCHES = [
    ("k2 -0.9", [-0.09798758007631626, C0], 0.3017308507186671, 1, 4),
    ("k2 0.5", [0.05016789812410066, C0], 0.26862049610853184, 1, 4),
    ("k2 0.9", [0.09798758007631626, C0], 0.3017308507186671, 1, 4),
    ("k3 -0.3", [-0.03886076560815164, -0.04856337539148161, C0],
     0.06039152855349155, 2, 26),
    ("k3 0.6", [0.07752576543763746, 0.09687307409085019, C0], 0.07164648865622744, 2, 23),
    ("k4", [0.06465664505398135, 0.06465664505398135, C0, 0.09695278179755752],
     0.0526592099982141, 2, 38),
    ("k4-random", [0.02917646456065045, 0.06935019632757398, -0.0238880130520144, C0],
     0.032160324125788224, 3, 43),
    ("k4-warm", [0.06423454899432128, 0.06423454899432128, C0, 0.09631222084278467],
     0.05645720435738138, 2, 32),
    ("sampled", [0.06947292861794765, C0], 0.025663981184233683, 1, 21),
]


@pytest.mark.parametrize("case, lam, objective, face, evals", FROZEN_SEARCHES,
                         ids=[row[0] for row in FROZEN_SEARCHES])
def test_argsup_matches_frozen_searches(case, lam, objective, face, evals):
    # the ascents run in lockstep rounds, but each takes exactly the steps
    # it took alone: a rectangle's value does not depend on its batch
    got = _frozen_search(case)
    assert got.lambda_.tolist() == lam
    assert (got.objective, got.face) == (objective, face)
    assert got.candidates_evaluated == evals
    assert got.converged


def test_argsup_evaluates_each_round_in_one_call(monkeypatch):
    # one rectangle pass per round, a rect_grad call that returns the values
    # with their derivatives, holding the point of every ascent still
    # running; the one-face-at-a-time ascent made one call per line-search
    # trial and one per accepted step
    sizes, grads = [], []
    prob, grad = powerkernel.rect_prob, powerkernel.rect_grad

    def counted_prob(a, b, *args, **kw):
        sizes.append(int(np.prod(a.shape[:-1])))
        return prob(a, b, *args, **kw)

    def counted_grad(a, b, *args, **kw):
        grads.append(int(np.prod(a.shape[:-1])))
        return grad(a, b, *args, **kw)

    monkeypatch.setattr(powerkernel, "rect_prob", counted_prob)
    monkeypatch.setattr(powerkernel, "rect_grad", counted_grad)
    lam = lambda_argsup(K4_SIGMA, _equicorr(4, 0.5), 20, K4_C)
    assert sizes == [4]  # the axis candidates; no round takes rect_prob
    rounds = grads
    assert rounds[0] == 4  # every face starts in the first round
    assert all(a >= b for a, b in zip(rounds, rounds[1:]))
    assert sum(rounds) == lam.candidates_evaluated - 4
    assert len(rounds) <= (lam.candidates_evaluated - 4) / 2


def test_k2_frozen_searches_match_the_scalar_oracle():
    # scipy's bounded scalar maximizer along each face, on scipy's own
    # rectangle probabilities: the same face and point, to its resolution
    for case, lam, objective, face, _ in FROZEN_SEARCHES[:3]:
        rho = float(case[3:])
        faces = oracles.face_max_k2([0.09, 0.13], _equicorr(2, rho), [0.12, 0.16], C0)
        want, point = max(faces, key=lambda pair: pair[0])
        assert face == int(np.argmax([v for v, _ in faces]))
        np.testing.assert_allclose(lam, point, rtol=0, atol=1e-8)
        assert abs(objective - want) <= 1e-15


def _k2_objective(sigma, corr, u):
    """The K = 2 search's objective: boxes in the margins' offsets u, which
    keep the edge u exactly at theta = C0."""
    return powerkernel._JointRejection(np.full(2, C0), u[None, :], sigma, corr,
                                       {"tol": 1e-5, "seed": 0, "n_points": None})


def _k2_problems(n, seed):
    """n random K = 2 problems: rho in [-0.95, 0.95], sigma1 in [0.02, 0.5]
    and offsets u in (-c0 / sigma1, 2), so margins c0 + sigma1 u in (0, c0 + 2 sigma1)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        sigma = rng.uniform(0.02, 0.5, 2)
        yield sigma, _equicorr(2, rng.uniform(-0.95, 0.95)), rng.uniform(-C0 / sigma, 2.0)


def test_k2_argsup_reaches_the_scalar_oracle_on_random_problems():
    # each face's root is its maximum, interior or at a face end, and the
    # search's answer is the best face point (or an axis point within
    # 1e-12 of it)
    face_ends = 0
    for sigma, corr, u in _k2_problems(200, 20):
        lam, ends = mvt._argsup_fixed(sigma, corr, u, C0, 1e-5, 0)
        faces = oracles.face_max_k2(sigma, corr, C0 + sigma * u, C0)
        assert lam.objective >= max(v for v, _ in faces) - 1e-12
        assert lam.converged and lam.candidates_evaluated == 4
        got = _k2_objective(sigma, corr, u).value(
            np.array([[C0, ends[0][0]], [ends[1][0], C0]]))
        for h in range(2):
            assert got[h] >= faces[h][0] - 1e-12
            face_ends += abs(ends[h][0]) == C0
    assert face_ends >= 20


def test_k2_argsup_warm_start_finds_the_cold_point():
    # each face's root does not depend on where its solve starts, a face
    # end included
    rng = np.random.default_rng(21)
    for sigma, corr, u in _k2_problems(50, 22):
        cold, ends = mvt._argsup_fixed(sigma, corr, u, C0, 1e-5, 0)
        for starts in (ends, [rng.uniform(-C0, C0, 1) for _ in range(2)],
                       [np.array([C0]), np.array([-C0])]):
            warm, warm_ends = mvt._argsup_fixed(sigma, corr, u, C0, 1e-5, 0, starts)
            assert warm.face == cold.face
            np.testing.assert_allclose(warm.lambda_, cold.lambda_, rtol=0, atol=1e-10)
            np.testing.assert_allclose(np.concatenate(warm_ends), np.concatenate(ends),
                                       rtol=0, atol=1e-10)
            assert abs(warm.objective - cold.objective) <= 1e-15


def test_k2_argsup_takes_one_value_call_and_no_gradient(monkeypatch):
    # the face roots use no rectangle: one rect_prob call values the two
    # axis candidates and the two face points
    sizes, grads = [], []
    prob, grad = powerkernel.rect_prob, powerkernel.rect_grad

    def counted_prob(a, b, *args, **kw):
        sizes.append(int(np.prod(a.shape[:-1])))
        return prob(a, b, *args, **kw)

    def counted_grad(a, b, *args, **kw):
        grads.append(int(np.prod(a.shape[:-1])))
        return grad(a, b, *args, **kw)

    monkeypatch.setattr(powerkernel, "rect_prob", counted_prob)
    monkeypatch.setattr(powerkernel, "rect_grad", counted_grad)
    for rho in (-0.9, 0.5):
        sizes.clear()
        lam = lambda_argsup(np.array([0.09, 0.13]), _equicorr(2, rho), 20,
                            np.array([0.12, 0.16]))
        assert sizes == [4] and grads == []
        assert lam.candidates_evaluated == 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho", [0.3, -0.6, 0.95])
def test_k2_argsup_takes_a_vanishing_sigma_on_the_root_path(monkeypatch, rho):
    # sigma 1e-300 puts that coordinate's limits near 1e299: the limit
    # densities continue along their tangents past _LIMIT, so the residual
    # stays finite and the face with that free coordinate finds a point of
    # its plateau; the face ascent is never run
    def no_ascent(*args, **kw):
        raise AssertionError("face ascent at K = 2")

    monkeypatch.setattr(mvt, "_face_ascent", no_ascent)
    sigma = np.array([0.1, 1e-300])
    for u in (np.zeros(2), np.array([0.5, -1.0]), np.array([-1.5, 2.0])):
        lam, ends = mvt._argsup_fixed(sigma, _equicorr(2, rho), u, C0, 1e-5, 0)
        assert lam.converged and lam.lambda_[lam.face] == C0
        assert all(abs(e[0]) <= C0 for e in ends)
        obj = _k2_objective(sigma, _equicorr(2, rho), u)
        assert lam.objective == obj.value(lam.lambda_)
        # face 0's free coordinate, of sigma 1e-300, sits inside its margin
        # C0, on the plateau where the box holds its whole mass: the value of
        # the axis point (C0, 0)
        assert abs(ends[0][0]) < C0
        plateau = obj.value(np.array([[C0, ends[0][0]], [C0, 0.0]]))
        assert plateau[0] == plateau[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho", [0.3, -0.6, 0.0])
def test_adjust_converges_as_one_sigma_vanishes(rho):
    # margins are carried as standardized offsets, so a coordinate whose
    # standard error vanishes keeps exact box edges and sizes: the fit
    # converges down to 1e-300, that margin within 10 s of its limit c0
    for s in np.logspace(-300, -6, 61).tolist():
        adj = ctost_mvt_adjust(_summary([0.0, 0.0], [0.1, s], _equicorr(2, rho)))
        assert adj.converged
        assert abs(adj.c_star[1] - C0) <= 10.0 * s


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma, corr", [
    ([0.08, 0.1, 1e-300], _equicorr(3, 0.5)),
    ([0.08, 0.09, 0.1, 1e-300], _random_corr(np.random.default_rng(1), 4)),
])
def test_adjust_converges_at_a_vanishing_sigma_for_k3_and_k4(sigma, corr):
    k = len(sigma)
    adj = ctost_mvt_adjust(_summary(np.zeros(k), sigma, corr))
    assert adj.converged and adj.c_star[-1] == C0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_argsup_at_a_vanishing_sigma_takes_far_limits():
    # that coordinate's limits are near 1e200: the rectangle gradients
    # cut them before squaring, so nothing overflows
    lam = lambda_argsup(np.array([0.1, 1e-200]), _equicorr(2, 0.3), 20, np.array([0.2, 0.2]))
    assert lam.converged and lam.lambda_[lam.face] == C0


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
    # margin solves and the worst-point searches around it keep the full cap
    def full_cap(solve):
        def wrapped(*args, **kw):
            with monkeypatch.context() as m:
                m.setattr(univariate, "_ROOT_MAX_ITER", 200)
                return solve(*args, **kw)
        return wrapped

    monkeypatch.setattr(univariate, "_ROOT_MAX_ITER", 1)
    monkeypatch.setattr(mvt, "_match_margin", full_cap(_match_margin))
    monkeypatch.setattr(mvt, "_argsup_fixed", full_cap(mvt._argsup_fixed))
    s = _summary([0.0, 0.0], [0.1, 0.13], _equicorr(2, 0.5))
    with pytest.raises(NonConvergenceError, match="after 1 inner rounds"):
        ctost_mvt_adjust(s)


def _record_inner_solves(monkeypatch):
    """Wrap mvt._inner_solve; returns the list its calls are recorded in."""
    calls = []
    real = mvt._inner_solve

    def recorded(sig, corr, point, *args):
        out = real(sig, corr, point, *args)
        calls.append((sig, corr, point, out))
        return out

    monkeypatch.setattr(mvt, "_inner_solve", recorded)
    return calls


def _assert_inner_postconditions(calls):
    # every inner solve ends with each margin at marginal size gamma to
    # 1e-12 and the joint size at its worst point within 1e-10 of alpha0
    assert calls
    for sig, corr, point, (gamma, u, rounds) in calls:
        c = C0 + sig * u
        np.testing.assert_allclose(_size(u, sig, C0), gamma, rtol=0, atol=1e-12)
        joint = statdist.rect_prob((-c - point) / sig, (c - point) / sig, corr)
        assert abs(joint - 0.05) <= 1e-10


def test_inner_solve_postconditions_on_the_acceptance_grid(monkeypatch):
    calls = _record_inner_solves(monkeypatch)
    for k in (2, 4):
        for rho in (0.0, 0.5, 0.9):
            for pair in MVT_SIGMA_CONFIGS:
                sig = np.array(pair if k == 2 else (pair[0], pair[0], pair[1], pair[1]))
                assert ctost_mvt_adjust(_summary(np.zeros(k), sig, _equicorr(k, rho))).converged
    _assert_inner_postconditions(calls)


def test_k2_fits_take_one_rectangle_pass_per_inner_round(monkeypatch):
    # 40 random K = 2 fits: each inner round is one rect_grad call at the
    # worst point (the outer check reuses the search's value), and only
    # round 0 of the first inner solve matches margins by _match_margin
    calls = _record_inner_solves(monkeypatch)
    counts = {"grad": 0, "prob": 0, "match": 0}

    def counted(name, fn):
        def wrapped(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(mvt, "rect_grad", counted("grad", mvt.rect_grad))
    monkeypatch.setattr(mvt, "rect_prob", counted("prob", mvt.rect_prob))
    monkeypatch.setattr(mvt, "_match_margin", counted("match", mvt._match_margin))
    rng = np.random.default_rng(40)
    for _ in range(40):
        sig = np.exp(rng.uniform(np.log(0.05), np.log(0.25), 2))
        rho = rng.uniform(-0.9, 0.9)
        counts.update(grad=0, prob=0, match=0)
        solves = len(calls)
        adj = ctost_mvt_adjust(_summary([0.0, 0.0], sig, _equicorr(2, rho)))
        assert adj.converged
        assert len(calls) - solves == adj.outer_iterations
        # inner_iterations counts the rounds that moved gamma: all but the
        # last of each solve
        assert counts == {"grad": adj.inner_iterations + adj.outer_iterations,
                          "prob": 0, "match": 1}
    _assert_inner_postconditions(calls)


def test_k2_fits_search_once_before_the_first_inner_solve(monkeypatch):
    # the fit starts at the alpha0-matched margins: one worst-point search
    # there, then one per outer round, 98 over the 40 random K = 2 fits
    calls = _record_inner_solves(monkeypatch)
    searches = []
    real = mvt._argsup_fixed

    def counted(*args):
        searches.append(args[2])
        return real(*args)

    monkeypatch.setattr(mvt, "_argsup_fixed", counted)
    rng = np.random.default_rng(40)
    for _ in range(40):
        sig = np.exp(rng.uniform(np.log(0.05), np.log(0.25), 2))
        rho = rng.uniform(-0.9, 0.9)
        solves, before = len(calls), len(searches)
        adj = ctost_mvt_adjust(_summary([0.0, 0.0], sig, _equicorr(2, rho)))
        assert len(calls) - solves == adj.outer_iterations
        assert len(searches) - before == adj.outer_iterations + 1
        # the first search is at the margins of marginal size alpha0
        np.testing.assert_allclose(_size(searches[before], sig, C0), 0.05,
                                   rtol=0, atol=1e-12)
    assert len(searches) <= 98


def test_inner_solve_resolves_a_margin_whose_step_is_not_positive(monkeypatch):
    # from margins far above c0 every size is 1 to rounding, so a Newton
    # step would overshoot below zero: the guard matches those margins anew
    matched = []
    real = mvt._match_margin

    def recorded(sigma, *args, **kw):
        matched.append(np.size(sigma))
        return real(sigma, *args, **kw)

    monkeypatch.setattr(mvt, "_match_margin", recorded)
    sig = np.array([0.1, 0.13])
    corr = _equicorr(2, 0.5)
    point = np.array([C0, 0.0])
    gamma, u, rounds = mvt._inner_solve(
        sig, corr, point, 0.06, (1.0 - C0) / sig, EquivalenceSpec(), 1e-10,
        {"tol": 2.5e-7, "seed": 0, "n_points": None}, [])
    assert matched and rounds > 1
    _assert_inner_postconditions([(sig, corr, point, (gamma, u, rounds))])


def test_case_study_ctost_gamma_matches_the_independent_oracle():
    # identity correlation: the joint size at the worst axis point is
    # gamma times the other coordinates' centred interval probabilities,
    # solved by brentq on both levels
    s = load_case_study()
    adj = ctost_mvt_adjust(s)
    assert adj.gamma == pytest.approx(oracles.ctost_gamma_indep(s.sigma1_hat), abs=1e-14)


def test_adjust_raises_when_a_margin_does_not_match(monkeypatch):
    def unmatched(sigma, level, c0, **kw):
        c, iters, conv, resid = _match_margin(sigma, level, c0, **kw)
        return c, iters, np.zeros_like(conv), resid

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


# each worst-point search's cap, forced to 1 round: the K = 2 face root at
# t = 0 (the root finder's cap), the face ascent at t = 0 (K >= 3) and the
# sampled face ascent at t > 0; every caller then raises, in the library
# and as the CLI's exit code 3
_K2 = ([0.1, 0.14], _equicorr(2, 0.5))
_K3 = ([0.08, 0.1, 0.12], _equicorr(3, 0.5))


@pytest.mark.parametrize("module, cap, match, summary, search, kappa", [
    (univariate, "_ROOT_MAX_ITER", "K = 2 face root", _K2, {}, ("ctost", 2)),
    (mvt, "_ASCENT_MAX_ITER", "face ascent", _K3, {}, ("ctost", 4)),
    (mvt, "_ASCENT_MAX_ITER", "face ascent", _K2, {"t": 1.7}, ("tost", 2)),
], ids=["k2-face-root", "t0-ascent", "sampled-ascent"])
def test_searches_raise_at_their_caps(monkeypatch, tmp_path, capsys, module, cap,
                                      match, summary, search, kappa):
    sigma, corr = np.array(summary[0]), summary[1]
    k = sigma.size
    s = _summary(np.zeros(k), sigma, corr)
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"theta_hat": [0.0] * k, "sigma1_hat": summary[0],
                                "correlation": corr.tolist(), "nu2": 20}))
    method, kappa_k = kappa
    cfg = SimulationConfig(design="mvt-kappa", sigma_grid=((0.08, 0.12),), nu2_set=(20,),
                           theta_or_kappa_grid=(0.0,), K=kappa_k, rho_set=(0.5,),
                           methods=(method,), replicates=100, seed=3)
    monkeypatch.setattr(module, cap, 1)

    # the margin solve keeps the full round cap, so that a fit reaches its
    # first search
    def full_cap(*args, **kw):
        with monkeypatch.context() as m:
            m.setattr(univariate, "_ROOT_MAX_ITER", 200)
            return _match_margin(*args, **kw)

    monkeypatch.setattr(mvt, "_match_margin", full_cap)
    calls = [lambda: lambda_argsup(sigma, corr, 20, np.full(k, C0), **search),
             lambda: mvt_decide(s, method="alpha-tost"),
             lambda: run_mvt_kappa(cfg)]
    if not search:
        calls.append(lambda: ctost_mvt_adjust(s))
    for call in calls:
        with pytest.raises(NonConvergenceError, match=match):
            call()
    assert main(["assess", "--method", "alpha-tost", "--input", str(path)]) == 3
    assert match in json.loads(capsys.readouterr().err)["error"]["message"]


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


# the case-study reports, frozen from the search that evaluated each t > 0
# axis candidate by its own power_mvt call; the ctost one from the joint
# Newton inner solve, whose gamma equals oracles.ctost_gamma_indep to 1e-14;
# the ctost and alpha-tost ones re-frozen with margins as standardized
# offsets, which moved their values by 1-2 ulps
CASE_STUDY_THETA = [0.0976, 0.0726, 0.0022, 0.0733]
FROZEN_CASE_STUDY_REPORTS = {
    "tost": {
        "method": "tost", "verdict": "not equivalent", "reject_null": False,
        "theta_hat": CASE_STUDY_THETA,
        "margins": [-0.3703963812674766, -0.08359357572044085, -0.1778775287024031,
                    -0.10963390559164943],
        "intervals": [[-0.49593993258168634, 0.6911399325816864],
                      [-0.23413712703465062, 0.3793371270346506],
                      [-0.39882108001661287, 0.40322108001661283],
                      [-0.2594774569058592, 0.40607745690585917]],
        "iip": True, "c0": C0, "alpha0": 0.05,
        "meta": {"t_used": 1.7958848187040433, "nu2": 11, "dim": 4,
                 "correlation_assumed": True}},
    "ctost": {
        "method": "ctost", "verdict": "equivalent", "reject_null": True,
        "theta_hat": CASE_STUDY_THETA,
        "margins": [0.16434487830274813, 0.14534290445539355, 0.1428070854678451,
                    0.14312319841816687],
        "intervals": [[0.03880132698853837, 0.15639867301146165],
                      [-0.005200646858816216, 0.1504006468588162],
                      [-0.07813646584636467, 0.08253646584636466],
                      [-0.0067203528960428915, 0.1533203528960429]],
        "iip": True, "c0": C0, "alpha0": 0.05,
        "meta": {"gamma": 0.30888548071660304, "outer_iterations": 1,
                 "inner_iterations": 6, "lambda": [C0, 0.0, 0.0, 0.0],
                 "lambda_objective": 0.04999999999999997, "nu2": 11, "dim": 4,
                 "correlation_assumed": True}},
    "alpha-tost": {
        "method": "alpha-tost", "verdict": "equivalent", "reject_null": True,
        "theta_hat": CASE_STUDY_THETA,
        "margins": [0.11874185420258652, 0.1691895123833013, 0.15260527910535812,
                    0.16460910509701224],
        "intervals": [[-0.006801697111623234, 0.20200169711162325],
                      [0.018645961069091527, 0.12655403893090847],
                      [-0.06833827220885165, 0.07273827220885164],
                      [0.01476555378280247, 0.13183444621719753]],
        "iip": True, "c0": C0, "alpha0": 0.05,
        "meta": {"alpha_adj": 0.37899932861328123, "t_used": 0.31589015767510814,
                 "saturated": False, "size_residual": 5.201223707562708e-07,
                 "lambda": [C0, 0.0, 0.0, 0.0], "nu2": 11, "dim": 4,
                 "correlation_assumed": True}},
}


@pytest.mark.parametrize("method", sorted(FROZEN_CASE_STUDY_REPORTS))
def test_mvt_decide_case_study_reports_frozen(method):
    got = mvt_decide(load_case_study(), EquivalenceSpec(method=method)).to_dict()
    want = FROZEN_CASE_STUDY_REPORTS[method]
    assert got == want
    # key order too: the CLI prints the meta dict as it is
    assert list(got["meta"]) == list(want["meta"])


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
    got = oracles.omega_joint(theta, sigma, corr, c)
    want = oracles.rect_prob_scipy((-c - theta) / sigma, (c - theta) / sigma, corr)
    assert got == pytest.approx(want, abs=1e-7)


def test_omega_joint_k3_matches_scipy_rect():
    sigma = np.array([0.1, 0.14, 0.08])
    corr = np.array([[1.0, 0.45, 0.2], [0.45, 1.0, -0.1], [0.2, -0.1, 1.0]])
    theta = np.array([0.21, 0.02, -0.05])
    c = np.array([0.2, 0.23, 0.19])
    got = oracles.omega_joint(theta, sigma, corr, c, tol=1e-5, seed=1)
    want = oracles.rect_prob_scipy((-c - theta) / sigma, (c - theta) / sigma, corr)
    assert got == pytest.approx(want, abs=5e-5)

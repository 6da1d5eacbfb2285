"""Distributional building blocks, checked against high-precision frozen
values and scipy routes that do not share code with the implementations."""

import csv
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from equivkit import simkit, statdist
from equivkit.statdist import (
    _gauss_kronrod,
    _genz_qmc,
    _is_diagonal,
    _leggauss,
    _scaled_chi_logpdf,
    chi2_quantile,
    rect_grad,
    rect_prob,
    rng_stream,
    sample_wishart_cov,
    sample_wishart_diag,
    t_quantile,
)
from equivkit.base import InputError, NonConvergenceError
from equivkit.powerkernel import MvtPowerQuery

import oracles

ORACLE_CSV = os.path.join(os.path.dirname(__file__), "data", "special_oracle.csv")


def _oracle_rows():
    with open(ORACLE_CSV, newline="") as fh:
        for row in csv.DictReader(fh):
            args = tuple(float(x) for x in row["input"].split(";"))
            yield row["function"], args, float(row["expected"])


_ROWS = list(_oracle_rows())


def _eval_special(name, args):
    if name == "norm_cdf":
        return float(special.ndtr(args[0]))
    if name == "norm_quantile":
        return float(special.ndtri(args[0]))
    if name == "t_quantile":
        return float(t_quantile(args[0], int(args[1])))
    if name == "chi2_quantile":
        return float(chi2_quantile(args[0], int(args[1])))
    if name == "sigma_hat_pdf":
        x, sigma1, nu2 = args
        return float(np.exp(_scaled_chi_logpdf(x, sigma1, int(nu2))))
    raise AssertionError(f"unknown oracle function {name}")


# relative tolerances reflect the accuracy of the underlying Cephes
# routines; the chi-square inverse loses digits deep in the lower tail
_SPECIAL_RTOL = {"t_quantile": 1e-9, "chi2_quantile": 1e-7}


@pytest.mark.parametrize(
    "name,args,expected",
    _ROWS,
    ids=[f"{n}-{';'.join(map(repr, a))}" for n, a, _ in _ROWS],
)
def test_special_values_match_high_precision(name, args, expected):
    got = _eval_special(name, args)
    rtol = _SPECIAL_RTOL.get(name, 2e-11)
    assert got == pytest.approx(expected, rel=rtol, abs=1e-300)


def test_t_quantile_rejects_bad_input():
    with pytest.raises(InputError):
        t_quantile(0.05, 0)
    with pytest.raises(InputError):
        t_quantile(1.5, 10)


def test_t_quantile_exceeds_normal_quantile():
    # for a one-sided upper alpha point with alpha < 1/2 the Student
    # quantile always sits above the normal one, approaching it as nu grows
    z = special.ndtri(1 - 0.05)
    prev = np.inf
    for nu in (2, 5, 10, 40, 200, 5000):
        tq = t_quantile(0.05, nu)
        assert z < tq < prev
        prev = tq
    assert t_quantile(0.05, 10**7) == pytest.approx(z, abs=1e-6)


# ---------------------------------------------------------------------------
# scaled chi law of the estimated standard error
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma1,nu2", [(0.05, 3), (0.1, 20), (0.33, 11), (1.7, 80)])
def test_sigma_hat_law_matches_scipy_chi(sigma1, nu2):
    ref = oracles.chi_law(sigma1, nu2)
    xs = np.linspace(ref.ppf(1e-6), ref.ppf(1 - 1e-6), 41)
    logpdf = _scaled_chi_logpdf(xs, sigma1, nu2)
    np.testing.assert_allclose(np.exp(logpdf), ref.pdf(xs), rtol=1e-10)
    np.testing.assert_allclose(logpdf, ref.logpdf(xs), rtol=1e-10, atol=1e-12)


def test_sigma_hat_sample_ks():
    draws = simkit._sigma_hat_draws(0.15, 12, 20000, np.random.default_rng(7))
    stat = stats.kstest(draws, oracles.chi_law(0.15, 12).cdf)
    assert stat.pvalue > 1e-4


# ---------------------------------------------------------------------------
# rectangle probabilities
# ---------------------------------------------------------------------------

def _random_box(rng, k, spread=2.5):
    a = rng.uniform(-spread, spread - 0.5, size=k)
    b = a + rng.uniform(0.3, 2.5, size=k)
    return a, b


def _corr2(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


def _random_corr(rng, k):
    w = rng.standard_normal((k, k + 2))
    cov = w @ w.T
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return corr


def _equivalence_box(rng, k):
    # boxes of the form (-c - theta, c - theta)/sigma, the geometry the
    # boundary search evaluates
    sigma = rng.uniform(0.05, 0.3, size=k)
    c = rng.uniform(0.05, 0.22, size=k)
    theta = rng.uniform(-0.223, 0.223, size=k)
    return (-c - theta) / sigma, (c - theta) / sigma


@pytest.mark.parametrize("rho", [-0.99, -0.95, -0.5, 0.0, 0.3, 0.8, 0.95, 0.99])
def test_bvn_rect_matches_scipy(rho):
    rng = np.random.default_rng(42)
    corr = _corr2(rho)
    for _ in range(6):
        a, b = _random_box(rng, 2)
        got = rect_prob(a, b, corr)
        want = oracles.rect_prob_scipy(a, b, corr)
        assert got == pytest.approx(want, abs=3e-8)
        assert got == pytest.approx(oracles.bvn_rect_quad(a, b, rho), abs=1e-13)


def test_bvn_rect_is_owens_formula_term_by_term():
    # 20,000 boxes, limits exactly 0, within 1e-300 of 0 and reaching past
    # +-_LIMIT among them: each box is Owen's CDF at its four corners, the
    # limits cut and patched as the docstring says, bit for bit
    rng = np.random.default_rng(20)
    n = 500

    def cut(x):
        x = np.clip(x, -statdist._LIMIT, statdist._LIMIT)
        return np.where(np.abs(x) < 1e-300, 1e-300, x)

    def cdf_terms(h, k, rho):
        s = np.sqrt((1.0 - rho) * (1.0 + rho))
        return (special.owens_t(h, (k - rho * h) / (h * s))
                + special.owens_t(k, (h - rho * k) / (k * s))
                + 0.5 * ((h < 0.0) != (k < 0.0)))

    for rho in np.linspace(-0.95, 0.95, 40):
        a = rng.normal(0.0, 4.0, (n, 2))
        b = a + rng.exponential(3.0, (n, 2))
        for lim in (a, b):
            pick = rng.random((n, 2))
            lim[pick < 0.1] = 0.0
            lim[(pick >= 0.1) & (pick < 0.15)] *= 1e-302
            lim[pick >= 0.9] *= 4.0
        a, b = np.minimum(a, b), np.maximum(a, b)
        a1, a2, b1, b2 = cut(a[:, 0]), cut(a[:, 1]), cut(b[:, 0]), cut(b[:, 1])
        want = (cdf_terms(a1, b2, rho) + cdf_terms(b1, a2, rho)
                - cdf_terms(b1, b2, rho) - cdf_terms(a1, a2, rho))
        got = statdist._bvn_rect(a, b, rho)
        assert got.tobytes() == want.tobytes()


def test_bvn_rect_independence_factorizes():
    a1, b1, a2, b2 = -0.4, 1.1, -2.0, 0.3
    want = (special.ndtr(b1) - special.ndtr(a1)) * (special.ndtr(b2) - special.ndtr(a2))
    # exactly diagonal takes the product; just above the 1e-14 threshold
    # Owen's T must give the same value
    assert rect_prob([a1, a2], [b1, b2], np.eye(2)) == pytest.approx(want, rel=1e-10)
    assert rect_prob([a1, a2], [b1, b2], _corr2(1e-13)) == pytest.approx(want, rel=1e-10)


def test_is_diagonal_reads_off_diagonals_only():
    assert _is_diagonal(np.eye(1))
    assert _is_diagonal(np.eye(3))
    # the unit diagonal may be off by what validation accepts
    assert _is_diagonal(np.eye(3) + np.diag([1e-13, 0.0, -1e-13]))
    assert _is_diagonal(_corr2(1e-15))
    assert not _is_diagonal(_corr2(1e-14))
    assert not _is_diagonal(_corr2(-0.3))


@pytest.mark.parametrize("k", [3, 4])
def test_genz_qmc_matches_scipy(k):
    # the K >= 5 kernel, checked at K = 3/4 where scipy's CDF is cheap
    rng = np.random.default_rng(5 + k)
    corr = _random_corr(rng, k)
    a, b = _random_box(rng, k)
    got, err, _ = _genz_qmc(a[None], b[None], corr, seed=11, n_points=1 << 13)
    want = oracles.rect_prob_scipy(a, b, corr)
    assert got[0] == pytest.approx(want, abs=5e-5)
    assert abs(got[0] - want) < max(10.0 * err[0], 5e-5)


def test_rect_prob_k5_matches_scipy():
    rng = np.random.default_rng(55)
    corr = _random_corr(rng, 5)
    for _ in range(2):
        a, b = _equivalence_box(rng, 5)
        got = rect_prob(a, b, corr, tol=1e-5, seed=3)
        assert got == pytest.approx(oracles.rect_prob_scipy(a, b, corr), abs=5e-5)


def test_rect_prob_qmc_doubling_extends_the_point_sets():
    # the adaptive estimate at its final point count is the fixed-count one:
    # doubling extends each scrambled Sobol set instead of redrawing it
    rng = np.random.default_rng(56)
    corr = _random_corr(rng, 5)
    a, b = _equivalence_box(rng, 5)
    est, _, n = _genz_qmc(a[None], b[None], corr, seed=3, n_points=1 << 10, tol=1e-5)
    assert n > 1 << 10
    assert est[0] == pytest.approx(rect_prob(a, b, corr, seed=3, n_points=n), abs=1e-15)
    assert est[0] == rect_prob(a, b, corr, tol=1e-5, seed=3)


def test_rect_prob_qmc_cap_raises():
    # a general correlation: an equicorrelated one takes the one-factor rule
    corr = _random_corr(np.random.default_rng(57), 5)
    a, b = np.full(5, -2.0), np.full(5, 0.0)
    with pytest.raises(NonConvergenceError):
        rect_prob(a, b, corr, tol=1e-12)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("rho", [0.0, "random", -0.3])
def test_rect_gl_cond_matches_scipy_on_equivalence_boxes(k, rho):
    # rho 0 takes the product rule; a negative equicorrelation and a
    # general correlation reach the conditional rule.  At K = 3 the
    # reference is adaptive quadrature over the first coordinate, at K = 4
    # scipy's CDF at a tight tolerance, which is its own accuracy floor
    rng = np.random.default_rng(40 + k)
    if rho == "random":
        corr = _random_corr(rng, k)
    else:
        corr = np.full((k, k), rho)
        np.fill_diagonal(corr, 1.0)
    for a, b in [_equivalence_box(rng, k) for _ in range(4)]:
        if k == 3:
            want, tol = oracles.conditional_rect_quad(a, b, corr), 1e-9
        else:
            want, tol = oracles.rect_prob_scipy(a, b, corr, abseps=1e-11), 2e-8
        assert rect_prob(a, b, corr) == pytest.approx(want, abs=tol)


def _strong_corr(rng, k, spread):
    # unit vectors scattered by ``spread`` around one axis, each of either
    # sign: correlations of magnitude near 1, the closer the smaller spread
    v = np.eye(k)[0] * rng.choice([-1.0, 1.0], size=(k, 1))
    v = v + spread * rng.standard_normal((k, k))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    corr = v @ v.T
    np.fill_diagonal(corr, 1.0)
    return corr


@pytest.mark.parametrize("spread", [0.1, 0.03])
def test_rect_conditional_matches_quad_oracle_at_strong_correlation(spread):
    # |correlations| of 0.94 to 0.995 (spread 0.1) and of 0.997 to 0.9998
    # (spread 0.03), of mixed signs: the conditional box given the first
    # coordinate is narrow, and the rule must refine
    rng = np.random.default_rng(int(1000 * spread))
    for _ in range(4):
        corr = _strong_corr(rng, 3, spread)
        a, b = _equivalence_box(rng, 3)
        assert rect_prob(a, b, corr) == pytest.approx(
            oracles.conditional_rect_quad(a, b, corr), abs=1e-9)


def test_rect_conditional_cap_raises(monkeypatch):
    corr = _random_corr(np.random.default_rng(58), 3)
    monkeypatch.setattr(statdist, "_GK_LAST", 16)
    monkeypatch.setattr(statdist, "_RECT_TOL", 0.0)
    with pytest.raises(NonConvergenceError, match="conditional.*33 points"):
        rect_prob([-1.0, -2.0, -0.5], [1.0, 0.3, 2.0], corr)


def _face_box(rng, k):
    # an equivalence box on the face theta_1 = c0: c = c0 U(0.5, 1),
    # sigma ~ U(0.06, 0.2), the other coordinates c0 U(0.5, 1), near the
    # worst point of a positive correlation, where the box carries mass
    c0 = np.log(1.25)
    sigma = rng.uniform(0.06, 0.2, size=k)
    c = c0 * rng.uniform(0.5, 1.0, size=k)
    theta = c0 * np.concatenate([[1.0], rng.uniform(0.5, 1.0, size=k - 1)])
    return (-c - theta) / sigma, (c - theta) / sigma


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("rho", [0.95, 0.99])
def test_rect_one_factor_matches_quad_oracle(k, rho):
    # high equicorrelation, where a fixed Gauss-Legendre rule is off by up
    # to 1e-3; the one-factor rule is checked against adaptive quadrature
    corr = np.full((k, k), rho)
    np.fill_diagonal(corr, 1.0)
    rng = np.random.default_rng(int(1000 * rho) + k)
    boxes = [_face_box(rng, k) for _ in range(3)]
    a = np.array([box[0] for box in boxes])
    b = np.array([box[1] for box in boxes])
    got = rect_prob(a, b, corr)
    _, da, db = rect_grad(a, b, corr)
    assert np.all(got > 0.05)
    for i, (lo, hi) in enumerate(boxes):
        assert got[i] == pytest.approx(oracles.equicorr_rect_quad(lo, hi, rho), abs=1e-9)
        fd_a, fd_b = _central_differences(
            lambda x, y: oracles.equicorr_rect_quad(x, y, rho), lo, hi, h=2e-5)
        np.testing.assert_allclose(da[i], fd_a, atol=1e-8)
        np.testing.assert_allclose(db[i], fd_b, atol=1e-8)


def test_rect_one_factor_empty_mass_and_cap(monkeypatch):
    corr = np.full((3, 3), 0.6)
    np.fill_diagonal(corr, 1.0)
    # boxes far apart in the common factor share no z with mass
    assert rect_prob([-1.0, -1.0, 30.0], [1.0, 1.0, 31.0], corr) == 0.0
    monkeypatch.setattr(statdist, "_GK_LAST", 32)
    monkeypatch.setattr(statdist, "_RECT_TOL", 0.0)
    with pytest.raises(NonConvergenceError, match="one-factor.*65 points"):
        rect_prob([-1.0, -2.0, -0.5], [1.0, 0.3, 2.0], corr)


def test_rect_conditional_general_correlation_and_boxes():
    rng = np.random.default_rng(77)
    corr = _random_corr(rng, 4)
    for _ in range(3):
        a, b = _random_box(rng, 4)
        assert rect_prob(a, b, corr) == pytest.approx(
            oracles.rect_prob_scipy(a, b, corr), abs=1e-5)


def test_rect_conditional_empty_and_bad_dim():
    corr = np.eye(3) * 0.5 + np.full((3, 3), 0.5)
    a = np.array([0.5, -1.0, -1.0])
    b = np.array([0.2, 1.0, 1.0])  # first interval empty
    assert rect_prob(a, b, corr) == 0.0
    with pytest.raises(InputError):
        rect_prob(a, b, np.eye(2))
    with pytest.raises(InputError):
        rect_prob(a, b[:2], corr)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("rho", [-0.3, 0.5, 0.9])
def test_rect_prob_edges_at_zero(k, rho):
    # the fit's first round evaluates theta_h = c_h = c0, so an upper limit
    # is exactly 0; the value there must be continuous in that limit
    corr = np.full((k, k), rho)
    np.fill_diagonal(corr, 1.0)
    rng = np.random.default_rng(60 + k)
    for h in range(k):
        j = (h + 1) % k
        a, b = _equivalence_box(rng, k)
        a[h], b[h] = min(a[h], -0.5), 0.0
        a[j], b[j] = 0.0, max(b[j], 0.5)
        got = rect_prob(a, b, corr)
        for eps in (1e-12, -1e-12):
            nudged = b.copy()
            nudged[h] = eps
            assert got == pytest.approx(rect_prob(a, nudged, corr), abs=1e-10)
        assert got == pytest.approx(oracles.rect_prob_scipy(a, b, corr), abs=2e-5)
        if k == 2:
            assert got == pytest.approx(oracles.bvn_rect_quad(a, b, rho), abs=1e-13)
    # the origin corner: P(X < 0, Y < 0) = 1/4 + arcsin(rho) / (2 pi)
    want = 0.25 + np.arcsin(rho) / (2.0 * np.pi)
    assert rect_prob([-40.0, -40.0], [0.0, 0.0], _corr2(rho)) == pytest.approx(
        want, abs=1e-15)


@pytest.mark.parametrize("k,n_points", [(2, None), (3, None), (4, None), (5, 256)])
def test_rect_prob_many_boxes_match_single_calls(k, n_points):
    rng = np.random.default_rng(70 + k)
    corr = _random_corr(rng, k)
    boxes = [_equivalence_box(rng, k) for _ in range(7)]
    a = np.array([box[0] for box in boxes])
    b = np.array([box[1] for box in boxes])
    b[2, 0] = a[2, 0] - 0.1  # one empty box among them
    a[3, 1] = 0.0
    batch = rect_prob(a, b, corr, seed=9, n_points=n_points)
    single = [rect_prob(a[i], b[i], corr, seed=9, n_points=n_points)
              for i in range(len(boxes))]
    assert batch.shape == (len(boxes),)
    assert batch[2] == 0.0
    assert batch.tolist() == single
    # leading axes are kept
    assert rect_prob(a.reshape(7, 1, k), b.reshape(7, 1, k), corr, seed=9,
                     n_points=n_points).shape == (7, 1)


def _central_differences(f, a, b, h=1e-5):
    """Central differences of f(a, b) in each limit, as (da, db)."""
    da, db = np.empty_like(a), np.empty_like(b)
    for j in range(a.size):
        e = np.zeros_like(a)
        e[j] = h
        da[j] = (f(a + e, b) - f(a - e, b)) / (2 * h)
        db[j] = (f(a, b + e) - f(a, b - e)) / (2 * h)
    return da, db


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rect_grad_matches_finite_differences(k):
    rng = np.random.default_rng(90 + k)
    corr = _random_corr(rng, k)
    boxes = [_equivalence_box(rng, k) for _ in range(3)]
    _, da, db = rect_grad(np.array([a for a, _ in boxes]),
                          np.array([b for _, b in boxes]), corr)
    for i, (a, b) in enumerate(boxes):
        fd_a, fd_b = _central_differences(lambda lo, hi: rect_prob(lo, hi, corr), a, b)
        np.testing.assert_allclose(da[i], fd_a, atol=1e-9)
        np.testing.assert_allclose(db[i], fd_b, atol=1e-9)
        # one box alone gives the same derivatives as within the batch
        _, one_a, one_b = rect_grad(a, b, corr)
        np.testing.assert_array_equal(one_a, da[i])
        np.testing.assert_array_equal(one_b, db[i])
    assert np.all(da <= 0.0) and np.all(db >= 0.0)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("equi", [True, False])
def test_rect_grad_groups_equal_conditionals(k, equi):
    # one rect_prob call per distinct conditional correlation gives, bit for
    # bit, the per-coordinate conditional calls
    rng = np.random.default_rng(30 + k + 10 * equi)
    if equi:
        corr = np.full((k, k), 0.55)
        np.fill_diagonal(corr, 1.0)
    else:
        corr = _random_corr(rng, k)
    boxes = [_equivalence_box(rng, k) for _ in range(5)]
    a = np.array([box[0] for box in boxes])
    b = np.array([box[1] for box in boxes])
    calls = []
    real = statdist.rect_prob

    def counted(*args, **kw):
        calls.append(args[2])
        return real(*args, **kw)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(statdist, "rect_prob", counted)
        _, da, db = rect_grad(a, b, corr)
    assert len(calls) == (1 if equi else k)
    for j in range(k):
        rest = np.arange(k) != j
        r = corr[rest, j]
        sd = np.sqrt((1.0 - r) * (1.0 + r))
        cond = (corr[np.ix_(rest, rest)] - np.outer(r, r)) / np.outer(sd, sd)
        np.fill_diagonal(cond, 1.0)
        for x, got, sign in ((a[:, j], da[:, j], -1.0), (b[:, j], db[:, j], 1.0)):
            mean = np.minimum(np.maximum(x, -8.5), 8.5)[:, None] * r
            p = rect_prob((a[:, rest] - mean) / sd, (b[:, rest] - mean) / sd, cond)
            want = sign * (np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * p)
            np.testing.assert_array_equal(got, want)


def test_rect_grad_empty_box_and_shapes():
    corr = _corr2(0.4)
    _, da, db = rect_grad(np.array([[0.5, -1.0], [-1.0, -1.0]]),
                          np.array([[0.5, 1.0], [1.0, 1.0]]), corr)
    assert np.all(da[0] == 0.0) and np.all(db[0] == 0.0)
    assert np.all(db[1] > 0.0)
    with pytest.raises(InputError):
        rect_grad(np.zeros(2), np.ones(3), corr)


@pytest.mark.parametrize("rho", [-0.99, -0.4, 0.0, 0.7, 0.99])
def test_rect_grad_k2_is_the_conditional_interval(rho):
    # d/db_j P = phi(b_j) [Phi((b'' - rho b_j)/s) - Phi((a'' - rho b_j)/s)]
    # with (a'', b'') the other coordinate's limits and s = sqrt(1 - rho^2);
    # d/da_j is minus the same at a_j
    rng = np.random.default_rng(17)
    a = rng.uniform(-4.0, 1.0, (40, 2))
    b = a + rng.uniform(0.0, 5.0, (40, 2))
    b[:3, 0] = a[:3, 0]  # empty boxes
    b[3:5, 1] = a[3:5, 1] - 0.5
    _, da, db = rect_grad(a, b, _corr2(rho))
    s = np.sqrt(1.0 - rho * rho)
    phi = stats.norm.pdf
    cdf = stats.norm.cdf
    for i in range(40):
        live = np.all(b[i] > a[i])
        for j in range(2):
            lo, hi = a[i, 1 - j], b[i, 1 - j]
            want_b = phi(b[i, j]) * (cdf((hi - rho * b[i, j]) / s)
                                     - cdf((lo - rho * b[i, j]) / s))
            want_a = -phi(a[i, j]) * (cdf((hi - rho * a[i, j]) / s)
                                      - cdf((lo - rho * a[i, j]) / s))
            assert db[i, j] == pytest.approx(want_b if live else 0.0, abs=1e-15)
            assert da[i, j] == pytest.approx(want_a if live else 0.0, abs=1e-15)
    assert np.all(da[:5] == 0.0) and np.all(db[:5] == 0.0)


def _rect_grad_by_coordinate(a, b, corr):
    """(da, db) of rect_grad for boxes (m, K), written out one box, one
    coordinate and one limit at a time: the normal density at the limit
    times the conditional box of the other coordinates, each by its own
    rect_prob call (no factor at K = 1; 0 for an empty box)."""
    m, k = a.shape
    da, db = np.zeros((m, k)), np.zeros((m, k))
    for i in range(m):
        if not np.all(b[i] > a[i]):
            continue
        for j in range(k):
            rest = np.arange(k) != j
            r = corr[rest, j]
            sd = np.sqrt((1.0 - r) * (1.0 + r))
            cond = (corr[np.ix_(rest, rest)] - np.outer(r, r)) / np.outer(sd, sd)
            np.fill_diagonal(cond, 1.0)
            for x, out, sign in ((a[i, j], da, -1.0), (b[i, j], db, 1.0)):
                mean = np.minimum(np.maximum(x, -8.5), 8.5) * r
                p = rect_prob((a[i, rest] - mean) / sd, (b[i, rest] - mean) / sd,
                              cond) if k > 1 else 1.0
                out[i, j] = sign * (np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * p)
    return da, db


def _grad_cases():
    rng = np.random.default_rng(2718)
    cases = [(1, np.eye(1))]
    for rho in (-0.99, -0.4, 0.6, 0.99):
        cases.append((2, _corr2(rho)))
    for k in (3, 4, 5):
        cases.append((k, np.eye(k)))
        for rho in (-0.9 / (k - 1), 0.5, 0.99):
            corr = np.full((k, k), rho)
            np.fill_diagonal(corr, 1.0)
            cases.append((k, corr))
        cases.append((k, _random_corr(rng, k)))
    return [pytest.param(k, corr, id=f"k{k}-{i}") for i, (k, corr) in enumerate(cases)]


@pytest.mark.parametrize("k, corr", _grad_cases())
def test_rect_grad_probability_and_derivatives_bit_for_bit(k, corr):
    # rect_grad's probability is rect_prob's, and its derivatives are the
    # coordinate-by-coordinate rule, bit for bit, for every shape of input:
    # a stack of boxes, with empty ones and limits beyond the 8.5 clip, a
    # (2, m / 2, K) stack of the same boxes, and one box
    rng = np.random.default_rng(100 * k + int(1000 * corr[-1, 0]) % 97)
    m = 6 if k == 5 and not statdist._exact_rule(corr) else 8
    a = rng.uniform(-3.0, 1.0, (m, k))
    b = a + rng.uniform(0.2, 4.0, (m, k))
    b[0, -1] = a[0, -1]  # empty
    b[1, 0] = a[1, 0] - 0.3  # empty
    a[2, 0], b[3, -1] = -11.0, 9.5  # beyond the clip
    a[4], b[4] = rng.uniform(-12.0, -9.0, k), rng.uniform(8.6, 12.0, k)
    p, da, db = rect_grad(a, b, corr)
    np.testing.assert_array_equal(p, rect_prob(a, b, corr))
    want_a, want_b = _rect_grad_by_coordinate(a, b, corr)
    np.testing.assert_array_equal(da, want_a)
    np.testing.assert_array_equal(db, want_b)
    stacked = rect_grad(a.reshape(2, -1, k), b.reshape(2, -1, k), corr)
    for got, want in zip(stacked, (p, da, db)):
        np.testing.assert_array_equal(got, want.reshape(2, -1, *want.shape[1:]))
    one = rect_grad(a[2], b[2], corr)
    # (an adaptive quasi-Monte Carlo value, K = 5 here, takes its point
    # count from the boxes of its call)
    assert isinstance(one[0], float) and one[0] == rect_prob(a[2], b[2], corr)
    np.testing.assert_array_equal(one[1], da[2])
    np.testing.assert_array_equal(one[2], db[2])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [1, 2, 3])
def test_rect_grad_takes_far_and_infinite_limits(k):
    # limits of a coordinate with a vanishing standard error can be huge
    # or infinite; their densities are 0, where a square would overflow
    corr = np.full((k, k), 0.3)
    np.fill_diagonal(corr, 1.0)
    a, b = np.full(k, -0.5), np.full(k, 0.7)
    a[0], b[-1] = -1e200, np.inf
    p, da, db = rect_grad(a, b, corr)
    assert p == rect_prob(a, b, corr) and 0.0 < p <= 1.0
    assert da[0] == 0.0 and db[-1] == 0.0
    assert np.all(da[1:] < 0.0) and np.all(db[:-1] > 0.0)


def test_mvn_rect_prob_univariate_exact():
    mean, sd = 0.1, 0.5
    want = special.ndtr((1.2 - mean) / sd) - special.ndtr((-0.7 - mean) / sd)
    got = rect_prob([(-0.7 - mean) / sd], [(1.2 - mean) / sd], [[1.0]])
    assert got == pytest.approx(want, rel=1e-10)


def test_mvn_rect_prob_general_mean_and_scale():
    mean = np.array([0.2, -0.1, 0.05])
    sd = np.array([0.5, 1.5, 0.8])
    corr = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, -0.3], [0.1, -0.3, 1.0]])
    lower = np.array([-0.6, -2.0, -1.0])
    upper = np.array([0.9, 1.0, 1.4])
    a, b = (lower - mean) / sd, (upper - mean) / sd
    want = oracles.rect_prob_scipy(a, b, corr)
    assert rect_prob(a, b, corr, tol=1e-6, seed=2) == pytest.approx(want, abs=5e-5)


def test_mvn_rect_prob_empty_box_is_zero():
    assert rect_prob([0.5, 0.0], [0.2, 1.0], np.eye(2)) == 0.0
    assert rect_prob([0.5, 0.0], [0.2, 1.0], _corr2(0.3)) == 0.0


def test_mvn_rect_validation():
    # every public entry point that takes a correlation checks it with
    # statdist._check_corr and raises InputError
    def query(corr):
        return MvtPowerQuery(theta=np.zeros(2), sigma1=np.array([0.1, 0.2]),
                             correlation=corr, nu2=10, t=1.0, c=0.2)

    with pytest.raises(InputError):
        query(np.eye(3))
    with pytest.raises(InputError):
        query(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(InputError):
        query(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(InputError):
        sample_wishart_cov([0.1, 0.2], np.array([[1.0, 2.0], [2.0, 1.0]]), 5, 10, 0)


# ---------------------------------------------------------------------------
# Wishart sampling
# ---------------------------------------------------------------------------

def test_wishart_cov_moments():
    sigma1 = np.array([0.1, 0.2, 0.15])
    corr = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.1], [0.2, -0.1, 1.0]])
    draws = sample_wishart_cov(sigma1, corr, nu2=25, n=40000, seed=99)
    target = corr * np.outer(sigma1, sigma1)
    np.testing.assert_allclose(draws.mean(axis=0), target, rtol=0.03, atol=2e-4)


def test_wishart_diagonal_marginal_law():
    # each diagonal entry of the scaled draw is sigma_k^2 chi2_nu / nu
    sigma1 = np.array([0.12, 0.4])
    corr = np.eye(2)
    nu2 = 9
    draws = sample_wishart_cov(sigma1, corr, nu2, n=20000, seed=5)
    z = draws[:, 0, 0] * nu2 / sigma1[0] ** 2
    stat = stats.kstest(z, stats.chi2(df=nu2).cdf)
    assert stat.pvalue > 1e-4


def test_wishart_matches_bartlett_route():
    sigma1 = np.array([0.1, 0.25])
    corr = np.array([[1.0, 0.6], [0.6, 1.0]])
    nu2 = 7
    ours = sample_wishart_cov(sigma1, corr, nu2, n=30000, seed=21)
    ref = oracles.bartlett_wishart_cov(sigma1, corr, nu2, n=30000, seed=22)
    # compare means and the spread of the off-diagonal entry
    np.testing.assert_allclose(ours.mean(axis=0), ref.mean(axis=0), rtol=0.05,
                               atol=3e-4)
    assert np.std(ours[:, 0, 1]) == pytest.approx(np.std(ref[:, 0, 1]), rel=0.06)
    stat = stats.ks_2samp(ours[:, 0, 1], ref[:, 0, 1])
    assert stat.pvalue > 1e-4


def test_wishart_diag_shortcut_agrees_in_law():
    sigma1 = np.array([0.1, 0.3, 0.2])
    corr = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.5], [0.0, 0.5, 1.0]])
    nu2 = 11
    full = sample_wishart_cov(sigma1, corr, nu2, n=15000, seed=31)
    diag = sample_wishart_diag(sigma1, corr, nu2, n=15000, seed=32)
    assert diag.shape == (15000, 3)
    # the shortcut already returns standard errors, not variances
    for k in range(3):
        stat = stats.ks_2samp(np.sqrt(full[:, k, k]), diag[:, k])
        assert stat.pvalue > 1e-4


def test_wishart_determinism_and_generator_input():
    sigma1 = np.array([0.1, 0.2])
    corr = np.eye(2)
    a = sample_wishart_cov(sigma1, corr, 5, n=50, seed=3)
    b = sample_wishart_cov(sigma1, corr, 5, n=50, seed=3)
    np.testing.assert_array_equal(a, b)
    c = sample_wishart_cov(sigma1, corr, 5, n=50, seed=np.random.default_rng(9))
    d = sample_wishart_cov(sigma1, corr, 5, n=50, seed=np.random.default_rng(9))
    np.testing.assert_array_equal(c, d)


# ---------------------------------------------------------------------------
# the shared Gauss-Legendre rule
# ---------------------------------------------------------------------------

def test_gauss_legendre_exact_on_polynomials():
    x, w = _leggauss(16)
    a, b = -1.0, 2.0
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    # degree 29 is within the exactness range of a 16 point rule
    coeffs = np.arange(1.0, 31.0)
    exact = np.polyval(np.polyint(coeffs), b) - np.polyval(np.polyint(coeffs), a)
    assert half * np.sum(w * np.polyval(coeffs, nodes)) == pytest.approx(exact, rel=1e-12)


def test_gauss_legendre_rule_is_read_only():
    # the cached arrays are shared by every caller
    x, w = _leggauss(16)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("n", [7, 15, 32])
def test_gauss_kronrod_rule_exactness_and_embedding(n):
    x, wk, wg = _gauss_kronrod(n)
    assert x.shape == wk.shape == wg.shape == (2 * n + 1,)
    # the Kronrod rule is exact to degree 3n + 1, the Gauss rule to 2n - 1
    for deg in range(3 * n + 2):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert abs(np.sum(wk * x ** deg) - exact) <= 1e-14
        if deg < 2 * n:
            assert abs(np.sum(wg * x ** deg) - exact) <= 1e-14
    xg, wgg = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x[1::2], xg, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(wg[1::2], wgg)
    assert np.all(wg[::2] == 0.0)
    assert np.all(wk > 0) and np.all(np.diff(x) > 0)
    for arr in (x, wk, wg):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_gauss_kronrod_g7k15_matches_quadpack_constants():
    # QUADPACK qk15 (Piessens et al. 1983): outermost node and its weight,
    # and the weight of the centre
    x, wk, _ = _gauss_kronrod(7)
    assert x[-1] == pytest.approx(0.991455371120812639, abs=1e-15)
    assert wk[-1] == pytest.approx(0.022935322010529225, abs=1e-15)
    assert wk[7] == pytest.approx(0.209482141084727828, abs=1e-15)
    assert x[7] == 0.0


# ---------------------------------------------------------------------------
# seeded stream construction
# ---------------------------------------------------------------------------

def test_rng_stream_deterministic_and_distinct():
    a = rng_stream(123, "univ", 4, 2).standard_normal(8)
    b = rng_stream(123, "univ", 4, 2).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = rng_stream(123, "univ", 4, 3).standard_normal(8)
    d = rng_stream(124, "univ", 4, 2).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_stream_part_boundaries_matter():
    a = rng_stream(1, "ab", "c").standard_normal(4)
    b = rng_stream(1, "a", "bc").standard_normal(4)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------

@given(st.floats(-8.0, 8.0))
def test_norm_cdf_symmetry(x):
    # the package takes every normal CDF from ndtr, in both tails
    assert special.ndtr(x) + special.ndtr(-x) == pytest.approx(1.0, abs=1e-14)


@given(
    st.floats(-2.0, 2.0),
    st.floats(0.1, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(0.1, 2.0),
    st.floats(-0.95, 0.95),
)
@settings(max_examples=40)
def test_bvn_rect_prob_is_a_probability(a1, w1, a2, w2, rho):
    corr = _corr2(rho)
    p = rect_prob([a1, a2], [a1 + w1, a2 + w2], corr)
    assert -1e-12 <= p <= 1.0 + 1e-12
    # expanding the box can only increase the probability
    p_bigger = rect_prob([a1 - 0.5, a2 - 0.5], [a1 + w1 + 0.5, a2 + w2 + 0.5], corr)
    assert p_bigger >= p - 1e-10

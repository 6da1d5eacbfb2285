"""Distributional building blocks, checked against high-precision frozen
values and scipy routes that do not share code with the implementations."""

import csv
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from equivkit import statdist
from equivkit.statdist import (
    SigmaHatLaw,
    _genz_qmc,
    _leggauss,
    chi2_quantile,
    norm_cdf,
    norm_quantile,
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
        return float(norm_cdf(args[0]))
    if name == "norm_quantile":
        return float(norm_quantile(args[0]))
    if name == "t_quantile":
        return float(t_quantile(args[0], int(args[1])))
    if name == "chi2_quantile":
        return float(chi2_quantile(args[0], int(args[1])))
    if name == "sigma_hat_pdf":
        x, sigma1, nu2 = args
        law = SigmaHatLaw(sigma1=sigma1, nu2=int(nu2))
        return float(law.pdf(x))
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


def test_norm_quantile_is_inverse_of_cdf():
    for p in (1e-12, 1e-6, 0.025, 0.3, 0.5, 0.7, 0.975, 1 - 1e-6):
        assert norm_cdf(norm_quantile(p)) == pytest.approx(p, rel=1e-11)


def test_t_quantile_rejects_bad_input():
    with pytest.raises(InputError):
        t_quantile(0.05, 0)
    with pytest.raises(InputError):
        t_quantile(1.5, 10)


def test_t_quantile_exceeds_normal_quantile():
    # for a one-sided upper alpha point with alpha < 1/2 the Student
    # quantile always sits above the normal one, approaching it as nu grows
    z = norm_quantile(1 - 0.05)
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
    law = SigmaHatLaw(sigma1=sigma1, nu2=nu2)
    ref = oracles.chi_law(sigma1, nu2)
    xs = np.linspace(ref.ppf(1e-6), ref.ppf(1 - 1e-6), 41)
    np.testing.assert_allclose(law.pdf(xs), ref.pdf(xs), rtol=1e-10)
    np.testing.assert_allclose(law.logpdf(xs), ref.logpdf(xs), rtol=1e-10, atol=1e-12)
    for p in (0.001, 0.2, 0.5, 0.9, 0.999):
        assert law.quantile(p) == pytest.approx(ref.ppf(p), rel=1e-9)


def test_sigma_hat_quantile_roundtrip():
    law = SigmaHatLaw(sigma1=0.12, nu2=7)
    ref = oracles.chi_law(0.12, 7)
    for p in (0.01, 0.37, 0.5, 0.93):
        x = law.quantile(p)
        assert ref.cdf(x) == pytest.approx(p, abs=1e-10)


def test_sigma_hat_mode():
    law = SigmaHatLaw(sigma1=0.2, nu2=9)
    m = law.mode()
    xs = m + np.array([-1e-4, 0.0, 1e-4])
    dens = law.pdf(xs)
    assert dens[1] >= dens[0] and dens[1] >= dens[2]
    assert m == pytest.approx(0.2 * np.sqrt((9 - 1) / 9), rel=1e-12)


def test_sigma_hat_sample_ks():
    law = SigmaHatLaw(sigma1=0.15, nu2=12)
    draws = law.sample(20000, np.random.default_rng(7))
    stat = stats.kstest(draws, oracles.chi_law(0.15, 12).cdf)
    assert stat.pvalue > 1e-4


def test_sigma_hat_law_validation():
    with pytest.raises(InputError):
        SigmaHatLaw(sigma1=-0.1, nu2=5)
    with pytest.raises(InputError):
        SigmaHatLaw(sigma1=0.1, nu2=0)


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


def test_bvn_rect_independence_factorizes():
    a1, b1, a2, b2 = -0.4, 1.1, -2.0, 0.3
    want = (norm_cdf(b1) - norm_cdf(a1)) * (norm_cdf(b2) - norm_cdf(a2))
    # exactly diagonal takes the product; just above the 1e-14 threshold
    # Owen's T must give the same value
    assert rect_prob([a1, a2], [b1, b2], np.eye(2)) == pytest.approx(want, rel=1e-10)
    assert rect_prob([a1, a2], [b1, b2], _corr2(1e-13)) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("k", [3, 4])
def test_genz_qmc_matches_scipy(k):
    # the K >= 5 kernel, checked at K = 3/4 where scipy's CDF is cheap
    rng = np.random.default_rng(5 + k)
    corr = _random_corr(rng, k)
    a, b = _random_box(rng, k)
    got, err = _genz_qmc(a[None], b[None], corr, seed=11, n_points=1 << 13)
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


def test_rect_prob_qmc_cap_raises():
    corr = np.full((5, 5), 0.5)
    np.fill_diagonal(corr, 1.0)
    a, b = np.full(5, -2.0), np.full(5, 0.0)
    with pytest.raises(NonConvergenceError):
        rect_prob(a, b, corr, tol=1e-12)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, -0.3])
def test_rect_gl_cond_matches_scipy_on_equivalence_boxes(k, rho, monkeypatch):
    corr = np.full((k, k), rho)
    np.fill_diagonal(corr, 1.0)
    rng = np.random.default_rng(40 + k)
    boxes = [_equivalence_box(rng, k) for _ in range(4)]
    got = [rect_prob(a, b, corr) for a, b in boxes]
    # scipy's CDF carries its own default ~1e-5 integration error, so
    # the cross-check is loose; the refinement check below is tight
    for (a, b), g in zip(boxes, got):
        assert g == pytest.approx(oracles.rect_prob_scipy(a, b, corr), abs=2e-5)
    monkeypatch.setattr(statdist, "_GL_NODES", 48)
    for (a, b), g in zip(boxes, got):
        assert g == pytest.approx(rect_prob(a, b, corr), abs=5e-9)


def test_rect_gl_cond_general_correlation_and_boxes():
    rng = np.random.default_rng(77)
    corr = _random_corr(rng, 4)
    for _ in range(3):
        a, b = _random_box(rng, 4)
        assert rect_prob(a, b, corr) == pytest.approx(
            oracles.rect_prob_scipy(a, b, corr), abs=1e-5)


def test_rect_gl_cond_empty_and_bad_dim():
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


def test_mvn_rect_prob_univariate_exact():
    mean, sd = 0.1, 0.5
    want = norm_cdf((1.2 - mean) / sd) - norm_cdf((-0.7 - mean) / sd)
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
    assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-14)


@given(st.floats(1e-9, 1.0 - 1e-9))
def test_norm_quantile_roundtrip_property(p):
    assert norm_cdf(norm_quantile(p)) == pytest.approx(p, rel=1e-9, abs=1e-12)


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

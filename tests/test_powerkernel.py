"""Rejection-probability engine, cross-checked against adaptive quadrature
and scipy rectangle probabilities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from equivkit import statdist
from equivkit.base import InputError, NonConvergenceError
from equivkit.powerkernel import (
    MvtPowerQuery,
    UnivPowerQuery,
    _omega_batch,
    _power_mvt_mc,
    power_mvt,
    power_uni,
    size_uni,
)
from equivkit.mvt import _omega_joint
from equivkit.statdist import _unit_chi_bounds, t_quantile

import oracles

C0 = float(np.log(1.25))


def test_query_validation():
    with pytest.raises(InputError):
        UnivPowerQuery(theta=np.nan, sigma1=0.1, nu2=10, t=0.0, c=0.2)
    with pytest.raises(InputError):
        UnivPowerQuery(theta=0.0, sigma1=-0.1, nu2=10, t=0.0, c=0.2)
    with pytest.raises(InputError):
        UnivPowerQuery(theta=0.0, sigma1=0.1, nu2=0, t=0.0, c=0.2)
    with pytest.raises(InputError):
        UnivPowerQuery(theta=0.0, sigma1=0.1, nu2=10, t=-1.0, c=0.2)
    with pytest.raises(InputError):
        UnivPowerQuery(theta=0.0, sigma1=0.1, nu2=10, t=0.0, c=0.0)


def test_mvt_query_validation_and_broadcast():
    q = MvtPowerQuery(
        theta=np.array([0.0, 0.1]),
        sigma1=np.array([0.1, 0.2]),
        correlation=np.eye(2),
        nu2=10,
        t=0.0,
        c=0.2,
    )
    np.testing.assert_array_equal(q.t, [0.0, 0.0])
    np.testing.assert_array_equal(q.c, [0.2, 0.2])
    assert q.dim == 2
    with pytest.raises(InputError):
        MvtPowerQuery(
            theta=np.array([0.0, 0.1]),
            sigma1=np.array([0.1]),
            correlation=np.eye(2),
            nu2=10,
            t=0.0,
            c=0.2,
        )
    with pytest.raises(InputError):
        MvtPowerQuery(
            theta=np.zeros(2),
            sigma1=np.array([0.1, 0.2]),
            correlation=np.array([[1.0, 0.2], [0.2, 0.9]]),
            nu2=10,
            t=0.0,
            c=0.2,
        )


def test_fixed_margin_closed_form():
    q = UnivPowerQuery(theta=0.07, sigma1=0.12, nu2=30, t=0.0, c=0.19)
    want = special.ndtr((0.19 - 0.07) / 0.12) - special.ndtr((-0.19 - 0.07) / 0.12)
    assert power_uni(q) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "theta,sigma1,nu2,t,c",
    [
        (0.0, 0.05, 10, 1.812461122811676, 0.2231435513142097),
        (0.1, 0.1, 20, 1.7247182429207857, 0.2231435513142097),
        (C0, 0.08, 40, 1.6838510072485709, 0.2231435513142097),
        (0.05, 0.2, 5, 2.015048372669157, 0.35),
        (-0.1, 0.15, 80, 1.664124578531249, 0.3),
        (0.22, 0.02, 12, 1.782287555649159, 0.25),
        (0.1, 0.006, 1, 6.313751514675037, 0.2231435513142097),
        (0.03, 0.08, 2, 2.9199855803537242, 0.25),
        (0.15, 0.1, 1000, 1.6463788172854643, 0.3),
    ],
)
def test_random_margin_matches_adaptive_quadrature(theta, sigma1, nu2, t, c):
    got = power_uni(UnivPowerQuery(theta=theta, sigma1=sigma1, nu2=nu2, t=t, c=c))
    want = oracles.omega_quad(theta, sigma1, nu2, t, c)
    assert got == pytest.approx(want, abs=2e-9)


def test_power_symmetric_in_theta():
    q1 = UnivPowerQuery(theta=0.08, sigma1=0.1, nu2=15, t=1.7, c=0.25)
    q2 = UnivPowerQuery(theta=-0.08, sigma1=0.1, nu2=15, t=1.7, c=0.25)
    assert power_uni(q1) == pytest.approx(power_uni(q2), rel=1e-11)


def test_size_is_power_at_boundary():
    s = size_uni(0.1, 20, 1.7247182429207857, 0.2231435513142097)
    p = power_uni(
        UnivPowerQuery(
            theta=C0, sigma1=0.1, nu2=20, t=1.7247182429207857, c=0.2231435513142097
        )
    )
    assert s == p


def test_degenerate_sigma_indicator():
    assert power_uni(UnivPowerQuery(theta=0.1, sigma1=0.0, nu2=10, t=0.0, c=0.2)) == 1.0
    assert power_uni(UnivPowerQuery(theta=0.3, sigma1=0.0, nu2=10, t=0.0, c=0.2)) == 0.0


def test_omega_batch_broadcasts_and_matches_scalar():
    theta = np.array([0.0, 0.05, 0.1, C0])
    sigma1 = 0.1
    t = 1.7247182429207857
    c = 0.22
    batch = _omega_batch(theta, sigma1, 20, t, c)
    assert batch.shape == (4,)
    for i, th in enumerate(theta):
        one = power_uni(UnivPowerQuery(theta=float(th), sigma1=sigma1, nu2=20, t=t, c=c))
        assert batch[i] == pytest.approx(one, rel=1e-12)
    # each row is summed on its own: a row's value does not depend on the
    # rows that share the call, to the last bit
    rng = np.random.default_rng(8)
    theta = rng.uniform(-0.4, 0.4, 300)
    sigma1 = np.exp(rng.uniform(np.log(0.005), np.log(1.0), 300))
    t = rng.uniform(0.0, 4.0, 300)
    t[::10] = 0.0
    c = rng.uniform(0.05, 0.6, 300)
    batch = _omega_batch(theta, sigma1, 7, t, c)
    one = [_omega_batch(*v, 7, *w) for v, w in zip(zip(theta, sigma1), zip(t, c))]
    np.testing.assert_array_equal(batch, one)


def test_omega_batch_refines_a_row_and_raises_at_the_largest_rule(monkeypatch):
    # a sharp rejection edge at nu2 = 1: the 65-point pair disagrees, the
    # 129-point pair agrees
    row = dict(theta=0.1, sigma1=0.006, nu2=1, t=6.313751514675037,
               c=0.2231435513142097)
    assert power_uni(UnivPowerQuery(**row)) == pytest.approx(
        oracles.omega_quad(*row.values()), abs=2e-9)
    monkeypatch.setattr(statdist, "_GK_LAST", 32)
    with pytest.raises(NonConvergenceError,
                       match=r"65 points.*theta=0\.1, sigma1=0\.006, nu2=1, "
                             r"t=6\.31375.*, c=0\.22314"):
        power_uni(UnivPowerQuery(**row))


def test_omega_batch_subnormal_multiplier_does_not_overflow():
    # the upper limit c / t of s would overflow at a subnormal t, which
    # moves no normal CDF in the integrand: the value is the t = 0 one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _omega_batch(0.2, 0.1, 20, 5e-324, C0)
    assert got == pytest.approx(_omega_batch(0.2, 0.1, 20, 0.0, C0), abs=1e-9)


def test_omega_batch_mixed_fixed_and_random_margins():
    theta = np.array([0.02, 0.02])
    t = np.array([0.0, 1.5])
    c = np.array([0.2, 0.3])
    got = _omega_batch(theta, 0.09, 14, t, c)
    want0 = oracles.omega_quad(0.02, 0.09, 14, 0.0, 0.2)
    want1 = oracles.omega_quad(0.02, 0.09, 14, 1.5, 0.3)
    np.testing.assert_allclose(got, [want0, want1], atol=2e-9)


@pytest.mark.parametrize("nu2", [4, 20, 20.5])
def test_unit_chi_bounds_match_scipy_chi(nu2):
    # nu2 is used as passed: a fractional value is not truncated.  The
    # chi-square inverse loses digits deep in the lower tail, hence 1e-7
    lo, hi = _unit_chi_bounds(nu2)
    ref = oracles.chi_law(1.0, nu2)
    assert lo == pytest.approx(ref.ppf(5e-11), rel=1e-7)
    assert hi == pytest.approx(ref.isf(5e-11), rel=1e-7)


def test_tiny_margin_width_gives_zero():
    # c/t below the entire standard-error distribution: never rejects
    q = UnivPowerQuery(theta=0.0, sigma1=0.5, nu2=40, t=3.0, c=0.01)
    assert power_uni(q) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# multivariate
# ---------------------------------------------------------------------------

def test_power_mvt_k1_reduces_to_univariate():
    q1 = UnivPowerQuery(theta=0.05, sigma1=0.11, nu2=18, t=1.6, c=0.21)
    qk = MvtPowerQuery(
        theta=np.array([0.05]),
        sigma1=np.array([0.11]),
        correlation=np.eye(1),
        nu2=18,
        t=np.array([1.6]),
        c=np.array([0.21]),
    )
    assert power_mvt(qk) == pytest.approx(power_uni(q1), rel=1e-12)


def test_power_mvt_fixed_margins_rectangle():
    corr = np.array([[1.0, 0.45], [0.45, 1.0]])
    theta = np.array([0.03, -0.06])
    sigma1 = np.array([0.1, 0.14])
    c = np.array([0.2, 0.22])
    q = MvtPowerQuery(theta=theta, sigma1=sigma1, correlation=corr, nu2=25,
                      t=0.0, c=c)
    want = oracles.rect_prob_scipy((-c - theta) / sigma1, (c - theta) / sigma1, corr)
    assert power_mvt(q) == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_power_mvt_fixed_margins_is_the_fit_objective(k):
    # the joint fit evaluates _omega_joint; power_mvt at t = 0 checks that
    # fit, so it must give the same number, not another evaluator's
    corr = np.full((k, k), 0.5)
    np.fill_diagonal(corr, 1.0)
    sigma1 = np.linspace(0.08, 0.14, k)
    theta = np.zeros(k)
    theta[0] = C0
    c = np.full(k, 0.2)
    q = MvtPowerQuery(theta, sigma1, corr, 20, 0.0, c)
    assert power_mvt(q, tol=1e-5, seed=0) == _omega_joint(
        theta, sigma1, corr, c, tol=1e-5, seed=0)


def test_power_mvt_diagonal_random_margins_factorizes():
    sigma1 = np.array([0.08, 0.13, 0.1])
    theta = np.array([0.02, 0.0, -0.09])
    t = np.array([1.7, 1.7, 1.7])
    c = np.array([0.2, 0.24, 0.3])
    q = MvtPowerQuery(theta=theta, sigma1=sigma1, correlation=np.eye(3), nu2=16,
                      t=t, c=c)
    want = 1.0
    for k in range(3):
        want *= oracles.omega_quad(theta[k], sigma1[k], 16, t[k], c[k])
    assert power_mvt(q) == pytest.approx(want, abs=5e-8)


def test_power_mvt_near_unit_diagonal_takes_the_product():
    # a unit diagonal off by 1e-13 passes validation and leaves the
    # coordinates independent, so the exact product applies as it does at I
    theta = np.array([C0, 0.0])
    sigma1 = np.array([0.1, 0.14])
    t = np.full(2, 1.7)
    c = np.full(2, C0)
    exact = power_mvt(MvtPowerQuery(theta, sigma1, np.eye(2), 20, t, c))
    near = power_mvt(MvtPowerQuery(theta, sigma1, np.eye(2) + np.diag([1e-13, 0.0]),
                                   20, t, c))
    assert near == exact


def test_power_mvt_mc_route_agrees_with_product_on_diagonal():
    # force the Monte Carlo path on a case whose exact value the product
    # route gives, so the two disagree only by sampling noise
    sigma1 = np.array([0.1, 0.1])
    theta = np.array([C0, 0.0])
    t = np.full(2, 1.7247182429207857)
    c = np.full(2, 0.25)
    q = MvtPowerQuery(theta=theta, sigma1=sigma1, correlation=np.eye(2), nu2=20,
                      t=t, c=c)
    exact = power_mvt(q)
    mc = _power_mvt_mc(sigma1, np.eye(2), 20, t, c, seed=17,
                       n_wishart=200_000).value(theta)
    assert mc == pytest.approx(exact, abs=4e-3)


def test_power_mvt_correlated_random_margins_deterministic():
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    q = MvtPowerQuery(
        theta=np.array([0.05, 0.02]),
        sigma1=np.array([0.1, 0.12]),
        correlation=corr,
        nu2=12,
        t=np.array([1.5, 1.5]),
        c=np.array([0.22, 0.25]),
    )
    a = power_mvt(q, tol=1e-5, seed=4)
    b = power_mvt(q, tol=1e-5, seed=4)
    assert a == b
    c2 = power_mvt(q, tol=1e-5, seed=5)
    assert abs(a - c2) < 5e-3


@pytest.mark.parametrize("k", [2, 3])
def test_power_mvt_mc_objective_value_and_gradient(k):
    # the sampled objective is power_mvt's value bit for bit, and its
    # gradient is that of the same average over the same draws
    rng = np.random.default_rng(60 + k)
    corr = np.full((k, k), 0.5)
    np.fill_diagonal(corr, 1.0)
    sigma1 = rng.uniform(0.08, 0.15, size=k)
    t, c = np.full(k, 1.7), np.full(k, C0)
    obj = _power_mvt_mc(sigma1, corr, 20, t, c, seed=9, n_wishart=300)
    for _ in range(2):
        theta = rng.uniform(-C0, C0, size=k)
        q = MvtPowerQuery(theta, sigma1, corr, 20, t, c)
        assert obj.value(theta) == power_mvt(q, seed=9, n_wishart=300)
        fd = np.empty(k)
        for j in range(k):
            e = np.zeros(k)
            e[j] = 1e-6
            fd[j] = (obj.value(theta + e) - obj.value(theta - e)) / 2e-6
        np.testing.assert_allclose(obj.grad(theta), fd, atol=1e-9)


def test_power_mvt_correlated_vs_brute_force_mc():
    corr = np.array([[1.0, 0.6], [0.6, 1.0]])
    sigma1 = np.array([0.1, 0.15])
    theta = np.array([0.04, -0.02])
    t = np.full(2, 1.7)
    c = np.array([0.24, 0.3])
    nu2 = 9
    q = MvtPowerQuery(theta=theta, sigma1=sigma1, correlation=corr, nu2=nu2,
                      t=t, c=c)
    got = power_mvt(q, tol=1e-5, seed=0, n_wishart=40_000)

    # plain simulation with scipy-only machinery
    rng = np.random.default_rng(314)
    n = 400_000
    cov = corr * np.outer(sigma1, sigma1)
    est = rng.multivariate_normal(theta, cov, size=n)
    ses = np.sqrt(
        np.diagonal(oracles.bartlett_wishart_cov(sigma1, corr, nu2, 40_000, 6),
                    axis1=1, axis2=2)
    )
    ses = ses[rng.integers(0, ses.shape[0], size=n)]
    half = c[None, :] - t[None, :] * ses
    rej = np.all(np.abs(est) < half, axis=1)
    want = rej.mean()
    se = np.sqrt(want * (1 - want) / n)
    assert got == pytest.approx(want, abs=max(6 * se, 4e-3))


def test_degenerate_dimension_factors_out():
    q = MvtPowerQuery(
        theta=np.array([0.05, 0.1]),
        sigma1=np.array([0.1, 0.0]),
        correlation=np.eye(2),
        nu2=10,
        t=0.0,
        c=np.array([0.2, 0.2]),
    )
    q_live = UnivPowerQuery(theta=0.05, sigma1=0.1, nu2=10, t=0.0, c=0.2)
    assert power_mvt(q) == pytest.approx(power_uni(q_live), rel=1e-10)
    q_dead = MvtPowerQuery(
        theta=np.array([0.05, 0.3]),
        sigma1=np.array([0.1, 0.0]),
        correlation=np.eye(2),
        nu2=10,
        t=0.0,
        c=np.array([0.2, 0.2]),
    )
    assert power_mvt(q_dead) == 0.0


# ---------------------------------------------------------------------------
# qualitative behavior
# ---------------------------------------------------------------------------

def test_conservativeness_of_t_quantile_margins():
    # the classical interval-inclusion test never exceeds the nominal level,
    # and its size collapses as the noise grows
    prev = 0.05 + 1e-12
    for sigma1 in (0.01, 0.05, 0.1, 0.15, 0.2):
        t = t_quantile(0.05, 20)
        s = size_uni(sigma1, 20, t, C0)
        assert s <= prev
        prev = s
    assert s < 1e-3


@given(
    st.floats(0.0, 0.25),
    st.floats(0.02, 0.3),
    st.integers(3, 60),
    st.floats(0.0, 2.5),
)
@settings(max_examples=30)
def test_power_monotone_in_margin(theta, sigma1, nu2, t):
    lo = power_uni(UnivPowerQuery(theta=theta, sigma1=sigma1, nu2=nu2, t=t, c=0.15))
    hi = power_uni(UnivPowerQuery(theta=theta, sigma1=sigma1, nu2=nu2, t=t, c=0.3))
    assert hi >= lo - 1e-10
    assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0

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
    _box_limits,
    _omega_batch,
    _power_mvt_mc,
    power_mvt,
    power_uni,
    size_uni,
)
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


@pytest.mark.parametrize("field", ["theta", "sigma1", "t", "c"])
@pytest.mark.parametrize("k", [1, 2])
def test_mvt_query_rejects_nan_as_the_univariate_query_does(field, k):
    # power_mvt takes K = 1 and independent coordinates straight to the
    # product, so the query is the only check on its inputs
    kw = {"theta": np.zeros(k), "sigma1": np.full(k, 0.1), "t": np.zeros(k),
          "c": np.full(k, 0.2)}
    kw[field][0] = np.nan
    with pytest.raises(InputError):
        MvtPowerQuery(correlation=np.eye(k), nu2=10, **kw)
    with pytest.raises(InputError):
        UnivPowerQuery(nu2=10, **{name: float(v[0]) for name, v in kw.items()})


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
    batch = _omega_batch(*_box_limits(theta, sigma1, c), 20, t)
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
    batch = _omega_batch(*_box_limits(theta, sigma1, c), 7, t)
    one = [_omega_batch(*_box_limits(th, sg, cc), 7, tt)
           for th, sg, tt, cc in zip(theta, sigma1, t, c)]
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
                       match=r"65 points.*lo=-53\.85725.*, hi=20\.52392.*, nu2=1, "
                             r"t=6\.31375"):
        power_uni(UnivPowerQuery(**row))


def test_omega_batch_subnormal_multiplier_does_not_overflow():
    # the cut (hi - lo) / (2 t) of x would overflow at a subnormal t, which
    # moves no normal CDF in the integrand: the value is the t = 0 one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _omega_batch(*_box_limits(0.2, 0.1, C0), 20, 5e-324)
    assert got == pytest.approx(_omega_batch(*_box_limits(0.2, 0.1, C0), 20, 0.0),
                                abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma1", [0.0, 1e-300, 1e-12, 1.1e-12, 1e-6])
def test_omega_batch_is_continuous_as_sigma_vanishes(sigma1):
    # the size at theta = c is a box with the edge 0 at every sigma1 (0/0
    # read as 0 at sigma1 = 0): 0.5 at t = 0, and at t > 0 the chance that
    # a t variate falls below -t, less the dropped chi tail
    lo, hi = _box_limits(C0, sigma1, C0)
    assert hi == 0.0
    assert _omega_batch(lo, hi, 20, 0.0) == 0.5
    assert _omega_batch(lo, hi, 20, 1.7) == pytest.approx(special.stdtr(20, -1.7), abs=1e-9)


def test_omega_batch_mixed_fixed_and_random_margins():
    theta = np.array([0.02, 0.02])
    t = np.array([0.0, 1.5])
    c = np.array([0.2, 0.3])
    got = _omega_batch(*_box_limits(theta, 0.09, c), 14, t)
    want0 = oracles.omega_quad(0.02, 0.09, 14, 0.0, 0.2)
    want1 = oracles.omega_quad(0.02, 0.09, 14, 1.5, 0.3)
    np.testing.assert_allclose(got, [want0, want1], atol=2e-9)


@pytest.mark.parametrize("t", [0.0, 1e-300, 0.5, 1.7, 8.0])
@pytest.mark.parametrize("nu2", [1, 4, 20, 4293])
def test_omega_batch_slope_matches_differences_and_quadrature(nu2, t):
    # the slope as both limits widen, from the same rule as the value: it
    # agrees with central differences of the value and with adaptive
    # quadrature of its own integrand, and is 0 with the value for the
    # empty boxes (the last two)
    lo = np.array([-5.0, -0.3, -20.0, -2.0, -np.inf, -60.0, 1.0, 3.0])
    hi = np.array([1.2, 0.4, 0.5, 3.0, np.inf, -3.0, 0.5, -3.0])
    value, slope = _omega_batch(lo, hi, nu2, t, slope=True)
    assert np.array_equal(value, _omega_batch(lo, hi, nu2, t))
    h = 1e-5
    diff = (_omega_batch(lo - h, hi + h, nu2, t) - _omega_batch(lo + h, hi - h, nu2, t)) / (2 * h)
    np.testing.assert_allclose(slope, diff, rtol=0, atol=1e-6)
    want = [oracles.omega_slope_quad(a, b, nu2, t) for a, b in zip(lo, hi)]
    np.testing.assert_allclose(slope, want, rtol=0, atol=2e-9)
    assert value[-2:].tolist() == slope[-2:].tolist() == [0.0, 0.0]
    one = _omega_batch(-0.3, 0.4, nu2, t, slope=True)
    assert one == (value[1], slope[1])


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
    assert power_mvt(qk) == power_uni(q1)


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
    # the joint fit evaluates rect_prob on this box, as oracles.omega_joint does;
    # power_mvt at t = 0 checks that fit, so it must give the same number,
    # not another evaluator's
    corr = np.full((k, k), 0.5)
    np.fill_diagonal(corr, 1.0)
    sigma1 = np.linspace(0.08, 0.14, k)
    theta = np.zeros(k)
    theta[0] = C0
    c = np.full(k, 0.2)
    q = MvtPowerQuery(theta, sigma1, corr, 20, 0.0, c)
    assert power_mvt(q, tol=1e-5, seed=0) == oracles.omega_joint(
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
        val, grad = obj.value_grad(theta[None])
        assert val[0] == obj.value(theta)
        np.testing.assert_allclose(grad[0], fd, atol=1e-9)


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
    # under a correlation too: a coordinate with sigma1 = 0 has no
    # covariance with the others, and at theta = c its factor is 0.5
    corr = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
    q_edge = MvtPowerQuery(np.array([0.05, 0.2, 0.02]), np.array([0.1, 0.0, 0.12]),
                           corr, 10, 0.0, np.full(3, 0.2))
    q_rest = MvtPowerQuery(np.array([0.05, 0.02]), np.array([0.1, 0.12]),
                           corr[np.ix_([0, 2], [0, 2])], 10, 0.0, np.full(2, 0.2))
    assert power_mvt(q_edge) == 0.5 * power_mvt(q_rest)


# power_mvt with an identity correlation, frozen from the evaluator that took
# K = 1 as a univariate query, t = 0 as one rectangle and factored degenerate
# coordinates out first: (theta, sigma1, t, c, value), at nu2 = 20.  A
# coordinate with sigma1 <= 1e-12 gives its factor's limit as sigma1 -> 0:
# 0.5 at theta = c when t = 0, and inside its box at t > 0 one less the
# mass the kernel drops from the chi law
FROZEN_PRODUCTS = [
    ([0.02], [0.168], 0.0, [0.187], 0.7309522952856531),
    ([-0.073], [0.1], 1.7, [0.209], 0.24915702520022048),
    ([-0.051, 0.117], [0.17, 0.0], 0.0, [0.264, 0.241], 0.8629410472698584),
    ([0.148, 0.191], [0.07, 0.0], 1.7, [0.256, 0.174], 0.0),
    ([0.178, -0.045, -0.154], [0.182, 0.074, 1e-13], 0.0, [0.178, 0.263, 0.161],
     0.47399822302140243),
    ([0.181, -0.186, 0.125], [0.109, 0.05, 1e-13], 1.7, [0.181, 0.272, 0.19],
     0.010462689680106555),
    ([-0.117, 0.052, -0.167, -0.014], [0.17, 0.116, 0.151, 1e-12], 0.0,
     [0.174, 0.265, 0.166, 0.217], 0.27397703010963115),
    ([-0.01, 0.168, -0.004, -0.097], [0.061, 0.121, 0.183, 1e-12], 1.7,
     [0.171, 0.273, 0.173, 0.247], 8.675217712131129e-06),
    ([0.05, 0.2], [0.1, 1e-12], 0.0, [0.2, 0.2], 0.4634915667026829),
    ([0.05, 0.2], [0.1, 1e-12], 1.7, [0.2, 0.2], 0.011998491783648273),
    ([0.2, 0.05], [0.1, 0.0], 1.7, [0.2, 0.2], 0.04165143520937285),
]


@pytest.mark.parametrize("theta, sigma1, t, c, want", FROZEN_PRODUCTS)
def test_power_mvt_independent_matches_frozen_values(theta, sigma1, t, c, want):
    k = len(theta)
    assert power_mvt(MvtPowerQuery(theta, sigma1, np.eye(k), 20, t, c)) == want


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

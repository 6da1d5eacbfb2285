"""Margin and level adjustments for one-dimensional equivalence tests.

Each solver is checked two ways: frozen reference values pin down exact
regressions, and scipy-based reimplementations (bracketing root finder on
adaptive quadrature) confirm the solved equations independently.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from equivkit.base import (
    DecisionReport,
    EquivalenceSpec,
    ExtrapolationError,
    InputError,
    NonConvergenceError,
)
from equivkit import cli, univariate
from equivkit.univariate import (
    CalibrationTable,
    UnivSummary,
    _alpha_star,
    _match_margin,
    _size,
    alpha_tost_adjust,
    build_calibration_table,
    ctost_adjust,
    ctost_star_calibrate,
    decide,
    default_calibration_table,
    delta_tost_adjust,
    margin_for_multiplier,
)
from equivkit.powerkernel import _box_limits, _omega_batch
from equivkit.statdist import t_quantile

import oracles

C0 = float(np.log(1.25))


# ---------------------------------------------------------------------------
# margin matching at multiplier zero
# ---------------------------------------------------------------------------

def test_matched_margin_frozen_value():
    adj = ctost_adjust(0.05, 20)
    assert adj.method == "ctost"
    assert adj.t_used == 0.0
    assert adj.c_used == pytest.approx(0.14090086996663614, abs=1e-12)
    assert adj.converged
    assert abs(adj.residual) < 1e-10


@pytest.mark.parametrize("sigma1", [0.01, 0.03, 0.05, 0.1, 0.15, 0.2, 0.4, 1.0])
def test_matched_margin_agrees_with_scipy_root(sigma1):
    adj = ctost_adjust(sigma1, 20)
    want = oracles.brute_margin(sigma1)
    assert adj.c_used == pytest.approx(want, abs=5e-12)
    # the margin satisfies its defining equation
    assert _size((adj.c_used - C0) / sigma1, sigma1, C0) == pytest.approx(0.05, abs=1e-10)


def test_matched_margin_vector_levels():
    sigma = np.full(5, 0.08)
    levels = np.array([0.01, 0.02, 0.05, 0.1, 0.2])
    u, iters, conv, _ = _match_margin(sigma, levels, C0)
    assert np.all(conv)
    np.testing.assert_allclose(_size(u, sigma, C0), levels, atol=1e-10)
    assert np.all(np.diff(u) > 0)  # higher level, wider margin


@pytest.mark.parametrize("sigma", [1e-300, 1e3])
def test_matched_margin_upper_end_holds_the_root(sigma):
    # the offset bracket's upper end, 10 above the larger of the Newton
    # start -z_{1-level} and 0, needs no doubling: even at the largest level
    # below 1 the size there reaches it, at extreme standard errors too
    level = np.nextafter(1.0, 0.0)
    start = -special.ndtri(1.0 - level)
    hi = max(start, 0.0) + 10.0
    assert -C0 / sigma < start < hi
    assert _size(hi, sigma, C0) >= level
    # the Newton slope's squares cannot overflow, even at sigma 1e-300
    with np.errstate(over="raise"):
        u, _, conv, _ = _match_margin(sigma, level, C0)
    assert conv and -C0 / sigma < float(u) < hi


def test_matched_margin_independent_of_nu():
    # the fixed-margin equation involves only sigma, not the degrees of
    # freedom; the API reflects that by not taking nu at all
    c1, _, _, _ = _match_margin(0.07, 0.05, C0)
    c2, _, _, _ = _match_margin(np.array([0.07]), 0.05, C0)
    assert float(c1) == pytest.approx(float(c2[0]), abs=1e-14)


def test_ctost_adjust_validation():
    with pytest.raises(InputError):
        ctost_adjust(0.0, 20)
    with pytest.raises(InputError):
        ctost_adjust(-0.1, 20)


def test_margin_for_multiplier_reduces_to_matched_margin():
    c = margin_for_multiplier(0.1, 20, 0.0)
    b = ctost_adjust(0.1, 20)
    assert c == pytest.approx(b.c_used, abs=1e-6)


def test_margin_for_multiplier_positive_t():
    t0 = float(t_quantile(0.05, 20))
    c = margin_for_multiplier(0.1, 20, t0)

    def f(cc):
        return oracles.size_quad(0.1, 20, t0, cc) - 0.05

    want = optimize.brentq(f, 0.05, 1.0, xtol=1e-13)
    assert c == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# level adjustment (alpha-TOST)
# ---------------------------------------------------------------------------

def test_alpha_star_frozen_value():
    adj = alpha_tost_adjust(0.1, 20)
    assert adj.method == "alpha-tost"
    assert adj.alpha_adj == pytest.approx(0.05333326160907745, abs=1e-10)
    assert adj.t_used == pytest.approx(1.6894315121484802, abs=1e-8)
    assert not adj.saturated


def test_alpha_star_agrees_with_scipy_root():
    def f(alpha):
        t = stats.t.ppf(1 - alpha, 20)
        return oracles.omega_quad(C0, 0.1, 20, t, C0) - 0.05

    want = optimize.brentq(f, 0.05, 0.4999, xtol=1e-13)
    adj = alpha_tost_adjust(0.1, 20)
    assert adj.alpha_adj == pytest.approx(want, abs=5e-8)


def test_alpha_star_saturates_for_large_noise():
    # when even t = 0 cannot reach the target size, the level pegs at 1/2
    adj = alpha_tost_adjust(4.0, 4)
    assert adj.saturated
    assert adj.t_used == 0.0
    assert adj.alpha_adj == pytest.approx(0.5)


# sigma 4.0 saturates alpha-TOST at nu2 = 20
SOLVER_SIGMAS = np.array([0.02, 0.05, 0.1, 0.2, 4.0])


def test_vector_solvers_match_scalar_wrappers():
    # one vector call and per-element scalar calls run the same iteration,
    # so they test the same points and stop at the same one
    t0 = float(t_quantile(0.05, 20))
    alpha, t, _, _, a_conv = _alpha_star(SOLVER_SIGMAS, 20, C0, 0.05)
    u, _, d_conv, _ = _match_margin(SOLVER_SIGMAS, 0.05, C0, 1e-8, 20, t0)
    c = C0 + SOLVER_SIGMAS * u
    assert a_conv.all() and d_conv.all()
    for i, s in enumerate(SOLVER_SIGMAS):
        one = alpha_tost_adjust(float(s), 20)
        assert alpha[i] == one.alpha_adj
        assert t[i] == one.t_used
        assert (alpha[i] == 0.5) == one.saturated
        assert c[i] == delta_tost_adjust(float(s), 20).c_used
        assert c[i] == margin_for_multiplier(float(s), 20, t0)
    assert alpha_tost_adjust(4.0, 20).saturated


@pytest.mark.parametrize("method", ["alpha-tost", "delta-tost", "ctost", "ctost-star"])
def test_batch_rule_matches_scalar_calls_bit_for_bit(method):
    # one path for one or many standard errors: each row of a batch runs
    # the rounds of its own scalar solve, and both report that solve's
    # residual, an array over the batch
    sigmas = np.array([0.03, 0.1, 0.25])
    batch = univariate._rule(method, sigmas, 20)
    assert isinstance(batch.residual, np.ndarray) and batch.residual.shape == (3,)
    for i, s in enumerate(sigmas.tolist()):
        one = univariate._rule(method, s, 20)
        got = (np.broadcast_to(v, sigmas.shape)[i]
               for v in (batch.t_used, batch.c_used, batch.residual))
        assert tuple(got) == (one.t_used, one.c_used, one.residual)


def test_solvers_flag_iteration_cap(monkeypatch):
    monkeypatch.setattr(univariate, "_ROOT_MAX_ITER", 3)
    t0 = float(t_quantile(0.05, 20))
    free = SOLVER_SIGMAS < 4.0  # the saturated row needs no bisection
    *_, a_conv = _alpha_star(SOLVER_SIGMAS, 20, C0, 0.05)
    _, _, d_conv, _ = _match_margin(SOLVER_SIGMAS, 0.05, C0, 1e-8, 20, t0)
    _, m_iters, m_conv, _ = _match_margin(SOLVER_SIGMAS, 0.05, C0)
    assert not a_conv[free].any()
    assert not d_conv.any()
    assert m_iters == 3 and not m_conv.all()  # Newton settles some rows by then
    with pytest.raises(NonConvergenceError):
        alpha_tost_adjust(0.1, 20)
    with pytest.raises(NonConvergenceError):
        margin_for_multiplier(0.1, 20, t0)
    with pytest.raises(NonConvergenceError):
        ctost_adjust(0.1, 20)


def test_solvers_stop_when_the_bracket_collapses():
    # no double meets an unreachable tolerance, so each solve narrows its
    # bracket to adjacent doubles and stops there, well before the cap
    t0 = float(t_quantile(0.05, 20))
    u, iters, conv, _ = _match_margin(0.11, 0.05, C0, 1e-300, 20, t0)
    assert not conv and iters < univariate._ROOT_MAX_ITER
    assert C0 + 0.11 * u == pytest.approx(margin_for_multiplier(0.11, 20, t0), abs=1e-8)
    *_, iters, conv = _alpha_star(0.1, 20, C0, 0.05, tol=1e-300)
    assert not conv[0] and iters < univariate._ROOT_MAX_ITER
    _, iters, conv, _ = _match_margin(0.1, 0.05, C0, tol=1e-300)
    assert not conv and iters < univariate._ROOT_MAX_ITER
    with pytest.raises(NonConvergenceError, match="delta-TOST margin"):
        margin_for_multiplier(0.11, 20, t0, tol=1e-300)


@pytest.mark.parametrize("sigma", [1e-13, 1e-12])
def test_solvers_return_the_degenerate_limit(sigma):
    # the solves reach their sigma -> 0 limits with no special case, as
    # sizes are taken in standardized offsets: alpha* is its sigma = 1e-11
    # value, the delta margin at t_{alpha0,nu2} is c0, whose size is then
    # alpha0 less the dropped chi tail, and the other rows of a call are
    # left alone
    t0 = float(t_quantile(0.05, 20))
    near = alpha_tost_adjust(1e-11, 20)
    adj = delta_tost_adjust(sigma, 20)
    assert adj.converged and adj.c_used == C0 and abs(adj.residual) <= 1e-8
    assert abs(margin_for_multiplier(sigma, 20, 3.0) - C0) <= 40.0 * sigma
    adj = alpha_tost_adjust(sigma, 20)
    assert adj.converged and not adj.saturated
    assert (adj.alpha_adj, adj.t_used) == (near.alpha_adj, near.t_used)

    sigmas = np.array([0.1, sigma, 0.05])
    alpha, t, a_res, _, a_conv = _alpha_star(sigmas, 20, C0, 0.05)
    u, _, d_conv, _ = _match_margin(sigmas, 0.05, C0, 1e-8, 20, t0)
    c, d_res = C0 + sigmas * u, _size(u, sigmas, C0, 20, t0) - 0.05
    assert a_conv.all() and d_conv.all()
    assert (alpha[1], t[1]) == (near.alpha_adj, near.t_used)
    assert c[1] == C0 and max(abs(a_res[1]), abs(d_res[1])) <= 1e-8
    for i in (0, 2):
        assert alpha[i] == alpha_tost_adjust(float(sigmas[i]), 20).alpha_adj
        assert c[i] == delta_tost_adjust(float(sigmas[i]), 20).c_used


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solvers_converge_at_every_vanishing_sigma():
    # every margin and level solve converges down to sigma = 1e-300, with
    # the margins within 10 sigma of their limit c0 and alpha* at its
    # limit alpha0
    for sigma in np.logspace(-300, -6, 61).tolist():
        adj = ctost_adjust(sigma, 20)
        assert abs(adj.c_used - C0) <= 10.0 * sigma and abs(adj.residual) <= 1e-10
        adj = delta_tost_adjust(sigma, 20)
        assert abs(adj.c_used - C0) <= 10.0 * sigma and abs(adj.residual) <= 1e-8
        adj = alpha_tost_adjust(sigma, 20)
        assert abs(adj.alpha_adj - 0.05) <= 1e-8 and abs(adj.residual) <= 1e-8
        adj = ctost_star_calibrate(sigma, 20)
        assert abs(adj.c_used - C0) <= 10.0 * sigma and abs(adj.residual) <= 1e-10


# ---------------------------------------------------------------------------
# solves that stop once a verdict is fixed (the sweep's rows)
# ---------------------------------------------------------------------------

def _cubic_root(settled=None, newton=True):
    # x^3 = target per row on the bracket [-1, 3]: Newton steps or bisection
    target = np.linspace(-0.9, 20.0, 9)
    return univariate._increasing_root(
        lambda x, rows: x ** 3 - target[rows], np.full(9, -1.0), np.full(9, 3.0), 1e-12,
        slope=(lambda x, rows: 3.0 * x * x) if newton else None, settled=settled)


def _settle_even_rows(ends):
    # settles the even rows at their second round, recording their brackets
    rounds = []

    def settled(lo, hi, rows):
        rounds.append(1)
        done = (rows % 2 == 0) & (len(rounds) == 2)
        ends.update((int(i), (a, b)) for i, a, b in zip(rows[done], lo[done], hi[done]))
        return done
    return settled


@pytest.mark.parametrize("newton", [True, False])
def test_rows_that_never_settle_solve_as_without_the_predicate(newton):
    plain = _cubic_root(newton=newton)
    x, r, iters, conv = _cubic_root(lambda lo, hi, rows: np.zeros(rows.size, bool), newton)
    assert x.tobytes() == plain[0].tobytes() and r.tobytes() == plain[1].tobytes()
    assert (iters, conv.tolist()) == (plain[2], plain[3].tolist())
    # settling the even rows leaves the odd rows' solves bit for bit
    x, r, _, conv = _cubic_root(_settle_even_rows({}), newton)
    assert x[1::2].tobytes() == plain[0][1::2].tobytes()
    assert r[1::2].tobytes() == plain[1][1::2].tobytes()
    assert conv.all() and plain[3].all()


@pytest.mark.parametrize("newton", [True, False])
def test_a_settled_row_stops_at_a_bracket_end(newton):
    plain_x = _cubic_root(newton=newton)[0]
    ends = {}
    x, _, _, conv = _cubic_root(_settle_even_rows(ends), newton)
    assert sorted(ends) == [0, 2, 4, 6, 8] and conv.all()
    for i, (lo, hi) in ends.items():
        assert x[i] in (lo, hi) and x[i] != plain_x[i]
        assert lo < plain_x[i] < hi


def test_t_quantile_does_not_increase_along_bisection_levels():
    # alpha* tests only the midpoints (lo + hi) / 2 of its bisection from
    # (alpha0, 0.5), and a sweep row settles on its verdict at the bracket
    # ends; that verdict is the root's only if t_quantile does not
    # increase along the levels: all of them to depth 12, and 1,024 random
    # bisection paths to depth 30, each midpoint against its bracket ends
    rng = np.random.default_rng(5)
    for alpha0 in (0.05, 0.1):
        levels = np.array([alpha0, 0.5])
        for _ in range(12):
            levels = np.insert(levels, range(1, levels.size),
                               (levels[:-1] + levels[1:]) * 0.5)
        for nu2 in (1, 2, 5, 20, 80):
            assert (np.diff(t_quantile(levels, nu2)) <= 0).all(), (alpha0, nu2)
            lo, hi = np.full(1024, alpha0), np.full(1024, 0.5)
            t_lo, t_hi = t_quantile(lo, nu2), t_quantile(hi, nu2)
            for depth in range(30):
                mid = (lo + hi) * 0.5
                t_mid = t_quantile(mid, nu2)
                assert ((t_lo >= t_mid) & (t_mid >= t_hi)).all(), (alpha0, nu2, depth)
                right = rng.random(1024) < 0.5
                lo, t_lo = np.where(right, mid, lo), np.where(right, t_mid, t_lo)
                hi, t_hi = np.where(right, hi, mid), np.where(right, t_hi, t_mid)
            assert (lo < hi).all()


@given(method=st.sampled_from(["tost", "alpha-tost", "delta-tost", "ctost", "ctost-star"]),
       strategy=st.sampled_from(univariate.STRATEGIES),
       sigma=st.floats(0.005, 0.4), nu2=st.integers(2, 80),
       theta=st.one_of(st.sampled_from([0.0, C0]), st.floats(-0.4, 0.4)),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_rule_verdicts_with_estimates_equal_the_full_solves(method, strategy, sigma, nu2,
                                                            theta, seed):
    # a cell of 200 draws: the solves that stop once a verdict is fixed give
    # every replicate the verdict of its full solve; table-lookup falls
    # back to quadrature off the bundled table's grid
    rng = np.random.default_rng(seed)
    th = theta + sigma * rng.standard_normal(200)
    sh = sigma * np.sqrt(rng.chisquare(nu2, 200) / nu2)
    kw = dict(strategy=strategy, fallback=True)
    full = univariate._rule(method, sh, nu2, **kw)
    fast = univariate._rule(method, sh, nu2, theta_hat=th, **kw)
    ath = np.abs(th)
    np.testing.assert_array_equal(ath < fast.c_used - fast.t_used * sh,
                                  ath < full.c_used - full.t_used * sh)


# ---------------------------------------------------------------------------
# margin widening at the classical quantile (delta-TOST)
# ---------------------------------------------------------------------------

def test_delta_star_frozen_value():
    adj = delta_tost_adjust(0.1, 20)
    assert adj.method == "delta-tost"
    assert adj.t_used == pytest.approx(t_quantile(0.05, 20), abs=1e-12)
    assert adj.c_used == pytest.approx(0.22643625291570546, abs=1e-8)


def test_delta_star_reports_bisection_iterations():
    t0 = float(t_quantile(0.05, 20))
    _, iters, _, _ = _match_margin(0.1, 0.05, C0, 1e-8, 20, t0)
    adj = delta_tost_adjust(0.1, 20)
    assert adj.iterations > 0
    assert adj.iterations == iters
    rep = decide(UnivSummary(0.0, 0.1, 20), EquivalenceSpec(method="delta-tost"))
    assert rep.meta["iterations"] == iters


@pytest.mark.parametrize("sigma, nu2", [(0.1, 20), (0.02, 20), (0.05, 4), (0.2, 80),
                                         (0.3, 5), (0.15, 1)])
def test_delta_star_agrees_with_scipy_root(sigma, nu2):
    t0 = float(t_quantile(0.05, nu2))

    def g(c):
        return oracles.omega_quad(C0, sigma, nu2, t0, c) - 0.05

    want = optimize.brentq(g, C0 * 0.5, 1.0, xtol=1e-13)
    adj = delta_tost_adjust(sigma, nu2)
    assert adj.c_used == pytest.approx(want, abs=5e-8)
    assert abs(g(adj.c_used)) <= 1e-8
    assert adj.c_used > C0  # widening, not shrinking


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nu2", [1, 2, 4, 20, 80, 4293])
def test_delta_margin_newton_takes_few_rounds(nu2):
    # Newton's method on the kernel's slope settles every delta-TOST margin
    # from sigma 1e-300 to 1e3 within 12 rounds
    t0 = float(t_quantile(0.05, nu2))
    sigmas = np.logspace(-300, 3, 200)
    u, iters, conv, _ = _match_margin(sigmas, 0.05, C0, 1e-8, nu2, t0)
    assert conv.all() and iters <= 12
    assert np.abs(_size(u, sigmas, C0, nu2, t0) - 0.05).max() <= 1e-8


@pytest.mark.parametrize("nu2", [1, 4293])
@pytest.mark.parametrize("sigma", [1e-11, 1e3])
def test_delta_margin_upper_end_holds_the_root(sigma, nu2):
    # the bracket's upper end, at least c0 + 10 sigma (1 + t), needs no
    # doubling: the size there already reaches alpha0, at extreme standard
    # errors and for the heaviest and a light chi law of s
    t0 = float(t_quantile(0.05, nu2))
    hi = C0 + 10.0 * sigma * (1.0 + t0)
    assert _omega_batch(*_box_limits(C0, sigma, hi), nu2, t0) - 0.05 >= 0.0
    u, _, conv, _ = _match_margin(sigma, 0.05, C0, 1e-8, nu2, t0)
    assert conv and 0.0 < C0 + sigma * u < hi


@pytest.mark.parametrize("call", [
    lambda: margin_for_multiplier(0.1, 0, 1.7),
    lambda: margin_for_multiplier(0.1, 20, float("nan")),
    lambda: margin_for_multiplier(0.1, 20, float("inf")),
    lambda: margin_for_multiplier(0.1, 20, -1.0),
    lambda: margin_for_multiplier(float("inf"), 20, 1.7),
    lambda: ctost_star_calibrate(0.1, 0),
    lambda: ctost_star_calibrate(float("nan"), 20),
    lambda: ctost_adjust(float("inf"), 20),
    lambda: ctost_adjust(0.0, 20),
    lambda: delta_tost_adjust(float("inf"), 20),
    lambda: alpha_tost_adjust(float("nan"), 20),
    lambda: ctost_adjust(0.1, 0),
    lambda: ctost_adjust(0.1, -3),
    lambda: ctost_adjust(0.1, float("nan")),
    lambda: alpha_tost_adjust(0.1, float("nan")),
    lambda: _match_margin(np.array([0.1, np.inf]), 0.05),
    lambda: UnivSummary(0.1, float("inf"), 20),
    lambda: EquivalenceSpec(c0=float("inf")),
    lambda: EquivalenceSpec(c0=float("nan")),
], ids=["t-nu2-0", "t-nan", "t-inf", "t-negative", "t-sigma-inf", "star-nu2-0",
        "star-sigma-nan", "ctost-sigma-inf", "ctost-sigma-0", "delta-sigma-inf",
        "alpha-sigma-nan", "ctost-nu2-0", "ctost-nu2-negative", "ctost-nu2-nan",
        "alpha-nu2-nan", "match-sigma-inf", "summary-sigma-inf", "spec-c0-inf",
        "spec-c0-nan"])
def test_non_finite_or_out_of_range_inputs_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_three_adjustments_share_one_size():
    # alpha-, delta- and margin-corrected tests all solve the same equation
    # along different one-parameter families; their sizes coincide at alpha0
    sigma1, nu2 = 0.09, 14
    al = alpha_tost_adjust(sigma1, nu2)
    de = delta_tost_adjust(sigma1, nu2)
    co = ctost_adjust(sigma1, nu2)
    for t, c in ((al.t_used, C0), (de.t_used, de.c_used), (0.0, co.c_used)):
        assert oracles.size_quad(sigma1, nu2, t, c) == pytest.approx(0.05, abs=5e-8)


# ---------------------------------------------------------------------------
# small-sample level calibration (cTOST*)
# ---------------------------------------------------------------------------

def test_calibrated_level_frozen_value():
    adj = ctost_star_calibrate(0.1, 5)
    assert adj.method == "ctost-star"
    assert adj.alpha_c == pytest.approx(0.01726467697168059, abs=1e-9)
    assert adj.c_used == pytest.approx(0.025048615968341473, abs=1e-9)
    assert not adj.clamped
    # the refined margin is matched at the calibrated level
    assert _size((adj.c_used - C0) / 0.1, 0.1, C0) == pytest.approx(adj.alpha_c, abs=1e-9)


def test_calibrated_level_against_plain_monte_carlo():
    # independent route: draw the standard-error ratio from scipy, re-solve
    # the margin with scipy's root finder, average the closed-form size
    sigma1, nu2 = 0.1, 5
    rng = np.random.default_rng(1234)
    u = np.sqrt(rng.chisquare(nu2, size=30_000) / nu2)
    chat = oracles.brute_margin(sigma1 * u, alpha0=0.05)
    sizes = stats.norm.cdf((chat - C0) / sigma1) - stats.norm.cdf((-chat - C0) / sigma1)
    gap = 0.05 - sizes.mean()
    want = min(0.05 + gap, 0.05)
    se = sizes.std(ddof=1) / np.sqrt(u.size)
    adj = ctost_star_calibrate(sigma1, nu2)
    assert adj.alpha_c == pytest.approx(want, abs=max(6 * se, 1e-4))


def test_ctost_plugin_size_oracle_matches_one_calibration_round():
    # reference plug-in sizes of raw ctost at nu2 = 20, and the same excess
    # over alpha0 as the one-round calibration subtracts from the level
    for sigma1, want in ((0.05, 0.05781), (0.1, 0.05893), (0.15, 0.05598)):
        plugin = oracles.ctost_plugin_size_quad(sigma1, 20)
        assert plugin == pytest.approx(want, abs=1e-5)
        adj = ctost_star_calibrate(sigma1, 20)
        assert adj.alpha_c == pytest.approx(2 * 0.05 - plugin, abs=1e-9)


def test_calibration_clamps_at_nominal():
    # at very large noise the expected realized size drops below the nominal
    # level; the would-be upward correction is clamped at alpha0
    adj = ctost_star_calibrate(0.8, 10)
    assert adj.clamped
    assert adj.alpha_c == pytest.approx(0.05)
    assert adj.c_used == pytest.approx(ctost_adjust(0.8, 10).c_used, abs=1e-10)


def test_calibration_floors_when_overshooting():
    # the opposite extreme: the one-pass correction can exceed the whole
    # level; the margin then collapses to essentially zero instead of
    # raising, and the decision degrades to never declaring equivalence
    adj = ctost_star_calibrate(0.125, 3)
    assert 0.0 < adj.alpha_c <= 0.05
    assert adj.c_used < 1e-4
    rep = decide(UnivSummary(theta_hat=0.01, sigma1_hat=0.125, nu2=3),
                 EquivalenceSpec(method="ctost-star"))
    assert not rep.reject


@pytest.mark.parametrize("strategy", ["quadrature", "table-lookup"])
def test_calibration_raises_when_the_margin_does_not_match(monkeypatch, strategy):
    def unmatched(sigma, level, c0, **kw):
        c, iters, conv, resid = _match_margin(sigma, level, c0, **kw)
        return c, iters, np.zeros_like(conv), resid

    monkeypatch.setattr(univariate, "_match_margin", unmatched)
    with pytest.raises(NonConvergenceError, match="calibrated level"):
        ctost_star_calibrate(0.1, 20, strategy=strategy)


def test_calibration_raises_when_an_expected_size_margin_does_not_match(
        monkeypatch, capsys):
    # only the margins inside the expectation (one row of nodes per
    # standard error) report failure; the final margin still converges
    def unmatched(sigma, level, c0, **kw):
        c, iters, conv, resid = _match_margin(sigma, level, c0, **kw)
        return c, iters, conv if np.ndim(conv) < 2 else np.zeros_like(conv), resid

    monkeypatch.setattr(univariate, "_match_margin", unmatched)
    with pytest.raises(NonConvergenceError, match="expected-size margins"):
        ctost_star_calibrate(0.1, 20)
    code = cli.main(["adjust", "--method", "ctost", "--refined",
                     "--sigma1", "0.1", "--nu2", "20"])
    assert code == 3
    assert "expected-size margins" in json.loads(capsys.readouterr().err)[
        "error"]["message"]


def test_calibrate_rejects_unknown_strategy():
    for strategy in ("bootstrap", "monte-carlo"):
        with pytest.raises(InputError):
            ctost_star_calibrate(0.1, 5, strategy=strategy)


@pytest.mark.parametrize("nu2", [5, 20, 100])
def test_calibration_does_not_depend_on_batch_size(nu2):
    # a one-row calibration equals the same row of a whole-grid build
    tbl = build_calibration_table(nu_grid=(nu2, nu2 + 1))
    for i, s in enumerate(tbl.sigma_grid):
        assert ctost_star_calibrate(float(s), nu2).alpha_c == tbl.alpha_c[i, 0]


# ---------------------------------------------------------------------------
# calibration tables
# ---------------------------------------------------------------------------

def _toy_table():
    sg = np.array([0.02, 0.05, 0.1, 0.2])
    ng = np.array([5.0, 10.0, 20.0, 40.0])
    ls = np.log(sg)[:, None]
    inv = (1.0 / ng)[None, :]
    ac = 0.03 + 0.004 * ls + 0.02 * inv + 0.005 * ls * inv
    return CalibrationTable(sigma_grid=sg, nu_grid=ng, alpha_c=ac, c0=C0, alpha0=0.05)


def test_table_roundtrip_exact(tmp_path):
    tbl = _toy_table()
    p = tmp_path / "tbl.csv"
    tbl.to_csv(p)
    back = CalibrationTable.from_csv(p)
    np.testing.assert_array_equal(back.sigma_grid, tbl.sigma_grid)
    np.testing.assert_array_equal(back.nu_grid, tbl.nu_grid)
    np.testing.assert_array_equal(back.alpha_c, tbl.alpha_c)
    assert back.c0 == tbl.c0 and back.alpha0 == tbl.alpha0


def test_table_lookup_exact_at_nodes():
    tbl = _toy_table()
    for i, s in enumerate(tbl.sigma_grid):
        for j, nu in enumerate(tbl.nu_grid):
            assert tbl.lookup(float(s), int(nu)) == pytest.approx(
                tbl.alpha_c[i, j], abs=1e-14)


def test_table_interpolation_exact_on_bilinear_surface():
    # the toy surface is exactly bilinear in (log sigma, 1/nu), so the
    # interpolant must reproduce it everywhere inside the grid
    tbl = _toy_table()
    rng = np.random.default_rng(77)
    for _ in range(50):
        s = float(np.exp(rng.uniform(np.log(0.02), np.log(0.2))))
        nu = int(rng.integers(5, 41))
        want = 0.03 + 0.004 * np.log(s) + 0.02 / nu + 0.005 * np.log(s) / nu
        assert tbl.lookup(s, nu) == pytest.approx(want, abs=1e-12)


def test_table_out_of_range():
    tbl = _toy_table()
    with pytest.raises(ExtrapolationError):
        tbl.lookup(0.5, 10)
    with pytest.raises(ExtrapolationError):
        tbl.lookup(0.05, 3)
    assert np.isnan(tbl.lookup(0.5, 10, out_of_range="nan"))


def test_table_from_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("sigma,nu,alpha\n0.1,5,0.02\n")
    with pytest.raises(InputError):
        CalibrationTable.from_csv(p)
    p2 = tmp_path / "mixed.csv"
    p2.write_text(
        "sigma1,nu2,alpha_c,strategy,c0,alpha0\n"
        "0.1,5,0.02,quadrature,0.22,0.05\n"
        "0.1,10,0.02,quadrature,0.25,0.05\n")
    with pytest.raises(InputError):
        CalibrationTable.from_csv(p2)
    p3 = tmp_path / "holes.csv"
    p3.write_text(
        "sigma1,nu2,alpha_c,strategy,c0,alpha0\n"
        "0.1,5,0.02,quadrature,0.22,0.05\n"
        "0.1,10,0.02,quadrature,0.22,0.05\n"
        "0.2,5,0.02,quadrature,0.22,0.05\n")
    with pytest.raises(InputError):
        CalibrationTable.from_csv(p3)


def test_table_from_csv_rejects_other_strategies(tmp_path):
    # a whole 2 x 2 grid, consistent in every other column
    p = tmp_path / "mc.csv"
    p.write_text("sigma1,nu2,alpha_c,strategy,c0,alpha0\n" + "".join(
        f"{s},{nu},0.02,monte-carlo,0.22,0.05\n" for s in (0.1, 0.2) for nu in (5, 10)))
    with pytest.raises(InputError, match="strategy column"):
        CalibrationTable.from_csv(p)
    p.write_text(p.read_text().replace("monte-carlo", "quadrature"))
    assert CalibrationTable.from_csv(p).alpha_c.shape == (2, 2)


@pytest.mark.parametrize("row", [
    "0.1,5,oops,quadrature,0.22,0.05",
    "0.1,5,0.02,quadrature,0.22",
    "0.1,5,0.02,quadrature,0.22,0.05,extra",
    "0.1,5,inf,quadrature,0.22,0.05",
])
def test_table_from_csv_malformed_rows(tmp_path, row):
    p = tmp_path / "corrupt.csv"
    p.write_text("sigma1,nu2,alpha_c,strategy,c0,alpha0\n"
                 f"{row}\n"
                 "0.1,10,0.02,quadrature,0.22,0.05\n"
                 "0.2,5,0.02,quadrature,0.22,0.05\n"
                 "0.2,10,0.02,quadrature,0.22,0.05\n")
    with pytest.raises(InputError):
        CalibrationTable.from_csv(p)


def test_table_validation():
    with pytest.raises(InputError):
        CalibrationTable(sigma_grid=np.array([0.2, 0.1]), nu_grid=np.array([5.0, 10.0]),
                         alpha_c=np.zeros((2, 2)), c0=C0, alpha0=0.05)
    with pytest.raises(InputError):
        CalibrationTable(sigma_grid=np.array([0.1, 0.2]), nu_grid=np.array([5.0, 10.0]),
                         alpha_c=np.zeros((3, 2)), c0=C0, alpha0=0.05)
    with pytest.raises(InputError):
        CalibrationTable(sigma_grid=np.array([-0.1, 0.2]), nu_grid=np.array([5.0, 10.0]),
                         alpha_c=np.zeros((2, 2)), c0=C0, alpha0=0.05)


def test_build_table_small_grid_matches_direct():
    tbl = build_calibration_table(
        sigma_grid=np.array([0.05, 0.1]), nu_grid=np.array([5, 10]))
    for i, s in enumerate(tbl.sigma_grid):
        for j, nu in enumerate(tbl.nu_grid):
            direct = ctost_star_calibrate(float(s), int(nu))
            assert tbl.alpha_c[i, j] == pytest.approx(direct.alpha_c, abs=1e-10)


def test_bundled_table_covers_defaults_and_matches_quadrature():
    tbl = default_calibration_table()
    assert tbl.c0 == pytest.approx(C0)
    assert tbl.alpha0 == pytest.approx(0.05)
    got = ctost_star_calibrate(0.0731, 17, strategy="table-lookup")
    want = ctost_star_calibrate(0.0731, 17, strategy="quadrature")
    assert got.alpha_c == pytest.approx(want.alpha_c, abs=1e-4)


def test_bundled_table_matches_a_fresh_calibration():
    tbl = default_calibration_table()
    for j, nu in enumerate(tbl.nu_grid):
        fresh, _ = univariate._calibrate_level(tbl.sigma_grid, int(nu),
                                               tbl.c0, tbl.alpha0)
        np.testing.assert_allclose(tbl.alpha_c[:, j], fresh, rtol=0, atol=1e-15)


def test_table_spec_mismatch_raises(tmp_path):
    sg = np.array([0.02, 0.2])
    ng = np.array([5.0, 40.0])
    tbl = CalibrationTable(sigma_grid=sg, nu_grid=ng, alpha_c=np.full((2, 2), 0.03),
                           c0=0.3, alpha0=0.05)
    with pytest.raises(InputError):
        ctost_star_calibrate(0.1, 10, strategy="table-lookup", table=tbl)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def test_tost_decide_matches_textbook_interval():
    s = UnivSummary(theta_hat=0.1, sigma1_hat=0.05, nu2=20)
    rep = decide(s, EquivalenceSpec(method="tost"))
    t = float(t_quantile(0.05, 20))
    lo, hi = rep.intervals[0]
    assert lo == pytest.approx(0.1 - t * 0.05, abs=1e-12)
    assert hi == pytest.approx(0.1 + t * 0.05, abs=1e-12)
    assert rep.reject == (hi < C0 and lo > -C0)
    assert rep.iip


@pytest.mark.parametrize("method", ["tost", "alpha-tost", "delta-tost", "ctost",
                                    "ctost-star"])
def test_decide_dispatch_and_report_shape(method):
    s = UnivSummary(theta_hat=0.02, sigma1_hat=0.07, nu2=12)
    rep = decide(s, EquivalenceSpec(method=method))
    assert isinstance(rep, DecisionReport)
    assert rep.method == method
    assert rep.theta_hat == [pytest.approx(0.02)]
    assert len(rep.margins) == 1
    assert isinstance(rep.reject, bool)
    assert rep.verdict in ("equivalent", "not equivalent")
    d = rep.to_dict()
    assert d["method"] == method
    assert d["reject_null"] == rep.reject
    assert d["verdict"] == rep.verdict


def test_decide_unknown_method_rejected_at_spec():
    with pytest.raises(InputError):
        EquivalenceSpec(method="anova")


def test_ctost_decide_interval_reading_matches_rejection():
    # the shrunken interval falls inside (-c0, c0) exactly when the point
    # estimate clears the matched margin
    for th in (0.0, 0.05, 0.139, 0.141, 0.2, 0.25):
        s = UnivSummary(theta_hat=th, sigma1_hat=0.05, nu2=20)
        rep = decide(s, EquivalenceSpec(method="ctost"))
        assert rep.iip
        lo, hi = rep.intervals[0]
        assert rep.reject == (-C0 < lo and hi < C0)


def test_ctost_star_decides_more_conservatively():
    # the calibrated margin can only be narrower than the plain one
    s = UnivSummary(theta_hat=0.03, sigma1_hat=0.12, nu2=5)
    plain = decide(s, EquivalenceSpec(method="ctost"))
    star = decide(s, EquivalenceSpec(method="ctost-star"))
    assert star.margins[0] <= plain.margins[0] + 1e-12


def test_rejection_rates_order_theory():
    # power at theta = 0 ranks: classical <= level-adjusted <= margin-matched
    sigma1, nu2 = 0.1, 20
    t0 = float(t_quantile(0.05, nu2))
    al = alpha_tost_adjust(sigma1, nu2)
    co = ctost_adjust(sigma1, nu2)
    p_tost = oracles.omega_quad(0.0, sigma1, nu2, t0, C0)
    p_alpha = oracles.omega_quad(0.0, sigma1, nu2, al.t_used, C0)
    p_ctost = oracles.omega_quad(0.0, sigma1, nu2, 0.0, co.c_used)
    assert p_tost <= p_alpha + 1e-10
    assert p_alpha <= p_ctost + 1e-10


@given(st.floats(0.01, 0.6), st.integers(2, 120))
@settings(max_examples=60)
def test_matched_margin_properties(sigma1, nu2):
    adj = ctost_adjust(sigma1, nu2)
    assert 0.0 < adj.c_used < C0
    assert abs(_size((adj.c_used - C0) / sigma1, sigma1, C0) - 0.05) < 1e-9


@given(st.floats(0.02, 0.3), st.integers(3, 80))
@settings(max_examples=25)
def test_calibrated_level_never_exceeds_nominal(sigma1, nu2):
    adj = ctost_star_calibrate(sigma1, nu2)
    assert adj.alpha_c <= 0.05 + 1e-12
    assert adj.c_used <= ctost_adjust(sigma1, nu2).c_used + 1e-12

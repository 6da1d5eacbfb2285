"""Multivariate equivalence: worst-case boundary search and joint margins.

With K endpoints the test rejects only when every marginal test rejects, so
the size is the supremum of the joint rejection probability over the null
boundary.  That supremum is attained on one of the faces {theta_h = +-c0},
and by central symmetry only the K positive faces need searching.  The
corrected procedure solves for per-dimension margins c*_k that share a
common marginal size gamma while the joint rejection probability at the
worst boundary point equals alpha0: an inner fixed point in gamma nested in
an outer re-localization of the worst point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .base import (
    ALPHA0_DEFAULT,
    C0_DEFAULT,
    DecisionReport,
    EquivalenceSpec,
    InputError,
    NonConvergenceError,
)
from .powerkernel import MvtPowerQuery, _omega_joint, power_mvt
from .statdist import _check_corr, _is_diagonal, t_quantile
from .univariate import _match_margin, _size_fixed

__all__ = [
    "MvtSummary",
    "LambdaResult",
    "MvtAdjustment",
    "repair_correlation",
    "lambda_argsup",
    "ctost_mvt_adjust",
    "mvt_decide",
]

_INVPHI = 0.5 * (np.sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class MvtSummary:
    """Sufficient statistics of a K-dimensional equivalence problem.

    sigma1_hat holds the per-dimension standard errors and correlation_hat
    their estimated correlation; together they encode the covariance of
    theta_hat.  nu2 is shared across dimensions (same error degrees of
    freedom).  correlation_assumed marks an identity correlation supplied
    because the input gave none; decisions carry it in their meta.
    """

    theta_hat: np.ndarray
    sigma1_hat: np.ndarray
    correlation_hat: np.ndarray
    nu2: int
    correlation_assumed: bool = False

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta_hat, dtype=float))
        sigma = np.atleast_1d(np.asarray(self.sigma1_hat, dtype=float))
        k = theta.size
        if sigma.size != k:
            raise InputError("theta_hat and sigma1_hat must have equal length")
        if not np.all(np.isfinite(theta)):
            raise InputError("theta_hat must be finite")
        if np.any(sigma <= 0):
            raise InputError("sigma1_hat entries must be positive")
        corr = _check_corr(self.correlation_hat, k, "correlation_hat")
        if self.nu2 < 1:
            raise InputError(f"nu2 must be >= 1, got {self.nu2}")
        object.__setattr__(self, "theta_hat", theta)
        object.__setattr__(self, "sigma1_hat", sigma)
        object.__setattr__(self, "correlation_hat", corr)

    @property
    def dim(self) -> int:
        return self.theta_hat.size


def repair_correlation(corr, min_ratio: float = 1e-8) -> np.ndarray:
    """Clip eigenvalues to min_ratio * max eigenvalue and renormalize.

    Sample correlations with few degrees of freedom can be numerically
    singular; clipping restores positive definiteness with the smallest
    possible perturbation.  Warns when anything was actually clipped.
    """
    corr = np.atleast_2d(np.asarray(corr, dtype=float))
    corr = 0.5 * (corr + corr.T)
    vals, vecs = np.linalg.eigh(corr)
    floor = min_ratio * vals[-1]
    if vals[0] >= floor:
        return corr
    warnings.warn(
        f"correlation eigenvalue {vals[0]:.3e} below {floor:.3e}; clipping",
        stacklevel=2)
    fixed = (vecs * np.maximum(vals, floor)) @ vecs.T
    d = np.sqrt(np.diag(fixed))
    fixed = fixed / np.outer(d, d)
    np.fill_diagonal(fixed, 1.0)
    return fixed


@dataclass(frozen=True)
class LambdaResult:
    """Worst boundary point found for a given margin vector.

    lambda_ lies on the face {theta_face = sign * c0}; objective is the
    joint rejection probability there.  candidates_evaluated counts
    objective calls spent in the search.
    """

    lambda_: np.ndarray
    objective: float
    face: int
    sign: int
    candidates_evaluated: int
    converged: bool = True


@dataclass(frozen=True)
class MvtAdjustment:
    """Joint margin solution: c_star at shared marginal size gamma.

    lambda_ is the final worst-case point; the counters expose the outer
    (re-localization) and total inner (gamma fixed point) iterations.
    """

    c_star: np.ndarray
    gamma: float
    lambda_: LambdaResult
    outer_iterations: int
    inner_iterations: int
    converged: bool


def _golden_max(f, lo: float, hi: float, xtol: float):
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evals)."""
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    evals = 2
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        evals += 1
    x = 0.5 * (a + b)
    return x, f(x), evals + 1


def lambda_argsup(sigma1, correlation, nu2: int, c, spec: EquivalenceSpec = None,
                  tol: float = 1e-5, seed: int = 0, t=None,
                  n_wishart: int = 4000) -> LambdaResult:
    """Worst point of the null boundary for the margins c (and multipliers t).

    Every axis candidate +-c0 e_h is evaluated first, in that order.

    If the correlation is diagonal (:func:`statdist._is_diagonal`) the best
    axis candidate is the answer, at t = 0 and t > 0 alike, after 2K
    objective calls.  With independent coordinates the joint rejection
    probability is a product of one-dimensional factors, each symmetric and
    non-increasing in |theta_k|: at t = 0 a factor is a centred interval
    probability of a normal (Anderson 1955), and at t > 0 a mixture of such
    probabilities over the standard-error estimate.  On the face
    {theta_h = +-c0} the product is therefore largest with every other
    coordinate at 0.

    Otherwise the K faces {theta_h = +c0} are searched as well (the
    negative faces follow by symmetry): per face, projected coordinate
    ascent with golden-section line searches (tolerance 1e-6 * c0 per
    coordinate) from the face center and from a second interior start.
    The best point wins; an axis candidate matching the ascent value within
    the objective's resolution is preferred.

    t defaults to all zeros (fixed-margin tests); nonzero multipliers
    switch the objective to the standard-error-averaged rejection
    probability, evaluated with common random numbers across calls.
    """
    spec = spec or EquivalenceSpec()
    sigma1 = np.atleast_1d(np.asarray(sigma1, dtype=float))
    k = sigma1.size
    corr = np.atleast_2d(np.asarray(correlation, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.size == 1:
        c = np.full(k, float(c[0]))
    t = np.zeros(k) if t is None else np.atleast_1d(np.asarray(t, dtype=float))
    if t.size == 1:
        t = np.full(k, float(t[0]))
    if np.any(c <= 0):
        raise InputError("margins c must be positive")
    c0 = spec.c0
    xtol = 1e-6 * c0

    count = [0]

    if np.all(t == 0):
        def objective(theta):
            count[0] += 1
            return _omega_joint(theta, sigma1, corr, c, tol=tol, seed=seed,
                                n_points=(1 << 12) if k >= 5 else None)
    else:
        def objective(theta):
            count[0] += 1
            q = MvtPowerQuery(theta, sigma1, corr, nu2, t, c)
            return power_mvt(q, tol=tol, seed=seed, n_wishart=n_wishart)

    def embed(face, free):
        theta = np.empty(k)
        theta[face] = c0
        theta[np.arange(k) != face] = free
        return theta

    # axis candidates; by symmetry the negative axes duplicate the positive
    # ones, but they are cheap and keep the audit contract literal
    best_axis_val = -1.0
    best_axis = None
    for h in range(k):
        for sgn in (1, -1):
            theta = np.zeros(k)
            theta[h] = sgn * c0
            v = objective(theta)
            if v > best_axis_val:
                best_axis_val, best_axis = v, (h, sgn, theta)
    if _is_diagonal(corr):
        h, sgn, theta = best_axis
        return LambdaResult(lambda_=theta, objective=best_axis_val, face=h,
                            sign=sgn, candidates_evaluated=count[0])

    # resolution of one objective evaluation for correlated coordinates: the
    # deterministic K <= 4 rectangles at t = 0 resolve machine-level
    # differences, the sampled ones (t > 0 or K >= 5) about tol
    snap = tol if (np.any(t > 0) or k >= 5) else 1e-12
    best_val = -1.0
    best_face = 0
    best_free = np.zeros(k - 1)
    converged = True
    for face in range(k):
        for start in (np.zeros(k - 1), np.full(k - 1, 0.5 * c0)):
            free = start.copy()
            val = objective(embed(face, free))
            for _sweep in range(8):
                sweep_gain = 0.0
                for j in range(k - 1):
                    def line(y, j=j, free=free):
                        pt = free.copy()
                        pt[j] = y
                        return objective(embed(face, pt))

                    y, fy, _ = _golden_max(line, -c0, c0, xtol)
                    f0 = line(0.0)
                    if f0 >= fy:
                        y, fy = 0.0, f0
                    if fy > val:
                        sweep_gain += fy - val
                        free[j] = y
                        val = fy
                if sweep_gain <= 1e-12:
                    break
            else:
                converged = False
            if val > best_val:
                best_val, best_face = val, face
                best_free = free.copy()

    if best_axis_val >= best_val - snap:
        h, sgn, theta = best_axis
        return LambdaResult(lambda_=theta, objective=best_axis_val, face=h,
                            sign=sgn, candidates_evaluated=count[0],
                            converged=converged)
    theta = embed(best_face, best_free)
    return LambdaResult(lambda_=theta, objective=best_val, face=best_face,
                        sign=1, candidates_evaluated=count[0],
                        converged=converged)


# ---------------------------------------------------------------------------
# joint margin adjustment
# ---------------------------------------------------------------------------

def ctost_mvt_adjust(s: MvtSummary, spec: EquivalenceSpec = None,
                     tol: float = 1e-6, seed: int = 0, r_max: int = 50,
                     inner_tol: float = 1e-8, inner_max: int = 200,
                     search_tol: float = 1e-5) -> MvtAdjustment:
    """Solve for per-dimension margins with joint size alpha0.

    Alternates two levels: given the current worst boundary point, the
    inner loop raises the shared marginal size gamma by the gap between
    alpha0 and the joint rejection probability, re-solving each margin at
    the new gamma, until gamma settles (|change| <= inner_tol); the outer
    loop then relocates the worst point for the updated margins.  Stops
    when the joint size residual is within tol.  gamma can only move
    upward from alpha0: each dimension's test runs at a level at least as
    large as the nominal one.
    """
    spec = spec or EquivalenceSpec()
    sig = s.sigma1_hat
    corr = s.correlation_hat
    c0, alpha0 = spec.c0, spec.alpha0
    eval_tol = 0.25 * tol

    c = np.full(s.dim, c0)
    lam = lambda_argsup(sig, corr, s.nu2, c, spec, tol=search_tol, seed=seed)
    gamma = float(np.max(_size_fixed(c, sig, c0)))
    trace = []
    inner_total = 0
    for r in range(r_max + 1):
        om = _omega_joint(lam.lambda_, sig, corr, c, tol=eval_tol, seed=seed)
        resid = om - alpha0
        trace.append({"outer": r, "gamma": gamma, "residual": resid,
                      "lambda": lam.lambda_.tolist()})
        if abs(resid) <= tol:
            return MvtAdjustment(c_star=c, gamma=gamma, lambda_=lam,
                                 outer_iterations=r, inner_iterations=inner_total,
                                 converged=True)
        if r == r_max:
            break
        gamma = alpha0
        cg, _, _ = _match_margin(sig, gamma, c0)
        for _u in range(inner_max):
            om_in = _omega_joint(lam.lambda_, sig, corr, cg, tol=eval_tol,
                                 seed=seed)
            gamma_new = max(gamma + alpha0 - om_in, alpha0)
            cg, _, _ = _match_margin(sig, gamma_new, c0)
            inner_total += 1
            step = abs(gamma_new - gamma)
            gamma = gamma_new
            if step <= inner_tol:
                break
        c = cg
        lam = lambda_argsup(sig, corr, s.nu2, c, spec, tol=search_tol,
                            seed=seed + r + 1)
    raise NonConvergenceError(
        f"joint margin iteration did not reach |residual| <= {tol} "
        f"within {r_max} outer rounds", last=c, trace=trace)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def _alpha_star_joint(s: MvtSummary, spec: EquivalenceSpec, tol: float,
                      seed: int, n_wishart: int, max_iter: int = 60):
    """Shared level alpha* making the joint size alpha0 with margins c0."""
    c0, alpha0 = spec.c0, spec.alpha0
    cvec = np.full(s.dim, c0)

    def joint_size(alpha):
        if alpha >= 0.5:
            lam = lambda_argsup(s.sigma1_hat, s.correlation_hat, s.nu2, cvec,
                                spec, tol=tol, seed=seed)
        else:
            t = float(t_quantile(alpha, s.nu2))
            lam = lambda_argsup(s.sigma1_hat, s.correlation_hat, s.nu2, cvec,
                                spec, tol=tol, seed=seed,
                                t=np.full(s.dim, t), n_wishart=n_wishart)
        return lam.objective, lam

    sup, lam_sup = joint_size(0.5)
    if sup < alpha0:
        return 0.5, lam_sup, True, sup - alpha0
    lo, hi = alpha0, 0.5
    alpha, resid, lam = alpha0, sup - alpha0, lam_sup
    for _ in range(max_iter):
        alpha = 0.5 * (lo + hi)
        size, lam = joint_size(alpha)
        resid = size - alpha0
        if abs(resid) <= max(1e-6, 0.1 * tol) or hi - lo < 1e-10:
            break
        if resid < 0:
            lo = alpha
        else:
            hi = alpha
    return alpha, lam, False, resid


def mvt_decide(s: MvtSummary, spec: EquivalenceSpec = None,
               method: str = None, tol: float = 1e-6, seed: int = 0,
               n_wishart: int = 10_000) -> DecisionReport:
    """Joint equivalence decision: every marginal test must reject.

    method defaults to spec.method and must be one of tost, alpha-tost,
    ctost; the refined univariate calibration has no multivariate
    counterpart here.  tost applies the nominal multiplier per dimension;
    alpha-tost solves one shared adjusted level against the worst-case
    joint size; ctost uses the per-dimension matched margins, reporting
    interval-inclusion form intervals theta_hat_k +- (c0 - c*_k) whenever
    every margin sits below c0.  Every report's meta carries the summary's
    correlation_assumed flag.
    """
    spec = spec or EquivalenceSpec()
    method = method or spec.method
    if method not in ("tost", "alpha-tost", "ctost"):
        raise InputError(
            f"multivariate method must be tost, alpha-tost or ctost; "
            f"got {method!r}")
    theta = s.theta_hat
    sig = s.sigma1_hat
    c0, alpha0 = spec.c0, spec.alpha0

    if method == "tost":
        t = float(t_quantile(alpha0, s.nu2))
        half = t * sig
        margins = c0 - half
        reject = bool(np.all(np.abs(theta) < margins))
        ivs = tuple((float(th - h), float(th + h)) for th, h in zip(theta, half))
        return DecisionReport(
            method="tost", reject=reject, theta_hat=theta, margins=tuple(margins),
            intervals=ivs, iip=True, c0=c0, alpha0=alpha0,
            meta={"t_used": t, "nu2": s.nu2, "dim": s.dim,
                  "correlation_assumed": s.correlation_assumed})

    if method == "alpha-tost":
        alpha, lam, saturated, resid = _alpha_star_joint(
            s, spec, tol=max(tol, 1e-6), seed=seed, n_wishart=n_wishart)
        t = 0.0 if saturated else float(t_quantile(alpha, s.nu2))
        half = t * sig
        margins = c0 - half
        reject = bool(np.all(np.abs(theta) < margins))
        ivs = tuple((float(th - h), float(th + h)) for th, h in zip(theta, half))
        return DecisionReport(
            method="alpha-tost", reject=reject, theta_hat=theta,
            margins=tuple(margins), intervals=ivs, iip=True, c0=c0, alpha0=alpha0,
            meta={"alpha_adj": alpha, "t_used": t, "saturated": saturated,
                  "size_residual": resid, "lambda": lam.lambda_.tolist(),
                  "nu2": s.nu2, "dim": s.dim,
                  "correlation_assumed": s.correlation_assumed})

    adj = ctost_mvt_adjust(s, spec, tol=tol, seed=seed)
    margins = adj.c_star
    reject = bool(np.all(np.abs(theta) < margins))
    iip = bool(np.all(margins < c0))
    ivs = None
    if iip:
        slack = c0 - margins
        ivs = tuple((float(th - sl), float(th + sl)) for th, sl in zip(theta, slack))
    return DecisionReport(
        method="ctost", reject=reject, theta_hat=theta, margins=tuple(margins),
        intervals=ivs, iip=iip, c0=c0, alpha0=alpha0,
        meta={"gamma": adj.gamma, "outer_iterations": adj.outer_iterations,
              "inner_iterations": adj.inner_iterations,
              "lambda": adj.lambda_.lambda_.tolist(),
              "lambda_objective": adj.lambda_.objective,
              "nu2": s.nu2, "dim": s.dim,
              "correlation_assumed": s.correlation_assumed})

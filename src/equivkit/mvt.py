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
from .powerkernel import (
    MvtPowerQuery,
    _JointRejection,
    _omega_joint,
    _power_mvt_mc,
    power_mvt,
)
from .statdist import _check_corr, _exact_rule, _is_diagonal, rect_grad, t_quantile
from .univariate import _increasing_root, _match_margin, _size_fixed

__all__ = [
    "MvtSummary",
    "LambdaResult",
    "MvtAdjustment",
    "repair_correlation",
    "lambda_argsup",
    "ctost_mvt_adjust",
    "mvt_decide",
]

# face search: iteration cap, Armijo constant, and the stopping rules, in
# the units of theta_j / sigma_j (gradient) and of c0 (step)
_ASCENT_MAX_ITER = 50
_ARMIJO = 1e-4
_PG_TOL = 1e-7
_STEP_TOL = 1e-9
# joint fit: the outer-round cap, the inner solve's tolerance on the joint
# size residual where the rectangles are deterministic, the size tolerance
# of its margins (tighter, so that their error cannot hold the solve up),
# and the worst-point search's tolerance
_OUTER_MAX = 50
_INNER_TOL = 1e-10
_MARGIN_TOL = 1e-12
_SEARCH_TOL = 1e-5
# repair_correlation clips eigenvalues below this multiple of the largest
_MIN_EIG_RATIO = 1e-8
# standard-error draws of the joint alpha-tost level's t > 0 searches
_N_WISHART = 10_000


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


def repair_correlation(corr) -> np.ndarray:
    """Clip eigenvalues to _MIN_EIG_RATIO * max eigenvalue and renormalize.

    Sample correlations with few degrees of freedom can be numerically
    singular; clipping restores positive definiteness with the smallest
    possible perturbation.  Warns when anything was actually clipped.
    """
    corr = np.atleast_2d(np.asarray(corr, dtype=float))
    corr = 0.5 * (corr + corr.T)
    vals, vecs = np.linalg.eigh(corr)
    floor = _MIN_EIG_RATIO * vals[-1]
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
    joint rejection probability there.  candidates_evaluated counts the
    objective values the search took (each accepted point of a face search
    also takes a gradient); converged is False when a face search stopped
    at its iteration cap.
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


def _face_ascent(obj: _JointRejection, face: int, start, c0: float):
    """Projected BFGS ascent of log obj.value on the face {theta_face = c0}.

    The free coordinates stay in [-c0, c0]: a coordinate at a bound whose
    gradient points outward is held, the others take the quasi-Newton
    direction, and a backtracking (Armijo) line search projects each trial
    onto the box and accepts only a gain.  The inverse Hessian of -log P
    starts at diag(sigma^2), the scale of a normal rectangle's curvature,
    and restarts there when a quasi-Newton direction finds no gain.

    Stops, converged, when the projected gradient of log P falls below
    _PG_TOL per standardized coordinate or no trial step longer than
    _STEP_TOL * c0 gains; else after _ASCENT_MAX_ITER steps, not converged.
    Returns (theta, value, values evaluated, converged).
    """
    k = obj.sigma1.size
    rest = np.arange(k) != face
    scale = obj.sigma1[rest]

    def at(x):
        theta = np.full(k, c0)
        theta[rest] = x
        return theta

    x = np.array(start, dtype=float)
    val = obj.value(at(x))
    evals = 1
    if not val > 0:
        # every box is empty or beyond reach: log P has no gradient here
        return at(x), val, evals, True
    g = obj.grad(at(x))[rest] / val
    hinv0 = np.diag(scale * scale)
    hinv, fresh = hinv0, True
    for _ in range(_ASCENT_MAX_ITER):
        blocked = ((x >= c0) & (g > 0)) | ((x <= -c0) & (g < 0))
        if np.max(np.abs(np.where(blocked, 0.0, g)) * scale) <= _PG_TOL:
            return at(x), val, evals, True
        free = ~blocked
        p = np.zeros_like(x)
        p[free] = hinv[np.ix_(free, free)] @ g[free]
        step, moved = 1.0, False
        while not moved:
            x_new = np.clip(x + step * p, -c0, c0)
            s = x_new - x
            if np.max(np.abs(s)) <= _STEP_TOL * c0:
                break
            v_new = obj.value(at(x_new))
            evals += 1
            moved = v_new > val and np.log(v_new / val) >= _ARMIJO * (g @ s)
            step *= 0.5
        if not moved:
            # no step above the step tolerance gains: stationary at that
            # resolution, unless a quasi-Newton direction missed the ascent
            if fresh:
                return at(x), val, evals, True
            hinv, fresh = hinv0, True
            continue
        g_new = obj.grad(at(x_new))[rest] / v_new
        # curvature along the coordinates that moved: the held ones carry
        # gradient changes no step can follow
        y = np.where(free, g - g_new, 0.0)
        sy = s @ y
        if sy > 0:
            # BFGS update of the inverse Hessian of -log P
            m = np.eye(x.size) - np.outer(s, y) / sy
            hinv, fresh = m @ hinv @ m.T + np.outer(s, s) / sy, False
        x, val, g = x_new, v_new, g_new
    return at(x), val, evals, False


def lambda_argsup(sigma1, correlation, nu2: int, c, spec: EquivalenceSpec = None,
                  tol: float = 1e-5, seed: int = 0, t=None,
                  n_wishart: int = 4000) -> LambdaResult:
    """Worst point of the null boundary for the margins c (and multipliers t).

    The objective is the joint rejection probability: at t = 0 (the
    default; fixed-margin tests) one normal rectangle, :func:`_omega_joint`
    to ``tol``; with multipliers t > 0 the Monte Carlo average of
    :func:`power_mvt` over ``n_wishart`` standard-error draws, drawn once
    per search from ``seed`` so that every value equals ``power_mvt``'s.

    Every axis candidate +-c0 e_h is evaluated first, in that order; at
    t = 0 all 2K of them in one :func:`statdist.rect_prob` call, whose boxes
    are each evaluated on their own.

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
    negative faces follow by symmetry) by projected quasi-Newton ascent of
    the log objective with analytic gradients (:func:`_face_ascent`,
    :func:`statdist.rect_grad`).  At t = 0 the normal probability of a box
    is log-concave in its centre (Prekopa 1973), so each face has a single
    maximizer and one start, the face centre, finds it; the t = 0 search
    is :func:`_argsup_fixed`, which :func:`ctost_mvt_adjust` also calls
    with each face's previous maximizer as its start.  At t > 0 the
    mixture is not known to be log-concave, and a second start at 0.5 c0
    runs as well.  The best point wins; an axis candidate matching it
    within the objective's resolution is preferred.  converged is False
    when some face search stopped at its iteration cap.
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
    if not np.any(t != 0):
        return _argsup_fixed(sigma1, corr, c, c0, tol, seed)[0]

    if _is_diagonal(corr):
        # independent coordinates: power_mvt's exact product, axes only
        def value(theta):
            return power_mvt(MvtPowerQuery(theta, sigma1, corr, nu2, t, c),
                             tol=tol, seed=seed, n_wishart=n_wishart)
        obj = None
    else:
        obj = _power_mvt_mc(sigma1, corr, nu2, t, c, seed, n_wishart)
        value = obj.value
    # two starts per face; the sampled objective resolves about tol
    starts = (np.zeros(k - 1), np.full(k - 1, 0.5 * c0))
    return _argsup(lambda thetas: [value(x) for x in thetas], obj, corr, c0,
                   tol, [starts] * k)[0]


def _argsup_fixed(sigma1, corr, c, c0: float, tol: float, seed: int,
                  starts=None):
    """The t = 0 search of :func:`lambda_argsup`, from given face starts.

    ``starts[h]`` holds the free coordinates (theta without entry h) from
    which the ascent on face h begins; by default every face starts at its
    centre.  Returns (LambdaResult, ends), where ``ends[h]`` is the point
    the ascent on face h reached, in the same coordinates, or None for a
    diagonal correlation, whose search has no face ascent.
    """
    k = sigma1.size
    # deterministic rectangles resolve machine-level differences, quasi-
    # Monte Carlo ones (at a fixed point count, so smooth in theta) about tol
    exact = _exact_rule(corr)
    obj = _JointRejection(c[None, :], sigma1, corr,
                          {"tol": tol, "seed": seed,
                           "n_points": None if exact else 1 << 12})
    if starts is None:
        starts = [np.zeros(k - 1)] * k
    snap = 1e-12 if exact else tol
    return _argsup(obj.value, obj, corr, c0, snap, [(x,) for x in starts])


def _argsup(values, obj, corr, c0: float, snap: float, starts):
    """Axis candidates, then (correlated coordinates) the face ascents.

    ``values`` maps a stack of points (n, K) to their n objective values;
    ``obj``, the same objective with a gradient, is searched on each face h
    from every start in ``starts[h]``.  An axis candidate within ``snap``
    of the best face point wins.  Returns (LambdaResult, ends) with
    ``ends[h]`` the free coordinates of the best point face h reached
    (None when the correlation is diagonal).
    """
    k = corr.shape[0]
    # axis candidates +c0 e_h, -c0 e_h for each h, in one call; by symmetry
    # the negative axes duplicate the positive ones, but they are cheap and
    # keep the audit contract literal
    axes = np.zeros((2 * k, k))
    axes[np.arange(2 * k), np.arange(2 * k) // 2] = np.tile([c0, -c0], k)
    axis_vals = values(axes)
    count = 2 * k
    best = int(np.argmax(axis_vals))
    best_axis_val = float(axis_vals[best])
    best_axis = (best // 2, 1 - 2 * (best % 2), axes[best])
    if _is_diagonal(corr):
        h, sgn, theta = best_axis
        return LambdaResult(lambda_=theta, objective=best_axis_val, face=h,
                            sign=sgn, candidates_evaluated=count), None

    best_val = -1.0
    best = None
    converged = True
    ends = []
    for face in range(k):
        face_val = -1.0
        for start in starts[face]:
            theta, val, evals, ok = _face_ascent(obj, face, start, c0)
            count += evals
            converged = converged and ok
            if val > face_val:
                face_val, end = val, np.delete(theta, face)
            if val > best_val:
                best_val, best = val, (face, theta)
        ends.append(end)

    if best_axis_val >= best_val - snap:
        h, sgn, theta = best_axis
        return LambdaResult(lambda_=theta, objective=best_axis_val, face=h,
                            sign=sgn, candidates_evaluated=count,
                            converged=converged), ends
    face, theta = best
    return LambdaResult(lambda_=theta, objective=best_val, face=face,
                        sign=1, candidates_evaluated=count,
                        converged=converged), ends


# ---------------------------------------------------------------------------
# joint margin adjustment
# ---------------------------------------------------------------------------

def ctost_mvt_adjust(s: MvtSummary, spec: EquivalenceSpec = None,
                     tol: float = 1e-6, seed: int = 0) -> MvtAdjustment:
    """Solve for per-dimension margins with joint size alpha0.

    Alternates two levels.  Given the current worst boundary point, the
    inner solve finds the shared marginal size gamma at which the joint
    rejection probability there equals alpha0, re-solving each margin at
    every new gamma from the previous margins.  It takes Newton steps in
    gamma, guarded by the bracket [alpha0, 1 - (1 - alpha0) / K]
    (:func:`univariate._increasing_root`): at the upper end every marginal
    size is at least gamma, so by Bonferroni the joint size is at least
    alpha0.  The slope is exact: with the worst point held fixed,
    d omega / d gamma = sum_k (db_k - da_k) / (phi((c0 + c_k) / sigma_k)
    + phi((c0 - c_k) / sigma_k)), from :func:`statdist.rect_grad` and the
    margins' own size equations.  The solve stops once the joint size is
    within _INNER_TOL of alpha0, or within the rectangles' tolerance where
    they are quasi-Monte Carlo estimates.  The outer loop then relocates
    the worst point for the updated margins.  Stops when the joint size
    residual is within tol; the result's converged is then the final
    worst-point search's flag.

    The first inner solve starts from gamma = alpha0; each later one
    resumes from the gamma the previous one ended at, whose joint
    probability the outer loop has just evaluated.  Every worst-point
    search after the first starts each face's ascent at that face's
    maximizer in the previous search (:func:`_argsup_fixed`); at t = 0 each
    face has a single maximizer, so the start does not change what is
    found.  gamma can only move upward from alpha0: each dimension's test
    runs at a level at least as large as the nominal one.

    Raises NonConvergenceError when the outer loop does not reach tol in
    _OUTER_MAX rounds, when an inner solve stops unconverged, and when a
    margin does not match its marginal size.
    """
    spec = spec or EquivalenceSpec()
    sig = s.sigma1_hat
    corr = s.correlation_hat
    c0, alpha0 = spec.c0, spec.alpha0
    eval_tol = 0.25 * tol
    inner_tol = _INNER_TOL if _exact_rule(corr) else eval_tol
    top = np.array([1.0 - (1.0 - alpha0) / s.dim])
    trace = []

    def margins(gamma, start):
        cg, _, conv = _match_margin(sig, gamma, c0, tol=_MARGIN_TOL, start=start)
        if not np.all(conv):
            raise NonConvergenceError(
                f"margin at marginal size {gamma!r} did not converge",
                last=cg, trace=trace)
        return cg

    c = np.full(s.dim, c0)
    lam, ends = _argsup_fixed(sig, corr, c, c0, _SEARCH_TOL, seed)
    gamma = float(np.max(_size_fixed(c, sig, c0)))
    inner_total = 0
    for r in range(_OUTER_MAX + 1):
        om = _omega_joint(lam.lambda_, sig, corr, c, tol=eval_tol, seed=seed)
        resid = om - alpha0
        trace.append({"outer": r, "gamma": gamma, "residual": resid,
                      "lambda": lam.lambda_.tolist()})
        if abs(resid) <= tol:
            return MvtAdjustment(c_star=c, gamma=gamma, lambda_=lam,
                                 outer_iterations=r, inner_iterations=inner_total,
                                 converged=lam.converged)
        if r == _OUTER_MAX:
            break
        # the last point the inner solve evaluated: gamma, margins, residual;
        # the starting margins c0 share no marginal size, so the first solve
        # evaluates its start alpha0 afresh
        if r == 0:
            gamma, last = alpha0, [np.nan, None, None]
        else:
            last = [gamma, c, resid]

        def size_gap(g, rows):
            if g[0] != last[0]:
                cg = margins(float(g[0]), last[1])
                last[:] = [g[0], cg, _omega_joint(lam.lambda_, sig, corr, cg,
                                                  tol=eval_tol, seed=seed) - alpha0]
            return np.array([last[2]])

        def slope(g, rows):
            # at the point size_gap has just evaluated
            cg = last[1]
            da, db = rect_grad((-cg - lam.lambda_) / sig, (cg - lam.lambda_) / sig,
                               corr, tol=eval_tol, seed=seed)
            dens = (np.exp(-0.5 * ((c0 + cg) / sig) ** 2)
                    + np.exp(-0.5 * ((c0 - cg) / sig) ** 2)) / np.sqrt(2.0 * np.pi)
            return np.array([np.sum((db - da) / dens)])

        g, res, iters, conv = _increasing_root(size_gap, np.array([alpha0]), top,
                                               inner_tol, x=np.array([gamma]), slope=slope)
        # every round after the first re-solved the margins at a new gamma
        inner_total += iters - 1
        if not conv[0]:
            raise NonConvergenceError(
                f"marginal size gamma stopped unconverged after {iters} inner "
                f"rounds, joint size residual {res[0]:.3e}", last=last[1], trace=trace)
        gamma, c = float(g[0]), last[1]
        lam, ends = _argsup_fixed(sig, corr, c, c0, _SEARCH_TOL, seed + r + 1,
                                  ends)
    raise NonConvergenceError(
        f"joint margin iteration did not reach |residual| <= {tol} "
        f"within {_OUTER_MAX} outer rounds", last=c, trace=trace)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def _alpha_star_joint(s: MvtSummary, spec: EquivalenceSpec, tol: float,
                      seed: int):
    """Shared level alpha* making the joint size alpha0 with margins c0.

    Bisection (:func:`_increasing_root`) over (alpha0, 0.5], one worst-point
    search per point, at t > 0 over _N_WISHART standard-error draws; raises
    NonConvergenceError if it stops unconverged.
    """
    c0, alpha0 = spec.c0, spec.alpha0
    cvec = np.full(s.dim, c0)
    worst = [lambda_argsup(s.sigma1_hat, s.correlation_hat, s.nu2, cvec, spec,
                           tol=tol, seed=seed)]
    if worst[0].objective < alpha0:  # short of alpha0 even at t = 0: saturated
        return 0.5, worst[0], True, worst[0].objective - alpha0

    def size_gap(alpha, rows):
        t = np.full(s.dim, float(t_quantile(alpha[0], s.nu2)))
        worst.append(lambda_argsup(s.sigma1_hat, s.correlation_hat, s.nu2, cvec,
                                   spec, tol=tol, seed=seed, t=t, n_wishart=_N_WISHART))
        return np.array([worst[-1].objective - alpha0])

    alpha, resid, iters, conv = _increasing_root(
        size_gap, np.array([alpha0]), np.array([0.5]), max(1e-6, 0.1 * tol))
    if not conv[0]:
        raise NonConvergenceError(
            f"joint alpha* stopped unconverged after {iters} rounds, "
            f"residual {resid[0]:.3e}", last=float(alpha[0]))
    return float(alpha[0]), worst[-1], False, float(resid[0])


def mvt_decide(s: MvtSummary, spec: EquivalenceSpec = None,
               method: str = None, tol: float = 1e-6, seed: int = 0) -> DecisionReport:
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
            s, spec, tol=max(tol, 1e-6), seed=seed)
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

"""Multivariate equivalence: worst-case boundary search and joint margins.

With K endpoints the test rejects only when every marginal test rejects, so
the size is the supremum of the joint rejection probability over the null
boundary.  That supremum is attained on one of the faces {theta_h = +-c0},
and by central symmetry only the K positive faces need searching: with
two coordinates and fixed margins each face's maximizer is the root of one
increasing equation, and otherwise an ascent climbs each face.  The
corrected procedure solves for per-dimension margins c*_k that share a
common marginal size gamma while the joint rejection probability at the
worst boundary point equals alpha0: an inner Newton solve for gamma and the
margins together, nested in an outer re-localization of the worst point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .base import (
    ALPHA0_DEFAULT,
    C0_DEFAULT,
    DecisionReport,
    EquivalenceSpec,
    InputError,
    NonConvergenceError,
)
from .powerkernel import MvtPowerQuery, _box_limits, _independent, _JointRejection, _power_mvt_mc
from .statdist import (
    _check_corr,
    _exact_rule,
    _is_diagonal,
    _log_limit_dens,
    rect_grad,
    rect_prob,
    t_quantile,
)
from . import univariate
from .univariate import _check_sigma, _increasing_root, _match_margin, _size_slope

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
# K = 2 face roots: the tolerance on sigma_j times the log ratio of the limit
# densities, whose slope in theta_j is at least 2 c_j / sigma_j while both
# limits lie within the rectangles' cut, so theta_j is then within
# _PAIR_TOL sigma_j / (2 c_j) of the root
_PAIR_TOL = 1e-12
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
        _check_sigma(sigma, self.nu2)
        corr = _check_corr(self.correlation_hat, k, "correlation_hat")
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

    lambda_ lies on the face {theta_face = c0}; objective is the joint
    rejection probability there.  By central symmetry every point is
    reported on a positive face.  candidates_evaluated
    counts the objective values the search took: the K axis candidates,
    then every start and line-search trial of the face ascents, each of
    which comes with its gradient from the same lockstep round.  A K = 2
    search at t = 0 finds its face points as roots and values only the two
    axis candidates and the two face points, so it counts 4.  A search
    stopped at its cap raises, so converged is always True;
    perfbench/workloads.py and perfbench/defects.py read it.
    """

    lambda_: np.ndarray
    objective: float
    face: int
    candidates_evaluated: int
    converged: bool = True


@dataclass(frozen=True)
class MvtAdjustment:
    """Joint margin solution: c_star at shared marginal size gamma.

    lambda_ is the final worst-case point.  outer_iterations counts the
    re-localizations of the worst point: the fit searches once at
    gamma = alpha0 before them, so it is the number of searches less one.
    inner_iterations counts the rounds of the inner solves that moved
    gamma and every margin together by one Newton step (each solve's rounds
    but its last, which only confirms).  A fit stopped at a cap raises
    NonConvergenceError, whose trace starts with that first search at
    gamma = alpha0, so converged is always True; perfbench/workloads.py
    reads it.
    """

    c_star: np.ndarray
    gamma: float
    lambda_: LambdaResult
    outer_iterations: int
    inner_iterations: int
    converged: bool = True


def _face_ascent(sigma1, face: int, start, c0: float):
    """Projected BFGS ascent of log P on the face {theta_face = c0}.

    A coroutine, run by :func:`_lockstep`: it yields each point theta (K,)
    whose objective it needs, a start or a line-search trial, and is sent
    back (P, gradient of P in theta) there.

    The free coordinates stay in [-c0, c0]: a coordinate at a bound whose
    gradient points outward is held, the others take the quasi-Newton
    direction, and a backtracking (Armijo) line search projects each trial
    onto the box and accepts only a gain.  The inverse Hessian of -log P
    starts at diag(sigma1^2), the scale of a normal rectangle's curvature,
    and restarts there when a quasi-Newton direction finds no gain.

    Stops when the projected gradient of log P falls below _PG_TOL per
    standardized coordinate or no trial step longer than _STEP_TOL * c0
    gains, and returns (theta, value, values evaluated); raises
    NonConvergenceError after _ASCENT_MAX_ITER steps.
    """
    k = sigma1.size
    rest = np.arange(k) != face
    scale = sigma1[rest]

    def at(x):
        theta = np.full(k, c0)
        theta[rest] = x
        return theta

    x = np.array(start, dtype=float)
    val, grad = yield at(x)
    evals = 1
    if not val > 0:
        # every box is empty or beyond reach: log P has no gradient here
        return at(x), val, evals
    g = grad[rest] / val
    hinv0 = np.diag(scale * scale)
    hinv, fresh = hinv0, True
    eye = np.eye(x.size)
    # array methods and np.minimum/np.maximum cost less per call than
    # np.max and np.clip, which dominates on vectors this short
    for _ in range(_ASCENT_MAX_ITER):
        blocked = ((x >= c0) & (g > 0)) | ((x <= -c0) & (g < 0))
        if (np.abs(np.where(blocked, 0.0, g)) * scale).max() <= _PG_TOL:
            return at(x), val, evals
        free = ~blocked
        if free.all():
            p = hinv @ g
        else:
            p = np.zeros_like(x)
            p[free] = hinv[np.ix_(free, free)] @ g[free]
        step, moved = 1.0, False
        while not moved:
            x_new = np.minimum(np.maximum(x + step * p, -c0), c0)
            s = x_new - x
            if np.abs(s).max() <= _STEP_TOL * c0:
                break
            v_new, grad = yield at(x_new)
            evals += 1
            moved = v_new > val and np.log(v_new / val) >= _ARMIJO * (g @ s)
            step *= 0.5
        if not moved:
            # no step above the step tolerance gains: stationary at that
            # resolution, unless a quasi-Newton direction missed the ascent
            if fresh:
                return at(x), val, evals
            hinv, fresh = hinv0, True
            continue
        g_new = grad[rest] / v_new
        # curvature along the coordinates that moved: the held ones carry
        # gradient changes no step can follow
        y = np.where(free, g - g_new, 0.0)
        sy = s @ y
        if sy > 0:
            # BFGS update of the inverse Hessian of -log P
            m = eye - s[:, None] * y / sy
            hinv, fresh = m @ hinv @ m.T + s[:, None] * s / sy, False
        x, val, g = x_new, v_new, g_new
    raise NonConvergenceError(
        f"face ascent on face {face} stopped unconverged after "
        f"{_ASCENT_MAX_ITER} steps", last=at(x))


def _lockstep(value_grad, ascents):
    """Run the coroutines ``ascents`` (:func:`_face_ascent`) together.

    Each round evaluates the point every unfinished ascent waits on, a
    start or a line-search trial, in one ``value_grad`` call over their
    stack (n, K), which returns the n values and the gradients (n, K), so
    an accepted step has its gradient already.  Values do not depend on
    the points sharing a call, so each ascent takes the steps it would
    take alone.  Returns the ascents' results in their order.
    """
    points = [next(a) for a in ascents]
    results = [None] * len(ascents)
    live = list(range(len(ascents)))
    while live:
        vals, grads = value_grad(np.array([points[i] for i in live]))
        going = []
        for i, val, grad in zip(live, vals.tolist(), grads):
            try:
                points[i] = ascents[i].send((val, grad))
                going.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        live = going
    return results


def lambda_argsup(sigma1, correlation, nu2: int, c, spec: EquivalenceSpec = None,
                  tol: float = 1e-5, seed: int = 0, t=None,
                  n_wishart: int = 4000) -> LambdaResult:
    """Worst point of the null boundary for the margins c (and multipliers t).

    The inputs are checked as an :class:`powerkernel.MvtPowerQuery` (a
    length-1 c or t applies to every coordinate; t defaults to 0, fixed
    margins), and sigma1 must be positive.  The objective is the joint
    rejection probability, as :class:`powerkernel._JointRejection`: at t = 0
    one normal rectangle, the box of the margins c about theta, by
    :func:`statdist.rect_prob` to ``tol`` (the box :func:`power_mvt`
    evaluates at t = 0); with multipliers t > 0 the Monte Carlo average of
    :func:`power_mvt` over ``n_wishart`` standard-error draws, drawn once
    per search from ``seed`` so that every value equals ``power_mvt``'s.

    If the correlation is diagonal (:func:`statdist._is_diagonal`) the best
    of the K axis candidates +c0 e_h is the answer at t = 0 and t > 0
    alike, their values from one call of the exact product
    :func:`powerkernel._independent`; every box is centrally symmetric, so
    -c0 e_h has the same value.  With independent
    coordinates the joint rejection probability is a product of
    one-dimensional factors, each symmetric and non-increasing in
    |theta_k|: at t = 0 a factor is a centred interval probability of a
    normal (Anderson 1955), and at t > 0 a mixture of such probabilities
    over the standard-error estimate.  On the face {theta_h = +-c0} the
    product is therefore largest with every other coordinate at 0.

    Otherwise the axis candidates come first, then the K faces
    {theta_h = +c0} are searched (the negative faces follow by symmetry).
    At t = 0 the normal probability of a box is log-concave in its centre
    (Prekopa 1973), so each face has a single maximizer; the t = 0 search
    is :func:`_argsup_fixed`, on the margins' offsets (c - c0) / sigma1,
    which :func:`ctost_mvt_adjust` also calls with each face's previous
    maximizer as its start.  With K = 2 each face maximizer is the root of
    one increasing equation in the free coordinate (:func:`_argsup_pair`);
    with K >= 3 the ascent of :func:`_argsup` from the face centre finds
    it.  At t > 0 the mixture is not known to be log-concave: every face is
    ascended by :func:`_argsup`, and a second start at 0.5 c0 runs as well.
    Raises NonConvergenceError when a face ascent stops at _ASCENT_MAX_ITER
    steps, or the K = 2 root solve at its round cap.
    """
    c0 = (spec or EquivalenceSpec()).c0
    q = MvtPowerQuery(np.zeros(np.size(sigma1)), sigma1, correlation, nu2,
                      0.0 if t is None else t, c)
    if not np.all(q.sigma1 > 0):
        raise InputError("sigma1 entries must be positive")
    k = q.dim
    if _is_diagonal(q.correlation):
        return _best_axis(_independent(c0 * np.eye(k), q.sigma1, q.nu2, q.t, q.c), c0)
    if not q.t.any():
        return _argsup_fixed(q.sigma1, q.correlation, (q.c - c0) / q.sigma1, c0,
                             tol, seed)[0]
    obj = _power_mvt_mc(q.sigma1, q.correlation, q.nu2, q.t, q.c, seed, n_wishart)
    # two starts per face; the sampled objective resolves about tol
    starts = (np.zeros(k - 1), np.full(k - 1, 0.5 * c0))
    return _argsup(obj, c0, tol, [starts] * k)[0]


def _argsup_fixed(sigma1, corr, u, c0: float, tol: float, seed: int,
                  starts=None):
    """The t = 0 search of :func:`lambda_argsup` for the margins
    c0 + sigma1 u, given as their standardized offsets u, from given face
    starts.

    ``starts[h]`` holds the free coordinates (theta without entry h) from
    which the search of face h begins, the root solve of
    :func:`_argsup_pair` at K = 2 and the ascent of :func:`_argsup`
    otherwise; by default every face starts at its centre.  Returns
    (LambdaResult, ends), where ``ends[h]`` is the point the search of face
    h reached, in the same coordinates.  A diagonal correlation takes the
    best axis point from one call of :func:`powerkernel._independent` (at
    t = 0 no factor depends on nu2) and has no ends (None).
    """
    k = sigma1.size
    if _is_diagonal(corr):
        return _best_axis(_independent(c0 * np.eye(k), sigma1, 1, 0.0, c0, u), c0), None
    # deterministic rectangles resolve machine-level differences, quasi-
    # Monte Carlo ones (at a fixed point count, so smooth in theta) about tol
    exact = _exact_rule(corr)
    obj = _JointRejection(np.full(k, c0), u[None, :], sigma1, corr,
                          {"tol": tol, "seed": seed,
                           "n_points": None if exact else 1 << 12})
    if starts is None:
        starts = [np.zeros(k - 1)] * k
    snap = 1e-12 if exact else tol
    if k == 2:
        return _argsup_pair(obj, c0, snap, starts)
    return _argsup(obj, c0, snap, [(x,) for x in starts])


def _best_axis(vals, c0: float) -> LambdaResult:
    """The best of the K axis candidates +c0 e_h, given their K objective
    values ``vals`` (taken on the stack c0 I in one call); the first of
    equal values wins.  Every box is centrally symmetric, so -c0 e_h would
    repeat the value of +c0 e_h."""
    best = int(np.argmax(vals))
    lam = np.zeros(len(vals))
    lam[best] = c0
    return LambdaResult(lambda_=lam, objective=float(vals[best]), face=best,
                        candidates_evaluated=len(vals))


def _choose(axis: LambdaResult, best_val: float, best, snap: float, count: int) -> LambdaResult:
    """The face point ``best`` = (face, theta) of value ``best_val``, or the
    axis candidate ``axis`` if it is within ``snap`` of it."""
    if axis.objective >= best_val - snap:
        return replace(axis, candidates_evaluated=count)
    face, theta = best
    return LambdaResult(lambda_=theta, objective=best_val, face=face,
                        candidates_evaluated=count)


def _argsup(obj, c0: float, snap: float, starts):
    """Axis candidates, then the face ascents, for correlated coordinates
    (K >= 3 at t = 0, and any K at t > 0; :func:`_argsup_pair` takes K = 2
    at t = 0).

    ``obj``, a :class:`powerkernel._JointRejection`, gives the K axis
    values (:func:`_best_axis`) from its ``value``, then is searched on
    each face h from every start in ``starts[h]`` by :func:`_face_ascent`,
    all ascents in lockstep rounds of one ``obj.value_grad`` call each
    (:func:`_lockstep`): since a rectangle's value does not depend on its
    batch, each ascent ends where it would alone.  The best point wins; an
    axis candidate within ``snap`` of it is preferred.  Returns
    (LambdaResult, ends) with ``ends[h]`` the free coordinates of the best
    point face h reached.
    """
    k = obj.sigma1.size
    axis = _best_axis(obj.value(c0 * np.eye(k)), c0)
    results = iter(_lockstep(obj.value_grad, [
        _face_ascent(obj.sigma1, face, start, c0)
        for face in range(k) for start in starts[face]]))
    count = axis.candidates_evaluated
    best_val = -1.0
    best = None
    ends = []
    for face in range(k):
        face_val = -1.0
        for _ in starts[face]:
            theta, val, evals = next(results)
            count += evals
            if val > face_val:
                face_val, end = val, np.delete(theta, face)
            if val > best_val:
                best_val, best = val, (face, theta)
        ends.append(end)
    return _choose(axis, best_val, best, snap, count), ends


def _argsup_pair(obj, c0: float, snap: float, starts):
    """:func:`_argsup` for two correlated coordinates at t = 0: each face
    maximizer as the root of one increasing equation, no ascent.

    On the face {theta_i = c0} the free coordinate theta_j in [-c0, c0]
    (j = 1 - i) has box limits a_j < b_j a fixed distance apart, and the
    box probability moves as (h(a_j) - h(b_j)) / sigma_j, with h the limit
    density given coordinate i's limits (:func:`statdist._log_limit_dens`).
    h is log-concave, so R = sigma_j (log h(b_j) - log h(a_j)) increases in
    theta_j, with slope (log h)'(a_j) - (log h)'(b_j), and the face maximum
    is at its root.  R takes 0 where both log densities are -inf: that face
    holds no mass.  One call evaluates R at both ends of both faces; a face
    with R(-c0) >= 0 takes -c0, else one with R(c0) <= 0 takes c0, and the
    others are solved together by :func:`univariate._increasing_root` from
    ``starts`` to |R| <= _PAIR_TOL, or until no double lies inside their
    bracket.  One ``obj.value`` call then takes the two axis candidates
    and the two face points, and :func:`_choose` picks the answer.  Returns
    (LambdaResult, ends) with ``ends[i]`` the free coordinate of face i's
    point; raises NonConvergenceError if the root solve stops at its round
    cap.
    """
    sig, u = obj.sigma1, obj.offset[0]
    rho = float(obj.corr[0, 1])
    # by face i: coordinate i's limits, the scale of the free coordinate and
    # the offsets of its limits, as rows (a, b) of _box_limits
    lo, hi = _box_limits(c0, sig, c0, u)
    free_sig = sig[::-1]
    edges, offsets = np.array([[-c0], [c0]]), np.array([-u[::-1], u[::-1]])
    slopes = np.empty(2)

    def resid(theta, faces):
        logs, ds = _log_limit_dens((edges - theta) / free_sig[faces] + offsets[:, faces],
                                   lo[faces], hi[faces], rho)
        r = np.subtract(logs[1], logs[0], out=np.zeros(theta.shape),
                        where=logs[1] != logs[0])
        slopes[faces] = ds[0] - ds[1]
        return free_sig[faces] * r

    at_ends = resid(np.array([-c0, -c0, c0, c0]), np.array([0, 1, 0, 1]))
    x = np.where(at_ends[:2] >= 0.0, -c0, c0)
    inner = np.flatnonzero((at_ends[:2] < 0.0) & (at_ends[2:] > 0.0))
    if inner.size:
        root, r, rounds, _ = _increasing_root(
            lambda theta, rows: resid(theta, inner[rows]),
            np.full(inner.size, -c0), np.full(inner.size, c0), _PAIR_TOL,
            np.array([starts[h][0] for h in inner], dtype=float),
            lambda theta, rows: slopes[inner[rows]])
        if rounds == univariate._ROOT_MAX_ITER:
            raise NonConvergenceError(
                f"K = 2 face root stopped unconverged after {rounds} rounds, "
                f"residual {np.abs(r).max():.3e}", last=root)
        x[inner] = root
    points = np.array([[c0, x[0]], [x[1], c0]])
    vals = obj.value(np.concatenate([c0 * np.eye(2), points]))
    face = int(np.argmax(vals[2:]))
    return _choose(_best_axis(vals[:2], c0), float(vals[2 + face]),
                   (face, points[face]), snap, 4), [x[:1], x[1:]]


# ---------------------------------------------------------------------------
# joint margin adjustment
# ---------------------------------------------------------------------------

def ctost_mvt_adjust(s: MvtSummary, spec: EquivalenceSpec = None,
                     tol: float = 1e-6, seed: int = 0) -> MvtAdjustment:
    """Solve for per-dimension margins with joint size alpha0.

    Alternates two levels.  Given the current worst boundary point, the
    inner solve (:func:`_inner_solve`) finds the shared marginal size gamma
    at which the joint rejection probability there equals alpha0, together
    with the margins of marginal size gamma, by one Newton iteration on
    gamma and every margin at once.  The outer loop then relocates the
    worst point for the updated margins.  Stops when the joint size
    residual is within tol.  Margins are carried as standardized
    offsets u = (c - c0) / sigma1, exact at any sigma1; c_star = c0 + sigma1 u.

    The fit starts at gamma = alpha0 with the margins matched to it by
    :func:`univariate._match_margin`, and searches once there
    (:func:`_argsup_fixed`) before its first inner solve, so
    outer_iterations is the number of searches less one and the first
    entry of a NonConvergenceError's trace has gamma = alpha0.  Each inner solve resumes from the
    gamma and margins the previous one ended at.  Every worst-point search
    after the first starts each face's search at that face's maximizer in
    the previous search; at t = 0 each face has a single maximizer, so the
    start does not change what is found.  gamma can only move upward from
    alpha0: each dimension's test runs at a level at least as large as the
    nominal one.

    Raises NonConvergenceError when the outer loop does not reach tol in
    _OUTER_MAX rounds, when an inner solve or a worst-point search
    (:func:`_argsup_fixed`) reaches its cap, and when a margin does not
    match its marginal size.
    """
    spec = spec or EquivalenceSpec()
    sig = s.sigma1_hat
    corr = s.correlation_hat
    c0, alpha0 = spec.c0, spec.alpha0
    eval_tol = 0.25 * tol
    exact = _exact_rule(corr)
    rect = {"tol": eval_tol, "seed": seed, "n_points": None}
    trace = []
    gamma, u = alpha0, _margins(sig, alpha0, c0, trace)
    lam, ends = _argsup_fixed(sig, corr, u, c0, _SEARCH_TOL, seed)
    inner_total = 0
    for r in range(_OUTER_MAX + 1):
        # a deterministic rule gives the search's own value of this box again
        resid = (lam.objective if exact else rect_prob(
            *_box_limits(lam.lambda_, sig, c0, u), corr, **rect)) - alpha0
        trace.append({"outer": r, "gamma": gamma, "residual": resid,
                      "lambda": lam.lambda_.tolist()})
        if abs(resid) <= tol:
            return MvtAdjustment(c_star=c0 + sig * u, gamma=gamma, lambda_=lam,
                                 outer_iterations=r, inner_iterations=inner_total)
        if r == _OUTER_MAX:
            break
        gamma, u, rounds = _inner_solve(sig, corr, lam.lambda_, gamma, u, spec,
                                        _INNER_TOL if exact else eval_tol, rect, trace)
        # every round but the last moved gamma and the margins
        inner_total += rounds - 1
        lam, ends = _argsup_fixed(sig, corr, u, c0, _SEARCH_TOL, seed + r + 1,
                                  ends)
    raise NonConvergenceError(
        f"joint margin iteration did not reach |residual| <= {tol} "
        f"within {_OUTER_MAX} outer rounds", last=c0 + sig * u, trace=trace)


def _margins(sigma1, gamma: float, c0: float, trace):
    """The offsets u of the margins of marginal size gamma to _MARGIN_TOL,
    by :func:`univariate._match_margin`; NonConvergenceError if one fails."""
    u, _, conv, _ = _match_margin(sigma1, gamma, c0, tol=_MARGIN_TOL)
    if not np.all(conv):
        raise NonConvergenceError(
            f"margin at marginal size {gamma!r} did not converge",
            last=c0 + sigma1 * u, trace=trace)
    return u


def _inner_solve(sig, corr, point, gamma: float, u, spec: EquivalenceSpec,
                 inner_tol: float, rect: dict, trace):
    """Shared marginal size gamma and margin offsets u making the joint
    size at the worst point ``point`` alpha0, from a start (gamma, u).

    Newton's method on the K + 1 equations size_k(u_k) = gamma and
    P(point; u) = alpha0, whose Jacobian is an arrowhead: each round makes
    one :func:`statdist.rect_grad` call on the box, for the joint size
    residual J and the derivatives da, db in its standardized limits, and
    takes the sizes s_k of the margins with their slopes
    (:func:`univariate._size_slope`).  With
    the exact weights w_k = (db_k - da_k) / dens_k, dens_k = ds_k/du_k =
    phi(2 c0 / sigma_k + u_k) + phi(u_k) (dP/du_k over ds_k/du_k), gamma
    moves by -(J - sum_k w_k (s_k - gamma)) / sum_k w_k and each offset by
    its own step (gamma_new - s_k) / dens_k.

    A bracket [alpha0, 1 - (1 - alpha0) / K] guards gamma: at the upper end
    every marginal size is at least gamma, so by Bonferroni the joint size
    is at least alpha0.  Only a round whose margins match gamma to
    _MARGIN_TOL, where J is the joint size residual at gamma itself,
    shrinks it; a step outside it takes the midpoint instead.  An offset
    step that leaves no positive margin, or is not finite, re-solves that
    margin (:func:`_margins`).  Stops once |J| <= ``inner_tol`` and every
    |s_k - gamma| <= _MARGIN_TOL.  Returns (gamma, u, rounds); raises
    NonConvergenceError after univariate._ROOT_MAX_ITER rounds.
    """
    c0, alpha0 = spec.c0, spec.alpha0
    lo, hi = alpha0, 1.0 - (1.0 - alpha0) / sig.size
    floor = -c0 / sig
    cap = univariate._ROOT_MAX_ITER
    for rounds in range(1, cap + 1):
        p, da, db = rect_grad(*_box_limits(point, sig, c0, u), corr, **rect)
        resid = p - alpha0
        size, dens = _size_slope(u, sig, c0)
        gap = size - gamma
        matched = np.abs(gap).max() <= _MARGIN_TOL
        if matched and abs(resid) <= inner_tol:
            return gamma, u, rounds
        if rounds == cap:
            break
        if matched:
            lo, hi = (gamma, hi) if resid < 0 else (lo, gamma)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (db - da) / dens
            step = gamma - (resid - w @ gap) / w.sum()
            gamma = float(step) if lo < step < hi else 0.5 * (lo + hi)
            u = u + (gamma - size) / dens
        bad = ~((u > floor) & (u < np.inf))
        if bad.any():
            u[bad] = _margins(sig[bad], gamma, c0, trace)
    raise NonConvergenceError(
        f"marginal size gamma stopped unconverged after {rounds} inner "
        f"rounds, joint size residual {resid:.3e}", last=c0 + sig * u, trace=trace)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def _alpha_star_joint(s: MvtSummary, spec: EquivalenceSpec, tol: float,
                      seed: int):
    """Shared level alpha* making the joint size alpha0 with margins c0.

    Bisection (:func:`_increasing_root`) over (alpha0, 0.5], one worst-point
    search per point, at t > 0 over _N_WISHART standard-error draws; raises
    NonConvergenceError if it or a search stops unconverged.
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

    if method == "ctost":
        adj = ctost_mvt_adjust(s, spec, tol=tol, seed=seed)
        margins = adj.c_star
        iip = bool(np.all(margins < c0))
        half = c0 - margins if iip else None
        meta = {"gamma": adj.gamma, "outer_iterations": adj.outer_iterations,
                "inner_iterations": adj.inner_iterations,
                "lambda": adj.lambda_.lambda_.tolist(),
                "lambda_objective": adj.lambda_.objective}
    else:
        if method == "tost":
            t = float(t_quantile(alpha0, s.nu2))
            meta = {"t_used": t}
        else:
            alpha, lam, saturated, resid = _alpha_star_joint(
                s, spec, tol=max(tol, 1e-6), seed=seed)
            t = 0.0 if saturated else float(t_quantile(alpha, s.nu2))
            meta = {"alpha_adj": alpha, "t_used": t, "saturated": saturated,
                    "size_residual": resid, "lambda": lam.lambda_.tolist()}
        half = t * sig
        margins = c0 - half
        iip = True
    ivs = None if half is None else tuple(
        (float(th - h), float(th + h)) for th, h in zip(theta, half))
    return DecisionReport(
        method=method, reject=bool(np.all(np.abs(theta) < margins)), theta_hat=theta,
        margins=tuple(margins), intervals=ivs, iip=iip, c0=c0, alpha0=alpha0,
        meta={**meta, "nu2": s.nu2, "dim": s.dim,
              "correlation_assumed": s.correlation_assumed})

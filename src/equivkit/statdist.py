"""Distributional building blocks: special functions, the shared adaptive
quadrature, the scaled-chi law of a standard-error estimate,
multivariate-normal rectangle probabilities, and Wishart-diagonal sampling.

Everything here is pure given its inputs.  Sampling takes an explicit
(seed, stream) pair and is reproducible independent of call order; see
:func:`rng_stream`.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
from scipy import special

from .base import InputError, NonConvergenceError

__all__ = [
    "t_quantile",
    "chi2_quantile",
    "rect_prob",
    "rect_grad",
    "sample_wishart_diag",
    "sample_wishart_cov",
    "rng_stream",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)


@lru_cache(maxsize=32)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=16)
def _gauss_kronrod(n: int):
    """Gauss-Kronrod rule of 2n + 1 points on [-1, 1], cached read-only.

    Returns (x, wk, wg): the Kronrod nodes in increasing order, their
    weights (exact to degree 3n + 1), and the weights of the embedded
    n-point Gauss rule on its nodes x[1::2], zero on the others.  The
    Jacobi-Kronrod matrix comes from Laurie's mixed-moment recurrence
    (Laurie 1997, Math. Comp. 66) on the Legendre coefficients, the rule
    from its eigen-decomposition (Golub-Welsch).  The recurrence runs on
    [-2, 2], where those coefficients tend to 1, so nothing underflows;
    the diagonal is zero for a symmetric weight.
    """
    # b[k] is the k-th recurrence coefficient: the Legendre ones up to
    # ceil(3n/2), the recurrence's own above
    top = (3 * n + 1) // 2
    k = np.arange(1.0, top + 1)
    b = np.zeros(2 * n + 1)
    b[1:top + 1] = k * k / (k * k - 0.25)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    off = np.sqrt(b[1:])
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    # average each node with its mirror image so the rule is exactly
    # symmetric, and map [-2, 2] (mass 1) to [-1, 1] (mass 2)
    x = 0.25 * (x - x[::-1])
    wk = v[0] ** 2 + v[0, ::-1] ** 2
    wg = np.zeros_like(wk)
    wg[1::2] = _leggauss(n)[1]
    for arr in (x, wk, wg):
        arr.flags.writeable = False
    return x, wk, wg


# Gauss-Kronrod order n (2n + 1 points) at which every adaptive integral
# stops; a 4097-point rule would take a dense eigen-decomposition of some
# 15 s and 270 MB, against 2 s and 70 MB here.  Integrand values per chunk
# of rows, which bounds an integral's memory.
_GK_LAST = 1024
_GK_CHUNK = 1 << 16


def _gk_rows(integrand, lo, hi, tol, first, message):
    """Integral of each row over [lo, hi] (0 where hi <= lo).

    ``integrand(x, rows)`` gives rows ``rows`` at their nodes x, of shape
    (len(rows), 2n + 1).  A row returns its Kronrod value once it and the
    embedded Gauss value agree to ``tol`` max(1, |Kronrod|), with n doubled
    from ``first``; rows left at _GK_LAST raise NonConvergenceError with the
    text ``message(rows, points)``.  Rows go through in chunks, each summed
    on its own, so a value does not depend on the rows sharing the call.
    """
    out = np.zeros(lo.size)
    rows = np.flatnonzero(hi > lo)
    n = first
    while rows.size:
        x, wk, wg = _gauss_kronrod(n)
        kron, gauss = np.empty(rows.size), np.empty(rows.size)
        step = max(1, _GK_CHUNK // x.size)
        # with every row left, a chunk is a slice, which indexes for less
        every = rows.size == lo.size
        for start in range(0, rows.size, step):
            i = slice(start, start + step) if every else rows[start:start + step]
            half = 0.5 * (hi[i] - lo[i])
            f = integrand(lo[i, None] + half[:, None] * (x + 1.0), i)
            kron[start:start + step] = half * (f * wk).sum(axis=1)
            gauss[start:start + step] = half * (f * wg).sum(axis=1)
        done = np.abs(kron - gauss) <= tol * np.maximum(1.0, np.abs(kron))
        out[rows[done]] = kron[done]
        rows = rows[~done]
        if rows.size and n >= _GK_LAST:
            raise NonConvergenceError(message(rows, 2 * n + 1))
        n *= 2
    return out


# ---------------------------------------------------------------------------
# scalar/vector special functions
# ---------------------------------------------------------------------------

def t_quantile(alpha, nu2):
    """Upper-tail Student t quantile: survival(t) = alpha.

    alpha must lie in (0, 1); nu2 >= 1 degrees of freedom.
    """
    alpha = np.asarray(alpha, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)
    if np.any((alpha <= 0.0) | (alpha >= 1.0)):
        raise InputError("t_quantile requires 0 < alpha < 1")
    if np.any(nu2 < 1):
        raise InputError("t_quantile requires nu2 >= 1")
    out = special.stdtrit(nu2, 1.0 - alpha)
    # survival(0) = 0.5 exactly; stdtrit can return -0.0 here
    out = np.where(alpha == 0.5, 0.0, out)
    return out if out.ndim else float(out)


def chi2_quantile(p, nu):
    """Chi-square quantile (lower tail); requires 0 < p < 1, nu > 0."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise InputError("chi2_quantile requires 0 < p < 1")
    out = special.chdtri(nu, 1.0 - p)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the sampling law of a standard-error estimate: nu2 s^2 / sigma1^2 is
# chi-square(nu2), so s = sigma1 * sqrt(chi2(nu2) / nu2)
# ---------------------------------------------------------------------------

# chi-square tail mass dropped on each side when truncating an integral over s
_TAIL_MASS = 5e-11


@lru_cache(maxsize=128)
def _unit_chi_bounds(nu2):
    """Central-mass interval of s / sigma1 = sqrt(chi2(nu2) / nu2).

    Drops _TAIL_MASS on each side.  The bounds depend on nu2 alone, so they
    are computed once per nu2 (as passed) and shared by every solve.
    """
    return (np.sqrt(chi2_quantile(_TAIL_MASS, nu2) / nu2),
            np.sqrt(chi2_quantile(1.0 - _TAIL_MASS, nu2) / nu2))


def _scaled_chi_logpdf(x, sigma1, nu2):
    """Log density of s = sigma1 * sqrt(chi2(nu2) / nu2); broadcasts over all args."""
    nu = np.asarray(nu2, dtype=float)
    s2 = np.asarray(sigma1, dtype=float) ** 2
    return (
        np.log(2.0)
        + 0.5 * nu * (np.log(nu) - np.log(2.0 * s2))
        + (nu - 1.0) * np.log(x)
        - nu * x * x / (2.0 * s2)
        - special.gammaln(0.5 * nu)
    )


# ---------------------------------------------------------------------------
# multivariate normal rectangles
# ---------------------------------------------------------------------------

# limits are clipped here; the normal mass beyond carries < 1e-17
_LIMIT = 8.5
# agreement the Kronrod and Gauss values of a rectangle integral must reach
# (absolute below 1)
_RECT_TOL = 1e-10
# scrambled Sobol sets per QMC estimate, and the adaptive point cap
_QMC_SCRAMBLES = 8
_QMC_MAX = 1 << 17


def rect_prob(a, b, corr, tol: float = 1e-5, seed: int = 0, n_points: int = None):
    """P(a < X < b) for X ~ N(0, corr), one value per box.

    ``a`` and ``b`` hold standardized limits, both of shape (..., K);
    ``corr`` must be a K x K correlation matrix, of which only the shape is
    checked here (``MvtSummary`` and ``MvtPowerQuery`` check the rest).
    Returns a float for one box, else an array of shape ``a.shape[:-1]``.
    The method depends only on K and ``corr``:

    - an empty box (some lower >= upper) gives 0;
    - K = 1 or a diagonal ``corr`` (off-diagonals below 1e-14) gives the
      product of normal CDF differences;
    - K = 2 is closed form in Owen's T function (Owen 1956);
    - K >= 3 with every off-diagonal entry equal to one rho > 0 is a
      one-factor integral over a common normal factor (Dunnett & Sobel
      1955), other K = 3/4 an integral over the first coordinate of the
      conditional box of the others (Genz & Bretz 2009); both by a
      Gauss-Kronrod pair with error control (:func:`_gk_rows`), which raises
      NonConvergenceError when the pair still disagrees at 2049 points;
    - other K >= 5 is randomized quasi-Monte Carlo over scrambled Sobol sets seeded
      from ``seed``, with ``n_points`` points per set when given (a smooth
      objective across calls) and otherwise doubling from 2^10 until three
      standard errors fall below ``tol``.  Raises NonConvergenceError when
      2^17 points do not reach it.

    Deterministic given its arguments; each box's value does not depend on
    the other boxes in the call.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = a.shape[-1]
    shape = a.shape[:-1]
    corr = np.asarray(corr, dtype=float)
    if b.shape != a.shape or corr.shape != (k, k):
        raise InputError("rect_prob needs a and b of one shape (..., K) and a K x K corr")
    a = a.reshape(-1, k)
    b = b.reshape(-1, k)
    live = (b > a).all(axis=1)
    if live.all():
        out = _live_boxes(a, b, corr, tol, seed, n_points)
    else:
        out = np.zeros(live.size)
        if live.any():
            out[live] = _live_boxes(a[live], b[live], corr, tol, seed, n_points)
    out = np.minimum(np.maximum(out, 0.0), 1.0).reshape(shape)
    return out if out.ndim else float(out)


def rect_grad(a, b, corr, tol: float = 1e-5, seed: int = 0, n_points: int = None):
    """Partial derivatives of :func:`rect_prob` in the box limits.

    Returns (da, db), each of the shape of ``a``: for X ~ N(0, corr),
    db[..., j] = phi(b_j) P(a_i < X_i < b_i for i != j | X_j = b_j) and
    da[..., j] = -phi(a_j) P(... | X_j = a_j) (Genz & Bretz 2009, sec. 2).
    Given X_j = x the other coordinates are normal with means corr_ij x and
    the conditional correlation, so the conditionals at both limits of
    every box are rectangles of dimension K - 1.  Coordinates whose
    conditional correlations are equal share one ``rect_prob`` call, taking
    ``tol``, ``seed`` and ``n_points`` as given: under an equicorrelation
    rho every conditional correlation is rho / (1 + rho), so all K
    coordinates take one call, and a general correlation takes one call per
    coordinate.  At K = 2 each conditional is one normal interval, and both
    coordinates at both limits take one pass of normal CDFs.  An empty box
    has zero derivatives.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = a.shape[-1]
    corr = np.asarray(corr, dtype=float)
    if b.shape != a.shape or corr.shape != (k, k):
        raise InputError("rect_grad needs a and b of one shape (..., K) and a K x K corr")
    lo = a.reshape(-1, k)
    hi = b.reshape(-1, k)
    live = (hi > lo).all(axis=1)
    lo, hi = lo[live], hi[live]
    da = np.zeros((live.size, k))
    db = np.zeros((live.size, k))
    if k == 2:
        # x[l, i, j]: limit l (lower, upper) of coordinate j of box i; the
        # other coordinate's interval is read in reversed column order
        x = np.stack([lo, hi])
        r = corr[[1, 0], [0, 1]]
        sd = np.sqrt((1.0 - r) * (1.0 + r))
        mean = np.minimum(np.maximum(x, -_LIMIT), _LIMIT) * r
        cond = (special.ndtr((hi[:, ::-1] - mean) / sd)
                - special.ndtr((lo[:, ::-1] - mean) / sd))
        dens = np.exp(-0.5 * x * x) / _SQRT2PI * np.minimum(np.maximum(cond, 0.0), 1.0)
        da[live] = -dens[0]
        db[live] = dens[1]
        return da.reshape(a.shape), db.reshape(a.shape)
    if k == 1 or not live.any():
        dens = np.exp(-0.5 * np.stack([lo, hi]) ** 2) / _SQRT2PI
        da[live] = -dens[0]
        db[live] = dens[1]
        return da.reshape(a.shape), db.reshape(a.shape)
    # per conditional correlation: the coordinates j, their limits x (lower
    # then upper, one row each), and the conditional boxes at those limits
    groups = {}
    for j in range(k):
        rest, r, sd, cond_corr = _given(corr, j)
        x = np.concatenate([lo[:, j], hi[:, j]])
        mean = np.minimum(np.maximum(x, -_LIMIT), _LIMIT)[:, None] * r
        rest_lo = np.concatenate([lo[:, rest], lo[:, rest]])
        rest_hi = np.concatenate([hi[:, rest], hi[:, rest]])
        group = groups.setdefault(cond_corr.tobytes(), (cond_corr, [], [], []))
        group[1].append((j, x))
        group[2].append((rest_lo - mean) / sd)
        group[3].append((rest_hi - mean) / sd)
    for cond_corr, cols, cond_lo, cond_hi in groups.values():
        probs = rect_prob(np.concatenate(cond_lo), np.concatenate(cond_hi), cond_corr,
                          tol=tol, seed=seed, n_points=n_points).reshape(len(cols), -1)
        for (j, x), p in zip(cols, probs):
            dens = np.exp(-0.5 * x * x) / _SQRT2PI * p
            da[live, j] = -dens[:lo.shape[0]]
            db[live, j] = dens[lo.shape[0]:]
    return da.reshape(a.shape), db.reshape(a.shape)


def _given(corr: np.ndarray, j: int):
    """Law of the other coordinates of X ~ N(0, corr) given X_j = x: their
    mask, slopes r (means r x), standard deviations and correlation."""
    rest = np.arange(corr.shape[0]) != j
    r = corr[rest, j]
    sd = np.sqrt((1.0 - r) * (1.0 + r))
    cond_corr = (corr[np.ix_(rest, rest)] - np.outer(r, r)) / np.outer(sd, sd)
    np.fill_diagonal(cond_corr, 1.0)
    return rest, r, sd, cond_corr


def _is_diagonal(corr: np.ndarray) -> bool:
    """Whether the correlation matrix ``corr`` makes its coordinates independent.

    True when every off-diagonal entry is below 1e-14 in magnitude.  The
    diagonal, which :func:`_check_corr` holds at 1 to within 1e-12, supplies
    exactly K entries at or above 1e-14, so counting those is the
    off-diagonal test in the fewest array operations: it runs on every
    rectangle call.  Every independence shortcut in the package uses this
    one rule.
    """
    return bool(np.count_nonzero(np.abs(corr) >= 1e-14) == corr.shape[0])


def _equicorrelation(corr: np.ndarray):
    """The common off-diagonal entry of ``corr`` if it is positive, else None.

    Only a unit-diagonal ``corr`` whose K (K - 1) off-diagonal entries all
    equal one rho > 0 qualifies; rho < 1 cannot equal a diagonal entry.
    """
    k = corr.shape[0]
    rho = corr[0, 1] if k > 1 else 0.0
    if rho > 0.0 and np.count_nonzero(corr == rho) == k * (k - 1):
        return float(rho)
    return None


def _exact_rule(corr: np.ndarray) -> bool:
    """Whether :func:`rect_prob` evaluates boxes under ``corr`` by a
    deterministic rule (any K <= 4, or a diagonal or positive
    equicorrelation at any K) rather than by quasi-Monte Carlo."""
    return (corr.shape[0] <= 4 or _is_diagonal(corr)
            or _equicorrelation(corr) is not None)


def _live_boxes(a, b, corr, tol, seed, n_points):
    """rect_prob for non-empty boxes (m, K)."""
    k = a.shape[1]
    if _is_diagonal(corr):
        return np.prod(special.ndtr(b) - special.ndtr(a), axis=1)
    if k == 2:
        return _bvn_rect(a[:, 0], b[:, 0], a[:, 1], b[:, 1], corr[0, 1])
    rho = _equicorrelation(corr)
    if rho is not None:
        return _one_factor(a, b, rho)
    if k <= 4:
        return _conditional(a, b, corr)
    return _genz_qmc(a, b, corr, seed, n_points or (1 << 10),
                     None if n_points else tol)[0]


# row i of the corner stack in _bvn_rect holds the other coordinate of row i
_MIRROR = np.array([4, 5, 6, 7, 0, 1, 2, 3])


def _bvn_rect(a1, b1, a2, b2, rho):
    """Standard bivariate normal rectangle probabilities by Owen's T.

    With s = sqrt(1 - rho^2) and beta = 1/2 when h and k have opposite
    signs, else 0, the CDF is (Owen 1956)
    Phi2(h, k) = Phi(h)/2 + Phi(k)/2 - T(h, (k - rho h)/(h s))
    - T(k, (h - rho k)/(k s)) - beta.  The Phi terms cancel over the four
    corners of a box, so one owens_t call over the eight corner arguments
    gives the box.
    """
    h = np.array([b1, a1, b1, a1, b2, b2, a2, a2])
    h = np.minimum(np.maximum(h, -_LIMIT), _LIMIT)
    # a limit at (or within 1e-300 of) 0 becomes +1e-300, which takes the
    # formula's limit as h -> +0 without overflow: the T argument tends to
    # sign(k) inf, or at the origin to (1 - rho)/s, which gives
    # Phi2(0, 0) = 1/4 + arcsin(rho) / (2 pi)
    h[np.abs(h) < 1e-300] = 1e-300
    k = h[_MIRROR]
    arg = (k - rho * h) / (h * np.sqrt((1.0 - rho) * (1.0 + rho)))
    t = special.owens_t(h, arg)
    corner = t[:4] + t[4:] + 0.5 * ((h[:4] < 0.0) != (k[:4] < 0.0))
    return corner[1] + corner[2] - corner[0] - corner[3]


def _one_factor(a, b, rho):
    """Boxes (m, K) under the equicorrelation rho > 0.

    With X_k = sqrt(rho) Z + sqrt(1 - rho) e_k for independent standard
    normals Z and e_k, a box's probability is the integral over z of
    phi(z) prod_k [Phi((b_k - sqrt(rho) z) / sqrt(1 - rho))
    - Phi((a_k - sqrt(rho) z) / sqrt(1 - rho))] (Dunnett & Sobel 1955;
    Genz & Bretz 2009, sec. 2.2).  The z-interval of a box is cut to where
    phi and every factor carry mass above Phi(-_LIMIT).
    """
    load, spread = np.sqrt(rho), np.sqrt(1.0 - rho)
    lo = np.maximum(np.max(a - _LIMIT * spread, axis=1) / load, -_LIMIT)
    hi = np.minimum(np.min(b + _LIMIT * spread, axis=1) / load, _LIMIT)

    def integrand(z, i):
        shift = (load * z)[..., None]
        f = np.prod(special.ndtr((b[i, None, :] - shift) / spread)
                    - special.ndtr((a[i, None, :] - shift) / spread), axis=2)
        return f * (np.exp(-0.5 * z * z) / _SQRT2PI)

    return _gk_rows(integrand, lo, hi, _RECT_TOL, 32, lambda rows, points: (
        f"one-factor rectangle probability did not converge for {rows.size} "
        f"box(es) at {points} points (rho={rho!r})"))


def _conditional(a, b, corr):
    """Boxes (m, K), K = 3 or 4, under any other correlation.

    The integral over x in [a_1, b_1] (cut to +-_LIMIT) of phi(x) times the
    box of the other coordinates given X_1 = x (Genz & Bretz 2009, sec. 2),
    by :func:`_gk_rows` from 33 points, as the rule nests at K = 4: the
    conditional boxes go through :func:`_live_boxes`.
    """
    rest, r, sd, cond_corr = _given(corr, 0)
    a_rest, b_rest = a[:, rest], b[:, rest]

    def integrand(x, i):
        mean = x[..., None] * r
        # (tol, seed and n_points reach only K >= 5)
        p = _live_boxes(((a_rest[i, None, :] - mean) / sd).reshape(-1, r.size),
                        ((b_rest[i, None, :] - mean) / sd).reshape(-1, r.size),
                        cond_corr, tol=None, seed=0, n_points=None)
        return p.reshape(x.shape) * (np.exp(-0.5 * x * x) / _SQRT2PI)

    return _gk_rows(
        integrand, np.maximum(a[:, 0], -_LIMIT), np.minimum(b[:, 0], _LIMIT),
        _RECT_TOL, 16, lambda rows, points: (
            f"conditional rectangle probability did not converge for "
            f"{rows.size} box(es) at {points} points"))


def _genz_qmc(a, b, corr, seed, n_points: int, tol: float = None):
    """Randomized-QMC estimates for boxes (m, K), K >= 2.

    Genz's sequential conditioning along the Cholesky factor, each box with
    its variables ordered tightest first, averaged over _QMC_SCRAMBLES
    scrambled Sobol sets of n_points.  All boxes share the point sets, so
    their errors are common-random-number coupled.

    With ``tol`` the sets are extended by as many points again, keeping
    their running sums (a scrambled Sobol sequence's first 2n points are
    its first n followed by its next n), until three standard errors fall
    below ``tol``; NonConvergenceError past _QMC_MAX points per set.
    Returns (estimates, standard errors, points per set).
    """
    from scipy.stats import qmc

    m, k = a.shape
    order = np.argsort(special.ndtr(b) - special.ndtr(a), axis=1)
    a = np.take_along_axis(a, order, axis=1)
    b = np.take_along_axis(b, order, axis=1)
    chol = np.linalg.cholesky(corr[order[:, :, None], order[:, None, :]])
    seeds = np.random.SeedSequence(int(seed) & ((1 << 63) - 1)).spawn(_QMC_SCRAMBLES)
    engines = [qmc.Sobol(d=k - 1, scramble=True, seed=np.random.default_rng(ss))
               for ss in seeds]
    # one row per box, so each box reduces alone whatever m is
    sums = np.zeros((m, _QMC_SCRAMBLES))
    tiny = 1e-15
    n, new = 0, n_points
    while True:
        step = max(1, (1 << 18) // new)
        for i, engine in enumerate(engines):
            u = engine.random(new)
            for start in range(0, m, step):
                al, bl, lc = a[start:start + step], b[start:start + step], chol[start:start + step]
                d = special.ndtr(al[:, :1] / lc[:, 0, :1])
                e = special.ndtr(bl[:, :1] / lc[:, 0, :1])
                f = e - d
                y = []
                for j in range(1, k):
                    q = np.clip(d + u[:, j - 1] * (e - d), tiny, 1.0 - tiny)
                    y.append(special.ndtri(q))
                    drift = sum(lc[:, j, h, None] * yh for h, yh in enumerate(y))
                    d = special.ndtr((al[:, j, None] - drift) / lc[:, j, j, None])
                    e = special.ndtr((bl[:, j, None] - drift) / lc[:, j, j, None])
                    f = f * np.clip(e - d, 0.0, 1.0)
                sums[start:start + step, i] += f.sum(axis=1)
        n += new
        ests = sums / n
        est = ests.mean(axis=1)
        err = ests.std(axis=1, ddof=1) / np.sqrt(_QMC_SCRAMBLES)
        if tol is None or 3.0 * np.max(err) < tol:
            return est, err, n
        if n >= _QMC_MAX:
            raise NonConvergenceError(
                f"quasi-Monte Carlo rectangle probability reached {n} points "
                f"with standard error {np.max(err):.3g}; tol {tol} needs "
                f"3 standard errors below it", last=est)
        new = n


# ---------------------------------------------------------------------------
# Wishart sampling
# ---------------------------------------------------------------------------

def _check_corr(correlation, k, name="correlation"):
    """The K x K correlation matrix, or InputError if it is not symmetric
    positive definite with unit diagonal."""
    corr = np.atleast_2d(np.asarray(correlation, dtype=float))
    if corr.shape != (k, k):
        raise InputError(f"{name} must be {k}x{k}")
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise InputError(f"{name} must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise InputError(f"{name} must have unit diagonal")
    try:
        np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        raise InputError(f"{name} is not positive definite; "
                         "see mvt.repair_correlation") from None
    return corr


def sample_wishart_cov(sigma1, correlation, nu2: int, n: int, seed,
                       chunk: int = 1 << 22):
    """Sample n scaled-Wishart covariance estimates, shape (n, K, K).

    Each draw is S = sum of nu2 outer products of N(0, Sigma1) vectors,
    divided by nu2, with Sigma1 = D * correlation * D and D = diag(sigma1).
    Sampling is by definition (sums of squares), so an independent
    factorization-based sampler can serve as a cross-check.
    """
    sigma1 = np.atleast_1d(np.asarray(sigma1, dtype=float))
    if np.any(sigma1 <= 0):
        raise InputError("sigma1 entries must be positive")
    k = sigma1.size
    corr = _check_corr(correlation, k)
    if n < 1 or nu2 < 1:
        raise InputError("need n >= 1 and nu2 >= 1")
    chol = np.linalg.cholesky(corr) * sigma1[:, None]
    rng = seed if isinstance(seed, np.random.Generator) else rng_stream(seed, "wishart")
    out = np.empty((n, k, k))
    step = max(1, chunk // (nu2 * k))
    for start in range(0, n, step):
        m = min(step, n - start)
        z = rng.standard_normal((m, nu2, k))
        x = z @ chol.T
        out[start : start + m] = np.einsum("mij,mil->mjl", x, x) / nu2
    return out


def sample_wishart_diag(sigma1, correlation, nu2: int, n: int, seed):
    """Sample n vectors of per-dimension standard-error estimates, shape (n, K).

    Marginally each column k satisfies nu2 * s_k^2 / sigma1_k^2 ~ chi2(nu2);
    cross-column dependence follows from the common underlying normals.
    """
    cov = sample_wishart_cov(sigma1, correlation, nu2, n, seed)
    return np.sqrt(np.diagonal(cov, axis1=1, axis2=2)).copy()


# ---------------------------------------------------------------------------
# reproducible stream RNG
# ---------------------------------------------------------------------------

def rng_stream(seed, *stream) -> np.random.Generator:
    """Counter-based generator for an independent, order-invariant stream.

    The (seed, stream...) tuple fully determines the draw sequence: the
    parts are serialized, hashed with SHA-256, and the digest keys a Philox
    generator.  Streams with different ids never overlap, and results do
    not depend on the order in which streams are consumed.
    """
    h = hashlib.sha256()
    h.update(repr(int(seed)).encode())
    for part in stream:
        h.update(b"\x1f")
        h.update(repr(part).encode())
    key = int.from_bytes(h.digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))

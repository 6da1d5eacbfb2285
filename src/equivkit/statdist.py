"""Distributional building blocks: special functions, the scaled-chi law of a
standard-error estimate, the shared Gauss-Legendre rule, multivariate-normal
rectangle probabilities, and Wishart-diagonal sampling.

Everything here is pure given its inputs.  Sampling takes an explicit
(seed, stream) pair and is reproducible independent of call order; see
:func:`rng_stream`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .base import InputError, NonConvergenceError

__all__ = [
    "norm_cdf",
    "norm_quantile",
    "t_quantile",
    "chi2_quantile",
    "SigmaHatLaw",
    "rect_prob",
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


# ---------------------------------------------------------------------------
# scalar/vector special functions
# ---------------------------------------------------------------------------

def norm_cdf(x):
    """Standard normal CDF, accurate in both tails (erfc based)."""
    return special.ndtr(x)


def norm_quantile(p):
    """Inverse standard normal CDF; requires 0 < p < 1."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise InputError("norm_quantile requires 0 < p < 1")
    out = special.ndtri(p)
    return out if out.ndim else float(out)


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
# the sampling law of a standard-error estimate
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class SigmaHatLaw:
    """Law of a standard-error estimate s with nu2 * s^2 / sigma1^2 ~ chi2(nu2).

    Equivalently s = sigma1 * sqrt(V / nu2) for V chi-square with nu2
    degrees of freedom.
    """

    sigma1: float
    nu2: int

    def __post_init__(self):
        if not (self.sigma1 > 0):
            raise InputError(f"sigma1 must be positive, got {self.sigma1}")
        if self.nu2 < 1:
            raise InputError(f"nu2 must be >= 1, got {self.nu2}")

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise InputError("density support is x > 0")
        return _scaled_chi_logpdf(x, self.sigma1, self.nu2)

    def pdf(self, x):
        out = np.exp(self.logpdf(x))
        return out if out.ndim else float(out)

    def quantile(self, p):
        """Quantile of s itself (monotone map of the chi-square quantile)."""
        return self.sigma1 * np.sqrt(chi2_quantile(p, self.nu2) / self.nu2)

    def mode(self):
        if self.nu2 < 2:
            return 0.0
        return self.sigma1 * np.sqrt((self.nu2 - 1.0) / self.nu2)

    def sample(self, n, rng):
        v = rng.chisquare(self.nu2, size=n)
        return self.sigma1 * np.sqrt(v / self.nu2)


# ---------------------------------------------------------------------------
# multivariate normal rectangles
# ---------------------------------------------------------------------------

# limits are clipped here; the normal mass beyond carries < 1e-17
_LIMIT = 8.5
# nodes per leading coordinate of the K = 3/4 conditional quadrature
_GL_NODES = 20
# bivariate evaluations per chunk of boxes, which bounds the quadrature's memory
_GL_CHUNK = 1 << 14
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
    - K = 3/4 is Gauss-Legendre over the leading Cholesky coordinates with
      the last two in closed form (Genz & Bretz 2009), accurate to ~1e-9 on
      equivalence boxes;
    - K >= 5 is randomized quasi-Monte Carlo over scrambled Sobol sets seeded
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


def _live_boxes(a, b, corr, tol, seed, n_points):
    """rect_prob for non-empty boxes (m, K)."""
    k = a.shape[1]
    # only the unit diagonal reaching 1e-14 means independent coordinates
    if k == 1 or np.count_nonzero(np.abs(corr) >= 1e-14) == k:
        return np.prod(special.ndtr(b) - special.ndtr(a), axis=1)
    if k == 2:
        return _bvn_rect(a[:, 0], b[:, 0], a[:, 1], b[:, 1], corr[0, 1])
    if k <= 4:
        return _gl_cond(a, b, np.linalg.cholesky(corr))
    n = n_points or (1 << 10)
    est, err = _genz_qmc(a, b, corr, seed, n)
    while n_points is None and not 3.0 * np.max(err) < tol:
        if n >= _QMC_MAX:
            raise NonConvergenceError(
                f"quasi-Monte Carlo rectangle probability reached {n} points "
                f"with standard error {np.max(err):.3g}; tol {tol} needs "
                f"3 standard errors below it", last=est)
        n *= 2
        est, err = _genz_qmc(a, b, corr, seed, n)
    return est


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


def _gl_cond(a, b, chol):
    """Boxes (m, K), K = 3 or 4, under N(0, chol chol^T).

    Gauss-Legendre over the leading K - 2 Cholesky coordinates; given them,
    the last two coordinates form a bivariate rectangle in closed form.
    Boxes go through in chunks, so memory stays bounded for any m.
    """
    m, k = a.shape
    lead = k - 2
    x, w = _leggauss(_GL_NODES)
    sd = np.array([chol[lead, lead], np.hypot(chol[k - 1, lead], chol[k - 1, k - 1])])
    rho = chol[k - 1, lead] / sd[1]
    out = np.empty(m)
    step = max(1, _GL_CHUNK // _GL_NODES ** lead)
    for start in range(0, m, step):
        al, bl = a[start:start + step], b[start:start + step]
        # nodes of the leading coordinates so far, one trailing axis each
        z = []
        weight = np.ones(al.shape[0])

        def limits(j, scale):
            # (elementwise sums, so a box's value does not depend on the batch)
            mean = sum(chol[j, i] * zi for i, zi in enumerate(z))
            col = (slice(None), j) + (None,) * len(z)
            return (al[col] - mean) / scale, (bl[col] - mean) / scale

        for j in range(lead):
            lo, hi = limits(j, chol[j, j])
            lo, hi = np.maximum(lo, -_LIMIT), np.minimum(hi, _LIMIT)
            half = 0.5 * np.maximum(hi - lo, 0.0)
            zj = lo[..., None] + half[..., None] * (x + 1.0)
            weight = (weight * half)[..., None] * w * np.exp(-0.5 * zj * zj) / _SQRT2PI
            z = [zi[..., None] for zi in z] + [zj]
        vals = _bvn_rect(*limits(lead, sd[0]), *limits(k - 1, sd[1]), rho) * weight
        out[start:start + step] = vals.reshape(vals.shape[0], -1).sum(axis=1)
    return out


def _genz_qmc(a, b, corr, seed, n_points: int):
    """Randomized-QMC estimates and standard errors for boxes (m, K), K >= 2.

    Genz's sequential conditioning along the Cholesky factor, each box with
    its variables ordered tightest first, averaged over _QMC_SCRAMBLES
    scrambled Sobol sets of n_points.  All boxes share the point sets, so
    their errors are common-random-number coupled.
    """
    from scipy.stats import qmc

    m, k = a.shape
    order = np.argsort(special.ndtr(b) - special.ndtr(a), axis=1)
    a = np.take_along_axis(a, order, axis=1)
    b = np.take_along_axis(b, order, axis=1)
    chol = np.linalg.cholesky(corr[order[:, :, None], order[:, None, :]])
    # one row per box, so each box reduces alone whatever m is
    ests = np.empty((m, _QMC_SCRAMBLES))
    seeds = np.random.SeedSequence(int(seed) & ((1 << 63) - 1)).spawn(_QMC_SCRAMBLES)
    step = max(1, (1 << 18) // n_points)
    tiny = 1e-15
    for i, ss in enumerate(seeds):
        u = qmc.Sobol(d=k - 1, scramble=True, seed=np.random.default_rng(ss)).random(n_points)
        for start in range(0, m, step):
            al, bl, lc = a[start:start + step], b[start:start + step], chol[start:start + step]
            d = special.ndtr(al[:, :1] / lc[:, 0, :1])
            e = special.ndtr(bl[:, :1] / lc[:, 0, :1])
            f = e - d
            y = []
            for j in range(1, k):
                q = np.clip(d + u[:, j - 1] * (e - d), tiny, 1.0 - tiny)
                y.append(special.ndtri(q))
                drift = sum(lc[:, j, i, None] * yi for i, yi in enumerate(y))
                d = special.ndtr((al[:, j, None] - drift) / lc[:, j, j, None])
                e = special.ndtr((bl[:, j, None] - drift) / lc[:, j, j, None])
                f = f * np.clip(e - d, 0.0, 1.0)
            ests[start:start + step, i] = f.mean(axis=1)
    return ests.mean(axis=1), ests.std(axis=1, ddof=1) / np.sqrt(_QMC_SCRAMBLES)


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

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

from .base import InputError

__all__ = [
    "norm_cdf",
    "norm_pdf",
    "norm_quantile",
    "t_quantile",
    "chi2_quantile",
    "SigmaHatLaw",
    "MvnRect",
    "mvn_rect_prob",
    "bvn_rect_prob",
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


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT2PI
    return out if out.ndim else float(out)


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

@dataclass(frozen=True)
class MvnRect:
    """Axis-aligned rectangle event for a K-variate normal distribution.

    An empty box (some lower >= upper) is allowed and flagged via
    ``is_empty``; its probability is 0.  The covariance must be symmetric
    positive definite (Cholesky is attempted at construction).
    """

    lower: np.ndarray
    upper: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        k = lower.size
        if not (upper.size == mean.size == k and cov.shape == (k, k)):
            raise InputError("dimension mismatch in MvnRect")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise InputError("covariance must be symmetric")
        np.linalg.cholesky(cov)  # raises LinAlgError if not PD

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def is_empty(self) -> bool:
        return bool(np.any(self.lower >= self.upper))


def _standardize(rect: MvnRect):
    sd = np.sqrt(np.diag(rect.covariance))
    a = (rect.lower - rect.mean) / sd
    b = (rect.upper - rect.mean) / sd
    corr = rect.covariance / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    return a, b, corr


def bvn_rect_prob(a1, b1, a2, b2, rho, n_nodes: int = 96):
    """P(a1 < X < b1, a2 < Y < b2) for standard bivariate normal, corr rho.

    Vectorized over all five arguments.  Computed by Gauss-Legendre
    integration of the conditional-normal form; the integrand is analytic,
    so accuracy is ~1e-12 for |rho| <= 0.95 and better than 1e-8 up to
    |rho| = 0.999 with the default node count.
    """
    a1, b1, a2, b2, rho = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a1, b1, a2, b2, rho))
    )
    shape = a1.shape
    a1 = np.clip(a1.ravel(), -8.5, 8.5)
    b1 = np.clip(b1.ravel(), -8.5, 8.5)
    a2, b2 = a2.ravel(), b2.ravel()
    rho = np.clip(rho.ravel(), -0.9999, 0.9999)

    s = np.sqrt(1.0 - rho * rho)
    x, w = _leggauss(n_nodes)
    half = 0.5 * (b1 - a1)  # negative for empty boxes; masked at the end
    nodes = a1[:, None] + half[:, None] * (x[None, :] + 1.0)
    cond = special.ndtr((b2[:, None] - rho[:, None] * nodes) / s[:, None]) - special.ndtr(
        (a2[:, None] - rho[:, None] * nodes) / s[:, None]
    )
    vals = np.exp(-0.5 * nodes * nodes) / _SQRT2PI * cond
    out = half * (vals @ w)
    out = np.where((b1 > a1) & (b2 > a2), np.clip(out, 0.0, 1.0), 0.0)
    out = out.reshape(shape)
    return out if out.ndim else float(out)


def _genz_qmc(a, b, corr, seed, n_points: int, n_scrambles: int = 8):
    """Randomized-QMC estimate of P(a < X < b), X ~ N(0, corr).

    Sequential conditional sampling along the Cholesky factor, averaged over
    scrambled Sobol point sets.  Returns (estimate, standard error); both
    are deterministic functions of the seed.
    """
    from scipy.stats import qmc

    k = len(a)
    # order variables by marginal mass: tightest first stabilizes the product
    order = np.argsort(special.ndtr(b) - special.ndtr(a))
    a, b = a[order], b[order]
    corr = corr[np.ix_(order, order)]
    chol = np.linalg.cholesky(corr)

    tiny = 1e-15
    ests = np.empty(n_scrambles)
    seeds = np.random.SeedSequence(entropy=int(seed) & ((1 << 63) - 1)).spawn(n_scrambles)
    for i in range(n_scrambles):
        sob = qmc.Sobol(d=max(k - 1, 1), scramble=True, seed=np.random.default_rng(seeds[i]))
        u = sob.random(n_points)
        d = special.ndtr(np.full(n_points, a[0]) / chol[0, 0])
        e = special.ndtr(np.full(n_points, b[0]) / chol[0, 0])
        f = e - d
        y = np.empty((n_points, k - 1)) if k > 1 else None
        for j in range(1, k):
            z = np.clip(d + u[:, j - 1] * (e - d), tiny, 1.0 - tiny)
            y[:, j - 1] = special.ndtri(z)
            drift = y[:, : j] @ chol[j, :j]
            d = special.ndtr((a[j] - drift) / chol[j, j])
            e = special.ndtr((b[j] - drift) / chol[j, j])
            f = f * np.clip(e - d, 0.0, 1.0)
        ests[i] = f.mean()
    err = ests.std(ddof=1) / np.sqrt(n_scrambles) if n_scrambles > 1 else np.inf
    return float(np.clip(ests.mean(), 0.0, 1.0)), float(err)


def _genz_qmc_batch(a, b, corr, seed, n_points: int = 1 << 11, chunk: int = 256):
    """Rectangle probabilities for many boxes under one N(0, corr) law.

    ``a``/``b`` have shape (m, K); one scrambled Sobol set is shared across
    all boxes, so the per-box QMC errors are common-random-number coupled.
    Rows with an empty box come back as 0.  Intended for averaging over the
    m axis; the shared-point error then acts like a small common bias of
    order the single-box QMC error, not an m-fold accumulation.
    """
    from scipy.stats import qmc

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = a.shape
    chol = np.linalg.cholesky(corr)
    if k == 1:
        return np.clip(special.ndtr(b[:, 0]) - special.ndtr(a[:, 0]), 0.0, 1.0)
    sob = qmc.Sobol(d=k - 1, scramble=True,
                    seed=np.random.default_rng(int(seed) & ((1 << 63) - 1)))
    u = sob.random(n_points)
    tiny = 1e-15
    out = np.empty(m)
    for start in range(0, m, chunk):
        al, bl = a[start : start + chunk], b[start : start + chunk]
        d = special.ndtr(al[:, :1] / chol[0, 0])
        e = special.ndtr(bl[:, :1] / chol[0, 0])
        f = np.clip(e - d, 0.0, 1.0) * np.ones((1, n_points))
        d = d * np.ones((1, n_points))
        e = e * np.ones((1, n_points))
        y = np.empty((al.shape[0], n_points, k - 1))
        for j in range(1, k):
            z = np.clip(d + u[None, :, j - 1] * (e - d), tiny, 1.0 - tiny)
            y[:, :, j - 1] = special.ndtri(z)
            drift = y[:, :, :j] @ chol[j, :j]
            d = special.ndtr((al[:, j, None] - drift) / chol[j, j])
            e = special.ndtr((bl[:, j, None] - drift) / chol[j, j])
            f = f * np.clip(e - d, 0.0, 1.0)
        out[start : start + chunk] = f.mean(axis=1)
    return out


def _rect_gl_cond(a, b, corr, n_outer: int = 20, n_bvn: int = 40) -> float:
    """Deterministic P(a < X < b) for X ~ N(0, corr), K = 3 or 4.

    Gauss-Legendre over the leading Cholesky coordinates, with the last two
    dimensions collapsed into a conditional bivariate rectangle.  In the
    ranges arising from equivalence boxes this is accurate to ~1e-9 at the
    default node counts, and two orders of magnitude faster than an
    adaptive quasi-MC call of comparable accuracy, which is what makes it
    fit for use inside an optimizer loop.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = a.size
    if k not in (3, 4):
        raise InputError("conditional quadrature covers K = 3 or 4 only")
    chol = np.linalg.cholesky(corr)
    x, w = _leggauss(n_outer)
    lo1 = max(a[0] / chol[0, 0], -8.5)
    hi1 = min(b[0] / chol[0, 0], 8.5)
    if hi1 <= lo1:
        return 0.0
    h1 = 0.5 * (hi1 - lo1)
    z1 = lo1 + h1 * (x + 1.0)
    w1 = h1 * w * np.exp(-0.5 * z1 * z1) / _SQRT2PI
    if k == 3:
        sd2 = chol[1, 1]
        sd3 = np.hypot(chol[2, 1], chol[2, 2])
        vals = bvn_rect_prob(
            (a[1] - chol[1, 0] * z1) / sd2, (b[1] - chol[1, 0] * z1) / sd2,
            (a[2] - chol[2, 0] * z1) / sd3, (b[2] - chol[2, 0] * z1) / sd3,
            chol[2, 1] / sd3, n_nodes=n_bvn)
        return float(np.clip(vals @ w1, 0.0, 1.0))
    lo2 = np.maximum((a[1] - chol[1, 0] * z1) / chol[1, 1], -8.5)
    hi2 = np.minimum((b[1] - chol[1, 0] * z1) / chol[1, 1], 8.5)
    h2 = 0.5 * np.maximum(hi2 - lo2, 0.0)
    z2 = lo2[:, None] + h2[:, None] * (x[None, :] + 1.0)
    w2 = h2[:, None] * w[None, :] * np.exp(-0.5 * z2 * z2) / _SQRT2PI
    sd3 = chol[2, 2]
    sd4 = np.hypot(chol[3, 2], chol[3, 3])
    m3 = chol[2, 0] * z1[:, None] + chol[2, 1] * z2
    m4 = chol[3, 0] * z1[:, None] + chol[3, 1] * z2
    vals = bvn_rect_prob(
        ((a[2] - m3) / sd3).ravel(), ((b[2] - m3) / sd3).ravel(),
        ((a[3] - m4) / sd4).ravel(), ((b[3] - m4) / sd4).ravel(),
        chol[3, 2] / sd4, n_nodes=n_bvn).reshape(z2.shape)
    return float(np.clip(np.sum(w1 * np.sum(vals * w2, axis=1)), 0.0, 1.0))


def mvn_rect_prob(rect: MvnRect, tol: float = 1e-5, seed: int = 0) -> float:
    """Probability that a N(mean, covariance) vector lands in the rectangle.

    K=1 is an exact CDF difference and K=2 uses deterministic quadrature,
    both well inside any reasonable tol.  K>=3 uses randomized quasi-Monte
    Carlo (scrambled Sobol, scrambling derived from ``seed``), doubling the
    point count until the spread across scrambles is below tol.  The result
    is deterministic given (rect, tol, seed).
    """
    if rect.is_empty:
        return 0.0
    a, b, corr = _standardize(rect)
    k = rect.dim
    if k == 1:
        return float(special.ndtr(b[0]) - special.ndtr(a[0]))
    if k == 2:
        return float(bvn_rect_prob(a[0], b[0], a[1], b[1], corr[0, 1]))
    # essentially-diagonal correlation factorizes exactly; the QMC transform
    # would return the same product at higher cost
    if np.max(np.abs(corr - np.eye(k))) < 1e-14:
        return float(np.prod(special.ndtr(b) - special.ndtr(a)))
    n = 1 << 10
    while True:
        est, err = _genz_qmc(a, b, corr, seed, n)
        if 3.0 * err < tol or n >= (1 << 17):
            return est
        n *= 2


# ---------------------------------------------------------------------------
# Wishart sampling
# ---------------------------------------------------------------------------

def _check_corr(correlation, k):
    corr = np.atleast_2d(np.asarray(correlation, dtype=float))
    if corr.shape != (k, k):
        raise InputError(f"correlation must be {k}x{k}")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise InputError("correlation must have unit diagonal")
    np.linalg.cholesky(corr)  # LinAlgError if not PD
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

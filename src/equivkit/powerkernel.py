"""Exact rejection probabilities for interval-inclusion equivalence tests.

A test declares equivalence when the effect estimate falls inside a data
dependent box: per dimension, |theta_hat_k| < c_k - t_k * s_k, where s_k is
the standard-error estimate.  With the margins c, multipliers t, and the
true (theta, sigma1) given, the probability of that event is an integral we
can evaluate to quadrature accuracy in one dimension and, for several
dimensions, either exactly (t = 0, a single normal rectangle) or by
Rao-Blackwellized Monte Carlo over the law of the standard errors.

Setting theta to the margin's edge turns power into size; :func:`size_uni`
does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .base import C0_DEFAULT, InputError
from .statdist import (
    _check_corr,
    _leggauss,
    _scaled_chi_logpdf,
    chi2_quantile,
    rect_prob,
    rng_stream,
    sample_wishart_diag,
)

__all__ = [
    "UnivPowerQuery",
    "MvtPowerQuery",
    "power_uni",
    "size_uni",
    "power_mvt",
]

# below this the standard-error scale is treated as exactly zero and the
# rejection event degenerates to the indicator |theta| < c
SIGMA_DEGENERATE = 1e-12

# chi-square tail mass dropped on each side when truncating the s integral
_TAIL_MASS = 5e-11


@lru_cache(maxsize=128)
def _unit_chi_bounds(nu2):
    """Central-mass interval of s / sigma1 = sqrt(chi2(nu2) / nu2).

    Drops _TAIL_MASS on each side.  The bounds depend on nu2 alone, so they
    are computed once per nu2 (as passed) and shared by every solve.
    """
    return (np.sqrt(chi2_quantile(_TAIL_MASS, nu2) / nu2),
            np.sqrt(chi2_quantile(1.0 - _TAIL_MASS, nu2) / nu2))


@dataclass(frozen=True)
class UnivPowerQuery:
    """One-dimensional rejection-probability query.

    theta, sigma1 describe the truth; the test rejects when
    |theta_hat| < c - t * s for the estimated standard error s, whose law is
    scaled chi with nu2 degrees of freedom.  t = 0 means fixed margins.
    """

    theta: float
    sigma1: float
    nu2: int
    t: float
    c: float

    def __post_init__(self):
        if not np.isfinite(self.theta):
            raise InputError("theta must be finite")
        if not (self.sigma1 >= 0):
            raise InputError(f"sigma1 must be >= 0, got {self.sigma1}")
        if self.nu2 < 1:
            raise InputError(f"nu2 must be >= 1, got {self.nu2}")
        if not (self.t >= 0):
            raise InputError(f"t must be >= 0, got {self.t}")
        if not (self.c > 0):
            raise InputError(f"c must be positive, got {self.c}")


@dataclass(frozen=True)
class MvtPowerQuery:
    """K-dimensional rejection-probability query.

    The estimate is N(theta, Sigma1) with Sigma1 = D corr D, D = diag(sigma1);
    standard errors come from the matching scaled-Wishart law with nu2
    degrees of freedom.  Rejection requires |theta_hat_k| < c_k - t_k s_k in
    every dimension simultaneously.
    """

    theta: np.ndarray
    sigma1: np.ndarray
    correlation: np.ndarray
    nu2: int
    t: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        sigma1 = np.atleast_1d(np.asarray(self.sigma1, dtype=float))
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        k = theta.size
        if t.size == 1:
            t = np.full(k, float(t[0]))
        if c.size == 1:
            c = np.full(k, float(c[0]))
        for name, arr in (("sigma1", sigma1), ("t", t), ("c", c)):
            if arr.size != k:
                raise InputError(f"{name} must have length {k}")
        corr = _check_corr(self.correlation, k)
        if np.any(sigma1 < 0) or np.any(t < 0) or np.any(c <= 0):
            raise InputError("need sigma1 >= 0, t >= 0, c > 0")
        if self.nu2 < 1:
            raise InputError(f"nu2 must be >= 1, got {self.nu2}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "sigma1", sigma1)
        object.__setattr__(self, "correlation", corr)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.theta.size


def _omega_batch(theta, sigma1, nu2, t, c, rtol: float = 1e-9,
                 n0: int = 64, n_max: int = 4096):
    """Vectorized rejection probability; broadcasts theta, sigma1, t, c.

    nu2 is a single integer for the whole batch.  Elements with t = 0 use
    the closed normal-CDF form; t > 0 integrates the conditional rejection
    probability against the scaled-chi density over (0, c/t), truncated to
    the central chi-square mass, doubling nodes per element until two
    successive estimates agree to rtol (absolute below 1).
    """
    theta, sigma1, t, c = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (theta, sigma1, t, c))
    )
    shape = theta.shape
    theta, sigma1, t, c = (v.ravel().copy() for v in (theta, sigma1, t, c))
    out = np.empty(theta.size)

    degen = sigma1 <= SIGMA_DEGENERATE
    out[degen] = (np.abs(theta[degen]) < c[degen]).astype(float)

    fixed = (~degen) & (t == 0.0)
    if np.any(fixed):
        th, sg, cc = theta[fixed], sigma1[fixed], c[fixed]
        out[fixed] = special.ndtr((cc - th) / sg) - special.ndtr((-cc - th) / sg)

    rand = (~degen) & (t > 0.0)
    if np.any(rand):
        th, sg, tt, cc = theta[rand], sigma1[rand], t[rand], c[rand]
        # central-mass interval of s, then truncated by the width constraint
        unit_lo, unit_hi = _unit_chi_bounds(nu2)
        b = np.minimum(unit_hi * sg, cc / tt)
        a = np.where(b <= unit_lo * sg, 0.0, unit_lo * sg)
        est = np.zeros(th.size)
        active = np.ones(th.size, dtype=bool)
        prev = None
        n = n0
        while True:
            x, w = _leggauss(n)
            half = 0.5 * (b[active] - a[active])
            nodes = a[active, None] + half[:, None] * (x[None, :] + 1.0)
            s1 = sg[active, None]
            cond = special.ndtr(
                (cc[active, None] - tt[active, None] * nodes - th[active, None]) / s1
            ) - special.ndtr(
                (tt[active, None] * nodes - cc[active, None] - th[active, None]) / s1
            )
            dens = np.exp(_scaled_chi_logpdf(nodes, s1, nu2))
            cur = half * ((cond * dens) @ w)
            if prev is None:
                est[active] = cur
                prev = cur
            else:
                done = np.abs(cur - prev) <= rtol * np.maximum(1.0, np.abs(cur))
                idx = np.flatnonzero(active)
                est[idx] = cur
                active[idx[done]] = False
                prev = cur[~done]
            if not active.any() or n >= n_max:
                break
            n *= 2
        out[rand] = np.clip(est, 0.0, 1.0)

    out = out.reshape(shape)
    return out if out.ndim else float(out)


def power_uni(q: UnivPowerQuery, rtol: float = 1e-9) -> float:
    """Probability that the univariate test described by ``q`` rejects."""
    return float(_omega_batch(q.theta, q.sigma1, q.nu2, q.t, q.c, rtol=rtol))


def size_uni(sigma1: float, nu2: int, t: float, c: float,
             c0: float = C0_DEFAULT, rtol: float = 1e-9) -> float:
    """Rejection probability at the null boundary theta = c0.

    By symmetry of the rejection region the boundary -c0 gives the same
    value, so this is the size of the test with margins c and multiplier t.
    """
    return power_uni(UnivPowerQuery(theta=c0, sigma1=sigma1, nu2=nu2, t=t, c=c),
                     rtol=rtol)


def _omega_joint(theta, sigma1, corr, c, tol: float = 2.5e-7, seed: int = 0,
                 n_points: int = None) -> float:
    """P(|theta_hat_k| < c_k for all k) with theta_hat ~ N(theta, D corr D).

    The fixed-margin joint rejection probability: one normal rectangle,
    evaluated by :func:`rect_prob` with its ``tol``, ``seed`` and
    ``n_points``.
    """
    return rect_prob((-c - theta) / sigma1, (c - theta) / sigma1, corr,
                     tol=tol, seed=seed, n_points=n_points)


def _power_mvt_mc(q: MvtPowerQuery, seed, n_wishart: int) -> float:
    """Monte Carlo over standard-error draws, exact conditional rectangle.

    A draw whose box is empty (some c_k - t_k s_k <= 0) contributes 0.
    """
    s = sample_wishart_diag(q.sigma1, q.correlation, q.nu2, n_wishart,
                            rng_stream(seed, "power-mvt"))
    half = q.c - q.t * s
    # n_points reaches only K >= 5: a fixed 2^8 points in each scrambled
    # set keeps the average smooth across calls
    probs = rect_prob((-half - q.theta) / q.sigma1, (half - q.theta) / q.sigma1,
                      q.correlation,
                      seed=rng_stream(seed, "power-mvt", "qmc").integers(1 << 62),
                      n_points=1 << 8)
    return float(np.sum(probs) / n_wishart)


def power_mvt(q: MvtPowerQuery, tol: float = 1e-5, seed: int = 0,
              n_wishart: int = 10_000) -> float:
    """Probability that the K-dimensional test described by ``q`` rejects.

    t = 0 everywhere reduces to a single normal rectangle, the one the
    joint fit evaluates (:func:`_omega_joint`, to ``tol``).  Otherwise the
    standard errors enter the box; if the correlation is diagonal the
    dimensions decouple into a product of univariate probabilities, and in
    general the value is a Monte Carlo average over ``n_wishart``
    standard-error draws of the conditional rectangle probability.
    Deterministic given (q, tol, seed).
    """
    if q.dim == 1:
        return power_uni(UnivPowerQuery(
            theta=float(q.theta[0]), sigma1=float(q.sigma1[0]), nu2=q.nu2,
            t=float(q.t[0]), c=float(q.c[0])))

    degen = q.sigma1 <= SIGMA_DEGENERATE
    if np.any(degen):
        # degenerate coordinates contribute a 0/1 factor; the rest still
        # form a valid query on the complementary block
        if np.any(np.abs(q.theta[degen]) >= q.c[degen]):
            return 0.0
        keep = ~degen
        if not keep.any():
            return 1.0
        sub = MvtPowerQuery(q.theta[keep], q.sigma1[keep],
                            q.correlation[np.ix_(keep, keep)], q.nu2,
                            q.t[keep], q.c[keep])
        return power_mvt(sub, tol=tol, seed=seed, n_wishart=n_wishart)

    if np.all(q.t == 0.0):
        return _omega_joint(q.theta, q.sigma1, q.correlation, q.c, tol=tol, seed=seed)

    offdiag = np.max(np.abs(q.correlation - np.eye(q.dim)))
    if offdiag < 1e-14:
        # independent coordinates: both the estimates and their standard
        # errors factor, so the joint rejection probability is a product
        vals = _omega_batch(q.theta, q.sigma1, q.nu2, q.t, q.c)
        return float(np.prod(vals))

    return _power_mvt_mc(q, seed, n_wishart)

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

import numpy as np
from scipy import special

from .base import C0_DEFAULT, InputError
from .statdist import (
    _check_corr,
    _gk_rows,
    _is_diagonal,
    _scaled_chi_logpdf,
    _unit_chi_bounds,
    rect_grad,
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

# a multiplier t at or below this acts as 0: t * s / sigma1 is then below
# 1e-288, which moves no normal CDF in the integrand, so the integral is the
# fixed-margin value up to the dropped tail mass; and the upper limit c / t
# of s cannot overflow for any margin c below 1e18
_T_ZERO = 1e-290

# agreement the Kronrod and Gauss values of a row must reach (absolute below 1)
_GK_RTOL = 1e-9


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


def _omega_batch(theta, sigma1, nu2, t, c):
    """Vectorized rejection probability; broadcasts theta, sigma1, t, c.

    nu2 is a single integer for the whole batch.  Elements with t = 0 (or
    t <= _T_ZERO) use the closed normal-CDF form.  For t > 0 the
    conditional rejection probability is integrated against the scaled-chi
    density of s over (0, c/t), truncated to the central chi-square mass,
    by :func:`_gk_rows` from 65 points to _GK_RTOL, so a row's value does
    not depend on the rows that share the call.
    """
    theta, sigma1, t, c = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (theta, sigma1, t, c))
    )
    shape = theta.shape
    theta, sigma1, t, c = (v.ravel().copy() for v in (theta, sigma1, t, c))
    out = np.empty(theta.size)

    degen = sigma1 <= SIGMA_DEGENERATE
    out[degen] = (np.abs(theta[degen]) < c[degen]).astype(float)

    fixed = (~degen) & (t <= _T_ZERO)
    if np.any(fixed):
        th, sg, cc = theta[fixed], sigma1[fixed], c[fixed]
        out[fixed] = special.ndtr((cc - th) / sg) - special.ndtr((-cc - th) / sg)

    rand = np.flatnonzero((~degen) & (t > _T_ZERO))
    if rand.size:
        th, sg, tt, cc = (v[rand] for v in (theta, sigma1, t, c))
        # central-mass interval of s, then truncated by the width constraint
        unit_lo, unit_hi = _unit_chi_bounds(nu2)
        hi = np.minimum(unit_hi * sg, cc / tt)
        lo = np.where(hi <= unit_lo * sg, 0.0, unit_lo * sg)

        def integrand(s, i):
            sgi = sg[i, None]
            ts = s * (tt[i, None] / sgi)  # t * s in units of sigma1
            f = (special.ndtr((cc[i, None] - th[i, None]) / sgi - ts)
                 - special.ndtr(ts - (cc[i, None] + th[i, None]) / sgi))
            return f * np.exp(_scaled_chi_logpdf(s, sgi, nu2))

        def message(rows, points):
            i = rows[0]
            return (f"rejection probability did not converge for {rows.size} "
                    f"row(s) at {points} points, first at "
                    f"theta={float(th[i])!r}, sigma1={float(sg[i])!r}, "
                    f"nu2={nu2}, t={float(tt[i])!r}, c={float(cc[i])!r}")

        val = _gk_rows(integrand, lo, hi, _GK_RTOL, 32, message)
        out[rand] = np.minimum(np.maximum(val, 0.0), 1.0)

    out = out.reshape(shape)
    return out if out.ndim else float(out)


def power_uni(q: UnivPowerQuery) -> float:
    """Probability that the univariate test described by ``q`` rejects."""
    return float(_omega_batch(q.theta, q.sigma1, q.nu2, q.t, q.c))


def size_uni(sigma1: float, nu2: int, t: float, c: float,
             c0: float = C0_DEFAULT) -> float:
    """Rejection probability at the null boundary theta = c0.

    By symmetry of the rejection region the boundary -c0 gives the same
    value, so this is the size of the test with margins c and multiplier t.
    """
    return power_uni(UnivPowerQuery(theta=c0, sigma1=sigma1, nu2=nu2, t=t, c=c))


def _omega_joint(theta, sigma1, corr, c, tol: float = 2.5e-7, seed: int = 0,
                 n_points: int = None) -> float:
    """P(|theta_hat_k| < c_k for all k) with theta_hat ~ N(theta, D corr D).

    The fixed-margin joint rejection probability: one normal rectangle,
    evaluated by :func:`rect_prob` with its ``tol``, ``seed`` and
    ``n_points``.
    """
    return rect_prob((-c - theta) / sigma1, (c - theta) / sigma1, corr,
                     tol=tol, seed=seed, n_points=n_points)


@dataclass(frozen=True)
class _JointRejection:
    """Mean joint rejection probability over boxes, as a function of theta.

    Row i of ``half`` holds the half-widths of one rejection box
    {|theta_hat_k| < half_ik} (a row with a non-positive entry is empty);
    theta_hat ~ N(theta, D corr D) with D = diag(sigma1).  :meth:`value`
    averages the rows' :func:`rect_prob` values and :meth:`grad` is its
    gradient in theta from :func:`rect_grad`; ``rect`` holds the tol, seed
    and n_points both take.  A fixed-margin test has one row, c.
    """

    half: np.ndarray
    sigma1: np.ndarray
    corr: np.ndarray
    rect: dict

    def _limits(self, theta):
        return (-self.half - theta) / self.sigma1, (self.half - theta) / self.sigma1

    def value(self, theta):
        """The mean at theta (K,), a float; or at each row of thetas (n, K),
        an array of n, from one :func:`rect_prob` call."""
        theta = np.asarray(theta, dtype=float)
        probs = rect_prob(*self._limits(theta[..., None, :]), self.corr, **self.rect)
        means = np.sum(probs, axis=-1) / len(self.half)
        return float(means) if theta.ndim == 1 else means

    def grad(self, theta) -> np.ndarray:
        da, db = rect_grad(*self._limits(theta), self.corr, **self.rect)
        return -np.sum(da + db, axis=0) / (len(self.half) * self.sigma1)


def _power_mvt_mc(sigma1, corr, nu2, t, c, seed, n_wishart: int) -> _JointRejection:
    """The Monte Carlo objective of :func:`power_mvt` at t > 0.

    Its rows are the boxes of ``n_wishart`` standard-error draws s, with
    half-widths c - t s, and its rectangles are exact.  The draws depend
    only on (sigma1, corr, nu2, seed), so one objective serves every theta.
    """
    s = sample_wishart_diag(sigma1, corr, nu2, n_wishart,
                            rng_stream(seed, "power-mvt"))
    # n_points reaches only K >= 5: a fixed 2^8 points in each scrambled
    # set keeps the average smooth across calls
    return _JointRejection(
        c - t * s, sigma1, corr,
        {"seed": rng_stream(seed, "power-mvt", "qmc").integers(1 << 62),
         "n_points": 1 << 8})


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

    if _is_diagonal(q.correlation):
        # independent coordinates: both the estimates and their standard
        # errors factor, so the joint rejection probability is a product
        vals = _omega_batch(q.theta, q.sigma1, q.nu2, q.t, q.c)
        return float(np.prod(vals))

    return _power_mvt_mc(q.sigma1, q.correlation, q.nu2, q.t, q.c, seed,
                         n_wishart).value(q.theta)

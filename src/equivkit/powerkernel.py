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
    _phi,
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

# a multiplier t at or below this acts as 0: t x for the unit chi x is then
# below 1e-288, which moves no normal CDF in the integrand, so the integral
# is the fixed-margin value up to the dropped tail mass
_T_ZERO = 1e-290

# agreement the Kronrod and Gauss values of a row must reach (absolute below 1)
_GK_RTOL = 1e-9

# boxes per rectangle call of _JointRejection.value and value_grad: a
# fixed-margin objective has one box per point, so one call takes every
# point, while a sampled one has thousands per point, which gain nothing
# from sharing a call and would multiply its temporaries
_BOXES_PER_CALL = 1 << 12


@dataclass(frozen=True)
class UnivPowerQuery:
    """One-dimensional rejection-probability query.

    theta, sigma1 describe the truth; the test rejects when
    |theta_hat| < c - t * s for the estimated standard error s, whose law is
    scaled chi with nu2 degrees of freedom.  t = 0 means fixed margins.
    sigma1 = 0 gives the limit as sigma1 -> 0 (:func:`_box_limits`).
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
        if not np.all(np.isfinite(theta)):
            raise InputError("theta must be finite")
        # written to fail on NaN, as UnivPowerQuery's checks do
        if not (np.all(sigma1 >= 0) and np.all(t >= 0) and np.all(c > 0)):
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


def _box_limits(theta, sigma1, ref, offset=0.0):
    """Standardized limits (lo, hi) of the box |theta_hat| < ref + sigma1 u
    for theta_hat ~ N(theta, sigma1^2) and the offset u: lo = (-ref - theta)
    / sigma1 - u and hi = (ref - theta) / sigma1 + u, broadcast.  At
    sigma1 = 0 an edge on theta reads 0/0 as 0, its limit as sigma1 -> 0,
    and every other edge is infinite."""
    sigma1 = np.asarray(sigma1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi = (-ref - theta) / sigma1, (ref - theta) / sigma1
    if not sigma1.all():
        lo, hi = np.where(np.isnan(lo), 0.0, lo), np.where(np.isnan(hi), 0.0, hi)
    return lo - offset, hi + offset


def _omega_batch(lo, hi, nu2, t, slope=False):
    """Rejection probability of standardized boxes; broadcasts lo, hi, t.

    The test rejects when lo + t x < Z < hi - t x for Z standard normal
    and the unit chi x = s / sigma1 (nu2 x^2 ~ chi2(nu2)); the limits come
    from :func:`_box_limits`.  nu2 is a single integer for the whole batch.
    An empty box (hi <= lo) gives 0, value and slope alike.  Other
    elements with t <= _T_ZERO take the closed form Phi(hi) - Phi(lo).  For
    t > 0 the conditional probability is integrated against the density of
    x over its central mass, cut where the box empties, at
    x = (hi - lo) / (2 t), by :func:`_gk_rows` from 65 points to _GK_RTOL,
    so a row's value does not depend on the rows that share the call.

    With ``slope`` it returns (value, slope), the slope -d/dlo + d/dhi:
    phi(hi) + phi(lo) in closed form, and for t > 0 the integral of
    phi(hi - t x) + phi(lo + t x) over the same interval, as rows of the
    same :func:`_gk_rows` call (the value's integrand is 0 at the cut, so
    moving the cut adds no term).
    """
    lo, hi, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, t)))
    shape = lo.shape
    lo, hi, t = (v.ravel() for v in (lo, hi, t))
    out = np.zeros(lo.size)
    der = np.zeros(lo.size) if slope else None

    # an empty box (hi <= lo, as for two equal infinite limits) gives 0
    live = hi > lo
    fixed = live & (t <= _T_ZERO)
    if np.any(fixed):
        out[fixed] = special.ndtr(hi[fixed]) - special.ndtr(lo[fixed])
        if slope:
            der[fixed] = _phi(hi[fixed]) + _phi(lo[fixed])

    rand = np.flatnonzero(live & (t > _T_ZERO))
    if rand.size:
        lo_r, hi_r, tt = lo[rand], hi[rand], t[rand]
        # central-mass interval of x, cut where the box empties; halving
        # each limit keeps hi - lo finite, and dividing only where
        # half / t < unit_hi keeps a tiny t from overflowing
        unit_lo, unit_hi = _unit_chi_bounds(nu2)
        half = 0.5 * hi_r - 0.5 * lo_r
        x_hi = np.divide(half, tt, out=np.full(rand.size, unit_hi),
                         where=half < unit_hi * tt)
        x_lo = np.where(x_hi <= unit_lo, 0.0, unit_lo)
        if slope:  # the slope rows follow the value rows
            lo_r, hi_r, tt, x_lo, x_hi = (np.tile(v, 2) for v in (lo_r, hi_r, tt, x_lo, x_hi))

        def integrand(x, i):
            tx = x * tt[i, None]
            if not slope:  # one expression frees each limit's temporary early
                f = special.ndtr(hi_r[i, None] - tx) - special.ndtr(lo_r[i, None] + tx)
            else:  # _gk_rows passes rows in order: a chunk's value rows come first
                a, b = hi_r[i, None] - tx, lo_r[i, None] + tx
                v = np.count_nonzero(np.arange(hi_r.size)[i] < rand.size)
                f = np.concatenate((special.ndtr(a[:v]) - special.ndtr(b[:v]),
                                    _phi(a[v:]) + _phi(b[v:])))
            return f * np.exp(_scaled_chi_logpdf(x, 1.0, nu2))

        def message(rows, points):
            i = rows[0]
            return (f"rejection probability did not converge for {rows.size} "
                    f"row(s) at {points} points, first at "
                    f"lo={float(lo_r[i])!r}, hi={float(hi_r[i])!r}, "
                    f"nu2={nu2}, t={float(tt[i])!r}")

        val = _gk_rows(integrand, x_lo, x_hi, _GK_RTOL, 32, message)
        out[rand] = np.minimum(np.maximum(val[:rand.size], 0.0), 1.0)
        if slope:
            der[rand] = np.maximum(val[rand.size:], 0.0)

    out = out.reshape(shape) if shape else float(out[0])
    if not slope:
        return out
    return out, (der.reshape(shape) if shape else float(der[0]))


def power_uni(q: UnivPowerQuery) -> float:
    """Probability that the univariate test described by ``q`` rejects."""
    return float(_omega_batch(*_box_limits(q.theta, q.sigma1, q.c), q.nu2, q.t))


def size_uni(sigma1: float, nu2: int, t: float, c: float,
             c0: float = C0_DEFAULT) -> float:
    """Rejection probability at the null boundary theta = c0.

    By symmetry of the rejection region the boundary -c0 gives the same
    value, so this is the size of the test with margins c and multiplier t.
    """
    return power_uni(UnivPowerQuery(theta=c0, sigma1=sigma1, nu2=nu2, t=t, c=c))


@dataclass(frozen=True)
class _JointRejection:
    """Mean joint rejection probability over boxes, as a function of theta.

    Box i is {|theta_hat_k| < ref_k + sigma1_k offset_ik} (:func:`_box_limits`;
    empty where a margin is not positive), theta_hat ~ N(theta, D corr D)
    with D = diag(sigma1): for the joint fit the margins c0 and their
    offsets u, so a face coordinate at c0 has the edge u exactly; for the
    sampled objective the margins c and a row -t s / sigma1 per draw s.
    :meth:`value` averages the rows' :func:`rect_prob` values and
    :meth:`value_grad` takes them with their gradient in theta from
    :func:`rect_grad`; ``rect`` holds the tol, seed and n_points both take.
    Every box is evaluated on its own, so a point's results do not depend
    on the other points of a call.
    """

    ref: np.ndarray
    offset: np.ndarray
    sigma1: np.ndarray
    corr: np.ndarray
    rect: dict

    def _evaluate(self, thetas, grad: bool):
        """The means (n,) at the rows of thetas (n, K) and, with ``grad``,
        their gradients in theta (n, K): one :func:`rect_prob` call, or with
        ``grad`` one :func:`rect_grad` call, which returns both, per run of
        rows holding at most _BOXES_PER_CALL boxes, and at least one row."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        m = len(self.offset)
        step = max(1, _BOXES_PER_CALL // m)
        if len(thetas) > step:
            runs = [self._evaluate(thetas[i:i + step], grad)
                    for i in range(0, len(thetas), step)]
            return tuple(np.concatenate(p) for p in zip(*runs))
        a, b = _box_limits(thetas[:, None, :], self.sigma1, self.ref, self.offset)
        if not grad:
            return (rect_prob(a, b, self.corr, **self.rect).sum(axis=-1) / m,)
        p, da, db = rect_grad(a, b, self.corr, **self.rect)
        return p.sum(axis=-1) / m, -(da + db).sum(axis=1) / (m * self.sigma1)

    def value(self, theta):
        """The mean at theta (K,), a float; or at each row of thetas (n, K),
        an array of n (:meth:`_evaluate`)."""
        means, = self._evaluate(theta, grad=False)
        return float(means[0]) if np.ndim(theta) == 1 else means

    def value_grad(self, thetas):
        """The means (n,) and their gradients in theta (n, K) at the rows
        of thetas (n, K) (:meth:`_evaluate`)."""
        return self._evaluate(thetas, grad=True)


def _power_mvt_mc(sigma1, corr, nu2, t, c, seed, n_wishart: int) -> _JointRejection:
    """The Monte Carlo objective of :func:`power_mvt` at t > 0.

    Its rows are the boxes of ``n_wishart`` standard-error draws s, with
    half-widths c - t s, the offsets -t s / sigma1 about c, and its
    rectangles are exact.  The draws depend
    only on (sigma1, corr, nu2, seed), so one objective serves every theta.
    """
    s = sample_wishart_diag(sigma1, corr, nu2, n_wishart,
                            rng_stream(seed, "power-mvt"))
    # n_points reaches only K >= 5: a fixed 2^8 points in each scrambled
    # set keeps the average smooth across calls
    return _JointRejection(
        c, -t * s / sigma1, sigma1, corr,
        {"seed": rng_stream(seed, "power-mvt", "qmc").integers(1 << 62),
         "n_points": 1 << 8})


def _independent(thetas, sigma1, nu2, t, ref, offset=0.0):
    """Joint rejection probability of independent coordinates: the product
    over the coordinates of :func:`_omega_batch` on the boxes of
    :func:`_box_limits`, at theta (K,), a float, or at each row of thetas
    (n, K), an array of n."""
    return np.prod(_omega_batch(*_box_limits(thetas, sigma1, ref, offset), nu2, t), axis=-1)


def power_mvt(q: MvtPowerQuery, tol: float = 1e-5, seed: int = 0,
              n_wishart: int = 10_000) -> float:
    """Probability that the K-dimensional test described by ``q`` rejects.

    Independent coordinates (a diagonal correlation, any K and t) give the
    exact product :func:`_independent`.  A coordinate with sigma1 = 0 has
    no covariance with the others and no standard-error draws, so it is
    factored out the same way, its factor the sigma1 -> 0 limit of
    :func:`_omega_batch`.  Otherwise t = 0 everywhere reduces to a single
    normal rectangle, :func:`statdist.rect_prob` to ``tol``, the box the
    joint fit evaluates; and in general the value is a Monte Carlo average
    over ``n_wishart`` standard-error draws of the conditional rectangle
    probability.  Deterministic given (q, tol, seed).
    """
    zero = q.sigma1 == 0
    if _is_diagonal(q.correlation) or zero.all():
        return float(_independent(q.theta, q.sigma1, q.nu2, q.t, q.c))
    if zero.any():
        keep = ~zero
        sub = MvtPowerQuery(q.theta[keep], q.sigma1[keep],
                            q.correlation[np.ix_(keep, keep)], q.nu2,
                            q.t[keep], q.c[keep])
        return float(_independent(q.theta[zero], 0.0, q.nu2, q.t[zero], q.c[zero])
                     ) * power_mvt(sub, tol=tol, seed=seed, n_wishart=n_wishart)

    if np.all(q.t == 0.0):
        return rect_prob(*_box_limits(q.theta, q.sigma1, q.c), q.correlation,
                         tol=tol, seed=seed)

    return _power_mvt_mc(q.sigma1, q.correlation, q.nu2, q.t, q.c, seed,
                         n_wishart).value(q.theta)

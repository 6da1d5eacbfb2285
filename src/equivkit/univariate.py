"""Univariate equivalence decisions: TOST and its size-corrected variants.

Every procedure here rejects non-equivalence when |theta_hat| < c - t s, for
a multiplier t of the standard error s and a margin c.  The classical TOST
takes t = t_{alpha0,nu2} and c = c0, so it declares equivalence when the
1-2*alpha0 confidence interval falls inside (-c0, c0); it is conservative
because its size drops below alpha0 as the standard error grows.  The
corrections restore size alpha0 exactly, each moving a different dial:

* alpha-TOST raises the level alpha (shrinking the t multiplier),
* delta-TOST widens the margins c with the multiplier fixed,
* cTOST sets the multiplier to zero and solves for the margin directly,
  which is the most powerful choice within the size-matched family,
* cTOST* additionally calibrates the target level to undo the small-sample
  bias introduced by plugging in an estimated standard error.

One vectorized function (:func:`_rule`) chooses (t, c) for all five
methods; :func:`decide`, the four adjusters, the CLI and the simulation
sweep all read it.  One bracketed root-finder (:func:`_increasing_root`)
solves every level and margin and reports iteration counts.  Every margin,
at any multiplier, is a guarded Newton solve (:func:`_match_margin`); only
alpha* bisects.  Sizes match to 1e-10 at multiplier zero, where they are
closed forms, and to 1e-8 otherwise, where each size and its slope come
from :mod:`equivkit.powerkernel` to 1e-9.  Every solve returns its value
with the residual and rounds it computed, or raises NonConvergenceError,
as does a size whose rule pair still disagrees at the largest rule.  A
batch that passes its estimates theta_hat (the simulation sweep) wants
verdicts only: each row's alpha* or margin solve stops once the verdict
is the same at both ends of its bracket, and that end, not the root, is
the row's (t, c).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .base import (
    ALPHA0_DEFAULT,
    C0_DEFAULT,
    METHODS,
    DecisionReport,
    EquivalenceSpec,
    ExtrapolationError,
    InputError,
    NonConvergenceError,
)
from .powerkernel import _omega_batch
from .statdist import _leggauss, _phi, _scaled_chi_logpdf, _unit_chi_bounds, t_quantile

__all__ = [
    "UnivSummary",
    "UnivAdjustment",
    "ctost_adjust",
    "alpha_tost_adjust",
    "delta_tost_adjust",
    "margin_for_multiplier",
    "ctost_star_calibrate",
    "CalibrationTable",
    "build_calibration_table",
    "default_calibration_table",
    "decide",
]

STRATEGIES = ("quadrature", "table-lookup")

# Gauss-Legendre nodes of the cTOST* calibration's rule over s* / s
_CALIBRATION_NODES = 64

# rounds after which every level and margin solve stops unconverged
_ROOT_MAX_ITER = 200


@dataclass(frozen=True)
class UnivSummary:
    """Sufficient statistics of a one-dimensional equivalence problem.

    theta_hat is the estimated effect on the analysis (log) scale, sigma1_hat
    its standard error, and nu2 the degrees of freedom of the variance
    estimate.
    """

    theta_hat: float
    sigma1_hat: float
    nu2: int

    def __post_init__(self):
        if not np.isfinite(self.theta_hat):
            raise InputError("theta_hat must be finite")
        _check_sigma(self.sigma1_hat, self.nu2)


@dataclass(frozen=True)
class UnivAdjustment:
    """Resolved (t, c) pair of a rejection rule, plus solver diagnostics.

    t_used is the standard-error multiplier actually applied and c_used the
    margin.  alpha_adj carries the adjusted level for alpha-TOST, alpha_c the
    calibrated target level for cTOST*.  residual is the size residual of
    the solve's last round.  Fields are floats for one standard error; a
    batch of standard errors (see :func:`_rule`) holds arrays, or constants
    shared by every row.  An unconverged solve raises, so converged is
    always True; perfbench/workloads.py reads it from the CLI and meta.
    """

    method: str
    t_used: float
    c_used: float
    alpha_adj: float | None = None
    alpha_c: float | None = None
    iterations: int = 0
    converged: bool = True
    saturated: bool = False
    clamped: bool = False
    residual: float = 0.0


# ---------------------------------------------------------------------------
# margin matching at any multiplier (the cTOST and delta-TOST equation)
# ---------------------------------------------------------------------------

def _increasing_root(resid, lo, hi, tol, x=None, slope=None, settled=None):
    """Roots of residuals increasing in x, one per row of the bracket [lo, hi].

    ``resid(x, rows)`` and its derivative ``slope(x, rows)`` evaluate rows
    ``rows`` at x.  A row tests x (default: the midpoint) and stops once
    |residual| <= tol; else x replaces the bracket end on its side, and the
    row tests the Newton step if it lies strictly inside, else the midpoint.
    ``settled(lo, hi, rows)``, if given, marks rows whose caller needs no
    more of the root than its bracket [lo, hi]; they stop, counted as
    converged, at their last x tested, which is a bracket end.  Rows stop
    unconverged once no double lies strictly inside the bracket, or after
    _ROOT_MAX_ITER rounds.  Returns (last x tested, its residual, rounds,
    converged_mask).
    """
    x_out, r_out, conv = np.empty(lo.size), np.empty(lo.size), np.zeros(lo.size, bool)
    rows = np.arange(lo.size)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x = (lo + hi) * 0.5 if x is None else x
    iters = 0
    # np.copyto and np.count_nonzero keep the rounds of small solves cheap
    with np.errstate(divide="ignore", invalid="ignore"):
        while rows.size:
            r = resid(x, rows)
            iters += 1
            hit = np.abs(r) <= tol
            if settled is not None:  # on the bracket this test leaves
                below = r < 0
                hit |= settled(np.where(below, x, lo), np.where(below, hi, x), rows)
            x_out[rows], r_out[rows], conv[rows] = x, r, hit
            if np.count_nonzero(hit) == rows.size or iters == _ROOT_MAX_ITER:
                break
            below = r < 0
            np.copyto(lo, x, where=below)
            np.copyto(hi, x, where=~below)
            nxt = (lo + hi) * 0.5
            go = ~hit & (lo < nxt) & (nxt < hi)
            if np.count_nonzero(go) < rows.size:
                rows, x, r, lo, hi, nxt = rows[go], x[go], r[go], lo[go], hi[go], nxt[go]
            if slope is not None and rows.size:
                step = x - r / slope(x, rows)
                np.copyto(nxt, step, where=(lo < step) & (step < hi))
            x = nxt
    return x_out, r_out, iters, conv


def _size(u, sigma, c0, nu2=1, t=0.0):
    """Size at theta = c0 of the test |theta_hat| < c - t s, in the margin's
    offset u = (c - c0) / sigma: at a scalar t = 0 the closed form
    Phi(2 c0 / sigma + u) - Phi(-u), else :func:`_omega_batch` on the limits
    (-2 c0 / sigma - u, u), t broadcasting with u and sigma."""
    if np.isscalar(t) and t == 0:
        return special.ndtr(2.0 * c0 / sigma + u) - special.ndtr(-u)
    return _omega_batch(-2.0 * c0 / sigma - u, u, nu2, t)


def _size_slope(u, sigma, c0, nu2=1, t=0.0):
    """:func:`_size` and its derivative in u, as a pair: at t = 0 the slope
    phi(2 c0 / sigma + u) + phi(u); else both from one :func:`_omega_batch`."""
    if np.isscalar(t) and t == 0:
        z = 2.0 * c0 / sigma + u
        return special.ndtr(z) - special.ndtr(-u), _phi(z) + _phi(u)
    return _omega_batch(-2.0 * c0 / sigma - u, u, nu2, t, slope=True)


def _check_sigma(sigma, nu2=1):
    """Raise InputError unless every standard error is finite and > 0, and nu2 >= 1."""
    sigma = np.asarray(sigma)
    if not ((sigma > 0) & (sigma < np.inf)).all():
        raise InputError(f"standard errors must be finite and positive, got {sigma}")
    if not (nu2 >= 1):
        raise InputError(f"nu2 must be >= 1, got {nu2}")


def _match_margin(sigma, level, c0=C0_DEFAULT, tol=1e-10, nu2=1, t=0.0, theta_hat=None):
    """Margins of size ``level`` at the multiplier t, elementwise, as offsets.

    Solves :func:`_size` (u) = level, at one multiplier t >= 0 with nu2
    degrees of freedom, for the standardized offset u = (c - c0) / sigma of
    each margin c, so it keeps its precision as sigma -> 0, where c tends
    to c0.  Newton's method on :func:`_size` and its slope (at t = 0 taken
    only where a row goes on), from u = t - z_{1-level} (or 0 when that
    margin is not positive), guarded by the bracket
    [max(-c0 / sigma, start - 10 (1 + t)), max(start, 0) + 10 (1 + t)]
    (:func:`_increasing_root`), so it cannot diverge: the size is 0 at the
    margin 0 and below Phi(u) < level at start - 10 (1 + t), the half-width
    c - t s being at most c; at the upper end s <= 10 sigma gives a
    half-width of at least c0 + 10 sigma, so the size is at least
    P(s <= 10 sigma) (Phi(10) - Phi(-10)).  At t > 0 sizes agree to 1e-9
    (:func:`_omega_batch`), so callers pass tol 1e-8.  With estimates
    ``theta_hat``, a row stops at a bracket end once its verdict
    |theta_hat| < (c0 + sigma u) - t sigma reads the same at both ends
    (see :func:`_rule`).  Returns (u, iterations, converged_mask,
    residual of the last round), arrays of the broadcast shape.
    """
    sigma, level = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (sigma, level)))
    shape = sigma.shape
    sigma, level = sigma.ravel(), level.ravel()
    _check_sigma(sigma, nu2)
    if ((level <= 0) | (level >= 1)).any():
        raise InputError("level must lie in (0, 1)")
    if not (0 <= t < np.inf):
        raise InputError(f"t must be finite and >= 0, got {t}")

    if t == 0:  # closed forms; the slope only at points a row moves on from
        def size_gap(u, rows):
            return _size(u, sigma[rows], c0) - level[rows]

        def slope(u, rows):
            return _phi(2.0 * c0 / sigma[rows] + u) + _phi(u)
    else:  # the slope comes with the size from one kernel call
        dens = np.empty(sigma.size)

        def size_gap(u, rows):
            size, dens[rows] = _size_slope(u, sigma[rows], c0, nu2, t)
            return size - level[rows]

        def slope(u, rows):
            return dens[rows]

    settled = None
    if theta_hat is not None:
        ath = np.abs(np.broadcast_to(theta_hat, shape)).ravel()

        def settled(lo, hi, rows):  # the sweep's expression, at both ends
            s, th = sigma[rows], ath[rows]
            return (th < (c0 + s * lo) - t * s) | (th >= (c0 + s * hi) - t * s)

    start = t - special.ndtri(1.0 - level)
    floor = np.maximum(-c0 / sigma, start - 10.0 * (1.0 + t))
    start = np.where(start > floor, start, 0.0)
    u, resid, iters, conv = _increasing_root(size_gap, floor,
                                             np.maximum(start, 0.0) + 10.0 * (1.0 + t),
                                             tol, x=start, slope=slope, settled=settled)
    return u.reshape(shape), iters, conv.reshape(shape), resid.reshape(shape)


def ctost_adjust(sigma1_hat: float, nu2: int, spec: EquivalenceSpec = None,
                 tol: float = 1e-10) -> UnivAdjustment:
    """Margin c with multiplier zero matching size alpha0 at sigma1_hat.

    The margin always exists and is unique: the size is 0 at c = 0 and
    increases to 1, so the guarded Newton iteration converges for any
    finite positive standard error.  nu2 does not enter the equation (the
    multiplier is zero); it is checked (>= 1) for interface symmetry.
    """
    return _rule("ctost", sigma1_hat, nu2, spec, tol=tol)


# ---------------------------------------------------------------------------
# level and margin adjustments at nonzero multiplier (alpha*, delta-TOST)
# ---------------------------------------------------------------------------

def _alpha_star(sigma, nu2, c0, alpha0, tol=1e-8, theta_hat=None):
    """Level alpha* whose multiplier t_{alpha*,nu2} gives size alpha0 at c0.

    Bisection over alpha in (alpha0, 0.5], vectorized over sigma, on the
    size :func:`_size` (0, sigma, c0, nu2, t) of the margin c0 at
    theta = c0: it increases in alpha, reaching its supremum at
    alpha = 0.5 where the multiplier vanishes.  Rows where even that
    supremum is below alpha0 have no interior solution; they saturate at
    alpha = 0.5, t = 0, with the shortfall as residual.  With estimates
    ``theta_hat``, a row stops at a bracket end once its verdict
    |theta_hat| < c0 - t_{alpha,nu2} sigma reads the same at both ends
    (see :func:`_rule`).  Returns (alpha, t, residual, iterations,
    converged_mask) of :func:`_increasing_root`.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    alpha = np.full(sigma.shape, 0.5)
    t = np.zeros(sigma.shape)
    resid = _size(0.0, sigma, c0) - alpha0
    conv = np.ones(sigma.shape, dtype=bool)
    free = np.flatnonzero(resid >= 0)
    sig = sigma[free]

    def size_gap(a, rows):
        return _size(0.0, sig[rows], c0, nu2, t_quantile(a, nu2)) - alpha0

    settled = None
    if theta_hat is not None:
        ath = np.abs(np.broadcast_to(theta_hat, sigma.shape))[free]

        def settled(lo, hi, rows):  # the sweep's expression, at both ends
            s, th = sig[rows], ath[rows]
            return ((th < c0 - t_quantile(lo, nu2) * s)
                    | (th >= c0 - t_quantile(hi, nu2) * s))

    a, r, iters, ok = _increasing_root(size_gap, np.full(free.size, alpha0),
                                       np.full(free.size, 0.5), tol, settled=settled)
    alpha[free], resid[free], conv[free] = a, r, ok
    t[free] = t_quantile(a, nu2)
    return alpha, t, resid, iters, conv


def margin_for_multiplier(sigma1: float, nu2: int, t: float,
                          spec: EquivalenceSpec = None,
                          tol: float = 1e-8) -> float:
    """Margin c matching size alpha0 when the test subtracts t * s.

    The solve of :func:`_match_margin` at a finite t >= 0 (InputError
    otherwise); raises NonConvergenceError if it stops unconverged.  t = 0
    gives the cTOST margin.
    """
    return _rule("delta-tost", sigma1, nu2, spec, tol=tol, multiplier=t).c_used


def delta_tost_adjust(sigma1_hat: float, nu2: int,
                      spec: EquivalenceSpec = None,
                      tol: float = 1e-8) -> UnivAdjustment:
    """Widened margins c* at the nominal level alpha0 (multiplier t_{alpha0,nu2})."""
    return _rule("delta-tost", sigma1_hat, nu2, spec, tol=tol)


def alpha_tost_adjust(sigma1_hat: float, nu2: int,
                      spec: EquivalenceSpec = None,
                      tol: float = 1e-8) -> UnivAdjustment:
    """Adjusted level alpha* with margins fixed at c0 (see :func:`_alpha_star`).

    If no interior solution exists the boundary value alpha = 0.5 is
    returned with ``saturated=True``; an unconverged solve raises.
    """
    return _rule("alpha-tost", sigma1_hat, nu2, spec, tol=tol)


# ---------------------------------------------------------------------------
# small-sample calibration of the target level (cTOST*)
# ---------------------------------------------------------------------------

def _conditional_chi_rule(nu2: int):
    """Nodes and density-weighted weights for u = s*/s given s.

    u is sigma-free: u = sqrt(V / nu2) with V chi-square(nu2).  The rule
    covers the central mass, leaving ~1e-10 in the tails.
    """
    lo, hi = _unit_chi_bounds(nu2)
    x, w = _leggauss(_CALIBRATION_NODES)
    half = 0.5 * (hi - lo)
    u = lo + half * (x + 1.0)
    return u, half * w * np.exp(_scaled_chi_logpdf(u, 1.0, nu2))


def _expected_size(sigma, level, c0, u, wu):
    """E over s* = sigma*u of the size at the margin solved with s*.

    The margin is matched at ``level`` using the perturbed scale sigma*u,
    as an offset v from c0 in units of sigma*u, then its realized size is
    evaluated at the observed sigma, where its offset is u v; the
    expectation over u is a row-wise weighted sum, so each row's value
    does not depend on how many rows share the call.  Returns the
    expectations and a mask of the rows whose margins all converged.
    """
    sigma = np.asarray(sigma, dtype=float)
    lv = np.asarray(level, dtype=float)
    v, _, conv, _ = _match_margin(sigma[..., None] * u, lv[..., None], c0)
    om = _size(u * v, sigma[..., None], c0)
    return (om * wu).sum(axis=-1), conv.all(axis=-1)


def _calibrate_level(sigma, nu2, c0, alpha0):
    """One cTOST* calibration round by quadrature; vectorized over sigma.

    The target level drops from alpha0 by the excess of the expected
    realized size over alpha0: alpha_c = 2 alpha0 - E[size](alpha0).  A
    level above alpha0 is clamped to alpha0; one at or below zero (very
    noisy small samples) is floored at 1e-10, so the matched margin
    collapses instead of erroring.  Returns (alpha_c, clamped_mask).
    Raises NonConvergenceError when a margin inside the expectation does
    not match its level.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    u, wu = _conditional_chi_rule(nu2)
    size, conv = _expected_size(sigma, alpha0, c0, u, wu)
    if not conv.all():
        bad = sigma[~conv]
        raise NonConvergenceError(
            f"calibrated level at nu2={nu2}: the expected-size margins did "
            f"not converge for {bad.size} of {sigma.size} standard errors, "
            f"first at sigma1={float(bad[0])!r}")
    a = alpha0 + alpha0 - size
    clamped = a > alpha0
    return np.maximum(np.where(clamped, alpha0, a), 1e-10), clamped


def _table_fits(table, c0, alpha0) -> bool:
    """Whether ``table`` was built for the margin c0 and level alpha0."""
    return bool(np.isclose(table.c0, c0) and np.isclose(table.alpha0, alpha0))


def _check_table(table, c0, alpha0):
    """Raise InputError unless ``table`` was built for (c0, alpha0)."""
    if not _table_fits(table, c0, alpha0):
        raise InputError(
            f"table was built for (c0={table.c0}, alpha0={table.alpha0}), "
            f"spec has (c0={c0}, alpha0={alpha0})")


def ctost_star_calibrate(sigma1_hat: float, nu2: int,
                         spec: EquivalenceSpec = None,
                         strategy: str = "quadrature",
                         table: "CalibrationTable" = None) -> UnivAdjustment:
    """Calibrated level alpha_c and the refined margin solved at that level.

    The plug-in margin treats sigma1_hat as exact; its realized size,
    averaged over the sampling variation of the standard error, exceeds
    alpha0 for small nu2.  The calibration lowers the target level by the
    exceedance in one pass (see :func:`_calibrate_level`).  Strategies:
    64-node quadrature over the law of the standard error (default), or
    table-lookup, which interpolates ``table`` (default: the bundled one)
    and raises an extrapolation error outside its grid.  Raises
    NonConvergenceError when the margin does not match the calibrated level.
    """
    return _rule("ctost-star", sigma1_hat, nu2, spec, strategy=strategy, table=table)


def _star_level(sigma, nu2, spec, strategy, table, fallback):
    """cTOST* target levels of the rows of sigma, from one of two sources.

    Quadrature calibrates every row (:func:`_calibrate_level`, which clamps
    at alpha0).  table-lookup interpolates ``table`` (default: the bundled
    one), which must be built for spec's (c0, alpha0), and clamps at alpha0
    too; rows off its grid raise ExtrapolationError, or with ``fallback``
    are calibrated by quadrature.  Returns (levels, clamped mask,
    calibration rounds: 1 if quadrature ran, else 0).
    """
    if strategy not in STRATEGIES:
        raise InputError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    sigma = np.atleast_1d(sigma)
    if strategy == "quadrature":
        return *_calibrate_level(sigma, nu2, spec.c0, spec.alpha0), 1
    tbl = table if table is not None else default_calibration_table()
    _check_table(tbl, spec.c0, spec.alpha0)
    level = tbl.lookup(sigma, nu2, out_of_range="nan" if fallback else "raise")
    clamped = level >= spec.alpha0
    level = np.minimum(level, spec.alpha0)
    miss = np.isnan(level)
    if not miss.any():
        return level, clamped, 0
    level[miss], clamped[miss] = _calibrate_level(sigma[miss], nu2, spec.c0, spec.alpha0)
    return level, clamped, 1


# ---------------------------------------------------------------------------
# precomputed calibration tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationTable:
    """Grid of calibrated levels alpha_c over (sigma1, nu2).

    Lookup interpolates bilinearly in (log sigma1, 1/nu2), which matches the
    curvature of alpha_c far better than the raw coordinates; queries at
    grid nodes reproduce the stored entries exactly.
    """

    sigma_grid: np.ndarray
    nu_grid: np.ndarray
    alpha_c: np.ndarray
    c0: float
    alpha0: float

    def __post_init__(self):
        sg = np.asarray(self.sigma_grid, dtype=float)
        ng = np.asarray(self.nu_grid, dtype=float)
        ac = np.asarray(self.alpha_c, dtype=float)
        if sg.ndim != 1 or ng.ndim != 1 or sg.size < 2 or ng.size < 2:
            raise InputError("grids must be 1-d with at least 2 points")
        if np.any(np.diff(sg) <= 0) or np.any(np.diff(ng) <= 0):
            raise InputError("grids must be strictly ascending")
        if ac.shape != (sg.size, ng.size):
            raise InputError("alpha_c must have shape (len(sigma_grid), len(nu_grid))")
        if not (sg[0] > 0 and ng[0] > 0 and np.isfinite([sg[-1], ng[-1]]).all()
                and np.isfinite(ac).all()):
            raise InputError("grids must be positive and finite, alpha_c finite")
        object.__setattr__(self, "sigma_grid", sg)
        object.__setattr__(self, "nu_grid", ng)
        object.__setattr__(self, "alpha_c", ac)

    def lookup(self, sigma1, nu2, out_of_range: str = "raise"):
        """Interpolated alpha_c; vectorized over sigma1.

        out_of_range: "raise" -> extrapolation error naming the offending
        coordinate; "nan" -> NaN entries for callers with a fallback path.
        """
        x = np.log(np.atleast_1d(np.asarray(sigma1, dtype=float)))
        scalar = np.isscalar(sigma1) or np.ndim(sigma1) == 0
        xs = np.log(self.sigma_grid)
        # 1/nu is descending in nu; flip to interpolate on an ascending axis
        ys = 1.0 / self.nu_grid[::-1]
        zz = self.alpha_c[:, ::-1]
        y = 1.0 / float(nu2)

        eps = 1e-12
        bad_x = (x < xs[0] - eps) | (x > xs[-1] + eps)
        bad_y = (y < ys[0] - eps) or (y > ys[-1] + eps)
        if bad_y or bad_x.any():
            if out_of_range == "nan":
                pass
            elif bad_y:
                raise ExtrapolationError(
                    f"nu2={nu2} outside table range "
                    f"[{self.nu_grid[0]:.0f}, {self.nu_grid[-1]:.0f}]; "
                    "use the quadrature strategy instead")
            else:
                off = float(np.exp(x[bad_x][0]))
                raise ExtrapolationError(
                    f"sigma1={off:.6g} outside table range "
                    f"[{self.sigma_grid[0]:.6g}, {self.sigma_grid[-1]:.6g}]; "
                    "use the quadrature strategy instead")

        ix = np.clip(np.searchsorted(xs, x), 1, xs.size - 1)
        x0, x1 = xs[ix - 1], xs[ix]
        fx = np.clip((x - x0) / (x1 - x0), 0.0, 1.0)
        iy = int(np.clip(np.searchsorted(ys, y), 1, ys.size - 1))
        y0, y1 = ys[iy - 1], ys[iy]
        fy = min(max((y - y0) / (y1 - y0), 0.0), 1.0)
        v = (
            zz[ix - 1, iy - 1] * (1 - fx) * (1 - fy)
            + zz[ix, iy - 1] * fx * (1 - fy)
            + zz[ix - 1, iy] * (1 - fx) * fy
            + zz[ix, iy] * fx * fy
        )
        if bad_y:
            v = np.full_like(v, np.nan)
        else:
            v = np.where(bad_x, np.nan, v)
        return float(v[0]) if scalar else v

    def to_csv(self, path):
        # the strategy column is always quadrature, the only way tables are built
        lines = ["sigma1,nu2,alpha_c,strategy,c0,alpha0"]
        for i, s in enumerate(self.sigma_grid):
            for j, nu in enumerate(self.nu_grid):
                lines.append(
                    f"{s:.17g},{nu:.17g},{self.alpha_c[i, j]:.17g},"
                    f"quadrature,{self.c0:.17g},{self.alpha0:.17g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    @classmethod
    def from_csv(cls, path) -> "CalibrationTable":
        # parsed row by row into float arrays, so no row's strings are kept;
        # a bad number is raised after the checks on the whole file
        cols = [array("d") for _ in range(3)]
        strategies, c0s, alpha0s = set(), set(), set()
        bad = None
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "sigma1,nu2,alpha_c,strategy,c0,alpha0":
                raise InputError(f"unrecognized table header {header!r} in {path}")
            for line in fh:
                if not line.strip():
                    continue
                r = line.strip().split(",")
                if len(r) != 6:
                    raise InputError(f"calibration table {path}: every row needs 6 fields")
                strategies.add(r[3])
                c0s.add(r[4])
                alpha0s.add(r[5])
                try:
                    for col, v in zip(cols, r):
                        col.append(float(v))
                except ValueError as exc:
                    bad = bad or exc
        if not strategies:
            raise InputError(f"empty calibration table {path}")
        if strategies != {"quadrature"}:
            raise InputError(f"calibration table {path}: strategy column must "
                             "read quadrature, the only way tables are built")
        if len(c0s) != 1 or len(alpha0s) != 1:
            raise InputError("mixed (c0, alpha0) in one table")
        try:
            if bad is not None:
                raise bad
            c0, alpha0 = float(c0s.pop()), float(alpha0s.pop())
        except ValueError as exc:
            raise InputError(f"calibration table {path}: {exc}") from exc
        sig, nus, val = (np.frombuffer(col) for col in cols)
        sg = np.unique(sig)
        ng = np.unique(nus)
        ac = np.full((sg.size, ng.size), np.nan)
        ac[np.searchsorted(sg, sig), np.searchsorted(ng, nus)] = val
        if np.isnan(ac).any():
            raise InputError(f"incomplete grid in calibration table {path}")
        return cls(sigma_grid=sg, nu_grid=ng, alpha_c=ac, c0=c0, alpha0=alpha0)


def build_calibration_table(spec: EquivalenceSpec = None,
                            sigma_grid=None, nu_grid=None,
                            path=None) -> CalibrationTable:
    """Tabulate alpha_c over a (sigma1, nu2) grid; optionally persist as CSV.

    Each cell runs the same quadrature calibration as
    :func:`ctost_star_calibrate`, so direct calls reproduce table entries
    exactly.  Default grid: sigma1 from 0.01 to 0.3 in steps of 0.005, nu2
    every integer from 5 to 100.
    """
    spec = spec or EquivalenceSpec()
    if sigma_grid is None:
        sigma_grid = np.round(np.arange(0.01, 0.3 + 1e-9, 0.005), 10)
    if nu_grid is None:
        nu_grid = np.arange(5, 101)
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    nu_grid = np.asarray(nu_grid)
    if sigma_grid.size == 0 or nu_grid.size == 0:
        raise InputError("grids must be nonempty")
    if np.any(np.diff(sigma_grid) <= 0) or np.any(np.diff(nu_grid) <= 0):
        raise InputError("grids must be sorted ascending")

    ac = np.empty((sigma_grid.size, nu_grid.size))
    for j, nu in enumerate(nu_grid):
        ac[:, j], _ = _calibrate_level(sigma_grid, int(nu), spec.c0, spec.alpha0)
    table = CalibrationTable(sigma_grid=sigma_grid, nu_grid=nu_grid, alpha_c=ac,
                             c0=spec.c0, alpha0=spec.alpha0)
    if path is not None:
        table.to_csv(path)
    return table


@lru_cache(maxsize=1)
def default_calibration_table() -> CalibrationTable:
    """The bundled table (c0 = log 1.25, alpha0 = 0.05), loaded once."""
    from importlib.resources import files

    return CalibrationTable.from_csv(str(files("equivkit.data") / "alpha_c_table.csv"))


# ---------------------------------------------------------------------------
# rejection rules and decisions
# ---------------------------------------------------------------------------

def _rule(method, sigma1, nu2, spec=None, tol=None, strategy="quadrature",
          table=None, fallback=False, multiplier=None, theta_hat=None) -> UnivAdjustment:
    """Multiplier t and margin c of ``method``'s rule |theta_hat| < c - t s.

    tost takes t_{alpha0,nu2} and c0; alpha-tost the multiplier of
    :func:`_alpha_star` and c0; ctost, ctost-star and delta-tost the margin
    of :func:`_match_margin` at level alpha0 and t = 0, at the cTOST* level
    (:func:`_star_level`, from ``strategy``, ``table`` and ``fallback``) and
    t = 0, or at level alpha0 and t = ``multiplier`` (default t_{alpha0,nu2}).
    tol overrides the solve tolerance (1e-10 for cTOST, 1e-8 for alpha* and
    delta-TOST); cTOST* margins always match to 1e-10.  Standard errors and
    nu2 are checked first (InputError).

    A scalar sigma1 gives floats; an array is a batch, whose fields hold
    arrays over its rows (or constants shared by all).  residual is the
    size residual of each row's last solve round, matched size minus its
    level (a saturated alpha-tost row: the size at alpha = 0.5 minus
    alpha0).  An unconverged solve raises NonConvergenceError naming
    the solve, the number of unconverged rows and the first of them.

    A batch may pass its estimates ``theta_hat`` when only the verdicts
    |theta_hat| < c - t s are wanted.  The solves of alpha-tost, ctost,
    ctost-star and delta-tost then stop a row once its verdict reads the
    same at both ends of its root's bracket, and that row's (t, c) is the
    bracket end it tested last.  Every point the solve would go on to test
    lies inside the bracket, and the verdict is monotone in the unknown, so
    that end decides the row as the root would.  Such a (t, c) is not the
    root: read only the verdicts from it.
    """
    spec = spec or EquivalenceSpec()
    c0, alpha0 = spec.c0, spec.alpha0
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    _check_sigma(sigma1, nu2)
    if method == "tost":
        return UnivAdjustment(method, float(t_quantile(alpha0, nu2)), c0)
    sigma = np.asarray(sigma1, dtype=float)
    alpha_adj = alpha_c = None
    saturated = clamped = False
    if method == "alpha-tost":
        alpha, t, resid, iters, conv = _alpha_star(sigma, nu2, c0, alpha0,
                                                   tol=1e-8 if tol is None else tol,
                                                   theta_hat=theta_hat)
        # the bisection only tests midpoints below 0.5, so 0.5 means saturated
        c, x, alpha_adj, saturated = c0, alpha, alpha, alpha == 0.5
        what = "alpha-TOST level"
    else:
        t, level = 0.0, alpha0
        if method == "ctost-star":
            level, clamped, calibrated = _star_level(sigma, nu2, spec, strategy, table,
                                                     fallback)
            alpha_c, tol, what = level, 1e-10, "margin at calibrated level"
        elif method == "ctost":
            what, tol = "cTOST margin", 1e-10 if tol is None else tol
        else:
            t = float(t_quantile(alpha0, nu2)) if multiplier is None else multiplier
            what, tol = "delta-TOST margin", 1e-8 if tol is None else tol
        u, iters, conv, resid = _match_margin(sigma, level, c0, tol=tol, nu2=nu2, t=t,
                                              theta_hat=theta_hat)
        if method == "ctost-star":  # cTOST* reports its calibration rounds
            iters = calibrated
        x = c = c0 + sigma * u
    if not conv.all():
        first = np.flatnonzero(~conv.ravel())[0]
        raise NonConvergenceError(
            f"{method}: {what} solve stopped unconverged within {_ROOT_MAX_ITER} "
            f"rounds for {np.count_nonzero(~conv)} of {conv.size} standard errors at "
            f"nu2={nu2}, first at sigma1={np.broadcast_to(sigma, conv.shape).flat[first]:.6g}, "
            f"residual {resid.flat[first]:.3e}", last=float(np.ravel(x)[first]))
    fields = (t, c, alpha_adj, alpha_c, iters, True, saturated, clamped, resid)
    if np.ndim(sigma1) == 0:
        fields = (v.item() if isinstance(v, (np.ndarray, np.generic)) else v for v in fields)
    return UnivAdjustment(method, *fields)


# the report's meta per method: meta key -> UnivAdjustment field, in order
_META = {
    "tost": {"t_used": "t_used", "c_used": "c_used"},
    "alpha-tost": {"alpha_adj": "alpha_adj", "t_used": "t_used",
                   "saturated": "saturated", "iterations": "iterations"},
    "delta-tost": {"c_star": "c_used", "t_used": "t_used", "iterations": "iterations"},
    "ctost": {k: k for k in ("t_used", "alpha_c", "iterations", "converged",
                             "clamped", "residual")},
}
_META["ctost-star"] = _META["ctost"]


def decide(s: UnivSummary, spec: EquivalenceSpec = None, *,
           strategy: str = "quadrature",
           table: "CalibrationTable" = None) -> DecisionReport:
    """Decision of spec.method on s: reject when |theta_hat| < c - t s.

    The one univariate decision entry point, and the CLI's.  (t, c) come
    from :func:`_rule`; strategy and table choose the cTOST* level source
    as in :func:`ctost_star_calibrate`.  The report's margin is c - t s.
    TOST, alpha-TOST and delta-TOST carry the interval theta_hat +- t s;
    delta-TOST compares it to its widened margins, so inclusion in
    (-c0, c0) is not implied by rejection and the report has ``iip=False``.
    cTOST and cTOST* (t = 0) carry theta_hat +- (c0 - margin), whose
    inclusion in (-c0, c0) is equivalent to rejection, when the margin sits
    below c0; a margin at or above c0 has no such reading and is reported
    with ``iip=False`` and no interval.
    """
    spec = spec or EquivalenceSpec()
    m = spec.method
    adj = _rule(m, s.sigma1_hat, s.nu2, spec, strategy=strategy, table=table)
    th, half = s.theta_hat, adj.t_used * s.sigma1_hat
    margin = adj.c_used - half
    if m in ("ctost", "ctost-star"):
        iip = margin < spec.c0
        slack = spec.c0 - margin
        intervals = ((th - slack, th + slack),) if iip else None
    else:
        iip = m != "delta-tost"
        intervals = ((th - half, th + half),)
    meta = {key: getattr(adj, name) for key, name in _META[m].items()}
    meta.update(sigma1_hat=s.sigma1_hat, nu2=s.nu2)
    return DecisionReport(
        method=m, reject=bool(abs(th) < margin), theta_hat=th, margins=(margin,),
        intervals=intervals, iip=iip, c0=spec.c0, alpha0=spec.alpha0, meta=meta)

"""Univariate equivalence decisions: TOST and its size-corrected variants.

The classical TOST declares equivalence when the 1-2*alpha0 confidence
interval falls inside (-c0, c0); it is conservative because its size drops
below alpha0 as the standard error grows.  The corrections here restore
size alpha0 exactly, each moving a different dial:

* alpha-TOST raises the level alpha (shrinking the t multiplier),
* delta-TOST widens the margins c with the multiplier fixed,
* cTOST sets the multiplier to zero and solves for the margin directly,
  which is the most powerful choice within the size-matched family,
* cTOST* additionally calibrates the target level to undo the small-sample
  bias introduced by plugging in an estimated standard error.

One bracketed root-finder (:func:`_increasing_root`) solves every level and
margin and reports iteration counts.  Every margin, at any multiplier, is a
guarded Newton solve (:func:`_match_margin`); only alpha* bisects.  Sizes
match to 1e-10 at multiplier zero, where they are closed forms, and to 1e-8
otherwise, where each size and its slope come from :mod:`equivkit.powerkernel`
to 1e-9.  A solve that stops unconverged raises NonConvergenceError, and so
does a size whose rule pair still disagrees at the largest rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .base import (
    ALPHA0_DEFAULT,
    C0_DEFAULT,
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
    "tost_decide",
    "ctost_adjust",
    "alpha_tost_adjust",
    "delta_tost_adjust",
    "margin_for_multiplier",
    "ctost_star_calibrate",
    "CalibrationTable",
    "build_calibration_table",
    "default_calibration_table",
    "ctost_decide",
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
    """Resolved (t, c) pair for a size-matched test, plus solver diagnostics.

    t_used is the standard-error multiplier actually applied and c_used the
    margin.  alpha_adj carries the adjusted level for alpha-TOST, alpha_c the
    calibrated target level for cTOST*.  residual is the final size residual
    of the matching equation.
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

def _increasing_root(resid, lo, hi, tol, x=None, slope=None):
    """Roots of residuals increasing in x, one per row of the bracket [lo, hi].

    ``resid(x, rows)`` and its derivative ``slope(x, rows)`` evaluate rows
    ``rows`` at x.  A row tests x (default: the midpoint) and stops once
    |residual| <= tol; else x replaces the bracket end on its side, and the
    row tests the Newton step if it lies strictly inside, else the midpoint.
    Rows stop unconverged once no double lies strictly inside the bracket,
    or after _ROOT_MAX_ITER rounds.  Returns (last x tested, its residual,
    rounds, converged_mask).
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


def _match_margin(sigma, level, c0=C0_DEFAULT, tol=1e-10, nu2=1, t=0.0):
    """Margins of size ``level`` at the multiplier t, elementwise, as offsets.

    Solves :func:`_size` (u) = level, at one multiplier t >= 0 with nu2
    degrees of freedom, for the standardized offset u = (c - c0) / sigma of
    each margin c, so it keeps its precision as sigma -> 0, where c tends
    to c0.  Newton's method on :func:`_size_slope`, from u = t - z_{1-level}
    (or 0 when that margin is not positive), guarded by the bracket
    [max(-c0 / sigma, start - 10 (1 + t)), max(start, 0) + 10 (1 + t)]
    (:func:`_increasing_root`), so it cannot diverge: the size is 0 at the
    margin 0 and below Phi(u) < level at start - 10 (1 + t), the half-width
    c - t s being at most c; at the upper end s <= 10 sigma gives a
    half-width of at least c0 + 10 sigma, so the size is at least
    P(s <= 10 sigma) (Phi(10) - Phi(-10)).  At t > 0 sizes agree to 1e-9
    (:func:`_omega_batch`), so callers pass tol 1e-8.  Returns
    (u, iterations, converged_mask) with u matching the broadcast shape.
    """
    sigma, level = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (sigma, level)))
    shape = sigma.shape
    sigma, level = sigma.ravel(), level.ravel()
    _check_sigma(sigma, nu2)
    if ((level <= 0) | (level >= 1)).any():
        raise InputError("level must lie in (0, 1)")
    if not (0 <= t < np.inf):
        raise InputError(f"t must be finite and >= 0, got {t}")

    # the slope at each row's last tested point, the point it is asked at
    dens = np.empty(sigma.size)

    def size_gap(u, rows):
        size, dens[rows] = _size_slope(u, sigma[rows], c0, nu2, t)
        return size - level[rows]

    start = t - special.ndtri(1.0 - level)
    floor = np.maximum(-c0 / sigma, start - 10.0 * (1.0 + t))
    start = np.where(start > floor, start, 0.0)
    u, _, iters, conv = _increasing_root(size_gap, floor,
                                         np.maximum(start, 0.0) + 10.0 * (1.0 + t),
                                         tol, x=start, slope=lambda u, rows: dens[rows])
    return u.reshape(shape), iters, conv.reshape(shape)


def _scalar_root(what, x, resid, conv):
    """(value, residual) of a one-row solve as floats; raises if unconverged."""
    x, resid = float(x), float(resid)
    if not conv:
        raise NonConvergenceError(
            f"{what} solve stopped unconverged within {_ROOT_MAX_ITER} rounds, "
            f"residual {resid:.3e}", last=x)
    return x, resid


def _scalar_margin(what, sigma1, level, c0, tol, nu2=1, t=0.0):
    """(margin c, size residual, rounds) of :func:`_match_margin` for one
    standard error, through :func:`_scalar_root`."""
    u, iters, conv = _match_margin(sigma1, level, c0, tol=tol, nu2=nu2, t=t)
    resid = _size(u, sigma1, c0, nu2, t) - level
    c, resid = _scalar_root(what, c0 + sigma1 * u, resid, conv)
    return c, resid, iters


def ctost_adjust(sigma1_hat: float, nu2: int, spec: EquivalenceSpec = None,
                 tol: float = 1e-10) -> UnivAdjustment:
    """Margin c with multiplier zero matching size alpha0 at sigma1_hat.

    The margin always exists and is unique: the size is 0 at c = 0 and
    increases to 1, so the guarded Newton iteration converges for any
    finite positive standard error.  nu2 does not enter the equation (the
    multiplier is zero); it is accepted for interface symmetry.
    """
    spec = spec or EquivalenceSpec()
    c, resid, iters = _scalar_margin("cTOST margin", sigma1_hat, spec.alpha0, spec.c0, tol)
    return UnivAdjustment(method="ctost", t_used=0.0, c_used=c,
                          iterations=iters, converged=True, residual=resid)


# ---------------------------------------------------------------------------
# level and margin adjustments at nonzero multiplier (alpha*, delta-TOST)
# ---------------------------------------------------------------------------

def _alpha_star(sigma, nu2, c0, alpha0, tol=1e-8):
    """Level alpha* whose multiplier t_{alpha*,nu2} gives size alpha0 at c0.

    Bisection over alpha in (alpha0, 0.5], vectorized over sigma, on the
    size :func:`_size` (0, sigma, c0, nu2, t) of the margin c0 at
    theta = c0: it increases in alpha, reaching its supremum at
    alpha = 0.5 where the multiplier vanishes.  Rows where even that
    supremum is below alpha0 have no interior solution; they saturate at
    alpha = 0.5, t = 0, with the shortfall as residual.  Returns
    (alpha, t, residual, iterations, converged_mask) of
    :func:`_increasing_root`.
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

    a, r, iters, ok = _increasing_root(size_gap, np.full(free.size, alpha0),
                                       np.full(free.size, 0.5), tol)
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
    spec = spec or EquivalenceSpec()
    return _scalar_margin("delta-TOST margin", sigma1, spec.alpha0, spec.c0, tol,
                          nu2, t)[0]


def delta_tost_adjust(sigma1_hat: float, nu2: int,
                      spec: EquivalenceSpec = None,
                      tol: float = 1e-8) -> UnivAdjustment:
    """Widened margins c* at the nominal level alpha0 (multiplier t_{alpha0,nu2})."""
    spec = spec or EquivalenceSpec()
    t = float(t_quantile(spec.alpha0, nu2))
    c, resid, iters = _scalar_margin("delta-TOST margin", sigma1_hat, spec.alpha0,
                                     spec.c0, tol, nu2, t)
    return UnivAdjustment(method="delta-tost", t_used=t, c_used=c,
                          iterations=iters, residual=resid)


def alpha_tost_adjust(sigma1_hat: float, nu2: int,
                      spec: EquivalenceSpec = None,
                      tol: float = 1e-8) -> UnivAdjustment:
    """Adjusted level alpha* with margins fixed at c0 (see :func:`_alpha_star`).

    If no interior solution exists the boundary value alpha = 0.5 is
    returned with ``saturated=True``; an unconverged solve raises.
    """
    spec = spec or EquivalenceSpec()
    _check_sigma(sigma1_hat)
    alpha, t, resid, iters, conv = _alpha_star(
        sigma1_hat, nu2, spec.c0, spec.alpha0, tol=tol)
    alpha, resid = _scalar_root("alpha-TOST level", alpha[0], resid[0], conv[0])
    # the bisection only tests midpoints below 0.5, so 0.5 means saturated
    return UnivAdjustment(method="alpha-tost", t_used=float(t[0]), c_used=spec.c0,
                          alpha_adj=alpha, iterations=iters,
                          saturated=alpha == 0.5, residual=resid)


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


def _expected_size(sigma, level, nu2, c0, u, wu):
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
    v, _, conv = _match_margin(sigma[..., None] * u, lv[..., None], c0)
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
    size, conv = _expected_size(sigma, alpha0, nu2, c0, u, wu)
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
    spec = spec or EquivalenceSpec()
    _check_sigma(sigma1_hat, nu2)
    if strategy not in STRATEGIES:
        raise InputError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")

    if strategy == "table-lookup":
        tbl = table if table is not None else default_calibration_table()
        _check_table(tbl, spec.c0, spec.alpha0)
        alpha_c = float(tbl.lookup(sigma1_hat, nu2))
        it_run, clamped = 0, alpha_c >= spec.alpha0
        alpha_c = min(alpha_c, spec.alpha0)
    else:
        a, clamped_m = _calibrate_level(sigma1_hat, nu2, spec.c0, spec.alpha0)
        it_run, alpha_c, clamped = 1, float(a[0]), bool(clamped_m[0])

    c, resid, _ = _scalar_margin(f"margin at calibrated level {alpha_c!r}",
                                 sigma1_hat, alpha_c, spec.c0, 1e-10)
    return UnivAdjustment(method="ctost-star", t_used=0.0, c_used=c,
                          alpha_c=alpha_c, iterations=it_run,
                          clamped=clamped, residual=resid)


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
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "sigma1,nu2,alpha_c,strategy,c0,alpha0":
                raise InputError(f"unrecognized table header {header!r} in {path}")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if not rows:
            raise InputError(f"empty calibration table {path}")
        if any(len(r) != 6 for r in rows):
            raise InputError(f"calibration table {path}: every row needs 6 fields")
        if {r[3] for r in rows} != {"quadrature"}:
            raise InputError(f"calibration table {path}: strategy column must "
                             "read quadrature, the only way tables are built")
        c0s = {r[4] for r in rows}
        alpha0s = {r[5] for r in rows}
        if len(c0s) != 1 or len(alpha0s) != 1:
            raise InputError("mixed (c0, alpha0) in one table")
        try:
            sig, nus, val = (np.array([float(r[i]) for r in rows]) for i in range(3))
            c0, alpha0 = float(c0s.pop()), float(alpha0s.pop())
        except ValueError as exc:
            raise InputError(f"calibration table {path}: {exc}") from exc
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
# decisions
# ---------------------------------------------------------------------------

def tost_decide(s: UnivSummary, spec: EquivalenceSpec = None) -> DecisionReport:
    """Classical TOST: reject when theta_hat +- t_{alpha0,nu2} s fits in (-c0, c0)."""
    spec = spec or EquivalenceSpec()
    t = float(t_quantile(spec.alpha0, s.nu2))
    half = t * s.sigma1_hat
    margin = spec.c0 - half
    reject = bool(abs(s.theta_hat) < margin)
    return DecisionReport(
        method="tost", reject=reject, theta_hat=s.theta_hat,
        margins=(margin,), intervals=((s.theta_hat - half, s.theta_hat + half),),
        iip=True, c0=spec.c0, alpha0=spec.alpha0,
        meta={"t_used": t, "c_used": spec.c0, "sigma1_hat": s.sigma1_hat,
              "nu2": s.nu2})


def ctost_decide(s: UnivSummary, spec: EquivalenceSpec = None,
                 refined: bool = False, **calibrate_kwargs) -> DecisionReport:
    """Corrected TOST: reject when |theta_hat| clears the matched margin.

    ``refined`` switches to the calibrated margin (cTOST*); extra keyword
    arguments are forwarded to :func:`ctost_star_calibrate`.  When the
    margin sits below c0 the report carries the interval
    theta_hat +- (c0 - margin), whose inclusion in (-c0, c0) is equivalent
    to rejection; a margin at or above c0 has no such reading and is
    reported with ``iip=False``.
    """
    spec = spec or EquivalenceSpec()
    if refined:
        adj = ctost_star_calibrate(s.sigma1_hat, s.nu2, spec, **calibrate_kwargs)
    else:
        adj = ctost_adjust(s.sigma1_hat, s.nu2, spec)
    margin = adj.c_used
    reject = bool(abs(s.theta_hat) < margin)
    iip = margin < spec.c0
    slack = spec.c0 - margin
    intervals = ((s.theta_hat - slack, s.theta_hat + slack),) if iip else None
    return DecisionReport(
        method=adj.method, reject=reject, theta_hat=s.theta_hat,
        margins=(margin,), intervals=intervals, iip=iip,
        c0=spec.c0, alpha0=spec.alpha0,
        meta={"t_used": adj.t_used, "alpha_c": adj.alpha_c,
              "iterations": adj.iterations, "converged": adj.converged,
              "clamped": adj.clamped, "residual": adj.residual,
              "sigma1_hat": s.sigma1_hat, "nu2": s.nu2})


def decide(s: UnivSummary, spec: EquivalenceSpec = None,
           **kwargs) -> DecisionReport:
    """Dispatch on spec.method; the single entry point used by the CLI."""
    spec = spec or EquivalenceSpec()
    m = spec.method
    if m == "tost":
        return tost_decide(s, spec)
    if m == "ctost":
        return ctost_decide(s, spec, refined=False, **kwargs)
    if m == "ctost-star":
        return ctost_decide(s, spec, refined=True, **kwargs)
    if m == "alpha-tost":
        adj = alpha_tost_adjust(s.sigma1_hat, s.nu2, spec)
        half = adj.t_used * s.sigma1_hat
        margin = spec.c0 - half
        return DecisionReport(
            method="alpha-tost", reject=bool(abs(s.theta_hat) < margin),
            theta_hat=s.theta_hat, margins=(margin,),
            intervals=((s.theta_hat - half, s.theta_hat + half),), iip=True,
            c0=spec.c0, alpha0=spec.alpha0,
            meta={"alpha_adj": adj.alpha_adj, "t_used": adj.t_used,
                  "saturated": adj.saturated, "iterations": adj.iterations,
                  "sigma1_hat": s.sigma1_hat, "nu2": s.nu2})
    if m == "delta-tost":
        adj = delta_tost_adjust(s.sigma1_hat, s.nu2, spec)
        half = adj.t_used * s.sigma1_hat
        margin = adj.c_used - half
        # the interval is compared to the *widened* margins, so inclusion in
        # the nominal box is not implied by rejection
        return DecisionReport(
            method="delta-tost", reject=bool(abs(s.theta_hat) < margin),
            theta_hat=s.theta_hat, margins=(margin,),
            intervals=((s.theta_hat - half, s.theta_hat + half),), iip=False,
            c0=spec.c0, alpha0=spec.alpha0,
            meta={"c_star": adj.c_used, "t_used": adj.t_used,
                  "iterations": adj.iterations,
                  "sigma1_hat": s.sigma1_hat, "nu2": s.nu2})
    raise InputError(f"unknown method {m!r}")

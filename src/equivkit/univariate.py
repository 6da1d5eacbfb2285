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
margin to a size residual of 1e-10 (cTOST margin, by Newton) or 1e-8 (by
bisection) and reports iteration counts.  At a nonzero multiplier each size
comes from :mod:`equivkit.powerkernel`, whose Gauss-Kronrod value agrees
with its embedded Gauss value to 1e-9, so a re-evaluation there closes the
loop.  A solve that stops unconverged raises NonConvergenceError, and so
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
from .statdist import _leggauss, _scaled_chi_logpdf, _unit_chi_bounds, t_quantile

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
        if not (self.sigma1_hat > 0):
            raise InputError(f"sigma1_hat must be positive, got {self.sigma1_hat}")
        if self.nu2 < 1:
            raise InputError(f"nu2 must be >= 1, got {self.nu2}")


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
# margin matching at fixed multiplier zero (the cTOST equation)
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


def _size_fixed(c, sigma, c0):
    """Size of the fixed-margin test: Phi((c0+c)/s) - Phi((c0-c)/s)."""
    return special.ndtr((c0 + c) / sigma) - special.ndtr((c0 - c) / sigma)


def _margin_bracket(sigma, level, c0, start=None):
    """Start and upper bracket end of the margin solve, flat arrays.

    The start is ``start`` when given, else c0 - s * z_{1-level} (or c0
    when that is nonpositive).  At the upper end, 10 s above the larger of
    the start and c0, the size is at least Phi(10) - Phi(-10), which is 1
    in double precision, so the end holds the root of every level below 1
    and needs no doubling.  Where 10 s is within a few ulps of the larger
    term, the sum rounds back toward it; the end then keeps a relative
    1e-15 above it, far enough for the same bound.
    """
    if start is None:
        start = c0 - sigma * special.ndtri(1.0 - level)
        start = np.where(start > 0, start, c0)
    top = np.maximum(start, c0)
    return start, np.maximum(top + 10.0 * sigma, top * (1.0 + 1e-15))


def _match_margin(sigma, level, c0=C0_DEFAULT, tol=1e-10, start=None):
    """Solve Phi((c0+c)/s) - Phi((c0-c)/s) = level for c, elementwise.

    Newton iteration started from ``start`` (positive margins of the
    broadcast shape, such as the solution at a nearby level), by default
    from c0 - s * z_{1-level} (or c0 when that is nonpositive), guarded by
    a bracket (:func:`_margin_bracket`, :func:`_increasing_root`), so it
    cannot diverge.  Returns (c, iterations, converged_mask) with c
    matching the broadcast shape.
    """
    sigma, level = np.broadcast_arrays(
        np.asarray(sigma, dtype=float), np.asarray(level, dtype=float)
    )
    shape = sigma.shape
    sigma = sigma.ravel()
    level = level.ravel()
    if (sigma <= 0).any():
        raise InputError("sigma must be positive")
    if ((level <= 0) | (level >= 1)).any():
        raise InputError("level must lie in (0, 1)")
    if start is not None:
        start = np.broadcast_to(np.asarray(start, dtype=float), shape).ravel()

    def size_gap(c, rows):
        return _size_fixed(c, sigma[rows], c0) - level[rows]

    def slope(c, rows):
        # ratios cut to 40 so squares cannot overflow: exp(-800) is 0 anyway
        # (c0 + c > 0 as c >= 0 in the bracket)
        s = sigma[rows]
        u = np.minimum((c0 + c) / s, 40.0)
        v = np.minimum(np.abs((c0 - c) / s), 40.0)
        return (np.exp(-0.5 * u ** 2) + np.exp(-0.5 * v ** 2)) / (s * np.sqrt(2.0 * np.pi))

    start, hi = _margin_bracket(sigma, level, c0, start)
    c, _, iters, conv = _increasing_root(size_gap, np.zeros_like(hi), hi, tol,
                                         x=start, slope=slope)
    return c.reshape(shape), iters, conv.reshape(shape)


def ctost_adjust(sigma1_hat: float, nu2: int, spec: EquivalenceSpec = None,
                 tol: float = 1e-10) -> UnivAdjustment:
    """Margin c with multiplier zero matching size alpha0 at sigma1_hat.

    The margin always exists and is unique: the size is 0 at c = 0 and
    increases to 1, so the guarded Newton iteration converges for any
    positive standard error.  nu2 does not enter the equation (the
    multiplier is zero); it is accepted for interface symmetry.
    """
    spec = spec or EquivalenceSpec()
    if not (sigma1_hat > 0):
        raise InputError(f"sigma1_hat must be positive, got {sigma1_hat}")
    c, iters, conv = _match_margin(sigma1_hat, spec.alpha0, spec.c0, tol=tol)
    c = float(c)
    resid = float(_size_fixed(c, sigma1_hat, spec.c0) - spec.alpha0)
    if not bool(conv):
        raise NonConvergenceError(
            f"cTOST margin solve stopped unconverged within {_ROOT_MAX_ITER} "
            f"rounds, residual {resid:.3e}", last=c)
    return UnivAdjustment(method="ctost", t_used=0.0, c_used=c,
                          iterations=iters, converged=True, residual=resid)


# ---------------------------------------------------------------------------
# level and margin adjustments at nonzero multiplier
# ---------------------------------------------------------------------------

def _alpha_star(sigma, nu2, c0, alpha0, tol=1e-8):
    """Level alpha* whose multiplier t_{alpha*,nu2} gives size alpha0 at c0.

    Bisection over alpha in (alpha0, 0.5], vectorized over sigma: the size
    increases in alpha, reaching its supremum at alpha = 0.5 where the
    multiplier vanishes.  Rows where even that supremum is below alpha0
    have no interior solution; they saturate at alpha = 0.5, t = 0, with
    the shortfall as residual.  Returns (alpha, t, residual, iterations,
    converged_mask) of :func:`_increasing_root`.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    alpha = np.full(sigma.shape, 0.5)
    t = np.zeros(sigma.shape)
    resid = _size_fixed(c0, sigma, c0) - alpha0
    conv = np.ones(sigma.shape, dtype=bool)
    free = np.flatnonzero(resid >= 0)
    sg = sigma[free]

    def size_gap(a, rows):
        return _omega_batch(c0, sg[rows], nu2, t_quantile(a, nu2), c0) - alpha0

    a, r, iters, ok = _increasing_root(size_gap, np.full(free.size, alpha0),
                                       np.full(free.size, 0.5), tol)
    alpha[free], resid[free], conv[free] = a, r, ok
    t[free] = t_quantile(a, nu2)
    return alpha, t, resid, iters, conv


def _delta_margin(sigma, nu2, t, c0, alpha0, tol=1e-8):
    """Margin c giving size alpha0 at c0 when the test subtracts t * s.

    Bisection on c, vectorized over sigma at one multiplier t >= 0; the
    size is strictly increasing in c, 0 as c -> 0 and 1 as c -> infinity,
    so a root always exists.  It lies below c0 + 10 sigma (1 + t): there
    s <= 10 sigma gives a half-width c - t s of at least c0 + 10 sigma, so
    the size is at least P(s <= 10 sigma) (Phi(10) - Phi(-10)).  Returns
    (c, residual, iterations, converged_mask) of :func:`_increasing_root`.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))

    def size_gap(c, rows):
        return _omega_batch(c0, sigma[rows], nu2, t, c) - alpha0

    return _increasing_root(size_gap, np.zeros(sigma.shape),
                            c0 + 10.0 * sigma * (1.0 + t), tol)


def _scalar_root(what, x, resid, conv):
    """(value, residual) of a one-row solve; raises if it stopped unconverged."""
    if not conv[0]:
        raise NonConvergenceError(
            f"{what} solve stopped unconverged within {_ROOT_MAX_ITER} rounds, "
            f"residual {resid[0]:.3e}", last=float(x[0]))
    return float(x[0]), float(resid[0])


def margin_for_multiplier(sigma1: float, nu2: int, t: float,
                          spec: EquivalenceSpec = None,
                          tol: float = 1e-8) -> float:
    """Margin c matching size alpha0 when the test subtracts t * s.

    Bisection on c (:func:`_delta_margin`); raises NonConvergenceError if
    it stops unconverged.  t = 0 gives the cTOST margin (to the looser tol).
    """
    spec = spec or EquivalenceSpec()
    if not (sigma1 > 0) or t < 0:
        raise InputError("need sigma1 > 0 and t >= 0")
    c, resid, _, conv = _delta_margin(sigma1, nu2, t, spec.c0, spec.alpha0, tol=tol)
    return _scalar_root("delta-TOST margin", c, resid, conv)[0]


def delta_tost_adjust(sigma1_hat: float, nu2: int,
                      spec: EquivalenceSpec = None,
                      tol: float = 1e-8) -> UnivAdjustment:
    """Widened margins c* at the nominal level alpha0 (multiplier t_{alpha0,nu2})."""
    spec = spec or EquivalenceSpec()
    if not (sigma1_hat > 0):
        raise InputError(f"sigma1_hat must be positive, got {sigma1_hat}")
    t = float(t_quantile(spec.alpha0, nu2))
    c, resid, iters, conv = _delta_margin(sigma1_hat, nu2, t, spec.c0,
                                          spec.alpha0, tol=tol)
    c, resid = _scalar_root("delta-TOST margin", c, resid, conv)
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
    if not (sigma1_hat > 0):
        raise InputError(f"sigma1_hat must be positive, got {sigma1_hat}")
    alpha, t, resid, iters, conv = _alpha_star(
        sigma1_hat, nu2, spec.c0, spec.alpha0, tol=tol)
    alpha, resid = _scalar_root("alpha-TOST level", alpha, resid, conv)
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
    then its realized size is evaluated at the observed sigma; the
    expectation over u is a row-wise weighted sum, so each row's value
    does not depend on how many rows share the call.  Returns the
    expectations and a mask of the rows whose margins all converged.
    """
    sigma = np.asarray(sigma, dtype=float)
    lv = np.asarray(level, dtype=float)
    chat, _, conv = _match_margin(sigma[..., None] * u, lv[..., None], c0)
    om = _size_fixed(chat, sigma[..., None], c0)
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
    if not (sigma1_hat > 0):
        raise InputError(f"sigma1_hat must be positive, got {sigma1_hat}")
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

    c, _, conv = _match_margin(sigma1_hat, alpha_c, spec.c0)
    c = float(c)
    if not bool(conv):
        raise NonConvergenceError(
            f"margin at calibrated level {alpha_c!r} did not converge", last=c)
    resid = float(_size_fixed(c, sigma1_hat, spec.c0) - alpha_c)
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

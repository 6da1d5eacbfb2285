"""Reproducible Monte Carlo experiments for equivalence test procedures.

Two designs are covered.  The univariate sweep draws (theta_hat,
sigma1_hat) cells over a grid of (sigma1, nu2, theta) and records the
empirical rejection rate of each requested procedure; cells at theta = c0
measure size and cells at theta = 0 measure power.  The multivariate
trajectory design moves the mean along each method's own worst-case
boundary direction lambda, scaled by kappa, so the kappa = 1 cell reads
the empirical size and kappa < 1 cells read power.

Determinism contract: every cell consumes its own counter-based RNG
stream derived from (seed, design, cell indices), so results are
independent of execution order, and identical (config, seed) pairs give
identical records.  Within a cell all methods share the same draws
(common random numbers), which tightens power comparisons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from hashlib import sha256
from importlib import metadata

import numpy as np

from .base import (
    ALPHA0_DEFAULT,
    C0_DEFAULT,
    EquivalenceSpec,
    InputError,
)
from .mvt import MvtSummary, ctost_mvt_adjust, lambda_argsup
from .statdist import rng_stream, sample_wishart_diag, t_quantile
from .univariate import _check_table, _rule, _table_fits, default_calibration_table

__all__ = [
    "DESIGNS",
    "UNIV_METHODS",
    "MVT_METHODS",
    "MVT_SIGMA_CONFIGS",
    "CSV_HEADER",
    "SimulationConfig",
    "SimulationResult",
    "univariate_sweep_config",
    "mvt_kappa_config",
    "run_simulation",
    "run_univariate_sweep",
    "run_mvt_kappa",
    "emit_plot_data",
]

DESIGNS = ("univariate-sweep", "mvt-kappa")
UNIV_METHODS = ("tost", "alpha-tost", "delta-tost", "ctost", "ctost-star")
MVT_METHODS = ("tost", "ctost")
CSV_HEADER = "design,K,rho,sigma_config,nu2,theta_or_kappa,method,rate,stderr,n,seed"

# the six bivariate standard-error configurations of the trajectory study;
# K = 4 repeats each pair as (a, a, b, b)
MVT_SIGMA_CONFIGS = (
    (0.08, 0.08),
    (0.12, 0.12),
    (0.16, 0.16),
    (0.08, 0.12),
    (0.08, 0.16),
    (0.12, 0.16),
)


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation study.

    For the univariate sweep, sigma_grid holds sigma1 values and
    theta_or_kappa_grid holds theta values.  For the trajectory design,
    sigma_grid holds (sigma_a, sigma_b) pairs (expanded per dimension K)
    and theta_or_kappa_grid holds kappa multipliers of the worst-case
    direction.
    """

    design: str
    sigma_grid: tuple
    nu2_set: tuple
    theta_or_kappa_grid: tuple
    K: int = 1
    rho_set: tuple = (0.0,)
    methods: tuple = ("tost", "ctost")
    replicates: int = 10_000
    seed: int = 0
    c0: float = C0_DEFAULT
    alpha0: float = ALPHA0_DEFAULT

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise InputError(f"design must be one of {DESIGNS}, got {self.design!r}")
        methods = tuple(dict.fromkeys(self.methods))
        valid = UNIV_METHODS if self.design == "univariate-sweep" else MVT_METHODS
        if not methods:
            raise InputError("methods must be nonempty")
        for m in methods:
            if m not in valid:
                raise InputError(
                    f"method {m!r} is not available for design {self.design!r}; "
                    f"choose from {valid}"
                )
        if self.replicates < 100:
            raise InputError(f"replicates must be >= 100, got {self.replicates}")
        nu2_set = tuple(int(v) for v in self.nu2_set)
        if not nu2_set or any(v < 1 for v in nu2_set):
            raise InputError("nu2_set must be nonempty positive integers")
        grid = tuple(float(v) for v in self.theta_or_kappa_grid)
        if not grid or any(not np.isfinite(v) for v in grid):
            raise InputError("theta_or_kappa_grid must be nonempty and finite")
        rho_set = tuple(float(r) for r in self.rho_set)
        if not rho_set or any(not -1.0 < r < 1.0 for r in rho_set):
            raise InputError("rho_set entries must lie in (-1, 1)")
        if not self.c0 > 0 or not 0.0 < self.alpha0 < 0.5:
            raise InputError("need c0 > 0 and alpha0 in (0, 0.5)")
        if self.design == "univariate-sweep":
            if self.K != 1:
                raise InputError("univariate-sweep requires K = 1")
            sigma_grid = tuple(float(s) for s in self.sigma_grid)
            if not sigma_grid or any(s <= 0 for s in sigma_grid):
                raise InputError("sigma_grid must be nonempty positive reals")
        else:
            if self.K not in (2, 4):
                raise InputError("mvt-kappa supports K in {2, 4}")
            entries = []
            for entry in self.sigma_grid:
                pair = tuple(float(v) for v in np.atleast_1d(np.asarray(entry)))
                if len(pair) != 2 or any(v <= 0 for v in pair):
                    raise InputError(
                        "mvt-kappa sigma_grid entries must be positive "
                        "(sigma_a, sigma_b) pairs"
                    )
                entries.append(pair)
            sigma_grid = tuple(entries)
            if not sigma_grid:
                raise InputError("sigma_grid must be nonempty")
            if any(v < 0 for v in grid):
                raise InputError("kappa grid must be nonnegative")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "nu2_set", nu2_set)
        object.__setattr__(self, "theta_or_kappa_grid", grid)
        object.__setattr__(self, "rho_set", rho_set)
        object.__setattr__(self, "sigma_grid", sigma_grid)
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "alpha0", float(self.alpha0))

    def canonical(self):
        """Plain-dict form used for hashing and CLI echo."""
        return {
            "design": self.design,
            "sigma_grid": self.sigma_grid,
            "nu2_set": self.nu2_set,
            "theta_or_kappa_grid": self.theta_or_kappa_grid,
            "K": self.K,
            "rho_set": self.rho_set,
            "methods": self.methods,
            "replicates": self.replicates,
            "seed": self.seed,
            "c0": self.c0,
            "alpha0": self.alpha0,
        }


@dataclass(frozen=True)
class SimulationResult:
    """Per-cell rejection records plus provenance.

    Each record is a dict with the fixed CSV schema keys (see CSV_HEADER).
    diagnostics carries any non-tabular run information a design reports.
    """

    records: tuple
    seed: int
    config_hash: str
    code_version: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))


def _code_version():
    try:
        return metadata.version("equivkit")
    except metadata.PackageNotFoundError:
        return "unknown"


def _config_hash(cfg):
    text = json.dumps(cfg.canonical(), sort_keys=True)
    return sha256(text.encode("utf-8")).hexdigest()[:16]


def univariate_sweep_config(scale="desk", seed=0,
                            methods=("tost", "alpha-tost", "ctost", "ctost-star"),
                            c0=C0_DEFAULT, alpha0=ALPHA0_DEFAULT,
                            replicates=None):
    """Standard univariate size/power sweep at desk or full scale.

    Desk scale thins the sigma grid to 21 points and uses 10^4 replicates
    so a run takes minutes; full scale restores the 1000-point grid and
    10^5 replicates.
    """
    if scale not in ("desk", "full"):
        raise InputError(f"scale must be 'desk' or 'full', got {scale!r}")
    n_sigma, default_reps = (21, 10_000) if scale == "desk" else (1000, 100_000)
    return SimulationConfig(
        design="univariate-sweep",
        sigma_grid=tuple(np.linspace(0.01, 0.2, n_sigma)),
        nu2_set=(10, 20, 40, 80),
        theta_or_kappa_grid=(0.0, float(c0)),
        K=1,
        rho_set=(0.0,),
        methods=methods,
        replicates=default_reps if replicates is None else replicates,
        seed=seed,
        c0=c0,
        alpha0=alpha0,
    )


def mvt_kappa_config(scale="desk", seed=0, K=2, methods=("tost", "ctost"),
                     rho_set=(0.0, 0.5, 0.9), nu2=20,
                     c0=C0_DEFAULT, alpha0=ALPHA0_DEFAULT, replicates=None):
    """Bivariate trajectory study over the six standard sigma configs.

    kappa runs over 30 equally spaced values in [0, 1.2]; desk scale uses
    10^4 replicates, full scale 5 x 10^4.
    """
    if scale not in ("desk", "full"):
        raise InputError(f"scale must be 'desk' or 'full', got {scale!r}")
    default_reps = 10_000 if scale == "desk" else 50_000
    return SimulationConfig(
        design="mvt-kappa",
        sigma_grid=MVT_SIGMA_CONFIGS,
        nu2_set=(int(nu2),),
        theta_or_kappa_grid=tuple(np.linspace(0.0, 1.2, 30)),
        K=K,
        rho_set=rho_set,
        methods=methods,
        replicates=default_reps if replicates is None else replicates,
        seed=seed,
        c0=c0,
        alpha0=alpha0,
    )


def _record(cfg, K, rho, sigma_config, nu2, x, method, n_reject):
    rate = n_reject / cfg.replicates
    stderr = float(np.sqrt(rate * (1.0 - rate) / cfg.replicates))
    return {
        "design": cfg.design,
        "K": int(K),
        "rho": float(rho),
        "sigma_config": sigma_config,
        "nu2": int(nu2),
        "theta_or_kappa": float(x),
        "method": method,
        "rate": float(rate),
        "stderr": stderr,
        "n": cfg.replicates,
        "seed": cfg.seed,
    }


def _sigma_hat_draws(sigma, nu2, n, rng):
    """n standard-error estimates s with nu2 s^2 / sigma^2 ~ chi2(nu2)."""
    return sigma * np.sqrt(rng.chisquare(nu2, size=n) / nu2)


def _univ_cell_rejections(cfg, table, nu2, th, sh):
    """Per-method boolean rejection vectors for one cell (shared draws).

    Each method's (t, c) per replicate come from :func:`univariate._rule`;
    ctost-star looks its levels up in ``table`` (quadrature off its grid, or
    for every replicate when there is no table).  The rule gets |theta_hat|
    too, so each replicate's solve stops once its verdict is fixed: its
    (t, c) is then an end of the root's bracket, which decides it as the
    root would, and the rejections equal those of the full solves.
    """
    spec = EquivalenceSpec(c0=cfg.c0, alpha0=cfg.alpha0)
    strategy = "quadrature" if table is None else "table-lookup"
    ath = np.abs(th)
    out = {}
    for method in cfg.methods:
        rule = _rule(method, sh, nu2, spec, strategy=strategy, table=table, fallback=True,
                     theta_hat=ath)
        out[method] = ath < rule.c_used - rule.t_used * sh
    return out


def run_univariate_sweep(cfg, table=None):
    """Run the univariate size/power sweep described by cfg.

    ctost-star cells look their calibrated levels up in ``table`` (which
    must be built for cfg's c0 and alpha0, else InputError), clamp them at
    alpha0 as `univariate.ctost_star_calibrate` does, and fall back to
    quadrature off its grid.  Without a table they use the bundled one
    when it fits cfg's c0 and alpha0, and quadrature otherwise.

    Raises NonConvergenceError, naming the method and nu2, when a margin or
    level solve stops at its iteration cap before a replicate's verdict is
    fixed.
    """
    if cfg.design != "univariate-sweep":
        raise InputError(f"config design is {cfg.design!r}, expected univariate-sweep")
    if table is not None:
        _check_table(table, cfg.c0, cfg.alpha0)
    elif "ctost-star" in cfg.methods:
        table = default_calibration_table()
        if not _table_fits(table, cfg.c0, cfg.alpha0):
            table = None
    records = []
    for i_n, nu2 in enumerate(cfg.nu2_set):
        for i_s, sigma in enumerate(cfg.sigma_grid):
            label = repr(float(sigma))
            for i_t, theta in enumerate(cfg.theta_or_kappa_grid):
                rng = rng_stream(cfg.seed, "univ", i_s, i_n, i_t)
                th = theta + sigma * rng.standard_normal(cfg.replicates)
                sh = _sigma_hat_draws(sigma, nu2, cfg.replicates, rng)
                rejects = _univ_cell_rejections(cfg, table, nu2, th, sh)
                for method in cfg.methods:
                    records.append(_record(
                        cfg, K=1, rho=0.0, sigma_config=label,
                        nu2=nu2, x=theta, method=method,
                        n_reject=int(np.count_nonzero(rejects[method]))))
    return SimulationResult(tuple(records), cfg.seed, _config_hash(cfg),
                            _code_version())


def _mvt_lambdas(cfg, spec, sigma_vec, corr, nu2, t_tost):
    """Per-method worst boundary direction (and fixed margins) for one cell.

    Returns (lam, margins) dicts keyed by method.  The zero-multiplier
    margins come from the joint fit at the cell's true covariance, so the
    same solve provides both the direction and the rejection region.
    """
    lam, margins = {}, {}
    for method in cfg.methods:
        if method == "ctost":
            summ = MvtSummary(np.zeros(cfg.K), sigma_vec, corr, nu2)
            adj = ctost_mvt_adjust(summ, spec=spec, seed=cfg.seed)
            lam[method] = np.asarray(adj.lambda_.lambda_, dtype=float)
            margins[method] = np.asarray(adj.c_star, dtype=float)
        else:  # tost: fixed multiplier, fixed margin; MC objective search
            res = lambda_argsup(sigma_vec, corr, nu2, c=np.full(cfg.K, cfg.c0),
                                spec=spec, tol=1e-3, seed=cfg.seed,
                                t=np.full(cfg.K, t_tost))
            lam[method] = np.asarray(res.lambda_, dtype=float)
    return lam, margins


def run_mvt_kappa(cfg):
    """Run the multivariate kappa-trajectory study described by cfg.

    The zero-multiplier rejection region is a fixed box: its margins are a
    function of the cell's true covariance only, never of the scale
    estimates, so they are fitted once per cell.  The classical method's
    region does involve the per-replicate standard-error estimates, which
    are drawn from the cell's Wishart diagonals.  All methods in a cell
    share the same effect draws (common random numbers).
    """
    if cfg.design != "mvt-kappa":
        raise InputError(f"config design is {cfg.design!r}, expected mvt-kappa")
    spec = EquivalenceSpec(c0=cfg.c0, alpha0=cfg.alpha0)
    records = []
    for i_cfg, pair in enumerate(cfg.sigma_grid):
        sigma_vec = np.array(pair if cfg.K == 2
                             else (pair[0], pair[0], pair[1], pair[1]))
        label = ":".join(repr(v) for v in pair)
        for i_rho, rho in enumerate(cfg.rho_set):
            corr = np.full((cfg.K, cfg.K), rho)
            np.fill_diagonal(corr, 1.0)
            chol = np.linalg.cholesky(np.outer(sigma_vec, sigma_vec) * corr)
            for i_n, nu2 in enumerate(cfg.nu2_set):
                t_tost = float(t_quantile(cfg.alpha0, nu2))
                lam, margins = _mvt_lambdas(cfg, spec, sigma_vec, corr,
                                            nu2, t_tost)
                rng = rng_stream(cfg.seed, "mvt", i_cfg, i_rho, i_n)
                noise = rng.standard_normal((cfg.replicates, cfg.K)) @ chol.T
                if "tost" in cfg.methods:
                    sh = sample_wishart_diag(sigma_vec, corr, nu2,
                                             cfg.replicates, rng)
                    margins["tost"] = cfg.c0 - t_tost * sh
                for kappa in cfg.theta_or_kappa_grid:
                    for method in cfg.methods:
                        th = kappa * lam[method][None, :] + noise
                        ok = np.all(np.abs(th) < margins[method], axis=1)
                        records.append(_record(
                            cfg, K=cfg.K, rho=rho, sigma_config=label,
                            nu2=nu2, x=kappa, method=method,
                            n_reject=int(np.count_nonzero(ok))))
    return SimulationResult(tuple(records), cfg.seed, _config_hash(cfg),
                            _code_version())


def run_simulation(cfg, table=None):
    """Dispatch on cfg.design; ``table`` serves the univariate sweep only."""
    if cfg.design == "univariate-sweep":
        return run_univariate_sweep(cfg, table)
    if table is not None:
        raise InputError("the mvt-kappa design takes no calibration table")
    return run_mvt_kappa(cfg)


def emit_plot_data(result, path):
    """Write the result as a tidy CSV with the fixed schema (CSV_HEADER).

    Floats are written in shortest round-trip form, so re-running with the
    same seed reproduces the file byte for byte.
    """
    if not result.records:
        raise InputError("cannot emit an empty simulation result")
    lines = [CSV_HEADER]
    for r in result.records:
        lines.append(",".join((
            r["design"],
            str(r["K"]),
            repr(float(r["rho"])),
            r["sigma_config"],
            str(r["nu2"]),
            repr(float(r["theta_or_kappa"])),
            r["method"],
            repr(float(r["rate"])),
            repr(float(r["stderr"])),
            str(r["n"]),
            str(r["seed"]),
        )))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path

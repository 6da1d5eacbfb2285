"""Reference computations used to check the library's outputs.

Written against scipy only, so a defect in equivkit's own solvers cannot
hide behind the check: univariate sizes and powers by adaptive quadrature
over the standard-error law, and normal rectangle probabilities by nested
Gauss-Legendre rules with node counts unrelated to the library's.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

C0 = math.log(1.25)
ALPHA0 = 0.05

_GL_X, _GL_W = np.polynomial.legendre.leggauss(200)
_OUTER_X, _OUTER_W = np.polynomial.legendre.leggauss(64)
_CUT = 9.0


def t_multiplier(alpha, nu2):
    """Upper-tail Student t quantile with survival alpha."""
    return float(special.stdtrit(nu2, 1.0 - alpha))


def size_fixed(c, sigma, c0=C0):
    """Size of the fixed-margin test |theta_hat| < c at theta = c0."""
    return float(special.ndtr((c0 + c) / sigma) - special.ndtr((c0 - c) / sigma))


def reject_prob(theta, sigma, nu2, t, c):
    """P(|theta_hat| < c - t s), theta_hat ~ N(theta, sigma^2), s scaled chi.

    s = sigma * sqrt(V / nu2) with V chi-square(nu2); the conditional
    probability given s is integrated against the density of s with
    scipy's adaptive quadrature.
    """
    if t == 0.0:
        return float(special.ndtr((c - theta) / sigma) - special.ndtr((-c - theta) / sigma))
    nu = float(nu2)
    log_norm = (math.log(2.0) + 0.5 * nu * math.log(nu / (2.0 * sigma * sigma))
                - special.gammaln(0.5 * nu))

    def integrand(s):
        if s <= 0.0:
            return 0.0
        cond = (special.ndtr((c - t * s - theta) / sigma)
                - special.ndtr((t * s - c - theta) / sigma))
        log_dens = log_norm + (nu - 1.0) * math.log(s) - nu * s * s / (2.0 * sigma * sigma)
        return cond * math.exp(log_dens)

    from scipy import integrate  # only the checks need it, not the timed set-up

    upper = c / t
    hi = min(upper, sigma * (1.0 + 12.0 / math.sqrt(nu)) + 12.0 * sigma)
    points = [p for p in (0.5 * sigma, sigma) if p < hi]
    val, _ = integrate.quad(integrand, 0.0, hi, points=points or None,
                            epsabs=1e-13, epsrel=1e-12, limit=400)
    return float(min(max(val, 0.0), 1.0))


def bvn_rect(a1, b1, a2, b2, rho):
    """P(a1 < X < b1, a2 < Y < b2), standard bivariate normal, vectorized."""
    a1, b1, a2, b2, rho = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a1, b1, a2, b2, rho)))
    lo = np.clip(a1, -_CUT, _CUT)[..., None]
    hi = np.clip(b1, -_CUT, _CUT)[..., None]
    half = 0.5 * (hi - lo)
    x = lo + half * (_GL_X + 1.0)
    r = rho[..., None]
    s = np.sqrt(1.0 - r * r)
    cond = special.ndtr((b2[..., None] - r * x) / s) - special.ndtr((a2[..., None] - r * x) / s)
    val = np.sum(half * _GL_W * np.exp(-0.5 * x * x) * cond, axis=-1) / math.sqrt(2.0 * math.pi)
    return np.where((b1 > a1) & (b2 > a2), np.clip(val, 0.0, 1.0), 0.0)


def mvn_rect(a, b, corr):
    """P(a < X < b), X ~ N(0, corr), K = 1 to 4.

    The leading K - 2 Cholesky coordinates are integrated with 64-node
    Gauss-Legendre rules over their admissible ranges; the last two are a
    conditional bivariate rectangle.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = a.size
    if k == 1:
        return float(special.ndtr(b[0]) - special.ndtr(a[0]))
    if k == 2:
        return float(bvn_rect(a[0], b[0], a[1], b[1], corr[0][1]))
    chol = np.linalg.cholesky(np.asarray(corr, dtype=float))
    # grid over the leading coordinates: weights w, values z (m, k - 2)
    z = np.zeros((1, 0))
    w = np.ones(1)
    for j in range(k - 2):
        drift = z @ chol[j, :j]
        lo = np.clip((a[j] - drift) / chol[j, j], -_CUT, _CUT)
        hi = np.clip((b[j] - drift) / chol[j, j], -_CUT, _CUT)
        half = 0.5 * np.maximum(hi - lo, 0.0)
        nodes = lo[:, None] + half[:, None] * (_OUTER_X + 1.0)
        dens = np.exp(-0.5 * nodes * nodes) / math.sqrt(2.0 * math.pi)
        w = (w[:, None] * half[:, None] * _OUTER_W * dens).ravel()
        z = np.concatenate([np.repeat(z, _OUTER_X.size, axis=0),
                            nodes.reshape(-1, 1)], axis=1)
    p, q = k - 2, k - 1
    sd_p = chol[p, p]
    sd_q = math.hypot(chol[q, p], chol[q, q])
    m_p = z @ chol[p, :p]
    m_q = z @ chol[q, :p]
    vals = bvn_rect((a[p] - m_p) / sd_p, (b[p] - m_p) / sd_p,
                    (a[q] - m_q) / sd_q, (b[q] - m_q) / sd_q, chol[q, p] / sd_q)
    return float(np.clip(vals @ w, 0.0, 1.0))


def joint_reject(theta, sigma, corr, c):
    """P(|theta_hat_k| < c_k for all k), theta_hat ~ N(theta, D corr D)."""
    theta = np.asarray(theta, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    c = np.asarray(c, dtype=float)
    return mvn_rect((-c - theta) / sigma, (c - theta) / sigma, corr)


def face_scan_max(sigma, rho, c, c0=C0, n=401):
    """Largest K = 2 joint rejection probability on the faces theta_h = c0."""
    free = np.linspace(-c0, c0, n)
    best = 0.0
    for face in range(2):
        other = 1 - face
        a_f = (-c[face] - c0) / sigma[face]
        b_f = (c[face] - c0) / sigma[face]
        a_o = (-c[other] - free) / sigma[other]
        b_o = (c[other] - free) / sigma[other]
        vals = bvn_rect(a_f, b_f, a_o, b_o, rho)
        best = max(best, float(np.max(vals)))
    return best

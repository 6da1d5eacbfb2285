"""Independent reference implementations used to cross-check the package.

Everything here is built directly on scipy/numpy primitives through routes
that differ from the ones the library uses: rectangle probabilities go
through scipy's multivariate normal CDF instead of Gauss-Legendre or QMC,
Wishart draws come from the Bartlett decomposition instead of summed outer
products, rejection probabilities come from adaptive quadrature instead of
fixed-node rules, and margins come from scipy's bracketing root finder.
Agreement between the two routes is the point of the tests that import this
module.
"""

import numpy as np
from scipy import integrate, optimize, stats

Z = stats.norm


def rect_prob_scipy(lower, upper, correlation):
    """P(lower < X < upper) for X ~ N(0, correlation), via scipy's CDF."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    correlation = np.asarray(correlation, dtype=float)
    k = lower.size
    return float(
        stats.multivariate_normal.cdf(
            upper, mean=np.zeros(k), cov=correlation, lower_limit=lower,
            allow_singular=False,
        )
    )


def chi_law(sigma1, nu2):
    """scipy distribution of the estimated standard error.

    If nu2 * s^2 / sigma1^2 ~ chi2(nu2) then s ~ chi(nu2) scaled by
    sigma1 / sqrt(nu2).
    """
    return stats.chi(df=nu2, scale=sigma1 / np.sqrt(nu2))


def omega_quad(theta, sigma1, nu2, t, c, epsabs=1e-12, epsrel=1e-11):
    """P(|theta_hat| < c - t*s), theta_hat ~ N(theta, sigma1^2) independent
    of s, by adaptive quadrature over the density of s."""
    if t == 0.0:
        return float(
            Z.cdf((c - theta) / sigma1) - Z.cdf((-c - theta) / sigma1)
        )
    law = chi_law(sigma1, nu2)

    def integrand(s):
        half = c - t * s
        if half <= 0.0:
            return 0.0
        inner = Z.cdf((half - theta) / sigma1) - Z.cdf((-half - theta) / sigma1)
        return inner * law.pdf(s)

    upper = min(c / t, law.ppf(1.0 - 1e-14))
    if upper <= 0.0:
        return 0.0
    val, _ = integrate.quad(
        integrand, 0.0, upper, epsabs=epsabs, epsrel=epsrel, limit=400
    )
    return float(val)


def size_quad(sigma1, nu2, t, c, **kw):
    """Rejection probability at the equivalence boundary theta = log(1.25)."""
    return omega_quad(np.log(1.25), sigma1, nu2, t, c, **kw)


def brute_margin(sigma1, alpha0=0.05, c0=None, xtol=1e-14):
    """Fixed-margin c with boundary rejection probability alpha0, found by
    scipy's bracketing solver on the closed-form normal expression."""
    if c0 is None:
        c0 = float(np.log(1.25))

    def f(c):
        return Z.cdf((c - c0) / sigma1) - Z.cdf((-c - c0) / sigma1) - alpha0

    # size is strictly increasing in c, 0 at c = 0+ and 1 in the limit, so
    # the root is bracketed by (almost) zero and a generous upper end.
    lo, hi = 1e-12, c0 + 20.0 * sigma1 + 1.0
    return float(optimize.brentq(f, lo, hi, xtol=xtol, rtol=8.9e-16))


def bartlett_wishart_cov(sigma1, correlation, nu2, n, seed):
    """n scaled-Wishart covariance draws via the Bartlett decomposition.

    Returns an (n, K, K) array of draws of the sample covariance of the
    estimate, i.e. W / nu2 with W ~ Wishart(nu2, Sigma1).
    """
    sigma1 = np.asarray(sigma1, dtype=float)
    correlation = np.asarray(correlation, dtype=float)
    k = sigma1.size
    scale = correlation * np.outer(sigma1, sigma1)
    chol = np.linalg.cholesky(scale)
    rng = np.random.default_rng(seed)
    out = np.empty((n, k, k))
    for i in range(n):
        a = np.zeros((k, k))
        for j in range(k):
            a[j, j] = np.sqrt(rng.chisquare(nu2 - j))
            for m in range(j):
                a[j, m] = rng.standard_normal()
        la = chol @ a
        out[i] = la @ la.T / nu2
    return out


def t_member_margins(sigma1, nu2, t0, alpha0=0.05, c0=None, tol=1e-11,
                     max_iter=400):
    """Margins and marginal level for the two-dimensional shrunken-member
    test with independent coordinates and equal scales.

    The test rejects when |theta_hat_k| < c - t0 * s_k in both coordinates.
    With independence and equal sigma1 the worst-case mean sits on one axis,
    where the joint rejection probability factors into
    (boundary coordinate) * (zero coordinate).  Matching the global level to
    alpha0 therefore reduces to a scalar fixed point on the marginal level
    gamma: pick c(gamma) so the boundary coordinate rejects with probability
    gamma, then push gamma up until gamma * P0(c(gamma)) = alpha0, where P0
    is the rejection probability of the centered coordinate.
    """
    if c0 is None:
        c0 = float(np.log(1.25))

    def margin_at(gamma):
        def f(c):
            return size_quad(sigma1, nu2, t0, c) - gamma

        lo, hi = c0 * 1e-3, c0
        while f(hi) < 0.0:
            lo = hi
            hi *= 2.0
            if hi > 50.0:
                raise RuntimeError("margin bracket failed")
        return float(optimize.brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16))

    gamma = alpha0
    c = margin_at(gamma)
    for it in range(max_iter):
        p0 = omega_quad(0.0, sigma1, nu2, t0, c)
        global_size = gamma * p0
        step = alpha0 - global_size
        new_gamma = max(gamma + step, alpha0)
        c = margin_at(new_gamma)
        if abs(new_gamma - gamma) < tol and abs(step) < tol:
            gamma = new_gamma
            break
        gamma = new_gamma
    p0 = omega_quad(0.0, sigma1, nu2, t0, c)
    return {
        "gamma": float(gamma),
        "c": float(c),
        "global_size": float(gamma * p0),
        "iterations": it + 1,
    }


def ctost_plugin_size_quad(sigma1, nu2, alpha0=0.05, c0=None):
    """Boundary rejection rate of raw ctost with a plug-in margin.

    The sweep design re-solves the fixed margin from each replicate's
    estimated standard error s and rejects when |theta_hat| < c(s), with
    theta_hat ~ N(c0, sigma1^2) independent of s.  The rate is therefore
    E_s[P(|theta_hat| < brute_margin(s))], integrated here by adaptive
    quadrature over the density of s.  Because c(s) ignores the noise in
    s, the rate exceeds alpha0 at small nu2 and falls back towards it as
    nu2 grows.  Reference values (alpha0 = 0.05, c0 = log 1.25): at
    nu2 = 20, 0.05781, 0.05893 and 0.05598 for sigma1 = 0.05, 0.10 and
    0.15; at nu2 = 40, 0.0539, 0.0546 and 0.0527.
    """
    if c0 is None:
        c0 = float(np.log(1.25))
    law = chi_law(sigma1, nu2)

    def integrand(s):
        c = brute_margin(s, alpha0=alpha0, c0=c0, xtol=1e-13)
        inner = Z.cdf((c - c0) / sigma1) - Z.cdf((-c - c0) / sigma1)
        return inner * law.pdf(s)

    # split at the median so the adaptive rule sees the bulk of the mass
    # on both sides of its first bisection
    lo, mid, hi = law.ppf(1e-14), law.median(), law.ppf(1.0 - 1e-14)
    total = 0.0
    for a, b in ((lo, mid), (mid, hi)):
        val, _ = integrate.quad(integrand, a, b, epsabs=1e-12,
                                epsrel=1e-10, limit=400)
        total += val
    return float(total)


def alpha_star_joint_indep(sigma1, nu2, alpha0=0.05, c0=None):
    """Shared adjusted level of the K-dimensional alpha-TOST, independent
    coordinates.

    Every coordinate is tested at the multiplier t = t_{nu2}(1 - alpha),
    rejecting when |theta_hat_k| < c0 - t * s_k.  With an identity
    correlation the estimates and their standard errors are independent
    across coordinates, so the joint rejection probability is a product of
    univariate ones.  Each factor is largest at theta_k = 0, hence the
    supremum over the null boundary is taken on an axis point c0 e_h:
    omega(c0, sigma_h) * prod_{k != h} omega(0, sigma_k).  alpha solves
    sup = alpha0 by scipy's bracketing root finder over products of
    ``omega_quad``.  Returns the level, the multiplier, the per-coordinate
    margins c0 - t * sigma1_k, the worst face h and the joint size there.

    Reference values for the bundled econazole case study (nu2 = 11,
    sigma1 = 0.3305, 0.1708, 0.2233, 0.1853): alpha = 0.378999,
    t = 0.31589, margins 0.11874, 0.16919, 0.15260 and 0.16461, worst face
    on the stratum-corneum axis (h = 0).
    """
    if c0 is None:
        c0 = float(np.log(1.25))
    sigma1 = np.asarray(sigma1, dtype=float)
    k = sigma1.size

    def sup_size(t):
        centre = [omega_quad(0.0, s, nu2, t, c0) for s in sigma1]
        edge = [omega_quad(c0, s, nu2, t, c0) for s in sigma1]
        per_face = [edge[h] * np.prod([centre[j] for j in range(k) if j != h])
                    for h in range(k)]
        h = int(np.argmax(per_face))
        return float(per_face[h]), h

    def f(alpha):
        return sup_size(float(stats.t.ppf(1.0 - alpha, nu2)))[0] - alpha0

    # at alpha0 each coordinate is a classical TOST, whose size is below
    # alpha0; at 0.5 the multiplier vanishes and the box is at its widest
    alpha = float(optimize.brentq(f, alpha0, 0.5, xtol=1e-12,
                                  rtol=8.9e-16))
    t = float(stats.t.ppf(1.0 - alpha, nu2))
    size, h = sup_size(t)
    return {
        "alpha": alpha,
        "t": t,
        "margins": c0 - t * sigma1,
        "face": h,
        "joint_size": size,
    }


def bvn_rect_quad(lower, upper, rho):
    """P(lower < (X, Y) < upper) for a standard bivariate normal with
    correlation rho, by adaptive quadrature of the conditional normal
    probability over X."""
    s = np.sqrt(1.0 - rho * rho)

    def integrand(x):
        return Z.pdf(x) * (Z.cdf((upper[1] - rho * x) / s)
                           - Z.cdf((lower[1] - rho * x) / s))

    val, _ = integrate.quad(integrand, lower[0], upper[0], epsabs=1e-15,
                            epsrel=1e-13, limit=200)
    return float(val)

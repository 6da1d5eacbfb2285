"""Regenerate tests/data/special_oracle.csv with 50-digit reference values.

The table pins the accuracy of the special-function layer against an
implementation that shares no code with it: every value below is computed
with mpmath at 50 decimal digits, quantiles by root-finding on mpmath's own
erf / incomplete-beta / incomplete-gamma. SciPy appears only to seed the
root searches; the converged values do not depend on it.

Run from the repository root:

    python scripts/gen_special_oracle.py
"""

import csv
import pathlib

import mpmath as mp
from scipy import special as sp

mp.mp.dps = 50

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "special_oracle.csv"
SOURCE = f"mpmath {mp.__version__} dps=50"


def norm_cdf(x):
    return 0.5 * mp.erfc(-x / mp.sqrt(2))


def norm_quantile(p):
    x0 = float(sp.ndtri(float(p)))
    return mp.findroot(lambda x: norm_cdf(x) - mp.mpf(p), x0)


def t_survival(t, nu):
    # upper tail of Student t via the regularized incomplete beta function
    nu = mp.mpf(nu)
    x = nu / (nu + t * t)
    half = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, x, regularized=True) / 2
    return half if t >= 0 else 1 - half


def t_quantile(alpha, nu):
    # upper-tail quantile: survival(t) = alpha
    x0 = float(sp.stdtrit(nu, 1.0 - float(alpha)))
    return mp.findroot(lambda t: t_survival(t, nu) - mp.mpf(alpha), x0)


def chi2_cdf(x, k):
    return mp.gammainc(mp.mpf(k) / 2, 0, mp.mpf(x) / 2, regularized=True)


def chi2_quantile(p, k):
    x0 = float(sp.chdtri(k, 1.0 - float(p)))
    return mp.findroot(lambda x: chi2_cdf(x, k) - mp.mpf(p), x0)


def sigma_hat_pdf(x, sigma1, nu2):
    # density of sigma1 * sqrt(V / nu2) with V chi-square(nu2)
    x, sigma1, nu2 = mp.mpf(x), mp.mpf(sigma1), mp.mpf(nu2)
    return (
        2
        * (nu2 / (2 * sigma1**2)) ** (nu2 / 2)
        * x ** (nu2 - 1)
        * mp.exp(-nu2 * x**2 / (2 * sigma1**2))
        / mp.gamma(nu2 / 2)
    )


def fmt(v):
    return mp.nstr(v, 36)


def main():
    rows = []

    for x in ["-8", "-5", "-2.818", "-1.96", "-1", "-0.5", "-0.1", "0",
              "0.1", "0.5", "1", "1.6449", "1.96", "2.818", "5", "8"]:
        rows.append(("norm_cdf", x, fmt(norm_cdf(mp.mpf(x))), SOURCE))
    for p in ["1e-10", "1e-6", "0.001", "0.025", "0.05", "0.1", "0.5",
              "0.9", "0.95", "0.954", "0.975", "0.999", "1-1e-6"]:
        pv = 1 - mp.mpf("1e-6") if p == "1-1e-6" else mp.mpf(p)
        rows.append(("norm_quantile", mp.nstr(pv, 17), fmt(norm_quantile(pv)), SOURCE))
    for alpha, nu in [("0.05", 1), ("0.05", 2), ("0.05", 5), ("0.05", 11),
                      ("0.05", 15), ("0.05", 20), ("0.05", 80), ("0.025", 11),
                      ("0.054", 15), ("0.1", 7), ("0.25", 3), ("0.4", 40),
                      ("0.005", 30), ("0.3", 100)]:
        rows.append(
            ("t_quantile", f"{alpha};{nu}", fmt(t_quantile(mp.mpf(alpha), nu)), SOURCE)
        )
    for p, k in [("1e-10", 5), ("1e-10", 20), ("0.001", 11), ("0.05", 11),
                 ("0.5", 20), ("0.95", 20), ("0.999", 40), ("1e-8", 100),
                 ("0.9999", 100)]:
        rows.append(
            ("chi2_quantile", f"{p};{k}", fmt(chi2_quantile(mp.mpf(p), k)), SOURCE)
        )
    for x, s, nu in [("0.05", "0.1", 20), ("0.1", "0.1", 20), ("0.2", "0.1", 20),
                     ("0.0976", "0.1", 5), ("0.3", "0.2", 11), ("1.5", "1.0", 3)]:
        rows.append(
            ("sigma_hat_pdf", f"{x};{s};{nu}", fmt(sigma_hat_pdf(x, s, nu)), SOURCE)
        )

    OUT.parent.mkdir(parents=True, exist_ok=True)
    with OUT.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["function", "input", "expected", "source"])
        w.writerows(rows)
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()

"""Reproduce the program defects that the workloads' inputs steer around.

Run through ``python3 perfbench/run.py --known-defects`` (which puts the
checkout's ``src`` on the path).  Each check prints "reproduces" or
"fixed".  Once one reads "fixed", the input range it constrains in
workloads.py (``SWEEP_SIGMAS``, ``K3_RHO``) can be widened again and
reference.json rebuilt with ``--write-reference``.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import equivkit as ek  # noqa: E402
from workloads import C0, SIZE_CEILING, _equicorr  # noqa: E402


def delta_margin_rows():
    """A delta-tost size cell at sigma 0.02 must not reject almost always."""
    cfg = ek.SimulationConfig(
        design="univariate-sweep", sigma_grid=(0.02,), nu2_set=(20,),
        theta_or_kappa_grid=(C0,), methods=("delta-tost",), replicates=200, seed=1)
    rate = float(ek.run_simulation(cfg).records[0]["rate"])
    return rate > SIZE_CEILING, (f"simkit._delta_margin_rows: delta-tost size cell at sigma 0.02, "
                                 f"nu2 20 rejects at rate {rate:.3f} (ceiling {SIZE_CEILING})")


def k3_search_cap():
    """A K = 3 equicorrelated fit at rho 0.8 must report a converged search."""
    summ = ek.MvtSummary(np.zeros(3), np.array([0.1, 0.12, 0.15]), _equicorr(3, 0.8), 20)
    lam = ek.ctost_mvt_adjust(summ).lambda_
    return not lam.converged, (f"mvt.lambda_argsup: K = 3, rho 0.8 fit returns "
                               f"LambdaResult.converged = {lam.converged}")


def main():
    for check in (delta_margin_rows, k3_search_cap):
        bad, what = check()
        print(f"{'reproduces' if bad else 'fixed'}: {what}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: seeded operation decks, warm-ups and output checks.

A deck is one fixed list of operations generated from (seed, deck index)
before any of it is timed.  A run replays whole decks, each one drawn
afresh, in a closed loop with a single client: the next operation starts
when the previous one returns.

* desk  - one analyst's interactive requests: ``decide`` with every
  method (ctost-star by quadrature and by table lookup), CLI ``size`` and
  ``power`` grids, ``adjust``, ``assess --case-study`` (tost, ctost,
  alpha-tost) and ``assess --input`` on a generated paired CSV.
* sweep - univariate size/power simulation cells, all five methods, over
  a sigma grid that reaches past the calibration table's 0.3 edge and one
  nu2 inside (20) and one outside (4) the table.
* joint - correlated multivariate margin fits (K = 2, 3, 4) and one
  reduced mvt-kappa cell.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import numpy as np

import oracle

C0 = oracle.C0
ALPHA0 = oracle.ALPHA0
METHODS = ("tost", "alpha-tost", "delta-tost", "ctost", "ctost-star")

# float tolerances for comparisons with the stored reference; they follow
# the test suite: univariate sizes and margins to 1e-7, joint fits to the
# joint-size resolution of the fixed point, simulated counts exactly
TOL_UNI = 1e-7
TOL_JOINT = 5e-6
TOL_RATE = 1e-12


class Op:
    """One client operation: a callable plus the inputs its check needs.

    ``ref`` says how it meets the stored reference: "fixed" (input does not
    depend on the seed, compared on every run), "seeded" (compared at the
    reference seed's first deck only) or "rates" (simulated rates, compared
    exactly at the reference seed's first deck and statistically otherwise).
    ``group`` labels the per-kind latency lines of the report.
    """

    __slots__ = ("kind", "key", "ref", "args", "fn", "group")

    def __init__(self, kind, key, ref, args, fn, group=None):
        self.kind = kind
        self.group = group or kind
        self.key = key
        self.ref = ref
        self.args = args
        self.fn = fn


def _ek():
    return sys.modules["equivkit"]


def _cli(argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["equivkit.cli"].main(argv)
    return code, buf.getvalue()


def _rng(seed, index, stream):
    return np.random.default_rng([int(seed), int(index), int(stream)])


def _op_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _fmt(x):
    return repr(round(float(x), 5))


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol


def _problems_vs(want, got, fields, tol, where):
    out = []
    for f in fields:
        a, b = want.get(f), got.get(f)
        if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
            a = list(a or [])
            b = list(b or [])
            if len(a) != len(b):
                out.append(f"{where}: {f} length {len(b)} != reference {len(a)}")
                continue
            for i, (x, y) in enumerate(zip(a, b)):
                if isinstance(x, (int, float)) and not isinstance(x, bool):
                    if not _close(x, y, tol):
                        out.append(f"{where}: {f}[{i}] {y!r} != reference {x!r}")
                elif x != y:
                    out.append(f"{where}: {f}[{i}] {y!r} != reference {x!r}")
        elif isinstance(a, float) and isinstance(b, (int, float)) and not isinstance(b, bool):
            if not _close(a, b, tol):
                out.append(f"{where}: {f} {b!r} != reference {a!r}")
        elif a != b:
            out.append(f"{where}: {f} {b!r} != reference {a!r}")
    return out


def compare_rates(want, got, exact, where):
    """Simulated rates against the reference cell.

    Exact at the reference seed; otherwise two independent estimates of the
    same probability must agree within six standard errors of their
    difference (plus one count on each side).
    """
    out = []
    if set(want["rates"]) != set(got["rates"]):
        return [f"{where}: rate cells differ from the reference"]
    n_r, n = want["n"], got["n"]
    for cell, p_r in want["rates"].items():
        p = got["rates"][cell]
        if exact:
            ok = n == n_r and _close(p, p_r, TOL_RATE)
        else:
            pooled = (p * n + p_r * n_r) / (n + n_r)
            pooled = min(max(pooled, 3.0 / min(n, n_r)), 0.5)
            se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / n_r))
            ok = abs(p - p_r) <= 6.0 * se + 1.0 / n + 1.0 / n_r
        if not ok:
            out.append(f"{where}: rate {cell} = {p!r}, reference {p_r!r} (n={n}, {n_r})")
    return out


def _sim_record(result):
    rates = {f"{r['theta_or_kappa']!r}|{r['method']}": float(r["rate"])
             for r in result.records}
    return {"n": int(result.records[0]["n"]), "rates": rates}


# ---------------------------------------------------------------------------
# desk
# ---------------------------------------------------------------------------

DECIDE_VARIANTS = (
    ("tost", {}),
    ("alpha-tost", {}),
    ("delta-tost", {}),
    ("ctost", {}),
    ("ctost-star", {}),
    ("ctost-star", {"strategy": "table-lookup"}),
)
ADJUST_METHODS = ("ctost", "ctost-star", "alpha-tost", "delta-tost")
CASE_METHODS = ("tost", "ctost", "alpha-tost")

# summaries (each decided with all six variants), size grids, power grids,
# adjust calls, paired-CSV assessments, case-study methods
DESK_SIZES = {
    "full": (60, 8, 8, 20, 6, CASE_METHODS),
    "tiny": (2, 1, 1, 2, 1, ("tost", "ctost")),
}


def _desk_summary(rng):
    nu2 = int(rng.integers(5, 81))
    sigma = float(np.exp(rng.uniform(math.log(0.02), math.log(0.3))))
    theta = float(rng.uniform(-0.25, 0.25))
    return theta, sigma, nu2


def _grid(rng):
    """--sigma1 and --nu2 lists of a size or power grid: 3 x 2 points."""
    sig = sorted(_fmt(x) for x in np.exp(rng.uniform(math.log(0.02), math.log(0.3), 3)))
    nu2 = sorted(int(v) for v in rng.choice(np.arange(5, 81), size=2, replace=False))
    return ",".join(sig), ",".join(str(v) for v in nu2)


def _write_paired_csv(path, rng):
    """Two-dimension paired raw-scale data with a seeded correlation."""
    n = int(rng.integers(12, 31))
    rho = float(rng.uniform(-0.6, 0.8))
    sd = np.exp(rng.uniform(math.log(0.03), math.log(0.15), 2)) * math.sqrt(n)
    theta = rng.uniform(-0.1, 0.1, 2)
    cov = np.array([[sd[0] ** 2, rho * sd[0] * sd[1]], [rho * sd[0] * sd[1], sd[1] ** 2]])
    diff = rng.multivariate_normal(theta, cov, size=n)
    ref = np.exp(rng.normal(3.0, 0.4, size=(n, 2)))
    tst = ref * np.exp(diff)
    lines = ["subject,dimension,reference,test"]
    for i in range(n):
        for j, dim in enumerate(("AUC", "Cmax")):
            lines.append(f"S{i + 1:02d},{dim},{float(ref[i, j])!r},{float(tst[i, j])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def desk_deck(seed, index, size, workdir):
    ek = _ek()
    n_sum, n_size, n_power, n_adjust, n_input, case_methods = DESK_SIZES[size]
    rng = _rng(seed, index, 1)
    ops = []
    for i in range(n_sum):
        theta, sigma, nu2 = _desk_summary(rng)
        summ = ek.UnivSummary(theta, sigma, nu2)
        for method, kw in DECIDE_VARIANTS:
            spec = ek.EquivalenceSpec(method=method)
            variant = method + ("/table" if kw else "")
            ops.append(Op("decide", f"desk:{index}:decide:{i}:{variant}", "seeded",
                          {"theta": theta, "sigma": sigma, "nu2": nu2, "variant": variant},
                          lambda s=summ, sp=spec, kw=kw: ek.decide(s, sp, **kw),
                          group=f"decide-{variant}"))
    for i in range(n_size):
        sig, nu2 = _grid(rng)
        argv = ["size", "--method", ",".join(METHODS), "--sigma1", sig, "--nu2", nu2]
        ops.append(Op("cli-size", f"desk:{index}:size:{i}", "seeded", {"argv": argv},
                      lambda a=argv: _cli(a)))
    for i in range(n_power):
        sig, nu2 = _grid(rng)
        theta = _fmt(rng.uniform(0.0, 0.15))
        argv = ["power", "--method", "tost,alpha-tost,delta-tost,ctost", "--theta",
                f"0,{theta}", "--sigma1", sig, "--nu2", nu2]
        ops.append(Op("cli-power", f"desk:{index}:power:{i}", "seeded", {"argv": argv},
                      lambda a=argv: _cli(a)))
    for i in range(n_adjust):
        method = ADJUST_METHODS[i % len(ADJUST_METHODS)]
        sigma = _fmt(np.exp(rng.uniform(math.log(0.02), math.log(0.3))))
        nu2 = str(int(rng.integers(5, 81)))
        argv = ["adjust", "--method", method, "--sigma1-hat", sigma, "--nu2", nu2]
        ops.append(Op("cli-adjust", f"desk:{index}:adjust:{i}", "seeded",
                      {"argv": argv, "method": method, "sigma": float(sigma), "nu2": int(nu2)},
                      lambda a=argv: _cli(a)))
    for i in range(n_input):
        path = os.path.join(workdir, f"paired-{seed}-{index}-{i}.csv")
        _write_paired_csv(path, rng)
        argv = ["assess", "--input", path, "--method", "ctost"]
        ops.append(Op("cli-input", f"desk:{index}:input:{i}", "seeded", {"path": path},
                      lambda a=argv: _cli(a)))
    for method in case_methods:
        argv = ["assess", "--case-study", "--method", method]
        ops.append(Op("cli-case", f"desk:case:{method}", "fixed", {"method": method},
                      lambda a=argv: _cli(a), group=f"cli-case-{method}"))
    return [ops[j] for j in rng.permutation(len(ops))]


def desk_warmup(workdir):
    """One cheap call of each desk operation kind."""
    ek = _ek()
    summ = ek.UnivSummary(0.02, 0.1, 20)
    for method, kw in DECIDE_VARIANTS:
        ek.decide(summ, ek.EquivalenceSpec(method=method), **kw)
    _cli(["size", "--method", ",".join(METHODS), "--sigma1", "0.1", "--nu2", "20"])
    _cli(["power", "--method", "ctost", "--theta", "0", "--sigma1", "0.1", "--nu2", "20"])
    _cli(["adjust", "--method", "ctost", "--sigma1-hat", "0.1", "--nu2", "20"])
    _cli(["assess", "--case-study", "--method", "ctost"])


def _decide_record(rep):
    meta = rep.meta
    alpha = meta.get("alpha_adj", meta.get("alpha_c"))
    return {
        "reject": bool(rep.reject),
        "margin": float(rep.margins[0]),
        "t_used": float(meta.get("t_used", 0.0)),
        "alpha": None if alpha is None else float(alpha),
        "c_star": None if meta.get("c_star") is None else float(meta["c_star"]),
        "converged": bool(meta.get("converged", True)),
        "saturated": bool(meta.get("saturated", False)),
    }


def _cli_payload(raw):
    code, text = raw
    return code, (json.loads(text) if code == 0 else None)


def desk_record(op, raw):
    if op.kind == "decide":
        return _decide_record(raw)
    code, payload = _cli_payload(raw)
    rec = {"rc": code}
    if payload is None:
        return rec
    if op.kind in ("cli-size", "cli-power"):
        value = "size" if op.kind == "cli-size" else "power"
        rec["rows"] = [[r.get("theta"), r["sigma1"], r["nu2"], r["method"], r["t"], r["c"], r[value]]
                       for r in payload]
        rec["values"] = [float(r[value]) for r in payload]
    elif op.kind == "cli-adjust":
        rec.update({k: payload.get(k) for k in ("t_used", "c_used", "alpha_adj", "alpha_c",
                                                  "converged", "saturated")})
    else:
        meta = payload["meta"]
        rec.update({
            "verdict": payload["verdict"],
            "reject": payload["reject_null"],
            "theta_hat": payload["theta_hat"],
            "margins": payload["margins"],
            "gamma": meta.get("gamma"),
            "alpha_adj": meta.get("alpha_adj"),
            "lambda": meta.get("lambda"),
            "lambda_objective": meta.get("lambda_objective"),
        })
    return rec


DESK_REF_FIELDS = {
    "decide": ("reject", "margin", "alpha"),
    "cli-size": ("values",),
    "cli-power": ("values",),
    "cli-adjust": ("c_used", "t_used"),
    "cli-input": ("verdict", "margins", "gamma"),
    "cli-case": ("verdict", "margins", "gamma", "alpha_adj"),
}


def _size_problems(method, sigma, nu2, t, c, size, where):
    """A univariate (t, c) pair must reach its method's size."""
    out = []
    got = oracle.reject_prob(C0, sigma, nu2, t, c)
    if not _close(got, size, 1e-8):
        out.append(f"{where}: reported size {size!r}, quadrature gives {got!r}")
    if method == "ctost" and not _close(size, ALPHA0, 1e-9):
        out.append(f"{where}: ctost size {size!r} != alpha0")
    if method in ("alpha-tost", "delta-tost") and size < ALPHA0 - 1e-7:
        # alpha-tost saturates (t = 0, size below alpha0) for large sigma
        if not (method == "alpha-tost" and t == 0.0):
            out.append(f"{where}: {method} size {size!r} below alpha0")
    if method in ("alpha-tost", "delta-tost") and size > ALPHA0 + 1e-7:
        out.append(f"{where}: {method} size {size!r} above alpha0")
    if method in ("tost", "ctost-star") and size > ALPHA0 + 1e-9:
        out.append(f"{where}: {method} size {size!r} above alpha0")
    return out


def desk_check(op, rec):
    a = op.args
    where = op.key
    if op.kind == "decide":
        theta, sigma, nu2, variant = a["theta"], a["sigma"], a["nu2"], a["variant"]
        margin, t = rec["margin"], rec["t_used"]
        out = []
        if rec["reject"] != (abs(theta) < margin):
            out.append(f"{where}: verdict disagrees with margin")
        if not rec["converged"]:
            out.append(f"{where}: not converged")
        if variant == "tost":
            t_want = oracle.t_multiplier(ALPHA0, nu2)
            if not (_close(t, t_want, 1e-9) and _close(margin, C0 - t_want * sigma, 1e-9)):
                out.append(f"{where}: tost margin {margin!r} wrong")
        elif variant == "ctost":
            if not _close(oracle.size_fixed(margin, sigma), ALPHA0, 1e-9):
                out.append(f"{where}: ctost margin misses alpha0")
        elif variant.startswith("ctost-star"):
            alpha_c = rec["alpha"]
            if not (0.0 < alpha_c <= ALPHA0):
                out.append(f"{where}: calibrated level {alpha_c!r} outside (0, alpha0]")
            elif not _close(oracle.size_fixed(margin, sigma), alpha_c, 1e-9):
                out.append(f"{where}: ctost-star margin misses its level")
        elif variant == "alpha-tost":
            if rec["saturated"]:
                if oracle.size_fixed(C0, sigma) >= ALPHA0:
                    out.append(f"{where}: saturated although an interior level exists")
            else:
                if not _close(t, oracle.t_multiplier(rec["alpha"], nu2), 1e-9):
                    out.append(f"{where}: t_used does not match alpha_adj")
                size = oracle.reject_prob(C0, sigma, nu2, t, C0)
                if not _close(size, ALPHA0, 1e-7):
                    out.append(f"{where}: alpha-tost size {size!r} != alpha0")
                if not _close(margin, C0 - t * sigma, 1e-12):
                    out.append(f"{where}: alpha-tost margin wrong")
        elif variant == "delta-tost":
            c_star = rec["c_star"]
            size = oracle.reject_prob(C0, sigma, nu2, t, c_star)
            if not _close(size, ALPHA0, 1e-7):
                out.append(f"{where}: delta-tost size {size!r} != alpha0")
            if not _close(margin, c_star - t * sigma, 1e-12):
                out.append(f"{where}: delta-tost margin wrong")
        return out
    if rec["rc"] != 0:
        return [f"{where}: exit code {rec['rc']}"]
    out = []
    if op.kind == "cli-size":
        for theta, sigma, nu2, method, t, c, size in rec["rows"]:
            out += _size_problems(method, sigma, nu2, t, c, size, where)
    elif op.kind == "cli-power":
        for theta, sigma, nu2, method, t, c, power in rec["rows"]:
            got = oracle.reject_prob(theta, sigma, nu2, t, c)
            if not _close(got, power, 1e-8):
                out.append(f"{where}: power {power!r}, quadrature gives {got!r}")
    elif op.kind == "cli-adjust":
        method, sigma, nu2 = a["method"], a["sigma"], a["nu2"]
        t, c = rec["t_used"], rec["c_used"]
        if not rec["converged"]:
            out.append(f"{where}: not converged")
        size = oracle.reject_prob(C0, sigma, nu2, t, c)
        if method == "ctost-star":
            if not _close(size, rec["alpha_c"], 1e-9):
                out.append(f"{where}: ctost-star margin misses its level")
        elif not (method == "alpha-tost" and rec["saturated"]):
            out += _size_problems(method, sigma, nu2, t, c, size, where)
    elif op.kind == "cli-input":
        out += _paired_fit_problems(a["path"], rec, where)
    if "reject" in rec and rec["reject"] != all(
            abs(th) < m for th, m in zip(rec["theta_hat"], rec["margins"])):
        out.append(f"{where}: verdict disagrees with margins")
    return out


def _paired_fit_problems(path, rec, where):
    """Re-derive the summary from the CSV and check the joint ctost fit."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh.readlines()[1:] if line.strip()]
    ref = np.array([float(r[2]) for r in rows]).reshape(-1, 2)
    tst = np.array([float(r[3]) for r in rows]).reshape(-1, 2)
    d = np.log(tst) - np.log(ref)
    n = d.shape[0]
    cov = np.cov(d, rowvar=False, ddof=1)
    sigma = np.sqrt(np.diag(cov) / n)
    rho = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
    return _fit_problems(sigma, np.array([[1.0, rho], [rho, 1.0]]), rec["margins"],
                         rec["gamma"], rec["lambda"], where)


def _fit_problems(sigma, corr, c_star, gamma, lam, where):
    out = []
    c_star = np.asarray(c_star, dtype=float)
    for k, (c, s) in enumerate(zip(c_star, sigma)):
        if not _close(oracle.size_fixed(c, s), gamma, 1e-8):
            out.append(f"{where}: marginal size {k} != gamma")
    joint = oracle.joint_reject(lam, sigma, corr, c_star)
    if not _close(joint, ALPHA0, 1e-5):
        out.append(f"{where}: joint size at lambda {joint!r} != alpha0")
    if len(sigma) == 2:
        scan = oracle.face_scan_max(sigma, corr[0][1], c_star)
        if scan > ALPHA0 + 1e-5:
            out.append(f"{where}: boundary scan finds joint size {scan!r} above alpha0")
    return out


def desk_cross_check(items):
    """ctost-star by table lookup must agree with quadrature to 1e-4 in level."""
    quad = {}
    out = {}
    for op, rec in items:
        if op.kind == "decide" and op.args["variant"] == "ctost-star" and rec:
            quad[op.key.rsplit(":", 1)[0]] = rec["alpha"]
    for op, rec in items:
        if op.kind == "decide" and op.args["variant"] == "ctost-star/table" and rec:
            want = quad.get(op.key.rsplit(":", 1)[0])
            if want is not None and not _close(rec["alpha"], want, 1e-4):
                out[id(op)] = [f"{op.key}: table level {rec['alpha']!r} vs quadrature {want!r}"]
    return out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# The grid starts at 0.06: below about 0.05 (nu2 = 20) every replicate of a
# cell can meet simkit._delta_margin_rows' stopping rule at the first
# midpoint, which then returns 1.5 c0 and the delta-tost size cell rejects
# almost always (see README, "Known defects"; defects.py reproduces it).
SWEEP_SIGMAS = tuple(round(float(x), 4) for x in np.geomspace(0.06, 0.4, 12))
SWEEP_NU2 = (20, 4)
SWEEP_SIZES = {"full": (SWEEP_SIGMAS, 200), "tiny": (SWEEP_SIGMAS[::6], 100)}


def sweep_deck(seed, index, size, workdir):
    ek = _ek()
    sigmas, reps = SWEEP_SIZES[size]
    rng = _rng(seed, index, 2)
    ops = []
    for nu2 in SWEEP_NU2:
        for sigma in sigmas:
            cfg = ek.SimulationConfig(
                design="univariate-sweep", sigma_grid=(sigma,), nu2_set=(nu2,),
                theta_or_kappa_grid=(0.0, C0), methods=METHODS,
                replicates=reps, seed=_op_seed(rng))
            ops.append(Op("sweep", f"sweep:{sigma!r}:{nu2}", "rates",
                          {"sigma": sigma, "nu2": nu2, "replicates": reps},
                          lambda cfg=cfg: ek.run_simulation(cfg)))
    return [ops[j] for j in rng.permutation(len(ops))]


def sweep_warmup(workdir):
    ek = _ek()
    for nu2 in SWEEP_NU2:
        ek.run_simulation(ek.SimulationConfig(
            design="univariate-sweep", sigma_grid=(0.1,), nu2_set=(nu2,),
            theta_or_kappa_grid=(C0,), methods=METHODS, replicates=100, seed=1))


def sweep_record(op, raw):
    return _sim_record(raw)


# No method's rejection rate at the null boundary theta = c0 comes near
# this, even the plug-in ctost at nu2 = 4; margins that reject almost
# always there are wrong, whatever the reference says.
SIZE_CEILING = 0.3


def _size_cell_broken(cell, rate):
    return cell.startswith(repr(C0) + "|") and rate > SIZE_CEILING


def sweep_check(op, rec):
    out = []
    if len(rec["rates"]) != 2 * len(METHODS):
        out.append(f"{op.key}: {len(rec['rates'])} rate cells, expected {2 * len(METHODS)}")
    if any(not 0.0 <= r <= 1.0 for r in rec["rates"].values()):
        out.append(f"{op.key}: rate outside [0, 1]")
    for cell, rate in rec["rates"].items():
        if _size_cell_broken(cell, rate):
            out.append(f"{op.key}: size cell {cell} rejects at rate {rate!r} > {SIZE_CEILING}")
    return out


def sweep_decisions(size):
    """Replicate x method decisions in one sweep operation."""
    return 2 * len(METHODS) * SWEEP_SIZES[size][1]


# ---------------------------------------------------------------------------
# joint
# ---------------------------------------------------------------------------

K4_SIGMA = (0.08, 0.08, 0.12, 0.12)
KAPPA_GRID = tuple(float(x) for x in np.linspace(0.0, 1.2, 7))
# K = 2 fits, K = 3 fits, whether to run the K = 4 fit, kappa-cell replicates
JOINT_SIZES = {"full": (120, 4, True, 1000), "tiny": (2, 1, False, 100)}


# K = 3 fits are equicorrelated with rho in this range.  Outside it, and
# for general correlation matrices (about 5% of random ones), the worst-
# point search stops at its sweep cap and returns LambdaResult.converged =
# False (see README, "Known defects"; defects.py reproduces it).
K3_RHO = (-0.3, 0.6)


def _equicorr(k, rho):
    corr = np.full((k, k), rho)
    np.fill_diagonal(corr, 1.0)
    return corr


def joint_deck(seed, index, size, workdir):
    ek = _ek()
    n2, n3, with_k4, reps = JOINT_SIZES[size]
    rng = _rng(seed, index, 3)
    ops = []

    def fit(key, ref, sigma, corr, nu2):
        summ = ek.MvtSummary(np.zeros(len(sigma)), np.asarray(sigma), np.asarray(corr), nu2)
        ops.append(Op("fit", key, ref, {"sigma": list(sigma), "corr": np.asarray(corr).tolist()},
                      lambda s=summ: ek.ctost_mvt_adjust(s), group=f"fit-k{len(sigma)}"))

    for i in range(n2):
        sigma = np.exp(rng.uniform(math.log(0.05), math.log(0.25), 2))
        rho = float(rng.uniform(-0.9, 0.9))
        fit(f"joint:{index}:k2:{i}", "seeded", sigma, [[1.0, rho], [rho, 1.0]],
            int(rng.integers(10, 41)))
    for i in range(n3):
        sigma = np.exp(rng.uniform(math.log(0.05), math.log(0.2), 3))
        fit(f"joint:{index}:k3:{i}", "seeded", sigma, _equicorr(3, float(rng.uniform(*K3_RHO))),
            int(rng.integers(10, 41)))
    if with_k4:
        fit("joint:k4", "fixed", np.array(K4_SIGMA), _equicorr(4, 0.5), 20)
    cfg = ek.SimulationConfig(
        design="mvt-kappa", sigma_grid=((0.08, 0.12),), nu2_set=(20,),
        theta_or_kappa_grid=KAPPA_GRID, K=2, rho_set=(0.5,), methods=("tost", "ctost"),
        replicates=reps, seed=_op_seed(rng))
    ops.append(Op("kappa", "joint:kappa", "rates", {"replicates": reps},
                  lambda cfg=cfg: ek.run_simulation(cfg)))
    return [ops[j] for j in rng.permutation(len(ops))]


def joint_warmup(workdir):
    ek = _ek()
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    ek.ctost_mvt_adjust(ek.MvtSummary(np.zeros(2), np.array([0.08, 0.12]), corr, 20))
    q = ek.MvtPowerQuery(np.array([C0, 0.0]), np.array([0.08, 0.12]), corr, 20,
                         np.full(2, 1.7), np.full(2, C0))
    ek.power_mvt(q, n_wishart=200)


def joint_record(op, raw):
    if op.kind == "kappa":
        return _sim_record(raw)
    lam = raw.lambda_
    return {
        "c_star": [float(x) for x in raw.c_star],
        "gamma": float(raw.gamma),
        "lambda": [float(x) for x in lam.lambda_],
        "converged": bool(raw.converged),
        "lambda_converged": bool(lam.converged),
    }


def joint_check(op, rec):
    if op.kind == "kappa":
        out = []
        if len(rec["rates"]) != 2 * len(KAPPA_GRID):
            out.append(f"{op.key}: {len(rec['rates'])} rate cells")
        if any(not 0.0 <= r <= 1.0 for r in rec["rates"].values()):
            out.append(f"{op.key}: rate outside [0, 1]")
        return out
    out = []
    if not rec["converged"]:
        out.append(f"{op.key}: MvtAdjustment.converged is False")
    if not rec["lambda_converged"]:
        out.append(f"{op.key}: worst-point search not converged (LambdaResult.converged)")
    if rec["gamma"] < ALPHA0 - 1e-12:
        out.append(f"{op.key}: gamma below alpha0")
    out += _fit_problems(np.asarray(op.args["sigma"]), np.asarray(op.args["corr"]),
                         rec["c_star"], rec["gamma"], rec["lambda"], op.key)
    return out


JOINT_REF_FIELDS = {"fit": ("c_star", "gamma")}


class Workload:
    def __init__(self, name, deck, warmup, record, check, ref_fields, tol,
                 cross_check=None, op_noun="op", per_op=None):
        self.name = name
        self.deck = deck
        self.warmup = warmup
        self.record = record
        self.check = check
        self.ref_fields = ref_fields
        self.tol = tol
        self.cross_check = cross_check
        self.op_noun = op_noun
        self.per_op = per_op


WORKLOADS = {
    "desk": Workload("desk", desk_deck, desk_warmup, desk_record, desk_check,
                     DESK_REF_FIELDS,
                     {"decide": TOL_UNI, "cli-size": TOL_UNI, "cli-power": TOL_UNI,
                      "cli-adjust": TOL_UNI, "cli-input": TOL_JOINT, "cli-case": TOL_JOINT},
                     cross_check=desk_cross_check, op_noun="request"),
    "sweep": Workload("sweep", sweep_deck, sweep_warmup, sweep_record, sweep_check,
                      {}, {}, op_noun="cell", per_op=sweep_decisions),
    "joint": Workload("joint", joint_deck, joint_warmup, joint_record, joint_check,
                      JOINT_REF_FIELDS, {"fit": TOL_JOINT}, op_noun="fit"),
}


def reference_problems(wl, op, rec, ref, exact):
    """Compare one record with the stored reference, as the op's ``ref`` says."""
    want = ref.get(op.key)
    if op.ref == "seeded" and not exact:
        return []
    if want is None:
        return [f"{op.key}: no stored reference"]
    if op.ref == "rates":
        return compare_rates(want, rec, exact, op.key)
    return _problems_vs(want, rec, wl.ref_fields[op.kind], wl.tol[op.kind], op.key)

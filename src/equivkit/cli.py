"""Command-line interface: assessment, adjustment, power/size tables,
simulation runs, and calibration-table generation.

All subcommands are batch and non-interactive.  Verdicts live in the JSON
payload, never in the exit code: 0 means the command ran, 2 flags
malformed input, 3 flags solver non-convergence.  JSON floats carry 17
significant digits so outputs round-trip exactly; every seeded command is
deterministic, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .base import (
    ALPHA0_DEFAULT,
    C0_DEFAULT,
    METHODS,
    EquivError,
    EquivalenceSpec,
    InputError,
    NonConvergenceError,
)
from .ingest import (
    _independent_summary,
    case_study_labels,
    load_case_study,
    read_paired_csv,
    read_summary_json,
    summarize,
)
from .mvt import MvtAdjustment, ctost_mvt_adjust, mvt_decide
from .powerkernel import UnivPowerQuery, power_uni
from .simkit import (
    emit_plot_data,
    mvt_kappa_config,
    run_simulation,
    univariate_sweep_config,
)
from .univariate import (
    CalibrationTable,
    UnivSummary,
    _rule,
    build_calibration_table,
    decide,
)

_C0_HELP = f"equivalence margin on the log scale (default log 1.25 = {C0_DEFAULT:.5f})"
_ALPHA0_HELP = f"nominal level (default {ALPHA0_DEFAULT})"


# ---------------------------------------------------------------------------
# serialization

def _render_json(obj, level=0):
    """JSON with floats at 17 significant digits (round-trip exact)."""
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f'{pad}  {json.dumps(str(k))}: {_render_json(v, level + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray):
        return _render_json(obj.tolist(), level)
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        if all(isinstance(v, (bool, int, float, np.number, np.bool_)) for v in obj):
            return "[" + ", ".join(_render_json(v, level + 1) for v in obj) + "]"
        items = (f"{pad}  {_render_json(v, level + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return json.dumps(x)
        return f"{x:.17g}"
    return json.dumps(obj)


def _print_json(payload, stream=None):
    print(_render_json(payload), file=stream or sys.stdout)


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _rows_to_csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing helpers

def _parse_floats(text, flag):
    try:
        values = tuple(float(v) for v in str(text).split(",") if v.strip())
    except ValueError as exc:
        raise InputError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise InputError(f"{flag} is empty")
    return values


def _parse_ints(text, flag):
    values = _parse_floats(text, flag)
    out = tuple(int(v) for v in values)
    if any(o != v for o, v in zip(out, values)):
        raise InputError(f"{flag} expects integers, got {text!r}")
    return out


def _effective_method(args):
    method = args.method
    if getattr(args, "refined", False) and method == "ctost":
        method = "ctost-star"
    return method


def _spec(args, method="ctost"):
    return EquivalenceSpec(c0=args.c0, alpha0=args.alpha0, method=method)


def _calibrate_kwargs(args):
    """The cTOST* level source (strategy, table) drawn from CLI flags."""
    strategy = args.strategy or ("quadrature" if args.table is None else "table-lookup")
    return {"strategy": strategy, "table": args.table}


def _load_summary(args, default_theta=None):
    if getattr(args, "case_study", False):
        return load_case_study(), case_study_labels()
    if getattr(args, "input", None):
        path = args.input
        if path.lower().endswith(".csv"):
            data = read_paired_csv(path, scale=args.scale)
            return summarize(data), data.dimension_names
        return read_summary_json(path), None
    theta_text = getattr(args, "theta_hat", None)
    if theta_text is None and default_theta is not None:
        theta_text = default_theta
    sigma_text = getattr(args, "sigma1_hat", None)
    if theta_text is None or sigma_text is None or args.nu2 is None:
        raise InputError(
            "no input: provide --input FILE, --case-study, or "
            "--theta-hat/--sigma1-hat/--nu2"
        )
    theta = _parse_floats(theta_text, "--theta-hat")
    sigma = _parse_floats(sigma_text, "--sigma1-hat")
    if len(theta) == 1 and len(sigma) > 1:
        theta = theta * len(sigma)
    if len(theta) == 1 and len(sigma) == 1:
        return UnivSummary(theta[0], sigma[0], int(args.nu2)), None
    if len(theta) != len(sigma):
        raise InputError("--theta-hat and --sigma1-hat lengths differ")
    return _independent_summary(np.array(theta), np.array(sigma), int(args.nu2),
                                "--theta-hat/--sigma1-hat"), None


# ---------------------------------------------------------------------------
# assess

def _assess_report(args):
    method = _effective_method(args)
    summary, labels = _load_summary(args)
    if isinstance(summary, UnivSummary):
        report = decide(summary, _spec(args, method), **_calibrate_kwargs(args))
    else:
        spec = _spec(args, "ctost" if method == "ctost-star" else method)
        mv_kwargs = {"seed": args.seed}
        if args.tol is not None:
            mv_kwargs["tol"] = args.tol
        if method in ("delta-tost", "ctost-star"):
            raise InputError(
                f"method {method!r} is univariate only; multivariate choices "
                "are tost, alpha-tost, ctost"
            )
        report = mvt_decide(summary, spec=spec, method=method, **mv_kwargs)
    return report, labels


def _assess_text(payload):
    lines = [
        f"method: {payload['method']}    verdict: {payload['verdict']}",
        f"c0 = {payload['c0']:.6f}, alpha0 = {payload['alpha0']}",
    ]
    names = payload.get("dimension_names")
    theta = payload["theta_hat"]
    margins = payload["margins"]
    intervals = payload["intervals"]
    if names is None:
        names = [str(i + 1) for i in range(len(theta))]
    width = max(len(n) for n in names)
    header = f"{'dimension':<{width}}  {'theta_hat':>10}  {'margin':>10}  interval"
    lines.append(header)
    for i, name in enumerate(names):
        if intervals is None:
            iv = "n/a"
        else:
            iv = f"[{intervals[i][0]: .4f}, {intervals[i][1]: .4f}]"
        lines.append(
            f"{name:<{width}}  {theta[i]:>10.4f}  {margins[i]:>10.4f}  {iv}"
        )
    return "\n".join(lines)


def cmd_assess(args):
    report, labels = _assess_report(args)
    payload = report.to_dict()
    if labels is not None:
        payload["dimension_names"] = list(labels)
    if args.format == "csv":
        raise InputError("assess supports --format json or text")
    if args.format == "text":
        print(_assess_text(payload))
    else:
        _print_json(payload)
    return 0


# ---------------------------------------------------------------------------
# adjust

def _adjustment_payload(adj):
    if isinstance(adj, MvtAdjustment):
        lam = adj.lambda_
        return {
            "method": "ctost",
            "c_star": np.asarray(adj.c_star),
            "gamma": adj.gamma,
            "lambda": np.asarray(lam.lambda_),
            "lambda_objective": lam.objective,
            "lambda_face": lam.face,
            "outer_iterations": adj.outer_iterations,
            "inner_iterations": adj.inner_iterations,
            "converged": adj.converged,
        }
    return dataclasses.asdict(adj)


def cmd_adjust(args):
    method = _effective_method(args)
    summary, _ = _load_summary(args, default_theta="0")
    if isinstance(summary, UnivSummary):
        if method == "tost":
            raise InputError("tost needs no adjustment; choose another --method")
        spec = _spec(args, method)
        adj = _rule(method, summary.sigma1_hat, summary.nu2, spec, tol=args.tol,
                    **_calibrate_kwargs(args))
    else:
        if method != "ctost":
            raise InputError("multivariate adjustment is available for ctost only")
        spec = _spec(args, "ctost")
        kwargs = {"seed": args.seed}
        if args.tol is not None:
            kwargs["tol"] = args.tol
        adj = ctost_mvt_adjust(summary, spec=spec, **kwargs)
    payload = _adjustment_payload(adj)
    if isinstance(adj, MvtAdjustment):
        payload["correlation_assumed"] = summary.correlation_assumed
    payload["c0"] = spec.c0
    payload["alpha0"] = spec.alpha0
    if args.format == "text":
        for key, value in payload.items():
            if isinstance(value, np.ndarray):
                value = np.array2string(value, precision=6)
            elif isinstance(value, float):
                value = f"{value:.6g}"
            print(f"{key}: {value}")
    else:
        if args.format == "csv":
            raise InputError("adjust supports --format json or text")
        _print_json(payload)
    return 0


# ---------------------------------------------------------------------------
# power / size tables

def _power_size_rows(args, with_theta):
    methods = tuple(dict.fromkeys(_parse_strs(args.method, "--method")))
    for m in methods:
        if m not in METHODS:
            raise InputError(f"unknown method {m!r}; choose from {METHODS}")
    sigmas = _parse_floats(args.sigma1, "--sigma1")
    nus = _parse_ints(args.nu2, "--nu2")
    thetas = _parse_floats(args.theta, "--theta") if with_theta else (None,)
    rows = []
    for method in methods:
        spec = _spec(args, method)
        for nu2 in nus:
            for sigma1 in sigmas:
                # the plug-in rule of the method at known sigma1
                adj = _rule(method, sigma1, nu2, spec, tol=args.tol,
                            **_calibrate_kwargs(args))
                t, c = adj.t_used, adj.c_used
                for theta in thetas:
                    at = spec.c0 if theta is None else theta
                    q = UnivPowerQuery(theta=at, sigma1=sigma1, nu2=nu2, t=t, c=c)
                    val = float(power_uni(q))
                    if with_theta:
                        rows.append((theta, sigma1, nu2, method, t, c, val))
                    else:
                        rows.append((sigma1, nu2, method, t, c, val))
    return rows


def _parse_strs(text, flag):
    values = tuple(v.strip() for v in str(text).split(",") if v.strip())
    if not values:
        raise InputError(f"{flag} is empty")
    return values


def _emit_table(args, header, rows):
    if args.format == "csv":
        text = _rows_to_csv(header, rows)
        sys.stdout.write(text)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    elif args.format == "text":
        widths = [max(len(h), 12) for h in header]
        print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for row in rows:
            cells = [
                f"{v:.6f}" if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            ]
            print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    else:
        payload = [dict(zip(header, row)) for row in rows]
        _print_json(payload)
    return 0


def cmd_power(args):
    rows = _power_size_rows(args, with_theta=True)
    return _emit_table(args, ("theta", "sigma1", "nu2", "method", "t", "c", "power"), rows)


def cmd_size(args):
    rows = _power_size_rows(args, with_theta=False)
    return _emit_table(args, ("sigma1", "nu2", "method", "t", "c", "size"), rows)


# ---------------------------------------------------------------------------
# simulate / table

def cmd_simulate(args):
    scale = "full" if args.full else "desk"
    common = {"scale": scale, "seed": args.seed, "c0": args.c0, "alpha0": args.alpha0}
    if args.replicates is not None:
        common["replicates"] = args.replicates
    if args.design == "univariate-sweep":
        cfg = univariate_sweep_config(**common)
    else:
        cfg = mvt_kappa_config(K=args.K, **common)
    replacements = {}
    if args.methods is not None:
        replacements["methods"] = _parse_strs(args.methods, "--methods")
    if args.nu2 is not None:
        replacements["nu2_set"] = _parse_ints(args.nu2, "--nu2")
    if args.rho is not None:
        replacements["rho_set"] = _parse_floats(args.rho, "--rho")
    if replacements:
        cfg = dataclasses.replace(cfg, **replacements)
    result = run_simulation(cfg, table=args.table)
    emit_plot_data(result, args.out)
    _print_json({
        "design": cfg.design,
        "out": args.out,
        "records": len(result.records),
        "config_hash": result.config_hash,
        "code_version": result.code_version,
        "seed": result.seed,
        "diagnostics": result.diagnostics,
        "config": cfg.canonical(),
    })
    return 0


def cmd_table(args):
    spec = EquivalenceSpec(c0=args.c0, alpha0=args.alpha0)
    sigma_grid = nu_grid = None
    if args.sigma_grid:
        sigma_grid = np.array(_parse_floats(args.sigma_grid, "--sigma-grid"))
    if args.nu_grid:
        nu_grid = np.array(_parse_ints(args.nu_grid, "--nu-grid"))
    table = build_calibration_table(
        spec=spec, sigma_grid=sigma_grid, nu_grid=nu_grid, path=args.out)
    _print_json({
        "out": args.out,
        "sigma_points": len(table.sigma_grid),
        "nu_points": len(table.nu_grid),
        "c0": table.c0,
        "alpha0": table.alpha0,
    })
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_summary_inputs(sp):
    sp.add_argument("--input", metavar="FILE",
                    help="summary JSON or paired CSV (by extension)")
    sp.add_argument("--case-study", action="store_true", dest="case_study",
                    help="use the bundled cutaneous case study")
    sp.add_argument("--scale", choices=("raw", "log"), default="raw",
                    help="measurement scale of paired CSV input (default raw)")
    sp.add_argument("--theta-hat", metavar="X[,X...]",
                    help="effect estimate(s) on the log scale")
    sp.add_argument("--sigma1-hat", metavar="S[,S...]",
                    help="standard error(s) of the effect estimate(s)")
    sp.add_argument("--nu2", type=int, metavar="N",
                    help="degrees of freedom of the variance estimate")


def _add_method_flags(sp, default="ctost", multi=False):
    help_text = "test procedure" + (" (comma-separated list allowed)" if multi else "")
    sp.add_argument("--method", default=default,
                    help=f"{help_text}; one of {', '.join(METHODS)} (default {default})")
    sp.add_argument("--refined", action="store_true",
                    help="use the calibrated small-sample variant (ctost -> ctost-star)")


def _add_star_flags(sp):
    sp.add_argument("--strategy", choices=("quadrature", "table-lookup"),
                    default=None, help="ctost-star calibration strategy "
                    "(default quadrature; table-lookup when --table-path is given)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="equivkit",
        description="Average (bio)equivalence testing with corrected TOST "
                    "procedures: assessment, margin adjustment, exact power "
                    "and size, simulation studies, calibration tables.",
    )
    # table reads only the levels, simulate adds the seed, the rest the tol
    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument("--alpha0", type=float, default=ALPHA0_DEFAULT, help=_ALPHA0_HELP)
    levels.add_argument("--c0", type=float, default=C0_DEFAULT, help=_C0_HELP)
    seeded = argparse.ArgumentParser(add_help=False, parents=[levels])
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for any randomized step (default 0)")
    common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    common.add_argument("--tol", type=float, default=None,
                        help="solver tolerance override (default per solver)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv", "text"), default="json",
                     help="output format (default json)")
    tbl = argparse.ArgumentParser(add_help=False)
    tbl.add_argument("--table-path", metavar="FILE", default=None,
                     help="ctost-star calibration table CSV "
                          "(default: the bundled table)")

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("assess", parents=[common, fmt, tbl],
                        help="declare equivalence or not for a dataset or summary")
    _add_summary_inputs(sp)
    _add_method_flags(sp)
    _add_star_flags(sp)

    sp = sub.add_parser("case-study", parents=[common, fmt, tbl],
                        help="assess the bundled cutaneous case study "
                             "(alias for assess --case-study)")
    _add_method_flags(sp)
    _add_star_flags(sp)

    sp = sub.add_parser("adjust", parents=[common, fmt, tbl],
                        help="compute the adjusted (t, c) pair and diagnostics")
    _add_summary_inputs(sp)
    _add_method_flags(sp)
    _add_star_flags(sp)

    for name, help_text in (("power", "exact rejection probability over a grid"),
                            ("size", "exact size over a grid")):
        sp = sub.add_parser(name, parents=[common, fmt, tbl], help=help_text)
        _add_method_flags(sp, default="tost", multi=True)
        _add_star_flags(sp)
        if name == "power":
            sp.add_argument("--theta", default="0", metavar="X[,X...]",
                            help="true effect grid (default 0)")
        sp.add_argument("--sigma1", default="0.05,0.1,0.15", metavar="S[,S...]",
                        help="true standard error grid (default 0.05,0.1,0.15)")
        sp.add_argument("--nu2", default="20", metavar="N[,N...]",
                        help="degrees of freedom grid (default 20)")
        sp.add_argument("--out", metavar="FILE", default=None,
                        help="also write the table to FILE (csv format only)")

    sp = sub.add_parser("simulate", parents=[seeded, tbl],
                        help="run a Monte Carlo study and write tidy CSV")
    sp.add_argument("--design", required=True,
                    choices=("univariate-sweep", "mvt-kappa"))
    scale_group = sp.add_mutually_exclusive_group()
    scale_group.add_argument("--desk", action="store_true", default=True,
                             help="desk-scale defaults (default)")
    scale_group.add_argument("--full", action="store_true",
                             help="full-scale replicate counts and grids")
    sp.add_argument("--out", default="simulation.csv", metavar="FILE",
                    help="output CSV path (default simulation.csv)")
    sp.add_argument("--replicates", type=int, default=None,
                    help="override the per-cell replicate count")
    sp.add_argument("--methods", default=None, metavar="M[,M...]",
                    help="override the method list")
    sp.add_argument("--nu2", default=None, metavar="N[,N...]",
                    help="override the degrees-of-freedom set")
    sp.add_argument("--K", type=int, default=2, choices=(2, 4),
                    help="dimension for mvt-kappa (default 2)")
    sp.add_argument("--rho", default=None, metavar="R[,R...]",
                    help="override the correlation set for mvt-kappa")

    sp = sub.add_parser("table", parents=[levels],
                        help="precompute a ctost-star calibration table")
    sp.add_argument("--out", default="alpha_c_table.csv", metavar="FILE",
                    help="output CSV path (default alpha_c_table.csv)")
    sp.add_argument("--sigma-grid", default=None, metavar="S[,S...]",
                    help="sigma1 grid (default 0.01 to 0.3 in steps of 0.005)")
    sp.add_argument("--nu-grid", default=None, metavar="N[,N...]",
                    help="nu2 grid (default every integer from 5 to 100)")
    return parser


_DISPATCH = {
    "assess": cmd_assess,
    "case-study": cmd_assess,
    "adjust": cmd_adjust,
    "power": cmd_power,
    "size": cmd_size,
    "simulate": cmd_simulate,
    "table": cmd_table,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "case-study":
        args.case_study = True
        args.input = None
        args.scale = "raw"
    try:
        path = getattr(args, "table_path", None)
        args.table = CalibrationTable.from_csv(path) if path else None
        return _DISPATCH[args.command](args)
    except NonConvergenceError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if exc.last is not None:
            payload["error"]["last"] = np.asarray(exc.last)
        if exc.trace:
            payload["error"]["trace"] = exc.trace
        _print_json(payload, stream=sys.stderr)
        return 3
    except EquivError as exc:
        _print_json({"error": {"type": type(exc).__name__, "message": str(exc)}},
                    stream=sys.stderr)
        return 2
    except OSError as exc:
        _print_json({"error": {"type": "OSError", "message": str(exc)}},
                    stream=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

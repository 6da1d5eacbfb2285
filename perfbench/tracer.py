"""Spans and counters recorded from outside the library.

The tracer replaces a function by a wrapper in every equivkit module that
bound it by name (``from .statdist import bvn_rect_prob`` copies the
function into the importing module, so patching the defining module alone
would miss those callers).  Each call becomes a span (name, start, end,
parent) kept in memory; a per-layer counter function reads the call's
arguments and result.  Library code is not modified.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _size(x):
    return int(np.size(x))


def _bound(fn):
    sig = inspect.signature(fn)

    def args_of(a, k):
        ba = sig.bind(*a, **k)
        ba.apply_defaults()
        return ba.arguments
    return args_of


# (module, attribute, span name, counter(counts, fn, args, kwargs, result))
# Counters add to the span name's own keys; see LAYER_METRICS for the names.
def _count_bvn(n, fn, a, k, out):
    n["boxes"] += _size(out)


def _count_qmc_single(n, fn, a, k, out):
    args = fn._bench_args(a, k)
    n["points"] += int(args["n_points"]) * int(args["n_scrambles"])


def _count_qmc_batch(n, fn, a, k, out):
    args = fn._bench_args(a, k)
    n["points"] += int(args["n_points"]) * _size(out)


def _count_wishart(n, fn, a, k, out):
    n["draws"] += int(np.shape(out)[0])


def _count_elements(n, fn, a, k, out):
    n["elements"] += _size(out)


def _count_elements_first(n, fn, a, k, out):
    n["elements"] += _size(out[0])


def _count_match(n, fn, a, k, out):
    n["elements"] += _size(out[0])
    n["iterations"] += int(out[1])


def _count_one(n, fn, a, k, out):
    n["elements"] += 1


def _count_table(n, fn, a, k, out):
    vals = np.asarray(out, dtype=float)
    n["lookups"] += vals.size
    n["hits"] += int(np.count_nonzero(np.isfinite(vals)))


def _count_argsup(n, fn, a, k, out):
    n["objective_evals"] += int(out.candidates_evaluated)


def _count_fit(n, fn, a, k, out):
    n["outer_iters"] += int(out.outer_iterations)
    n["inner_iters"] += int(out.inner_iterations)


TARGETS = (
    ("statdist", "bvn_rect_prob", "statdist.bvn", _count_bvn),
    ("statdist", "_rect_gl_cond", "statdist.rect_cond", None),
    ("statdist", "_genz_qmc", "statdist.qmc", _count_qmc_single),
    ("statdist", "_genz_qmc_batch", "statdist.qmc", _count_qmc_batch),
    ("statdist", "sample_wishart_diag", "statdist.wishart", _count_wishart),
    ("powerkernel", "power_mvt", "powerkernel.power_mvt", None),
    ("powerkernel", "power_uni", "powerkernel.power_uni", None),
    ("powerkernel", "_omega_batch", "powerkernel.omega", _count_elements),
    ("univariate", "_match_margin", "univariate.match_margin", _count_match),
    ("univariate", "alpha_tost_adjust", "univariate.alpha_solve", _count_one),
    ("univariate", "_alpha_star_batch", "univariate.alpha_solve", _count_elements_first),
    ("univariate", "margin_for_multiplier", "univariate.delta_solve", _count_one),
    ("simkit", "_delta_margin_rows", "univariate.delta_solve", _count_elements),
    ("univariate", "_calibrate_level", "univariate.calibrate", None),
    ("univariate", "CalibrationTable.lookup", "univariate.table", _count_table),
    ("univariate", "decide", "univariate.entry", None),
    ("univariate", "tost_decide", "univariate.entry", None),
    ("univariate", "ctost_decide", "univariate.entry", None),
    ("univariate", "ctost_adjust", "univariate.entry", None),
    ("univariate", "delta_tost_adjust", "univariate.entry", None),
    ("univariate", "ctost_star_calibrate", "univariate.entry", None),
    ("mvt", "lambda_argsup", "mvt.argsup", _count_argsup),
    ("mvt", "ctost_mvt_adjust", "mvt.fit", _count_fit),
    ("mvt", "_omega_joint", "mvt.omega_joint", None),
    ("mvt", "_alpha_star_joint", "mvt.alpha_joint", None),
    ("mvt", "mvt_decide", "mvt.decide", None),
    ("simkit", "run_simulation", "simkit", None),
    ("simkit", "run_univariate_sweep", "simkit", None),
    ("simkit", "run_mvt_kappa", "simkit", None),
    ("ingest", "read_paired_csv", "ingest", None),
    ("ingest", "read_summary_json", "ingest", None),
    ("ingest", "summarize", "ingest", None),
    ("ingest", "load_case_study", "ingest", None),
    ("ingest", "case_study_labels", "ingest", None),
    ("cli", "main", "cli", None),
)

# per-layer metric names reported by the traced run, with their units
LAYER_METRICS = (
    ("statdist.bvn.calls", "count"),
    ("statdist.bvn.boxes", "count"),
    ("statdist.bvn.self_s", "s"),
    ("statdist.rect_cond.calls", "count"),
    ("statdist.rect_cond.self_s", "s"),
    ("statdist.qmc.calls", "count"),
    ("statdist.qmc.points", "count"),
    ("statdist.qmc.self_s", "s"),
    ("statdist.wishart.draws", "count"),
    ("statdist.wishart.self_s", "s"),
    ("powerkernel.power_mvt.calls", "count"),
    ("powerkernel.power_mvt.self_s", "s"),
    ("powerkernel.omega.calls", "count"),
    ("powerkernel.omega.elements", "count"),
    ("powerkernel.omega.self_s", "s"),
    ("univariate.match_margin.calls", "count"),
    ("univariate.match_margin.elements", "count"),
    ("univariate.match_margin.iterations", "count"),
    ("univariate.match_margin.self_s", "s"),
    ("univariate.alpha_solve.calls", "count"),
    ("univariate.alpha_solve.elements", "count"),
    ("univariate.alpha_solve.self_s", "s"),
    ("univariate.delta_solve.calls", "count"),
    ("univariate.delta_solve.elements", "count"),
    ("univariate.delta_solve.self_s", "s"),
    ("univariate.calibrate.self_s", "s"),
    ("univariate.table.hit_frac", "fraction"),
    ("univariate.table.self_s", "s"),
    ("mvt.argsup.calls", "count"),
    ("mvt.argsup.objective_evals", "count"),
    ("mvt.argsup.self_s", "s"),
    ("mvt.fit.calls", "count"),
    ("mvt.fit.outer_iters", "count"),
    ("mvt.fit.inner_iters", "count"),
    ("mvt.fit.self_s", "s"),
    ("mvt.omega_joint.calls", "count"),
    ("mvt.alpha_joint.self_s", "s"),
    ("simkit.self_s", "s"),
    ("ingest.self_s", "s"),
    ("cli.self_s", "s"),
    # glue that would otherwise be billed to its caller's self time
    ("univariate.entry.self_s", "s"),
    ("powerkernel.power_uni.calls", "count"),
    ("mvt.decide.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# counts that do not depend on the machine and must repeat exactly
COUNT_SUFFIXES = (".calls", ".elements", ".boxes", ".points", ".draws",
                  ".iterations", ".objective_evals", ".outer_iters",
                  ".inner_iters", ".hit_frac")

ROOT = "bench.op"


class Tracer:
    """In-memory span recorder that patches equivkit functions while active."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo = []

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def root(self, fn):
        """Run fn() as a root span for one benchmark operation."""
        idx = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, name, fn, counter):
        counts = self.counts[name]
        tracer = self

        def wrapper(*a, **k):
            idx = tracer._open(name)
            try:
                out = fn(*a, **k)
            finally:
                tracer._close(idx)
            counts["calls"] += 1
            if counter is not None:
                counter(counts, wrapper, a, k, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper._bench_args = _bound(fn)
        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self):
        """Replace every binding of each target in the loaded equivkit modules."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "equivkit" or n.startswith("equivkit."))]
        for mod_name, attr, span, counter in TARGETS:
            home = sys.modules.get(f"equivkit.{mod_name}")
            owner_name, _, meth = attr.rpartition(".")
            if home is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if owner_name:
                owner = getattr(home, owner_name, None)
                orig = getattr(owner, meth, None) if owner is not None else None
                if orig is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._undo.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(span, orig, counter))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(span, orig, counter)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def layer_metrics(self, overhead_s):
        """The LAYER_METRICS values from the recorded spans and counters."""
        own = self.self_times()
        by_name = defaultdict(float)
        for name, s in zip(self.names, own):
            by_name[name] += float(s)
        out = {}
        for metric, _unit in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if metric == "trace.overhead_s":
                out[metric] = float(overhead_s)
            elif field == "self_s":
                out[metric] = by_name.get(layer, 0.0)
            elif field == "hit_frac":
                n = self.counts[layer]
                out[metric] = n["hits"] / n["lookups"] if n["lookups"] else 0.0
            else:
                out[metric] = int(self.counts[layer][field])
        return out

    def write(self, path, meta):
        """Write every span as [name, start, end, parent] plus run metadata."""
        t0 = self.starts[0] if self.starts else 0.0
        payload = {
            "meta": meta,
            "missing_targets": self.missing,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, round(s - t0, 9), round(e - t0, 9), p]
                      for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))

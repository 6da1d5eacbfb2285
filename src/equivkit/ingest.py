"""Data ingestion: raw paired measurements or summary statistics to canonical form.

The analysis modules consume sufficient statistics (UnivSummary / MvtSummary)
on the log scale.  This module builds them from per-subject paired
measurements, from a long-format CSV, or from a summary JSON file, and ships
the cutaneous-penetration case study as a bundled dataset.

Only the paired design is handled here.  Parallel-group or crossover data
must be reduced to summary statistics upstream and supplied via
``read_summary_json``.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .base import DegenerateDataError, InputError
from .mvt import MvtSummary, repair_correlation
from .univariate import UnivSummary

__all__ = [
    "PairedDataset",
    "summarize",
    "read_paired_csv",
    "read_summary_json",
    "load_case_study",
    "case_study_labels",
]

_SCALES = ("raw", "log")
_CSV_HEADER = ("subject", "dimension", "reference", "test")
_CASE_STUDY_RESOURCE = "cutaneous_case_study.json"


@dataclass(frozen=True)
class PairedDataset:
    """Per-subject (reference, test) measurement pairs over K dimensions.

    ``reference`` and ``test`` are (n, K) arrays aligned with ``subjects``
    and ``dimension_names``; NaN marks a missing measurement.  ``scale``
    says whether values are raw (strictly positive, log transform applied
    during summarization) or already on the log scale.
    """

    subjects: tuple
    reference: np.ndarray
    test: np.ndarray
    dimension_names: tuple
    scale: str = "raw"

    def __post_init__(self):
        ref = np.atleast_2d(np.asarray(self.reference, dtype=float))
        tst = np.atleast_2d(np.asarray(self.test, dtype=float))
        subjects = tuple(str(s) for s in self.subjects)
        names = tuple(str(d) for d in self.dimension_names)
        if self.scale not in _SCALES:
            raise InputError(f"scale must be one of {_SCALES}, got {self.scale!r}")
        if ref.shape != tst.shape:
            raise InputError(
                f"reference and test shapes differ: {ref.shape} vs {tst.shape}"
            )
        n, k = ref.shape
        if len(subjects) != n:
            raise InputError(f"{len(subjects)} subject ids for {n} measurement rows")
        if len(names) != k:
            raise InputError(f"{len(names)} dimension names for {k} columns")
        if len(set(subjects)) != n:
            raise InputError("subject ids must be unique")
        if len(set(names)) != k:
            raise InputError("dimension names must be unique")
        if n < 2:
            raise InputError("at least two subjects are required")
        for label, arr in (("reference", ref), ("test", tst)):
            seen = arr[~np.isnan(arr)]
            if np.any(~np.isfinite(seen)):
                raise InputError(f"{label} contains non-finite values")
            if self.scale == "raw" and np.any(seen <= 0):
                raise InputError(
                    f"raw-scale {label} measurements must be strictly positive"
                )
        object.__setattr__(self, "subjects", subjects)
        object.__setattr__(self, "dimension_names", names)
        object.__setattr__(self, "reference", ref)
        object.__setattr__(self, "test", tst)

    @property
    def n_subjects(self):
        return self.reference.shape[0]

    @property
    def dim(self):
        return self.reference.shape[1]


def summarize(data):
    """Reduce a PairedDataset to canonical summary statistics.

    Per-subject differences are formed on the log scale (taking logs first
    when ``data.scale == "raw"``).  Subjects missing any measurement are
    dropped listwise with a warning.  Returns a UnivSummary when K = 1,
    otherwise an MvtSummary whose correlation matrix has been repaired to
    positive definite if the sample estimate is singular.

    Raises DegenerateDataError when fewer than two complete subjects remain
    or any dimension has zero variance.
    """
    ref, tst = data.reference, data.test
    complete = ~(np.isnan(ref).any(axis=1) | np.isnan(tst).any(axis=1))
    n_total = data.n_subjects
    n = int(complete.sum())
    if n < n_total:
        warnings.warn(
            f"dropped {n_total - n} of {n_total} subjects with incomplete "
            f"pairs; summary uses n={n}",
            stacklevel=2,
        )
    if n < 2:
        raise DegenerateDataError(
            f"need at least two complete subjects, have {n}"
        )
    if data.scale == "raw":
        d = np.log(tst[complete]) - np.log(ref[complete])
    else:
        d = tst[complete] - ref[complete]

    theta = d.mean(axis=0)
    cov = np.atleast_2d(np.cov(d, rowvar=False, ddof=1))
    var = np.diag(cov).copy()
    # constant differences leave rounding-level residual variance, so the
    # zero test needs a floor relative to the magnitude of the mean
    floor = (1e-12 * np.maximum(1.0, np.abs(theta))) ** 2
    if np.any(var <= floor):
        bad = data.dimension_names[int(np.argmax(var <= floor))]
        raise DegenerateDataError(
            f"zero variance of the paired differences in dimension {bad!r}"
        )
    # sd of the mean: sd(d)/sqrt(n), with nu2 = n - 1 degrees of freedom
    sigma1 = np.sqrt(var / n)
    nu2 = n - 1
    if data.dim == 1:
        return UnivSummary(float(theta[0]), float(sigma1[0]), nu2)
    denom = np.sqrt(np.outer(var, var))
    corr = cov / denom
    np.fill_diagonal(corr, 1.0)
    corr = repair_correlation(corr)
    return MvtSummary(theta, sigma1, corr, nu2)


def read_paired_csv(path, scale="raw"):
    """Read a long-format paired CSV into a PairedDataset.

    Expected header: ``subject,dimension,reference,test``.  Subject and
    dimension orderings follow first appearance.  An empty reference or
    test field records a missing measurement; absent (subject, dimension)
    combinations are likewise treated as missing.  Duplicate combinations
    are an error.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: empty file")
    header = tuple(cell.strip().lower() for cell in rows[0])
    if header != _CSV_HEADER:
        raise InputError(
            f"{path}: expected header {','.join(_CSV_HEADER)}, "
            f"got {','.join(header)}"
        )

    subjects, dims = [], []
    cells = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise InputError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        subj, dim, ref_s, tst_s = (cell.strip() for cell in row)
        if not subj or not dim:
            raise InputError(f"{path}:{lineno}: empty subject or dimension id")
        key = (subj, dim)
        if key in cells:
            raise InputError(
                f"{path}:{lineno}: duplicate entry for subject {subj!r}, "
                f"dimension {dim!r}"
            )
        pair = []
        for label, text in (("reference", ref_s), ("test", tst_s)):
            if not text:
                pair.append(np.nan)
                continue
            try:
                pair.append(float(text))
            except ValueError as exc:
                raise InputError(
                    f"{path}:{lineno}: {label} value {text!r} is not a number"
                ) from exc
        cells[key] = tuple(pair)
        if subj not in subjects:
            subjects.append(subj)
        if dim not in dims:
            dims.append(dim)

    if not cells:
        raise InputError(f"{path}: no data rows")
    n, k = len(subjects), len(dims)
    ref = np.full((n, k), np.nan)
    tst = np.full((n, k), np.nan)
    for i, subj in enumerate(subjects):
        for j, dim in enumerate(dims):
            pair = cells.get((subj, dim))
            if pair is not None:
                ref[i, j], tst[i, j] = pair
    return PairedDataset(tuple(subjects), ref, tst, tuple(dims), scale=scale)


def _identity_correlation(k, origin):
    """Identity correlation for K >= 2 summaries that give none, with a warning.

    The warning is attributed to the caller of the public reader.
    """
    warnings.warn(
        f"{origin}: no correlation given for {k} dimensions; assuming "
        "independence (identity correlation)",
        stacklevel=4,
    )
    return np.eye(k)


def _parse_summary_payload(payload, origin):
    if not isinstance(payload, dict):
        raise InputError(f"{origin}: summary JSON must be an object")
    for key in ("theta_hat", "sigma1_hat", "nu2"):
        if key not in payload:
            raise InputError(f"{origin}: missing required key {key!r}")
    scale = payload.get("scale", "log")
    if scale != "log":
        raise InputError(
            f"{origin}: summary statistics must be on the log scale "
            f"(scale={scale!r}); transform before summarizing"
        )
    theta = np.atleast_1d(np.asarray(payload["theta_hat"], dtype=float))
    sigma = np.atleast_1d(np.asarray(payload["sigma1_hat"], dtype=float))
    if theta.ndim != 1 or sigma.ndim != 1:
        raise InputError(f"{origin}: theta_hat and sigma1_hat must be vectors")
    try:
        nu2 = int(payload["nu2"])
    except (TypeError, ValueError) as exc:
        raise InputError(f"{origin}: nu2 must be an integer") from exc
    k = theta.size
    if k == 1:
        if "correlation" in payload and payload["correlation"] is not None:
            corr = np.atleast_2d(np.asarray(payload["correlation"], dtype=float))
            if corr.shape != (1, 1) or abs(corr[0, 0] - 1.0) > 1e-12:
                raise InputError(f"{origin}: scalar problem takes no correlation")
        return UnivSummary(float(theta[0]), float(sigma[0]), nu2)
    if "correlation" in payload and payload["correlation"] is not None:
        corr = np.asarray(payload["correlation"], dtype=float)
    else:
        corr = _identity_correlation(k, origin)
    return MvtSummary(theta, sigma, corr, nu2)


def read_summary_json(path):
    """Read a summary-statistics JSON file.

    Required keys: ``theta_hat`` (scalar or vector), ``sigma1_hat``
    (matching shape), ``nu2`` (integer).  Optional: ``correlation`` (K x K;
    identity assumed, with a UserWarning, when omitted) and ``scale``
    (must be ``"log"``).  Unknown keys are ignored.  Returns UnivSummary
    for one dimension, MvtSummary otherwise.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    return _parse_summary_payload(payload, str(path))


def _case_study_payload():
    text = (
        resources.files("equivkit.data")
        .joinpath(_CASE_STUDY_RESOURCE)
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def load_case_study():
    """Return the bundled cutaneous-bioequivalence case study as an MvtSummary.

    Log-scale concentration contrasts of an econazole nitrate cream versus
    its reference in four porcine skin layers, n = 12 subject pairs
    (nu2 = 11).  The published summary carries per-layer standard errors
    only, so the correlation falls back to identity, with a UserWarning
    saying so.  Under that fallback the joint alpha-tost declares
    equivalence (shared level alpha* ~ 0.379); the published non-equivalent
    verdict for that method needs the estimated cross-region correlation,
    which the bundled data lack.
    """
    return _parse_summary_payload(_case_study_payload(), _CASE_STUDY_RESOURCE)


def case_study_labels():
    """Skin-layer names of the case-study dimensions, in summary order."""
    return tuple(_case_study_payload()["dimension_names"])

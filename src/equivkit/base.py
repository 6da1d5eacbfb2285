"""Shared problem inputs, decision reports, and error types."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

C0_DEFAULT = math.log(1.25)
ALPHA0_DEFAULT = 0.05

METHODS = ("tost", "alpha-tost", "delta-tost", "ctost", "ctost-star")


def _as_float_list(values) -> list[float]:
    try:
        return [float(v) for v in values]
    except TypeError:
        return [float(values)]


class EquivError(Exception):
    """Base class for errors raised by this package."""


class InputError(EquivError, ValueError):
    """Inputs violate a documented contract (domain, shape, format)."""


class DegenerateDataError(InputError):
    """Data carry no usable variation (e.g. constant differences)."""


class ExtrapolationError(EquivError, ValueError):
    """A table lookup fell outside the tabulated grid.

    Callers should fall back to the quadrature strategy, which computes the
    calibrated level directly instead of interpolating it.
    """


class NonConvergenceError(EquivError, RuntimeError):
    """An iterative solver hit its iteration cap.

    Attributes
    ----------
    last : the final iterate (solver-specific shape)
    trace : list of per-iteration diagnostics, empty if not recorded
    """

    def __init__(self, message, last=None, trace=None):
        super().__init__(message)
        self.last = last
        self.trace = trace if trace is not None else []


@dataclass(frozen=True)
class EquivalenceSpec:
    """Equivalence problem definition: margin, nominal level, method.

    The defaults are the regulatory convention for average bioequivalence
    on the log scale: c0 = log(1.25) and alpha0 = 0.05.
    """

    c0: float = C0_DEFAULT
    alpha0: float = ALPHA0_DEFAULT
    method: str = "ctost"

    def __post_init__(self):
        if not (0 < self.c0 < math.inf):
            raise InputError(f"c0 must be finite and positive, got {self.c0}")
        if not (0 < self.alpha0 <= 0.5):
            raise InputError(f"alpha0 must be in (0, 0.5], got {self.alpha0}")
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; expected one of {METHODS}")


@dataclass
class DecisionReport:
    """Outcome of an equivalence assessment.

    ``reject`` refers to the null hypothesis of non-equivalence, so
    ``reject=True`` means equivalence is declared.  ``intervals`` holds one
    (lower, upper) pair per dimension when an interval representation
    exists; ``iip`` says whether those intervals support the interval
    inclusion principle (interval inside (-c0, c0) iff rejection).  When
    the adjusted margin is not below c0 no such interval exists and
    ``intervals`` is None.
    """

    method: str
    reject: bool
    theta_hat: list[float]
    margins: list[float]
    intervals: list[tuple[float, float]] | None
    iip: bool
    c0: float
    alpha0: float
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        # scalar (univariate) and vector inputs normalize to per-dimension lists
        self.theta_hat = _as_float_list(self.theta_hat)
        self.margins = _as_float_list(self.margins)
        if self.intervals is not None:
            self.intervals = [(float(lo), float(hi)) for lo, hi in self.intervals]

    @property
    def verdict(self) -> str:
        return "equivalent" if self.reject else "not equivalent"

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "verdict": self.verdict,
            "reject_null": self.reject,
            "theta_hat": list(self.theta_hat),
            "margins": list(self.margins),
            "intervals": None if self.intervals is None else [list(iv) for iv in self.intervals],
            "iip": self.iip,
            "c0": self.c0,
            "alpha0": self.alpha0,
            "meta": dict(self.meta),
        }

"""Stratification data: the min-norm point beta_mu and stratum labels.

The stratum parameter beta_mu is the unique minimum-norm point of the
convex hull of the supported weights, computed by Wolfe's algorithm in
.weights; this module re-exports that layer, so WeightVector,
support_weights, MinNormPoint, min_norm_point and certificate_gap keep
their names here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import StructureTensor
from .flow import FlowOptions, run_flow
from .snap import MAX_DENOMINATOR, RationalSnapError, format_fraction, snap_fraction, snap_spectrum
from .weights import (
    SUPPORT_TOL,
    MinNormPoint,
    WeightVector,
    certificate_gap,
    min_norm_point,
    support_weights,
)

__all__ = [
    "WeightVector",
    "MinNormPoint",
    "StratumLabel",
    "support_weights",
    "min_norm_point",
    "certificate_gap",
    "beta_mu",
    "beta_mu_point",
    "stratum_of",
    "label_from_fractions",
]

LABEL_SNAP_TOL = 1e-4   # flow terminals carry ~1e-5 eigenvalue error; labels are >= 1/(63*64) apart


@dataclass(frozen=True)
class StratumLabel:
    """Sorted (ascending) rational spectrum with trace -1; one fixed Weyl chamber."""

    beta: tuple[Fraction, ...]
    norm_sq: Fraction

    def __post_init__(self):
        if sum(self.beta, Fraction(0)) != -1:
            raise ValueError(f"stratum label must have trace -1, got {self.beta}")
        if list(self.beta) != sorted(self.beta):
            raise ValueError("stratum label must be sorted ascending")

    @classmethod
    def from_floats(cls, values, snap_tol: float = LABEL_SNAP_TOL,
                    max_den: int = MAX_DENOMINATOR) -> "StratumLabel":
        fr = [snap_fraction(float(v), max_den=max_den, tol=snap_tol) for v in sorted(values)]
        return cls(beta=tuple(fr), norm_sq=sum((f * f for f in fr), Fraction(0)))

    @property
    def dim(self) -> int:
        return len(self.beta)

    def __str__(self):
        return "(" + ", ".join(format_fraction(b) for b in self.beta) + ")"

    def to_json_dict(self) -> dict:
        return {
            "beta": [format_fraction(b) for b in self.beta],
            "energy": format_fraction(self.norm_sq),
        }


def beta_mu_point(mu: StructureTensor, tol: float = SUPPORT_TOL) -> MinNormPoint:
    """Raw (float) minimum-norm point over the supported weights."""
    weights = support_weights(mu, tol)
    return min_norm_point([w.diagonal for w in weights])


def beta_mu(mu: StructureTensor, support_tol: float = SUPPORT_TOL,
            snap_tol: float = 1e-6) -> StratumLabel:
    """beta_mu as a snapped, ascending stratum label."""
    result = beta_mu_point(mu, support_tol)
    label = StratumLabel.from_floats(result.point, snap_tol=snap_tol)
    if abs(float(label.norm_sq) - float(result.point @ result.point)) > 10 * snap_tol:
        raise RationalSnapError(f"snapped label {label} is inconsistent with ||beta||^2")
    return label


def stratum_of(mu: StructureTensor, opts: FlowOptions = FlowOptions(),
               label_tol: float = LABEL_SNAP_TOL) -> StratumLabel:
    """Stratum label of mu: flow to the terminal soliton and snap its moment spectrum.

    The exact flow stays in the orbit of mu, so the label is a basis-change
    invariant.  Numerically the non-minimal strata are measure-zero stable
    manifolds, and the discretized flow from a *generic-position* start can
    fall into a more generic (lower-energy) stratum; labels are reliable for
    near-critical starts, for unitary images of them, and on the open
    minimal stratum.  Raises RuntimeError when the flow does not converge,
    which includes a flow whose energy falls below its own lower bound
    (stop_reason left_orbit).
    """
    trace = run_flow(mu, opts, type_snap_tol=label_tol)
    if not trace.converged:
        raise RuntimeError(
            f"flow stopped on {trace.stop_reason} after {trace.steps_taken} steps "
            f"(terminal energy {trace.terminal_energy!r}, lower bound {trace.lower_bound!r})"
        )
    evals = np.sort(np.linalg.eigvalsh(trace.terminal_report.m))
    spectrum = snap_spectrum(evals, tol=label_tol)
    beta: list[Fraction] = []
    for frac, mult in spectrum:
        beta.extend([frac] * mult)
    return StratumLabel(beta=tuple(beta), norm_sq=sum((b * b for b in beta), Fraction(0)))


def label_from_fractions(values) -> StratumLabel:
    """Label built directly from exact rational entries (re-sorted ascending)."""
    beta = tuple(sorted(Fraction(v) for v in values))
    return StratumLabel(beta=beta, norm_sq=sum((b * b for b in beta), Fraction(0)))

"""Moment matrix, energy functional, soliton detection and typing.

The moment matrix of a nonzero tensor is

    M = -2 sum_i L_i^* L_i + sum_i L_i L_i^*,

summed over an orthonormal basis (L_i = left multiplication by e_i).  The
scale-invariant moment map is m = M / ||mu||^2, the energy is E = ||m||^2 in
the trace inner product <A, B> = Tr(A B^*), and critical points of E
("solitons") are exactly the tensors for which D = M - cI is a derivation,
where c = -||M||^2 / ||mu||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .algebra import StructureTensor, derivation_algebra, _inf_act_table, _moment_table
from .snap import (
    EIGENVALUE_GAP,
    MAX_DENOMINATOR,
    SNAP_TOL,
    RationalSnapError,
    format_fraction,
    snap_spectrum,
)

SOLITON_TOL = 1e-8

__all__ = [
    "MomentReport",
    "SolitonType",
    "moment_matrix",
    "moment_map",
    "energy",
    "energy_gradient",
    "soliton_check",
    "soliton_type",
    "type_from_beta",
    "sl_residual",
]


def _require_nonzero(mu: StructureTensor) -> float:
    n2 = mu.norm_sq
    if n2 == 0.0:
        raise ValueError("moment data is undefined for the zero tensor")
    return n2


def moment_matrix(mu: StructureTensor) -> np.ndarray:
    """Hermitian moment matrix M with Tr M = -||mu||^2."""
    _require_nonzero(mu)
    return _moment_table(mu.table)


def moment_map(mu: StructureTensor) -> np.ndarray:
    """Scale-invariant moment map value m = M / ||mu||^2."""
    return moment_matrix(mu) / _require_nonzero(mu)


def energy(mu: StructureTensor) -> float:
    """E = ||m||^2; scale- and unitary-invariant, with 1/n <= E <= 5 on Jordan tensors."""
    m = moment_map(mu)
    return float(np.sum(np.abs(m) ** 2))


def energy_gradient(mu: StructureTensor) -> StructureTensor:
    """grad E = (4/||mu||^2) (m . mu - ||m||^2 mu), with m . mu the infinitesimal action."""
    n2 = _require_nonzero(mu)
    m = _moment_table(mu.table) / n2
    e = float(np.sum(np.abs(m) ** 2))
    return StructureTensor(4.0 / n2 * (_inf_act_table(m, mu.table) - e * mu.table))


@dataclass(frozen=True)
class MomentReport:
    """Moment data of one tensor plus the soliton criterion residual."""

    M: np.ndarray
    m: np.ndarray
    energy: float
    c: float
    D: np.ndarray
    soliton_residual: float
    is_soliton: bool
    derivation_pairing_max: float

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "M": [[[z.real, z.imag] for z in row] for row in self.M.tolist()],
            "m_eigenvalues": sorted(np.linalg.eigvalsh(self.m).tolist()),
            "energy": self.energy,
            "c": self.c,
            "soliton_residual": self.soliton_residual,
            "is_soliton": self.is_soliton,
            "derivation_pairing_max": self.derivation_pairing_max,
        }


def soliton_check(mu: StructureTensor, tol: float = SOLITON_TOL,
                  pair_derivations: bool = True) -> MomentReport:
    """Criticality test: residual ||D . mu|| / ||mu|| with D = M - cI,
    evaluated on the unit-norm representative so the verdict is scale
    invariant (equivalently ||D . mu|| / ||mu||^3 for the raw input).

    Also cross-checks <M, D'> = 0 against every computed derivation basis
    element D' (recorded as derivation_pairing_max, relative to ||M||).
    """
    n2 = _require_nonzero(mu)
    big_m = _moment_table(mu.table)
    c = -float(np.sum(np.abs(big_m) ** 2)) / n2
    d = big_m - c * np.eye(mu.dim)
    residual = float(np.linalg.norm(_inf_act_table(d, mu.table))) / n2**1.5
    pairing = 0.0
    if pair_derivations:
        _, der_basis, _ = derivation_algebra(mu)
        m_norm = float(np.linalg.norm(big_m))
        for der in der_basis:
            pairing = max(pairing, abs(complex(np.trace(big_m @ der.conj().T))) / max(m_norm, 1e-300))
    return MomentReport(
        M=big_m,
        m=big_m / n2,
        energy=float(np.sum(np.abs(big_m) ** 2)) / n2**2,
        c=c,
        D=d,
        soliton_residual=residual,
        is_soliton=residual <= tol,
        derivation_pairing_max=pairing,
    )


@dataclass(frozen=True)
class SolitonType:
    """Coprime integer pattern (d_1 < ... < d_r; m_1, ..., m_r) with the exact beta spectrum."""

    degrees: tuple[int, ...]
    multiplicities: tuple[int, ...]
    beta: tuple[Fraction, ...]          # ascending eigenvalues of m, one per multiplicity
    energy: Fraction

    def __post_init__(self):
        if len(self.degrees) != len(self.multiplicities):
            raise ValueError("degrees and multiplicities must align")
        if list(self.degrees) != sorted(set(self.degrees)):
            raise ValueError("degrees must be strictly increasing")
        g = 0
        for d in self.degrees:
            g = gcd(g, abs(d))
        if g not in (0, 1):
            raise ValueError(f"degrees must be coprime as a set, got gcd {g}")
        tr = sum(b * m for b, m in zip(self.beta, self.multiplicities))
        if tr != -1:
            raise ValueError(f"beta must have trace -1, got {tr}")

    @property
    def dim(self) -> int:
        return sum(self.multiplicities)

    def beta_diagonal(self) -> list[Fraction]:
        out: list[Fraction] = []
        for b, m in zip(self.beta, self.multiplicities):
            out.extend([b] * m)
        return out

    def __str__(self):
        degs = "<".join(str(d) for d in self.degrees)
        mults = ",".join(str(m) for m in self.multiplicities)
        return f"({degs};{mults})"

    def to_json_dict(self) -> dict:
        return {
            "type": str(self),
            "degrees": list(self.degrees),
            "multiplicities": list(self.multiplicities),
            "beta": [format_fraction(b) for b in self.beta_diagonal()],
            "energy": format_fraction(self.energy),
        }


def type_from_beta(beta_spectrum: list[tuple[Fraction, int]]) -> SolitonType:
    """Build the type from exact (eigenvalue, multiplicity) pairs of m, ascending."""
    energy_frac = sum((b * b * m for b, m in beta_spectrum), Fraction(0))
    shifted = [b + energy_frac for b, _ in beta_spectrum]
    denom_lcm = 1
    for f in shifted:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in shifted]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return SolitonType(
        degrees=tuple(ints),
        multiplicities=tuple(m for _, m in beta_spectrum),
        beta=tuple(b for b, _ in beta_spectrum),
        energy=energy_frac,
    )


def soliton_type(mu: StructureTensor, tol: float = SOLITON_TOL,
                 snap_tol: float = SNAP_TOL, max_den: int = MAX_DENOMINATOR,
                 gap: float = EIGENVALUE_GAP) -> SolitonType:
    """Type of a soliton: snapped spectrum of m, rescaled to coprime integers.

    Raises ValueError when mu fails the soliton criterion and
    RationalSnapError when an eigenvalue has no small rational nearby.
    """
    report = soliton_check(mu, tol, pair_derivations=False)
    if not report.is_soliton:
        raise ValueError(
            f"not a soliton at tolerance {tol:g} (residual {report.soliton_residual:.3e})"
        )
    evals = np.sort(np.linalg.eigvalsh(report.m))
    spectrum = snap_spectrum(evals, max_den=max_den, tol=snap_tol, gap=gap)
    if sum(b * m for b, m in spectrum) != -1:
        raise RationalSnapError(
            f"snapped spectrum {[(str(b), m) for b, m in spectrum]} does not have trace -1"
        )
    stype = type_from_beta(spectrum)
    if abs(float(stype.energy) - report.energy) > 10 * snap_tol:
        raise RationalSnapError(
            f"snapped energy {stype.energy} is inconsistent with ||m||^2 = {report.energy!r}"
        )
    return stype


def sl_residual(mu: StructureTensor) -> float:
    """||m + I/n||; vanishes exactly on the traceless-moment (semisimple) locus."""
    m = moment_map(mu)
    return float(np.linalg.norm(m + np.eye(mu.dim) / mu.dim))

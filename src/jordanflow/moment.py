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

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm

import numpy as np

from .algebra import StructureTensor, derivation_algebra, _moment_table, _soliton_table, _unitary_act_table
from .snap import format_fraction
from .weights import SUPPORT_TOL, exact_beta, min_norm_point, support_weights

SOLITON_TOL = 1e-8

__all__ = [
    "MomentReport",
    "SolitonType",
    "moment_matrix",
    "moment_map",
    "energy",
    "energy_gradient",
    "soliton_check",
    "derivation_pairing",
    "soliton_type",
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
    """E = ||m||^2 = ||M||^2 / ||mu||^4; scale- and unitary-invariant, 1/n <= E <= 5 on Jordan tensors."""
    return _soliton_table(mu.table)[2]


def energy_gradient(mu: StructureTensor) -> StructureTensor:
    """grad E = 4 D . mu / ||mu||^4 with D = M - cI, the infinitesimal action of D on mu."""
    return StructureTensor(_soliton_table(mu.table)[3] * (4.0 / mu.norm_sq**2))


@dataclass(frozen=True)
class MomentReport:
    """Moment data of one tensor plus the soliton criterion residual."""

    M: np.ndarray
    m: np.ndarray
    energy: float
    c: float
    soliton_residual: float
    is_soliton: bool

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    @property
    def D(self) -> np.ndarray:
        """D = M - cI, a derivation exactly when the tensor is a soliton."""
        return self.M - self.c * np.eye(self.dim)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "M": [[[z.real, z.imag] for z in row] for row in self.M.tolist()],
            "m_eigenvalues": sorted(np.linalg.eigvalsh(self.m).tolist()),
            "energy": self.energy,
            "c": self.c,
            "soliton_residual": self.soliton_residual,
            "is_soliton": self.is_soliton,
        }


def soliton_check(mu: StructureTensor, tol: float = SOLITON_TOL) -> MomentReport:
    """Criticality test: residual ||D . mu|| / ||mu|| with D = M - cI,
    evaluated on the unit-norm representative so the verdict is scale
    invariant (equivalently ||D . mu|| / ||mu||^3 for the raw input).

    M, c and D . mu come from one table kernel, which also gives the
    energy and the gradient: E = -c / ||mu||^2 and grad E = 4 D . mu / ||mu||^4,
    so mu is critical for E exactly when D is a derivation.
    """
    big_m, c, e, d_mu = _soliton_table(mu.table)
    n2 = mu.norm_sq
    residual = float(np.linalg.norm(d_mu)) / n2**1.5
    return MomentReport(M=big_m, m=big_m / n2, energy=e, c=c, soliton_residual=residual,
                        is_soliton=residual <= tol)


def derivation_pairing(mu: StructureTensor) -> float:
    """max |<M, D'>| / ||M|| over an orthonormal basis D' of Der(mu); zero up to roundoff on every
    tensor, since <M, A> is proportional to <A . mu, mu>.  Checks M against derivation_algebra."""
    big_m = moment_matrix(mu)
    _, der_basis, _ = derivation_algebra(mu)
    # <M, D'> = tr(M D'^*) for every basis derivation D' at once
    pairs = np.abs(np.einsum("kij,ij->k", der_basis.conj(), big_m))
    return float(np.max(pairs, initial=0.0)) / max(float(np.linalg.norm(big_m)), 1e-300)


@dataclass(frozen=True)
class SolitonType:
    """Exact stratum label beta, ascending with trace -1, and its type (d_1 < ... < d_r; m_1, ..., m_r).

    The m_i count the distinct eigenvalues b_i of beta, and the coprime
    integers d_i are proportional to b_i + ||beta||^2.
    """

    beta: tuple[Fraction, ...]          # ascending eigenvalues of m, with multiplicity

    def __post_init__(self):
        if sum(self.beta, Fraction(0)) != -1:
            raise ValueError(f"beta must have trace -1, got {self.beta}")
        if list(self.beta) != sorted(self.beta):
            raise ValueError("beta must be sorted ascending")

    @property
    def energy(self) -> Fraction:
        return sum((b * b for b in self.beta), Fraction(0))

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(list(run)) for _, run in groupby(self.beta))

    @property
    def degrees(self) -> tuple[int, ...]:
        energy = self.energy
        shifted = [b + energy for b, _ in groupby(self.beta)]
        den = lcm(*(f.denominator for f in shifted))
        ints = [int(f * den) for f in shifted]
        g = gcd(*ints) or 1
        return tuple(v // g for v in ints)

    @property
    def dim(self) -> int:
        return len(self.beta)

    def beta_diagonal(self) -> list[Fraction]:
        return list(self.beta)

    def __str__(self):
        degs = "<".join(str(d) for d in self.degrees)
        mults = ",".join(str(m) for m in self.multiplicities)
        return f"({degs};{mults})"

    def to_json_dict(self) -> dict:
        return {
            "type": str(self),
            "degrees": list(self.degrees),
            "multiplicities": list(self.multiplicities),
            "beta": [format_fraction(b) for b in self.beta],
            "energy": format_fraction(self.energy),
        }


def soliton_type(mu: StructureTensor, tol: float = SOLITON_TOL) -> SolitonType:
    """Type of a soliton: its exact beta, rescaled to coprime integers.

    In an eigenbasis of m the min-norm point of the support weights is
    exactly diag(m) = beta, so beta is Wolfe's point re-solved in rationals
    over its active set and checked against the KKT conditions in integers
    (weights.exact_beta).  The support is cut at the residual gate tol: at
    residual r, a coefficient whose weight is off the plane
    <alpha, beta> = ||beta||^2 is O(r).
    The eigenvalues lambda of m do not choose beta; they certify it by the
    snap distance max_i |lambda_i - beta_i| <= SNAP_DISTANCE, and
    ||lambda - beta||^2 <= E - ||beta||^2 because <lambda, beta> >=
    ||beta||^2.  No denominator is capped.  Raises ValueError when mu fails
    the soliton criterion at tol and RationalSnapError when no exact beta is
    certified.
    """
    report = soliton_check(mu, tol)
    if not report.is_soliton:
        raise ValueError(
            f"not a soliton at tolerance {tol:g} (residual {report.soliton_residual:.3e})"
        )
    evals, vecs = np.linalg.eigh(report.m)
    rotated = StructureTensor(_unitary_act_table(mu.table / mu.norm, vecs.conj().T))  # m = diag(evals)
    vectors = [w.diagonal for w in support_weights(rotated, max(SUPPORT_TOL, tol))]
    return SolitonType(tuple(sorted(exact_beta(vectors, min_norm_point(vectors), evals))))


def sl_residual(mu: StructureTensor) -> float:
    """||m + I/n||; vanishes exactly on the traceless-moment (semisimple) locus."""
    m = moment_map(mu)
    return float(np.linalg.norm(m + np.eye(mu.dim) / mu.dim))

"""Support weights of a structure tensor and Wolfe's minimum-norm point over them.

Every stored coefficient mu_ij^k contributes the integer diagonal weight
alpha_ij^k = -e_i - e_j + e_k.  The minimum-norm point of the convex hull
of the supported weights is beta_mu; its KKT certificate
<beta, alpha> >= ||beta||^2 (with equality on the active support) is exactly
the W_beta membership test.  This module sits below the flow, which reads
||beta||^2 in an eigenbasis of the moment matrix as a lower bound on the
stratum energy, and below the stratification built on the flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StructureTensor

__all__ = ["WeightVector", "MinNormPoint", "support_weights", "min_norm_point", "certificate_gap"]

SUPPORT_TOL = 1e-10   # a coefficient is supported above this fraction of the largest one


@dataclass(frozen=True)
class WeightVector:
    """Diagonal of alpha_ij^k = -E_ii - E_jj + E_kk, with the coefficient slots that produce it."""

    diagonal: tuple[int, ...]
    triples: tuple[tuple[int, int, int], ...]   # 1-based (i, j, k), i <= j

    def __post_init__(self):
        if sum(self.diagonal) != -1:
            raise ValueError(f"weight diagonal must sum to -1, got {self.diagonal}")

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.diagonal, dtype=float)


def support_weights(mu: StructureTensor, tol: float = SUPPORT_TOL) -> list[WeightVector]:
    """Distinct weight vectors of the coefficients with |mu_ij^k| > tol * max|coeff|."""
    mx = float(np.max(np.abs(mu.table)))
    if mx == 0.0:
        raise ValueError("the zero tensor has empty support")
    seen: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for i, j, k, _ in mu.products(tol=tol * mx):
        diag = [0] * mu.dim
        diag[i - 1] -= 1
        diag[j - 1] -= 1
        diag[k - 1] += 1
        seen.setdefault(tuple(diag), []).append((i, j, k))
    return [WeightVector(diag, tuple(triples)) for diag, triples in sorted(seen.items())]


@dataclass(frozen=True)
class MinNormPoint:
    point: np.ndarray
    coefficients: np.ndarray    # barycentric over the input list, zero off the active set
    certificate_gap: float      # min_v <point, v> - ||point||^2, >= -tol at optimality
    major_cycles: int


def certificate_gap(point: np.ndarray, vectors) -> float:
    arr = np.asarray(vectors, dtype=float)
    return float(np.min(arr @ point) - point @ point)


def min_norm_point(vectors, improve_tol: float = 1e-14, max_major: int = 1000) -> MinNormPoint:
    """Wolfe's minimum-norm-point algorithm over conv(vectors).

    Affine-hull subproblems are solved by least squares at double precision;
    the major cycle stops when no vertex improves ||x||^2 by more than
    improve_tol.  Invariant under duplication and reordering of the input.
    """
    pts = np.asarray(vectors, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a non-empty list of equal-length vectors")
    count = pts.shape[0]
    active = [int(np.argmin(np.einsum("ij,ij->i", pts, pts)))]
    lam = np.array([1.0])
    x = pts[active[0]].copy()
    majors = 0
    for majors in range(1, max_major + 1):
        dots = pts @ x
        j = int(np.argmin(dots))
        if dots[j] >= float(x @ x) - improve_tol or j in active:
            majors -= 1
            break
        active.append(j)
        lam = np.append(lam, 0.0)
        while True:
            k = len(active)
            gram = pts[active] @ pts[active].T
            system = np.zeros((k + 1, k + 1))
            system[:k, :k] = gram
            system[:k, k] = 1.0
            system[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            alpha = sol[:k]
            if np.all(alpha > 1e-12):
                x = pts[active].T @ alpha
                lam = alpha
                break
            # line search from lam toward alpha, staying in the simplex
            neg = alpha <= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = lam[neg] / (lam[neg] - alpha[neg])
            finite = ratios[np.isfinite(ratios)]
            theta = float(np.min(finite)) if finite.size else 0.0
            lam = theta * alpha + (1.0 - theta) * lam
            lam[lam < 1e-12] = 0.0
            x = pts[active].T @ lam
            keep = lam > 0.0
            if not np.any(keep):
                keep[int(np.argmax(alpha))] = True
                lam[keep] = 1.0
            active = [active[i] for i in range(k) if keep[i]]
            lam = lam[keep]
    else:
        raise RuntimeError(f"min-norm point did not converge in {max_major} major cycles")
    coeffs = np.zeros(count)
    for i, idx in enumerate(active):
        coeffs[idx] += lam[i]
    return MinNormPoint(
        point=x,
        coefficients=coeffs,
        certificate_gap=certificate_gap(x, pts),
        major_cycles=majors,
    )

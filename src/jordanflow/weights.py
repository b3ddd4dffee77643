"""Support weights of a structure tensor and Wolfe's minimum-norm point over them.

Every stored coefficient mu_ij^k contributes the integer diagonal weight
alpha_ij^k = -e_i - e_j + e_k.  The minimum-norm point of the convex hull
of the supported weights is beta_mu; its KKT certificate
<beta, alpha> >= ||beta||^2 (with equality on the active support) is exactly
the W_beta membership test.  This module sits below the flow, which reads
||beta||^2 in an eigenbasis of the moment matrix as a lower bound on the
stratum energy, and below the stratification built on the flow.

Wolfe's active set also fixes beta exactly: exact_min_norm_point re-solves
it in rationals and checks the KKT conditions, and degeneration_witness
turns it into an integer one-parameter subgroup that degenerates the tensor
to the coefficients of that face.

By Kirwan-Ness all of this depends on the support mask alone, so one Face
per mask carries it: Wolfe's result, the bound, the active face and its
witness, and the exact label, accepted once it lies within SNAP_DISTANCE
of the float spectrum it names.  support_face keeps the Faces for the whole
process, in an LRU cache of MASK_MEMO_SIZE masks, so the flow, soliton_type
and beta_mu share one solve on a shared mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor, gcd, lcm

import numpy as np

from .algebra import StructureTensor
from .snap import RationalSnapError, format_fraction

__all__ = ["WeightVector", "MinNormPoint", "Face", "support_weights", "support_face", "min_norm_point",
           "certificate_gap", "exact_min_norm_point", "degeneration_witness"]

SUPPORT_TOL = 1e-10   # a coefficient is supported above this fraction of the largest one
# largest accepted max_i |lambda_i - beta_i| between an exact beta and the
# float spectrum it labels; plateau-stopped flow terminals sit up to ~3e-5 off
SNAP_DISTANCE = 1e-4
IMPROVE_TOL = 1e-14   # Wolfe stops once no vertex improves ||x||^2 by more than this
MAX_MAJOR = 1000      # Wolfe's major-cycle budget
# support masks whose Faces are kept for the whole process.  A benchmark run
# (seed 0) meets 93 masks in the first `flows` round, 142 by the third and
# 216 by the twelfth, so the cache does not evict there; `classify` meets 77,
# 112 and 218
MASK_MEMO_SIZE = 256


@dataclass(frozen=True)
class WeightVector:
    """Diagonal of alpha_ij^k = -E_ii - E_jj + E_kk, with the coefficient slots that produce it."""

    diagonal: tuple[int, ...]
    triples: tuple[tuple[int, int, int], ...]   # 1-based (i, j, k), i <= j

    def __post_init__(self):
        if sum(self.diagonal) != -1:
            raise ValueError(f"weight diagonal must sum to -1, got {self.diagonal}")


def support_weights(mu: StructureTensor, tol: float = SUPPORT_TOL) -> list[WeightVector]:
    """Distinct weight vectors of the coefficients with |mu_ij^k| > tol * max|coeff|."""
    return _mask_weights(support_mask(mu.table, tol))


def support_mask(table: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """The coefficients of an (n, n, n) table with |coeff| > tol * max|coeff|."""
    mags = np.abs(table)
    mx = float(np.max(mags))
    if mx == 0.0:
        raise ValueError("the zero tensor has empty support")
    return mags > tol * mx


def _mask_weights(support: np.ndarray) -> list[WeightVector]:
    """Distinct weight vectors of the slots (i, j, k), i <= j, of an (n, n, n) support mask.

    The mask is read on the i <= j triangle only, so it should be symmetric
    in its first two axes.  Weights come sorted by diagonal, each with its
    slots in (i, j, k) order.
    """
    n = support.shape[0]
    seen: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for i, j, k in np.argwhere(support).tolist():
        if i <= j:
            diag = [0] * n
            diag[i] -= 1
            diag[j] -= 1
            diag[k] += 1
            seen.setdefault(tuple(diag), []).append((i + 1, j + 1, k + 1))
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


def min_norm_point(vectors) -> MinNormPoint:
    """Wolfe's minimum-norm-point algorithm over conv(vectors).

    Affine-hull subproblems are solved by least squares at double precision;
    the major cycle stops when no vertex improves ||x||^2 by more than
    IMPROVE_TOL.  Invariant under duplication and reordering of the input.
    """
    pts = np.asarray(vectors, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a non-empty list of equal-length vectors")
    count = pts.shape[0]
    active = [int(np.argmin(np.einsum("ij,ij->i", pts, pts)))]
    lam = np.array([1.0])
    x = pts[active[0]].copy()
    majors = 0
    for majors in range(1, MAX_MAJOR + 1):
        dots = pts @ x
        j = int(np.argmin(dots))
        if dots[j] >= float(x @ x) - IMPROVE_TOL or j in active:
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
        raise RuntimeError(f"min-norm point did not converge in {MAX_MAJOR} major cycles")
    coeffs = np.zeros(count)
    for i, idx in enumerate(active):
        coeffs[idx] += lam[i]
    return MinNormPoint(
        point=x,
        coefficients=coeffs,
        certificate_gap=certificate_gap(x, pts),
        major_cycles=majors,
    )


# --- exact arithmetic over Wolfe's active set --------------------------------


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _rref(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of rational rows.

    Each row is first scaled to integers; every reduced row is an integer
    multiple of the reduced row echelon form's.  Returns the rows and their
    pivot columns.
    """
    ints = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (den // x.denominator) for x in row])
    pivots: list[int] = []
    for col in range(len(ints[0])):
        r = len(pivots)
        pivot = next((p for p in range(r, len(ints)) if ints[p][col]), None)
        if pivot is None:
            continue
        ints[r], ints[pivot] = ints[pivot], ints[r]
        head = ints[r]
        for p, row in enumerate(ints):
            if p != r and row[col]:
                row = [head[col] * x - row[col] * y for x, y in zip(row, head)]
                g = gcd(*row) or 1
                ints[p] = [x // g for x in row]
        pivots.append(col)
    return ints, pivots


def _solve(rows, rhs) -> list[Fraction] | None:
    """The solution of a square rational system, exactly; None when the matrix is singular."""
    size = len(rows)
    reduced, pivots = _rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots[:size] != list(range(size)):
        return None
    return [Fraction(row[size], row[i]) for i, row in enumerate(reduced[:size])]


def _affine_min_norm(vectors) -> tuple[list[Fraction], list[Fraction]]:
    """Least-norm point of the affine hull of vectors and affine coefficients for it, exactly.

    The bordered Gram system [G 1; 1^T 0] (lam, r) = (0, 1) is singular
    exactly when the vectors are affinely dependent.  They are then cut,
    Caratheodory style, to an independent subset with the same affine hull:
    along an exact affine dependence, Wolfe's float barycentric coefficients
    move until one reaches zero, and that vector is dropped, so the point
    they represent stays inside the hull of the kept ones.  Dropped vectors
    get coefficient 0.
    """
    k, dim = len(vectors), len(vectors[0])
    kept = list(range(k))
    guide = None
    while True:
        face = [vectors[i] for i in kept]
        sol = _solve([[_dot(u, v) for v in face] + [1] for u in face] + [[1] * len(face) + [0]],
                     [0] * len(face) + [1])
        if sol is not None:
            break
        # a dependence (sum c = 0, sum c_i v_i = 0) from the first free column of the columns (v_i, 1)
        reduced, pivots = _rref([[v[row] for v in face] for row in range(dim)] + [[1] * len(face)])
        free = next(col for col in range(len(face)) if col not in pivots)
        dep = [Fraction(0)] * len(face)
        dep[free] = Fraction(1)
        for row, col in enumerate(pivots):
            dep[col] = -Fraction(reduced[row][free], reduced[row][col])
        if guide is None:
            guide = min_norm_point([[float(x) for x in v] for v in vectors]).coefficients
        # sum(dep) = 0, so dep has a positive entry
        step, drop = min((guide[i] / float(c), pos) for pos, (i, c) in enumerate(zip(kept, dep)) if c > 0)
        for i, c in zip(kept, dep):
            guide[i] -= step * float(c)
        del kept[drop]
    lam = [Fraction(0)] * k
    for i, c in zip(kept, sol):
        lam[i] = c
    den = lcm(*(c.denominator for c in lam))
    nums = [c.numerator * (den // c.denominator) for c in lam]
    return [Fraction(sum(c * v[i] for c, v in zip(nums, vectors)), den) for i in range(dim)], lam


def exact_min_norm_point(vectors, active) -> tuple[Fraction, ...] | None:
    """The min-norm point of conv(vectors) solved exactly over Wolfe's active set.

    vectors are integer tuples and active the indices Wolfe kept with
    positive weight, affinely independent or not.  The bordered system puts
    <beta, v> = ||beta||^2 on every active v; the result is returned only
    when it is also certified as the min-norm point: its barycentric
    coefficients over active are non-negative and <beta, v> >= ||beta||^2
    holds for every vector, checked in integers on den * beta.  None
    otherwise (a float active set that is not the optimal one).
    """
    beta, lam = _affine_min_norm([vectors[i] for i in active])
    den = lcm(*(b.denominator for b in beta))
    scaled = [b.numerator * (den // b.denominator) for b in beta]
    norm = _dot(scaled, scaled)
    if min(lam) < 0 or any(den * _dot(v, scaled) < norm for v in vectors):
        return None
    return tuple(beta)


def degeneration_witness(vectors, active, beta) -> tuple[int, ...] | None:
    """Integer a with <a, v> = 0 on the active weights and <a, v> > 0 on all others.

    vectors are weight diagonals (each sums to -1), active Wolfe's active
    set and beta its exact min-norm point.  The basis change diag(s^a)
    scales the coefficient of weight v by s^{<a, v>}, so as s -> 0 it
    degenerates the tensor to its coefficients on the active weights.  The
    construction: a0, the min-norm point of the other weights on the
    hyperplane <v, beta> = ||beta||^2 projected off span(active), separates
    them; adding N (beta + ||beta||^2 1), which vanishes on that hyperplane
    and is positive off it, separates the rest.  The result is verified in
    integers.  When the active set is smaller than the minimal face that
    contains beta (affinely dependent weights), no such a exists and the
    answer is None.
    """
    norm = _dot(beta, beta)
    face = [vectors[i] for i in active]
    kept = set(active)
    others = [v for i, v in enumerate(vectors) if i not in kept]
    plane = [v for v in others if _dot(v, beta) == norm]
    a0 = [Fraction(0)] * len(beta)
    if plane:
        gram = [[Fraction(_dot(u, w)) for w in face] for u in face]
        projected = []
        for v in plane:
            coef = _solve(gram, [Fraction(_dot(u, v)) for u in face])
            if coef is None:
                return None
            projected.append([x - sum((c * u[i] for c, u in zip(coef, face)), Fraction(0))
                              for i, x in enumerate(v)])
        inner = min_norm_point([[float(x) for x in p] for p in projected])
        corral = [projected[i] for i in np.flatnonzero(inner.coefficients)]
        a0 = _affine_min_norm(corral)[0]
    shift = [b + norm for b in beta]   # <shift, v> = <beta, v> - ||beta||^2 when sum(v) = -1
    ratios = [-_dot(a0, v) / _dot(shift, v) for v in others if _dot(shift, v) > 0]
    scale = max(floor(max(ratios, default=0)) + 1, 1)
    a = [x + scale * s for x, s in zip(a0, shift)]
    den = lcm(*(x.denominator for x in a))
    exponents = tuple(int(x * den) for x in a)
    if any(_dot(exponents, v) != 0 for v in face) or any(_dot(exponents, v) <= 0 for v in others):
        return None
    return exponents


# --- one Wolfe solve per support mask -----------------------------------------


def _unpack(mask: bytes, n: int) -> list[WeightVector]:
    """The support weights of the (n, n, n) support mask whose bytes are mask."""
    return _mask_weights(np.frombuffer(mask, dtype=bool).reshape(n, n, n))


@dataclass(frozen=True)
class Face:
    """Wolfe's solve over the weights of one support mask, and what it decides.

    The flow reads bound and, above the floor, either keep (the coefficients
    of the active weights) and exponents (their witness), or, when every
    weight is active, slots and balancer (the torus move onto beta); the
    labels read label.  A Face is built from the mask, n and Wolfe's result
    alone: the weights are rebuilt from the mask when a derived value is
    first worked out, and every derived value is kept once known.
    """

    mask: bytes
    n: int
    result: MinNormPoint

    @cached_property
    def active(self) -> list[int]:
        """Indices of the weights that carry positive weight in Wolfe's result."""
        return [int(i) for i in np.flatnonzero(self.result.coefficients)]

    @cached_property
    def bound(self) -> float:
        """||beta||^2 of Wolfe's float point."""
        return float(self.result.point @ self.result.point)

    @cached_property
    def beta(self) -> tuple[Fraction, ...] | None:
        """Wolfe's point re-solved exactly over its active set; None when the exact KKT check fails."""
        return exact_min_norm_point([w.diagonal for w in _unpack(self.mask, self.n)], self.active)

    @cached_property
    def slots(self) -> np.ndarray:
        """(n, n, n) array of the index of each supported coefficient's weight, -1 off the support."""
        slots = np.full((self.n,) * 3, -1)
        for idx, weight in enumerate(_unpack(self.mask, self.n)):
            for i, j, k in weight.triples:
                slots[i - 1, j - 1, k - 1] = slots[j - 1, i - 1, k - 1] = idx
        return slots

    @cached_property
    def keep(self) -> np.ndarray:
        """The (n, n, n) coefficient mask of the active weights."""
        return np.isin(self.slots, self.active)

    @cached_property
    def balancer(self) -> np.ndarray:
        """Pseudo-inverse of [2A | 1], A the support weights as rows.

        diag(e^u) scales a coefficient of weight alpha by e^{<u, alpha>}, and
        so the mass p_a on the coefficients of weight alpha_a by
        e^{2 <u, alpha_a>}.  (u, c) = balancer @ (log w - log p) solves
        2 <u, alpha_a> + c = log w_a - log p_a, exactly when the weights are
        affinely independent, and in least squares otherwise.
        """
        weights = np.array([w.diagonal for w in _unpack(self.mask, self.n)], dtype=float)
        return np.linalg.pinv(np.hstack([2.0 * weights, np.ones((len(weights), 1))]))

    @cached_property
    def exponents(self) -> tuple[int, ...] | None:
        """Integer a, checked exactly, that degenerates the support to keep; None when none exists."""
        if self.beta is None:
            return None
        return degeneration_witness([w.diagonal for w in _unpack(self.mask, self.n)], self.active, self.beta)

    def label(self, floats) -> tuple[Fraction, ...]:
        """The exact beta, ascending, certified by its snap distance to the float spectrum floats.

        floats are read in the coordinates of the mask.  Raises
        RationalSnapError when the exact KKT check failed or some
        |beta_i - floats_i| exceeds SNAP_DISTANCE.
        """
        beta = self.beta
        if beta is None:
            raise RationalSnapError("Wolfe's active set fails the exact KKT check")
        distance = max(abs(float(b) - float(x)) for b, x in zip(beta, floats))
        if distance > SNAP_DISTANCE:
            raise RationalSnapError(
                f"exact beta ({', '.join(map(format_fraction, beta))}) lies {distance:.3e} from the "
                f"float spectrum, more than {SNAP_DISTANCE:g}"
            )
        return tuple(sorted(beta))


def support_face(table: np.ndarray, tol: float = SUPPORT_TOL) -> Face:
    """The Face of the support of an (n, n, n) table cut at tol (support_mask), memoized per mask."""
    return _mask_face(support_mask(table, tol).tobytes(), table.shape[0])


@lru_cache(maxsize=MASK_MEMO_SIZE)
def _mask_face(mask: bytes, n: int) -> Face:
    return Face(mask, n, min_norm_point([w.diagonal for w in _unpack(mask, n)]))

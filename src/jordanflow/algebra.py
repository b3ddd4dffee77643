"""Structure tensors of commutative complex algebras and their classical invariants.

A commutative multiplication on C^n is stored as a dense complex array
``table`` of shape (n, n, n), symmetric in the first two axes:
``table[i, j, k]`` is the coefficient of e_k in the product e_i * e_j.
The squared Frobenius norm sums |coefficient|^2 over all *ordered* pairs
(i, j), so an off-diagonal product counts twice.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Iterator, Mapping

import numpy as np

RANK_TOL = 1e-8        # relative singular-value cutoff for all rank decisions
# Largest dim a tensor document may declare.  The rank kernels build an
# (n^3, n^2) complex matrix: 16 MB at n = 16, 512 MB at n = 32.
MAX_DOCUMENT_DIM = 16
# A nonzero tensor document's largest |re| or |im| must lie in
# [1 / MAX_COEFFICIENT_SCALE, MAX_COEFFICIENT_SCALE].  Across that range, at
# n <= MAX_DOCUMENT_DIM, ||t||^4, ||M||^2 and the squared norms of the cubic
# residuals (D.t, the Jordan defect) are normal float64 numbers.  At 1e60 the
# residual norms of a non-soliton overflow to inf, and at 1e-60 they underflow
# to 0, which reads as a soliton.
MAX_COEFFICIENT_SCALE = 1e40
SPLIT_TOL = 1e-7       # is_decomposable: residual bound on a candidate splitting projection
SPLIT_TRIES = 8        # is_decomposable: random centroid elements tried

__all__ = [
    "StructureTensor",
    "Subspace",
    "evaluate",
    "left_mult",
    "jordan_defect",
    "is_jordan",
    "associator_defect",
    "is_associative",
    "trace_form",
    "radical",
    "is_semisimple",
    "derivation_algebra",
    "annihilator",
    "power_dims",
    "product_rank",
    "is_nilpotent",
    "act",
    "inf_act",
    "direct_product",
    "soliton_product",
    "unit_element",
    "has_unit",
    "adjoin_unit",
    "soliton_unitalize",
    "centroid",
    "is_decomposable",
    "is_simple",
    "tensor_inner",
    "load_tensor",
    "dump_tensor",
]


@dataclass(frozen=True, eq=False)
class StructureTensor:
    """Immutable commutative multiplication mu on C^n, mu(e_i, e_j) = sum_k table[i,j,k] e_k.

    Each tolerance-free kernel runs at most once per tensor and keeps its
    result on it (_stored): the soliton data (M, c, E and ||D.mu||), the
    derivation algebra, the centroid, the radical, the power chain, the
    associator and Jordan defects and the least-squares unit with its
    residual.  The table is a private copy made read-only here, so a stored
    result cannot go stale; stored arrays are read-only too, and the public
    functions hand out writable copies.  Functions that take a tolerance
    apply it to the stored value on every call.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=complex)
        if t.ndim != 3 or len(set(t.shape)) != 1 or t.shape[0] == 0:
            raise ValueError(f"structure tensor needs shape (n, n, n) with n >= 1, got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("structure tensor has non-finite coefficients")
        # the roundoff of a basis change grows with the coefficients, so the bound scales with them
        scale = max(1.0, float(np.max(np.abs(t))))
        if np.max(np.abs(t - np.swapaxes(t, 0, 1))) > 1e-12 * scale:
            raise ValueError("structure tensor must be symmetric in its first two indices")
        t = 0.5 * (t + np.swapaxes(t, 0, 1))
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @classmethod
    def from_products(cls, dim: int, products: Mapping[tuple[int, int, int], complex]) -> "StructureTensor":
        """Build from 1-based sparse coefficients {(i, j, k): c} with i <= j."""
        t = np.zeros((dim, dim, dim), dtype=complex)
        for (i, j, k), c in products.items():
            if not (1 <= i <= j <= dim and 1 <= k <= dim):
                raise ValueError(f"bad product index (i={i}, j={j}, k={k}) for dim {dim}: need 1 <= i <= j <= n, 1 <= k <= n")
            t[i - 1, j - 1, k - 1] = c
            t[j - 1, i - 1, k - 1] = c
        return cls(t)

    @classmethod
    def zero(cls, dim: int) -> "StructureTensor":
        return cls(np.zeros((dim, dim, dim), dtype=complex))

    @property
    def dim(self) -> int:
        return self.table.shape[0]

    @cached_property
    def norm_sq(self) -> float:
        """Read once per tensor: the table is read-only."""
        return float(np.sum(np.abs(self.table) ** 2))

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def is_zero(self) -> bool:
        return self.norm == 0.0

    def products(self, tol: float = 0.0) -> Iterator[tuple[int, int, int, complex]]:
        """Yield 1-based (i, j, k, coefficient) over the i <= j triangle, |coeff| > tol."""
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    c = self.table[i, j, k]
                    if abs(c) > tol:
                        yield i + 1, j + 1, k + 1, complex(c)

    def scaled(self, c: complex) -> "StructureTensor":
        return StructureTensor(c * self.table)

    def normalized(self) -> "StructureTensor":
        nrm = self.norm
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero tensor")
        return StructureTensor(self.table / nrm)

    def allclose(self, other: "StructureTensor", atol: float = 1e-10) -> bool:
        return self.dim == other.dim and bool(np.allclose(self.table, other.table, atol=atol, rtol=0.0))

    def __repr__(self):
        prods = ", ".join(f"({i},{j}->{k}): {c:.6g}" for i, j, k, c in self.products())
        return f"StructureTensor(dim={self.dim}, {{{prods}}})"


@dataclass(frozen=True)
class Subspace:
    """Subspace of C^n given by orthonormal basis rows; gap_ratio reports how clean the rank cut was."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)  # (dim, ambient_dim), orthonormal rows
    gap_ratio: float = math.inf

    def __post_init__(self):
        k = self.basis.shape[0]
        if k:
            # np.allclose(gram, I, atol=1e-10)'s test, without its overhead: |G - I| <= 1e-10 + 1e-5 |I|
            eye = np.eye(k)
            if not np.all(np.abs(self.basis @ self.basis.conj().T - eye) <= 1e-10 + 1e-5 * eye):
                raise ValueError("subspace basis must be orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        v = np.asarray(v, dtype=complex)
        resid = v - self.basis.conj().T @ (self.basis @ v) if self.dim else v
        return float(np.linalg.norm(resid)) <= tol * max(1.0, float(np.linalg.norm(v)))


def _stored(kernel):
    """Keep kernel(mu) in mu.__dict__, the slot where cached_property keeps norm_sq.

    The result lives and dies with its tensor; an exception is not kept.
    """
    key = kernel.__name__

    @wraps(kernel)
    def read(mu: StructureTensor):
        try:
            return mu.__dict__[key]
        except KeyError:
            value = mu.__dict__[key] = kernel(mu)
            return value

    return read


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_vector(mu: StructureTensor, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (mu.dim,):
        raise ValueError(f"expected vector of length {mu.dim}, got shape {x.shape}")
    return x


def evaluate(mu: StructureTensor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mu(x, y), bilinear and symmetric."""
    x = _check_vector(mu, x)
    y = _check_vector(mu, y)
    return np.einsum("ijk,i,j->k", mu.table, x, y)


def left_mult(mu: StructureTensor, x: np.ndarray) -> np.ndarray:
    """Left multiplication L_x; column j is mu(x, e_j)."""
    x = _check_vector(mu, x)
    return np.einsum("ijk,i->kj", mu.table, x)


def tensor_inner(a: StructureTensor, b: StructureTensor) -> complex:
    """Hermitian product <a, b> on tensors, antilinear in the second slot."""
    return complex(np.sum(a.table * b.table.conj()))


# ---------------------------------------------------------------------------
# identities


def _associator_table(t: np.ndarray) -> np.ndarray:
    """assoc[p, q, r, k] = ((e_p e_q) e_r - e_p (e_q e_r))_k of a symmetric table.

    Both terms are entries of one (n^2, n^2) product: with
    prod[(x, y), (z, k)] = sum_m t[x, y, m] t[m, z, k], the first is
    prod[(p, q), (r, k)] and the second, by t[p, m, k] = t[m, p, k],
    prod[(q, r), (p, k)].
    """
    n = t.shape[0]
    prod = (t.reshape(n * n, n) @ t.reshape(n, n * n)).reshape(n, n, n, n)
    return prod - prod.transpose(2, 0, 1, 3)


def _worst_row(table: np.ndarray) -> float:
    """Largest Euclidean norm over the last axis."""
    return float(np.sqrt(np.max(np.sum(np.abs(table) ** 2, axis=-1))))


@_stored
def jordan_defect(mu: StructureTensor) -> float:
    """Worst violation of (ab,c,d) + (bd,c,a) + (da,c,b) = 0 over basis quadruples.

    (x,y,z) = (xy)z - x(yz).  Zero exactly on Jordan multiplications; by
    multilinearity the basis scan is equivalent to the full identity.  The
    three terms are the cyclic permutations of (a, b, d) in one product
    prod[c, a, b, d, k] = sum_m t[a, b, m] assoc[m, c, d, k], formed as n
    (n^2, n) @ (n, n^2) matmuls, one per c.  The split keeps each product
    below BLAS's threading threshold: spread over threads, a single
    (n^2, n) @ (n, n^4) product at n = 7 or 8 is slower than the four
    einsums it replaces.
    """
    t = mu.table
    n = mu.dim
    per_c = _associator_table(t).reshape(n, n, n * n).transpose(1, 0, 2)   # [c, m, (d, k)]
    prod = (t.reshape(n * n, n) @ per_c).reshape(n, n, n, n, n)
    return _worst_row(prod + prod.transpose(0, 3, 1, 2, 4) + prod.transpose(0, 2, 3, 1, 4))


def is_jordan(mu: StructureTensor, tol: float = 1e-9) -> bool:
    return jordan_defect(mu) <= tol


@_stored
def associator_defect(mu: StructureTensor) -> float:
    """Worst associator norm ||(e_i e_j) e_k - e_i (e_j e_k)|| over basis triples."""
    return _worst_row(_associator_table(mu.table))


def is_associative(mu: StructureTensor, tol: float = 1e-9) -> bool:
    return associator_defect(mu) <= tol


# ---------------------------------------------------------------------------
# rank-revealing kernels


def _rank_split(mat: np.ndarray, floor: float = 0.0) -> tuple[int, np.ndarray, float]:
    """Numerical rank of mat, its right singular vectors vh and the singular-value gap ratio at the cut.

    vh[:rank] spans the row space and vh[rank:].conj() the nullspace.  A wide
    matrix gets its full V, so its nullspace survives; a tall or square one
    gets the thin SVD, which already holds all of V.  At rank 0 vh is the
    identity.  floor gives the natural magnitude of the map; without it a
    matrix that is mathematically zero but numerically ~1e-16 would be
    ranked against its own roundoff and come out nonzero.
    """
    cols = mat.shape[1]
    if mat.size == 0:
        return 0, np.eye(cols, dtype=complex), math.inf
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < cols)
    smax = s[0]
    cutoff = RANK_TOL * max(smax, floor)
    if smax <= cutoff:
        return 0, np.eye(cols, dtype=complex), math.inf
    rank = int(np.sum(s > cutoff))
    gap = float(s[rank - 1] / s[rank]) if rank < s.size and s[rank] > 0.0 else math.inf
    return rank, vh, gap


def _operator_matrix(t: np.ndarray, terms: int = 3) -> np.ndarray:
    """Matrix (n^3, n^2) of A -> A.t on the matrix units E_ab, column a*n + b.

    (E_ab.t)[i, j, c] = d_ca t[i, j, b] - d_ib t[a, j, c] - d_jb t[i, a, c];
    the first two terms alone (terms=2) give the centroid condition
    A t(x, y) - t(Ax, y).
    """
    n = t.shape[0]
    mat = np.zeros((n,) * 5, dtype=complex)   # [i, j, c, a, b]
    for x in range(n):
        mat[:, :, x, x, :] = t                         # c = a: t[i, j, b]
    for x in range(n):
        mat[x, :, :, :, x] -= t.transpose(1, 2, 0)     # i = b: t[a, j, c]
    if terms == 3:
        for x in range(n):
            mat[:, x, :, :, x] -= t.transpose(0, 2, 1)  # j = b: t[i, a, c]
    return mat.reshape(n**3, n * n)


def trace_form(mu: StructureTensor) -> np.ndarray:
    """tau[i, j] = Tr L_{mu(e_i, e_j)}; complex symmetric."""
    t = mu.table
    tr = np.einsum("mjj->m", t)
    return np.einsum("ijm,m->ij", t, tr)


@_stored
def radical(mu: StructureTensor) -> Subspace:
    """Kernel of the trace form (Albert's criterion: the maximal nilpotent ideal); the basis is read-only."""
    rank, vh, gap = _rank_split(trace_form(mu), floor=mu.norm_sq)
    return Subspace(mu.dim, _read_only(vh[rank:].conj()), gap)


def is_semisimple(mu: StructureTensor) -> bool:
    return radical(mu).dim == 0


def _operator_split(t: np.ndarray, terms: int, floor: float) -> tuple[int, np.ndarray, float]:
    """_rank_split of _operator_matrix(t, terms), read off its triangular R factor.

    The matrix is (n^3, n^2), and n^3 >= floor(17 n^2 / 9) for every n >= 1,
    which is where LAPACK's zgesdd QR-factors a tall input itself and takes
    the SVD of R.  Passing R gives the same s and vh, bit for bit, without
    forming the (n^3, n^2) U that nothing reads.  Shorter inputs (the n^2 x n
    power chain blocks) gain nothing from an explicit QR at small n.
    """
    return _rank_split(np.linalg.qr(_operator_matrix(t, terms), mode="r"), floor=floor)


def derivation_algebra(mu: StructureTensor) -> tuple[int, np.ndarray, float]:
    """Nullspace of A -> A.mu on n x n matrices.

    Returns (complex dimension, orthonormal basis of shape (dim, n, n), sv gap ratio).
    The split is read off the R factor of the (n^3, n^2) operator matrix
    (_operator_split), with the same s and vh as the SVD of the full matrix.
    """
    dim, basis, gap = _derivations(mu)
    return dim, basis.copy(), gap


@_stored
def _derivations(mu: StructureTensor) -> tuple[int, np.ndarray, float]:
    n = mu.dim
    rank, vh, gap = _operator_split(mu.table, 3, mu.norm)
    return n * n - rank, _read_only(vh[rank:].conj().reshape(-1, n, n)), gap


def annihilator(mu: StructureTensor) -> Subspace:
    """{x : L_x = 0}, the kernel of the stacked left-multiplication map."""
    n = mu.dim
    mat = np.transpose(mu.table, (2, 1, 0)).reshape(n * n, n)  # rows (k,j), cols i
    rank, vh, gap = _rank_split(mat, floor=mu.norm)
    return Subspace(n, vh[rank:].conj(), gap)


def power_dims(mu: StructureTensor) -> list[int]:
    """Dims of A^2 >= A^3 >= ... with A^{k} = span of mu(A^i, A^j), i+j=k; stops at 0 or when stable.

    mu is commutative, so mu(A^i, A^j) and mu(A^j, A^i) span the same
    space and only the blocks with i <= j are formed, each as two matmuls.
    """
    return list(_power_chain(mu))


@_stored
def _power_chain(mu: StructureTensor) -> tuple[int, ...]:
    n = mu.dim
    rows = mu.table.reshape(n, n * n)
    spaces = [np.eye(n, dtype=complex)]
    dims: list[int] = []
    while len(dims) <= n:  # the chain stabilizes within dim steps
        # A^{k+1} is spanned by mu(A^i, A^{k+1-i}), i <= k+1-i; spaces[i - 1] holds A^i
        half = (len(spaces) + 1) // 2
        blocks = [
            (v @ (u @ rows).reshape(-1, n, n)).reshape(-1, n)
            for u, v in zip(spaces[:half], spaces[::-1][:half])
        ]
        rank, vh, _ = _rank_split(np.concatenate(blocks), floor=mu.norm)
        if dims and rank == dims[-1]:
            break
        dims.append(rank)
        if rank == 0:
            break
        spaces.append(vh[:rank])
    return tuple(dims)


def product_rank(mu: StructureTensor) -> int:
    """dim mu(C^n, C^n) = dim A^2, the first level of the power chain (its block I . table[i] is the table)."""
    return power_dims(mu)[0]


def is_nilpotent(mu: StructureTensor) -> bool:
    return power_dims(mu)[-1] == 0


# ---------------------------------------------------------------------------
# group and infinitesimal actions
#
# The table kernels below work on raw (n, n, n) arrays, symmetric in their
# first two axes, and are the only implementations of the group action, the
# moment table, the infinitesimal action and the soliton data (c, E, D.t).
# Each is a few matmuls on reshaped views, O(n^4) work; numpy runs the
# four-operand einsum form of the group action as an O(n^6) loop nest.


def _act_table(t: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """out[a, b, c] = sum t[i, j, k] h[i, a] h[j, b] g[c, k], as three mode products."""
    n = t.shape[0]
    out = (h.T @ t.reshape(n, n * n)).reshape(n, n, n)  # first slot
    out = h.T @ out                                      # second slot, batched over the first
    return (out.reshape(n * n, n) @ g.T).reshape(n, n, n)  # output slot


def _unitary_act_table(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u . t for a unitary u (so h = u^*), made symmetric in the first two axes to the last bit."""
    out = _act_table(t, u.conj().T, u)
    return 0.5 * (out + np.swapaxes(out, 0, 1))


def _moment_table(t: np.ndarray) -> np.ndarray:
    """Hermitian M = -2 sum_i L_i^* L_i + sum_i L_i L_i^* of a symmetric table."""
    n = t.shape[0]
    rows = t.reshape(n, n * n)   # rows[a, (j, k)] = t[a, j, k] = t[j, a, k]
    cols = t.reshape(n * n, n)   # cols[(i, j), a] = t[i, j, a]
    m = -2.0 * (rows.conj() @ rows.T) + cols.T @ cols.conj()
    return 0.5 * (m + m.conj().T)


def _inf_act_table(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(A.t)[i, j, c] = sum_k a[c, k] t[i, j, k] - sum_l a[l, i] t[l, j, c] - sum_l a[l, j] t[i, l, c]."""
    n = t.shape[0]
    out = (t.reshape(n * n, n) @ a.T).reshape(n, n, n)
    out -= (a.T @ t.reshape(n, n * n)).reshape(n, n, n)
    out -= a.T @ t
    return out


def _soliton_table(t: np.ndarray) -> tuple[np.ndarray, float, float, np.ndarray]:
    """M, c = -||M||^2 / ||t||^2, E = ||M||^2 / ||t||^4 = -c / ||t||^2 and D.t with D = M - cI.

    grad E = 4 D.t / ||t||^4, so t is a soliton exactly when D.t = 0 (Ness 1984).
    """
    n2 = float(np.sum(np.abs(t) ** 2))
    if n2 == 0.0:
        raise ValueError("moment data is undefined for the zero tensor")
    big_m = _moment_table(t)
    m_sq = float(np.sum(np.abs(big_m) ** 2))
    c = -m_sq / n2
    return big_m, c, m_sq / n2**2, _inf_act_table(big_m - c * np.eye(t.shape[0]), t)


@_stored
def _soliton_data(mu: StructureTensor) -> tuple[np.ndarray, float, float, float]:
    """_soliton_table of mu with D.mu reduced to its norm: (M read-only, c, E, ||D.mu||)."""
    big_m, c, e, d_mu = _soliton_table(mu.table)
    return _read_only(big_m), c, e, float(np.linalg.norm(d_mu))


def act(g: np.ndarray, mu: StructureTensor) -> StructureTensor:
    """Basis-change action (g.mu)(a, b) = g(mu(g^{-1}a, g^{-1}b))."""
    g = np.asarray(g, dtype=complex)
    n = mu.dim
    if g.shape != (n, n):
        raise ValueError(f"group element must be {n}x{n}, got {g.shape}")
    h = np.linalg.inv(g)  # raises LinAlgError on singular g
    return StructureTensor(_act_table(mu.table, h, g))


def inf_act(a: np.ndarray, mu: StructureTensor) -> StructureTensor:
    """Differential of act: (A.mu)(x, y) = A(mu(x, y)) - mu(Ax, y) - mu(x, Ay)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (mu.dim, mu.dim):
        raise ValueError(f"matrix must be {mu.dim}x{mu.dim}, got {a.shape}")
    return StructureTensor(_inf_act_table(a, mu.table))


# ---------------------------------------------------------------------------
# constructions


def direct_product(mu: StructureTensor, nu: StructureTensor) -> StructureTensor:
    """Block direct sum on C^{n+m}."""
    n, m = mu.dim, nu.dim
    t = np.zeros((n + m,) * 3, dtype=complex)
    t[:n, :n, :n] = mu.table
    t[n:, n:, n:] = nu.table
    return StructureTensor(t)


def soliton_product(mu: StructureTensor, nu: StructureTensor) -> StructureTensor:
    """Direct product with the second factor rescaled by sqrt(c_mu / c_nu).

    When both factors are solitons the result is again a soliton.
    """
    scale = math.sqrt(_soliton_data(mu)[1] / _soliton_data(nu)[1])
    return direct_product(mu, nu.scaled(scale))


def unit_element(mu: StructureTensor, tol: float = 1e-9) -> np.ndarray | None:
    """Solve L_u = I by least squares; returns u, or None when the residual exceeds tol."""
    u, resid = _unit_solve(mu)
    return u.copy() if resid <= tol * math.sqrt(mu.dim) else None


def has_unit(mu: StructureTensor, tol: float = 1e-9) -> bool:
    return _unit_solve(mu)[1] <= tol * math.sqrt(mu.dim)


@_stored
def _unit_solve(mu: StructureTensor) -> tuple[np.ndarray, float]:
    """Least-squares u of L_u = I (read-only) and its residual ||L_u - I||."""
    n = mu.dim
    mat = np.transpose(mu.table, (2, 1, 0)).reshape(n * n, n)
    target = np.eye(n, dtype=complex).ravel()
    u, *_ = np.linalg.lstsq(mat, target, rcond=None)
    return _read_only(u), float(np.linalg.norm(mat @ u - target))


def adjoin_unit(mu: StructureTensor) -> StructureTensor:
    """Adjoin a unit element as the last basis vector; errors when mu is already unital."""
    if has_unit(mu):
        raise ValueError("algebra already has a unit element")
    n = mu.dim
    t = np.zeros((n + 1,) * 3, dtype=complex)
    t[:n, :n, :n] = mu.table
    for j in range(n):
        t[n, j, j] = 1.0
        t[j, n, j] = 1.0
    t[n, n, n] = 1.0
    return StructureTensor(t)


def soliton_unitalize(mu: StructureTensor) -> StructureTensor:
    """Unitalize sqrt(c)*mu with c = (2n+1)/(-c_mu), which maps solitons to solitons.

    Verifies the block shape of the resulting moment matrix:
    diag(M_{sqrt(c) mu}, -(2n+1)).
    """
    n = mu.dim
    c = (2 * n + 1) / (-_soliton_data(mu)[1])
    scaled = mu.scaled(math.sqrt(c))
    result = adjoin_unit(scaled)
    block = _moment_table(result.table)
    expected = np.zeros((n + 1, n + 1), dtype=complex)
    expected[:n, :n] = _moment_table(scaled.table)
    expected[n, n] = -(2 * n + 1)
    dev = float(np.max(np.abs(block - expected)))
    if dev > 1e-9 * max(1.0, float(np.max(np.abs(expected)))):
        raise ValueError(f"unitalized moment matrix is not block diagonal (deviation {dev:.3e})")
    return result


# ---------------------------------------------------------------------------
# centroid, decomposability, simplicity


def centroid(mu: StructureTensor) -> np.ndarray:
    """Orthonormal basis (k, n, n) of {T : T mu(x,y) = mu(Tx, y) for all x, y}.

    The nullspace of the two-term operator matrix, split through its R
    factor as in derivation_algebra.
    """
    return _centroid_basis(mu).copy()


@_stored
def _centroid_basis(mu: StructureTensor) -> np.ndarray:
    n = mu.dim
    rank, vh, _ = _operator_split(mu.table, 2, mu.norm)
    return _read_only(vh[rank:].conj().reshape(-1, n, n))


def _cluster_points(vals: np.ndarray, link_tol: float) -> list[np.ndarray]:
    """Single-linkage clusters of complex points at linking distance link_tol."""
    remaining = list(range(len(vals)))
    clusters = []
    while remaining:
        group = [remaining.pop()]
        grew = True
        while grew:
            grew = False
            for idx in remaining[:]:
                if any(abs(vals[idx] - vals[g]) <= link_tol for g in group):
                    group.append(idx)
                    remaining.remove(idx)
                    grew = True
        clusters.append(np.array([vals[g] for g in group]))
    return clusters


def _spectral_projector(r: np.ndarray, cluster: np.ndarray, others: np.ndarray) -> np.ndarray | None:
    """Resolvent contour integral around one eigenvalue cluster (robust to Jordan blocks)."""
    center = complex(np.mean(cluster))
    inner = float(np.max(np.abs(cluster - center)))
    outer = float(np.min(np.abs(others - center)))
    if outer <= 2 * inner + 1e-12:
        return None
    radius = 0.5 * (inner + outer)
    quad_points = 64
    offsets = radius * np.exp(2j * np.pi * (np.arange(quad_points) + 0.5) / quad_points)
    try:   # all 64 resolvents (z - r)^{-1} at once
        resolvents = np.linalg.inv((center + offsets)[:, None, None] * np.eye(r.shape[0]) - r)
    except np.linalg.LinAlgError:
        return None
    return np.einsum("q,qij->ij", offsets, resolvents) / quad_points


def is_decomposable(mu: StructureTensor) -> bool:
    """True when the algebra splits as a direct product of two nonzero ideals.

    A splitting exists iff the centroid contains a nontrivial idempotent.
    The eigenvalues of a generic centroid element separate the factors (the
    nilpotent part of the centroid does not move them); the spectral
    projection onto one cluster is verified to be idempotent, to lie in the
    centroid, and to kill cross products (each to SPLIT_TOL, relative)
    before the split is accepted.  SPLIT_TRIES draws of Gaussian
    coefficients are tried, from the standard library's ``random.Random(0)``:
    any such draw is generic with probability 1, and numpy.random is never
    loaded.
    """
    n = mu.dim
    if n <= 1:
        return False
    cent = _centroid_basis(mu)
    if cent.shape[0] <= 1:
        return False
    # Roundoff splits an eigenvalue with a k x k Jordan block into a ring of
    # radius ~ eps^(1/k); linking at the widest such ring (k = n) keeps a
    # defective eigenvalue in one cluster.
    link_tol = max(1e-6, 2.0 * (n * np.finfo(float).eps) ** (1.0 / n))
    rng = random.Random(0)
    for _ in range(SPLIT_TRIES):
        coeffs = np.array([rng.gauss(0.0, 1.0) for _ in range(cent.shape[0])])
        r = np.einsum("k,kij->ij", coeffs, cent)
        scale = max(1.0, float(np.max(np.abs(r))))
        clusters = _cluster_points(np.linalg.eigvals(r), link_tol=link_tol * scale)
        if len(clusters) < 2:
            continue
        clusters.sort(key=len)
        rest = np.concatenate(clusters[1:])
        proj = _spectral_projector(r, clusters[0], rest)
        if proj is None:
            continue
        pscale = max(1.0, float(np.max(np.abs(proj))))
        if float(np.max(np.abs(proj @ proj - proj))) > SPLIT_TOL * pscale:
            continue
        cross = np.einsum("ijk,ia,jb->abk", mu.table, proj, np.eye(n) - proj)
        if float(np.max(np.abs(cross))) > SPLIT_TOL * max(1.0, mu.norm):
            continue
        # membership in the centroid: T mu(x,y) - mu(Tx,y) = 0
        memb = np.einsum("ijk,ck->ijc", mu.table, proj) - np.einsum("ljc,li->ijc", mu.table, proj)
        if float(np.max(np.abs(memb))) > SPLIT_TOL * max(1.0, mu.norm):
            continue
        return True
    return False


def is_simple(mu: StructureTensor) -> bool:
    """Semisimple with a one-dimensional centroid (a single simple factor)."""
    if product_rank(mu) == 0:
        return False
    return is_semisimple(mu) and _centroid_basis(mu).shape[0] == 1


# ---------------------------------------------------------------------------
# JSON interchange format


def to_json_dict(mu: StructureTensor) -> dict:
    return {
        "dim": mu.dim,
        "products": [
            {"i": i, "j": j, "k": k, "re": c.real, "im": c.imag}
            for i, j, k, c in mu.products()
        ],
    }


def _json_number(value, integral: bool = False) -> float | int:
    """A JSON number field read strictly: no bool, no string, and no fraction where an integer is due."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not integral:
        return float(value)
    if not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def from_json_dict(data: dict) -> StructureTensor:
    """Parse a tensor document; dim above MAX_DOCUMENT_DIM is refused before anything is allocated,
    and a nonzero tensor whose coefficient scale is outside MAX_COEFFICIENT_SCALE before it is built."""
    try:
        dim = _json_number(data["dim"], integral=True)
        raw = data["products"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed tensor document: {exc!r}") from exc
    if not 1 <= dim <= MAX_DOCUMENT_DIM:
        raise ValueError(f"dim must be between 1 and {MAX_DOCUMENT_DIM}, got {dim}")
    if not isinstance(raw, list):
        raise ValueError(f"products must be a list, got {type(raw).__name__}")
    products: dict[tuple[int, int, int], complex] = {}
    for entry in raw:
        try:
            i, j, k = (_json_number(entry[key], integral=True) for key in "ijk")
            value = complex(_json_number(entry["re"]), _json_number(entry.get("im", 0.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed product entry {entry!r}: {exc!r}") from exc
        if i > j:
            raise ValueError(f"product entry has i > j (i={i}, j={j}): only the i <= j triangle is stored")
        if not (1 <= i and j <= dim and 1 <= k <= dim):
            raise ValueError(f"product index out of range: (i={i}, j={j}, k={k}) for dim {dim}")
        if (i, j, k) in products:
            raise ValueError(f"duplicate product entry ({i}, {j}, {k})")
        products[(i, j, k)] = value
    scale = max((max(abs(c.real), abs(c.imag)) for c in products.values()), default=0.0)
    if 0.0 < scale < math.inf and not 1 / MAX_COEFFICIENT_SCALE <= scale <= MAX_COEFFICIENT_SCALE:
        raise ValueError(f"largest coefficient magnitude {scale:g} is outside "
                         f"[{1 / MAX_COEFFICIENT_SCALE:g}, {MAX_COEFFICIENT_SCALE:g}]; rescale the tensor")
    return StructureTensor.from_products(dim, products)


def dump_tensor(mu: StructureTensor) -> str:
    return json.dumps(to_json_dict(mu), sort_keys=True, indent=2)


def load_tensor(text: str) -> StructureTensor:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return from_json_dict(data)

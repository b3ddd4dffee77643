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
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

RANK_TOL = 1e-8        # relative singular-value cutoff for all rank decisions
GAP_WARN_RATIO = 1e3   # below this sv-gap ratio the rank decision is borderline

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
    """Immutable commutative multiplication mu on C^n, mu(e_i, e_j) = sum_k table[i,j,k] e_k."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=complex)
        if t.ndim != 3 or len(set(t.shape)) != 1:
            raise ValueError(f"structure tensor needs shape (n, n, n), got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("structure tensor has non-finite coefficients")
        if not np.allclose(t, np.swapaxes(t, 0, 1), atol=1e-12, rtol=0.0):
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

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.table) ** 2))

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm <= tol

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
        if k and not np.allclose(self.basis @ self.basis.conj().T, np.eye(k), atol=1e-10):
            raise ValueError("subspace basis must be orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        v = np.asarray(v, dtype=complex)
        resid = v - self.basis.conj().T @ (self.basis @ v) if self.dim else v
        return float(np.linalg.norm(resid)) <= tol * max(1.0, float(np.linalg.norm(v)))

    def project(self, v: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros(self.ambient_dim, dtype=complex)
        return self.basis.conj().T @ (self.basis @ np.asarray(v, dtype=complex))


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


def jordan_defect(mu: StructureTensor) -> float:
    """Worst violation of (ab,c,d) + (bd,c,a) + (da,c,b) = 0 over basis quadruples.

    (x,y,z) = (xy)z - x(yz).  Zero exactly on Jordan multiplications; by
    multilinearity the basis scan is equivalent to the full identity.
    """
    t = mu.table
    assoc = np.einsum("pqm,mrk->pqrk", t, t) - np.einsum("qrm,pmk->pqrk", t, t)
    cyc = (
        np.einsum("abm,mcdk->abcdk", t, assoc)
        + np.einsum("bdm,mcak->abcdk", t, assoc)
        + np.einsum("dam,mcbk->abcdk", t, assoc)
    )
    return float(np.sqrt(np.max(np.sum(np.abs(cyc) ** 2, axis=-1)))) if mu.dim else 0.0


def is_jordan(mu: StructureTensor, tol: float = 1e-9) -> bool:
    return jordan_defect(mu) <= tol


def associator_defect(mu: StructureTensor) -> float:
    """Worst associator norm ||(e_i e_j) e_k - e_i (e_j e_k)|| over basis triples."""
    t = mu.table
    assoc = np.einsum("pqm,mrk->pqrk", t, t) - np.einsum("qrm,pmk->pqrk", t, t)
    return float(np.sqrt(np.max(np.sum(np.abs(assoc) ** 2, axis=-1)))) if mu.dim else 0.0


def is_associative(mu: StructureTensor, tol: float = 1e-9) -> bool:
    return associator_defect(mu) <= tol


# ---------------------------------------------------------------------------
# rank-revealing kernels


def _kernel(mat: np.ndarray, rank_tol: float = RANK_TOL, floor: float = 0.0) -> tuple[np.ndarray, float]:
    """Orthonormal nullspace basis (rows) of mat and the singular-value gap ratio at the cut.

    floor gives the natural magnitude of the map; without it a matrix that is
    mathematically zero but numerically ~1e-16 would be ranked against its own
    roundoff and come out nonzero.
    """
    cols = mat.shape[1]
    if mat.size == 0:
        return np.eye(cols, dtype=complex), math.inf
    _, s, vh = np.linalg.svd(mat)
    smax = s[0] if s.size else 0.0
    cutoff = rank_tol * max(smax, floor)
    if smax <= cutoff:
        return np.eye(cols, dtype=complex), math.inf
    rank = int(np.sum(s > cutoff))
    if 0 < rank < s.size and s[rank] > 0.0:
        gap = float(s[rank - 1] / s[rank])
    else:
        gap = math.inf
    return vh[rank:].conj(), gap


def trace_form(mu: StructureTensor) -> np.ndarray:
    """tau[i, j] = Tr L_{mu(e_i, e_j)}; complex symmetric."""
    t = mu.table
    tr = np.einsum("mjj->m", t)
    return np.einsum("ijm,m->ij", t, tr)


def radical(mu: StructureTensor, rank_tol: float = RANK_TOL) -> Subspace:
    """Kernel of the trace form (Albert's criterion: the maximal nilpotent ideal)."""
    basis, gap = _kernel(trace_form(mu), rank_tol, floor=mu.norm_sq)
    return Subspace(mu.dim, basis, gap)


def is_semisimple(mu: StructureTensor, rank_tol: float = RANK_TOL) -> bool:
    return radical(mu, rank_tol).dim == 0


def derivation_algebra(mu: StructureTensor, rank_tol: float = RANK_TOL) -> tuple[int, np.ndarray, float]:
    """Nullspace of A -> A.mu on n x n matrices.

    Returns (complex dimension, orthonormal basis of shape (dim, n, n), sv gap ratio).
    """
    n = mu.dim
    cols = []
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[a, b] = 1.0
            cols.append(_inf_act_table(unit, mu.table).ravel())
    mat = np.array(cols).T  # (n^3, n^2)
    basis, gap = _kernel(mat, rank_tol, floor=mu.norm)
    return basis.shape[0], basis.reshape(-1, n, n), gap


def annihilator(mu: StructureTensor, rank_tol: float = RANK_TOL) -> Subspace:
    """{x : L_x = 0}, the kernel of the stacked left-multiplication map."""
    n = mu.dim
    mat = np.transpose(mu.table, (2, 1, 0)).reshape(n * n, n)  # rows (k,j), cols i
    basis, gap = _kernel(mat, rank_tol, floor=mu.norm)
    return Subspace(n, basis, gap)


def power_dims(mu: StructureTensor, rank_tol: float = RANK_TOL) -> list[int]:
    """Dims of A^2 >= A^3 >= ... with A^{k} = span of mu(A^i, A^j), i+j=k; stops at 0 or when stable."""
    n = mu.dim
    spaces = [np.eye(n, dtype=complex)]
    dims: list[int] = []
    while len(dims) <= n:  # the chain stabilizes within dim steps
        k = len(spaces) + 1
        vecs = []
        for i in range(1, k):
            j = k - i
            if j > len(spaces):
                continue
            for u in spaces[i - 1]:
                for v in spaces[j - 1]:
                    vecs.append(np.einsum("ijk,i,j->k", mu.table, u, v))
        stacked = np.array(vecs)
        if stacked.size == 0:
            dims.append(0)
            break
        basis, _ = _row_space(stacked, rank_tol, floor=mu.norm)
        dims.append(basis.shape[0])
        if basis.shape[0] == 0 or (len(dims) >= 2 and dims[-1] == dims[-2]):
            if len(dims) >= 2 and dims[-1] == dims[-2]:
                dims.pop()
            break
        spaces.append(basis)
    return dims


def _row_space(rows: np.ndarray, rank_tol: float = RANK_TOL, floor: float = 0.0) -> tuple[np.ndarray, float]:
    _, s, vh = np.linalg.svd(rows)
    smax = s[0] if s.size else 0.0
    cutoff = rank_tol * max(smax, floor)
    if smax <= cutoff:
        return vh[:0], math.inf
    rank = int(np.sum(s > cutoff))
    gap = math.inf if rank >= s.size or s[rank] == 0.0 else float(s[rank - 1] / s[rank])
    return vh[:rank], gap


def product_rank(mu: StructureTensor, rank_tol: float = RANK_TOL) -> int:
    """dim mu(C^n, C^n) = dim A^2."""
    rows = mu.table.reshape(mu.dim * mu.dim, mu.dim)
    return _row_space(rows, rank_tol, floor=mu.norm)[0].shape[0]


def is_nilpotent(mu: StructureTensor, rank_tol: float = RANK_TOL) -> bool:
    return power_dims(mu, rank_tol)[-1] == 0


# ---------------------------------------------------------------------------
# group and infinitesimal actions
#
# The table kernels below work on raw (n, n, n) arrays, symmetric in their
# first two axes, and are the only implementations of the group action, the
# moment table and the infinitesimal action.  Each is a few matmuls on
# reshaped views, O(n^4) work; numpy runs the four-operand einsum form of
# the group action as an O(n^6) loop nest.


def _act_table(t: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """out[a, b, c] = sum t[i, j, k] h[i, a] h[j, b] g[c, k], as three mode products."""
    n = t.shape[0]
    out = (h.T @ t.reshape(n, n * n)).reshape(n, n, n)  # first slot
    out = h.T @ out                                      # second slot, batched over the first
    return (out.reshape(n * n, n) @ g.T).reshape(n, n, n)  # output slot


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


def _soliton_scalar(mu: StructureTensor) -> float:
    """c_mu = -||M||^2 / ||mu||^2."""
    n2 = mu.norm_sq
    if n2 == 0.0:
        raise ValueError("moment data is undefined for the zero tensor")
    return -float(np.sum(np.abs(_moment_table(mu.table)) ** 2)) / n2


def soliton_product(mu: StructureTensor, nu: StructureTensor) -> StructureTensor:
    """Direct product with the second factor rescaled by sqrt(c_mu / c_nu).

    When both factors are solitons the result is again a soliton.
    """
    scale = math.sqrt(_soliton_scalar(mu) / _soliton_scalar(nu))
    return direct_product(mu, nu.scaled(scale))


def unit_element(mu: StructureTensor, tol: float = 1e-9) -> np.ndarray | None:
    """Solve L_u = I by least squares; returns u, or None when the residual exceeds tol."""
    n = mu.dim
    if n == 0:
        return None
    mat = np.transpose(mu.table, (2, 1, 0)).reshape(n * n, n)
    target = np.eye(n, dtype=complex).ravel()
    u, *_ = np.linalg.lstsq(mat, target, rcond=None)
    resid = float(np.linalg.norm(mat @ u - target))
    return u if resid <= tol * math.sqrt(n) else None


def has_unit(mu: StructureTensor, tol: float = 1e-9) -> bool:
    return unit_element(mu, tol) is not None


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


def soliton_unitalize(mu: StructureTensor, check_tol: float = 1e-9) -> StructureTensor:
    """Unitalize sqrt(c)*mu with c = (2n+1)/(-c_mu), which maps solitons to solitons.

    Verifies the block shape of the resulting moment matrix:
    diag(M_{sqrt(c) mu}, -(2n+1)).
    """
    n = mu.dim
    c = (2 * n + 1) / (-_soliton_scalar(mu))
    scaled = mu.scaled(math.sqrt(c))
    result = adjoin_unit(scaled)
    block = _moment_table(result.table)
    expected = np.zeros((n + 1, n + 1), dtype=complex)
    expected[:n, :n] = _moment_table(scaled.table)
    expected[n, n] = -(2 * n + 1)
    dev = float(np.max(np.abs(block - expected)))
    if dev > check_tol * max(1.0, float(np.max(np.abs(expected)))):
        raise ValueError(f"unitalized moment matrix is not block diagonal (deviation {dev:.3e})")
    return result


# ---------------------------------------------------------------------------
# centroid, decomposability, simplicity


def centroid(mu: StructureTensor, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (k, n, n) of {T : T mu(x,y) = mu(Tx, y) for all x, y}."""
    n = mu.dim
    cols = []
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[a, b] = 1.0
            diff = np.einsum("ijk,ck->ijc", mu.table, unit) - np.einsum("ljc,li->ijc", mu.table, unit)
            cols.append(diff.ravel())
    mat = np.array(cols).T
    basis, _ = _kernel(mat, rank_tol, floor=mu.norm)
    return basis.reshape(-1, n, n)


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
    n = r.shape[0]
    quad_points = 64
    proj = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for q in range(quad_points):
        z = center + radius * np.exp(2j * np.pi * (q + 0.5) / quad_points)
        try:
            resolvent = np.linalg.inv(z * eye - r)
        except np.linalg.LinAlgError:
            return None
        proj += resolvent * (z - center)
    return proj / quad_points


def is_decomposable(mu: StructureTensor, tol: float = 1e-7, tries: int = 8, seed: int = 0) -> bool:
    """True when the algebra splits as a direct product of two nonzero ideals.

    A splitting exists iff the centroid contains a nontrivial idempotent.
    The eigenvalues of a random centroid element separate the factors (the
    nilpotent part of the centroid does not move them); the spectral
    projection onto one cluster is verified to be idempotent, to lie in the
    centroid, and to kill cross products before the split is accepted.
    """
    n = mu.dim
    if n <= 1:
        return False
    cent = centroid(mu)
    if cent.shape[0] <= 1:
        return False
    # Roundoff splits an eigenvalue with a k x k Jordan block into a ring of
    # radius ~ eps^(1/k); linking at the widest such ring (k = n) keeps a
    # defective eigenvalue in one cluster.
    link_tol = max(1e-6, 2.0 * (n * np.finfo(float).eps) ** (1.0 / n))
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        coeffs = rng.normal(size=cent.shape[0])
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
        if float(np.max(np.abs(proj @ proj - proj))) > tol * pscale:
            continue
        cross = np.einsum("ijk,ia,jb->abk", mu.table, proj, np.eye(n) - proj)
        if float(np.max(np.abs(cross))) > tol * max(1.0, mu.norm):
            continue
        # membership in the centroid: T mu(x,y) - mu(Tx,y) = 0
        memb = np.einsum("ijk,ck->ijc", mu.table, proj) - np.einsum("ljc,li->ijc", mu.table, proj)
        if float(np.max(np.abs(memb))) > tol * max(1.0, mu.norm):
            continue
        return True
    return False


def is_simple(mu: StructureTensor, rank_tol: float = RANK_TOL) -> bool:
    """Semisimple with a one-dimensional centroid (a single simple factor)."""
    if product_rank(mu, rank_tol) == 0:
        return False
    return is_semisimple(mu, rank_tol) and centroid(mu, rank_tol).shape[0] == 1


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


def from_json_dict(data: dict) -> StructureTensor:
    try:
        dim = int(data["dim"])
        raw = data["products"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed tensor document: {exc!r}") from exc
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not isinstance(raw, list):
        raise ValueError(f"products must be a list, got {type(raw).__name__}")
    products: dict[tuple[int, int, int], complex] = {}
    for entry in raw:
        try:
            i, j, k = int(entry["i"]), int(entry["j"]), int(entry["k"])
            value = complex(float(entry["re"]), float(entry.get("im", 0.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed product entry {entry!r}: {exc!r}") from exc
        if i > j:
            raise ValueError(f"product entry has i > j (i={i}, j={j}): only the i <= j triangle is stored")
        if not (1 <= i and j <= dim and 1 <= k <= dim):
            raise ValueError(f"product index out of range: (i={i}, j={j}, k={k}) for dim {dim}")
        if (i, j, k) in products:
            raise ValueError(f"duplicate product entry ({i}, {j}, {k})")
        products[(i, j, k)] = value
    return StructureTensor.from_products(dim, products)


def dump_tensor(mu: StructureTensor) -> str:
    return json.dumps(to_json_dict(mu), sort_keys=True, indent=2)


def load_tensor(text: str) -> StructureTensor:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return from_json_dict(data)

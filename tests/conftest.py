import itertools

import numpy as np
import pytest

from jordanflow.algebra import StructureTensor


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def oracle_min_norm(points, grid: int = 6, max_iters: int = 20000) -> np.ndarray:
    """Independent min-norm oracle: dense simplex grid, then projected gradient."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    best_lam, best_val = None, np.inf
    for comp in itertools.combinations(range(grid + m - 1), m - 1):
        counts = np.diff((-1,) + comp + (grid + m - 1,)) - 1
        lam = np.asarray(counts, dtype=float) / grid
        val = float(np.sum((pts.T @ lam) ** 2))
        if val < best_val:
            best_val, best_lam = val, lam
    lam = best_lam
    gram = pts @ pts.T
    lip = float(np.max(np.linalg.eigvalsh(gram))) if m > 1 else max(float(gram[0, 0]), 1e-30)
    step = 1.0 / max(2.0 * lip, 1e-30)
    for _ in range(max_iters):
        nxt = project_simplex(lam - step * 2.0 * (gram @ lam))
        if np.max(np.abs(nxt - lam)) < 1e-15:
            lam = nxt
            break
        lam = nxt
    return pts.T @ lam


def criterion_3_starts():
    """Acceptance criterion 3's 200 generic starts (rng 3), with their catalog entries."""
    from jordanflow.algebra import act
    from jordanflow.catalog import builtin, names
    from jordanflow.sampling import random_group_element

    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        pool = names(n)
        entry = builtin(pool[int(rng.integers(len(pool)))])
        yield entry, act(random_group_element(rng, n, 50.0), entry.tensor)


def eig_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential through eigendecomposition (random matrices are diagonalizable)."""
    evals, vecs = np.linalg.eig(a)
    return vecs @ np.diag(np.exp(evals)) @ np.linalg.inv(vecs)


def brute_jordan_defect(mu: StructureTensor) -> float:
    """Loop-based oracle for the cyclic associator identity, independent of the einsum path."""
    from jordanflow.algebra import evaluate

    n = mu.dim
    basis = np.eye(n, dtype=complex)

    def assoc(x, y, z):
        return evaluate(mu, evaluate(mu, x, y), z) - evaluate(mu, x, evaluate(mu, y, z))

    worst = 0.0
    for a in basis:
        for b in basis:
            for c in basis:
                for d in basis:
                    ab = evaluate(mu, a, b)
                    bd = evaluate(mu, b, d)
                    da = evaluate(mu, d, a)
                    total = assoc(ab, c, d) + assoc(bd, c, a) + assoc(da, c, b)
                    worst = max(worst, float(np.linalg.norm(total)))
    return worst

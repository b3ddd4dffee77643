"""The matmul table kernels and the rank kernels against the formulas they replace.

The einsum forms below are the reference: the same sums written index by
index.  The kernels reorder the sums, so they agree to roundoff, checked
at 1e-12 relative to the size of the operands.  The rank kernels are
checked against the column-by-column operator matrices, the full-SVD rank
cut and the vector-by-vector power chain.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jordanflow.algebra import (
    RANK_TOL,
    StructureTensor,
    act,
    power_dims,
    soliton_product,
    _act_table,
    _inf_act_table,
    _moment_table,
    _operator_matrix,
    _rank_split,
    _soliton_table,
)
from jordanflow.catalog import builtin, names
from jordanflow.flow import ARMIJO, MAX_LOG_STRETCH, STEP0, STEP_FLOOR, FlowOptions, run_flow
from jordanflow.moment import energy, energy_gradient, moment_matrix, soliton_check
from jordanflow.sampling import random_group_element, random_symmetric_tensor, random_unitary

REL = 1e-12
KERNEL_CASES = settings(max_examples=60, deadline=None, database=None)
dims = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
catalog_names = st.sampled_from(names())


def ref_act(t, h, g):
    return np.einsum("ijk,ia,jb,ck->abc", t, h, h, g)


def ref_moment(t):
    m = -2.0 * np.einsum("iak,ibk->ab", t.conj(), t) + np.einsum("ika,ikb->ab", t, t.conj())
    return 0.5 * (m + m.conj().T)


def ref_inf_act(a, t):
    return (
        np.einsum("ijk,ck->ijc", t, a)
        - np.einsum("ljc,li->ijc", t, a)
        - np.einsum("ilc,lj->ijc", t, a)
    )


def complex_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def norm(x) -> float:
    return float(np.linalg.norm(x))


@KERNEL_CASES
@given(n=dims, seed=seeds)
def test_act_table_matches_einsum(n, seed):
    rng = np.random.default_rng(seed)
    t = random_symmetric_tensor(rng, n).table
    h, g = complex_matrix(rng, n), complex_matrix(rng, n)
    err = norm(_act_table(t, h, g) - ref_act(t, h, g))
    assert err <= REL * norm(t) * norm(h) ** 2 * norm(g)


@KERNEL_CASES
@given(n=dims, seed=seeds)
def test_moment_table_matches_einsum(n, seed):
    t = random_symmetric_tensor(np.random.default_rng(seed), n).table
    m = _moment_table(t)
    assert np.array_equal(m, m.conj().T)
    assert norm(m - ref_moment(t)) <= REL * norm(t) ** 2


@KERNEL_CASES
@given(n=dims, seed=seeds)
def test_inf_act_table_matches_einsum(n, seed):
    rng = np.random.default_rng(seed)
    t = random_symmetric_tensor(rng, n).table
    a = complex_matrix(rng, n)
    assert norm(_inf_act_table(a, t) - ref_inf_act(a, t)) <= REL * norm(a) * norm(t)


@KERNEL_CASES
@given(n=dims, seed=seeds)
def test_act_composes(n, seed):
    rng = np.random.default_rng(seed)
    mu = random_symmetric_tensor(rng, n)
    g1 = random_group_element(rng, n, cond_max=10)
    g2 = random_group_element(rng, n, cond_max=10)
    lhs = act(g1, act(g2, mu)).table
    rhs = act(g1 @ g2, mu).table
    assert norm(lhs - rhs) <= 1e-9 * max(norm(lhs), norm(rhs))


@KERNEL_CASES
@given(n=dims, seed=seeds)
def test_moment_is_unitarily_equivariant(n, seed):
    rng = np.random.default_rng(seed)
    mu = random_symmetric_tensor(rng, n)
    u = random_unitary(rng, n)
    lhs = moment_matrix(act(u, mu))
    rhs = u @ moment_matrix(mu) @ u.conj().T
    assert norm(lhs - rhs) <= 1e-10 * mu.norm_sq


@KERNEL_CASES
@given(n=dims, seed=seeds)
def test_soliton_table_matches_the_moment_map_formulas(n, seed):
    """M, c, E and D.t of the one soliton kernel against ||m||^2 and (4/||t||^2) (m.t - E t)."""
    mu = random_symmetric_tensor(np.random.default_rng(seed), n)
    t, n2 = mu.table, mu.norm_sq
    big_m, c, e, d_t = _soliton_table(t)
    m = ref_moment(t) / n2
    e_ref = norm(m) ** 2
    assert norm(big_m / n2 - m) <= REL * norm(m)
    assert abs(e - e_ref) <= REL * e_ref and abs(-c / n2 - e) <= REL * e
    assert norm(d_t - ref_inf_act(big_m - c * np.eye(n), t)) <= REL * norm(big_m) * norm(t)
    grad_ref = 4.0 / n2 * (ref_inf_act(m, t) - e_ref * t)
    assert norm(energy_gradient(mu).table - grad_ref) <= REL * 4.0 / n2 * norm(t) * (3 * norm(m) + e_ref)
    report = soliton_check(mu)
    assert energy(mu) == report.energy == e and report.c == c
    with pytest.raises(ValueError, match="zero tensor"):
        _soliton_table(np.zeros((n, n, n), dtype=complex))


def einsum_flow_step(t, step):
    """One accepted step of the flow with the einsum kernels and the eigendecomposition per candidate.

    Returns the unit-norm step, its energy and the step size accepted.
    """

    def energy_direction(x):
        n2 = float(np.sum(np.abs(x) ** 2))
        m = ref_moment(x) / n2
        e = float(np.sum(np.abs(m) ** 2))
        return e, 4.0 / n2 * (m + e * np.eye(x.shape[0]))

    t = t / np.linalg.norm(t)
    e, direction = energy_direction(t)
    gn = norm(ref_inf_act(direction, t))
    step = min(step, MAX_LOG_STRETCH / float(np.max(np.abs(np.linalg.eigvalsh(direction)))))
    while step > STEP_FLOOR:
        evals, vecs = np.linalg.eigh(direction)
        g = vecs @ np.diag(np.exp(-step * evals)) @ vecs.conj().T
        h = vecs @ np.diag(np.exp(step * evals)) @ vecs.conj().T
        cand = ref_act(t, h, g)
        cand = 0.5 * (cand + np.swapaxes(cand, 0, 1))
        cand = cand / np.linalg.norm(cand)
        e2, _ = energy_direction(cand)
        if e2 <= e - ARMIJO * step * gn * gn:
            return cand, e2, step
        step *= 0.5
    raise AssertionError("no descent above STEP_FLOOR")


@pytest.mark.parametrize("name, n", [("A_3_2", 3), ("A_4_20", 4)])
def test_one_flow_step_matches_einsum_step(name, n):
    g = random_group_element(np.random.default_rng(5), n, cond_max=10)
    start = act(g, builtin(name).tensor)
    trace = run_flow(start, FlowOptions(max_steps=1))
    assert trace.steps_taken == 1
    ref_table, ref_energy, _ = einsum_flow_step(start.table, STEP0)
    assert norm(trace.terminal.table - ref_table) <= 1e-12
    assert trace.energies[1] == pytest.approx(ref_energy, rel=1e-12)


@KERNEL_CASES
@given(n=dims, seed=seeds, real=st.booleans(), k=st.integers(min_value=1, max_value=4))
@pytest.mark.filterwarnings("ignore:flow started from a non-Jordan tensor")
def test_flow_matches_einsum_steps(n, seed, real, k):
    """k steps of the eigenframe loop against k einsum steps, under the 1.1 step growth, from real and
    complex starts; the einsum step acts by exp(-s A) in the start's basis."""
    start = random_symmetric_tensor(np.random.default_rng(seed), n)
    if real:
        start = StructureTensor(start.table.real)
    trace = run_flow(start, FlowOptions(max_steps=k))
    if n == 1:  # every tensor of dimension 1 is critical at E = 1/n
        assert trace.stop_reason == "gradient" and trace.steps_taken == 0
        return
    assert trace.stop_reason == "max_steps" and trace.steps_taken == k
    t, step = start.table, STEP0
    for i in range(1, k + 1):
        t, e, step = einsum_flow_step(t, step)
        assert trace.energies[i] == pytest.approx(e, rel=REL)
        step *= 1.1
    assert norm(trace.terminal.table - t) <= REL


@KERNEL_CASES
@given(name=catalog_names, seed=seeds, theta=st.floats(min_value=0.1, max_value=6.2))
def test_a_real_start_and_its_phase_copy_flow_alike(name, seed, theta):
    """e^{i theta} mu = (e^{-i theta} I) . mu lies on the unitary orbit of mu: the real start flows in
    real arithmetic, its copy in complex arithmetic, and the two give the same energies."""
    rng = np.random.default_rng(seed)
    mu = builtin(name).tensor
    q, _ = np.linalg.qr(rng.normal(size=(mu.dim, mu.dim)))
    start = act(q * np.exp(0.5 * rng.normal(size=mu.dim)), mu)   # a real basis change
    assert not np.any(start.table.imag)
    real = run_flow(start, FlowOptions(max_steps=10))
    phased = run_flow(start.scaled(np.exp(1j * theta)), FlowOptions(max_steps=10))
    assert not np.any(real.terminal.table.imag)
    assert real.steps_taken == phased.steps_taken and real.stop_reason == phased.stop_reason
    assert np.allclose(real.energies, phased.energies, atol=REL, rtol=0.0)


# ---------------------------------------------------------------------------
# rank kernels


def ref_operator_matrix(t, terms):
    """Column a*n + b is the image of the matrix unit E_ab, built one column at a time."""
    n = t.shape[0]
    cols = []
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[a, b] = 1.0
            if terms == 3:
                cols.append(_inf_act_table(unit, t).ravel())
            else:
                cols.append((np.einsum("ijk,ck->ijc", t, unit) - np.einsum("ljc,li->ijc", t, unit)).ravel())
    return np.array(cols).T


def ref_rank_split(mat, rank_tol=RANK_TOL, floor=0.0):
    """The rank cut on the full SVD: (rank, row-space basis, nullspace basis, gap ratio)."""
    cols = mat.shape[1]
    eye = np.eye(cols, dtype=complex)
    if mat.size == 0:
        return 0, eye[:0], eye, math.inf
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    cutoff = rank_tol * max(s[0], floor)
    if s[0] <= cutoff:
        return 0, eye[:0], eye, math.inf
    rank = int(np.sum(s > cutoff))
    gap = float(s[rank - 1] / s[rank]) if rank < s.size and s[rank] > 0.0 else math.inf
    return rank, vh[:rank], vh[rank:].conj(), gap


def ref_power_dims(mu):
    """The power chain with one einsum per spanning vector."""
    n = mu.dim
    spaces = [np.eye(n, dtype=complex)]
    dims = []
    while len(dims) <= n:
        k = len(spaces) + 1
        vecs = []
        for i in range(1, k):
            for u in spaces[i - 1]:
                for v in spaces[k - i - 1]:
                    vecs.append(np.einsum("ijk,i,j->k", mu.table, u, v))
        rank, rows, _, _ = ref_rank_split(np.array(vecs), floor=mu.norm)
        if dims and rank == dims[-1]:
            break
        dims.append(rank)
        if rank == 0:
            break
        spaces.append(rows)
    return dims


def projector(rows):
    return rows.conj().T @ rows


def unitary_soliton_product(name1, name2, seed):
    mu = soliton_product(builtin(name1).tensor, builtin(name2).tensor)
    return act(random_unitary(np.random.default_rng(seed), mu.dim), mu)


def assert_same_split(mat, floor):
    rank, vh, gap = _rank_split(mat, floor=floor)
    ref_rank, ref_rows, ref_null, ref_gap = ref_rank_split(mat, floor=floor)
    assert rank == ref_rank
    assert gap == pytest.approx(ref_gap, rel=1e-9)
    assert vh.shape == (mat.shape[1], mat.shape[1])
    assert norm(projector(vh[:rank]) - projector(ref_rows)) <= 1e-10
    assert norm(projector(vh[rank:].conj()) - projector(ref_null)) <= 1e-10


@KERNEL_CASES
@given(n=dims, seed=seeds, terms=st.sampled_from([2, 3]))
def test_operator_matrix_matches_column_build(n, seed, terms):
    t = random_symmetric_tensor(np.random.default_rng(seed), n).table
    assert np.array_equal(_operator_matrix(t, terms), ref_operator_matrix(t, terms))


@KERNEL_CASES
@given(name1=catalog_names, name2=catalog_names, seed=seeds, terms=st.sampled_from([2, 3]))
def test_operator_matrix_matches_column_build_on_soliton_products(name1, name2, seed, terms):
    t = unitary_soliton_product(name1, name2, seed).table
    assert np.array_equal(_operator_matrix(t, terms), ref_operator_matrix(t, terms))


@KERNEL_CASES
@given(
    m=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=1, max_value=12),
    rank=st.integers(min_value=0, max_value=12),
    scale=st.sampled_from([1.0, 1e-17, 1e6]),
    real=st.booleans(),
    seed=seeds,
)
def test_rank_split_matches_full_svd(m, n, rank, scale, real, seed):
    """Tall, wide, square, empty, zero and rank-deficient inputs; 1e-17 falls under the floor."""
    rng = np.random.default_rng(seed)
    rank = min(rank, m, n)
    left = rng.normal(size=(m, rank)) + (0 if real else 1j * rng.normal(size=(m, rank)))
    right = rng.normal(size=(rank, n)) + (0 if real else 1j * rng.normal(size=(rank, n)))
    mat = scale * (left @ right).astype(complex)
    assert_same_split(mat, floor=1.0)
    assert_same_split(mat, floor=0.0)


@KERNEL_CASES
@given(name1=catalog_names, name2=catalog_names, seed=seeds, terms=st.sampled_from([2, 3]))
def test_rank_split_matches_full_svd_on_soliton_products(name1, name2, seed, terms):
    mu = unitary_soliton_product(name1, name2, seed)
    assert_same_split(_operator_matrix(mu.table, terms), floor=mu.norm)
    assert_same_split(mu.table.reshape(mu.dim**2, mu.dim), floor=mu.norm)


@KERNEL_CASES
@given(n=dims, seed=seeds, density=st.floats(min_value=0.1, max_value=1.0))
def test_power_dims_matches_looped_chain_on_nilpotent_tensors(n, seed, density):
    """Products e_i e_j land in span(e_k, k > max(i, j)), seen in a random basis."""
    rng = np.random.default_rng(seed)
    t = random_symmetric_tensor(rng, n).table
    i, j, k = np.indices((n, n, n))
    mask = (k > np.maximum(i, j)) & (rng.random((n, n, n)) < density)
    mask = mask | np.swapaxes(mask, 0, 1)
    mu = act(random_group_element(rng, n, cond_max=10), StructureTensor(np.where(mask, t, 0.0)))
    assert power_dims(mu) == ref_power_dims(mu)


@KERNEL_CASES
@given(name1=catalog_names, name2=catalog_names, seed=seeds)
def test_power_dims_matches_looped_chain_on_soliton_products(name1, name2, seed):
    mu = unitary_soliton_product(name1, name2, seed)
    assert power_dims(mu) == ref_power_dims(mu)


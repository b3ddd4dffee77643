"""The matmul table kernels and the rank kernels against the formulas they replace.

The einsum forms below are the reference: the same sums written index by
index.  The kernels reorder the sums, so they agree to roundoff, checked
at 1e-12 relative to the size of the operands.  The flow's diagonal-frame
path is checked bit for bit against the eigh path it skips.  The rank kernels are
checked against the column-by-column operator matrices, the full-SVD rank
cut and the vector-by-vector power chain.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jordanflow import algebra
from jordanflow.algebra import (
    RANK_TOL,
    StructureTensor,
    act,
    associator_defect,
    centroid,
    derivation_algebra,
    has_unit,
    is_associative,
    is_decomposable,
    is_jordan,
    is_nilpotent,
    is_semisimple,
    is_simple,
    jordan_defect,
    power_dims,
    product_rank,
    radical,
    soliton_product,
    unit_element,
    _act_table,
    _inf_act_table,
    _moment_table,
    _operator_matrix,
    _operator_split,
    _rank_split,
    _soliton_table,
    _unitary_act_table,
)
from jordanflow.catalog import builtin, names
from jordanflow.flow import (ARMIJO, DECREASE_RATIO, ENERGY_TOL, MAX_LOG_STRETCH, STEP0, STEP_DOWN, STEP_FLOOR,
                             STEP_UP, FlowOptions, run_flow, _energy_moment, _norm, _sorted_frame,
                             _support_keeps_m_diagonal, _weight_sums)
from jordanflow.moment import energy, energy_gradient, moment_map, moment_matrix, soliton_check, soliton_type
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


def ref_associator(t):
    return np.einsum("pqm,mrk->pqrk", t, t) - np.einsum("qrm,pmk->pqrk", t, t)


def ref_jordan_cycle(t):
    """(ab,c,d) + (bd,c,a) + (da,c,b) on basis quadruples, indexed [a, b, c, d, k]."""
    assoc = ref_associator(t)
    return (
        np.einsum("abm,mcdk->abcdk", t, assoc)
        + np.einsum("bdm,mcak->abcdk", t, assoc)
        + np.einsum("dam,mcbk->abcdk", t, assoc)
    )


def worst_row(x) -> float:
    return float(np.sqrt(np.max(np.sum(np.abs(x) ** 2, axis=-1))))


def torus_start(name, seed, tie=False):
    """diag(e^u) . mu of a catalog entry, u ~ N(0, 1/4); tie sets u_2 = u_1."""
    mu = builtin(name).tensor
    u = 0.5 * np.random.default_rng(seed).normal(size=mu.dim)
    if tie and mu.dim > 1:
        u[1] = u[0]
    return act(np.diag(np.exp(u)), mu)


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
@given(n=dims, seed=seeds, real=st.booleans())
def test_defect_kernels_match_einsum(n, seed, real):
    mu = random_symmetric_tensor(np.random.default_rng(seed), n)
    if real:
        mu = StructureTensor(mu.table.real)
    t = mu.table
    scale = norm(t) ** 2
    assert abs(associator_defect(mu) - worst_row(ref_associator(t))) <= REL * scale
    assert abs(jordan_defect(mu) - worst_row(ref_jordan_cycle(t))) <= REL * scale * norm(t)


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


def energy_direction(x):
    """E, the direction A = (4/||x||^2) (m + E I) and the gradient norm ||A . x|| with the einsum kernels."""
    n2 = float(np.sum(np.abs(x) ** 2))
    m = ref_moment(x) / n2
    e = float(np.sum(np.abs(m) ** 2))
    direction = 4.0 / n2 * (m + e * np.eye(x.shape[0]))
    return e, direction, norm(ref_inf_act(direction, x))


def einsum_flow_step(t, step):
    """One accepted step of the flow with the einsum kernels and the eigendecomposition per candidate.

    Returns the unit-norm step, its energy and the step size accepted.
    """

    t = t / np.linalg.norm(t)
    e, direction, gn = energy_direction(t)
    step = min(step, MAX_LOG_STRETCH / float(np.max(np.abs(np.linalg.eigvalsh(direction)))))
    while step > STEP_FLOOR:
        evals, vecs = np.linalg.eigh(direction)
        g = vecs @ np.diag(np.exp(-step * evals)) @ vecs.conj().T
        h = vecs @ np.diag(np.exp(step * evals)) @ vecs.conj().T
        cand = ref_act(t, h, g)
        cand = 0.5 * (cand + np.swapaxes(cand, 0, 1))
        cand = cand / np.linalg.norm(cand)
        e2 = energy_direction(cand)[0]
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
@given(n=dims, seed=seeds, real=st.booleans(), k=st.integers(min_value=1, max_value=4),
       name=st.none() | catalog_names, tie=st.booleans(), generic=st.booleans())
@example(n=4, seed=1, real=True, k=4, name="A_4_2", tie=False, generic=False)   # unsorted diagonal of m
@example(n=4, seed=1, real=False, k=4, name="A_4_2", tie=True, generic=False)   # tied diagonal entries of m
@example(n=3, seed=1, real=True, k=4, name="A_3_1", tie=True, generic=False)
@example(n=3, seed=1, real=True, k=4, name="A_3_17", tie=False, generic=True)   # non-semisimple, can fall
@example(n=4, seed=2, real=False, k=4, name="A_4_26", tie=False, generic=True)
@example(n=4, seed=2, real=True, k=4, name="A_4_16", tie=False, generic=False)   # m never diagonal
@example(n=4, seed=0, real=True, k=4, name="A_4_53", tie=False, generic=False)   # diagonal by cancellation
# exact moves that cannot balance (affinely dependent weights), with an unsorted diagonal at steps 0 and 2
@example(n=4, seed=0, real=True, k=4, name="A_4_61", tie=False, generic=False)
@pytest.mark.filterwarnings("ignore:flow started from a non-Jordan tensor")
def test_flow_matches_einsum_steps(n, seed, real, k, name, tie, generic):
    """k steps of the eigenframe loop against k einsum steps, from real and complex starts; the einsum
    step acts by exp(-s A) in the start's basis.  With a catalog name the start is a torus start
    diag(e^u) . mu; a complex one is its copy times e^{0.7 i}.  Where the support of mu keeps m
    diagonal every step is an exact move, and a torus start of a semisimple entry lies in the lowest
    stratum: neither can fall, so the step follows the decrease-ratio rule.  Torus starts of the other
    entries (the trig families and A_4_53), random symmetric starts (not Jordan) and generic starts
    g . mu of non-semisimple entries can fall, so their step grows by 1.1.  A start whose Wolfe face
    covers its support at step 0 (most torus starts of non-semisimple entries, and a few generic
    starts) balances onto its soliton in one move there, and has no steps to compare."""
    rng = np.random.default_rng(seed)
    if name is None:
        start = random_symmetric_tensor(rng, n)
        if real:
            start = StructureTensor(start.table.real)
    elif generic:
        mu = builtin(name).tensor
        assume(mu.dim > 1 and not builtin(name).flags.semisimple)
        start = act(random_group_element(rng, mu.dim, cond_max=10), mu)
        if real:
            start = StructureTensor(start.table.real)
    else:
        start = torus_start(name, seed, tie)
        if not real:
            start = start.scaled(np.exp(0.7j))
    exact = name is not None and not generic and (
        _support_keeps_m_diagonal(start.table) or builtin(name).flags.semisimple)
    trace = run_flow(start, FlowOptions(max_steps=k))
    if start.dim == 1 or trace.stop_reason == "gradient":
        # every tensor of dimension 1 is critical at E = 1/n, and so is a torus start that only rescales mu
        assert name is not None or start.dim == 1
        assert trace.stop_reason == "gradient" and trace.steps_taken == 0
        assert norm(trace.terminal.table - start.table / start.norm) <= REL
        return
    if trace.stop_reason == "certificate":
        assert trace.steps_taken == 1 and trace.witness is None
        assert abs(trace.energies[1] - trace.lower_bound) <= ENERGY_TOL
        assert trace.terminal_report.soliton_residual <= 1e-12
        return
    assert trace.stop_reason == "max_steps" and trace.steps_taken == k
    t, step = start.table, STEP0
    for i in range(1, k + 1):
        e, _, gn = energy_direction(t / np.linalg.norm(t))
        t, e2, step = einsum_flow_step(t, step)
        assert trace.energies[i] == pytest.approx(e2, rel=REL)
        if exact:
            step *= STEP_UP if e - e2 > DECREASE_RATIO * step * gn * gn else STEP_DOWN
        else:
            step *= 1.1
    assert norm(trace.terminal.table - t) <= REL


@KERNEL_CASES
@given(name=catalog_names, seed=seeds, real=st.booleans(), tie=st.booleans(), ascending=st.booleans())
@example(name="A_3_1", seed=1, real=True, tie=True, ascending=True)
@example(name="A_4_2", seed=1, real=False, tie=True, ascending=True)
def test_eigenframe_matches_the_eigh_path_bit_for_bit_on_a_diagonal_m(name, seed, real, tie, ascending):
    """On an exactly diagonal m, _sorted_frame applies the stable sorting permutation exactly, with no
    eigh.  With an ascending diagonal, ties included, it keeps t and the frame, which is eigh's update
    bit for bit (eigh returns V = I there).  With an unsorted one, the rates are eigh's bit for bit, and t and the frame agree
    with eigh's up to the signs or phases of its columns (and up to the order of a tied eigenspace's
    columns)."""
    rng = np.random.default_rng(seed)
    start = torus_start(name, seed, tie)
    t = start.table.real / start.norm if real else start.table * np.exp(0.7j) / start.norm
    order = np.argsort(_energy_moment(t)[1].diagonal().real, kind="stable")
    if not ascending:
        order = order[::-1]
    t = t[np.ix_(order, order, order)]   # a basis permutation that sorts m's diagonal
    e, m, n2 = _energy_moment(t)
    diag = m.diagonal().real
    assume(np.count_nonzero(m) == np.count_nonzero(diag))
    assume(np.all(diag[:-1] <= diag[1:]) if ascending else np.any(diag[:-1] > diag[1:]))
    n = start.dim
    frame = np.linalg.qr(rng.normal(size=(n, n)) if real else complex_matrix(rng, n))[0]
    kept, kept_frame, rates = _sorted_frame(t, e, m, n2, frame)
    evals, vecs = np.linalg.eigh(m)
    assert np.array_equal(rates, 4.0 / n2 * (evals + e))
    p = np.argsort(diag, kind="stable")
    assert np.array_equal(kept, t[np.ix_(p, p, p)])
    assert np.array_equal(kept_frame, frame[:, p])
    assert np.array_equal(rates, 4.0 / n2 * (diag[p] + e))
    if ascending:
        assert kept is t and kept_frame is frame
        assert np.array_equal(kept, _unitary_act_table(t, vecs.conj().T))
        assert np.array_equal(kept_frame, frame @ vecs)
    elif len(set(diag)) == n:
        assert np.array_equal(np.abs(kept), np.abs(_unitary_act_table(t, vecs.conj().T)))
        assert np.array_equal(np.abs(kept_frame), np.abs(frame @ vecs))
    else:   # eigh may order the columns of a tied eigenspace otherwise: compare the eigenspaces
        for rate in set(rates):
            a, b = kept_frame[:, rates == rate], (frame @ vecs)[:, rates == rate]
            assert norm(a @ a.conj().T - b @ b.conj().T) <= REL


@KERNEL_CASES
@given(name=catalog_names, seed=seeds)
def test_a_support_that_keeps_m_diagonal_keeps_it_exactly_under_scalings_and_permutations(name, seed):
    """Where the support forces the off-diagonal entries of m to vanish, they are exact zeros after any
    positive scaling of the coefficients and any basis permutation; the trig families and A_4_53, whose
    m is diagonal in the catalog basis only by cancellation or not at all, are the entries without it."""
    rng = np.random.default_rng(seed)
    t = torus_start(name, seed).table
    keeps = _support_keeps_m_diagonal(t)
    assert keeps == (name not in ("A_4_16", "A_4_17", "A_4_25", "A_4_53"))
    p = rng.permutation(t.shape[0])
    t = (t * np.exp(rng.normal(size=t.shape)))[np.ix_(p, p, p)]
    assert _support_keeps_m_diagonal(t) == keeps
    if keeps:
        m = _energy_moment(t)[1]
        assert np.count_nonzero(m) == np.count_nonzero(m.diagonal())


@KERNEL_CASES
@given(n=dims, seed=seeds, real=st.booleans(), scale=st.integers(min_value=-40, max_value=40))
def test_norm_and_weight_sums_match_numpy_bit_for_bit(n, seed, real, scale):
    """The step loop's _norm is np.linalg.norm, and _weight_sums the three-way broadcast, bit for bit."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(n, n, n)) * 10.0**scale
    if not real:
        t = t + 1j * rng.normal(size=(n, n, n)) * 10.0**scale
    assert _norm(t) == np.linalg.norm(t)
    assert _norm(t[:, ::-1]) == np.linalg.norm(t[:, ::-1])   # a strided view
    evals = np.sort(rng.normal(size=n))
    assert np.array_equal(_weight_sums(evals),
                          evals[:, None, None] + evals[None, :, None] - evals[None, None, :])


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
@given(
    mu=st.one_of(
        st.builds(unitary_soliton_product, catalog_names, catalog_names, seeds),
        st.builds(lambda n, seed: random_symmetric_tensor(np.random.default_rng(seed), n), dims, seeds),
    ),
    terms=st.sampled_from([2, 3]),
)
def test_operator_nullspaces_through_r_match_the_full_svd(mu, terms):
    """derivation_algebra (3 terms) and centroid (2 terms) split the R factor; the reference splits
    the full operator matrix."""
    n = mu.dim
    ref_rank, _, ref_null, ref_gap = ref_rank_split(_operator_matrix(mu.table, terms), floor=mu.norm)
    if terms == 3:
        dim, basis, gap = derivation_algebra(mu)
        assert dim == basis.shape[0]
    else:
        basis, gap = centroid(mu), _operator_split(mu.table, 2, mu.norm)[2]
    assert n * n - basis.shape[0] == ref_rank
    assert gap == pytest.approx(ref_gap, rel=1e-9)
    null = basis.reshape(-1, n * n)
    assert norm(projector(null) - projector(ref_null)) <= 1e-10


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


# --- kernels stored on the tensor ---------------------------------------------


def fresh_soliton(name, seed):
    """A unitary image of a catalog soliton: a new tensor with nothing stored on it."""
    mu = builtin(name).tensor
    return act(random_unitary(np.random.default_rng(seed), mu.dim), mu)


def stored_results(mu):
    """Every public result read from a stored kernel, as bytes or plain values."""
    dim_der, der_basis, der_gap = derivation_algebra(mu)
    rad = radical(mu)
    report = soliton_check(mu)
    u = unit_element(mu)
    return [
        dim_der, der_basis.tobytes(), der_gap, centroid(mu).tobytes(),
        rad.dim, rad.basis.tobytes(), rad.gap_ratio, is_semisimple(mu),
        power_dims(mu), product_rank(mu), is_nilpotent(mu), is_simple(mu), is_decomposable(mu),
        associator_defect(mu), is_associative(mu), jordan_defect(mu), is_jordan(mu),
        None if u is None else u.tobytes(), has_unit(mu),
        report.M.tobytes(), report.m.tobytes(), report.energy, report.c, report.soliton_residual,
        report.is_soliton, energy(mu), moment_matrix(mu).tobytes(), moment_map(mu).tobytes(),
    ]


@pytest.mark.parametrize("name", ["A_2_3", "A_3_1", "A_4_20", "A_4_68"])
def test_a_second_call_runs_no_kernel(monkeypatch, name):
    mu = fresh_soliton(name, 3)
    first = stored_results(mu)
    beta = soliton_type(mu).beta

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran twice on one tensor")

    monkeypatch.setattr(algebra, "_rank_split", refuse)
    monkeypatch.setattr(algebra, "_soliton_table", refuse)
    monkeypatch.setattr(algebra, "_associator_table", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert stored_results(mu) == first
    assert soliton_type(mu).beta == beta


def test_returned_arrays_are_writable_copies():
    mu = fresh_soliton("A_3_7", 5)      # unital, with derivations and a 3-dim centroid
    arrays = {
        "derivations": lambda: derivation_algebra(mu)[1],
        "centroid": lambda: centroid(mu),
        "unit": lambda: unit_element(mu),
        "M": lambda: moment_matrix(mu),
        "report M": lambda: soliton_check(mu).M,
    }
    for key, read in arrays.items():
        before = read().copy()
        assert before.size, key
        read()[...] = 7.0
        assert np.array_equal(read(), before), key


def test_stored_arrays_are_read_only():
    mu = fresh_soliton("A_4_20", 7)
    stored = [
        algebra._derivations(mu)[1],
        algebra._centroid_basis(mu),
        algebra._unit_solve(mu)[0],
        algebra._soliton_data(mu)[0],
        radical(mu).basis,
    ]
    for a in stored:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_an_error_is_not_stored():
    mu = StructureTensor.zero(3)
    for _ in range(2):
        with pytest.raises(ValueError, match="zero tensor"):
            soliton_check(mu)
    assert "_soliton_data" not in vars(mu)


@KERNEL_CASES
@given(
    mu=st.one_of(
        st.builds(unitary_soliton_product, catalog_names, catalog_names, seeds),
        st.builds(lambda n, seed: random_symmetric_tensor(np.random.default_rng(seed), n), dims, seeds),
    ),
)
def test_stored_results_match_a_fresh_tensor_bit_for_bit(mu):
    first = stored_results(mu)
    assert stored_results(mu) == first
    assert stored_results(StructureTensor(mu.table)) == first


def test_one_tensor_two_tolerances_two_verdicts():
    """The stored defects and residuals are tolerance-free; each call applies its own tol."""
    rng = np.random.default_rng(11)
    mu = builtin("A_3_1").tensor      # associative, unital and a soliton
    mu = StructureTensor(mu.table + 1e-7 * random_symmetric_tensor(rng, 3).table)
    n = mu.dim
    defect = associator_defect(mu)
    resid_unit = algebra._unit_solve(mu)[1]
    resid = soliton_check(mu).soliton_residual
    assert min(defect, resid_unit, resid) > 0.0
    for _ in range(2):
        rel = defect / mu.norm_sq   # is_associative's tol is relative to ||mu||^2
        assert is_associative(mu, tol=2 * rel) and not is_associative(mu, tol=rel / 2)
        unit_tol = resid_unit / math.sqrt(n)
        assert has_unit(mu, tol=2 * unit_tol) and not has_unit(mu, tol=unit_tol / 2)
        assert unit_element(mu, tol=2 * unit_tol) is not None and unit_element(mu, tol=unit_tol / 2) is None
        assert soliton_check(mu, tol=2 * resid).is_soliton and not soliton_check(mu, tol=resid / 2).is_soliton
        with pytest.raises(ValueError, match="not a soliton"):
            soliton_type(mu, tol=resid / 2)


def test_product_rank_is_the_rank_of_the_flattened_table_on_the_catalog():
    for name in names():
        mu = builtin(name).tensor
        assert product_rank(mu) == _rank_split(mu.table.reshape(mu.dim**2, mu.dim), floor=mu.norm)[0], name


@KERNEL_CASES
@given(
    mu=st.one_of(
        st.builds(unitary_soliton_product, catalog_names, catalog_names, seeds),
        st.builds(lambda n, seed: random_symmetric_tensor(np.random.default_rng(seed), n), dims, seeds),
    ),
)
def test_product_rank_is_the_rank_of_the_flattened_table(mu):
    n = mu.dim
    assert product_rank(mu) == _rank_split(mu.table.reshape(n * n, n), floor=mu.norm)[0]

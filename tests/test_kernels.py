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
)
from jordanflow.catalog import builtin, names
from jordanflow.flow import (ARMIJO, ENERGY_TOL, MAX_LOG_STRETCH, NEWTON_RIDGE, STEP0, STEP_FLOOR, FlowOptions,
                             run_flow, _gram, _newton_direction, _norm, _weight_sums)
from jordanflow.moment import energy, energy_gradient, moment_map, moment_matrix, soliton_check, soliton_type
from jordanflow.sampling import random_group_element, random_hermitian, random_symmetric_tensor, random_unitary

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


def orbit_step(t, direction, step):
    """exp(-step D) . t for a Hermitian D, in t's basis, at unit norm, with the eigendecomposition of D."""
    evals, vecs = np.linalg.eigh(direction)
    g = vecs @ np.diag(np.exp(-step * evals)) @ vecs.conj().T
    h = vecs @ np.diag(np.exp(step * evals)) @ vecs.conj().T
    cand = ref_act(t, h, g)
    cand = 0.5 * (cand + np.swapaxes(cand, 0, 1))
    return cand / np.linalg.norm(cand)


def einsum_flow_step(t, step):
    """One accepted gradient step of the flow with the einsum kernels and the eigendecomposition per candidate.

    Returns the unit-norm step, its energy and the step size accepted.
    """

    t = t / np.linalg.norm(t)
    e, direction, gn = energy_direction(t)
    step = min(step, MAX_LOG_STRETCH / float(np.max(np.abs(np.linalg.eigvalsh(direction)))))
    while step > STEP_FLOOR:
        cand = orbit_step(t, direction, step)
        e2 = energy_direction(cand)[0]
        if e2 <= e - ARMIJO * step * gn * gn:
            return cand, e2, step
        step *= 0.5
    raise AssertionError("no descent above STEP_FLOOR")


def hermitian_gram(t):
    """P^H P for the operator matrix P of A -> A . t, averaged with its image under x -> transpose(conj x)."""
    n = t.shape[0]
    p = _operator_matrix(t)
    g = (p.conj().T @ p).reshape((n,) * 4)
    return (0.5 * (g + g.transpose(1, 0, 3, 2).conj())).reshape(n * n, n * n)


def einsum_newton_step(t):
    """One accepted step of a lowest-stratum flow with G = P^H P, a bordered solve and the einsum kernels.

    D = -X for Newton's traceless Hermitian X, the minimizer of
    2 tr(X m) + 2 ||X . t||^2; the gradient direction A replaces it when it
    does not descend.  The step starts at 1, halves on an Armijo failure and,
    when the unit step removed less than half of E - 1/n, doubles while E
    falls.  Returns the unit-norm step, its energy and the step size.
    """
    n = t.shape[0]
    k = n * n
    t = t / np.linalg.norm(t)
    e, a, _ = energy_direction(t)
    m = ref_moment(t)
    gram = hermitian_gram(t)
    bordered = np.zeros((k + 1, k + 1), dtype=complex)
    bordered[:k, :k] = gram + NEWTON_RIDGE * np.trace(gram).real / k * np.eye(k)
    bordered[:k, k] = bordered[k, :k] = np.eye(n).ravel()
    d = np.linalg.solve(bordered, np.append(0.5 * m.ravel(), 0.0))[:k].reshape(n, n)
    d = 0.5 * (d + d.conj().T)
    rate = float(np.vdot(a.ravel(), gram @ d.ravel()).real)
    if not rate > 0:
        d, rate = a, float(np.vdot(a.ravel(), gram @ a.ravel()).real)
    cap = MAX_LOG_STRETCH / float(np.max(np.abs(np.linalg.eigvalsh(d))))
    step = min(1.0, cap)
    while step > STEP_FLOOR:
        cand = orbit_step(t, d, step)
        e2 = energy_direction(cand)[0]
        if e2 <= e - ARMIJO * step * rate:
            break
        step *= 0.5
    else:
        raise AssertionError("no descent above STEP_FLOOR")
    if step == 1.0 and e - e2 < 0.5 * (e - 1.0 / n):
        while 2.0 * step <= cap:
            longer = orbit_step(t, d, 2.0 * step)
            e3 = energy_direction(longer)[0]
            if not e3 < e2:
                break
            cand, e2, step = longer, e3, 2.0 * step
    return cand, e2, step


@KERNEL_CASES
@given(n=dims, seed=seeds, real=st.booleans())
def test_gram_matches_the_operator_matrix(n, seed, real):
    """_gram's closed form against P^H P, and x^H G x = ||X . t||^2 on a Hermitian X."""
    rng = np.random.default_rng(seed)
    t = random_symmetric_tensor(rng, n).table
    if real:
        t = t.real
    gram, ref = _gram(t), hermitian_gram(t)
    assert gram.dtype == (float if real else complex)
    assert norm(gram - ref) <= 1e-13 * norm(ref)
    x = random_hermitian(rng, n)
    quad = np.vdot(x.ravel(), gram @ x.ravel())
    assert quad.real == pytest.approx(norm(_inf_act_table(x, t)) ** 2, rel=1e-12)
    assert abs(quad.imag) <= 1e-12 * abs(quad.real)


@KERNEL_CASES
@given(name=catalog_names, seed=seeds, real=st.booleans())
def test_newton_direction_is_traceless_hermitian_and_stationary(name, seed, real):
    """D = -X is Hermitian, traceless and solves the Newton condition: G d - vec(m)/2 is a multiple of vec(I)."""
    mu = builtin(name).tensor
    g = random_group_element(np.random.default_rng(seed), mu.dim, cond_max=10)
    t = act(g.real if real else g, mu).table
    t = t / np.linalg.norm(t)
    m = ref_moment(t)
    gram = _gram(t)
    d = _newton_direction(m, gram)
    assert np.array_equal(d, d.conj().T)
    assert abs(np.trace(d)) <= 1e-12 * max(norm(d), 1.0)
    residual = (gram @ d.ravel()).reshape(d.shape) - 0.5 * m
    traceless = residual - np.trace(residual) / mu.dim * np.eye(mu.dim)
    assert norm(traceless) <= 1e-9 * max(norm(m), 1.0)


@pytest.mark.parametrize("name, n", [("A_3_2", 3), ("A_4_20", 4)])
def test_one_flow_step_matches_einsum_step(name, n):
    # A_3_2 is semisimple, so its generic start takes a Newton step; A_4_20's takes a gradient step
    g = random_group_element(np.random.default_rng(5), n, cond_max=10)
    start = act(g, builtin(name).tensor)
    trace = run_flow(start, FlowOptions(max_steps=1))
    assert trace.steps_taken == 1
    if builtin(name).flags.semisimple:
        ref_table, ref_energy, _ = einsum_newton_step(start.table)
    else:
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
# a torus start of a non-semisimple entry that cannot balance (affinely dependent weights): steps grow by 1.1
@example(n=4, seed=0, real=True, k=4, name="A_4_61", tie=False, generic=False)
# Newton steps: the A_4_2 torus starts above keep Hermitian derivations, so G is singular without NEWTON_RIDGE
@example(n=3, seed=1, real=False, k=4, name="A_3_2", tie=False, generic=False)
@pytest.mark.filterwarnings("ignore:flow started from a non-Jordan tensor")
def test_flow_matches_einsum_steps(n, seed, real, k, name, tie, generic):
    """k steps of the eigenframe loop against k einsum steps, from real and complex starts; the einsum
    step acts by exp(-s D) in the start's basis.  With a catalog name the start is a torus start
    diag(e^u) . mu; a complex one is its copy times e^{0.7 i}.  A torus start of a semisimple entry
    lies in the lowest stratum and cannot fall, so it takes Newton steps (einsum_newton_step) and may
    certify at the floor within k steps.  Torus starts of the other entries, random symmetric starts
    (not Jordan) and generic starts g . mu of non-semisimple entries can fall, so they take gradient
    steps that grow by 1.1.  A start whose Wolfe face covers its support at step 0 (most torus starts
    of non-semisimple entries, and a few generic starts) balances onto its soliton in one move there,
    and has no steps to compare."""
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
    lowest = name is not None and not generic and builtin(name).flags.semisimple
    trace = run_flow(start, FlowOptions(max_steps=k))
    if start.dim == 1 or trace.stop_reason == "gradient":
        # every tensor of dimension 1 is critical at E = 1/n, and so is a torus start that only rescales mu
        assert name is not None or start.dim == 1
        assert trace.stop_reason == "gradient" and trace.steps_taken == 0
        assert norm(trace.terminal.table - start.table / start.norm) <= REL
        return
    if lowest:
        assert trace.stop_reason in ("certificate", "max_steps") and trace.witness is None
        t = start.table
        for i in range(1, trace.steps_taken + 1):
            t, e2, _ = einsum_newton_step(t)
            assert trace.energies[i] == pytest.approx(e2, rel=REL)
        assert norm(trace.terminal.table - t) <= REL
        if trace.stop_reason == "certificate":
            assert trace.energies[-1] - 1.0 / start.dim <= ENERGY_TOL
        else:
            assert trace.steps_taken == k
        return
    if trace.stop_reason == "certificate":
        assert trace.steps_taken == 1 and trace.witness is None
        assert abs(trace.energies[1] - trace.lower_bound) <= ENERGY_TOL
        assert trace.terminal_report.soliton_residual <= 1e-12
        return
    assert trace.stop_reason == "max_steps" and trace.steps_taken == k
    t, step = start.table, STEP0
    for i in range(1, k + 1):
        t, e2, step = einsum_flow_step(t, step)
        assert trace.energies[i] == pytest.approx(e2, rel=REL)
        step *= 1.1
    assert norm(trace.terminal.table - t) <= REL


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

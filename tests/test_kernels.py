"""The matmul table kernels against the einsum formulas they replace.

The einsum forms below are the reference: the same sums written index by
index.  The kernels reorder the sums, so they agree to roundoff, checked
at 1e-12 relative to the size of the operands.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jordanflow.algebra import act, _act_table, _inf_act_table, _moment_table
from jordanflow.catalog import builtin
from jordanflow.flow import ARMIJO, MAX_LOG_STRETCH, FlowOptions, run_flow
from jordanflow.moment import moment_matrix
from jordanflow.sampling import random_group_element, random_symmetric_tensor, random_unitary

REL = 1e-12
KERNEL_CASES = settings(max_examples=60, deadline=None, database=None)
dims = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


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


def einsum_flow_step(t, step):
    """One accepted step of the flow with the einsum kernels and the eigendecomposition per candidate."""

    def energy_direction(x):
        n2 = float(np.sum(np.abs(x) ** 2))
        m = ref_moment(x) / n2
        e = float(np.sum(np.abs(m) ** 2))
        return e, 4.0 / n2 * (m + e * np.eye(x.shape[0]))

    t = t / np.linalg.norm(t)
    e, direction = energy_direction(t)
    gn = norm(ref_inf_act(direction, t))
    step = min(step, MAX_LOG_STRETCH / float(np.max(np.abs(np.linalg.eigvalsh(direction)))))
    while True:
        evals, vecs = np.linalg.eigh(direction)
        g = vecs @ np.diag(np.exp(-step * evals)) @ vecs.conj().T
        h = vecs @ np.diag(np.exp(step * evals)) @ vecs.conj().T
        cand = ref_act(t, h, g)
        cand = 0.5 * (cand + np.swapaxes(cand, 0, 1))
        cand = cand / np.linalg.norm(cand)
        e2, _ = energy_direction(cand)
        if e2 <= e - ARMIJO * step * gn * gn:
            return cand, e2
        step *= 0.5


@pytest.mark.parametrize("name, n", [("A_3_2", 3), ("A_4_20", 4)])
def test_one_flow_step_matches_einsum_step(name, n):
    g = random_group_element(np.random.default_rng(5), n, cond_max=10)
    start = act(g, builtin(name).tensor)
    trace = run_flow(start, FlowOptions(max_steps=1))
    assert trace.steps_taken == 1
    ref_table, ref_energy = einsum_flow_step(start.table, FlowOptions().step0)
    assert norm(trace.terminal.table - ref_table) <= 1e-12
    assert trace.energies[1] == pytest.approx(ref_energy, rel=1e-12)

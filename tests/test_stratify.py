from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jordanflow.algebra import StructureTensor, act
from jordanflow.catalog import builtin, heisenberg, hyperbolic, names
from jordanflow.moment import SolitonType, moment_map, energy, soliton_check
from jordanflow.sampling import random_group_element, random_unitary
from jordanflow.stratify import beta_mu, stratum_of
from jordanflow.weights import (
    certificate_gap,
    degeneration_witness,
    exact_min_norm_point,
    min_norm_point,
    support_weights,
)


def test_support_weights_examples():
    ws = support_weights(heisenberg(2))
    assert [w.diagonal for w in ws] == [(-2, 1)]
    ws = support_weights(builtin("A_2_4").tensor)
    assert sorted(w.diagonal for w in ws) == [(-1, 0), (0, -1)]
    # both products of hyperbolic(2) carry the same weight: deduplicated
    ws = support_weights(hyperbolic(2))
    assert [w.diagonal for w in ws] == [(-1, 0)]
    assert set(ws[0].triples) == {(1, 1, 1), (1, 2, 2)}


def test_support_weight_entries():
    for name in ("A_3_7", "A_4_53", "A_4_62"):
        for w in support_weights(builtin(name).tensor):
            assert sum(w.diagonal) == -1
            assert set(w.diagonal) <= {-2, -1, 0, 1}


def test_support_weights_reject_zero():
    with pytest.raises(ValueError):
        support_weights(StructureTensor.zero(2))


def test_support_tolerance_is_relative():
    mu = builtin("A_3_7").tensor
    scaled = mu.scaled(1e-6)
    assert [w.diagonal for w in support_weights(mu)] == \
        [w.diagonal for w in support_weights(scaled)]


def test_support_cut_is_strict():
    # a coefficient at exactly tol * max|coeff| is not supported
    mu = StructureTensor.from_products(2, {(1, 1, 1): 1.0, (1, 2, 2): 0.5})
    assert [w.triples for w in support_weights(mu, 0.5)] == [((1, 1, 1),)]
    assert [w.triples for w in support_weights(mu, 0.49)] == [((1, 1, 1), (1, 2, 2))]


CASES = settings(max_examples=60, deadline=None, database=None)
weight_sets = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.lists(st.integers(min_value=-2, max_value=2), min_size=d, max_size=d),
                       min_size=1, max_size=5))


@CASES
@given(pts=weight_sets, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_min_norm_point_on_integer_weights_against_the_oracle(pts, seed):
    from conftest import oracle_min_norm

    pts = np.asarray(pts, dtype=float)
    res = min_norm_point(pts)
    oracle = oracle_min_norm(pts)
    assert res.certificate_gap >= -1e-9
    assert float(res.point @ res.point) <= float(oracle @ oracle) + 1e-9  # the oracle point is feasible
    assert np.linalg.norm(res.point - oracle) < 1e-4
    # duplicated and reordered copies of the set have the same min-norm point
    rng = np.random.default_rng(seed)
    dup = pts[rng.integers(0, len(pts), size=int(rng.integers(1, 3)))]
    mixed = np.vstack([pts, dup])[rng.permutation(len(pts) + len(dup))]
    again = min_norm_point(mixed)
    assert again.certificate_gap >= -1e-9
    assert np.allclose(again.point, res.point, atol=1e-9)


def _active(res) -> list[int]:
    return [int(i) for i in np.flatnonzero(res.coefficients)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@CASES
@given(pts=weight_sets)
def test_exact_min_norm_point_matches_wolfe_and_passes_exact_kkt(pts):
    res = min_norm_point(pts)
    beta = exact_min_norm_point([tuple(p) for p in pts], _active(res))
    assert beta is not None
    assert all(isinstance(b, Fraction) for b in beta)
    assert np.allclose([float(b) for b in beta], res.point, rtol=0.0, atol=1e-12)
    norm = _dot(beta, beta)
    assert all(_dot(p, beta) >= norm for p in pts)
    assert all(_dot(pts[i], beta) == norm for i in _active(res))


tensor_weight_sets = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * 3),
                       min_size=1, max_size=6).map(
        lambda triples: sorted({tuple(int(x == k) - int(x == i) - int(x == j) for x in range(n))
                                for i, j, k in triples})))


@CASES
@given(vectors=tensor_weight_sets)
def test_degeneration_witness_separates_the_active_weights(vectors):
    res = min_norm_point(vectors)
    active = _active(res)
    beta = exact_min_norm_point(vectors, active)
    assert beta is not None
    exponents = degeneration_witness(vectors, active, beta)
    if exponents is not None:
        assert all(isinstance(a, int) for a in exponents)
        assert all(_dot(exponents, vectors[i]) == 0 for i in active)
        assert all(_dot(exponents, v) > 0 for i, v in enumerate(vectors) if i not in active)


def test_degeneration_witness_of_a_4_63():
    vectors = [w.diagonal for w in support_weights(builtin("A_4_63").tensor)]
    assert vectors == [(-1, -1, 1, 0), (-1, 0, -1, 1), (0, -2, 0, 1)]
    res = min_norm_point(vectors)
    assert _active(res) == [0, 1]   # the third weight is on the hyperplane, off the minimal face
    beta = exact_min_norm_point(vectors, [0, 1])
    assert beta == (-1, Fraction(-1, 2), 0, Fraction(1, 2))
    assert _dot(vectors[2], beta) == _dot(beta, beta)
    exponents = degeneration_witness(vectors, [0, 1], beta)
    assert [_dot(exponents, v) for v in vectors][:2] == [0, 0]
    assert _dot(exponents, vectors[2]) > 0


def test_no_witness_when_the_active_set_is_smaller_than_the_minimal_face():
    # a square face: beta = (0, -1/2, 0, -1/2) is the midpoint of both
    # diagonals, so it lies inside the square, but Wolfe keeps only one
    # diagonal.  No exponent vector vanishes on that diagonal and is positive
    # on the other two corners (they sum to the same point), and truncating
    # to two corners would leave the orbit closure
    square = [(-1, -1, 1, 0), (0, -1, 0, 0), (1, 0, -1, -1), (0, 0, 0, -1)]
    res = min_norm_point(square)
    active = _active(res)
    assert len(active) == 2
    beta = exact_min_norm_point(square, active)
    assert beta == (0, Fraction(-1, 2), 0, Fraction(-1, 2))
    assert all(_dot(v, beta) == _dot(beta, beta) for v in square)
    assert degeneration_witness(square, active, beta) is None


def test_exact_min_norm_point_on_an_affinely_dependent_active_set():
    # all four corners of the square face: beta is inside, with no unique coefficients
    square = [(-1, -1, 1, 0), (0, -1, 0, 0), (1, 0, -1, -1), (0, 0, 0, -1)]
    assert exact_min_norm_point(square, [0, 1, 2, 3]) == (0, Fraction(-1, 2), 0, Fraction(-1, 2))
    # a repeated point is the simplest dependence
    assert exact_min_norm_point([(-1, 0), (0, -1), (-1, 0)], [0, 1, 2]) == (Fraction(-1, 2), Fraction(-1, 2))


def test_exact_min_norm_point_rejects_a_wrong_active_set():
    vectors = [(-1, 0), (0, -1), (-2, 1)]
    assert exact_min_norm_point(vectors, [0, 1]) == (Fraction(-1, 2), Fraction(-1, 2))
    assert exact_min_norm_point(vectors, [0]) is None      # (0, -1) violates KKT
    assert exact_min_norm_point(vectors, [0, 2]) is None   # affine minimizer leaves the segment


def test_min_norm_point_examples():
    res = min_norm_point([[-2.0, 1.0]])
    assert np.allclose(res.point, [-2, 1])
    res = min_norm_point([[-1.0, 0.0], [0.0, -1.0]])
    assert np.allclose(res.point, [-0.5, -0.5], atol=1e-12)
    res = min_norm_point(np.eye(3))
    assert np.allclose(res.point, [1 / 3] * 3, atol=1e-12)
    # catalog support of A_3_7: two weights spanning the 5/6 stratum
    weights = [w.diagonal for w in support_weights(builtin("A_3_7").tensor)]
    res = min_norm_point(weights)
    assert np.allclose(np.sort(res.point), [-5 / 6, -1 / 3, 1 / 6], atol=1e-12)
    assert float(res.point @ res.point) == pytest.approx(5 / 6, abs=1e-12)


def test_min_norm_point_certificate_and_coefficients(rng):
    for _ in range(25):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        pts = rng.normal(size=(m, d))
        res = min_norm_point(pts)
        assert res.certificate_gap >= -1e-10
        assert res.coefficients.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(res.coefficients >= -1e-12)
        assert np.allclose(pts.T @ res.coefficients, res.point, atol=1e-9)


def test_min_norm_point_invariant_under_duplication_and_order(rng):
    pts = rng.normal(size=(5, 3))
    base = min_norm_point(pts).point
    doubled = min_norm_point(np.vstack([pts, pts[::-1]])).point
    shuffled = min_norm_point(pts[[4, 2, 0, 1, 3]]).point
    assert np.allclose(base, doubled, atol=1e-9)
    assert np.allclose(base, shuffled, atol=1e-9)


def test_min_norm_point_rejects_empty():
    with pytest.raises(ValueError):
        min_norm_point([])


def test_min_norm_point_against_grid_projection_oracle(rng):
    from conftest import oracle_min_norm

    for _ in range(20):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        pts = np.round(rng.normal(size=(m, d)) * 2, 1)
        ours = min_norm_point(pts).point
        oracle = oracle_min_norm(pts)
        assert np.linalg.norm(ours - oracle) < 1e-4


def test_beta_mu_examples():
    label = beta_mu(builtin("A_4_68").tensor)
    assert label.beta == (Fraction(-1), Fraction(-1), Fraction(1, 2), Fraction(1, 2))
    assert label.energy == Fraction(5, 2)
    for n in (2, 3, 5):
        label = beta_mu(hyperbolic(n))
        assert label.beta == (Fraction(-1),) + (Fraction(0),) * (n - 1)
        assert label.energy == 1


def test_beta_mu_equals_moment_spectrum_on_solitons():
    for name in names():
        entry = builtin(name)
        if not entry.distinguished:
            continue
        evals = np.sort(np.linalg.eigvalsh(moment_map(entry.tensor)))
        point = np.sort(min_norm_point([w.diagonal for w in support_weights(entry.tensor)]).point)
        assert np.allclose(evals, point, atol=1e-7), name
        assert beta_mu(entry.tensor).beta == entry.expected_beta, name


def test_energy_dominates_beta_mu_norm():
    # Cor. of the diagonal-moment convexity: E >= ||beta_mu||^2
    for name in names():
        mu = builtin(name).tensor
        res = min_norm_point([w.diagonal for w in support_weights(mu)])
        assert energy(mu) >= float(res.point @ res.point) - 1e-9, name


def test_beta_mu_norm_bounded_by_one_with_zero_derivation_eigenvalue():
    for name in names():
        entry = builtin(name)
        if not entry.distinguished:
            continue
        report = soliton_check(entry.tensor)
        evals = np.linalg.eigvalsh(report.D)
        if np.min(np.abs(evals)) < 1e-8:
            assert float(entry.expected_energy) <= 1.0 + 1e-12, name


def test_stratum_label_validation():
    with pytest.raises(ValueError):
        SolitonType((Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        SolitonType((Fraction(1), Fraction(-2)))
    label = SolitonType((Fraction(-1), Fraction(-1, 2), Fraction(1, 2)))
    assert str(label) == "(1<2<4;1,1,1)"


def test_stratum_of_examples(rng):
    label = stratum_of(builtin("A_4_63").tensor)
    assert label.beta == (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    assert label.energy == Fraction(3, 2)

    label = stratum_of(act(random_group_element(rng, 3, cond_max=10), builtin("A_3_1").tensor))
    assert label.beta == (Fraction(-1, 3),) * 3

    # basis-change invariance of the label; general linear moves are only
    # numerically stable on the open stratum, unitary ones everywhere
    mu = builtin("A_2_4").tensor
    g = random_group_element(rng, 2, cond_max=10)
    assert stratum_of(act(g, mu)) == stratum_of(mu)
    mu = builtin("A_3_13").tensor
    k = random_unitary(rng, 3)
    assert stratum_of(act(k, mu)) == stratum_of(mu)


def test_stratum_counts_match_tables():
    by_dim = {}
    for name in names():
        entry = builtin(name)
        by_dim.setdefault(entry.dim, set()).add(entry.expected_beta)
    assert {d: len(s) for d, s in by_dim.items()} == {1: 1, 2: 3, 3: 7, 4: 19}


def test_certificate_gap_is_the_membership_test():
    # <beta, alpha> >= ||beta||^2 over the support is exactly W_beta membership
    mu = builtin("A_4_63").tensor
    vecs = [w.diagonal for w in support_weights(mu)]
    res = min_norm_point(vecs)
    assert certificate_gap(res.point, vecs) >= -1e-10
    assert float(res.point @ res.point) == pytest.approx(1.5, abs=1e-9)

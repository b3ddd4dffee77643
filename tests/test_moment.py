import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jordanflow import algebra, catalog, flow, moment, weights
from jordanflow.algebra import StructureTensor, act, inf_act, soliton_product, tensor_inner
from jordanflow.catalog import builtin, heisenberg, hyperbolic, names, reproduce_tables
from jordanflow.flow import run_flow
from jordanflow.moment import (
    derivation_pairing,
    energy,
    energy_gradient,
    moment_map,
    moment_matrix,
    sl_residual,
    soliton_check,
    SolitonType,
    soliton_type,
)
from jordanflow.sampling import (
    random_group_element,
    random_hermitian,
    random_symmetric_tensor,
    random_unitary,
)
from jordanflow.snap import RationalSnapError
from jordanflow.stratify import beta_mu
from jordanflow.weights import MinNormPoint, support_weights


def test_moment_matrix_examples():
    assert np.allclose(moment_matrix(heisenberg(2)), np.diag([-2.0, 1.0]), atol=1e-12)
    assert np.allclose(moment_matrix(hyperbolic(2)), np.diag([-1.5, 0.0]), atol=1e-12)
    point = StructureTensor.from_products(1, {(1, 1, 1): 1.0})
    assert np.allclose(moment_matrix(point), [[-1.0]], atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_moment_matrix_families(n):
    heis = moment_matrix(heisenberg(n))
    assert np.allclose(heis, np.diag([-2.0, 1.0] + [0.0] * (n - 2)), atol=1e-12)
    hyp = moment_matrix(hyperbolic(n))
    expected = -((n + 1) / 2) * np.eye(n)
    expected[1:, 1:] += ((n + 1) / 2) * np.eye(n - 1)
    assert np.allclose(hyp, expected, atol=1e-12)


def test_moment_matrix_rejects_zero():
    with pytest.raises(ValueError):
        moment_matrix(StructureTensor.zero(3))


def test_moment_pairing_identity(rng):
    # <A.mu, mu> = Tr(M A) for Hermitian A is the definition of the moment map
    for n in (2, 4):
        mu = random_symmetric_tensor(rng, n)
        big_m = moment_matrix(mu)
        for _ in range(20):
            a = random_hermitian(rng, n)
            lhs = tensor_inner(inf_act(a, mu), mu)
            rhs = np.trace(big_m @ a)
            bound = 1e-9 * mu.norm_sq * np.linalg.norm(a)
            assert abs(lhs - rhs) <= bound


def test_trace_identity(rng):
    for n in (2, 3, 5):
        mu = random_symmetric_tensor(rng, n)
        assert np.trace(moment_matrix(mu)).real == pytest.approx(-mu.norm_sq, rel=1e-12)


def test_energy_examples():
    for n in range(2, 9):
        assert energy(heisenberg(n)) == pytest.approx(5.0, abs=1e-12)
        assert energy(hyperbolic(n)) == pytest.approx(1.0, abs=1e-12)


def test_energy_scale_invariance(rng):
    mu = random_symmetric_tensor(rng, 3)
    for c in (2.0, -0.3, 1.7j, 0.2 - 3.1j):
        assert energy(mu.scaled(c)) == pytest.approx(energy(mu), rel=1e-12)


def test_energy_lower_bound_and_equality_case():
    for name in names():
        mu = builtin(name).tensor
        m = moment_map(mu)
        e = energy(mu)
        n = mu.dim
        assert e >= 1.0 / n - 1e-12
        scalar = np.allclose(m, -np.eye(n) / n, atol=1e-9)
        assert scalar == (abs(e - 1.0 / n) < 1e-9)


def test_gradient_vanishes_at_catalog_solitons():
    for name in names():
        if name == "A_4_63":
            continue
        assert energy_gradient(builtin(name).tensor).norm <= 1e-8


def test_gradient_matches_finite_differences(rng):
    for n in (2, 3, 4):
        mu = random_symmetric_tensor(rng, n).normalized()
        xi = random_symmetric_tensor(rng, n)
        h = 1e-5
        plus = energy(StructureTensor(mu.table + h * xi.table))
        minus = energy(StructureTensor(mu.table - h * xi.table))
        fd = (plus - minus) / (2 * h)
        # real inner product of the real gradient with the direction
        analytic = tensor_inner(energy_gradient(mu), xi).real
        assert fd == pytest.approx(analytic, abs=1e-6 * max(1.0, abs(analytic)))


def test_unitary_equivariance(rng):
    for n in (2, 4):
        mu = random_symmetric_tensor(rng, n)
        k = random_unitary(rng, n)
        lhs = moment_matrix(act(k, mu))
        rhs = k @ moment_matrix(mu) @ k.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * mu.norm_sq


def test_soliton_check_on_catalog():
    for name in names():
        report = soliton_check(builtin(name).tensor)
        if name == "A_4_63":
            assert not report.is_soliton
        else:
            assert report.is_soliton, name
        assert derivation_pairing(builtin(name).tensor) < 1e-8
        # M is Hermitian and Tr M = -||mu||^2
        assert np.max(np.abs(report.M - report.M.conj().T)) < 1e-12
        assert report.c < 0


def test_criticality_checks_run_without_derivations(monkeypatch):
    """Only derivation_pairing and fingerprints need Der(mu): soliton_check, a flow and the
    table rows of dims 1-3 run with derivation_algebra refusing every call."""
    def refuse(mu):
        raise AssertionError("derivation_algebra was called")

    for module in (algebra, moment, flow, catalog):
        if hasattr(module, "derivation_algebra"):
            monkeypatch.setattr(module, "derivation_algebra", refuse)
    trace = run_flow(act(np.diag([1.3, 0.8, 1.1]), builtin("A_3_7").tensor))
    assert trace.converged and trace.terminal_type == builtin("A_3_7").expected_type
    assert reproduce_tables(dims=(1, 2, 3)).ok
    with pytest.raises(AssertionError, match="derivation_algebra"):
        derivation_pairing(builtin("A_3_7").tensor)


def test_generic_basis_change_destroys_criticality(rng):
    mu = builtin("A_3_7").tensor
    for _ in range(5):
        g = random_group_element(rng, 3, cond_max=10)
        report = soliton_check(act(g, mu))
        assert not report.is_soliton
        assert report.soliton_residual > 1e-8


def test_heisenberg_orbit_is_entirely_critical(rng):
    # the maximal-energy orbit is a single K-orbit up to scaling, so a basis
    # change never destroys criticality there
    mu = heisenberg(3)
    for _ in range(5):
        g = random_group_element(rng, 3, cond_max=10)
        report = soliton_check(act(g, mu))
        assert report.is_soliton
        assert report.energy == pytest.approx(5.0, abs=1e-10)


def test_lambda_family_moment_matrix():
    # n1 n2 = n3, n1 n3 = n4 with unit coefficients: M = diag(-4, -2, 0, 2)
    lam = StructureTensor.from_products(4, {(1, 2, 3): 1.0, (1, 3, 4): 1.0})
    assert np.allclose(moment_matrix(lam), np.diag([-4.0, -2.0, 0.0, 2.0]), atol=1e-12)
    assert soliton_check(lam).is_soliton


def test_soliton_type_examples():
    t = soliton_type(heisenberg(2))
    assert (t.degrees, t.multiplicities) == ((1, 2), (1, 1))
    assert t.beta_diagonal() == [Fraction(-2), Fraction(1)]
    assert t.energy == 5

    t = soliton_type(builtin("A_3_7").tensor)
    assert str(t) == "(0<1<2;1,1,1)"
    assert t.beta_diagonal() == [Fraction(-5, 6), Fraction(-1, 3), Fraction(1, 6)]
    assert t.energy == Fraction(5, 6)

    t = soliton_type(builtin("A_2_4").tensor)
    assert str(t) == "(0;2)"
    assert t.beta_diagonal() == [Fraction(-1, 2), Fraction(-1, 2)]
    assert t.energy == Fraction(1, 2)


def verdicts(mu: StructureTensor) -> tuple:
    """The soliton verdict, beta of a soliton, and every verdict that `jordan-flow invariants` prints."""
    report = soliton_check(mu)
    dims = algebra.power_dims(mu)
    rad = algebra.radical(mu)
    return (report.is_soliton, soliton_type(mu).beta if report.is_soliton else None,
            rad.dim, algebra.derivation_algebra(mu)[0], algebra.annihilator(mu).dim, dims, dims[-1] == 0,
            rad.dim == 0, algebra.is_associative(mu), algebra.has_unit(mu))


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(names()), seed=st.integers(min_value=0, max_value=2**32 - 1),
       k=st.integers(min_value=-40, max_value=40))
def test_soliton_and_invariant_verdicts_are_scale_free(name, seed, k):
    # the soliton residual is read on the unit-norm tensor and the rank
    # decisions cut relative to ||mu||, so no verdict moves with the scale
    entry = builtin(name)
    image = act(random_unitary(np.random.default_rng(seed), entry.dim), entry.tensor)
    assert verdicts(image.scaled(10.0**k)) == verdicts(image)


def test_soliton_type_rejects_non_soliton():
    with pytest.raises(ValueError):
        soliton_type(builtin("A_4_63").tensor)


def test_type_degrees_are_coprime_across_catalog():
    import math
    for name in names():
        entry = builtin(name)
        if entry.expected_type is None:
            continue
        t = soliton_type(entry.tensor)
        assert t == entry.expected_type, name
        g = 0
        for d in t.degrees:
            g = math.gcd(g, abs(d))
        assert g in (0, 1)
        assert sum(t.multiplicities) == entry.dim


def test_soliton_type_is_exact_beyond_denominator_64():
    mu = soliton_product(builtin("A_3_17").tensor, builtin("A_4_66").tensor)
    assert soliton_type(mu).beta_diagonal() == [
        Fraction(-13, 22), Fraction(-49, 88), Fraction(-7, 22), Fraction(-13, 88),
        Fraction(-7, 88), Fraction(13, 44), Fraction(35, 88)]


def test_soliton_type_of_unitary_images_of_a_4_68(rng):
    # degenerate spectrum: Wolfe's active set in the eigenframe is affinely dependent
    for _ in range(20):
        t = soliton_type(act(random_unitary(rng, 4), builtin("A_4_68").tensor))
        assert t.beta_diagonal() == [Fraction(-1), Fraction(-1), Fraction(1, 2), Fraction(1, 2)]


@pytest.fixture
def beta_memo():
    """An empty process-wide mask memo, emptied again afterwards so no stubbed result outlives the test."""
    weights._mask_face.cache_clear()
    yield weights._mask_face
    weights._mask_face.cache_clear()


def counting_wolfe(monkeypatch, calls, stub=None):
    solve = weights.min_norm_point

    def counting(vectors):
        calls.append(len(vectors))
        return (stub or solve)(vectors)

    monkeypatch.setattr(weights, "min_norm_point", counting)


def test_a_second_image_with_the_same_mask_runs_no_wolfe(rng, monkeypatch, beta_memo):
    # beta is Wolfe's min-norm point of the support weights, a function of the support mask alone
    mu = builtin("A_3_7").tensor
    first = soliton_type(act(random_unitary(rng, 3), mu))
    calls = []
    counting_wolfe(monkeypatch, calls)
    assert soliton_type(act(random_unitary(rng, 3), mu)) == first
    assert calls == []
    assert beta_memo.cache_info().currsize == 1


def test_a_memo_hit_is_certified_against_its_own_spectrum(monkeypatch, beta_memo):
    # a torus image keeps the mask, so beta comes from the memo, but its spectrum moved by ~1.5e-3
    mu = builtin("A_3_4").tensor
    assert str(soliton_type(mu)) == "(0<1;2,1)"
    nu = act(np.diag(np.exp([0.0, 1e-3, 2e-3])), mu)
    report = soliton_check(nu, tol=1e-2)
    assert report.is_soliton
    calls = []
    counting_wolfe(monkeypatch, calls)
    with pytest.raises(RationalSnapError, match="from the float spectrum, more than 0.0001"):
        soliton_type(nu, 1e-2)
    assert calls == []


def test_a_cached_kkt_failure_raises_afresh_each_time(monkeypatch, beta_memo):
    # Wolfe stubbed to stop on the longest weight, which is not the min-norm point
    def longest_vertex(vectors):
        pts = np.asarray(vectors, dtype=float)
        coeffs = np.zeros(len(pts))
        best = int(np.argmax(np.sum(pts**2, axis=1)))
        coeffs[best] = 1.0
        return MinNormPoint(pts[best], coeffs, 0.0, 1)

    calls = []
    counting_wolfe(monkeypatch, calls, longest_vertex)
    mu = builtin("A_3_7").tensor
    errors = []
    for _ in range(2):
        with pytest.raises(RationalSnapError) as info:
            soliton_type(mu)
        errors.append(info.value)
    assert [str(e) for e in errors] == ["Wolfe's active set fails the exact KKT check"] * 2
    assert errors[0] is not errors[1]
    assert len(calls) == 1


def test_the_flow_and_both_labels_share_one_wolfe_solve(monkeypatch, beta_memo):
    # A_3_7 flows from a mask that is also its label mask: the flow's bound,
    # the terminal's soliton_type and beta_mu all read the same Face
    mu = builtin("A_3_7").tensor
    calls = []
    counting_wolfe(monkeypatch, calls)
    trace = run_flow(mu)
    assert calls
    calls.clear()
    assert trace.terminal_type == soliton_type(mu) == beta_mu(mu)
    assert calls == []
    assert beta_memo.cache_info().currsize == 1


DISTINGUISHED = {d: [name for name in names(d) if builtin(name).distinguished] for d in (1, 2, 3, 4)}


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data(), n=st.integers(min_value=5, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_soliton_type_of_unitary_products_is_certified(data, n, seed):
    d = data.draw(st.integers(min_value=n - 4, max_value=4))
    a = builtin(data.draw(st.sampled_from(DISTINGUISHED[d]))).tensor
    b = builtin(data.draw(st.sampled_from(DISTINGUISHED[n - d]))).tensor
    mu = act(random_unitary(np.random.default_rng(seed), n), soliton_product(a, b))
    beta = soliton_type(mu).beta_diagonal()
    assert sum(beta) == -1
    # exact KKT over the support weights in the eigenframe of m, ascending like beta
    report = soliton_check(mu)
    evals, vecs = np.linalg.eigh(report.m)
    norm = sum(x * x for x in beta)
    for w in support_weights(act(vecs.conj().T, mu)):
        assert sum(x * y for x, y in zip(w.diagonal, beta)) >= norm
    # the snap distance obeys ||lambda - beta||^2 <= E - ||beta||^2
    assert sum((lam - float(x)) ** 2 for lam, x in zip(evals, beta)) <= report.energy - float(norm) + 1e-12


def test_soliton_type_semisimple_convention():
    t = SolitonType((Fraction(-1, 4),) * 4)
    assert (t.degrees, t.multiplicities) == ((0,), (4,))
    assert t.energy == Fraction(1, 4)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12), max_size=7))
def test_soliton_type_is_derived_from_beta(head):
    beta = tuple(sorted(head + [-1 - sum(head, Fraction(0))]))
    t = SolitonType(beta)
    assert list(t.degrees) == sorted(set(t.degrees))
    assert len(t.degrees) == len(t.multiplicities) == len(set(beta))
    assert math.gcd(*t.degrees) == (1 if len(t.degrees) > 1 else 0)
    assert sum(t.multiplicities) == t.dim == len(beta)
    assert t.energy == sum(b * b for b in beta)
    # d_i is a positive multiple of b_i + ||beta||^2
    shifted = [b + t.energy for b in sorted(set(beta))]
    k = max(range(len(shifted)), key=lambda i: abs(shifted[i]))
    assert all(d * shifted[k] == t.degrees[k] * x for d, x in zip(t.degrees, shifted))
    assert t.degrees[k] * shifted[k] >= 0
    if len(set(beta)) > 1:
        with pytest.raises(ValueError):
            SolitonType(beta[::-1])
    with pytest.raises(ValueError):
        SolitonType(beta[:-1] + (beta[-1] + 1,))


def test_soliton_data_is_scale_invariant():
    mu = builtin("A_3_7").tensor
    for c in (3.0, 0.01, 2.0j):
        scaled = mu.scaled(c)
        assert soliton_check(scaled).is_soliton
        assert soliton_type(scaled) == soliton_type(mu)


def test_sl_residual_examples():
    assert sl_residual(builtin("A_3_1").tensor) < 1e-12
    assert sl_residual(builtin("A_3_2").tensor) < 1e-9
    for n in (2, 4):
        # brute-force value from the explicit diagonal moment matrix
        diag = np.array([-2.0, 1.0] + [0.0] * (n - 2)) + 1.0 / n
        assert sl_residual(heisenberg(n)) == pytest.approx(np.linalg.norm(diag), rel=1e-12)


def test_diagonal_moment_weight_decomposition():
    # when M is diagonal it equals the |coefficient|^2-weighted sum of the
    # supported weight vectors, ordered pairs counted separately
    for name in names():
        mu = builtin(name).tensor
        big_m = moment_matrix(mu)
        assert np.max(np.abs(big_m - np.diag(np.diag(big_m)))) < 1e-9
        n = mu.dim
        recon = np.zeros(n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    w = np.zeros(n)
                    w[i] -= 1
                    w[j] -= 1
                    w[k] += 1
                    recon += abs(mu.table[i, j, k]) ** 2 * w
        assert np.max(np.abs(np.diag(big_m).real - recon)) < 1e-9 * max(1.0, mu.norm_sq)


def test_moment_report_json_shape():
    payload = soliton_check(heisenberg(2)).to_json_dict()
    assert set(payload) == {
        "dim", "M", "m_eigenvalues", "energy", "c",
        "soliton_residual", "is_soliton",
    }
    assert payload["energy"] == pytest.approx(5.0)

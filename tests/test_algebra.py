import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_jordan_defect, eig_expm
from jordanflow.algebra import (
    MAX_COEFFICIENT_SCALE,
    MAX_DOCUMENT_DIM,
    StructureTensor,
    Subspace,
    act,
    adjoin_unit,
    annihilator,
    associator_defect,
    centroid,
    derivation_algebra,
    direct_product,
    dump_tensor,
    evaluate,
    from_json_dict,
    has_unit,
    inf_act,
    is_associative,
    is_decomposable,
    is_jordan,
    is_semisimple,
    is_simple,
    jordan_defect,
    left_mult,
    load_tensor,
    power_dims,
    product_rank,
    radical,
    soliton_product,
    soliton_unitalize,
    tensor_inner,
    trace_form,
    unit_element,
)
from jordanflow.catalog import builtin, heisenberg, hyperbolic, names
from jordanflow.moment import moment_matrix
from jordanflow.sampling import random_group_element, random_symmetric_tensor, random_unitary

E1, E2, E3 = np.eye(3, dtype=complex)[:3]


def test_evaluate_heisenberg_square():
    mu = heisenberg(2)
    out = evaluate(mu, [1, 0], [1, 0])
    assert np.allclose(out, [0, 1])


def test_evaluate_hyperbolic_half_action():
    mu = hyperbolic(2)
    assert np.allclose(evaluate(mu, [1, 0], [0, 1]), [0, 0.5])


def test_evaluate_zero_and_bilinear(rng):
    mu = random_symmetric_tensor(rng, 4)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    y = rng.normal(size=4) + 1j * rng.normal(size=4)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.allclose(evaluate(mu, np.zeros(4), x), 0)
    assert np.allclose(evaluate(mu, x, y), evaluate(mu, y, x))
    lhs = evaluate(mu, 2.5 * x + 1j * z, y)
    rhs = 2.5 * evaluate(mu, x, y) + 1j * evaluate(mu, z, y)
    assert np.allclose(lhs, rhs)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(heisenberg(2), np.zeros(3), np.zeros(2))


def test_left_mult_examples():
    assert np.allclose(left_mult(hyperbolic(2), [1, 0]), np.diag([1, 0.5]))
    assert np.allclose(left_mult(heisenberg(2), [0, 1]), np.zeros((2, 2)))
    ln1 = left_mult(heisenberg(2), [1, 0])
    assert np.allclose(ln1 @ np.array([1, 0]), [0, 1])
    assert np.allclose(ln1 @ np.array([0, 1]), [0, 0])


def test_jordan_defect_matches_brute_force(rng):
    for n in (2, 3):
        mu = random_symmetric_tensor(rng, n)
        assert jordan_defect(mu) == pytest.approx(brute_jordan_defect(mu), rel=1e-10)


def test_jordan_defect_on_associative_is_zero():
    assert jordan_defect(heisenberg(4)) < 1e-12
    assert is_jordan(builtin("A_3_7").tensor)


def test_jordan_defect_positive_examples():
    # an idempotent acting with eigenvalue outside {0, 1/2, 1} breaks the identity
    broken = StructureTensor.from_products(2, {(1, 1, 1): 1.0, (1, 2, 2): 0.3})
    expected = brute_jordan_defect(broken)
    assert expected > 0.05
    assert jordan_defect(broken) == pytest.approx(expected, rel=1e-10)
    cycle = StructureTensor.from_products(2, {(1, 1, 2): 1.0, (2, 2, 1): 1.0})
    assert brute_jordan_defect(cycle) == pytest.approx(3.0)
    assert jordan_defect(cycle) == pytest.approx(3.0)
    assert not is_jordan(cycle)


def test_jordan_invariant_under_basis_change(rng):
    mu = builtin("A_3_10").tensor
    for _ in range(3):
        g = random_group_element(rng, 3, cond_max=20)
        assert jordan_defect(act(g, mu)) < 1e-9


@settings(max_examples=60, deadline=None, database=None)
@given(name=st.sampled_from(names()), seed=st.integers(min_value=0, max_value=2**32 - 1),
       k=st.integers(min_value=-40, max_value=40))
def test_jordan_and_associative_verdicts_are_scale_free(name, seed, k):
    # the Jordan defect is cubic and the associator quadratic in mu, so each is
    # measured against ||mu||^3 or ||mu||^2; an absolute bound called every
    # small tensor Jordan and associative
    rng = np.random.default_rng(seed)
    entry = builtin(name)
    image = act(random_unitary(rng, entry.dim), entry.tensor)
    assert is_jordan(image) and is_associative(image) == entry.flags.associative
    for mu in (image, random_symmetric_tensor(rng, entry.dim)):
        scaled = mu.scaled(10.0**k)
        assert is_jordan(scaled) == is_jordan(mu)
        assert is_associative(scaled) == is_associative(mu)


def test_trace_form_examples():
    assert np.allclose(trace_form(builtin("A_2_4").tensor), np.diag([1.0, 1.0]))
    assert np.allclose(trace_form(heisenberg(2)), np.zeros((2, 2)))
    assert np.allclose(trace_form(builtin("A_2_2").tensor), np.array([[1.5, 0], [0, 0]]))


def test_radical_examples():
    assert radical(builtin("A_2_4").tensor).dim == 0
    assert is_semisimple(builtin("A_2_4").tensor)
    full = radical(heisenberg(4))
    assert full.dim == 4
    rad25 = radical(builtin("A_2_5").tensor)
    assert rad25.dim == 1
    assert rad25.contains(np.array([0, 1], dtype=complex))


def test_radical_is_an_ideal():
    for name in ("A_2_5", "A_3_7", "A_4_24", "A_4_45"):
        mu = builtin(name).tensor
        rad = radical(mu)
        for i in range(mu.dim):
            for v in rad.basis:
                prod = evaluate(mu, np.eye(mu.dim)[i], v)
                assert rad.contains(prod, tol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_derivation_dims_of_families(n):
    dim_heis, _, _ = derivation_algebra(heisenberg(n))
    dim_hyp, _, _ = derivation_algebra(hyperbolic(n))
    assert dim_heis == n * n - 2 * n + 2
    assert dim_hyp == n * n - n


def test_derivation_dim_zero_tensor():
    dim, basis, _ = derivation_algebra(StructureTensor.zero(3))
    assert dim == 9
    assert basis.shape == (9, 3, 3)


def test_derivations_kill_the_tensor():
    for name in ("A_3_7", "A_4_39", "A_2_3"):
        mu = builtin(name).tensor
        _, basis, _ = derivation_algebra(mu)
        for der in basis:
            assert inf_act(der, mu).norm <= 1e-9 * mu.norm


def test_annihilator_examples():
    ann = annihilator(heisenberg(3))
    assert ann.dim == 2
    assert ann.contains(np.array([0, 1, 0], dtype=complex))
    assert ann.contains(np.array([0, 0, 1], dtype=complex))
    assert annihilator(builtin("A_2_4").tensor).dim == 0
    assert annihilator(hyperbolic(4)).dim == 0


def test_power_dims_examples():
    assert power_dims(builtin("A_4_63").tensor) == [2, 1, 0]
    assert power_dims(heisenberg(4)) == [1, 0]
    assert power_dims(builtin("A_1_1").tensor) == [1]
    # the flow limit family of A_4_63 (d = 0) shares its power structure and
    # product rank; the derivation dimension is what tells them apart
    limit = builtin("A_4_64").tensor
    assert power_dims(limit) == [2, 1, 0]
    assert product_rank(limit) == product_rank(builtin("A_4_63").tensor) == 2
    assert derivation_algebra(limit)[0] != derivation_algebra(builtin("A_4_63").tensor)[0]


def test_act_identity_and_composition(rng):
    mu = builtin("A_3_7").tensor
    assert act(np.eye(3), mu).allclose(mu)
    g = random_group_element(rng, 3, cond_max=10)
    h = random_group_element(rng, 3, cond_max=10)
    assert act(g, act(h, mu)).allclose(act(g @ h, mu), atol=1e-9)
    assert act(g, act(np.linalg.inv(g), mu)).allclose(mu, atol=1e-10)


def test_act_singular_matrix_rejected():
    with pytest.raises(np.linalg.LinAlgError):
        act(np.zeros((2, 2)), heisenberg(2))


def test_unitary_action_preserves_norm(rng):
    mu = random_symmetric_tensor(rng, 4)
    k = random_unitary(rng, 4)
    assert act(k, mu).norm == pytest.approx(mu.norm, rel=1e-12)


def test_inf_act_identity_is_minus_mu(rng):
    mu = random_symmetric_tensor(rng, 3)
    assert inf_act(np.eye(3), mu).allclose(mu.scaled(-1), atol=1e-12)


def test_inf_act_is_derivative_of_act(rng):
    mu = random_symmetric_tensor(rng, 3).normalized()
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = 1e-5
    diff = (act(eig_expm(h * a), mu).table - act(eig_expm(-h * a), mu).table) / (2 * h)
    assert np.max(np.abs(diff - inf_act(a, mu).table)) < 1e-6


def test_degeneration_to_heisenberg_pattern():
    # squeeze a unital algebra along x, x^2: only the square survives
    mu = builtin("A_3_7").tensor
    perm = np.eye(3)[:, [2, 0, 1]]  # basis order (n1, n2, e1)
    mu = act(perm, mu)
    for t in (1e-2, 1e-3):
        g = np.diag([t, t**2, t**2]).astype(complex)
        moved = act(np.linalg.inv(g), mu)
        assert np.linalg.norm(moved.table - heisenberg(3).table) < 3 * t


def test_direct_product_examples():
    one = builtin("A_1_1").tensor
    assert direct_product(one, one).allclose(builtin("A_2_4").tensor)
    padded = direct_product(one, StructureTensor.zero(1))
    assert padded.allclose(builtin("A_2_5").tensor)


def test_soliton_product_scale():
    combined = soliton_product(builtin("A_2_3").tensor, builtin("A_1_1").tensor)
    # block for the one-dimensional factor picks up sqrt(5), as in A_3_15
    assert combined.table[2, 2, 2] == pytest.approx(np.sqrt(5), rel=1e-12)
    assert combined.table[0, 0, 1] == pytest.approx(1.0)
    from jordanflow.moment import soliton_check
    assert soliton_check(combined).is_soliton


def test_unit_element_detection():
    u = unit_element(builtin("A_2_4").tensor)
    assert u is not None
    assert np.allclose(u, [1, 1])
    assert not has_unit(heisenberg(3))
    assert has_unit(builtin("A_3_7").tensor)


def test_adjoin_unit_examples():
    lifted = adjoin_unit(StructureTensor.zero(3))
    m = moment_matrix(lifted)
    assert m[3, 3] == pytest.approx(-7.0)
    assert np.allclose(m[:3, :3], np.zeros((3, 3)), atol=1e-12)
    with pytest.raises(ValueError):
        adjoin_unit(builtin("A_2_4").tensor)


def test_soliton_unitalize_matches_catalog():
    lifted = soliton_unitalize(builtin("A_2_3").tensor)
    from jordanflow.moment import energy, soliton_check
    assert energy(lifted) == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert soliton_check(lifted).is_soliton
    evals = np.sort(np.linalg.eigvalsh(moment_matrix(lifted) / lifted.norm_sq))
    assert np.allclose(evals, [-5 / 6, -1 / 3, 1 / 6], atol=1e-12)


def test_associativity_checker():
    assert is_associative(builtin("A_4_66").tensor)
    assert not is_associative(hyperbolic(3))
    assert associator_defect(heisenberg(3)) < 1e-12


def test_centroid_and_decomposability():
    assert is_decomposable(builtin("A_2_4").tensor)
    assert is_decomposable(builtin("A_2_5").tensor)
    assert not is_decomposable(heisenberg(2))
    assert not is_decomposable(builtin("A_3_7").tensor)
    assert centroid(builtin("A_2_4").tensor).shape[0] == 2


def test_decomposability_of_products_with_defective_centroid_spectra():
    # the centroid of A_4_39 x A_3_10 has a 4-fold defective eigenvalue, which
    # roundoff spreads by ~eps^(1/4); the split must still be found
    assert is_decomposable(direct_product(builtin("A_4_39").tensor, builtin("A_3_10").tensor))
    product = direct_product(builtin("A_4_38").tensor, builtin("A_4_43").tensor)
    for seed in range(4):
        assert is_decomposable(act(random_unitary(np.random.default_rng(seed), 8), product))


def test_decomposability_of_unitary_images_matches_the_tables():
    # the centroid draw is fixed but arbitrary, so its verdicts are checked on
    # orbits: a unitary image of every entry and of direct products at n = 5..8
    rng = np.random.default_rng(100)
    for name in names():
        entry = builtin(name)
        mu = act(random_unitary(rng, entry.tensor.dim), entry.tensor)
        assert is_decomposable(mu) == entry.flags.decomposable, name
    by_dim = {d: names(d) for d in range(1, 5)}
    for n in range(5, 9):
        for _ in range(8):
            first = int(rng.integers(n - 4, 5))
            a, b = (by_dim[d][int(rng.integers(len(by_dim[d])))] for d in (first, n - first))
            product = direct_product(builtin(a).tensor, builtin(b).tensor)
            assert is_decomposable(act(random_unitary(rng, n), product)), (a, b)


def test_simplicity():
    assert is_simple(builtin("A_1_1").tensor)
    assert is_simple(builtin("A_3_2").tensor)
    assert not is_simple(builtin("A_2_4").tensor)   # two factors
    assert not is_simple(heisenberg(2))             # not semisimple


def test_tensor_inner_matches_norm(rng):
    mu = random_symmetric_tensor(rng, 3)
    assert tensor_inner(mu, mu).real == pytest.approx(mu.norm_sq, rel=1e-12)


def test_structure_tensor_validation():
    with pytest.raises(ValueError):
        StructureTensor(np.zeros((2, 2)))
    bad = np.zeros((2, 2, 2), dtype=complex)
    bad[0, 1, 0] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        StructureTensor(bad)
    with pytest.raises(ValueError):
        StructureTensor.from_products(2, {(2, 1, 1): 1.0})


@pytest.mark.parametrize("scale", [1e4, 1e5])
def test_symmetry_check_scales_with_the_coefficients(scale):
    # the roundoff of a unitary image grows with the coefficients; an absolute
    # bound rejected most of these images as asymmetric
    mu = builtin("A_4_1").tensor.scaled(scale)
    rng = np.random.default_rng(0)
    for _ in range(50):
        image = act(random_unitary(rng, 4), mu)
        assert image.norm == pytest.approx(mu.norm, rel=1e-12)
    # a real asymmetry at the same scale is still rejected
    bad = mu.table.copy()
    bad[0, 1, 2] += 1e-9 * scale
    with pytest.raises(ValueError, match="symmetric"):
        StructureTensor(bad)


def test_tensor_is_immutable():
    mu = heisenberg(2)
    with pytest.raises(ValueError):
        mu.table[0, 0, 0] = 1.0


@settings(max_examples=200, deadline=None, database=None)
@given(k=st.integers(min_value=1, max_value=5), extra=st.integers(min_value=0, max_value=3),
       scale=st.sampled_from([0.0, 1e-12, 3e-11, 1e-10, 3e-10, 1e-6, 4e-6, 1e-5, 3e-5]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_subspace_accepts_what_allclose_accepts(k, extra, scale, seed):
    """The orthonormality check keeps np.allclose(G, I, atol=1e-10)'s acceptance set."""
    rng = np.random.default_rng(seed)
    basis = np.eye(k, k + extra, dtype=complex) + scale * rng.normal(size=(k, k + extra))
    expected = np.allclose(basis @ basis.conj().T, np.eye(k), atol=1e-10)
    try:
        Subspace(k + extra, basis)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected


def test_norm_sq_is_read_once():
    mu = random_symmetric_tensor(np.random.default_rng(3), 4)
    assert mu.norm_sq == float(np.sum(np.abs(mu.table) ** 2))
    assert mu.norm_sq is mu.norm_sq


def test_json_round_trip_is_bit_identical():
    mu = builtin("A_4_53").tensor
    again = load_tensor(dump_tensor(mu))
    assert np.array_equal(again.table, mu.table)


def test_json_rejects_lower_triangle():
    doc = {"dim": 2, "products": [{"i": 2, "j": 1, "k": 1, "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError, match="i <= j"):
        from_json_dict(doc)


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        load_tensor("not json")
    with pytest.raises(ValueError):
        from_json_dict({"dim": 0, "products": []})
    with pytest.raises(ValueError, match="between 1 and 16"):
        from_json_dict({"dim": MAX_DOCUMENT_DIM + 1, "products": []})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "products": [{"i": 1, "j": 1, "k": 3, "re": 1.0}]})
    with pytest.raises(ValueError, match="duplicate"):
        from_json_dict({"dim": 2, "products": [
            {"i": 1, "j": 1, "k": 2, "re": 1.0}, {"i": 1, "j": 1, "k": 2, "re": 2.0}]})
    with pytest.raises(ValueError, match="malformed product entry"):
        from_json_dict({"dim": 2, "products": [{"i": 1, "k": 2, "re": 1.0}]})
    with pytest.raises(ValueError, match="malformed product entry"):
        from_json_dict({"dim": 2, "products": [{"i": 1, "j": 1, "k": 2, "re": "one"}]})
    with pytest.raises(ValueError, match="malformed product entry"):
        from_json_dict({"dim": 2, "products": [None]})
    with pytest.raises(ValueError, match="must be a list"):
        from_json_dict({"dim": 2, "products": 3})
    # integer fields are JSON integers (an integral float passes), never a bool, a
    # fraction or a string; coefficients are JSON numbers, never a bool
    for doc in ({"dim": 2.7, "products": []}, {"dim": True, "products": []},
                {"dim": "2", "products": []}):
        with pytest.raises(ValueError, match="malformed tensor document"):
            from_json_dict(doc)
    for bad in ({"i": 1.9}, {"j": True}, {"k": "2"}, {"re": True}, {"im": False}, {"re": "1.0"}):
        entry = {"i": 1, "j": 1, "k": 2, "re": 1.0, **bad}
        with pytest.raises(ValueError, match="malformed product entry"):
            from_json_dict({"dim": 2, "products": [entry]})
    assert from_json_dict({"dim": 2.0, "products": [{"i": 1.0, "j": 1, "k": 2, "re": 1}]}).dim == 2


def test_json_refuses_coefficients_outside_the_scale_bound():
    def doc(*values):
        return {"dim": 2, "products": [{"i": 1, "j": 1, "k": k, "re": re, "im": im}
                                       for k, (re, im) in enumerate(values, start=1)]}
    for values in ([(1e41, 0.0)], [(0.0, -1e41)], [(1e-41, 0.0)], [(1e-41, 0.0), (0.0, 1e-45)]):
        with pytest.raises(ValueError, match="largest coefficient magnitude"):
            from_json_dict(doc(*values))
    # the scale is the largest |re| or |im|: a tiny coefficient beside a normal one is kept
    for values in ([(MAX_COEFFICIENT_SCALE, 0.0)], [(0.0, 1 / MAX_COEFFICIENT_SCALE)],
                   [(1.0, 0.0), (1e-300, 0.0)], [(0.0, 0.0)]):
        assert from_json_dict(doc(*values)).dim == 2
    assert from_json_dict({"dim": 3, "products": []}).norm_sq == 0.0


LOADER_CASES = settings(max_examples=200, deadline=None, database=None)
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)
# product entries and documents built from the real keys, so that most
# examples get past the first lookup and reach the per-entry checks
entry_values = st.integers(min_value=-1, max_value=5) | st.floats() | st.text(max_size=2) | st.none()
json_entries = (
    st.fixed_dictionaries({key: entry_values for key in ("i", "j", "k", "re")},
                          optional={"im": entry_values})
    | st.dictionaries(st.sampled_from(["i", "j", "k", "re", "im"]), entry_values, max_size=5)
)
json_documents = st.one_of(
    json_values,
    st.fixed_dictionaries({"dim": json_scalars, "products": json_values}),
    st.fixed_dictionaries({"dim": st.integers(min_value=1, max_value=4),
                           "products": st.lists(json_entries | json_values, max_size=6)}),
)


@LOADER_CASES
@given(doc=json_documents)
def test_loader_raises_only_value_error(doc):
    for load in (lambda: from_json_dict(doc), lambda: load_tensor(json.dumps(doc))):
        try:
            mu = load()
        except ValueError:
            continue
        assert isinstance(mu, StructureTensor)


@LOADER_CASES
@given(n=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1),
       density=st.floats(min_value=0.0, max_value=1.0))
def test_json_round_trip_is_exact_on_random_tensors(n, seed, density):
    rng = np.random.default_rng(seed)
    t = random_symmetric_tensor(rng, n).table
    keep = rng.random((n, n, n)) < density
    mu = StructureTensor(t * (keep & np.swapaxes(keep, 0, 1)))
    again = load_tensor(dump_tensor(mu))
    assert again.dim == n
    assert np.array_equal(again.table, mu.table)


@pytest.mark.parametrize("shape", [(0, 0, 0), (2, 2, 3), (2, 2)])
def test_structure_tensor_needs_a_nonempty_cube(shape):
    with pytest.raises(ValueError, match="needs shape"):
        StructureTensor(np.zeros(shape))


def test_non_finite_coefficients_are_named_before_symmetry():
    with pytest.raises(ValueError, match="non-finite"):
        load_tensor('{"dim": 2, "products": [{"i": 1, "j": 2, "k": 1, "re": NaN}]}')
    table = np.zeros((2, 2, 2), dtype=complex)
    table[0, 1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        StructureTensor(table)


def test_json_output_is_sorted_and_stable():
    text = dump_tensor(heisenberg(2))
    data = json.loads(text)
    assert list(data) == ["dim", "products"]
    assert data["products"] == [{"i": 1, "im": 0.0, "j": 1, "k": 2, "re": 1.0}]

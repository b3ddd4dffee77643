import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from jordanflow import algebra, catalog
from jordanflow.algebra import (
    StructureTensor,
    act,
    direct_product,
    has_unit,
    is_associative,
    is_decomposable,
    is_jordan,
    is_nilpotent,
    is_semisimple,
    is_simple,
    jordan_defect,
)
from jordanflow.catalog import (
    builtin,
    fingerprint,
    heisenberg,
    hyperbolic,
    match,
    names,
    regular_double,
    reproduce_tables,
)
from jordanflow.flow import run_flow
from jordanflow.moment import energy, moment_map, soliton_check
from jordanflow.sampling import random_group_element
from jordanflow.stratify import stratum_of


def test_catalog_inventory():
    assert len(names()) == 97
    assert [len(names(d)) for d in (1, 2, 3, 4)] == [1, 5, 19, 72]
    with pytest.raises(ValueError, match="unknown catalog name"):
        builtin("A_9_1")


def test_family_coincidences():
    assert heisenberg(2).allclose(builtin("A_2_3").tensor)
    assert hyperbolic(2).allclose(builtin("A_2_2").tensor)
    assert energy(heisenberg(7)) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ValueError):
        heisenberg(1)
    with pytest.raises(ValueError):
        hyperbolic(0)


def test_every_entry_is_jordan():
    for name in names():
        assert jordan_defect(builtin(name).tensor) <= 1e-9, name


def test_flags_recomputed_from_scratch():
    for name in names():
        entry = builtin(name)
        mu = entry.tensor
        assert is_associative(mu) == entry.flags.associative, name
        assert is_simple(mu) == entry.flags.simple, name
        assert is_semisimple(mu) == entry.flags.semisimple, name
        assert is_nilpotent(mu) == entry.flags.nilpotent, name
        assert has_unit(mu) == entry.flags.unital, name
        assert is_decomposable(mu) == entry.flags.decomposable, name
        assert entry.flags.decomposable == (entry.decomposition is not None), name


def test_semisimple_entries_match_markers():
    marked = {n for n in names() if builtin(n).flags.semisimple}
    assert marked == {"A_1_1", "A_2_4", "A_3_1", "A_3_2", "A_4_1", "A_4_2", "A_4_3"}


def test_printed_precision_entries_are_resolved():
    # re-solving the published family parameters keeps each entry in its
    # stratum: 1/2, 1/2 and 5/11 (the 5/11 value is what the flow produces;
    # the published prose quotes 5/9 for the third entry in another basis)
    expected = {"A_4_16": 0.5, "A_4_17": 0.5, "A_4_25": 5 / 11}
    for name, stratum_energy in expected.items():
        entry = builtin(name)
        raw = soliton_check(entry.printed_tensor).soliton_residual
        refined = soliton_check(entry.tensor).soliton_residual
        assert 1e-6 < raw < 1e-3
        assert refined < 1e-12
        assert energy(entry.tensor) == pytest.approx(stratum_energy, abs=1e-6)
        assert "note" in entry.provenance


def test_provenance_strings():
    entry = builtin("A_3_2")
    assert entry.provenance["2,2,1"] == "sqrt(5)/2"
    entry = builtin("A_4_53")
    assert "sqrt(345)" in entry.provenance["alpha"]


def test_fingerprint_discrete_fields_are_basis_change_invariant(rng):
    # every field except the flow-based stratum energy survives any
    # well-conditioned basis change; the stratum energy is only numerically
    # stable under unitary moves (generic-position flows can fall off the
    # measure-zero stable manifold of a non-minimal stratum)
    for name in ("A_3_7", "A_2_3"):
        mu = builtin(name).tensor
        base = fingerprint(mu)
        g = random_group_element(rng, mu.dim, cond_max=10)
        moved = fingerprint(act(g, mu))
        assert (moved.dim_der, moved.power_dims, moved.product_rank) == \
            (base.dim_der, base.power_dims, base.product_rank)
        assert (moved.is_nilpotent, moved.is_semisimple, moved.is_associative, moved.has_unit) == \
            (base.is_nilpotent, base.is_semisimple, base.is_associative, base.has_unit)


def test_fingerprint_invariant_under_unitary_change(rng):
    # unitary moves of critical points keep criticality, so the flow-based
    # stratum energy survives; long flows (A_4_63) are only protected in
    # their axis-aligned form, where the direction matrices stay diagonal
    from jordanflow.sampling import random_unitary
    for name in ("A_3_7", "A_2_3", "A_4_68"):
        mu = builtin(name).tensor
        base = fingerprint(mu)
        moved = fingerprint(act(random_unitary(rng, mu.dim), mu))
        assert moved.matches(base)


def test_match_examples(rng):
    from jordanflow.sampling import random_unitary
    mu = builtin("A_3_7").tensor
    assert "A_3_7" in match(act(random_unitary(rng, 3), mu))
    chain = builtin("A_1_1").tensor
    for _ in range(3):
        chain = direct_product(chain, builtin("A_1_1").tensor)
    assert "A_4_3" in match(chain)


def test_match_excludes_non_distinguished_start():
    trace = run_flow(builtin("A_4_63").tensor)
    found = match(trace.terminal)
    assert "A_4_63" not in found
    assert "A_4_64" in found


def test_regular_double_examples():
    doubled = regular_double(builtin("A_1_1").tensor)
    assert doubled.allclose(builtin("A_2_1").tensor)
    doubled = regular_double(builtin("A_2_4").tensor)
    assert doubled.allclose(builtin("A_4_22").tensor)
    m = moment_map(doubled)
    # the moment map is tied to the stratum (0<1;2,2), not to a scalar matrix
    assert np.allclose(np.sort(np.linalg.eigvalsh(m)), [-0.5, -0.5, 0.0, 0.0], atol=1e-12)
    label = stratum_of(doubled)
    assert label.beta == builtin("A_4_22").expected_beta


def test_reproduce_low_dimensions():
    report = reproduce_tables(dims=(1, 2, 3))
    assert len(report.rows) == 25
    assert report.ok
    assert report.strata_by_dim == {1: 1, 2: 3, 3: 7}
    csv_text = report.to_csv()
    assert csv_text.count("pass") == 25
    assert "A_3_7" in csv_text
    md = report.to_markdown()
    assert md.startswith("| name |")


def test_reproduce_flags_mismatches():
    report = reproduce_tables(dims=(2,))
    names_seen = [row.name for row in report.rows]
    assert names_seen == ["A_2_1", "A_2_2", "A_2_3", "A_2_4", "A_2_5"]
    for row in report.rows:
        assert row.ok


def test_reproduce_checks_a_distinguished_row_once(monkeypatch):
    # the type reads the soliton kernel that the row's own check stored on a fresh tensor
    entry = builtin("A_3_7")
    fresh = dataclasses.replace(entry, tensor=StructureTensor(entry.tensor.table))
    monkeypatch.setattr(catalog, "builtin", lambda name: fresh)
    runs = []
    kernel = algebra._soliton_table

    def counting(t):
        runs.append(t.shape[0])
        return kernel(t)

    monkeypatch.setattr(algebra, "_soliton_table", counting)
    row = catalog._reproduce_row("A_3_7")
    assert row.ok and row.type_str == "(0<1<2;1,1,1)"
    assert runs == [3]


def test_reproduce_flows_the_non_distinguished_entry_once(monkeypatch):
    catalog._entry_flow.cache_clear()
    catalog._entry_fingerprint.cache_clear()
    flowed = []

    def counting_run_flow(mu, *args, **kwargs):
        flowed.append(mu.dim)
        return run_flow(mu, *args, **kwargs)

    monkeypatch.setattr(catalog, "run_flow", counting_run_flow)
    report = reproduce_tables(dims=(4,))
    assert flowed == [4]
    catalog._entry_fingerprint("A_4_63")
    assert flowed == [4]
    row = next(r for r in report.rows if r.name == "A_4_63")
    assert row.ok
    assert "dim Der 4->5" in row.note
    assert catalog._entry_flow("A_4_63").terminal_energy == pytest.approx(1.5, abs=1e-6)
    assert flowed == [4]


def test_expected_types_format():
    assert str(builtin("A_3_19").expected_type) == "(3<5<6;1,1,1)"
    assert str(builtin("A_4_65").expected_type) == "(3<4<6<10;1,1,1,1)"
    assert builtin("A_4_63").expected_type is None
    assert builtin("A_4_63").expected_beta == (
        Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2))


def test_unitalization_energy_law_across_catalog():
    # adjoining a unit maps the stratum energy E to E / (E + 1).  The scaled
    # unitalization is itself a soliton exactly when every left
    # multiplication is traceless (the off-diagonal moment block is
    # -2 Tr L_{e_j}); that covers all nilpotent entries.  Otherwise the
    # unitalized tensor still flows to the E/(E+1) stratum.
    from jordanflow.algebra import adjoin_unit, soliton_unitalize

    def trace_free(mu):
        traces = np.einsum("jij->i", mu.table)
        return float(np.max(np.abs(traces))) < 1e-12

    flowed = 0
    for name in names():
        entry = builtin(name)
        if not entry.distinguished or entry.flags.unital:
            continue
        law = float(entry.expected_energy) / (float(entry.expected_energy) + 1.0)
        if trace_free(entry.tensor):
            lifted = soliton_unitalize(entry.tensor)
            assert energy(lifted) == pytest.approx(law, abs=1e-9), name
            assert soliton_check(lifted).is_soliton, name
        elif flowed < 4:
            flowed += 1
            trace = run_flow(adjoin_unit(entry.tensor))
            assert trace.terminal_energy == pytest.approx(law, abs=1e-6), name


def test_soliton_unitalize_rejects_nonzero_multiplications_trace():
    from jordanflow.algebra import soliton_unitalize
    with pytest.raises(ValueError, match="block diagonal"):
        soliton_unitalize(builtin("A_2_2").tensor)


def test_soliton_product_lemma_across_catalog(rng):
    from jordanflow.algebra import soliton_product
    pool = [n for n in names() if builtin(n).distinguished]
    for _ in range(15):
        left = builtin(pool[int(rng.integers(len(pool)))]).tensor
        right = builtin(pool[int(rng.integers(len(pool)))]).tensor
        combined = soliton_product(left, right)
        assert soliton_check(combined).is_soliton


def test_rank_decisions_are_not_borderline():
    # the reported singular-value gap ratio shows every kernel cut is clean
    from jordanflow.algebra import annihilator, derivation_algebra, radical
    for name in names():
        mu = builtin(name).tensor
        assert radical(mu).gap_ratio > 1e3, name
        assert annihilator(mu).gap_ratio > 1e3, name
        assert derivation_algebra(mu)[2] > 1e3, name


def test_decomposition_factors_multiply_out():
    # direct products of the listed factors land in the same stratum
    entry = builtin("A_4_68")
    left = builtin("A_2_3").tensor
    prod = direct_product(left, left)
    assert is_jordan(prod)
    assert sorted(np.linalg.eigvalsh(moment_map(entry.tensor))) == pytest.approx(
        sorted(np.linalg.eigvalsh(moment_map(prod.scaled(1.0)))), abs=1e-9)

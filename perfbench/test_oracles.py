"""Tests of the benchmark's oracles and checkers.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

from fractions import Fraction

import numpy as np
import pytest

import jordanflow as jf
import oracle
import spans

DISTINGUISHED = [name for name in jf.names() if jf.builtin(name).distinguished]
PRODUCTS = [name for name in jf.names()
            if jf.builtin(name).decomposition and "T" not in jf.builtin(name).decomposition]


def _printed(name):
    return tuple(jf.builtin(name).expected_beta)


def test_product_entries_count():
    assert len(PRODUCTS) == 25


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_rule_reproduces_stored_strata(name):
    entry = jf.builtin(name)
    beta = oracle.product_beta(*(_printed(f) for f in entry.decomposition))
    assert beta == entry.expected_beta
    assert oracle.energy_of(beta) == entry.expected_energy


def test_type_from_printed_beta_reproduces_all_stored_types():
    assert len(DISTINGUISHED) == 96
    for name in DISTINGUISHED:
        entry = jf.builtin(name)
        assert oracle.type_string(entry.expected_beta) == str(entry.expected_type), name


def test_reference_energy_and_jordan_identity_on_the_catalog():
    for name in DISTINGUISHED:
        t = jf.builtin(name).tensor.table
        assert oracle.energy(t) == pytest.approx(float(jf.builtin(name).expected_energy), abs=1e-9)
        assert oracle.jordan_residual(t) <= oracle.JORDAN_DEFECT_BOUND


def test_printed_strata_counts_match_the_paper():
    by_dim = {}
    for name in jf.names():
        by_dim.setdefault(jf.builtin(name).dim, set()).add(_printed(name))
    assert {d: len(s) for d, s in by_dim.items()} == oracle.STRATA_PER_DIM


# --- flows checker ---------------------------------------------------------------


def _good_flow(name="A_3_7"):
    t = jf.builtin(name).tensor.table
    t = t / np.sqrt(np.vdot(t, t).real)
    return [2.0, 1.5, float(jf.builtin(name).expected_energy)], "gradient", t


def test_check_flow_accepts_a_correct_flow():
    energies, stop, t = _good_flow()
    assert oracle.check_flow(energies, stop, t, float(Fraction(5, 6))) == []


def test_check_flow_rejects_an_energy_off_by_1e_3():
    energies, stop, t = _good_flow()
    assert oracle.check_flow(energies, stop, t, float(Fraction(5, 6)) + 1e-3)


def test_check_flow_rejects_rising_energy_and_max_steps():
    energies, _, t = _good_flow()
    assert oracle.check_flow([1.0, 1.2, energies[-1]], "gradient", t, float(Fraction(5, 6)))
    assert oracle.check_flow(energies, "max_steps", t, float(Fraction(5, 6)))


def test_check_flow_rejects_a_non_jordan_terminal():
    rng = np.random.default_rng(3)
    t = rng.normal(size=(3, 3, 3))
    t = 0.5 * (t + np.swapaxes(t, 0, 1))
    assert oracle.jordan_residual(t) > oracle.JORDAN_DEFECT_BOUND
    problems = oracle.check_flow([oracle.energy(t)], "gradient", t, oracle.energy(t))
    assert any("Jordan" in p for p in problems)


# --- classify checker ------------------------------------------------------------

FLAGS = {"nilpotent": False, "semisimple": False, "associative": True, "unital": True}


def test_check_classify_accepts_a_correct_result():
    beta = _printed("A_3_7")
    assert oracle.check_classify(True, beta, False, beta, FLAGS, FLAGS, ["A_3_7"], "A_3_7") == []


def test_check_classify_rejects_a_missing_match_name():
    beta = _printed("A_3_7")
    assert oracle.check_classify(True, beta, False, beta, FLAGS, FLAGS, ["A_3_8"], "A_3_7")


def test_check_classify_rejects_wrong_beta_flags_and_residual():
    beta = _printed("A_3_7")
    wrong = _printed("A_3_4")
    assert oracle.check_classify(True, wrong, False, beta, FLAGS, FLAGS, None, None)
    assert oracle.check_classify(True, beta, False, beta, {**FLAGS, "unital": False}, FLAGS, None, None)
    assert oracle.check_classify(False, beta, False, beta, FLAGS, FLAGS, None, None)


def test_snap_error_is_accepted_only_above_the_denominator_limit():
    big = oracle.product_beta(_printed("A_3_17"), _printed("A_4_66"))
    assert oracle.max_denominator(big) == 88
    assert oracle.check_classify(True, None, True, big, FLAGS, FLAGS, None, None) == []
    small = _printed("A_3_7")
    assert oracle.check_classify(True, None, True, small, FLAGS, FLAGS, None, None)


# --- tables checker --------------------------------------------------------------

PRINTED = {name: (jf.builtin(name).dim, _printed(name), jf.builtin(name).distinguished)
           for name in jf.names()}


def _good_payload():
    rows = []
    for name, (dim, beta, distinguished) in PRINTED.items():
        if distinguished:
            rows.append({"name": name, "dim": dim, "ok": True, "type": oracle.type_string(beta),
                         "residual": 1e-16, "note": ""})
        else:
            rows.append({"name": name, "dim": dim, "ok": True, "type": "none", "residual": 0.29,
                         "note": "no soliton (residual 2.94e-01); flow limit E=1.500000002, "
                                 "dim Der 4->5"})
    return {"ok": True, "rows": rows, "strata_by_dim": {"1": 1, "2": 3, "3": 7, "4": 19}}


def test_check_tables_accepts_the_paper():
    assert oracle.check_tables(_good_payload(), PRINTED) == []


def test_check_tables_rejects_a_wrong_type():
    payload = _good_payload()
    row = next(r for r in payload["rows"] if r["name"] == "A_3_7")
    row["type"] = "(0<1<3;1,1,1)"
    assert oracle.check_tables(payload, PRINTED)


def test_check_tables_rejects_a_missing_row_and_wrong_strata():
    payload = _good_payload()
    payload["rows"].pop()
    assert oracle.check_tables(payload, PRINTED)
    payload = _good_payload()
    payload["strata_by_dim"]["4"] = 18
    assert oracle.check_tables(payload, PRINTED)


def test_check_tables_rejects_a_wrong_limit_energy():
    payload = _good_payload()
    row = next(r for r in payload["rows"] if r["name"] == oracle.NON_DISTINGUISHED)
    row["note"] = row["note"].replace("1.500000002", "1.501000000")
    assert oracle.check_tables(payload, PRINTED)


# --- per-layer accounting ----------------------------------------------------------


def test_layer_metrics_account_for_the_traced_time():
    records = [
        {"name": "flow.run_flow", "self_s": 0.6, "start": 0.0, "end": 0.8,
         "attrs": {"dim": 4, "steps": 300, "stop": "plateau"}},
        {"name": "moment.soliton_check", "self_s": 0.2, "start": 0.6, "end": 0.8, "attrs": {}},
    ]
    out = spans.layer_metrics(records, traced_s=1.0)
    assert out["flow.step_us.n4"][0] == pytest.approx(2000.0)
    assert out["flow.stop.plateau"][0] == 1
    assert out["flow.share"][0] == pytest.approx(0.6)
    assert out["moment.share"][0] == pytest.approx(0.2)
    assert out["untraced.share"][0] == pytest.approx(0.2)

import csv
import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jordanflow import flow, weights
from jordanflow.algebra import StructureTensor, act, derivation_algebra, direct_product, is_semisimple
from jordanflow.catalog import builtin, heisenberg, match, names
from jordanflow.flow import DegenerationCurve, FlowOptions, apply_curve, run_flow
from jordanflow.moment import energy, soliton_check
from jordanflow.sampling import random_group_element, random_symmetric_tensor, random_unitary
from jordanflow.weights import min_norm_point, support_weights


@pytest.fixture
def fresh_memo():
    """An empty process-wide mask memo, emptied again afterwards so no stubbed result outlives the test."""
    weights._mask_face.cache_clear()
    yield
    weights._mask_face.cache_clear()


def test_flow_from_semisimple_reaches_minimum(rng):
    mu = builtin("A_3_2").tensor
    for _ in range(3):
        start = act(random_group_element(rng, 3, cond_max=10), mu)
        trace = run_flow(start)
        assert trace.converged
        assert trace.terminal_energy == pytest.approx(1 / 3, abs=1e-6)


def test_flow_from_a22_reaches_stratum_one(rng):
    start = act(random_group_element(rng, 2, cond_max=10), builtin("A_2_2").tensor)
    trace = run_flow(start)
    assert trace.converged
    assert trace.terminal_energy == pytest.approx(1.0, abs=1e-6)


def test_flow_at_critical_point_stops_immediately():
    trace = run_flow(heisenberg(3))
    assert trace.converged
    assert trace.stop_reason == "gradient"
    assert trace.steps_taken == 0
    assert trace.lower_bound == pytest.approx(5.0, abs=1e-12)  # read at the start
    assert trace.terminal.allclose(heisenberg(3).normalized(), atol=1e-12)
    assert trace.terminal_type is not None
    # the trivial third direction shifts the type (exactly the A_2_3 x T row)
    assert str(trace.terminal_type) == "(3<5<6;1,1,1)"
    assert str(run_flow(heisenberg(2)).terminal_type) == "(1<2;1,1)"


def test_flow_from_non_distinguished_orbit():
    trace = run_flow(builtin("A_4_63").tensor)
    assert trace.converged
    assert trace.terminal_energy == pytest.approx(1.5, abs=1e-6)
    evals = np.sort(np.linalg.eigvalsh(trace.terminal_report.m))
    assert np.allclose(evals, [-1.0, -0.5, 0.0, 0.5], atol=1e-4)
    assert trace.terminal_type is not None
    assert str(trace.terminal_type) == "(1<2<3<4;1,1,1,1)"


@pytest.mark.parametrize("name", ["A_4_26", "A_4_62"])
def test_torus_starts_stop_on_the_certificate(rng, name):
    # diag(e^u).mu stays on the orbit of the soliton mu, which it reaches
    # in a few dozen steps; the plateau rule alone would wait 500 more
    entry = builtin(name)
    table = float(entry.expected_energy)
    for _ in range(3):
        start = act(np.diag(np.exp(0.5 * rng.normal(size=4))), entry.tensor)
        trace = run_flow(start)
        assert trace.stop_reason == "certificate"
        assert trace.converged
        assert trace.steps_taken <= 60
        assert trace.terminal_energy == pytest.approx(table, abs=1e-12)
        assert trace.lower_bound == pytest.approx(table, abs=1e-12)
        assert trace.witness is None  # E itself met L


def test_non_distinguished_flow_stops_on_its_witness_at_step_0(monkeypatch, fresh_memo):
    # A_4_63's three support weights all lie on <alpha, beta> = ||beta||^2,
    # but Wolfe keeps two of them; truncating to those gives e1e2 = e3,
    # e1e3 = e4, a soliton at L = 3/2 in the orbit closure, so the flow
    # needs no step (it used to plateau after 8,946 steps 1.9e-9 above 3/2)
    calls = []

    def counting(vectors):
        calls.append(len(vectors))
        return min_norm_point(vectors)

    monkeypatch.setattr(weights, "min_norm_point", counting)
    trace = run_flow(builtin("A_4_63").tensor)
    assert trace.stop_reason == "certificate"
    assert trace.converged
    assert trace.steps_taken == 0
    assert trace.terminal_energy == pytest.approx(1.5, abs=1e-12)
    assert trace.lower_bound == pytest.approx(1.5, abs=1e-12)
    assert trace.terminal_report.soliton_residual < 1e-12
    assert derivation_algebra(trace.terminal)[0] == 5
    assert trace.witness is not None
    assert all(isinstance(a, int) for a in trace.witness.exponents)
    # one Wolfe solve on the one support mask, over its three weights, then the
    # witness's inner solve over the one weight Wolfe left out, projected
    assert calls == [3, 1]
    assert weights._mask_face.cache_info().misses == 1


def test_a_second_flow_on_the_same_start_reuses_the_mask_memo(monkeypatch, fresh_memo):
    # bound and face depend on the support mask alone, so they are shared across flows
    calls = []

    def counting(vectors):
        calls.append(len(vectors))
        return min_norm_point(vectors)

    monkeypatch.setattr(weights, "min_norm_point", counting)
    start = act(np.diag([1.3, 0.8, 1.1, 0.6]).astype(complex), builtin("A_4_26").tensor)
    first = run_flow(start)
    assert calls
    calls.clear()
    again = run_flow(start)
    assert calls == []
    assert again.energies == first.energies and again.stop_reason == first.stop_reason
    assert again.lower_bound == first.lower_bound


def test_non_distinguished_flow_keeps_its_plateau_stop():
    # a torus start of A_4_63: its truncation to Wolfe's face is not yet
    # critical, so no witness fires: L reads 3/2 but E approaches it only
    # algebraically, and the plateau rule ends the flow above the tolerance
    start = act(np.diag([1.3, 0.8, 1.1, 0.6]).astype(complex), builtin("A_4_63").tensor)
    trace = run_flow(start)
    assert trace.stop_reason == "plateau"
    assert trace.converged
    assert trace.steps_taken > flow.PLATEAU_WINDOW
    assert trace.lower_bound == pytest.approx(1.5, abs=1e-12)
    assert trace.terminal_energy - trace.lower_bound > flow.ENERGY_TOL
    assert trace.terminal_energy == pytest.approx(1.5, abs=1e-6)
    assert trace.witness is None
    # match classifies the tensor it is given: the terminal is still in A_4_63's orbit
    assert match(trace.terminal) == ["A_4_63"]


def test_witness_degenerates_the_rotated_start_to_the_terminal(fresh_memo):
    mu = builtin("A_4_63").tensor
    trace = run_flow(mu)
    t = mu.table.real / mu.norm   # a real start flows in real arithmetic
    rotated, vecs, _ = flow._eigenframe(t, *flow._energy_moment(t), np.eye(4))
    weights._mask_face.cache_clear()
    assert weights.support_face(rotated).bound == pytest.approx(1.5, abs=1e-12)
    target = act(vecs.conj().T, trace.terminal)   # the terminal in the frame of the witness
    last = np.inf
    for s in (0.7, 0.5, 0.3):
        dist = np.linalg.norm(apply_curve(StructureTensor(rotated), trace.witness, s).normalized().table
                              - target.table)
        assert dist < last
        last = dist
    assert last < 1e-9


def test_no_witness_no_certificate_for_a_4_63(monkeypatch, fresh_memo):
    # without an exactly checked exponent vector the truncation is never tried
    monkeypatch.setattr(weights, "degeneration_witness", lambda *args: None)
    trace = run_flow(builtin("A_4_63").tensor, FlowOptions(max_steps=3))
    assert trace.stop_reason == "max_steps"
    assert trace.witness is None
    assert not trace.converged


def covers_its_support(entry) -> bool:
    """Above the floor, and every support weight of the entry is active in Wolfe's face."""
    face = weights.support_face(entry.tensor.table)
    return not entry.flags.semisimple and len(face.active) == len(face.result.coefficients)


COVERING = [name for name in names() if covers_its_support(builtin(name))]


def torus_spread(entry, u) -> float:
    """max - min of <u, alpha> over the support weights: zero when diag(e^u) only rescales mu."""
    return float(np.ptp([np.dot(u, w.diagonal) for w in weights.support_weights(entry.tensor)]))


def assert_balanced(entry, u, phase=0.0):
    """The flow from the torus start e^{i phase} diag(e^u) . mu of a covering entry ends on its soliton.

    Where diag(e^u) only rescales mu (always, for a single support weight),
    the start is critical.  Every other start balances at step 0, so the
    terminal is a positive diagonal times the start, up to scale: the same
    support, and log-ratios that fit <u', alpha> + c on the coefficients'
    weights.
    """
    start = act(np.diag(np.exp(u)), entry.tensor).scaled(np.exp(1j * phase))
    trace = run_flow(start)
    if torus_spread(entry, u) == 0.0:
        assert (trace.stop_reason, trace.steps_taken) == ("gradient", 0), entry.name
    else:
        assert (trace.stop_reason, trace.steps_taken) == ("certificate", 1), entry.name
        assert trace.witness is None
        assert len(trace.energies) == len(trace.grad_norms) == 2
    assert trace.terminal_energy == pytest.approx(float(entry.expected_energy), abs=1e-12)
    assert trace.terminal_report.soliton_residual <= 1e-12
    assert trace.terminal_type.beta == entry.expected_beta
    support = weights.support_mask(start.table)
    assert np.array_equal(weights.support_mask(trace.terminal.table), support)
    ratio = trace.terminal.table[support] / start.table[support]
    assert np.all(np.abs(ratio.imag) <= 1e-12 * np.abs(ratio)) and np.all(ratio.real > 0)
    i, j, k = np.nonzero(support)
    alpha = -np.eye(entry.dim)[i] - np.eye(entry.dim)[j] + np.eye(entry.dim)[k]
    rows = np.hstack([alpha, np.ones((len(alpha), 1))])
    logs = np.log(ratio.real)
    fit = np.linalg.lstsq(rows, logs, rcond=None)[0]
    assert np.max(np.abs(rows @ fit - logs)) <= 1e-9


def test_every_entry_whose_face_covers_its_support_balances_in_one_move(rng):
    # 24 of the 84 have a single support weight, so their torus starts are
    # critical; the trig families, A_4_53, A_4_61 and A_4_63 are not among
    # them: Wolfe's face is smaller than their support
    assert len(COVERING) == 84
    assert sum(len(weights.support_weights(builtin(name).tensor)) == 1 for name in COVERING) == 24
    for name in COVERING:
        entry = builtin(name)
        assert_balanced(entry, 0.5 * rng.normal(size=entry.dim))


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(COVERING), u=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       phase=st.floats(0.0, 6.0))
def test_torus_starts_of_covering_entries_balance_in_one_move(name, u, phase):
    entry = builtin(name)
    u = np.array(u[:entry.dim])
    # a start within 1e-6 of a rescaling of mu is critical to grad_tol, or nearly so
    assume(torus_spread(entry, u) == 0.0 or torus_spread(entry, u) > 1e-6)
    assert_balanced(entry, u, phase)


def test_no_balancing_move_without_a_step_left():
    for name in ("A_4_26", "A_3_7"):
        start = act(np.diag([1.3, 0.8, 1.1, 0.6][:builtin(name).dim]), builtin(name).tensor)
        trace = run_flow(start, FlowOptions(max_steps=0))
        assert (trace.stop_reason, trace.steps_taken, len(trace.energies)) == ("max_steps", 0, 1)
        assert np.allclose(trace.terminal.table, start.table / start.norm, atol=1e-15)
        trace = run_flow(start, FlowOptions(max_steps=1))
        assert (trace.stop_reason, trace.steps_taken) == ("certificate", 1)


def test_a_balanced_point_that_is_not_a_soliton_leaves_the_flow_as_it_was(monkeypatch):
    # the reference never moves: its move lands where the iterate already was, whose E is off L
    start = act(np.diag([1.3, 0.8, 1.1, 0.6]), builtin("A_4_26").tensor)
    with monkeypatch.context() as patch:
        patch.setattr(flow, "_balance", lambda rotated, face: rotated)
        unmoved = run_flow(start)
    rejected = []

    def reject(t, *args):
        rejected.append(t)
        return False

    monkeypatch.setattr(flow, "_is_soliton", reject)
    trace = run_flow(start)
    assert rejected   # the move met L, and only the soliton check turned it down
    assert unmoved.steps_taken > 1
    for field in ("energies", "grad_norms", "steps_taken", "stop_reason", "lower_bound", "terminal_energy",
                  "witness"):
        assert getattr(trace, field) == getattr(unmoved, field), field
    assert trace.terminal.table.tobytes() == unmoved.terminal.table.tobytes()


def test_certificate_never_stops_a_flow_below_its_orbits_stratum_energy():
    # acceptance criterion 3's generic starts: roundoff carries many of these
    # flows off their orbit, down to the floor 1/n, where every tensor's
    # bound lies; above the floor a certificate pins the table energy, and at
    # the floor only a semisimple start certifies, whose table energy is 1/n.
    # The nine that end below their own lower bound report it.  The counts are
    # roundoff-level figures of the step loop; the number below the table may
    # only fall
    from conftest import criterion_3_starts

    tol = flow.ENERGY_TOL
    above = at_floor = left = below = 0
    for entry, start in criterion_3_starts():
        trace = run_flow(start)
        floor = 1.0 / entry.dim
        below += trace.terminal_energy < float(entry.expected_energy) - 1e-9
        assert trace.lower_bound <= float(entry.expected_energy) + 1e-12
        if trace.stop_reason == "certificate":
            assert trace.terminal_energy == pytest.approx(float(entry.expected_energy), abs=1e-9)
            assert trace.witness is None
            if trace.lower_bound > floor + tol:
                above += 1
            else:
                at_floor += 1
                assert entry.flags.semisimple, entry.name
                assert trace.terminal_energy == pytest.approx(floor, abs=1e-9)
        if trace.terminal_energy < trace.lower_bound - tol:
            assert trace.stop_reason == "left_orbit"
        if trace.stop_reason == "left_orbit":
            left += 1
            assert not trace.converged
            assert trace.terminal_type is None
    assert above == 31
    assert at_floor == 22
    assert left == 9
    assert below <= 85


def test_generic_semisimple_starts_stop_on_the_floor_certificate(rng):
    # a Jordan start of full trace-form rank is semisimple (Albert), so its
    # stratum energy is the floor 1/n that every tensor meets: the flow stops
    # on certificate at the first step that reaches the floor
    entries = [builtin(name).tensor for name in names() if builtin(name).flags.semisimple]
    assert len(entries) == 7
    products = [direct_product(builtin(a).tensor, builtin(b).tensor) for a, b in
                (("A_4_1", "A_1_1"), ("A_3_2", "A_2_4"), ("A_4_2", "A_2_4"), ("A_3_1", "A_3_2"),
                 ("A_4_3", "A_3_1"), ("A_4_1", "A_4_2"))]
    assert sorted({mu.dim for mu in products}) == [5, 6, 7, 8]
    tol = flow.ENERGY_TOL
    for mu in entries + products:
        n = mu.dim
        trace = run_flow(act(random_group_element(rng, n), mu))
        # every tensor of dimension 1 is critical, so A_1_1 stops at step 0 on the gradient
        assert trace.stop_reason == ("gradient" if n == 1 else "certificate")
        assert trace.converged and trace.witness is None
        assert trace.terminal_energy - 1.0 / n <= tol
        assert all(e - 1.0 / n > tol for e in trace.energies[:-1])
        assert trace.terminal_type.beta == (Fraction(-1, n),) * n


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_steps_that_cannot_fall_are_newton_steps_and_the_others_grow_by_1_1(seed):
    # a generic start of a semisimple entry lies in the lowest stratum: it
    # cannot fall, so it takes Newton steps towards its closed orbit's
    # minimal vector and certifies at the floor within a few steps (over
    # these seeds, 34 steps a seed for the six entries).  Torus starts
    # diag(e^u) . mu of the other distinguished entries lie above it, so
    # their step grows by 1.1; most end by one balancing move at step 0, and
    # the A_4_61 start, whose weights are affinely dependent, takes about 29
    # steps (228-231 torus steps a seed)
    rng = np.random.default_rng(seed)
    torus_steps = 0
    for name in names():
        entry = builtin(name)
        if not entry.distinguished or entry.flags.semisimple:
            continue
        start = act(np.diag(np.exp(0.5 * rng.normal(size=entry.dim))), entry.tensor)
        trace = run_flow(start)
        assert trace.converged, name
        assert trace.terminal_energy == pytest.approx(float(entry.expected_energy), abs=1e-9), name
        torus_steps += trace.steps_taken
    assert torus_steps <= 1300
    generic_steps = 0
    for name in names():
        entry = builtin(name)
        if entry.flags.semisimple and entry.dim >= 2:
            trace = run_flow(act(random_group_element(rng, entry.dim), entry.tensor))
            assert trace.stop_reason == "certificate", name
            assert trace.steps_taken <= 10, name
            generic_steps += trace.steps_taken
    assert generic_steps <= 50


LOWEST = ([name for name in names() if builtin(name).flags.semisimple]
          + [f"{a}x{b}" for a, b in (("A_4_1", "A_1_1"), ("A_3_2", "A_2_4"), ("A_4_2", "A_2_4"), ("A_3_1", "A_3_2"),
                                     ("A_4_3", "A_3_1"), ("A_4_1", "A_4_2"))])


def lowest_start(label, seed, real=False):
    """A generic start g . mu of a semisimple entry or of a direct product a x b of two; a real g if real."""
    mu = (direct_product(*(builtin(name).tensor for name in label.split("x"))) if "x" in label
          else builtin(label).tensor)
    rng = np.random.default_rng(seed)
    g = random_group_element(rng, mu.dim)
    if real:
        g = rng.normal(size=(mu.dim, mu.dim))
        assume(np.linalg.cond(g) <= 50)
    return act(g, mu)


@settings(max_examples=40, deadline=None, database=None)
@given(label=st.sampled_from(LOWEST), seed=st.integers(min_value=0, max_value=2**32 - 1), real=st.booleans())
def test_lowest_flows_never_raise_the_energy_and_certify_within_ten_steps(label, seed, real):
    start = lowest_start(label, seed, real)
    n = start.dim
    trace = run_flow(start)
    assert all(b <= a for a, b in zip(trace.energies, trace.energies[1:]))
    if n == 1:   # every tensor of dimension 1 is critical
        assert (trace.stop_reason, trace.steps_taken) == ("gradient", 0)
        return
    assert trace.stop_reason == "certificate" and trace.converged and trace.witness is None
    assert trace.steps_taken <= 10
    assert trace.terminal_energy - 1.0 / n <= flow.ENERGY_TOL
    assert trace.terminal_type.beta == (Fraction(-1, n),) * n


def test_a_direction_that_does_not_descend_falls_back_to_the_gradient(monkeypatch):
    newton = flow._newton_direction
    start = lowest_start("A_4_1xA_4_2", 3)
    reference = run_flow(start)
    monkeypatch.setattr(flow, "_newton_direction", lambda m, gram: -newton(m, gram))
    trace = run_flow(start)
    assert trace.stop_reason == "certificate" and trace.terminal_energy - 1.0 / 8 <= flow.ENERGY_TOL
    assert all(b <= a for a, b in zip(trace.energies, trace.energies[1:]))
    # every step took the gradient direction, which converges linearly where Newton converges quadratically
    assert trace.steps_taken > reference.steps_taken


def test_terminal_report_is_worked_out_only_when_read(monkeypatch, rng):
    calls = []

    def counting(mu, *args):
        calls.append(mu)
        return soliton_check(mu, *args)

    is_soliton = flow._is_soliton

    def counting_raw(t, *args):
        calls.append(t)
        return is_soliton(t, *args)

    # the terminal report calls soliton_check; the certificate checks its moves on raw tables
    monkeypatch.setattr(flow, "soliton_check", counting)
    monkeypatch.setattr(flow, "_is_soliton", counting_raw)
    # a semisimple start stops at the floor, where no truncation is tried
    trace = run_flow(act(random_group_element(rng, 3, cond_max=10), builtin("A_3_2").tensor))
    assert trace.stop_reason == "certificate"
    assert calls == []
    report, expected = trace.terminal_report, soliton_check(trace.terminal)
    assert len(calls) == 1 and calls[0] is trace.terminal
    assert trace.terminal_report is report
    assert np.array_equal(report.M, expected.M) and np.array_equal(report.m, expected.m)
    assert (report.energy, report.c, report.soliton_residual, report.is_soliton) == (
        expected.energy, expected.c, expected.soliton_residual, expected.is_soliton)
    # a witness stop reads nu's energy directly
    calls.clear()
    trace = run_flow(builtin("A_4_63").tensor)
    assert trace.witness is not None and len(calls) == 1   # the float check of the truncation
    assert trace.terminal_energy == energy(trace.terminal) == trace.terminal_report.energy


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_non_jordan_starts_are_never_certified_at_the_floor(scale):
    # random symmetric tensors are semisimple but not Jordan: they fall to the
    # floor and keep their old stops, at any scale of the start
    rng = np.random.default_rng(5)
    for n in range(2, 6):
        for real in (False, True):
            mu = random_symmetric_tensor(rng, n)
            mu = StructureTensor((mu.table.real if real else mu.table) * scale)
            assert is_semisimple(mu)
            with pytest.warns(UserWarning, match="non-Jordan"):
                trace = run_flow(mu)
            assert trace.terminal_energy == pytest.approx(1.0 / n, abs=1e-9)
            assert trace.stop_reason in ("gradient", "line_search_floor")


def test_energy_is_monotone_and_bounded_below_by_beta_mu(rng):
    start = act(random_group_element(rng, 3, cond_max=10), builtin("A_3_13").tensor)
    trace = run_flow(start)
    diffs = np.diff(trace.energies)
    assert np.all(diffs <= 1e-15)
    point = min_norm_point([w.diagonal for w in support_weights(start)]).point
    floor = float(point @ point)
    assert trace.terminal_energy >= floor - 1e-9


def test_flow_restart_is_a_fixed_point():
    first = run_flow(builtin("A_4_63").tensor)
    again = run_flow(first.terminal)
    assert again.converged
    assert again.terminal_energy == pytest.approx(first.terminal_energy, abs=1e-9)
    assert again.steps_taken <= first.steps_taken / 10


def test_unitary_conjugated_starts_agree(rng):
    mu = builtin("A_3_17").tensor
    energies = []
    for _ in range(50):
        start = act(random_unitary(rng, 3), mu)
        energies.append(run_flow(start).terminal_energy)
    assert np.ptp(energies) < 1e-6
    # general linear starts are only reliable on the open (semisimple)
    # stratum: elsewhere the discretized flow can fall off the measure-zero
    # stable manifold into a more generic orbit
    mu = builtin("A_3_1").tensor
    for _ in range(5):
        start = act(random_group_element(rng, 3, cond_max=10), mu)
        assert run_flow(start).terminal_energy == pytest.approx(1 / 3, abs=1e-6)


def test_flow_warns_on_non_jordan_start(rng):
    mu = random_symmetric_tensor(rng, 3)
    with pytest.warns(UserWarning, match="non-Jordan"):
        run_flow(mu, FlowOptions(max_steps=5))


def test_flow_rejects_zero_and_bad_options():
    from jordanflow.algebra import StructureTensor
    with pytest.raises(ValueError):
        run_flow(StructureTensor.zero(2))
    with pytest.raises(ValueError):
        FlowOptions(grad_tol=-1.0)
    with pytest.raises(ValueError):
        FlowOptions(max_steps=-1)
    assert FlowOptions(max_steps=0).max_steps == 0


def test_flow_trace_csv(tmp_path):
    trace = run_flow(act(np.diag([2.0, 1.0]).astype(complex), builtin("A_2_2").tensor))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["step", "energy", "grad_norm"]
    assert len(rows) == len(trace.energies) + 1
    assert float(rows[1][1]) == trace.energies[0]


def test_flow_trace_csv_ends_on_the_witness_limit(tmp_path):
    trace = run_flow(builtin("A_4_63").tensor)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path) as handle:
        rows = list(csv.reader(handle))
    # the start, then its limit nu at the same step: no gradient step is taken
    assert [row[0] for row in rows] == ["step", "0", "0"]
    assert float(rows[1][1]) == trace.energies[0] == pytest.approx(1.64)
    assert float(rows[2][1]) == trace.terminal_energy == pytest.approx(1.5, abs=1e-12)
    assert float(rows[2][2]) < 1e-12


def test_degeneration_energies_do_not_decrease():
    # a degeneration can only raise the stratum energy
    assert energy(heisenberg(3)) >= energy(builtin("A_3_7").tensor)
    assert run_flow(builtin("A_4_63").tensor).terminal_energy <= energy(builtin("A_4_64").tensor) + 1e-6


def test_apply_curve_identity_and_errors():
    mu = builtin("A_3_7").tensor
    same = apply_curve(mu, DegenerationCurve((0.0, 0.0, 0.0)), 0.37)
    assert same.allclose(mu, atol=1e-12)
    with pytest.raises(ValueError):
        apply_curve(mu, DegenerationCurve((0.0, 0.0, 0.0)), 0.0)
    with pytest.raises(ValueError):
        apply_curve(mu, DegenerationCurve((1.0, 2.0)), 0.5)


def test_apply_curve_heisenberg_witness():
    # order the basis so the squaring element comes first, then squeeze (1,2,2)
    mu = builtin("A_3_7").tensor
    perm = np.eye(3)[:, [2, 0, 1]].astype(complex)
    mu = act(perm, mu)
    curve = DegenerationCurve((1.0, 2.0, 2.0))
    last = np.inf
    for t in (1e-2, 1e-3, 1e-4):
        dist = np.linalg.norm(apply_curve(mu, curve, t).table - heisenberg(3).table)
        assert dist < 1e-2
        assert dist < last
        last = dist


def test_apply_curve_a463_witness():
    mu = builtin("A_4_63").tensor
    target = builtin("A_4_64").tensor
    curve = DegenerationCurve((0.0, 1.0, 1.0, 1.0))
    for t in (1e-2, 1e-3):
        dist = np.linalg.norm(apply_curve(mu, curve, t).table - target.table)
        assert dist == pytest.approx(t, rel=1e-6)


@pytest.mark.xfail(strict=True, reason="generic starts on non-semisimple orbits leave the orbit: "
                   "this one stops on line_search_floor after 71 steps at E = 1/3 with a "
                   "terminal Jordan defect of 0.31")
def test_generic_start_on_a_non_semisimple_orbit_reaches_its_stratum():
    entry = builtin("A_3_17")
    trace = run_flow(act(random_group_element(np.random.default_rng(7), 3), entry.tensor))
    assert trace.terminal_energy == pytest.approx(float(entry.expected_energy), abs=1e-6)

"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import time
from fractions import Fraction

import numpy as np

from conftest import oracle_min_norm
from jordanflow.algebra import (
    act,
    annihilator,
    inf_act,
    left_mult,
    tensor_inner,
)
from jordanflow.catalog import (
    builtin,
    fingerprint,
    heisenberg,
    names,
    regular_double,
    reproduce_tables,
)
from jordanflow.flow import run_flow
from jordanflow.moment import (
    derivation_pairing,
    energy,
    energy_gradient,
    moment_matrix,
    sl_residual,
    soliton_check,
)
from jordanflow.sampling import (
    random_group_element,
    random_jordan,
    random_symmetric_tensor,
    random_unitary,
)
from jordanflow.weights import min_norm_point
from jordanflow.algebra import StructureTensor, direct_product


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_tables_dims_1_to_3():
    start = time.time()
    rep = reproduce_tables(dims=(1, 2, 3))
    elapsed = time.time() - start
    ok = len(rep.rows) == 25 and rep.ok
    for row in rep.rows:
        ok = ok and row.residual < 1e-8 and row.beta_ok and row.energy_ok
    ok = ok and elapsed < 5.0
    report(1, ok, f"dims 1-3: {len(rep.rows)} entries, "
                  f"{len(rep.failures)} failures, {elapsed:.2f}s (< 5s)")


def test_criterion_2_tables_dim_4():
    start = time.time()
    rep = reproduce_tables(dims=(4,))
    solitons = [r for r in rep.rows if r.name != "A_4_63"]
    ok = len(rep.rows) == 72 and rep.ok
    ok = ok and all(r.soliton_ok and r.beta_ok and r.energy_ok for r in solitons)

    entry = builtin("A_4_63")
    check = soliton_check(entry.tensor)
    ok = ok and not check.is_soliton
    trace = run_flow(entry.tensor)
    ok = ok and abs(trace.terminal_energy - 1.5) <= 1e-6
    label = trace.terminal_type
    expected = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    ok = ok and label is not None and tuple(label.beta_diagonal()) == expected
    limit_fp = fingerprint(trace.terminal)
    own_fp = fingerprint(entry.tensor)
    ok = ok and not limit_fp.matches(own_fp)
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    report(2, ok, f"dim 4: 71/72 solitons, A_4_63 flows to E={trace.terminal_energy:.9f} "
                  f"label {label}, dim Der {own_fp.dim_der}->{limit_fp.dim_der}, "
                  f"{elapsed:.1f}s (< 2min)")


def test_criterion_3_energy_extremes():
    ok = all(abs(energy(heisenberg(n)) - 5.0) <= 1e-6 for n in range(2, 9))
    rng = np.random.default_rng(3)
    low, high = np.inf, -np.inf
    for _ in range(200):
        n = int(rng.integers(2, 5))
        trace = run_flow(random_jordan(rng, n))
        low = min(low, trace.terminal_energy - (1.0 / n))
        high = max(high, trace.terminal_energy)
    ok = ok and high <= 5.0 + 1e-6 and low >= -1e-6
    report(3, ok, f"E(Heis) = 5 for n = 2..8; 200 random flows stay in "
                  f"[1/n - {max(0, -low):.1e}, {high:.6f}]")


def test_criterion_4_semisimple_minimum():
    rng = np.random.default_rng(4)
    semisimple = [n for n in names() if builtin(n).flags.semisimple]
    assert semisimple == ["A_1_1", "A_2_4", "A_3_1", "A_3_2", "A_4_1", "A_4_2", "A_4_3"]
    worst_e, worst_sl = 0.0, 0.0
    ok = True
    for name in semisimple:
        entry = builtin(name)
        for _ in range(20):
            g = random_group_element(rng, entry.dim, cond_max=20)
            trace = run_flow(act(g, entry.tensor))
            dev = abs(trace.terminal_energy - 1.0 / entry.dim)
            slres = sl_residual(trace.terminal)
            worst_e, worst_sl = max(worst_e, dev), max(worst_sl, slres)
            ok = ok and dev <= 1e-6 and slres < 1e-6
    report(4, ok, f"{len(semisimple)} semisimple entries x 20 flows: "
                  f"|E - 1/n| <= {worst_e:.1e}, sl residual <= {worst_sl:.1e}")


def test_criterion_5_structural_properties():
    rng = np.random.default_rng(5)
    ok = True
    worst = {"trace": 0.0, "pairing": 0.0, "equivariance": 0.0, "gradient": 0.0}
    for rep_i in range(500):
        n = int(rng.integers(2, 7))
        if rep_i % 2 == 0:
            mu = random_symmetric_tensor(rng, n).normalized()
        else:
            # catalog-based tensors carry nontrivial derivation algebras
            d = min(n, 4)
            mu = random_jordan(rng, d)
            while mu.dim < n:
                extra = builtin(names(1)[0]).tensor
                mu = direct_product(mu, extra)
            mu = mu.normalized()
        check = soliton_check(mu)
        tr_dev = abs(np.trace(check.M).real + mu.norm_sq) / mu.norm_sq
        worst["trace"] = max(worst["trace"], tr_dev)
        worst["pairing"] = max(worst["pairing"], derivation_pairing(mu))

        k = random_unitary(rng, mu.dim)
        lhs = moment_matrix(act(k, mu))
        rhs = k @ check.M @ k.conj().T
        eq_dev = float(np.max(np.abs(lhs - rhs))) / max(1.0, mu.norm_sq)
        worst["equivariance"] = max(worst["equivariance"], eq_dev)

        xi = random_symmetric_tensor(rng, mu.dim).normalized()
        h = 1e-5
        fd = (energy(StructureTensor(mu.table + h * xi.table))
              - energy(StructureTensor(mu.table - h * xi.table))) / (2 * h)
        analytic = tensor_inner(energy_gradient(mu), xi).real
        grad_dev = abs(fd - analytic) / max(1.0, abs(analytic))
        worst["gradient"] = max(worst["gradient"], grad_dev)
    ok = (worst["trace"] <= 1e-9 and worst["pairing"] <= 1e-8
          and worst["equivariance"] <= 1e-9 and worst["gradient"] <= 1e-6)

    # diagonal-moment weight decomposition over the catalog
    decomp_dev = 0.0
    for name in names():
        mu = builtin(name).tensor
        big_m = np.diag(moment_matrix(mu)).real
        recon = np.zeros(mu.dim)
        for i in range(mu.dim):
            for j in range(mu.dim):
                for k_idx in range(mu.dim):
                    w = np.zeros(mu.dim)
                    w[i] -= 1
                    w[j] -= 1
                    w[k_idx] += 1
                    recon += abs(mu.table[i, j, k_idx]) ** 2 * w
        decomp_dev = max(decomp_dev, float(np.max(np.abs(big_m - recon))) / max(1.0, mu.norm_sq))
    ok = ok and decomp_dev <= 1e-9
    report(5, ok, "500 tensors (n <= 6): "
                  f"trace {worst['trace']:.1e}, pairing {worst['pairing']:.1e}, "
                  f"equivariance {worst['equivariance']:.1e}, gradient-FD {worst['gradient']:.1e}, "
                  f"weight decomposition {decomp_dev:.1e}")


def test_criterion_6_min_norm_oracle():
    rng = np.random.default_rng(6)
    ok = True
    worst_pt, worst_gap = 0.0, 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            pts = np.round(rng.normal(size=(m, d)) * 2, 1)
        else:
            pts = []
            for _ in range(m):
                i, j, k = rng.integers(d, size=3)
                w = np.zeros(d)
                w[i] -= 1
                w[j] -= 1
                w[k] += 1
                pts.append(w)
            pts = np.array(pts)
        res = min_norm_point(pts)
        dist = float(np.linalg.norm(res.point - oracle_min_norm(pts)))
        worst_pt = max(worst_pt, dist)
        worst_gap = min(worst_gap, res.certificate_gap) if res.certificate_gap < worst_gap else worst_gap
        ok = ok and dist <= 1e-4 and res.certificate_gap >= -1e-10
    report(6, ok, f"100 instances: worst oracle distance {worst_pt:.1e} (<= 1e-4), "
                  f"worst KKT gap {worst_gap:.1e} (>= -1e-10)")


def test_criterion_7_soliton_identities():
    ok = True
    worst_basic, worst_ort, min_ann, worst_beta = 0.0, 0.0, np.inf, 0.0
    for name in names():
        entry = builtin(name)
        if not entry.distinguished:
            continue
        mu = entry.tensor.normalized()
        check = soliton_check(mu)
        evals, vecs = np.linalg.eigh(check.D)
        for idx in range(mu.dim):
            x = vecs[:, idx]
            lx = left_mult(mu, x)
            lhs = evals[idx] * float(np.sum(np.abs(lx) ** 2))
            rhs = inf_act(lx.conj().T, mu).norm_sq - inf_act(lx, mu).norm_sq
            worst_basic = max(worst_basic, abs(lhs - rhs))
            for jdx in range(idx):
                if abs(evals[jdx] - evals[idx]) > 1e-6:
                    ly = left_mult(mu, vecs[:, jdx])
                    worst_ort = max(worst_ort, abs(np.trace(lx @ ly.conj().T)))
        ann = annihilator(mu)
        if ann.dim:
            restricted = ann.basis.conj() @ check.D @ ann.basis.T
            min_ann = min(min_ann, float(np.min(np.linalg.eigvalsh(restricted))))
        if float(np.min(np.abs(evals))) < 1e-8:
            beta_norm = float(np.sqrt(float(entry.expected_energy)))
            worst_beta = max(worst_beta, beta_norm)
    ok = (worst_basic <= 1e-8 and worst_ort <= 1e-8
          and min_ann > 0.0 and worst_beta <= 1.0 + 1e-12)
    report(7, ok, f"96 solitons: eigenpair identity {worst_basic:.1e}, "
                  f"orthogonality {worst_ort:.1e}, min D|Ann eigenvalue {min_ann:.3f} (> 0), "
                  f"max ||beta|| with 0 in spec(D) = {worst_beta:.4f} (<= 1)")


def test_criterion_8_constructions():
    from jordanflow.algebra import soliton_product, soliton_unitalize
    from jordanflow.moment import soliton_type
    from jordanflow.stratify import stratum_of

    combined = soliton_product(builtin("A_2_3").tensor, builtin("A_1_1").tensor)
    ok = abs(combined.table[2, 2, 2].real - np.sqrt(5)) <= 1e-9
    ok = ok and soliton_check(combined).is_soliton
    ok = ok and soliton_type(combined) == builtin("A_3_15").expected_type

    lifted = soliton_unitalize(builtin("A_2_3").tensor)
    ok = ok and abs(energy(lifted) - 5.0 / 6.0) <= 1e-9
    ok = ok and soliton_type(lifted) == builtin("A_3_7").expected_type

    doubled = regular_double(builtin("A_2_4").tensor)
    ok = ok and doubled.allclose(builtin("A_4_22").tensor, atol=1e-12)
    label = stratum_of(doubled)
    table_label = builtin("A_4_22").expected_type
    ok = ok and label == table_label
    scalar_m = np.allclose(moment_matrix(doubled) / doubled.norm_sq,
                           -np.eye(4) / 4, atol=1e-6)
    ok = ok and not scalar_m
    report(8, ok, "soliton product sqrt(5) block, unitalization E = 5/6, "
                  f"regular double lands on stratum {label} per the stored table "
                  "(its moment map is verified non-scalar)")

"""Reference results worked out apart from jordanflow, and the checkers that use them.

Nothing here imports jordanflow.  The moment matrix, energy and Jordan
identity are written out again from their definitions (left multiplications
and random vectors instead of the program's einsum tables); soliton types
and product strata are exact Fraction arithmetic.  Each checker takes plain
data and returns a list of problems, empty when the result is correct.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

import numpy as np

# Rows per dimension and Kirwan-Ness strata per dimension in the paper's tables.
ROWS_PER_DIM = {1: 1, 2: 5, 3: 19, 4: 72}
STRATA_PER_DIM = {1: 1, 2: 3, 3: 7, 4: 19}
NON_DISTINGUISHED = "A_4_63"
NON_DISTINGUISHED_LIMIT_ENERGY = Fraction(3, 2)

ENERGY_TOL = 1e-6          # terminal energy against the exact stratum energy
JORDAN_DEFECT_BOUND = 1e-9  # Jordan identity on unit vectors of a unit-norm terminal
MAX_DENOMINATOR = 64        # the program's documented snapping limit


# --- exact arithmetic on strata ---------------------------------------------


def group(beta) -> list[tuple[Fraction, int]]:
    """Ascending (value, multiplicity) runs of a beta diagonal."""
    out: list[tuple[Fraction, int]] = []
    for b in sorted(Fraction(v) for v in beta):
        if out and out[-1][0] == b:
            out[-1] = (b, out[-1][1] + 1)
        else:
            out.append((b, 1))
    return out


def energy_of(beta) -> Fraction:
    return sum((Fraction(b) ** 2 for b in beta), Fraction(0))


def type_string(beta) -> str:
    """Soliton type '(d_1<...<d_r;m_1,...,m_r)' of a printed beta.

    The derivation is beta + E*I with E = ||beta||^2; its eigenvalues,
    scaled to coprime integers, are the degrees.
    """
    runs = group(beta)
    e = energy_of(beta)
    shifted = [b + e for b, _ in runs]
    lcm = 1
    for f in shifted:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in shifted]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return "(" + "<".join(map(str, ints)) + ";" + ",".join(str(m) for _, m in runs) + ")"


def product_beta(*betas) -> tuple[Fraction, ...]:
    """Stratum of a direct product of solitons.

    1/E = sum 1/E_i and beta = union of (E/E_i) beta_i, ascending.
    """
    energies = [energy_of(b) for b in betas]
    e = 1 / sum(1 / ei for ei in energies)
    out = []
    for b, ei in zip(betas, energies):
        out.extend(e / ei * Fraction(v) for v in b)
    return tuple(sorted(out))


def max_denominator(beta) -> int:
    return max(Fraction(b).denominator for b in beta)


# --- floating-point references ----------------------------------------------


def left_mults(t: np.ndarray) -> np.ndarray:
    """L[i] is left multiplication by e_i: L[i][k, j] = t[i, j, k]."""
    return np.transpose(t, (0, 2, 1))


def moment_matrix(t: np.ndarray) -> np.ndarray:
    """M = -2 sum L_i^* L_i + sum L_i L_i^*."""
    ls = left_mults(t)
    lh = np.conj(np.transpose(ls, (0, 2, 1)))
    return -2.0 * np.sum(lh @ ls, axis=0) + np.sum(ls @ lh, axis=0)


def energy(t: np.ndarray) -> float:
    """E = ||M||^2 / ||mu||^4."""
    n2 = float(np.vdot(t, t).real)
    m = moment_matrix(t)
    return float(np.vdot(m, m).real) / n2**2


def _mul(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.tensordot(np.tensordot(x, t, axes=(0, 0)), y, axes=(0, 0))


def jordan_residual(t: np.ndarray, trials: int = 4) -> float:
    """max ||(x^2 y) x - x^2 (y x)|| over seeded random unit x, y, for unit-norm t.

    A commutative algebra is Jordan iff this identity holds for all x, y;
    random vectors detect a violation with probability one.
    """
    t = t / np.sqrt(np.vdot(t, t).real)
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(trials):
        x, y = (v / np.linalg.norm(v) for v in
                rng.normal(size=(2, t.shape[0])) + 1j * rng.normal(size=(2, t.shape[0])))
        xx = _mul(t, x, x)
        lhs = _mul(t, _mul(t, xx, y), x)
        rhs = _mul(t, xx, _mul(t, y, x))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


# --- checkers ------------------------------------------------------------------


def check_flow(energies, stop_reason: str, terminal: np.ndarray, target: float) -> list[str]:
    """A flow ends off max_steps, never raises the energy, stays Jordan and hits target."""
    problems = []
    if stop_reason == "max_steps":
        problems.append("stopped on max_steps")
    rises = [i for i, (a, b) in enumerate(zip(energies, energies[1:])) if b > a]
    if rises:
        problems.append(f"energy rose at step {rises[0] + 1}")
    defect = jordan_residual(terminal)
    if not defect <= JORDAN_DEFECT_BOUND:
        problems.append(f"terminal Jordan residual {defect:.2e} > {JORDAN_DEFECT_BOUND:g}")
    e = energy(terminal)
    if not abs(e - target) <= ENERGY_TOL:
        problems.append(f"terminal energy {e!r}, expected {target!r}")
    return problems


def check_classify(residual_ok: bool, stype_beta, snap_error: bool, beta, flags: dict,
                   expected_flags: dict, matches, name: str | None) -> list[str]:
    """One classified tensor against its printed or product-rule data.

    stype_beta is the beta diagonal soliton_type returned (None when it
    raised RationalSnapError, which is the documented outcome only when the
    exact beta needs a denominator above the snapping limit).  matches is
    None when match was not run (n > 4).
    """
    problems = []
    if not residual_ok:
        problems.append("soliton_check rejected a soliton")
    if snap_error:
        if max_denominator(beta) <= MAX_DENOMINATOR:
            problems.append(f"soliton_type could not snap beta {[str(b) for b in beta]}")
    elif tuple(stype_beta) != tuple(beta):
        problems.append(f"soliton_type beta {[str(b) for b in stype_beta]} != {[str(b) for b in beta]}")
    for key, want in expected_flags.items():
        if flags[key] != want:
            problems.append(f"{key} = {flags[key]}, expected {want}")
    if matches is not None and name not in matches:
        problems.append(f"match {matches} misses {name}")
    return problems


_LIMIT_ENERGY = re.compile(r"flow limit E=([0-9.eE+-]+)")


def check_tables(payload: dict, printed: dict) -> list[str]:
    """The reproduce --json payload against the paper's tables.

    printed maps each catalog name to (dim, printed beta, distinguished).
    """
    problems = []
    rows = payload.get("rows", [])
    if not payload.get("ok"):
        problems.append("reproduce reported ok = false")
    if len(rows) != sum(ROWS_PER_DIM.values()):
        problems.append(f"{len(rows)} rows, expected {sum(ROWS_PER_DIM.values())}")
    if sorted(row["name"] for row in rows) != sorted(printed):
        problems.append("row names differ from the catalog names")
    per_dim: dict[int, int] = {}
    for row in rows:
        per_dim[row["dim"]] = per_dim.get(row["dim"], 0) + 1
    if per_dim != ROWS_PER_DIM:
        problems.append(f"rows per dim {per_dim}, expected {ROWS_PER_DIM}")
    strata = {int(d): c for d, c in payload.get("strata_by_dim", {}).items()}
    if strata != STRATA_PER_DIM:
        problems.append(f"strata per dim {strata}, expected {STRATA_PER_DIM}")
    for row in rows:
        name = row["name"]
        if not row["ok"]:
            problems.append(f"{name} not ok: {row['note']}")
        if name not in printed:
            problems.append(f"unknown row {name}")
            continue
        _, beta, distinguished = printed[name]
        if distinguished:
            if row["type"] != type_string(beta):
                problems.append(f"{name} type {row['type']}, expected {type_string(beta)}")
        else:
            if row["residual"] <= 1e-8:
                problems.append(f"{name} reads as a soliton (residual {row['residual']:.2e})")
            found = _LIMIT_ENERGY.search(row["note"])
            limit = float(found.group(1)) if found else float("nan")
            if not abs(limit - float(NON_DISTINGUISHED_LIMIT_ENERGY)) <= ENERGY_TOL:
                problems.append(f"{name} flow limit energy {limit}, expected 3/2")
    return problems

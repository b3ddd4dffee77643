"""Normalized negative-gradient flow of the energy and one-parameter degenerations.

The descent is gradient descent with an Armijo backtracking line search,
renormalizing to the unit sphere after every step (the energy is scale
invariant, so the projection is harmless and prevents drift).  Because the
gradient is tangent to the orbit, each step is realized by a group element,
so the discrete trajectory inherits the defining property of the exact
flow: it stays in the orbit of its start and converges to a soliton in the
orbit closure, whose moment spectrum labels the stratum of the start.

On the orbit the energy is squeezed by the stratum energy (Kirwan-Ness):
||beta_{k.x}||^2 <= ||beta_stratum||^2 <= E(x) for every unitary frame k,
where beta_{k.x} is Wolfe's min-norm point of the support weights of k.x.
The flow reads the lower bound in an eigenbasis of the moment matrix and
stops once the two sides meet at float resolution above the floor 1/n.
The upper side may also be a soliton in the orbit closure: the truncation
of the rotated iterate to Wolfe's active weights, reached by an integer
one-parameter subgroup that is checked exactly.  A flow whose energy
falls below its lower bound has left its orbit and is reported as such.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import StructureTensor, act, jordan_defect, _act_table, _inf_act_table, _moment_table
from .moment import MomentReport, SolitonType, soliton_check, soliton_type
from .snap import RationalSnapError
from .weights import (SUPPORT_TOL, degeneration_witness, exact_min_norm_point, min_norm_point,
                      support_weights)

ARMIJO = 1e-4
STEP0 = 1e-2          # first trial step size
STEP_FLOOR = 1e-18
# resolution of every energy comparison: the plateau rule, the certificate
# |E - L| and the fall E < L
ENERGY_TOL = 1e-12
PLATEAU_WINDOW = 500  # steps in a row each lowering E by less than ENERGY_TOL
# bound on step * spectral radius of the direction, so each orbit move
# exp(-s A) stays well conditioned and roundoff cannot hop orbits
MAX_LOG_STRETCH = 2.0

__all__ = ["FlowOptions", "FlowTrace", "run_flow", "DegenerationCurve", "apply_curve"]


@dataclass(frozen=True)
class FlowOptions:
    max_steps: int = 200_000
    grad_tol: float = 1e-9

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {self.max_steps}")
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")


@dataclass(frozen=True)
class FlowTrace:
    energies: list[float]
    grad_norms: list[float]
    terminal: StructureTensor
    steps_taken: int
    converged: bool
    stop_reason: str                      # gradient | certificate | plateau | line_search_floor | left_orbit | max_steps
    terminal_report: MomentReport
    lower_bound: float                    # running max of ||beta||^2 read by the certificate
    terminal_energy: float                # the last iterate's energy, or nu's on a witness stop
    witness: DegenerationCurve | None     # takes the last iterate, rotated into an eigenbasis of m, to nu

    @cached_property
    def terminal_type(self) -> SolitonType | None:
        """moment.soliton_type of the terminal, gated at its own residual; None when not converged or
        not certified.  Worked out on first access, so an unlabelled flow pays nothing."""
        if not self.converged:
            return None
        try:
            return soliton_type(self.terminal, tol=max(10 * self.terminal_report.soliton_residual, 1e-12))
        except (RationalSnapError, ValueError):
            return None

    def write_csv(self, path) -> None:
        """One step,energy,grad_norm row per iterate; on a witness stop, one more at the same step for nu."""
        rows = list(enumerate(zip(self.energies, self.grad_norms)))
        if self.witness is not None:
            t = self.terminal.table / self.terminal.norm
            _, direction = _energy_direction(t)
            rows.append((self.steps_taken, (self.terminal_energy,
                                            float(np.linalg.norm(_inf_act_table(direction, t))))))
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step", "energy", "grad_norm"])
            for step, (e, g) in rows:
                writer.writerow([step, repr(e), repr(g)])


def _energy_direction(t: np.ndarray) -> tuple[float, np.ndarray]:
    """Energy and the Hermitian direction A with grad E = A . t.

    grad E = (4/||t||^2) (m . t - E t) = (4/||t||^2) ((m + E I) . t), so the
    negative gradient is tangent to the orbit and the flow can be discretized
    by group elements exp(-s A), never leaving the orbit.
    """
    n2 = float(np.vdot(t, t).real)
    m = _moment_table(t) / n2
    e = float(np.vdot(m, m).real)
    return e, 4.0 / n2 * (m + e * np.eye(t.shape[0]))


def _orbit_step(t: np.ndarray, evals: np.ndarray, vecs: np.ndarray, step: float) -> np.ndarray:
    """exp(-s A) . t from the eigendecomposition A = V diag(evals) V^*."""
    vecs_h = vecs.conj().T
    flow_g = (vecs * np.exp(-step * evals)) @ vecs_h
    flow_g_inv = (vecs * np.exp(step * evals)) @ vecs_h
    moved = _act_table(t, flow_g_inv, flow_g)
    return 0.5 * (moved + np.swapaxes(moved, 0, 1))  # keep float symmetry exact


@dataclass
class _Face:
    """Wolfe's active weights on one support mask: the coefficients they keep, and their witness."""

    keep: np.ndarray              # coefficient mask of the active weights
    vectors: list[tuple[int, ...]]
    active: list[int]

    @cached_property
    def exponents(self) -> tuple[int, ...] | None:
        """Integer a, checked exactly, that degenerates the support to keep; None when none exists."""
        beta = exact_min_norm_point(self.vectors, self.active)
        return None if beta is None else degeneration_witness(self.vectors, self.active, beta)


def _lower_bound(t: np.ndarray, vecs: np.ndarray, above: float,
                 memo: dict[bytes, tuple[float, _Face | None]]) -> tuple[float, np.ndarray, _Face | None]:
    """||beta||^2 of t's support weights in the frame that diagonalizes m.

    vecs holds eigenvectors of the moment matrix of t as columns; rotating
    t by the unitary vecs^* is a move inside its orbit.  The support is cut
    at SUPPORT_TOL of the largest coefficient, so the result bounds the
    stratum energy of the rotated tensor with its sub-cut coefficients
    dropped.  Returns the bound, the rotated tensor and, for a bound above
    `above` whose Wolfe active set is smaller than the support, that
    active face, else None.  memo holds bound and face per support mask.
    """
    rotated = _act_table(t, vecs, vecs.conj().T)
    rotated = 0.5 * (rotated + np.swapaxes(rotated, 0, 1))
    mags = np.abs(rotated)
    support = mags > SUPPORT_TOL * np.max(mags)
    key = support.tobytes()
    if key not in memo:
        weights = support_weights(StructureTensor(rotated))
        vectors = [w.diagonal for w in weights]
        result = min_norm_point(vectors)
        bound = float(result.point @ result.point)
        active = [int(i) for i in np.flatnonzero(result.coefficients)]
        face = None
        # at the floor every weight lies on <alpha, beta> = ||beta||^2 and
        # nothing can certify, so no face is kept there
        if bound > above and len(active) < len(vectors):
            keep = np.zeros_like(support)
            for i, j, k in (slot for idx in active for slot in weights[idx].triples):
                keep[i - 1, j - 1, k - 1] = keep[j - 1, i - 1, k - 1] = True
            face = _Face(keep, vectors, active)
        memo[key] = (bound, face)
    bound, face = memo[key]
    return bound, rotated, face


def _read_certificate(t: np.ndarray, vecs: np.ndarray, e: float, lower: float, floor: float,
                      memo: dict) -> tuple[float, str | None, tuple[np.ndarray, DegenerationCurve] | None]:
    """One read of the lower bound at the iterate t of energy e.

    Returns the new running max of L, a stop reason (left_orbit,
    certificate) or None, and on a certificate by truncation the pair
    (unit-norm terminal table in t's frame, witness curve).  The truncation
    nu is tested in floats first; the exact witness is worked out, once per
    support mask, only for a nu that is a soliton at energy L.
    """
    bound, rotated, face = _lower_bound(t, vecs, floor + ENERGY_TOL, memo)
    lower = max(lower, bound)
    if e < lower - ENERGY_TOL:
        return lower, "left_orbit", None
    if lower - floor <= ENERGY_TOL:
        return lower, None, None
    if abs(e - lower) <= ENERGY_TOL:
        return lower, "certificate", None
    if face is not None:
        nu = StructureTensor(np.where(face.keep, rotated, 0.0))
        report = soliton_check(nu)
        if abs(report.energy - lower) <= ENERGY_TOL and report.is_soliton and face.exponents is not None:
            back = _act_table(nu.table / nu.norm, vecs.conj().T, vecs)
            back = 0.5 * (back + np.swapaxes(back, 0, 1))
            return lower, "certificate", (back, DegenerationCurve(tuple(-x for x in face.exponents)))
    return lower, None, None


def _is_power_of_two(k: int) -> bool:
    return k > 0 and k & (k - 1) == 0


def run_flow(mu: StructureTensor, opts: FlowOptions = FlowOptions()) -> FlowTrace:
    """Descend the energy from mu until the gradient dies or the energy is certified.

    Energies are non-increasing over accepted steps.  Steps move along the
    orbit by the group elements exp(-s (m + E I)) whose derivative at s = 0
    is exactly the negative gradient, so in exact arithmetic the discrete
    trajectory never leaves the orbit (untying it from the measure-zero stable manifolds a
    plain Euler step falls off).  Convergence is reported through
    stop_reason:

    - gradient: the gradient norm reached grad_tol;
    - certificate: the stratum energy is pinned from both sides at
      ENERGY_TOL, with the lower side L above the floor 1/n by more
      than that tolerance.  L is the running max of ||beta||^2 over the
      support weights (cut at SUPPORT_TOL) of the iterate in an eigenbasis
      of m, read at the start, after each step whose count is a power of
      two and on each plateau step whose count is a power of two, and
      memoized per support mask.  On the orbit of mu, L <= stratum energy,
      up to that cut.  The upper side is either E itself (|E - L| within
      the tolerance) or a soliton nu in the orbit closure with |E(nu) - L|
      within it; then nu is the terminal and FlowTrace.witness holds the
      degeneration.  nu is the truncation of the rotated iterate to the
      coefficients whose weights Wolfe keeps with positive weight (the
      minimal face that contains beta); it certifies only when an integer
      exponent vector, checked exactly, is zero on those weights and
      positive on every other supported weight, so that the one-parameter
      subgroup it defines degenerates the iterate to nu.  That vector is
      worked out only for a nu that passes the float checks.  The witness thus
      certifies A_4_63 at step 0.  It does not cover starts whose
      truncation is not yet critical, such as torus or generic starts of
      A_4_63: those still flow until E meets L or the plateau rule stops
      them.  A bound at the floor never stops the flow, because iterates
      that roundoff carries off their orbit end there with their support
      filled, and every tensor meets it (tr m = -1);
    - plateau: PLATEAU_WINDOW steps in a row lowered E by less than
      ENERGY_TOL;
    - line_search_floor: no float64 decrease possible;
    - left_orbit: E < L - ENERGY_TOL at a read or at the stop.  The
      flow cannot end below the stratum energy of its start, so roundoff
      has carried the iterate off the orbit of mu (up to the support cut);
    - max_steps: the step budget ran out.

    converged is False for left_orbit and max_steps.  The terminal's exact
    type, FlowTrace.terminal_type, is worked out only when it is read.
    """
    if mu.is_zero():
        raise ValueError("cannot flow the zero tensor")
    defect = jordan_defect(mu)
    if defect > 1e-9 * max(1.0, mu.norm**3):
        warnings.warn(
            f"flow started from a non-Jordan tensor (defect {defect:.3e}); "
            "the flow is defined but the terminal need not be a Jordan soliton",
            stacklevel=2,
        )
    t = mu.table / mu.norm
    e, direction = _energy_direction(t)
    evals, vecs = np.linalg.eigh(direction)  # shared by the cap, every backtrack and the certificate
    energies = [e]
    grad_norms = [float(np.linalg.norm(_inf_act_table(direction, t)))]
    step = STEP0
    plateau = 0
    memo: dict = {}
    floor = 1.0 / mu.dim  # E >= 1/n for every tensor, since tr m = -1
    steps_taken = 0
    lower, stop_reason, witness = _read_certificate(t, vecs, e, -math.inf, floor, memo)
    if grad_norms[0] <= opts.grad_tol:
        stop_reason, witness = "gradient", None
    while stop_reason is None:
        if steps_taken >= opts.max_steps:
            stop_reason = "max_steps"
            break
        gn = grad_norms[-1]
        accepted = False
        spread = float(np.max(np.abs(evals))) or 1.0
        step = min(step, MAX_LOG_STRETCH / spread)
        while step > STEP_FLOOR:
            cand = _orbit_step(t, evals, vecs, step)
            cand = cand / np.linalg.norm(cand)
            e2, direction2 = _energy_direction(cand)
            if e2 <= e - ARMIJO * step * gn * gn:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stop_reason = "line_search_floor"
            break
        plateau = plateau + 1 if abs(e - e2) < ENERGY_TOL else 0
        t, e, direction = cand, e2, direction2
        evals, vecs = np.linalg.eigh(direction)
        steps_taken += 1
        energies.append(e)
        grad_norms.append(float(np.linalg.norm(_inf_act_table(direction, t))))
        step *= 1.1
        if _is_power_of_two(steps_taken) or _is_power_of_two(plateau):
            lower, stop_reason, witness = _read_certificate(t, vecs, e, lower, floor, memo)
            if stop_reason is not None:
                break
        if plateau >= PLATEAU_WINDOW:
            stop_reason = "plateau"
        elif grad_norms[-1] <= opts.grad_tol:
            stop_reason = "gradient"
    if e < lower - ENERGY_TOL:
        stop_reason = "left_orbit"

    converged = stop_reason not in ("left_orbit", "max_steps")
    terminal = StructureTensor(t if witness is None else witness[0])
    report = soliton_check(terminal)
    return FlowTrace(
        energies=energies,
        grad_norms=grad_norms,
        terminal=terminal,
        steps_taken=steps_taken,
        converged=converged,
        stop_reason=stop_reason,
        terminal_report=report,
        lower_bound=lower,
        terminal_energy=e if witness is None else report.energy,
        witness=None if witness is None else witness[1],
    )


@dataclass(frozen=True)
class DegenerationCurve:
    """One-parameter subgroup g_t = diag(t^{a_1}, ..., t^{a_n})."""

    exponents: tuple[float, ...]

    def matrix(self, t: float) -> np.ndarray:
        return np.diag([float(t) ** a for a in self.exponents]).astype(complex)


def apply_curve(mu: StructureTensor, curve: DegenerationCurve, t: float) -> StructureTensor:
    """act(g_t^{-1}, mu); small t produces explicit degeneration witnesses."""
    if t == 0:
        raise ValueError("t must be nonzero (take limits through small t instead)")
    if len(curve.exponents) != mu.dim:
        raise ValueError(f"curve has {len(curve.exponents)} exponents for dim {mu.dim}")
    return act(np.linalg.inv(curve.matrix(t)), mu)

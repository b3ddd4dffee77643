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

from .algebra import StructureTensor, act, jordan_defect, _moment_table, _unitary_act_table
from .moment import MomentReport, SolitonType, energy_gradient, soliton_check, soliton_type
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
            rows.append((self.steps_taken, (self.terminal_energy, energy_gradient(self.terminal.normalized()).norm)))
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step", "energy", "grad_norm"])
            for step, (e, g) in rows:
                writer.writerow([step, repr(e), repr(g)])


def _energy_moment(t: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Energy E, moment map m and ||t||^2 of the table t."""
    n2 = float(np.vdot(t, t).real)
    m = _moment_table(t) / n2
    return float(np.vdot(m, m).real), m, n2


def _eigenframe(t: np.ndarray, e: float, m: np.ndarray, n2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t rotated into an eigenframe V of m, V, and the eigenvalues there of the direction A.

    grad E = (4/||t||^2) (m . t - E t) = A . t with A = (4/||t||^2) (m + E I),
    so the negative gradient is tangent to the orbit and the flow can be
    discretized by group elements exp(-s A), never leaving the orbit.  A
    shares m's eigenframe, in which it acts diagonally (see _weight_sums).
    """
    evals, vecs = np.linalg.eigh(m)
    return _unitary_act_table(t, vecs.conj().T), vecs, 4.0 / n2 * (evals + e)


def _weight_sums(evals: np.ndarray) -> np.ndarray:
    """lam[i, j, k] = evals_i + evals_j - evals_k.

    In the eigenframe of A = diag(evals) the torus acts diagonally: the
    coefficient (i, j, k) has weight -e_i - e_j + e_k, so
    exp(-s A) . t = t * exp(s lam) and A . t = -lam * t.
    """
    return evals[:, None, None] + evals[None, :, None] - evals[None, None, :]


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


def _lower_bound(rotated: np.ndarray, above: float,
                 memo: dict[bytes, tuple[float, _Face | None]]) -> tuple[float, _Face | None]:
    """||beta||^2 of the support weights of rotated, a table held in a frame that diagonalizes its m.

    The frame is unitary, so rotated lies in the orbit of the caller's
    tensor.  The support is cut at SUPPORT_TOL of the largest coefficient,
    so the result bounds the stratum energy of rotated with its sub-cut
    coefficients dropped.  Returns the bound and, for a bound above `above`
    whose Wolfe active set is smaller than the support, that active face,
    else None.  memo holds bound and face per support mask.
    """
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
    return memo[key]


def _read_certificate(rotated: np.ndarray, e: float, lower: float, floor: float,
                      memo: dict) -> tuple[float, str | None, tuple[np.ndarray, DegenerationCurve] | None]:
    """One read of the lower bound at the iterate rotated of energy e, held in an eigenframe of its m.

    Returns the new running max of L, a stop reason (left_orbit,
    certificate) or None, and on a certificate by truncation the pair
    (unit-norm nu in that frame, witness curve).  The truncation
    nu is tested in floats first; the exact witness is worked out, once per
    support mask, only for a nu that is a soliton at energy L.
    """
    bound, face = _lower_bound(rotated, floor + ENERGY_TOL, memo)
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
            return lower, "certificate", (nu.table / nu.norm, DegenerationCurve(tuple(-x for x in face.exponents)))
    return lower, None, None


def _is_power_of_two(k: int) -> bool:
    return k > 0 and k & (k - 1) == 0


def run_flow(mu: StructureTensor, opts: FlowOptions = FlowOptions()) -> FlowTrace:
    """Descend the energy from mu until the gradient dies or the energy is certified.

    Energies are non-increasing over accepted steps.  Steps move along the
    orbit by the group elements exp(-s (m + E I)) whose derivative at s = 0
    is exactly the negative gradient, so in exact arithmetic the discrete
    trajectory never leaves the orbit (untying it from the measure-zero stable manifolds a
    plain Euler step falls off).

    The iterate is held in the eigenframe of its direction A = (4/||t||^2)
    (m + E I), where exp(-s A) is diagonal: each backtracking candidate is
    one elementwise scaling by exp(s lam) (see _weight_sums), a
    renormalization and the moment table, and the gradient norm is
    ||lam * t||.  An accepted step takes one eigh of the candidate's m, one
    rotation into the new frame and one n x n product onto the accumulated
    unitary frame, which takes the terminal (or nu) back to mu's basis once,
    at the stop.  A start with no imaginary part flows in float64.
    Convergence is reported through stop_reason:

    - gradient: the gradient norm reached grad_tol;
    - certificate: the stratum energy is pinned from both sides at
      ENERGY_TOL, with the lower side L above the floor 1/n by more
      than that tolerance.  L is the running max of ||beta||^2 over the
      support weights (cut at SUPPORT_TOL) of the held iterate, read at
      the start, after each step whose count is a power of two and on each
      plateau step whose count is a power of two, and memoized per support
      mask.  On the orbit of mu, L <= stratum energy,
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
    # a real start has a real symmetric m and orthogonal eigenframes, so it flows in real arithmetic
    t = (mu.table if np.any(mu.table.imag) else mu.table.real) / mu.norm
    e, m, n2 = _energy_moment(t)
    # the iterate is held in the eigenframe of its direction; frame maps it back to mu's basis
    t, frame, rates = _eigenframe(t, e, m, n2)
    lam = _weight_sums(rates)
    energies = [e]
    grad_norms = [float(np.linalg.norm(lam * t))]
    step = STEP0
    plateau = 0
    memo: dict = {}
    floor = 1.0 / mu.dim  # E >= 1/n for every tensor, since tr m = -1
    steps_taken = 0
    lower, stop_reason, witness = _read_certificate(t, e, -math.inf, floor, memo)
    if grad_norms[0] <= opts.grad_tol:
        stop_reason, witness = "gradient", None
    while stop_reason is None:
        if steps_taken >= opts.max_steps:
            stop_reason = "max_steps"
            break
        gn = grad_norms[-1]
        accepted = False
        spread = float(np.max(np.abs(rates))) or 1.0
        step = min(step, MAX_LOG_STRETCH / spread)
        while step > STEP_FLOOR:
            cand = t * np.exp(step * lam)
            cand = cand / np.linalg.norm(cand)
            e2, m, n2 = _energy_moment(cand)
            if e2 <= e - ARMIJO * step * gn * gn:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stop_reason = "line_search_floor"
            break
        plateau = plateau + 1 if abs(e - e2) < ENERGY_TOL else 0
        e = e2
        t, vecs, rates = _eigenframe(cand, e, m, n2)
        frame = frame @ vecs
        lam = _weight_sums(rates)
        steps_taken += 1
        energies.append(e)
        grad_norms.append(float(np.linalg.norm(lam * t)))
        step *= 1.1
        if _is_power_of_two(steps_taken) or _is_power_of_two(plateau):
            lower, stop_reason, witness = _read_certificate(t, e, lower, floor, memo)
            if stop_reason is not None:
                break
        if plateau >= PLATEAU_WINDOW:
            stop_reason = "plateau"
        elif grad_norms[-1] <= opts.grad_tol:
            stop_reason = "gradient"
    if e < lower - ENERGY_TOL:
        stop_reason = "left_orbit"

    converged = stop_reason not in ("left_orbit", "max_steps")
    terminal = StructureTensor(_unitary_act_table(t if witness is None else witness[0], frame))
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

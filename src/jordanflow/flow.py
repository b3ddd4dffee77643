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
At the floor, E >= 1/n is the lower side for every tensor; a semisimple
Jordan start lies in the lowest stratum, of energy 1/n, so it stops as
soon as E reaches the floor.
The upper side may also be a soliton in the orbit closure: the truncation
of the rotated iterate to Wolfe's active weights, reached by an integer
one-parameter subgroup that is checked exactly.  When instead every support
weight is active, the torus moment map meets beta once on the positive
torus orbit of the rotated iterate (Atiyah), and one diagonal move, solved
in closed form, lands there: a soliton at energy L ends the flow one step
later.  A flow whose energy falls below its lower bound has left its orbit
and is reported as such.

The lower bound and Wolfe's face depend on the support mask alone, so they
are read from weights.support_face, the process-wide memo that the labels
share.  Every frame is an eigenframe of m, taken by one eigh per accepted
step.  Steps of a start in the lowest stratum cannot fall and size
themselves by the energy drop; the others keep a slow fixed growth.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (StructureTensor, act, is_jordan, is_semisimple, jordan_defect, _moment_table,
                      _unitary_act_table)
from .moment import MomentReport, SolitonType, energy, energy_gradient, soliton_check, soliton_type
from .snap import RationalSnapError
from .weights import Face, support_face

ARMIJO = 1e-4
# on a step that cannot fall (see run_flow), the step grows by STEP_UP when the energy drop is more
# than DECREASE_RATIO * s * g^2 and shrinks by STEP_DOWN otherwise; on a quadratic of curvature h the
# drop is (1 - s h / 2) s g^2, so the rule holds s near 1 / h
DECREASE_RATIO = 0.5
STEP_UP = 1.5
STEP_DOWN = 0.8
STEP0 = 1e-2          # first trial step size
STEP_FLOOR = 1e-18
# resolution of every energy comparison: the plateau rule, the certificate
# |E - L| and the fall E < L
ENERGY_TOL = 1e-12
PLATEAU_WINDOW = 500  # steps in a row each lowering E by less than ENERGY_TOL
# bound on step * spectral radius of the direction, so each orbit move
# exp(-s A) stays well conditioned and roundoff cannot hop orbits; on a step
# that can fall the step grows only by 1.1 towards it, since faster growth
# lets roundoff carry more non-semisimple flows off their orbit
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
    energies: list[float]                 # one per iterate: the start, then each accepted step or balancing move
    grad_norms: list[float]               # at the same iterates
    terminal: StructureTensor
    steps_taken: int                      # accepted steps, a balancing move included
    converged: bool
    stop_reason: str                      # gradient | certificate | plateau | line_search_floor | left_orbit | max_steps
    lower_bound: float                    # running max of ||beta||^2 read by the certificate
    terminal_energy: float                # the last iterate's energy, or nu's on a witness stop
    witness: DegenerationCurve | None     # takes the last iterate, rotated into an eigenbasis of m, to nu

    @cached_property
    def terminal_report(self) -> MomentReport:
        """moment.soliton_check of the terminal; worked out on first access, like terminal_type."""
        return soliton_check(self.terminal)

    @cached_property
    def terminal_type(self) -> SolitonType | None:
        """moment.soliton_type of the terminal, gated at its own residual; None when not converged or
        not certified.  Worked out on first access, so an unlabelled flow pays nothing."""
        if not self.converged:
            return None
        try:
            return soliton_type(self.terminal, max(10 * self.terminal_report.soliton_residual, 1e-12))
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


def _eigenframe(t: np.ndarray, e: float, m: np.ndarray, n2: float,
                frame: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t rotated into an eigenframe V of m, frame @ V, and the eigenvalues there of the direction A.

    grad E = (4/||t||^2) (m . t - E t) = A . t with A = (4/||t||^2) (m + E I),
    so the negative gradient is tangent to the orbit and the flow can be
    discretized by group elements exp(-s A), never leaving the orbit.  A
    shares m's eigenframe, in which it acts diagonally (see _weight_sums).
    """
    evals, vecs = np.linalg.eigh(m)
    return _unitary_act_table(t, vecs.conj().T), frame @ vecs, 4.0 / n2 * (evals + e)


def _weight_sums(evals: np.ndarray) -> np.ndarray:
    """lam[i, j, k] = evals_i + evals_j - evals_k.

    In the eigenframe of A = diag(evals) the torus acts diagonally: the
    coefficient (i, j, k) has weight -e_i - e_j + e_k, so
    exp(-s A) . t = t * exp(s lam) and A . t = -lam * t.
    """
    return (evals[:, None] + evals)[:, :, None] - evals


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm(a), bit for bit: the same ravel and dot(s) without its argument dispatch."""
    a = a.ravel(order="K")
    if a.dtype.kind == "c":
        return math.sqrt(a.real.dot(a.real) + a.imag.dot(a.imag))
    return math.sqrt(a.dot(a))


def _balance(rotated: np.ndarray, face: Face) -> np.ndarray:
    """rotated moved by the positive diagonal that carries its mass onto Wolfe's coefficients, at unit norm.

    In a frame where m is diagonal, diag m = sum_a (p_a / ||t||^2) alpha_a,
    p_a the mass |t|^2 on the coefficients of support weight alpha_a.  The
    torus moment map meets each point of the relative interior of the
    weights' hull once on the positive torus orbit (Atiyah), so when every
    support weight is active, diag(e^u) with p_a e^{2 <u, alpha_a>}
    proportional to Wolfe's coefficient w_a puts diag m at beta.  u comes
    from face.balancer in closed form; every coefficient, sub-cut ones
    included, is scaled by e^{u_k - u_i - u_j}, so the result is an orbit
    point of rotated, moved as a flow step moves it.
    """
    mass = np.bincount(face.slots.ravel() + 1, weights=(rotated * rotated.conj()).real.ravel(),
                       minlength=len(face.result.coefficients) + 1)[1:]
    u = (face.balancer @ (np.log(face.result.coefficients) - np.log(mass)))[:-1]
    moved = rotated * np.exp(-_weight_sums(u))
    return moved / _norm(moved)


def _read_certificate(rotated: np.ndarray, e: float, lower: float, floor: float,
                      can_move: bool) -> tuple[float, str | None, tuple[np.ndarray, DegenerationCurve | None] | None]:
    """One read of the lower bound at the iterate rotated of energy e, held in an eigenframe of its m.

    Returns the new running max of L, a stop reason (left_orbit,
    certificate) or None, and on a certificate by a move the pair (unit-norm
    end point in that frame, witness curve or None).  Both moves are tried
    only above the floor, where every weight lies on
    <alpha, beta> = ||beta||^2 and nothing can certify, and they exclude
    each other:

    - truncation, when Wolfe's active set is smaller than the support: nu
      keeps the coefficients of the active weights.  It is tested in floats
      first; the exact witness curve is worked out, once per support mask,
      only for a nu that is a soliton at energy L;
    - balancing, when every support weight is active and can_move (a step
      is left in the budget): _balance moves rotated onto the torus orbit
      point whose diagonal of m is beta.  It is accepted, as one more step
      of the flow with no curve, when it is a soliton at energy L.  Affinely
      dependent weights need not balance in one move, and then fail this.

    The bound and the face are weights.support_face of rotated, whose
    support is cut at SUPPORT_TOL of the largest coefficient, so L bounds
    the stratum energy of rotated with its sub-cut coefficients dropped.
    """
    face = support_face(rotated)
    lower = max(lower, face.bound)
    if e < lower - ENERGY_TOL:
        return lower, "left_orbit", None
    if lower - floor <= ENERGY_TOL:
        return lower, None, None
    if abs(e - lower) <= ENERGY_TOL:
        return lower, "certificate", None
    if face.bound <= floor + ENERGY_TOL:
        return lower, None, None
    if len(face.active) < len(face.result.coefficients):
        nu = StructureTensor(np.where(face.keep, rotated, 0.0))
        report = soliton_check(nu)
        if abs(report.energy - lower) <= ENERGY_TOL and report.is_soliton and face.exponents is not None:
            return lower, "certificate", (nu.table / nu.norm, DegenerationCurve(tuple(-x for x in face.exponents)))
    elif can_move:
        moved = _balance(rotated, face)
        if abs(_energy_moment(moved)[0] - lower) <= ENERGY_TOL and soliton_check(StructureTensor(moved)).is_soliton:
            return lower, "certificate", (moved, None)
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

    The step size starts at STEP0 and is capped by MAX_LOG_STRETCH.  After
    an accepted step of size s from E to E' at gradient norm g, it is set by
    whether the flow can fall, that is leave the orbit of mu by roundoff and
    end below its stratum energy.  A step cannot fall when the start lies in
    the lowest stratum: it is Jordan and semisimple (see certificate below),
    so no energy lies below its stratum energy 1/n.  Semisimplicity is
    first asked at the first accepted step and kept on mu, so a flow that
    ends at step 0 never asks.  Such a step multiplies s by STEP_UP when
    E - E' > DECREASE_RATIO s g^2 and by STEP_DOWN otherwise.  On a
    quadratic of curvature h the ratio (E - E')/(s g^2) is 1 - s h/2, which
    is at least 1/2 exactly when s <= 1/h, so s stays near 1/h without
    oscillating.  Every other step multiplies s by 1.1: faster growth there
    lets roundoff carry more non-semisimple flows off their orbit.
    Convergence is reported through stop_reason:

    - gradient: the gradient norm reached grad_tol;
    - certificate: the stratum energy is pinned from both sides at
      ENERGY_TOL, with the lower side L above the floor 1/n by more
      than that tolerance.  L is the running max of ||beta||^2 over the
      support weights (cut at SUPPORT_TOL) of the held iterate, read at
      the start, after each step whose count is a power of two and on each
      plateau step whose count is a power of two, and memoized per support
      mask for the whole process.  On the orbit of mu, L <= stratum energy,
      up to that cut.  The upper side is E itself (|E - L| within the
      tolerance), an orbit point that a balancing move reaches, or a soliton
      nu in the orbit closure with |E(nu) - L| within it.  The balancing
      move is tried at a read where every support weight is active in
      Wolfe's face and a step is left in the budget (steps_taken <
      max_steps): the positive diagonal that makes the mass on each weight
      proportional to its barycentric coefficient puts diag m at beta
      (flow._balance).  The moved iterate, when it is a soliton with
      |E - L| within the tolerance, is taken as one more accepted step and
      ends the flow, with no witness; otherwise the flow goes on as if no
      move was tried.  Most torus starts of non-semisimple entries balance
      at step 0; those whose weights are affinely dependent do not.  On a
      witness stop, nu is the terminal and FlowTrace.witness holds the
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
      them.  A bound read at the floor never stops the flow, because
      iterates that roundoff carries off their orbit end there with their
      support filled, and every tensor meets it (tr m = -1).  The floor
      itself certifies a start that is Jordan (algebra.is_jordan, decided
      at the start, where a non-Jordan start is warned about) and
      semisimple, whose stratum energy is 1/n: the first accepted step
      with E - 1/n <= ENERGY_TOL stops there, unless the plateau or the
      gradient stop fires on it.  Semisimplicity is Albert's criterion, a
      trace form of full rank (algebra.is_semisimple: one n x n SVD of
      mu, run at most once per flow, as the step rule above asks).  A
      non-semisimple start keeps its old stop there: its stratum energy
      lies above the floor (as for all 90
      non-semisimple catalog entries), so it reached the floor by a fall;
    - plateau: PLATEAU_WINDOW steps in a row lowered E by less than
      ENERGY_TOL;
    - line_search_floor: no float64 decrease possible;
    - left_orbit: E < L - ENERGY_TOL at a read or at the stop.  The
      flow cannot end below the stratum energy of its start, so roundoff
      has carried the iterate off the orbit of mu (up to the support cut);
    - max_steps: the step budget ran out.

    converged is False for left_orbit and max_steps.  The terminal's
    soliton check and exact type, FlowTrace.terminal_report and
    terminal_type, are worked out only when they are read.
    """
    if mu.is_zero():
        raise ValueError("cannot flow the zero tensor")
    jordan = is_jordan(mu)
    if not jordan:
        warnings.warn(
            f"flow started from a non-Jordan tensor (defect {jordan_defect(mu):.3e}); "
            "the flow is defined but the terminal need not be a Jordan soliton",
            stacklevel=2,
        )
    # a real start has a real symmetric m and orthogonal eigenframes, so it flows in real arithmetic
    t = (mu.table if np.any(mu.table.imag) else mu.table.real) / mu.norm
    e, m, n2 = _energy_moment(t)
    # the iterate is held in the eigenframe of its direction; frame maps it back to mu's basis
    t, frame, rates = _eigenframe(t, e, m, n2, np.eye(mu.dim, dtype=t.dtype))
    lam = _weight_sums(rates)
    energies = [e]
    grad_norms = [_norm(lam * t)]
    step = STEP0
    plateau = 0
    floor = 1.0 / mu.dim  # E >= 1/n for every tensor, since tr m = -1
    steps_taken = 0
    lower, stop_reason, move = _read_certificate(t, e, -math.inf, floor, opts.max_steps > 0)
    if grad_norms[0] <= opts.grad_tol:
        stop_reason, move = "gradient", None
    while stop_reason is None:
        if steps_taken >= opts.max_steps:
            stop_reason = "max_steps"
            break
        gn = grad_norms[-1]
        accepted = False
        spread = float(max(-rates[0], rates[-1])) or 1.0   # rates ascend, so this is max |rates|
        step = min(step, MAX_LOG_STRETCH / spread)
        while step > STEP_FLOOR:
            cand = t * np.exp(step * lam)
            cand = cand / _norm(cand)
            e2, m, n2 = _energy_moment(cand)
            if e2 <= e - ARMIJO * step * gn * gn:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stop_reason = "line_search_floor"
            break
        plateau = plateau + 1 if abs(e - e2) < ENERGY_TOL else 0
        t, frame, rates = _eigenframe(cand, e2, m, n2, frame)
        lam = _weight_sums(rates)
        # a Jordan semisimple start lies in the lowest stratum, of energy 1/n
        lowest = jordan and is_semisimple(mu)
        if lowest:   # a step that cannot fall
            step *= STEP_UP if e - e2 > DECREASE_RATIO * step * gn * gn else STEP_DOWN
        else:
            step *= 1.1
        e = e2
        steps_taken += 1
        energies.append(e)
        grad_norms.append(_norm(lam * t))
        if _is_power_of_two(steps_taken) or _is_power_of_two(plateau):
            lower, stop_reason, move = _read_certificate(t, e, lower, floor, steps_taken < opts.max_steps)
            if stop_reason is not None:
                break
        if plateau >= PLATEAU_WINDOW:
            stop_reason = "plateau"
        elif grad_norms[-1] <= opts.grad_tol:
            stop_reason = "gradient"
        elif lowest and e - floor <= ENERGY_TOL:
            stop_reason = "certificate"
    if move is not None and move[1] is None:   # a balancing move, taken as one more accepted step
        e, m, n2 = _energy_moment(move[0])
        t, frame, rates = _eigenframe(move[0], e, m, n2, frame)
        steps_taken += 1
        energies.append(e)
        grad_norms.append(_norm(_weight_sums(rates) * t))
        move = None
    if e < lower - ENERGY_TOL:
        stop_reason = "left_orbit"

    converged = stop_reason not in ("left_orbit", "max_steps")
    terminal = StructureTensor(_unitary_act_table(t if move is None else move[0], frame))
    return FlowTrace(
        energies=energies,
        grad_norms=grad_norms,
        terminal=terminal,
        steps_taken=steps_taken,
        converged=converged,
        stop_reason=stop_reason,
        lower_bound=lower,
        terminal_energy=e if move is None else energy(terminal),
        witness=None if move is None else move[1],
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

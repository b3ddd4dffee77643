"""Normalized negative-gradient flow of the energy and one-parameter degenerations.

The descent is gradient descent with an Armijo backtracking line search,
renormalizing to the unit sphere after every step (the energy is scale
invariant, so the projection is harmless and prevents drift).  Because the
gradient is tangent to the orbit, each step is realized by a group element,
so the discrete trajectory inherits the defining property of the exact
flow: it stays in the orbit of its start and converges to a soliton in the
orbit closure, whose moment spectrum labels the stratum of the start.
A Jordan semisimple start lies in the lowest stratum, whose soliton is the
minimal vector of its closed orbit (Kempf-Ness), so it takes Newton steps
for log ||exp(X) . t||^2 instead, as in the second-order moment-map methods
of Buergisser, Franks, Garg, Oliveira, Walter and Wigderson (FOCS 2019).

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
share.  Every frame of a gradient step is an eigenframe of m, taken by one
eigh per accepted step, and every frame of a Newton step an eigenframe of
its direction.  Steps of a start in the lowest stratum cannot fall: each
starts at the Newton step; the others keep a slow fixed growth.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (StructureTensor, act, is_jordan, is_semisimple, jordan_defect, _inf_act_table, _moment_table,
                      _unitary_act_table)
from .moment import SOLITON_TOL, MomentReport, SolitonType, energy, energy_gradient, soliton_check, soliton_type
from .snap import RationalSnapError
from .weights import Face, support_face

ARMIJO = 1e-4
STEP0 = 1e-2          # first trial step size
# G's kernel, the Hermitian derivations of t, is lifted by this share of G's mean eigenvalue, so
# the Newton solve is never singular; exp(s N) fixes t for N in the kernel, so the lift moves t nowhere
NEWTON_RIDGE = 1e-12
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


def _is_soliton(t: np.ndarray, e: float, m: np.ndarray, n2: float) -> bool:
    """moment.soliton_check's verdict on the table t of energy e, moment map m and squared norm n2.

    Its residual ||D . t|| / ||t||^3, with D = ||t||^2 (m + E I), is
    ||(m + E I) . t|| / ||t||.
    """
    return _norm(_inf_act_table(m + e * np.eye(m.shape[0]), t)) <= SOLITON_TOL * math.sqrt(n2)


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


def _gram(t: np.ndarray) -> np.ndarray:
    """G[(a, b), (c, d)] = <E_ab . t, E_cd . t> over the matrix units, averaged to act on Hermitian X.

    With (E_ab . t)[i, j, k] = d_ka t[i, j, b] - d_ib t[a, j, k] - d_jb t[i, a, k]
    (algebra._operator_matrix), G = d_ac S_bd + 2 d_bd R_ac + 2 Q_adbc -
    2 P_dbca - 2 P_acbd, where S_bd = sum conj t_ijb t_ijd, R_ac = sum
    conj t_ajk t_cjk, Q_pqrs = sum_k conj t_pqk t_rsk and P_pqrs = sum_j
    conj t_pjq t_rjs: four matmuls of t's reshapes.  A Hermitian X has
    x^H G x = ||X . t||^2, and so has the average of G with its image under
    x -> transpose(conj x), which maps Hermitian X to Hermitian X; that
    average is returned, as an (n^2, n^2) matrix.
    """
    n = t.shape[0]
    cols = t.reshape(n * n, n)                      # cols[(i, j), k] = t[i, j, k]
    rows = t.reshape(n, n * n)                      # rows[a, (j, k)] = t[a, j, k]
    mid = t.transpose(0, 2, 1).reshape(n * n, n)    # mid[(p, q), j] = t[p, j, q]
    eye = np.eye(n)
    s = cols.conj().T @ cols
    r = rows.conj() @ rows.T
    q = (cols.conj() @ cols.T).reshape((n,) * 4)
    cross = (mid.conj() @ mid.T).reshape((n,) * 4).transpose(0, 2, 1, 3)   # cross[a, b, c, d] = P_acbd
    g = (eye[:, None, :, None] * s[None, :, None, :] + 2 * r[:, None, :, None] * eye[None, :, None, :]
         + 2 * (q.transpose(0, 2, 3, 1) - cross - cross.transpose(2, 3, 0, 1).conj()))
    return (0.5 * (g + g.transpose(1, 0, 3, 2).conj())).reshape(n * n, n * n)


def _gradient_gram(t: np.ndarray, e: float, m: np.ndarray, n2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_gram(t), a = vec(A) for the gradient direction A = (4/||t||^2) (m + E I), and G a.

    ||grad E|| = ||A . t|| = sqrt(a^H G a), and along exp(-s D) the energy
    falls at the rate Re <A . t, D . t> = Re a^H G d.
    """
    gram = _gram(t)
    a = ((4.0 / n2) * (m + e * np.eye(m.shape[0]))).ravel()
    return gram, a, gram @ a


def _newton_direction(m: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """The Hermitian direction D of a lowest-stratum flow's Newton step exp(-s D), from its moment map m and _gram.

    Kempf-Ness: the closed orbit's minimal vector minimizes the geodesically
    convex log ||exp(X) . t||^2, of slope 2 tr(X m) and Hessian 4 ||X . t||^2
    at a unit t.  Newton's X is the traceless Hermitian minimizer of
    2 tr(X m) + 2 x^H G x, solved with the trace as a bordered (n^2 + 1)
    system, and D = -X.  G's kernel is lifted by NEWTON_RIDGE.
    """
    n = m.shape[0]
    k = n * n
    bordered = np.zeros((k + 1, k + 1), dtype=gram.dtype)
    bordered[:k, :k] = gram + NEWTON_RIDGE * np.trace(gram).real / k * np.eye(k)
    bordered[:k, k] = bordered[k, :k] = np.eye(n).ravel()
    d = np.linalg.solve(bordered, np.append(0.5 * m.ravel(), 0.0))[:k].reshape(n, n)
    return 0.5 * (d + d.conj().T)


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
                      can_move: bool) -> tuple[float, str | None, tuple[np.ndarray, DegenerationCurve | None,
                                                                     tuple[float, np.ndarray, float] | None] | None]:
    """One read of the lower bound at the iterate rotated of energy e, held in an eigenframe of its m.

    (A Newton step holds it in its direction's eigenframe instead; on the
    orbit of a lowest-stratum start L <= 1/n, so no move is tried there.)
    Returns the new running max of L, a stop reason (left_orbit,
    certificate) or None, and on a certificate by a move the triple
    (unit-norm end point in that frame, witness curve or None, the end
    point's _energy_moment or None).  Both moves are tried only above the
    floor, where every weight lies on <alpha, beta> = ||beta||^2 and nothing
    can certify, and they exclude each other.  Each is checked on its raw
    table, by _energy_moment and the residual of _is_soliton:

    - truncation, when Wolfe's active set is smaller than the support: nu
      keeps the coefficients of the active weights.  It is tested in floats
      first; the exact witness curve is worked out, once per support mask,
      only for a nu that is a soliton at energy L;
    - balancing, when every support weight is active and can_move (a step
      is left in the budget): _balance moves rotated onto the torus orbit
      point whose diagonal of m is beta.  It is accepted, as one more step
      of the flow with no curve, when it is a soliton at energy L; the flow
      reuses its _energy_moment.  Affinely dependent weights need not
      balance in one move, and then fail this.

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
        nu = np.where(face.keep, rotated, 0.0)
        moment = _energy_moment(nu)
        if abs(moment[0] - lower) <= ENERGY_TOL and face.exponents is not None and _is_soliton(nu, *moment):
            curve = DegenerationCurve(tuple(-x for x in face.exponents))
            return lower, "certificate", (nu / math.sqrt(moment[2]), curve, None)
    elif can_move:
        moved = _balance(rotated, face)
        moment = _energy_moment(moved)
        if abs(moment[0] - lower) <= ENERGY_TOL and _is_soliton(moved, *moment):
            return lower, "certificate", (moved, None, moment)
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

    On a gradient step the iterate is held in the eigenframe of its
    direction A = (4/||t||^2) (m + E I), where exp(-s A) is diagonal: each
    backtracking candidate is one elementwise scaling by exp(s lam) (see
    _weight_sums), a renormalization and the moment table, and the gradient
    norm is ||lam * t||.  An accepted step takes one eigh of the candidate's
    m, one rotation into the new frame and one n x n product onto the
    accumulated unitary frame, which takes the terminal (or nu) back to mu's
    basis once, at the stop.  A start with no imaginary part flows in
    float64.

    Steps are set by whether the flow can fall, that is leave the orbit of
    mu by roundoff and end below its stratum energy.  A step cannot fall
    when the start lies in the lowest stratum: it is Jordan and semisimple
    (see certificate below), so no energy lies below its stratum energy
    1/n.  This is decided once, before the first step, for a flow that gets
    past the step-0 read, and semisimplicity is kept on mu.  Such a flow
    takes Newton steps: its soliton is the minimal vector of a closed orbit,
    which minimizes the geodesically convex log ||exp(X) . t||^2
    (Kempf-Ness), and each step goes along exp(-s D), D = -X for Newton's X
    there (_newton_direction, on the closed-form Gram of _gram).  The
    iterate is rotated into D's eigenframe, where the candidates are the
    same elementwise scalings.  s starts at 1, halves on an Armijo failure
    against the energy's descent rate Re a^H G d (see _gradient_gram) and,
    when the unit step removed less than half of E - 1/n, doubles while E
    falls.  A D that does not descend is replaced, for that step, by the
    gradient direction A, and the gradient norm is read as sqrt(a^H G a).
    Every other step is a gradient step: s starts at STEP0 and grows by 1.1
    after each accepted step, since faster growth lets roundoff carry more
    non-semisimple flows off their orbit.  Every step size is capped by
    MAX_LOG_STRETCH.
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
      with E - 1/n <= ENERGY_TOL stops there, unless the plateau stop
      fires on it; the floor is tested before the gradient stop.
      Semisimplicity is Albert's criterion, a trace form of full rank
      (algebra.is_semisimple: one n x n SVD of mu, run at most once per
      flow, as the step rule above asks).  A
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
    # a Jordan semisimple start lies in the lowest stratum, of energy 1/n: its steps cannot fall
    lowest = stop_reason is None and jordan and is_semisimple(mu)
    if lowest:   # m is read again in the frame t was rotated into
        m = _energy_moment(t)[1]
        gram, a, ga = _gradient_gram(t, e, m, n2)
    while stop_reason is None:
        if steps_taken >= opts.max_steps:
            stop_reason = "max_steps"
            break
        if lowest:   # a Newton step, in the frame of its direction
            direction = _newton_direction(m, gram)
            rate = float(np.vdot(direction, ga).real)   # Re a^H G d, the energy's rate of descent along exp(-s D)
            if not rate > 0:   # D does not descend: take the gradient direction A
                direction, rate = a.reshape(m.shape), grad_norms[-1] ** 2
            rates, vecs = np.linalg.eigh(direction)
            t, frame = _unitary_act_table(t, vecs.conj().T), frame @ vecs
            lam = _weight_sums(rates)
            step = 1.0
        else:
            rate = grad_norms[-1] ** 2
        accepted = False
        spread = float(max(-rates[0], rates[-1])) or 1.0   # rates ascend, so this is max |rates|
        cap = MAX_LOG_STRETCH / spread
        step = min(step, cap)
        while step > STEP_FLOOR:
            cand = t * np.exp(step * lam)
            cand = cand / _norm(cand)
            e2, m, n2 = _energy_moment(cand)
            if e2 <= e - ARMIJO * step * rate:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stop_reason = "line_search_floor"
            break
        if lowest and step == 1.0 and e - e2 < 0.5 * (e - floor):
            # the unit step removed less than half of E - 1/n: double it while E falls
            while 2.0 * step <= cap:
                longer = t * np.exp(2.0 * step * lam)
                longer = longer / _norm(longer)
                e3, m3, n23 = _energy_moment(longer)
                if not e3 < e2:
                    break
                cand, e2, m, n2, step = longer, e3, m3, n23, 2.0 * step
        plateau = plateau + 1 if abs(e - e2) < ENERGY_TOL else 0
        if lowest:
            t = cand
            gram, a, ga = _gradient_gram(t, e2, m, n2)
            gn = math.sqrt(float(np.vdot(a, ga).real))
        else:
            t, frame, rates = _eigenframe(cand, e2, m, n2, frame)
            lam = _weight_sums(rates)
            step *= 1.1
            gn = _norm(lam * t)
        e = e2
        steps_taken += 1
        energies.append(e)
        grad_norms.append(gn)
        if _is_power_of_two(steps_taken) or _is_power_of_two(plateau):
            lower, stop_reason, move = _read_certificate(t, e, lower, floor, steps_taken < opts.max_steps)
            if stop_reason is not None:
                break
        if plateau >= PLATEAU_WINDOW:
            stop_reason = "plateau"
        elif lowest and e - floor <= ENERGY_TOL:
            stop_reason = "certificate"
        elif gn <= opts.grad_tol:
            stop_reason = "gradient"
    if move is not None and move[1] is None:   # a balancing move, taken as one more accepted step
        e, m, n2 = move[2]
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

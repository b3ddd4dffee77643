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
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import StructureTensor, act, jordan_defect, _act_table, _inf_act_table, _moment_table
from .moment import MomentReport, SolitonType, soliton_check, soliton_type
from .snap import RationalSnapError
from .weights import SUPPORT_TOL, min_norm_point, support_weights

ARMIJO = 1e-4
STEP_FLOOR = 1e-18
PLATEAU_WINDOW = 500
# bound on step * spectral radius of the direction, so each orbit move
# exp(-s A) stays well conditioned and roundoff cannot hop orbits
MAX_LOG_STRETCH = 2.0

__all__ = ["FlowOptions", "FlowTrace", "run_flow", "clean_limit", "DegenerationCurve", "apply_curve"]


@dataclass(frozen=True)
class FlowOptions:
    max_steps: int = 200_000
    step0: float = 1e-2
    grad_tol: float = 1e-9
    energy_plateau_tol: float = 1e-12
    plateau_window: int = PLATEAU_WINDOW

    def __post_init__(self):
        if min(self.step0, self.grad_tol, self.energy_plateau_tol) <= 0:
            raise ValueError("step0, grad_tol and energy_plateau_tol must be positive")


@dataclass(frozen=True)
class FlowTrace:
    energies: list[float]
    grad_norms: list[float]
    terminal: StructureTensor
    steps_taken: int
    converged: bool
    stop_reason: str                      # gradient | certificate | plateau | line_search_floor | max_steps
    terminal_report: MomentReport
    terminal_type: SolitonType | None     # None when rational snapping fails
    lower_bound: float                    # running max of ||beta||^2 read by the certificate

    @property
    def terminal_energy(self) -> float:
        return self.energies[-1]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step", "energy", "grad_norm"])
            for step, (e, g) in enumerate(zip(self.energies, self.grad_norms)):
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


def _lower_bound(t: np.ndarray, vecs: np.ndarray, memo: dict[bytes, float]) -> float:
    """||beta||^2 of t's support weights in the frame that diagonalizes m.

    vecs holds eigenvectors of the moment matrix of t as columns; rotating
    t by the unitary vecs^* is a move inside its orbit.  The support is cut
    at SUPPORT_TOL of the largest coefficient, so the result bounds the
    stratum energy of the rotated tensor with its sub-cut coefficients
    dropped.  memo holds it per support mask.
    """
    rotated = _act_table(t, vecs, vecs.conj().T)
    rotated = 0.5 * (rotated + np.swapaxes(rotated, 0, 1))
    mags = np.abs(rotated)
    key = (mags > SUPPORT_TOL * np.max(mags)).tobytes()
    if key not in memo:
        point = min_norm_point([w.vector for w in support_weights(StructureTensor(rotated))]).point
        memo[key] = float(point @ point)
    return memo[key]


def _is_power_of_two(k: int) -> bool:
    return k > 0 and k & (k - 1) == 0


def run_flow(mu: StructureTensor, opts: FlowOptions = FlowOptions(), *,
             type_snap_tol: float = 1e-4) -> FlowTrace:
    """Descend the energy from mu until the gradient dies or the energy is certified.

    Energies are non-increasing over accepted steps.  Steps move along the
    orbit by the group elements exp(-s (m + E I)) whose derivative at s = 0
    is exactly the negative gradient, so in exact arithmetic the discrete
    trajectory never leaves the orbit (untying it from the measure-zero stable manifolds a
    plain Euler step falls off).  Convergence is reported through
    stop_reason:

    - gradient: the gradient norm reached grad_tol;
    - certificate: |E - L| <= energy_plateau_tol with L above the floor
      1/n by more than energy_plateau_tol.  L is the running max of
      ||beta||^2 over the support weights (cut at SUPPORT_TOL) of the
      iterate in an eigenbasis of m, read at the start, after each step
      whose count is a power of two and on each plateau step whose count is
      a power of two, and memoized per support mask.  On the orbit of mu,
      L <= stratum energy <= E up to that cut, so E is at its stratum's
      floor.  Roundoff can still carry an iterate off its orbit, to an
      energy below the stratum energy of mu; the certificate sees that only
      when an earlier L exceeds E (then it cannot close).  Such iterates end
      with their support filled and L at 1/n, a bound every tensor meets
      (tr m = -1), so a bound at the floor never stops the flow;
    - plateau: plateau_window steps in a row lowered E by less than
      energy_plateau_tol;
    - line_search_floor: no float64 decrease possible;
    - max_steps: the only non-converged outcome.

    The terminal type is snapped at type_snap_tol, coarser than the soliton
    default because the limit is only approached at the flow's own accuracy;
    the candidate labels are spaced at least 1/(63*64) apart, so the coarser
    snap stays unambiguous.
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
    step = opts.step0
    plateau = 0
    memo: dict[bytes, float] = {}
    lower = _lower_bound(t, vecs, memo)
    floor = 1.0 / mu.dim  # E >= 1/n for every tensor, since tr m = -1
    steps_taken = 0
    stop_reason = None
    while steps_taken < opts.max_steps:
        gn = grad_norms[-1]
        if gn <= opts.grad_tol:
            stop_reason = "gradient"
            break
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
        plateau = plateau + 1 if abs(e - e2) < opts.energy_plateau_tol else 0
        t, e, direction = cand, e2, direction2
        evals, vecs = np.linalg.eigh(direction)
        steps_taken += 1
        energies.append(e)
        grad_norms.append(float(np.linalg.norm(_inf_act_table(direction, t))))
        step *= 1.1
        if _is_power_of_two(steps_taken) or _is_power_of_two(plateau):
            lower = max(lower, _lower_bound(t, vecs, memo))
            if lower - floor > opts.energy_plateau_tol and abs(e - lower) <= opts.energy_plateau_tol:
                stop_reason = "certificate"
                break
        if plateau >= opts.plateau_window:
            stop_reason = "plateau"
            break
    if stop_reason is None:
        stop_reason = "max_steps"

    terminal = StructureTensor(t)
    report = soliton_check(terminal)
    ttype = None
    if stop_reason != "max_steps":
        try:
            ttype = soliton_type(terminal, tol=max(10 * report.soliton_residual, 1e-12),
                                 snap_tol=type_snap_tol)
        except (RationalSnapError, ValueError):
            ttype = None
    return FlowTrace(
        energies=energies,
        grad_norms=grad_norms,
        terminal=terminal,
        steps_taken=steps_taken,
        converged=stop_reason != "max_steps",
        stop_reason=stop_reason,
        terminal_report=report,
        terminal_type=ttype,
        lower_bound=lower,
    )


def clean_limit(mu: StructureTensor, gap_ratio: float = 10.0, ceiling: float = 0.1,
                residual_factor: float = 100.0, residual_floor: float = 1e-8,
                distance_tol: float = 0.05) -> StructureTensor:
    """Extract the visible limit pattern from a flow terminal.

    Flow terminals can carry slowly decaying coefficients of the start orbit
    on top of the limit soliton's support.  If the coefficient magnitudes
    show a clean gap (ratio >= gap_ratio, entirely below ceiling * max), the
    sub-gap entries are dropped.  The cleaned tensor is returned only when it
    stays Jordan, stays near the input, and is no less critical than the
    input was (up to residual_factor); this rejects cleanups that would strip
    genuine small coefficients from an exact soliton.
    """
    mags = sorted(abs(c) for _, _, _, c in mu.products(tol=0.0))
    if len(mags) < 2:
        return mu
    top = mags[-1]
    cut = None
    for low, high in zip(mags, mags[1:]):
        if low <= ceiling * top and high / low >= gap_ratio:
            cut = math.sqrt(low * high)
    if cut is None:
        return mu
    table = mu.table.copy()
    table[np.abs(table) < cut] = 0.0
    cleaned = StructureTensor(table)
    if cleaned.is_zero():
        return mu
    dropped = math.sqrt(max(mu.norm_sq - cleaned.norm_sq, 0.0))
    if dropped > distance_tol * mu.norm:
        return mu
    if jordan_defect(cleaned) > 1e-9 * max(1.0, cleaned.norm**3):
        return mu
    own_residual = soliton_check(mu, pair_derivations=False).soliton_residual
    allowed = max(residual_factor * own_residual, residual_floor)
    if soliton_check(cleaned, pair_derivations=False).soliton_residual > allowed:
        return mu
    return cleaned


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

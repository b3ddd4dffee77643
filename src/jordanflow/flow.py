"""Normalized negative-gradient flow of the energy and one-parameter degenerations.

The descent is gradient descent with an Armijo backtracking line search,
renormalizing to the unit sphere after every step (the energy is scale
invariant, so the projection is harmless and prevents drift).  Because the
gradient is tangent to the orbit, each step is realized by a group element,
so the discrete trajectory inherits the defining property of the exact
flow: it stays in the orbit of its start and converges to a soliton in the
orbit closure, whose moment spectrum labels the stratum of the start.
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
    renormalize: bool = True

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
    stop_reason: str                      # gradient | plateau | line_search_floor | max_steps
    terminal_report: MomentReport
    terminal_type: SolitonType | None     # None when rational snapping fails

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


def run_flow(mu: StructureTensor, opts: FlowOptions = FlowOptions(), *,
             type_snap_tol: float = 1e-4) -> FlowTrace:
    """Descend the energy from mu until the gradient (or the progress) dies.

    Energies are non-increasing over accepted steps.  Steps move along the
    orbit by the group elements exp(-s (m + E I)) whose derivative at s = 0
    is exactly the negative gradient, so the discrete trajectory never
    leaves the orbit (untying it from the measure-zero stable manifolds a
    plain Euler step falls off).  Convergence is reported through
    stop_reason: at the gradient tolerance, by energy plateau, or at the
    line-search floor (no float64 decrease possible); hitting max_steps is
    the only non-converged outcome.  The terminal type is snapped at
    type_snap_tol, coarser than the soliton default because the limit is
    only approached at the flow's own accuracy; the candidate labels are
    spaced at least 1/(63*64) apart, so the coarser snap stays unambiguous.
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
    t = mu.table / mu.norm if opts.renormalize else mu.table.copy()
    e, direction = _energy_direction(t)
    energies = [e]
    grad_norms = [float(np.linalg.norm(_inf_act_table(direction, t)))]
    step = opts.step0
    plateau = 0
    steps_taken = 0
    stop_reason = None
    while steps_taken < opts.max_steps:
        gn = grad_norms[-1]
        if gn <= opts.grad_tol:
            stop_reason = "gradient"
            break
        accepted = False
        evals, vecs = np.linalg.eigh(direction)  # shared by the cap and every backtrack
        spread = float(np.max(np.abs(evals))) or 1.0
        step = min(step, MAX_LOG_STRETCH / spread)
        while step > STEP_FLOOR:
            cand = _orbit_step(t, evals, vecs, step)
            if opts.renormalize:
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
        steps_taken += 1
        energies.append(e)
        grad_norms.append(float(np.linalg.norm(_inf_act_table(direction, t))))
        step *= 1.1
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

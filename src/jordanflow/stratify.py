"""Stratification data: the min-norm point beta_mu and the stratum of a tensor.

The stratum parameter beta_mu is the unique minimum-norm point of the
convex hull of the supported weights, computed by Wolfe's algorithm in
.weights and re-solved there in rationals; every label is an exact
moment.SolitonType and the floats only certify it.
"""

from __future__ import annotations

from .algebra import StructureTensor
from .flow import FlowOptions, run_flow
from .moment import SolitonType
from .snap import RationalSnapError
from .weights import support_face

__all__ = ["beta_mu", "stratum_of"]


def beta_mu(mu: StructureTensor) -> SolitonType:
    """beta_mu of mu in the given basis, exactly: Wolfe's point re-solved over its active set.

    Reads the Face of mu's support (weights.support_face), which the flow
    and soliton_type share.  Raises RationalSnapError when the exact point
    fails the KKT check or lies farther than SNAP_DISTANCE from Wolfe's
    float point.
    """
    face = support_face(mu.table)
    return SolitonType(face.label(face.result.point))


def stratum_of(mu: StructureTensor, opts: FlowOptions = FlowOptions()) -> SolitonType:
    """Stratum label of mu: the exact beta of the flow's terminal soliton (FlowTrace.terminal_type).

    The exact flow stays in the orbit of mu, so the label is a basis-change
    invariant.  Numerically the non-minimal strata are measure-zero stable
    manifolds, and the discretized flow from a *generic-position* start can
    fall into a more generic (lower-energy) stratum; labels are reliable for
    near-critical starts, for unitary images of them, and on the open
    minimal stratum.  Raises RuntimeError when the flow does not converge,
    which includes a flow whose energy falls below its own lower bound
    (stop_reason left_orbit), and RationalSnapError when the terminal has
    no certified exact label.
    """
    trace = run_flow(mu, opts)
    if not trace.converged:
        raise RuntimeError(
            f"flow stopped on {trace.stop_reason} after {trace.steps_taken} steps "
            f"(terminal energy {trace.terminal_energy!r}, lower bound {trace.lower_bound!r})"
        )
    if trace.terminal_type is None:
        raise RationalSnapError(f"the flow terminal (energy {trace.terminal_energy!r}) has no certified label")
    return trace.terminal_type

"""Moment matrices, energy flow and Kirwan-Ness strata for complex Jordan algebras."""

from .algebra import (
    StructureTensor,
    Subspace,
    act,
    adjoin_unit,
    annihilator,
    derivation_algebra,
    direct_product,
    dump_tensor,
    evaluate,
    inf_act,
    is_jordan,
    is_semisimple,
    jordan_defect,
    left_mult,
    load_tensor,
    power_dims,
    radical,
    soliton_product,
    soliton_unitalize,
    trace_form,
    unit_element,
)
from .catalog import (
    CatalogEntry,
    Fingerprint,
    builtin,
    fingerprint,
    heisenberg,
    hyperbolic,
    match,
    names,
    regular_double,
    reproduce_tables,
)
from .flow import DegenerationCurve, FlowOptions, FlowTrace, apply_curve, run_flow
from .moment import (
    MomentReport,
    SolitonType,
    derivation_pairing,
    energy,
    energy_gradient,
    moment_map,
    moment_matrix,
    sl_residual,
    soliton_check,
    soliton_type,
)
from .snap import RationalSnapError
from .stratify import beta_mu, stratum_of
from .weights import min_norm_point, support_weights

__version__ = "0.1.0"

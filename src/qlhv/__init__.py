"""Local hidden-variable models with complex and quaternion-valued
outcomes, verified against exact enumeration and a small quantum oracle."""

__version__ = "0.1.0"

from .quaternions import (
    Basis,
    Q8Element,
    Q8_ELEMENTS,
    canonical_phase,
    phase_pair_magnitudes,
    q8_mul,
    q8_product,
)
from .chsh import (
    ChshModel,
    HiddenSpace,
    TSIRELSON,
    analytic_bound,
    bell_expression,
    bell_values,
    correlation,
    make_achieving_model,
    maximize_bell,
    model_from_dict,
    model_to_dict,
    sample_model,
    sample_models,
)
from .ghz import (
    classical_parity_check,
    condition_set,
    enumerate_assignments,
    full_intersection,
    ghz_intersection,
    satisfies,
    xxx_product,
)
from .qubit import (
    PermutationMix,
    SignedDistribution,
    X_FLIP,
    axis_expectation,
    evolve_mixture,
    evolve_permutation,
    quaternion_value,
    retroaction_check,
    sign_function_search,
    state_distribution,
)
from . import oracle

__all__ = [name for name in dir() if not name.startswith("_")]

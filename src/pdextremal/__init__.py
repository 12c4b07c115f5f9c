"""Extremal constants for positive definite functions on finite abelian groups.

Exact linear-programming values of the two-set, Turan and Delsarte constants,
packing/covering/tiling predicates with density bounds, the Bessel-based
radial constructions, and the extremal cosine trinomial with its lower-bound
construction on the real line.
"""

__version__ = "0.1.0"

from .groups import (
    Group,
    GroupFunction,
    SymSet,
    dft,
    difference_set,
    make_group,
)
from .posdef import autocorrelation, is_posdef
from .lp import LpProblem, LpSolution, QuadratureError, SolverFailure, check_certificate, solve
from .extremal import (
    ExtremalResult,
    delsarte,
    turan,
    two_set_constant,
    verify_automorphism_invariance,
    verify_homomorphism_bound,
    verify_main_theorem,
    verify_product_bound,
    verify_tile_theorem,
)
from .density import (
    PeriodicSet,
    auud_finite,
    auud_periodic,
    covers,
    density_bounds_check,
    integer_shadow,
    max_density_search,
    packing_type,
    packs_strict,
    tiles_strict,
)
# radial and trinomial load on first use (eagerly, ~5 ms more for every process)
_LAZY = {
    **dict.fromkeys(["ball_char_transform", "bessel_first_zero", "bessel_j", "yudin_Y",
                     "yudin_sign_check"], "radial"),
    **dict.fromkeys(["Trinomial", "critical_coeffs", "example51_comparison",
                     "example51_lower_bound", "is_nonneg", "optimize_trinomial"], "trinomial"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "__version__",
    "Group", "GroupFunction", "SymSet", "make_group", "dft", "difference_set",
    "is_posdef", "autocorrelation",
    "LpProblem", "LpSolution", "SolverFailure", "check_certificate", "solve",
    "ExtremalResult", "two_set_constant", "turan", "delsarte",
    "verify_tile_theorem", "verify_main_theorem", "verify_homomorphism_bound",
    "verify_product_bound", "verify_automorphism_invariance",
    "PeriodicSet", "packs_strict", "covers", "tiles_strict", "packing_type",
    "auud_finite", "auud_periodic", "max_density_search", "density_bounds_check",
    "integer_shadow",
    "QuadratureError", "bessel_j", "bessel_first_zero", "yudin_Y",
    "yudin_sign_check", "ball_char_transform",
    "Trinomial", "critical_coeffs", "is_nonneg", "optimize_trinomial",
    "example51_lower_bound", "example51_comparison",
]

"""Exact-arithmetic toolkit for twisted bilinear modules.

The package decides semistability of sigma-twisted quadratic and
alternating modules over the rationals and prime fields, produces
destabilizing one-parameter subgroups and graded degenerations, and
enumerates the dual-number matrix-group fibers and Pfaffian types that
classify the alternating case.  Everything is computed in exact
arithmetic; nothing here floats.

The public names below live in the package's modules and are imported
on first access, so a caller pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name, grouped by the module that defines it
_EXPORTS = {
    "errors": (
        "BoundExceededError",
        "FieldError",
        "InternalCheckError",
        "IsotropyError",
        "ParseError",
        "ShapeError",
        "SingularMatrixError",
        "StabilityError",
        "TwistmodError",
        "UsageError",
    ),
    "linalg": ("GF", "QQ", "Matrix", "Subspace", "field_from_name", "field_name"),
    "sigmamod": (
        "NOT_ISOTROPIC",
        "SIGMA_ISOTROPIC",
        "TOTALLY_ISOTROPIC",
        "InvolutionSpace",
        "IsoResult",
        "LinearPiece",
        "SigmaModule",
        "act",
        "direct_sum",
        "hyperbolic_module",
        "is_isomorphic",
        "isotropic_reduction",
        "isotropy_class",
        "orthogonal",
        "symmetrize",
        "twisted_transpose",
        "validate",
    ),
    "hilbert": (
        "MINUS_INFINITY",
        "OneParamSubgroup",
        "adapted_forms",
        "block_exponents",
        "destabilizing_1ps",
        "limit_at_zero",
        "mu",
    ),
    "stability": (
        "DEFAULT_PRIMES",
        "NO_DESTABILIZER_FOUND",
        "STABLE",
        "STRICTLY_SEMISTABLE",
        "UNSTABLE",
        "Filtration",
        "GradedModule",
        "Provenance",
        "Verdict",
        "enumerate_totally_isotropic",
        "graded",
        "hilbert_mumford_sweep",
        "iso_filtration",
        "joint_kernel",
        "s_equivalent",
        "semistability_verdict",
    ),
    "dualnum": (
        "DualNumberMatrix",
        "FiberReport",
        "TypeVector",
        "dn_det",
        "dn_inverse",
        "dn_mul",
        "fiber_structure_check",
        "is_fixed_alternating",
        "is_fixed_plus",
        "is_fixed_unramified",
        "pfaffian",
        "type_vector",
        "unramified_fixed_count",
    ),
    "serialize": (
        "ModuleFile",
        "module_file_to_dict",
        "module_from_dict",
        "module_to_dict",
        "parse_matrix_file",
        "parse_module_file",
        "to_json",
        "verdict_to_dict",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    # cached here, so the next lookup never reaches this function
    globals()[name] = value
    return value

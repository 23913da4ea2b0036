"""Exact computer algebra around negatively graded quotient path algebras:
truncated rewriting, slice matrix algebras and trivial extensions,
preprojective layers, dimer models on the torus, sign-twisted duality
checks for free bimodule resolutions, and homological tests for the
resulting finite dimensional algebras.

The public names below are imported from their modules on first use
(PEP 562), so importing one submodule does not import the others.
"""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "CapTooSmall", "Cyclic", "GradedCYError", "Inconclusive",
        "Inhomogeneous", "NonStabilizing", "NotBasic", "NotBipartite",
        "NotComplex", "NotFree", "NotHereditary", "NotSplitBasic",
        "NotSurjective", "NotTorus", "NotUnimodular", "ParseError",
        "PositiveDegree", "WindowTooSmall", "WindowViolation"),
    "quiver": (
        "Arrow", "CYData", "GradedQuiverPresentation", "NCPoly", "Path",
        "Quiver", "load_presentation", "parse_presentation"),
    "rewriting": (
        "CountContext", "RewritingSystem", "dimension_table",
        "graded_dimension", "length_table", "truncated_rewriting"),
    "normalwords": ("GradedPieceBasis", "Listing", "RewriteContext"),
    "fdalgebra": ("FDAlgebra", "FDBimodule", "trivial_extension"),
    "slice_algebras": (
        "build_A", "build_AUB", "build_B", "build_tilde", "build_U",
        "cluster_hom_shadow", "multiply_grading", "relations_from_structure"),
    "preprojective": (
        "block_trivial_extension", "double_quiver", "ext_bimodule",
        "layered_presentation", "path_algebra", "preprojective_presentation"),
    "dimer": (
        "DimerEdge", "DimerModel", "consistency_check", "cy3_complex",
        "dual_qp", "grading_from_matchings", "jacobian_presentation",
        "load_dimer", "parse_dimer", "perfect_matchings"),
    "complexes": ("BimoduleComplex", "FreeSummand", "parse_complex"),
    "duality": (
        "TwistSpec", "builtin_resolution", "check_twisted_cy", "dg_transport",
        "dualize", "identity_twist", "koszul_complex", "sign_twist",
        "skew_complex"),
    "findim": (
        "RightModule", "gabriel_quiver", "injective_dimension",
        "is_iwanaga_gorenstein", "projective_resolution", "radical"),
    "arshadow": (
        "DimVecOrbit", "OrbitLabel", "cartan_matrix", "coxeter_step",
        "knit_component", "mesh_additive", "verify_root"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS, "linalg", "simplex"])
__version__ = "0.1.0"


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

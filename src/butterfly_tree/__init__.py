"""Exact-integer model of the Hofstadter-butterfly skeleton.

The spectrum's self-similar hierarchy is organized as an octonary tree of
"butterflies with tails": each butterfly is a Farey triplet of flux
values plus a pair of central Chern numbers, eight unimodular generators
move between them, and the whole structure ties into Pythagorean triples,
Apollonian circle packings, quadratic-surd scaling exponents, and a
drawable Wannier-diagram skeleton.  Everything is arbitrary-precision
integer arithmetic; floats appear only as display views.

Public names load lazily (PEP 562): the first access to one imports only
the submodule that defines it, so start-up pays for no unused module.
"""

import importlib

_EXPORTS = {
    "errors": ("ButterflyError", "DegenerateDifference", "EmptyInput",
               "InconsistentChernPair", "InvariantViolation", "NoTail", "NotCCell",
               "NotCoprime", "ParabolicWord", "TailDirectionMismatch"),
    "farey": ("FareyDifference", "FriendlyTriplet", "farey_difference", "is_friendly",
              "mediant", "stern_brocot_friendly_triplets"),
    "diophantine": ("BandLabel", "GapLabel", "band_cherns", "center_gap_index",
                    "gap_labels", "hierarchy_gap_cherns", "recover_edges"),
    "generators": ("BABY_KINDS", "ButterflyLabel", "ButterflyState", "GeneratorKind",
                   "GeneratorMatrix", "apply_label", "apply_state", "canonical_matrices"),
    "tree": ("ExpansionLimits", "TreeNode", "chain", "children", "expand", "node_at",
             "parse_word", "root", "verify_node", "word_string"),
    "pythagoras": ("EuclidPair", "PythTriple", "apply_H", "apply_h", "cbranch_to_triple",
                   "euclid_to_triple", "primitive_triple_oracle", "triple_tree"),
    "apollonian": ("DescartesQuadruple", "adjoint_S", "apply_S", "correspondence_search",
                   "ford_quadruple", "super_orbit", "triple_to_quadruple"),
    "scaling": ("ContinuedFraction", "QuadraticSurd", "cf_expansion", "scaling_exponent",
                "word_block"),
    "skeleton": ("RenderOptions", "SkeletonCell", "WannierLine", "cell_geometry",
                 "render_svg", "tail_triangle", "wannier_lines"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

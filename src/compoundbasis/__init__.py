"""Exact arithmetic for the compound basis of symmetric functions.

The package computes, in exact rational arithmetic, the transition matrix
between the Schur basis on a doubled alphabet and the compound basis built
from Q-functions and squared-alphabet Schur functions, together with the
partition combinatorics (bijections, abaci) and verification harness that
back every identity the matrices satisfy.

``_EXPORTS`` below is the one list of public names, by home module, and
each module's ``__all__`` is its row.  Every name is re-exported from its
home module, which is imported on the first access to one of its names
(PEP 562), so importing the package loads no submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "golden": ("paper_order",),
    "labeled": (
        "LabeledIntMatrix",
        "label_str",
        "matrix_from_json_dict",
        "matrix_to_json_dict",
        "matrix_to_latex",
        "pair_class",
        "reorder",
    ),
    "partitions": (
        "AbacusDecomposition",
        "TwoQuotient",
        "as_partition",
        "delta_h",
        "dominance_leq",
        "generate_partitions",
        "glaisher",
        "glaisher_inverse",
        "h_abacus_compose",
        "h_abacus_decompose",
        "hc_charge",
        "is_odd",
        "is_strict",
        "multiplicities",
        "parse_partition",
        "partition_from_beta",
        "partition_str",
        "phi",
        "phi_inverse",
        "psi",
        "psi_inverse",
        "two_core_quotient",
        "weight",
        "z_factor",
    ),
    "symfunc": (
        "SymFunc",
        "V_basis",
        "V_from_pair",
        "W_basis",
        "W_from_pair",
        "character",
        "complete_h",
        "format_symfunc",
        "green_function",
        "h_product",
        "inner",
        "kostka",
        "p_monomial",
        "q_gen",
        "q_prime",
        "q_product",
        "schur",
        "schur_P",
        "schur_Q",
        "sub_double",
        "sub_square",
    ),
    "transition": (
        "SingularMatrixError",
        "bareiss_solve",
        "blocks",
        "build_A",
        "build_A_combinatorial",
        "build_Gamma",
        "canonical_pairs",
        "cartan_like",
        "gram_G",
        "k_value",
        "matrix_det",
        "smith_normal_form",
    ),
    "verify": (
        "CLAIM_CAPS",
        "VerificationReport",
        "all_passed",
        "check",
        "check_all",
        "claim_ids",
        "compare_matrices",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)

"""Versioned reference fixtures: printed matrix layouts, the k-exponent
table, and worked bijection examples, loaded from ``data/golden.json``.

The stored row and column orders of A_3 and A_4 are also the paper's label
order: ``paper_order`` permutes any matrix of those degrees into it.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources

from . import _EXPORTS
from .labeled import LabeledIntMatrix, matrix_from_json_dict, reorder

__all__ = list(_EXPORTS["golden"])


@cache
def golden_data() -> dict:
    """The parsed fixture file."""
    path = resources.files("compoundbasis").joinpath("data/golden.json")
    return json.loads(path.read_text("utf-8"))


@cache
def golden_matrix(name: str) -> LabeledIntMatrix:
    """Reference matrix by name: "A3", "A4", "AtA3" or "AtA4"."""
    mats = golden_data()["matrices"]
    if name not in mats:
        raise KeyError(f"no reference matrix named {name!r}")
    _, mat = matrix_from_json_dict(mats[name])
    return mat


def golden_k_table() -> dict[int, int]:
    """Reference exponents k_n for |det A_n| = 2^{k_n}."""
    return {int(k): v for k, v in golden_data()["k_table"].items()}


@cache
def paper_layout(n: int):
    """(row order, pair order) of the printed layout of A_n, or None when no
    layout was printed for this n."""
    name = f"A{n}"
    if name not in golden_data()["matrices"]:
        return None
    mat = golden_matrix(name)
    return mat.row_labels, mat.col_labels


def paper_order(mat: LabeledIntMatrix, n: int) -> LabeledIntMatrix:
    """``mat``, a matrix of degree n, with its row and column labels in the
    printed order: partitions by their place in the stored row list, pairs
    by their place in the stored pair list.  Returned unchanged when no
    layout was printed for this n."""
    layout = paper_layout(n)
    if layout is None:
        return mat
    rank = {label: i for i, label in enumerate(layout[0] + layout[1])}
    return reorder(
        mat,
        sorted(mat.row_labels, key=rank.__getitem__),
        sorted(mat.col_labels, key=rank.__getitem__),
    )

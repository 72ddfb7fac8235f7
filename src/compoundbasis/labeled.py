"""Labeled integer matrices and their JSON and LaTeX codecs.

A ``LabeledIntMatrix`` carries partition or pair labels on both axes; every
matrix builder in ``transition`` returns one, and ``golden`` and ``cli``
read and write them through the codecs here.  This module imports only
``partitions``, so loading or emitting a stored matrix needs none of the
symmetric-function or transition machinery.
"""

from __future__ import annotations

from . import _EXPORTS
from .partitions import Partition, as_partition, partition_str, weight

__all__ = list(_EXPORTS["labeled"])

Pair = tuple[Partition, Partition]

_FIELDS = ("row_labels", "col_labels", "entries")


class LabeledIntMatrix:
    """Immutable integer matrix with partition or pair labels on both axes."""

    __slots__ = _FIELDS

    row_labels: tuple
    col_labels: tuple
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, row_labels: tuple, col_labels: tuple, entries: tuple) -> None:
        if len(entries) != len(row_labels):
            raise ValueError("row count does not match row labels")
        for row in entries:
            if len(row) != len(col_labels):
                raise ValueError("column count does not match column labels")
        for name, value in zip(_FIELDS, (row_labels, col_labels, entries)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return self.row_labels, self.col_labels, self.entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(_FIELDS, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    def entry(self, row_label, col_label) -> int:
        i = self.row_labels.index(row_label)
        j = self.col_labels.index(col_label)
        return self.entries[i][j]


def _is_pair(label) -> bool:
    return (
        isinstance(label, tuple)
        and len(label) == 2
        and all(isinstance(c, tuple) for c in label)
    )


def label_str(label, latex: bool = False) -> str:
    """Human form of a label: partition "21^2" or pair "(31,∅)"."""
    if _is_pair(label):
        r, d = label
        return f"({partition_str(r, latex)},{partition_str(d, latex)})"
    return partition_str(label, latex)


def pair_class(pair: Pair) -> tuple[int, int]:
    """The class (n0, n1) of a pair: the weights of its two components."""
    r, d = pair
    return weight(r), weight(d)


def reorder(mat: LabeledIntMatrix, row_labels, col_labels) -> LabeledIntMatrix:
    """Permute a matrix to the given label sequences (same label sets)."""
    row_labels = tuple(row_labels)
    col_labels = tuple(col_labels)
    if set(row_labels) != set(mat.row_labels) or len(row_labels) != len(mat.row_labels):
        raise ValueError("row labels are not a permutation of the matrix rows")
    if set(col_labels) != set(mat.col_labels) or len(col_labels) != len(mat.col_labels):
        raise ValueError("column labels are not a permutation of the matrix columns")
    ri = [mat.row_labels.index(r) for r in row_labels]
    ci = [mat.col_labels.index(c) for c in col_labels]
    ent = tuple(tuple(mat.entries[i][j] for j in ci) for i in ri)
    return LabeledIntMatrix(row_labels, col_labels, ent)


# --------------------------------------------------------------------------
# Codecs
# --------------------------------------------------------------------------

def _label_to_json(label):
    if _is_pair(label):
        return [list(label[0]), list(label[1])]
    return list(label)


def _label_from_json(obj):
    if obj and isinstance(obj[0], list):
        return (as_partition(obj[0]), as_partition(obj[1]))
    return as_partition(obj)


def matrix_to_json_dict(mat: LabeledIntMatrix, n: int) -> dict:
    """JSON document: labels as int arrays (pairs as two-element arrays),
    entries as decimal strings."""
    return {
        "n": n,
        "row_labels": [_label_to_json(r) for r in mat.row_labels],
        "col_labels": [_label_to_json(c) for c in mat.col_labels],
        "entries": [[str(v) for v in row] for row in mat.entries],
    }


def matrix_from_json_dict(doc: dict) -> tuple[int, LabeledIntMatrix]:
    mat = LabeledIntMatrix(
        tuple(_label_from_json(r) for r in doc["row_labels"]),
        tuple(_label_from_json(c) for c in doc["col_labels"]),
        tuple(tuple(int(v) for v in row) for row in doc["entries"]),
    )
    return int(doc["n"]), mat


def _latex_label(label) -> str:
    out = label_str(label, latex=True)
    return out if _is_pair(label) else f"({out})"


def matrix_to_latex(mat: LabeledIntMatrix) -> str:
    """LaTeX bordermatrix with labels, matching the reference layouts when
    the matrix is in ``golden.paper_order``.  Bare partition labels are
    parenthesized the way the reference layouts print them."""
    cols = " & ".join(_latex_label(c) for c in mat.col_labels)
    lines = [f"\\bordermatrix{{ & {cols} \\cr"]
    for label, row in zip(mat.row_labels, mat.entries):
        vals = " & ".join(str(v) for v in row)
        lines.append(f"  {_latex_label(label)} & {vals} \\cr")
    lines.append("}")
    return "\n".join(lines)

"""Transition matrices between the Schur basis and the compound basis.

``build_A(n)`` gives the integer coefficients of the change of basis

    S_lam(x, x) = sum_mu a_{lam,mu} W_mu(x),        lam, mu |- n,

where W_mu = Q_{mu_r}(x) S_{mu_d}(x^2) runs over the compound basis.  Columns
are labeled by the pairs (mu_r, mu_d); rows by lam.  Each entry is one
pairing, a_{lam,mu} = <S_lam(x, x), V_mu>_{-1}, against the dual family
V_mu = P_{mu_r}(x) S_{mu_d}(x^2) of W under the twisted pairing.  Doubling
multiplies [p_rho] by 2^{len(rho)}, which cancels the twisted weight, so the
entry is the Schur coefficient <V_mu, S_lam> = sum_rho chi^lam_rho [p_rho]V_mu:
one integer sum over a character row.
``build_A_combinatorial`` recomputes every entry from Stembridge coefficients,
Littlewood-Richardson coefficients and signed 2-quotients, an independent
route to the same matrix.  ``build_Gamma`` is the (mu, empty) columns of A,
since V_(mu, empty) = P_mu; ``gram_G`` is their Gram matrix, ``cartan_like``
the full Gram matrix of A, which is block diagonal over the classes (n0, n1)
exposed by ``blocks``.

Determinants are fraction-free (Bareiss); ``bareiss_solve`` is the exact
solver that the verification harness uses as an independent oracle for
Gamma; ``smith_normal_form`` computes elementary divisors by minimal-pivot
row/column reduction over the integers.

Matrices are immutable ``LabeledIntMatrix`` values; emitters to JSON, CSV and
a LaTeX bordermatrix live here too.  ``order="paper"`` reorders rows and
columns to the stored reference layouts (defined for n = 3, 4; canonical
order elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .partitions import (
    Partition,
    as_partition,
    generate_partitions,
    glaisher,
    partition_str,
    phi,
    psi,
    two_core_quotient,
    weight,
)
from .symfunc import (
    SymFunc,
    V_from_pair,
    _schur_coeff,
    littlewood_richardson,
    schur,
    stembridge_g,
)

__all__ = [
    "LabeledIntMatrix",
    "SingularMatrixError",
    "BlockStructureError",
    "Pair",
    "canonical_pairs",
    "pair_class",
    "build_A",
    "build_A_combinatorial",
    "build_Gamma",
    "gram_G",
    "cartan_like",
    "blocks",
    "k_value",
    "smith_normal_form",
    "matrix_det",
    "bareiss_solve",
    "bareiss_det",
    "reorder",
    "matrix_to_json_dict",
    "matrix_from_json_dict",
    "matrix_to_csv",
    "matrix_to_latex",
    "label_str",
]

Pair = tuple[Partition, Partition]


class SingularMatrixError(ArithmeticError):
    """Raised when an exact solve meets a singular coefficient matrix."""


class BlockStructureError(ArithmeticError):
    """A matrix expected to be block diagonal has a nonzero off-block entry."""

    def __init__(self, row_label, col_label, value: int):
        self.row_label = row_label
        self.col_label = col_label
        self.value = value
        super().__init__(
            f"nonzero off-block entry {value} at "
            f"({label_str(row_label)}, {label_str(col_label)})"
        )


@dataclass(frozen=True)
class LabeledIntMatrix:
    """Immutable integer matrix with partition or pair labels on both axes."""

    row_labels: tuple
    col_labels: tuple
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row count does not match row labels")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("column count does not match column labels")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    def entry(self, row_label, col_label) -> int:
        i = self.row_labels.index(row_label)
        j = self.col_labels.index(col_label)
        return self.entries[i][j]

    def transpose(self) -> "LabeledIntMatrix":
        return LabeledIntMatrix(
            self.col_labels,
            self.row_labels,
            tuple(zip(*self.entries)) if self.entries else (),
        )


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


# --------------------------------------------------------------------------
# Exact integer linear algebra
# --------------------------------------------------------------------------

def _forward_eliminate(aug: list[list[int]], size: int) -> int:
    """Fraction-free (Bareiss) forward elimination on the first ``size``
    columns of ``aug``, in place; returns the sign of the row permutation.
    Pivots are the minimal-magnitude nonzero entries, which keeps the exact
    divisions small."""
    sign = 1
    prev = 1
    width = len(aug[0]) if aug else 0
    for k in range(size):
        pivot_row = None
        best = None
        for i in range(k, size):
            v = abs(aug[i][k])
            if v and (best is None or v < best):
                best, pivot_row = v, i
        if pivot_row is None:
            raise SingularMatrixError(f"zero pivot column {k}")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
            sign = -sign
        pk = aug[k][k]
        for i in range(k + 1, size):
            aik = aug[i][k]
            row_i, row_k = aug[i], aug[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign


def bareiss_det(mat) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    m = [list(map(int, row)) for row in mat]
    size = len(m)
    if size == 0:
        return 1
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    try:
        sign = _forward_eliminate(m, size)
    except SingularMatrixError:
        return 0
    return sign * m[size - 1][size - 1]


def bareiss_solve(mat, rhs) -> list[list[Fraction]]:
    """Solve mat @ X = rhs exactly; mat square integer, rhs a matrix of one
    or more integer columns.  Returns the columns of X as Fractions."""
    size = len(mat)
    ncols = len(rhs[0]) if rhs else 0
    aug = [list(map(int, mat[i])) + list(map(int, rhs[i])) for i in range(size)]
    _forward_eliminate(aug, size)
    cols: list[list[Fraction]] = []
    for c in range(ncols):
        x = [Fraction(0)] * size
        for i in range(size - 1, -1, -1):
            acc = Fraction(aug[i][size + c])
            for j in range(i + 1, size):
                acc -= aug[i][j] * x[j]
            x[i] = acc / aug[i][i]
        cols.append(x)
    return cols


def matrix_det(mat: LabeledIntMatrix) -> int:
    """Determinant of a labeled square matrix."""
    return bareiss_det(mat.entries)


def smith_normal_form(mat) -> tuple[int, ...]:
    """Elementary divisors d_1 | d_2 | ... of a square integer matrix, by
    row/column reduction with the minimal-absolute-value pivot."""
    if isinstance(mat, LabeledIntMatrix):
        mat = mat.entries
    m = [list(map(int, row)) for row in mat]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("smith_normal_form needs a square matrix")
    t = 0
    while t < size:
        pivot = None
        for i in range(t, size):
            for j in range(t, size):
                v = abs(m[i][j])
                if v and (pivot is None or v < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        p = m[t][t]
        dirty = False
        for i in range(t + 1, size):
            if m[i][t]:
                q = m[i][t] // p
                if q:
                    for j in range(t, size):
                        m[i][j] -= q * m[t][j]
                if m[i][t]:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, size):
            if m[t][j]:
                q = m[t][j] // p
                if q:
                    for i in range(t, size):
                        m[i][j] -= q * m[i][t]
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        stray = None
        for i in range(t + 1, size):
            if any(m[i][j] % p for j in range(t + 1, size)):
                stray = i
                break
        if stray is not None:
            for j in range(t, size):
                m[t][j] += m[stray][j]
            continue
        t += 1
    return tuple(abs(m[i][i]) for i in range(size))


# --------------------------------------------------------------------------
# Label orders
# --------------------------------------------------------------------------

def pair_class(pair: Pair) -> tuple[int, int]:
    """The class (n0, n1) of a pair: the weights of its two components."""
    r, d = pair
    return weight(r), weight(d)


@cache
def canonical_pairs(n: int) -> tuple[Pair, ...]:
    """Column labels of A_n: the pairs (mu_r, mu_d) over all mu |- n, ordered
    by n0 descending, then each component in descending tuple order."""
    prs = [phi(mu) for mu in generate_partitions(n)]
    return tuple(sorted(prs, key=lambda rd: (weight(rd[0]), rd[0], rd[1]), reverse=True))


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


def _paper_orders(n: int):
    """(row order, pair order) of the stored reference layout, or None."""
    from .golden import paper_layout

    return paper_layout(n)


def _apply_order(mat: LabeledIntMatrix, n: int, order: str, kind: str) -> LabeledIntMatrix:
    if order == "canonical":
        return mat
    if order != "paper":
        raise ValueError(f"unknown order {order!r}")
    layout = _paper_orders(n)
    if layout is None:
        return mat
    rows, pairs = layout
    strict_order = tuple(r for (r, d) in pairs if d == ())
    if kind == "A":
        return reorder(mat, rows, pairs)
    if kind == "Gamma":
        return reorder(mat, rows, strict_order)
    if kind == "G":
        return reorder(mat, strict_order, strict_order)
    if kind == "AtA":
        return reorder(mat, pairs, pairs)
    return mat


# --------------------------------------------------------------------------
# The transition matrix and friends
# --------------------------------------------------------------------------

@cache
def _build_A_canonical(n: int) -> LabeledIntMatrix:
    rows = generate_partitions(n)
    pairs = canonical_pairs(n)
    duals = [V_from_pair(r, d) for (r, d) in pairs]
    ent = tuple(
        tuple(
            _schur_coeff(v, lam, f"transition entry ({lam}, {pair})")
            for pair, v in zip(pairs, duals)
        )
        for lam in rows
    )
    return LabeledIntMatrix(rows, pairs, ent)


def build_A(n: int, order: str = "canonical") -> LabeledIntMatrix:
    """Transition matrix A_n: S_lam(x,x) = sum a_{lam,mu} W_mu.

    Rows are partitions of n in descending order; columns the pairs
    (mu_r, mu_d) in canonical pair order.  Each entry is the twisted
    pairing <S_lam(x,x), V_mu>_{-1} with the dual family V_mu, summed as
    sum_rho chi^lam_rho [p_rho]V_mu and checked to be an integer.
    """
    if n < 1:
        raise ValueError("build_A needs n >= 1")
    return _apply_order(_build_A_canonical(n), n, order, "A")


@cache
def _build_A_combinatorial_canonical(n: int) -> LabeledIntMatrix:
    rows = generate_partitions(n)
    pairs = canonical_pairs(n)
    ent = [[0] * len(pairs) for _ in rows]
    prod_cache: dict[tuple[Partition, Partition], SymFunc] = {}
    for j, (r, d) in enumerate(pairs):
        n0, n1 = weight(r), weight(d)
        for xi in generate_partitions(2 * n1):
            tq = two_core_quotient(xi)
            if tq.core2 != ():
                continue
            c_d = littlewood_richardson(tq.q0, tq.q1, d)
            if not c_d:
                continue
            for nu in generate_partitions(n0):
                g = stembridge_g(r, nu)
                if not g:
                    continue
                key = (nu, xi)
                if key not in prod_cache:
                    prod_cache[key] = schur(nu) * schur(xi)
                prod = prod_cache[key]
                factor = tq.sign * g * c_d
                for i, lam in enumerate(rows):
                    c_l = _schur_coeff(prod, lam, f"LR coefficient ({nu},{xi};{lam})")
                    if c_l:
                        ent[i][j] += factor * c_l
    return LabeledIntMatrix(rows, pairs, tuple(tuple(row) for row in ent))


def build_A_combinatorial(n: int, order: str = "canonical") -> LabeledIntMatrix:
    """A_n assembled entry by entry from the closed combinatorial formula

        a_{lam,mu} = sum_{nu, xi} sign(xi) g_{mu_r,nu} c^lam_{nu,xi} c^{mu_d}_{xi_0,xi_1}

    over nu |- n0 and xi |- 2 n1 with empty 2-core, where (xi_0, xi_1) is the
    2-quotient of xi.  Independent of the dual-family pairing in ``build_A``.
    """
    if n < 1:
        raise ValueError("build_A_combinatorial needs n >= 1")
    return _apply_order(_build_A_combinatorial_canonical(n), n, order, "A")


@cache
def _build_Gamma_canonical(n: int) -> LabeledIntMatrix:
    a_mat = _build_A_canonical(n)
    cols = generate_partitions(n, "strict")
    idx = [a_mat.col_labels.index((mu, ())) for mu in cols]
    ent = tuple(tuple(row[j] for j in idx) for row in a_mat.entries)
    return LabeledIntMatrix(a_mat.row_labels, cols, ent)


def build_Gamma(n: int, order: str = "canonical") -> LabeledIntMatrix:
    """Stembridge matrix Gamma_n: entry (lam, mu) is g_{mu,lam} = <P_mu, S_lam>.

    Read off as the (mu, empty) columns of ``build_A(n)``, because
    V_(mu, empty) = P_mu; ``bareiss_solve`` in the verification harness is
    its independent check.
    """
    if n < 1:
        raise ValueError("build_Gamma needs n >= 1")
    return _apply_order(_build_Gamma_canonical(n), n, order, "Gamma")


def _gram(mat: LabeledIntMatrix) -> LabeledIntMatrix:
    rows, cols = mat.shape
    ent = tuple(
        tuple(
            sum(mat.entries[i][a] * mat.entries[i][b] for i in range(rows))
            for b in range(cols)
        )
        for a in range(cols)
    )
    return LabeledIntMatrix(mat.col_labels, mat.col_labels, ent)


def gram_G(n: int, order: str = "canonical") -> LabeledIntMatrix:
    """Gram matrix G_n = (transpose Gamma_n) Gamma_n on strict labels."""
    return _apply_order(_gram(_build_Gamma_canonical(n)), n, order, "G")


def cartan_like(n: int, order: str = "canonical") -> LabeledIntMatrix:
    """Gram matrix (transpose A_n) A_n on pair labels; block diagonal over
    the classes (n0, n1)."""
    return _apply_order(_gram(_build_A_canonical(n)), n, order, "AtA")


def blocks(n: int) -> dict[tuple[int, int], LabeledIntMatrix]:
    """Diagonal blocks of ``cartan_like(n)`` keyed by class (n0, n1).

    Raises BlockStructureError if any entry joining two different classes is
    nonzero.  The principal block (n, 0) is ``gram_G(n)`` by construction,
    since Gamma is the (mu, empty) columns of A.
    """
    ata = cartan_like(n)
    labels = ata.col_labels
    classes = [pair_class(p) for p in labels]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            if ci != cj and ata.entries[i][j]:
                raise BlockStructureError(labels[i], labels[j], ata.entries[i][j])
    out: dict[tuple[int, int], LabeledIntMatrix] = {}
    seen: set[tuple[int, int]] = set()
    for cls in classes:
        if cls in seen:
            continue
        seen.add(cls)
        idx = [i for i, c in enumerate(classes) if c == cls]
        sub_labels = tuple(labels[i] for i in idx)
        ent = tuple(tuple(ata.entries[i][j] for j in idx) for i in idx)
        out[cls] = LabeledIntMatrix(sub_labels, sub_labels, ent)
    return out


def k_value(n: int) -> int:
    """Exponent k_n with |det A_n| = 2^{k_n}; computed by both closed sums

        k_n = sum over lam |- n of len(lam_e)
            = sum over lam |- n of (len(glaisher(lam_r)) - len(lam_r))

    which must agree."""
    parts = generate_partitions(n)
    k1 = sum(len(psi(lam)[1]) for lam in parts)
    k2 = 0
    for lam in parts:
        r = phi(lam)[0]
        k2 += len(glaisher(r)) - len(r)
    if k1 != k2:
        raise ArithmeticError(
            f"the two closed forms for k_{n} disagree: {k1} versus {k2}"
        )
    return k1


# --------------------------------------------------------------------------
# Emitters
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


def matrix_to_csv(mat: LabeledIntMatrix) -> str:
    """Bare CSV: one comma-separated line of entries per row."""
    return "\n".join(",".join(str(v) for v in row) for row in mat.entries)


def _latex_label(label) -> str:
    out = label_str(label, latex=True)
    return out if _is_pair(label) else f"({out})"


def matrix_to_latex(mat: LabeledIntMatrix) -> str:
    """LaTeX bordermatrix with labels, matching the reference layouts when
    the matrix was built with order="paper".  Bare partition labels are
    parenthesized the way the reference layouts print them."""
    cols = " & ".join(_latex_label(c) for c in mat.col_labels)
    lines = [f"\\bordermatrix{{ & {cols} \\cr"]
    for label, row in zip(mat.row_labels, mat.entries):
        vals = " & ".join(str(v) for v in row)
        lines.append(f"  {_latex_label(label)} & {vals} \\cr")
    lines.append("}")
    return "\n".join(lines)

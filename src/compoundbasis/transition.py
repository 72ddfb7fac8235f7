"""Transition matrices between the Schur basis and the compound basis.

``build_A(n)`` gives the integer coefficients of the change of basis

    S_lam(x, x) = sum_mu a_{lam,mu} W_mu(x),        lam, mu |- n,

where W_mu = Q_{mu_r}(x) S_{mu_d}(x^2) runs over the compound basis.  Rows
are labeled by lam.  Every matrix here is built class by class of the walk
``tables._classes``, which checks n >= 1, and labels its columns with the
pairs (mu_r, mu_d) of the class blocks it builds (Gamma and G with mu_r
alone); ``canonical_pairs`` is the walk's pairs alone.  Each entry is one
pairing, a_{lam,mu} = <S_lam(x, x), V_mu>_{-1}, against the dual family
V_mu = P_{mu_r}(x) S_{mu_d}(x^2) = 2^{-len(mu_r)} W_mu.  Doubling cancels the
twisted weight, so A = X diag(2^{len(rho)} / z_rho) M diag(2^{-len(mu_r)})
with X the character table and M the class table ``tables._class_table``;
M is block diagonal over the classes, so each class's columns of A
are the pairing of its character rows (``_chi_rows``) with M, one
``tables._pairing`` (power 2), each entry then divided exactly, pair by
pair: every product here goes through ``_pairing``, every Green value
through M.  ``build_A_combinatorial`` is the closed formula: it expands
P_{mu_r} by the Stembridge coefficients g_{r,nu} = <P_r, S_nu>, the entries
of ``build_Gamma(n0)`` (Macdonald III.8), once per class, and each
S_nu S_{mu_d}(x^2) by one sparse column of signed Yamanouchi domino
tableaux (``tables._domino_counts``, Carre-Leclerc, each column checked by
one class count).  So on class (n, 0) it is Gamma_n itself, which
``stembridge-structure`` guards; on every class with n1 >= 1 it reaches A
through the domino count, apart from the pairing.
``build_Gamma`` is the (mu, empty) columns of A, class (n, 0) built alone,
since V_(mu, empty) = P_mu.  (transpose A) A is read off the class table per
class, so it is block diagonal by construction: ``blocks``, laid on the
diagonal by ``cartan_like``, with ``gram_G`` the (n, 0) block built alone.
Each block is one ``_pairing`` (power 4) of M's columns with M, formed by
``_gram_block`` from its own class alone, which is the one check that a
class lies on the walk; ``blocks``, ``gram_G`` and the ``block`` kind of
``matrix`` all build through it.
``thm-4.8`` and ``prop-4.9`` check them against (transpose A) A itself.

Determinants are fraction-free (Bareiss); ``smith_normal_form`` computes
elementary divisors by diagonalising with minimal-|pivot| row and column
reduction over the integers, then putting the diagonal in divisibility
order by (gcd, lcm) pairs.  No builder and no claim reads the exact
solver ``bareiss_solve``, public only for the benchmark's layer probe.
Every builder here reads only the integer tables of ``tables``: this
module imports no ``symfunc``, and ``fractions`` only inside
``bareiss_solve``, whose answer is Fractions.

Matrices are immutable ``labeled.LabeledIntMatrix`` values in canonical
label order; the type, its label helpers and its JSON and LaTeX codecs
live in ``labeled``, which ``golden`` and the cache path of ``cli`` read
without loading this module.  The paper's own layouts of A_3 and A_4 are
stored fixtures, so ``golden.paper_order`` applies them.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import repeat
from operator import itemgetter, mul

from . import _EXPORTS
from .labeled import LabeledIntMatrix, Pair
from .partitions import Partition, generate_partitions, glaisher, phi, psi
from .tables import _chi_rows, _class_block, _class_table, _classes, _domino_counts, _exact, _pairing

__all__ = list(_EXPORTS["transition"])


class SingularMatrixError(ArithmeticError):
    """Raised when an exact solve meets a singular coefficient matrix."""


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


def _square_rows(mat, what: str) -> list[list[int]]:
    """The rows of a square integer matrix, labeled or plain rows, as fresh
    lists of ints; ValueError "``what`` needs a square matrix" otherwise."""
    if isinstance(mat, LabeledIntMatrix):
        mat = mat.entries
    m = [list(map(int, row)) for row in mat]
    if any(len(row) != len(m) for row in m):
        raise ValueError(f"{what} needs a square matrix")
    return m


def matrix_det(mat) -> int:
    """Determinant of a square integer matrix, labeled or plain rows, by
    Bareiss elimination."""
    m = _square_rows(mat, "determinant")
    size = len(m)
    if size == 0:
        return 1
    try:
        sign = _forward_eliminate(m, size)
    except SingularMatrixError:
        return 0
    return sign * m[size - 1][size - 1]


def bareiss_solve(mat, rhs) -> list[list[Fraction]]:
    """Solve mat @ X = rhs exactly; mat square integer, rhs a matrix of one
    or more integer columns.  Returns the columns of X as Fractions y / D,
    with D the last Bareiss pivot: y = D x is integral (Cramer's rule), so it
    is back-substituted in integers, y_i = (D b_i - sum_{j>i} a_ij y_j) / a_ii,
    each division exact (``_exact``; a remainder is an internal defect)."""
    from fractions import Fraction

    size = len(mat)
    ncols = len(rhs[0]) if rhs else 0
    aug = [list(map(int, mat[i])) + list(map(int, rhs[i])) for i in range(size)]
    _forward_eliminate(aug, size)
    det = aug[-1][size - 1] if size else 1
    cols: list[list[Fraction]] = []
    for c in range(size, size + ncols):
        y = [0] * size
        for i in range(size - 1, -1, -1):
            acc = det * aug[i][c] - sum(map(mul, aug[i][i + 1:size], y[i + 1:]))
            y[i] = _exact(acc, aug[i][i], "back-substituted entry ({}, {})", i, c - size)
        cols.append([Fraction(v, det) for v in y])
    return cols


def smith_normal_form(mat) -> tuple[int, ...]:
    """Elementary divisors d_1 | d_2 | ... of a square integer matrix, by
    diagonalising, then normalising.

    At each step t the nonzero entry of least absolute value in the trailing
    submatrix is swapped to (t, t), and integer multiples of its row and
    column clear the rest of column t and row t down to remainders; a
    nonzero remainder is smaller than the pivot and becomes the next one,
    so the step ends with row t and column t clear.  The diagonal is then
    put in divisibility order by (a, b) -> (gcd(a, b), lcm(a, b)) over
    i < j, which keeps every gcd of k x k minors; zeros move to the end."""
    m = _square_rows(mat, "smith_normal_form")
    size = len(m)
    for t in range(size):
        while True:
            pivot = min(
                ((abs(v), i, j) for i in range(t, size) for j, v in enumerate(m[i][t:], t) if v),
                default=None,
            )
            if pivot is None:
                break
            _, pi, pj = pivot
            m[t], m[pi] = m[pi], m[t]
            for row in m:
                row[t], row[pj] = row[pj], row[t]
            p = m[t][t]
            for i in range(t + 1, size):
                q = m[i][t] // p
                if q:
                    for j in range(t, size):
                        m[i][j] -= q * m[t][j]
            for j in range(t + 1, size):
                q = m[t][j] // p
                if q:
                    for i in range(t, size):
                        m[i][j] -= q * m[i][t]
            if not any(m[i][t] or m[t][i] for i in range(t + 1, size)):
                break
    d = [abs(m[i][i]) for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, g and d[i] * d[j] // g
    return tuple(d)


# --------------------------------------------------------------------------
# Label orders
# --------------------------------------------------------------------------

@cache
def canonical_pairs(n: int) -> tuple[Pair, ...]:
    """Column labels of A_n: the pairs (mu_r, mu_d) over all mu |- n, class
    by class of the walk ``tables._classes``, in its pair order."""
    return tuple(p for _, _, prs in _classes(n) for p in prs)


# --------------------------------------------------------------------------
# The transition matrix and friends
# --------------------------------------------------------------------------

def _A_columns(n: int, keys, prs, table) -> list[list[int]]:
    """The columns of A over the pairs ``prs`` of one class of the class
    table: the characters of every lam |- n on the class keys paired with
    each column of M (``_pairing``, power 2), divided exactly by
    n! 2^{len(mu_r)}, pair by pair and then lam."""
    fact, lams = math.factorial(n), generate_partitions(n)
    cols = []
    for pr, col in zip(prs, zip(*_pairing(n, _chi_rows(keys, lams), keys, table))):
        den = fact << len(pr[0])
        quotients = list(map(divmod, col, repeat(den)))
        if any(map(itemgetter(1), quotients)):  # _exact names the first remainder
            for lam, s in zip(lams, col):
                _exact(s, den, "transition column {} at lam={}", pr, lam)
        cols.append(list(map(itemgetter(0), quotients)))
    return cols


@cache
def _build_A_canonical(n: int) -> LabeledIntMatrix:
    cols = [col for cls in _class_table(n).values() for col in _A_columns(n, *cls)]
    return LabeledIntMatrix(generate_partitions(n), canonical_pairs(n), tuple(zip(*cols)))


def build_A(n: int) -> LabeledIntMatrix:
    """Transition matrix A_n: S_lam(x,x) = sum a_{lam,mu} W_mu.

    Rows are partitions of n in descending order; columns the pairs
    (mu_r, mu_d) in canonical pair order.  Each entry is the twisted
    pairing <S_lam(x,x), V_mu>_{-1} with the dual family, summed as
    sum_rho chi^lam_rho [p_rho]V_mu with [p_rho]V_mu read off the class
    table, one packed product per class, each entry checked to divide exactly.
    """
    return _build_A_canonical(n)


@cache
def _build_A_combinatorial_canonical(n: int) -> LabeledIntMatrix:
    classes, rows = _classes(n), generate_partitions(n)
    index = {lam: i for i, lam in enumerate(rows)}

    @cache  # local, so only this degree's columns are held
    def product(nu: Partition, d: Partition) -> tuple[tuple[int, int], ...]:
        """S_nu S_d(x^2) over the S_lam, as its nonzero (row, coefficient)."""
        return tuple((index[lam], c) for lam, c in _domino_counts(nu, d).items())

    cols = []
    for n0, _, prs in classes:
        # Gamma_0 = [[1]], since P_() = S_() = 1
        gamma = build_Gamma(n0) if n0 else LabeledIntMatrix(((),), ((),), ((1,),))
        gs = dict(zip(gamma.col_labels, zip(*gamma.entries)))  # gs[r][nu] = g_{r,nu}
        for r, d in prs:
            col = [0] * len(rows)
            for nu, g in zip(gamma.row_labels, gs[r]):
                if g:
                    for i, c in product(nu, d):
                        col[i] += g * c
            cols.append(col)
    return LabeledIntMatrix(rows, canonical_pairs(n), tuple(zip(*cols)))


def build_A_combinatorial(n: int) -> LabeledIntMatrix:
    """A_n assembled column by column from the closed combinatorial formula

        a_{lam,mu} = sum_nu g_{mu_r,nu} [S_lam] S_nu S_{mu_d}(x^2)

    over nu |- n0.  The Stembridge coefficients g_{mu_r,nu} =
    <P_{mu_r}, S_nu> are entry (nu, mu_r) of ``build_Gamma(n0)``, read once
    per class (Gamma_0 = [[1]]); so on class (n, 0) the formula is Gamma_n,
    which the ``stembridge-structure`` claim guards; on every class with
    n1 >= 1 it reaches A apart from ``build_A``'s class products.
    Each product S_nu S_d(x^2) is one sparse column ``tables._domino_counts``
    per (nu, d) of the degree, held as (row, coefficient) pairs: signed
    counts of Yamanouchi domino tableaux of shape lam/nu and weight d
    (Carre-Leclerc), with no 2-quotient, no LR number and no Fraction.  Its
    guard reads the one character column (2^{|d|} 1^{|nu|}) and raises
    ArithmeticError when the column fails that class count.
    """
    return _build_A_combinatorial_canonical(n)


@cache
def _build_Gamma_canonical(n: int) -> LabeledIntMatrix:
    keys, prs, rows = _class_block(*_classes(n)[0])
    ent = tuple(zip(*_A_columns(n, keys, prs, rows)))
    return LabeledIntMatrix(generate_partitions(n), tuple(r for r, _ in prs), ent)


def build_Gamma(n: int) -> LabeledIntMatrix:
    """Stembridge matrix Gamma_n: entry (lam, mu) is g_{mu,lam} = <P_mu, S_lam>.

    The (mu, empty) columns of A, since V_(mu, empty) = P_mu, built from
    class (n, 0) alone as ``build_A`` builds that class; the
    ``stembridge-structure`` claim checks that it solves the square Green
    system on odd keys, whose determinant is nonzero.
    """
    return _build_Gamma_canonical(n)


def _gram_block(n: int, n0: int, n1: int) -> LabeledIntMatrix:
    """The block of (transpose A_n) A_n on the pairs of class (n0, n1) of the
    walk, read off that class of the class table alone: entry (p, q) is the
    Hall Gram <V_p, V_q> = 2^{-len(p_r)-len(q_r)} sum_rho 4^{len(rho)}
    M[rho][p] M[rho][q] / z_rho (``_pairing``, power 4), divided exactly.
    ValueError when degree n has no class (n0, n1)."""
    prs = {(a, b): prs for a, b, prs in _classes(n)}.get((n0, n1))
    if prs is None:
        raise ValueError(f"invalid block class ({n0},{n1}): need n0 + 2*n1 = {n} with n0, n1 >= 0")
    keys, _, rows = _class_block(n0, n1, prs)
    fact, gram = math.factorial(n), _pairing(n, list(zip(*rows)), keys, rows, 4)
    ent = tuple(
        tuple(_exact(v, fact << len(p[0]) + len(q[0]), "Gram entry ({}, {})", p, q)
              for q, v in zip(prs, row))
        for p, row in zip(prs, gram)
    )
    return LabeledIntMatrix(tuple(prs), tuple(prs), ent)


def blocks(n: int) -> dict[tuple[int, int], LabeledIntMatrix]:
    """Diagonal blocks of (transpose A_n) A_n by class (n0, n1) of the walk,
    each on its class's pairs, each read off its own class of the class table
    (classes share no key); an entry that does not divide exactly raises
    ArithmeticError."""
    return {(n0, n1): _gram_block(n, n0, n1) for n0, n1, _ in _classes(n)}


def _block_diagonal(blks: dict) -> LabeledIntMatrix:
    """The matrix with the blocks of ``blks`` (a ``blocks`` dict) on its
    diagonal, in their order, and 0 between them."""
    labels = tuple(p for block in blks.values() for p in block.row_labels)
    ent: list = []
    for block in blks.values():
        at = len(ent)
        ent.extend((0,) * at + row + (0,) * (len(labels) - at - len(row)) for row in block.entries)
    return LabeledIntMatrix(labels, labels, tuple(ent))


def cartan_like(n: int) -> LabeledIntMatrix:
    """Gram matrix (transpose A_n) A_n on pair labels in canonical order:
    the ``blocks`` on the diagonal and 0 between classes."""
    return _block_diagonal(blocks(n))


def gram_G(n: int) -> LabeledIntMatrix:
    """Gram matrix G_n = (transpose Gamma_n) Gamma_n on strict labels: the
    block of class (n, 0) alone, with mu in place of (mu, empty)."""
    block = _gram_block(n, n, 0)
    labels = tuple(r for r, _ in block.row_labels)
    return LabeledIntMatrix(labels, labels, block.entries)


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

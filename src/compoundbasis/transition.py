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
with X the character table and M the class table ``tables._class_table``,
block diagonal over the classes.  ``build_Gamma`` is the (mu, empty)
columns of A, since V_(mu, empty) = P_mu: class (n, 0) alone, the pairing
of its character rows (``_chi_rows``) with M, one ``tables._pairing``
(power 2), each entry then divided exactly, pair by pair.

A itself has one route, the closed formula of ``build_A``: it expands
P_{mu_r} by the Stembridge coefficients g_{r,nu} = <P_r, S_nu>, the entries
of ``build_Gamma(n0)`` (Macdonald III.8), once per class, and each
S_nu S_{mu_d}(x^2) by one sparse column of signed Yamanouchi domino
tableaux (``tables._domino_counts``, Carre-Leclerc, each column checked by
one class count).  So on class (n, 0) it is Gamma_n itself, which
``stembridge-structure`` guards; on every class with n1 >= 1 it reads no
degree-n character but the domino guards (2^{n1} 1^{n0}), and ``thm-4.3``
checks it there as A M^T = X.

Half of A is read off the other half by the involution omega (Macdonald
I.2).  It fixes every Q_r, which lies in Q[p_1, p_3, ...]; it takes
S_lam(x, x) to S_lam'(x, x), as chi^{lam'}_rho = sign(rho) chi^lam_rho; and
it takes S_d(x^2) to (-1)^{|d|} S_d'(x^2), as omega p_{2 tau} =
(-1)^{len(tau)} p_{2 tau}.  So a_{lam',(r,d')} = (-1)^{|d|} a_{lam,(r,d)},
and [S_lam'] S_nu' S_d'(x^2) = (-1)^{|d|} [S_lam] S_nu S_d(x^2).  The search
lays one label per part of d, so ``build_A`` searches column (r, d) only
when len(d) <= len(d'), and for d = d' the product S_nu S_d(x^2) only when
len(nu) <= len(nu'); the rest it reads off, rows permuted lam -> lam'.
Every searched column keeps its class-count guard, and ``thm-4.3``'s
A M^T = X checks the read-off columns with the others.

(transpose A) A is read off the class table per class, so it is block
diagonal by construction: ``blocks``, laid on the diagonal by
``cartan_like``, with ``gram_G`` the (n, 0) block alone.  Each block is one ``_pairing`` (power 4) of M's columns
with M, formed by ``_gram_block`` from its own class alone, which is the one
check that a class lies on the walk of degree n; ``blocks``, ``gram_G`` and
the ``block`` kind of ``matrix`` all read it.  The memo tables here hold A,
Gamma and the Gram blocks per degree, all immutable;
the class blocks they read are memoized in ``tables``, each formed once per
process.  ``thm-4.8`` and ``prop-4.9`` check the Gram blocks against
(transpose A) A itself.

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
from .partitions import Partition, _conjugate, generate_partitions, glaisher, phi, psi, weight
from .tables import _chi_rows, _class_block, _classes, _domino_counts, _exact, _pairing

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

@cache
def _build_A_canonical(n: int) -> LabeledIntMatrix:
    classes, rows = _classes(n), generate_partitions(n)
    index = {lam: i for i, lam in enumerate(rows)}
    flip = [index[_conjugate(lam)] for lam in rows]  # row of lam -> row of lam'

    @cache  # cleared after each class, the one class whose columns read it
    def product(nu: Partition, d: Partition) -> tuple[tuple[int, int], ...]:
        """S_nu S_d(x^2) over the S_lam, as its nonzero (row, coefficient);
        for d = d' and len(nu) > len(nu'), read off S_nu' S_d(x^2) by omega."""
        conj = _conjugate(nu)
        if d == _conjugate(d) and len(nu) > len(conj):
            sign = -1 if weight(d) & 1 else 1
            return tuple((flip[i], sign * c) for i, c in product(conj, d))
        return tuple((index[lam], c) for lam, c in _domino_counts(nu, d).items())

    cols: dict[Pair, list[int]] = {}
    for n0, n1, prs in classes:
        # Gamma_0 = [[1]], since P_() = S_() = 1
        gamma = build_Gamma(n0) if n0 else LabeledIntMatrix(((),), ((),), ((1,),))
        gs = dict(zip(gamma.col_labels, zip(*gamma.entries)))  # gs[r][nu] = g_{r,nu}
        sign = -1 if n1 & 1 else 1
        for r, d in prs:
            conj = _conjugate(d)
            # a_{lam,(r,d)} = (-1)^{n1} a_{lam',(r,d')}; d' comes first, as d'_1 = len(d) > d_1
            if len(d) > len(conj):
                mirror = cols[r, conj]
                cols[r, d] = [sign * mirror[i] for i in flip]
                continue
            col = [0] * len(rows)
            for nu, g in zip(gamma.row_labels, gs[r]):
                if g:
                    for i, c in product(nu, d):
                        col[i] += g * c
            cols[r, d] = col
        product.cache_clear()
    return LabeledIntMatrix(rows, canonical_pairs(n), tuple(zip(*cols.values())))


def build_A(n: int) -> LabeledIntMatrix:
    """Transition matrix A_n: S_lam(x,x) = sum a_{lam,mu} W_mu.

    Rows are partitions of n in descending order; columns the pairs
    (mu_r, mu_d) in canonical pair order.  Column by column, the closed
    combinatorial formula

        a_{lam,mu} = sum_nu g_{mu_r,nu} [S_lam] S_nu S_{mu_d}(x^2)

    over nu |- n0.  The Stembridge coefficients g_{mu_r,nu} =
    <P_{mu_r}, S_nu> are entry (nu, mu_r) of ``build_Gamma(n0)``, read once
    per class (Gamma_0 = [[1]]); so on class (n, 0) the formula is Gamma_n.
    Each product S_nu S_d(x^2) is one sparse column ``tables._domino_counts``
    per (nu, d) of the degree, held as (row, coefficient) pairs: signed
    counts of Yamanouchi domino tableaux of shape lam/nu and weight d
    (Carre-Leclerc), with no 2-quotient, no LR number and no Fraction.  Its
    guard reads the one character column (2^{|d|} 1^{|nu|}) and raises
    ArithmeticError when the column fails that class count.

    The involution omega fixes Q_r (odd power sums alone), takes
    S_lam(x, x) to S_lam'(x, x) and S_d(x^2) to (-1)^{|d|} S_d'(x^2), so

        a_{lam',(r,d')} = (-1)^{|d|} a_{lam,(r,d)}.

    Hence only the columns with len(d) <= len(d') are searched, and for
    d = d' only the products with len(nu) <= len(nu'); each other column or
    product is the searched one times (-1)^{|d|}, rows permuted lam -> lam'.
    """
    return _build_A_canonical(n)


# The names under which the benchmark's probes still build and clear A;
# the benchmark change (ROADMAP item 1) deletes both aliases.
build_A_combinatorial = build_A
_build_A_combinatorial_canonical = _build_A_canonical


@cache
def _build_Gamma_canonical(n: int) -> LabeledIntMatrix:
    keys, prs, table = _class_block(n, 0)
    fact, lams = math.factorial(n), generate_partitions(n)
    cols = []
    for pr, col in zip(prs, zip(*_pairing(n, _chi_rows(keys, lams), keys, table))):
        den = fact << len(pr[0])
        quotients = list(map(divmod, col, repeat(den)))
        if any(map(itemgetter(1), quotients)):  # _exact names the first remainder
            for lam, s in zip(lams, col):
                _exact(s, den, "transition column {} at lam={}", pr, lam)
        cols.append(list(map(itemgetter(0), quotients)))
    return LabeledIntMatrix(lams, tuple(r for r, _ in prs), tuple(zip(*cols)))


def build_Gamma(n: int) -> LabeledIntMatrix:
    """Stembridge matrix Gamma_n: entry (lam, mu) is g_{mu,lam} = <P_mu, S_lam>.

    The (mu, empty) columns of A, since V_(mu, empty) = P_mu, built from
    class (n, 0) of the class table alone: the characters of every lam |- n
    on its odd keys paired with each column of M (``_pairing``, power 2),
    divided exactly by n! 2^{len(mu)}, pair by pair and then lam.
    ``build_A`` reads its Stembridge coefficients from here.  The
    ``stembridge-structure`` claim checks that it solves the square Green
    system on odd keys, whose determinant is nonzero.
    """
    return _build_Gamma_canonical(n)


@cache
def _gram_block(n: int, n0: int, n1: int) -> LabeledIntMatrix:
    """The block of (transpose A_n) A_n on the pairs of class (n0, n1) of the
    walk, read off that class of the class table alone, formed once per
    process: entry (p, q) is the Hall Gram <V_p, V_q> = 2^{-len(p_r)-len(q_r)}
    sum_rho 4^{len(rho)} M[rho][p] M[rho][q] / z_rho (``_pairing``, power 4),
    divided exactly.  ValueError when degree n has no class (n0, n1)."""
    if (n0, n1) not in [(a, b) for a, b, _ in _classes(n)]:
        raise ValueError(f"invalid block class ({n0},{n1}): need n0 + 2*n1 = {n} with n0, n1 >= 0")
    keys, prs, rows = _class_block(n0, n1)
    fact, gram = math.factorial(n), _pairing(n, list(zip(*rows)), keys, rows, 4)
    ent = tuple(
        tuple(_exact(v, fact << len(p[0]) + len(q[0]), "Gram entry ({}, {})", p, q)
              for q, v in zip(prs, row))
        for p, row in zip(prs, gram)
    )
    return LabeledIntMatrix(prs, prs, ent)


def blocks(n: int) -> dict[tuple[int, int], LabeledIntMatrix]:
    """Diagonal blocks of (transpose A_n) A_n by class (n0, n1) of the walk,
    each on its class's pairs, each read off its own class of the class table
    (classes share no key): a new dict of the memoized ``_gram_block``s.  An
    entry that does not divide exactly raises ArithmeticError."""
    return {(n0, n1): _gram_block(n, n0, n1) for n0, n1, _ in _classes(n)}


def cartan_like(n: int) -> LabeledIntMatrix:
    """Gram matrix (transpose A_n) A_n on pair labels in canonical order:
    the ``blocks`` on the diagonal, in their order, and 0 between classes."""
    blks, labels, ent = blocks(n).values(), canonical_pairs(n), []
    for block in blks:
        at = len(ent)
        ent.extend((0,) * at + row + (0,) * (len(labels) - at - len(row)) for row in block.entries)
    return LabeledIntMatrix(labels, labels, tuple(ent))


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

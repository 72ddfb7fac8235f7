"""The integer kernel: the character, Green, class and Littlewood-Richardson
tables that every matrix of the package is built from.

The character table is stored once, column by column (``_mn_column``, the
Murnaghan-Nakayama rule on beta-sets held as int bitmasks), lam's key in
every column being ``_beta_mask(lam)``; the Green table of the Q-functions
likewise (``_bar_column``, Morris's bar rule on part masks).  Both rules
move a bead by r into an empty slot, one body for both (``_move_beads``),
so each column visits only the beads of one mask, ``m & ~(m >> r)``, whose
target is empty.  Their oracles
are ``symfunc.character``, the recursive Murnaghan-Nakayama rule, and a
Pfaffian of ``q_product`` terms in the tests.  The key formats stay in this
module: ``_chi_rows`` and ``_green_rows`` give rows of characters and Green
values on a set of keys, and are how every other module reads the two
tables.  ``_classes`` walks the classes (n0, n1) of degree n with their
pairs: the one pair order of every matrix and the one n >= 1 check.
``_class_block`` reads a class of the compound family off both tables in
the order of its pairs, as the integers z_rho [p_rho]W_mu / 2^{len(rho)};
A, the Gram blocks (as products with ``_chi_rows`` and with M itself) and
the pairing claims read these blocks, and the product
``symfunc.W_from_pair`` is their oracle in the tests.  ``_matmul`` is the one
product path of a class: it packs each key's row of M into one big int of
fixed-width slots, so each row of the product is one C-speed sum, read back
slot by slot; plain triple sums are its oracle in the tests.  ``_pairing``
is the one scaled power-sum pairing: ``_matmul`` weighted by
n! power^{len(rho)} / z_rho, which A and cor-4.2 read with power 2, the Gram
blocks with power 4 and two-sign-oracle with power 1.

One search counts every tableau here, ``partitions._yamanouchi_tableaux``,
with pieces of one cell or of two.  Littlewood-Richardson numbers come from
one route, ``_lr_counts``, which counts Yamanouchi tableaux of cells and
checks each sparse column by the dimension count, with no character and no
Fraction.  Kostka columns go through it too: ``_kostka_column`` folds its
Pieri columns over the parts of mu (Young's rule), and checks the fold by
the same count (``_dimension_checked``, the one dimension guard).  The
closed formula's products S_nu S_d(x^2) are ``_domino_counts``, signed
Yamanouchi tableaux of dominoes, each column checked by its count on the
one character column (2^{|d|} 1^{|nu|}).

``_exact`` is the one exact division: num / den or an ArithmeticError naming
the entry (``transition._A_columns`` divides a whole column at C speed and
hands ``_exact`` the entries of a column with a remainder, so the first of
them is named).  Every value here is an int; ``fractions`` is imported only to
print a remainder in that error, so building a matrix loads no
``symfunc`` and no ``fractions``.  The memo tables hold pure functions of
their arguments.
"""

from __future__ import annotations

import math
from functools import cache
from operator import lshift, mul

from .partitions import (
    Partition,
    _dimension,
    _yamanouchi_tableaux,
    generate_partitions,
    psi_inverse,
    weight,
    z_factor,
)


def _exact(num: int, den: int, what: str, *labels) -> int:
    """num / den, which must be an integer; the error names the entry as
    ``what.format(*labels)`` otherwise."""
    q, r = divmod(num, den)
    if r:
        from fractions import Fraction

        raise ArithmeticError(f"{what.format(*labels)} came out non-integral: {Fraction(num, den)}")
    return q


def _matmul(rows, weights, block) -> list[list[int]]:
    """The products sum_k row[k] weights[k] block[k][j] over the columns j of
    ``block`` (keys x pairs), one list per row of ``rows`` (each over the
    keys); a block with no keys has no columns.

    Each key's row of the block is packed into one int with a W-bit slot per
    column, P_k = weights[k] sum_j block[k][j] 2^{Wj}, so that one C-speed
    sum sum_k row[k] P_k = sum_j R_j 2^{Wj} holds every product R_j of the
    row.  The slots are exact: with m_k = max_j |block[k][j]|, every |R_j| is
    at most B = max_row sum_k |row[k] weights[k]| m_k, and W is the least
    width with B < 2^{W-1} = H.  So each R_j + H lies in [1, 2^W - 1]:
    adding H to every slot leaves no carry, and R_j is slot j of that sum
    less H."""
    width = len(block[0]) if block else 0
    if not width:
        return [[] for _ in rows]
    scales = [abs(w) * max(map(abs, b)) for w, b in zip(weights, block)]
    bound = max((sum(map(mul, map(abs, row), scales)) for row in rows), default=0)
    size = bound.bit_length() + 1  # W
    half, mask = 1 << size - 1, (1 << size) - 1
    shifts = range(0, size * width, size)
    offset = half * (((1 << size * width) - 1) // mask)  # H in every slot
    packed = [w * sum(map(lshift, b, shifts)) for w, b in zip(weights, block)]
    out = []
    for row in rows:
        total = sum(map(mul, row, packed)) + offset
        out.append([(total >> s & mask) - half for s in shifts])
    return out


def _pairing(n: int, rows, keys, block, power: int = 2) -> list[list[int]]:
    """The scaled power-sum pairing of ``rows`` with ``block`` on ``keys``
    rho |- n: the ``_matmul`` with weights n! power^{len(rho)} / z_rho, so
    every product is an integer; the caller divides it exactly."""
    fact = math.factorial(n)
    return _matmul(rows, [fact // z_factor(k) * power ** len(k) for k in keys], block)


# --------------------------------------------------------------------------
# Characters and Littlewood-Richardson numbers
# --------------------------------------------------------------------------

def _move_beads(col: dict[int, int], m: int, beads: int, r: int, c: int) -> None:
    """The bead move of both column rules: for each bead ``bit`` of ``beads``,
    add c to ``col`` at m with that bead moved up by r into an empty slot,
    signed by the parity of the beads of m it jumps.  The key clears ``bit``
    rather than flipping it, so a bead that m lacks (the bar rule's reservoir
    bit 0) adds the part r."""
    while beads:
        bit = beads & -beads
        beads ^= bit
        tgt = bit << r
        key = (m & ~bit) | tgt
        jumped = (m & (tgt - (bit << 1))).bit_count()
        col[key] = col.get(key, 0) + (-c if jumped & 1 else c)


@cache
def _mn_column(rho: Partition) -> dict[int, int]:
    """The nonzero character column chi^lam_rho over lam |- |rho|, keyed by
    the beta-mask of lam with |rho| beads (bit lam_i + |rho| - 1 - i for
    i < |rho|, lam padded with zeros).

    Murnaghan-Nakayama read as p_r S_mu = sum (-1)^ht S_lam over r-border
    strips lam/mu (Macdonald I.3 Ex. 11): with r = rho[0], each mask of the
    column of rho[1:] gains r beads at the bottom, then one bead moves from
    b to an empty b + r, with sign the parity of the beads it jumps."""
    if not rho:
        return {0: 1}
    r = rho[0]
    col: dict[int, int] = {}
    for m, c in _mn_column(rho[1:]).items():
        m = (m << r) | ((1 << r) - 1)
        _move_beads(col, m, m & ~(m >> r), r, c)  # the beads whose target is empty
    return {k: v for k, v in col.items() if v}


@cache
def _beta_mask(lam: Partition) -> int:
    """The beta-set of lam with |lam| beads as an int bitmask: lam's key in
    every character column."""
    n = weight(lam)
    return sum(1 << (part + n - 1 - i) for i, part in enumerate(lam)) + (1 << (n - len(lam))) - 1


def _chi_rows(keys, lams) -> list[list[int]]:
    """The characters chi^lam_rho over rho in ``keys``, one row per lam in
    ``lams``, read off the columns."""
    cols = [_mn_column(rho) for rho in keys]
    return [[col.get(m, 0) for col in cols] for m in map(_beta_mask, lams)]


def _dimension_checked(counts: dict[Partition, int], want: int, what: str) -> dict[Partition, int]:
    """``counts``, a column of multiplicities {lam: c} of S_lam in a product,
    once sum_lam c f^lam equals ``want``, the product's dimension, with f
    from the hook-length formula; a column that fails the count is an
    internal defect, named ``what`` in the ArithmeticError."""
    got = sum(c * _dimension(lam) for lam, c in counts.items())
    if got != want:
        raise ArithmeticError(f"{what} fails the dimension count: {got} != {want}")
    return counts


def _lr_counts(nu: Partition, xi: Partition) -> dict[Partition, int]:
    """The nonzero Littlewood-Richardson numbers {lam: c^lam_{nu,xi}} of
    S_nu S_xi, counted as Yamanouchi tableaux of cells whose content is the
    factor of smaller weight (c^lam_{nu,xi} = c^lam_{xi,nu}), so the search
    lays the fewer cells.  The whole column must pass the dimension count
    sum_lam c^lam_{nu,xi} f^lam = binom(|nu| + |xi|, |nu|) f^nu f^xi."""
    a, b = weight(nu), weight(xi)
    counts = _yamanouchi_tableaux(nu, xi, 1) if b <= a else _yamanouchi_tableaux(xi, nu, 1)
    want = math.comb(a + b, a) * _dimension(nu) * _dimension(xi)
    return _dimension_checked(counts, want, f"LR column ({nu}, {xi})")


def _domino_counts(nu: Partition, d: Partition) -> dict[Partition, int]:
    """The nonzero coefficients {lam: c_lam} of S_lam in S_nu S_d(x^2), each
    a signed count of Yamanouchi tableaux of dominoes (pieces of size 2 in
    ``partitions._yamanouchi_tableaux``).  The dimension count is 0 once d is
    not empty, since S_d(x^2) has no p_1 term; so the whole column must pass
    the class count at rho = (2^{|d|} 1^{|nu|}), sum_lam c_lam chi^lam_rho =
    2^{|d|} f^nu f^d, and this guard reads that one character column
    (``_mn_column``)."""
    counts = _yamanouchi_tableaux(nu, d, 2)
    col = _mn_column((2,) * weight(d) + (1,) * weight(nu))
    got = sum(c * col.get(_beta_mask(lam), 0) for lam, c in counts.items())
    want = _dimension(nu) * _dimension(d) << weight(d)
    if got != want:
        raise ArithmeticError(f"domino column ({nu}, {d}) fails the class count: {got} != {want}")
    return counts


def _kostka_column(mu: Partition) -> dict[Partition, int]:
    """The nonzero Kostka numbers {nu: K_{nu,mu}} over nu |- |mu|, by Young's
    rule (Macdonald I.6): h_mu = h_{mu_1} h_{mu_2} ..., so the column is the
    Pieri columns ``_lr_counts(lam, (m,))`` (h_m = S_(m)) folded over the
    parts m of mu, each step checked as every LR column is.  The fold itself
    must pass the count sum_nu K_{nu,mu} f^nu = n! / prod mu_i!, the
    dimension of h_mu."""
    counts: dict[Partition, int] = {(): 1}
    for m in mu:
        step: dict[Partition, int] = {}
        for lam, c in counts.items():
            for nu, k in _lr_counts(lam, (m,)).items():
                step[nu] = step.get(nu, 0) + c * k
        counts = step
    want = math.factorial(weight(mu)) // math.prod(map(math.factorial, mu))
    return _dimension_checked(counts, want, f"Kostka column {mu}")


# --------------------------------------------------------------------------
# The Green table and the class table
# --------------------------------------------------------------------------

def _part_mask(lam: Partition) -> int:
    """lam's key in every Green column: bit p is set iff p is a part."""
    return sum(1 << p for p in lam)


@cache
def _bar_column(sigma: Partition) -> dict[int, int]:
    """The nonzero Green column X^lam_sigma over strict lam |- |sigma| for
    odd sigma, keyed by ``_part_mask(lam)``.

    Morris's bar rule read as p_r P_mu = sum X P_lam (Macdonald III.8 Ex. 11):
    with r = sigma[0], each mask of the column of sigma[1:] either moves a
    part x to an absent x + r, the bead move of ``_mn_column`` with bit 0 a
    reservoir that adds the part r, signed by the parts it jumps; or gains
    both absent parts b < a = r - b, with weight 2 (-1)^b and the same sign."""
    if not sigma:
        return {0: 1}
    r = sigma[0]
    col: dict[int, int] = {}
    for m, c in _bar_column(sigma[1:]).items():
        # the parts (and the reservoir) whose target is absent
        _move_beads(col, m, (m | 1) & ~(m >> r), r, c)
        for b in range(1, (r + 1) // 2):
            lo, hi = 1 << b, 1 << (r - b)
            if not m & (lo | hi):
                jumped = b + (m & (hi - (lo << 1))).bit_count()
                col[m | lo | hi] = col.get(m | lo | hi, 0) + (-2 * c if jumped & 1 else 2 * c)
    return {k: v for k, v in col.items() if v}


def _green_rows(keys, stricts) -> list[list[int]]:
    """The Green values X^mu_sigma over odd sigma in ``keys``, one row per
    strict mu in ``stricts``, read off the columns."""
    cols = [_bar_column(sigma) for sigma in keys]
    return [[col.get(m, 0) for col in cols] for m in map(_part_mask, stricts)]


def _classes(n: int) -> list[tuple[int, int, list]]:
    """The classes of degree n as (n0, n1, pairs), n0 = n, n - 2, ..., with
    the pairs (r, d) over r strict |- n0 (outer) and d |- n1 (inner), both
    descending: the one place that fixes the pair order and n >= 1."""
    if n < 1:
        raise ValueError(f"degree n must be >= 1, got {n}")
    out = []
    for n1 in range(n // 2 + 1):
        rs, ds = generate_partitions(n - 2 * n1, "strict"), generate_partitions(n1)
        out.append((n - 2 * n1, n1, [(r, d) for r in rs for d in ds]))
    return out


def _class_block(n0: int, n1: int, prs) -> tuple[list, list, list]:
    """Class (n0, n1) of the class table: its keys (sigma odd |- n0 outer,
    tau |- n1 inner), its pairs ``prs`` and one row of M per key,
    M[rho][(r, d)] = X^r_sigma chi^d_tau for rho = sigma + 2 tau, in the
    order of ``prs``."""
    sigmas, taus = generate_partitions(n0, "odd"), generate_partitions(n1)
    rs = generate_partitions(n0, "strict")
    green = dict(zip(rs, _green_rows(sigmas, rs)))  # green[r][sigma] = X^r_sigma
    chi = dict(zip(taus, _chi_rows(taus, taus)))  # chi[d][tau] = chi^d_tau
    x_rows = list(zip(*[green[r] for r, _ in prs]))  # x_rows[sigma][j] = X^{r_j}_sigma
    chi_rows = list(zip(*[chi[d] for _, d in prs]))  # chi_rows[tau][j] = chi^{d_j}_tau
    keys = [psi_inverse(sigma, tau) for sigma in sigmas for tau in taus]
    return keys, prs, [list(map(mul, x_row, chi_row)) for x_row in x_rows for chi_row in chi_rows]


def _class_table(n: int) -> dict[tuple[int, int], tuple[list, list, list]]:
    """The compound family of degree n on power sums as one integer table,
    M[rho][mu] = z_rho [p_rho]W_mu / 2^{len(rho)} (and V_mu =
    2^{-len(mu_r)} W_mu): block diagonal, each class of the walk mapped to
    its ``_class_block``."""
    return {(n0, n1): _class_block(n0, n1, prs) for n0, n1, prs in _classes(n)}

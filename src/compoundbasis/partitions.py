"""Integer partitions: orderings, statistics, and the bijections behind the compound basis.

A partition is a plain tuple of weakly decreasing positive ints; ``()`` is the
empty partition.  All functions are pure and all arithmetic is exact.

The maps implemented here:

* ``phi``      -- split a partition by multiplicity parity into a strict part
                  and a doubled part, ``lam <-> (lam_r, lam_d)``.
* ``psi``      -- split a partition into its odd parts and its halved even
                  parts, ``lam <-> (lam_o, lam_e)``.
* ``glaisher`` -- the strict <-> odd-parts bijection (split every part into
                  ``2^p * q`` with q odd and let q carry multiplicity ``2^p``).
* ``h_abacus_decompose`` / ``h_abacus_compose``
               -- the three-runner abacus for strict partitions: evens on one
                  runner, values 4i+1 and 4i+3 on the other two, giving
                  ``lam <-> (core, shifted0, quotient1)`` with an integer charge.
* ``two_core_quotient``
               -- classical 2-core/2-quotient of an arbitrary partition from
                  its beta-set on two runners, with a normalized sign.

Two private counters serve ``tables``, which alone reads them:
``_dimension`` (f^lam by the hook-length formula) and
``_yamanouchi_tableaux`` (Littlewood-Richardson numbers as Yamanouchi
tableaux of cells, S_nu S_d(x^2) as signed ones of dominoes).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cache
from math import factorial
from typing import NamedTuple

from . import _EXPORTS

Partition = tuple[int, ...]

__all__ = list(_EXPORTS["partitions"])


def as_partition(parts) -> Partition:
    """Normalize an iterable of ints to a partition tuple.

    Trailing zeros are dropped; negative or increasing entries raise ValueError.
    """
    lam = tuple(int(a) for a in parts)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    for i, a in enumerate(lam):
        if a <= 0:
            raise ValueError(f"partition parts must be positive, got {a} in {lam}")
        if i and lam[i - 1] < a:
            raise ValueError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse a partition from text such as ``"5,2,1"`` or ``"5^3,4^4,2^7,1"``.

    ``a^m`` repeats the part a exactly m >= 0 times.  Empty string, ``-`` and
    ``[]`` all denote the empty partition.  Parts may also be whitespace
    separated.
    """
    text = text.strip()
    if text in ("", "-", "[]", "()"):
        return ()
    text = text.strip("[]()")
    parts: list[int] = []
    for token in re.split(r"[,\s]+", text):
        if not token:
            continue
        if "^" in token:
            base, _, exp = token.partition("^")
            m = int(exp)
            if m < 0:
                raise ValueError(f"exponents must be nonnegative, got {token!r}")
            try:  # an exponent past the address space fails before allocating
                parts.extend([int(base)] * m)
            except (OverflowError, MemoryError):
                raise ValueError(f"exponent too large to expand, got {token!r}") from None
        else:
            parts.append(int(token))
    return as_partition(parts)


def partition_str(lam: Partition, latex: bool = False) -> str:
    """Compact display form: ``(2,1,1) -> "21^2"``, ``() -> "∅"``.

    Parts are juxtaposed with exponents when every part is a single digit,
    comma separated otherwise.  With ``latex=True`` the empty partition is
    ``\\emptyset`` and exponents above 9 get braces.
    """
    if not lam:
        return r"\emptyset" if latex else "∅"
    mult = multiplicities(lam)
    vals = sorted(mult, reverse=True)
    if max(lam) <= 9:
        out = []
        for v in vals:
            m = mult[v]
            if m == 1:
                out.append(str(v))
            elif latex and m > 9:
                out.append(f"{v}^{{{m}}}")
            else:
                out.append(f"{v}^{m}")
        return "".join(out)
    return ",".join(str(a) for a in lam)


def weight(lam: Partition) -> int:
    """Sum of the parts."""
    return sum(lam)


def multiplicities(lam: Partition) -> dict[int, int]:
    """Map part value -> multiplicity."""
    mult: dict[int, int] = {}
    for a in lam:
        mult[a] = mult.get(a, 0) + 1
    return mult


def is_strict(lam: Partition) -> bool:
    """True iff all parts are distinct."""
    return all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))


def is_odd(lam: Partition) -> bool:
    """True iff all parts are odd."""
    return all(a % 2 == 1 for a in lam)


def _descending(n: int, kind: str) -> list[Partition]:
    """The partitions of n of one kind, in descending order, by depth-first
    search on an explicit stack of (parts so far, remainder, largest part
    allowed next).  Each node pushes its children smallest first, so the
    largest is expanded next; strict nodes that cannot be completed with
    distinct smaller parts are never pushed."""
    step = 2 if kind == "odd" else 1
    strict = kind == "strict"
    out: list[Partition] = []
    stack = [((), n, n)]
    while stack:
        lam, rem, top = stack.pop()
        if rem == 0:
            out.append(lam)
            continue
        first = min(top, rem)
        if step == 2 and first % 2 == 0:
            first -= 1
        children = []
        for a in range(first, 0, -step):
            nxt = a - 1 if strict else a
            if strict and rem - a > nxt * (nxt + 1) // 2:
                break  # a smaller a leaves more to fill with fewer parts
            children.append((lam + (a,), rem - a, nxt))
        stack.extend(reversed(children))
    return out


@cache
def generate_partitions(n: int, kind: str = "all") -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic (descending) order.

    ``kind`` selects the family: "all", "strict" (distinct parts) or "odd"
    (odd parts); each family is generated directly, not filtered from all
    partitions.  The order refines dominance downward: whenever mu dominates
    lam, mu is listed first.  The returned tuple is cached; treat it as
    immutable.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if kind not in ("all", "strict", "odd"):
        raise ValueError(f"unknown partition kind {kind!r}")
    return tuple(_descending(n, kind))


def phi(lam: Partition) -> tuple[Partition, Partition]:
    """Split by multiplicity parity: parts with odd multiplicity survive once
    in the strict component r, and every retired pair lands in d.

    Returns ``(r, d)`` with r strict, ``|lam| = |r| + 2|d|``, and
    ``m_i(r) = m_i(lam) mod 2``, ``m_i(d) = m_i(lam) // 2``.
    """
    mult = multiplicities(lam)
    r: list[int] = []
    d: list[int] = []
    for v in sorted(mult, reverse=True):
        m = mult[v]
        if m % 2:
            r.append(v)
        d.extend([v] * (m // 2))
    return tuple(r), tuple(d)


def phi_inverse(r: Partition, d: Partition) -> Partition:
    """Merge a strict partition r with two copies of every part of d."""
    if not is_strict(r):
        raise ValueError(f"first component must be strict, got {r}")
    return tuple(sorted(tuple(r) + tuple(d) + tuple(d), reverse=True))


def psi(lam: Partition) -> tuple[Partition, Partition]:
    """Split into odd parts and halved even parts.

    Returns ``(lam_o, lam_e)`` where lam_o keeps the odd parts and lam_e holds
    a/2 for every even part a, so ``|lam| = |lam_o| + 2|lam_e|``.
    """
    odd = tuple(a for a in lam if a % 2 == 1)
    ev = tuple(a // 2 for a in lam if a % 2 == 0)
    return odd, ev


def psi_inverse(odd: Partition, halves: Partition) -> Partition:
    """Merge odd parts with doubled parts; inverse of ``psi``."""
    if not is_odd(odd):
        raise ValueError(f"first component must have odd parts, got {odd}")
    return tuple(sorted(tuple(odd) + tuple(2 * a for a in halves), reverse=True))


def glaisher(lam: Partition) -> Partition:
    """Strict -> odd-parts bijection: a part ``2^p * q`` (q odd) contributes
    multiplicity ``2^p`` to the odd value q."""
    if not is_strict(lam):
        raise ValueError(f"glaisher expects a strict partition, got {lam}")
    mult: dict[int, int] = {}
    for a in lam:
        p = 0
        while a % 2 == 0:
            a //= 2
            p += 1
        mult[a] = mult.get(a, 0) + (1 << p)
    out: list[int] = []
    for q in sorted(mult, reverse=True):
        out.extend([q] * mult[q])
    return tuple(out)


def glaisher_inverse(lam: Partition) -> Partition:
    """Odd-parts -> strict bijection: write each multiplicity in binary and
    merge equal parts pairwise until all parts are distinct."""
    if not is_odd(lam):
        raise ValueError(f"glaisher_inverse expects odd parts, got {lam}")
    parts: list[int] = []
    for q, m in multiplicities(lam).items():
        p = 0
        while m:
            if m & 1:
                parts.append(q << p)
            m >>= 1
            p += 1
    return tuple(sorted(parts, reverse=True))


def z_factor(rho: Partition) -> int:
    """Centralizer order z_rho = prod_i i^{m_i} m_i!."""
    z = 1
    for v, m in multiplicities(rho).items():
        z *= v**m * factorial(m)
    return z


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """True iff mu dominates lam: every partial sum of mu is >= that of lam.

    Both partitions must have the same weight.
    """
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of equal weight")
    s_l = s_m = 0
    for i in range(max(len(lam), len(mu))):
        s_l += lam[i] if i < len(lam) else 0
        s_m += mu[i] if i < len(mu) else 0
        if s_l > s_m:
            return False
    return True


def partition_from_beta(beta) -> Partition:
    """Partition whose beta-set (first-column hook lengths padded downward)
    is the given set of distinct nonnegative ints."""
    bs = sorted(beta, reverse=True)
    m = len(bs)
    for i in range(m - 1):
        if bs[i] == bs[i + 1]:
            raise ValueError(f"beta numbers must be distinct, got {bs}")
    return as_partition(tuple(b - (m - 1 - i) for i, b in enumerate(bs)))


# --------------------------------------------------------------------------
# Standard and Yamanouchi tableaux
# --------------------------------------------------------------------------

def _conjugate(lam: Partition) -> Partition:
    """The conjugate partition lam', whose parts are the column lengths of lam."""
    out: list[int] = []
    for i in range(len(lam), 0, -1):  # parts from the last: lam_i - len(out) columns of length i
        out.extend([i] * (lam[i - 1] - len(out)))
    return tuple(out)


@cache
def _dimension(lam: Partition) -> int:
    """The number f^lam of standard Young tableaux of shape lam, by the
    hook-length formula |lam|! / prod(hook lengths)."""
    conj = _conjugate(lam)
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= part - j + conj[j] - i - 1
    return factorial(weight(lam)) // hooks


def _yamanouchi_tableaux(nu: Partition, content: Partition, size: int) -> dict[Partition, int]:
    """The signed counts {lam: sum (-1)^{#vertical}} over the Yamanouchi
    tableaux of shape lam/nu and weight ``content`` whose pieces are cells
    (size 1) or dominoes (size 2): no two pieces of one label share a
    column, and the column reading word is a lattice word, read column by
    column from the right, each top down, a row piece at its right cell and
    a vertical domino at its top cell.  Cells give the Littlewood-Richardson
    numbers c^lam_{nu,content} (Macdonald I.9; the column word is Knuth
    equivalent to the row word, Fulton ch. 5), all signs +1; dominoes give
    S_nu S_content(x^2) (Carre and Leclerc, J. Algebraic Combin. 4 (1995)).
    A depth-first search lays the labels in turn on one mutable shape, each
    label's pieces left to right: a row piece at the end of row r, or a
    vertical domino over rows r and r + 1 of equal length, under a row long
    enough to keep a partition.  The k-th piece of label i + 1 read needs k
    of label i read before it (``bisect_left`` on their sorted reading
    keys): the lattice test on each prefix."""
    if not content:
        return {nu: 1}
    # row 0 bounds row 1
    shape = [weight(nu) + size * weight(content) + 2, *nu] + [0] * (size * len(content) + 1)
    height, out = len(shape), {}

    def lay(i: int, left: int, lo: int, prev: list, keys: list, vertical: int) -> None:
        if not left:  # label i is laid: record lam, or lay label i + 1
            if i + 1 < len(content):
                lay(i + 1, content[i + 1], 0, keys[::-1], [], vertical)
            else:
                lam = tuple(shape[1:shape.index(0)])
                out[lam] = out.get(lam, 0) + (-1 if vertical & 1 else 1)
            return
        for r in range(1, height):
            c, up = shape[r], shape[r - 1]
            if c < lo:
                break
            end = c + size
            key = r - (end - 1) * height  # a row piece, read at (r, c + size - 1)
            if up >= end and (not i or bisect_left(prev, key) >= left):
                shape[r] = end
                keys.append(key)
                lay(i, left - 1, end, prev, keys, vertical)
                keys.pop()
                shape[r] = c
            key = r - c * height  # a vertical domino over rows r and r + 1, read at (r, c)
            if size == 2 and up > c == shape[r + 1] and (not i or bisect_left(prev, key) >= left):
                shape[r] = shape[r + 1] = c + 1
                keys.append(key)
                lay(i, left - 1, c + 1, prev, keys, vertical + 1)
                keys.pop()
                shape[r] = shape[r + 1] = c
            if not c:
                break

    lay(0, content[0], 0, [], [], 0)
    return out


# --------------------------------------------------------------------------
# Three-runner abacus for strict partitions
# --------------------------------------------------------------------------

class AbacusDecomposition(NamedTuple):
    """Result of the three-runner abacus on a strict partition.

    core      -- entry of the hook-core family (see ``delta_h``)
    shifted0  -- strict partition read off the even runner (parts halved)
    quotient1 -- partition read off the two odd runners as one charged line
    charge    -- (#beads on the 4i+1 runner) - (#beads on the 4i+3 runner)
    """

    core: Partition
    shifted0: Partition
    quotient1: Partition
    charge: int


def delta_h(m: int) -> Partition:
    """The abacus core of charge m: (4m-3,...,5,1) for m > 0, the empty
    partition for m = 0, and (4|m|-1,...,7,3) for m < 0."""
    if m == 0:
        return ()
    if m > 0:
        return tuple(range(4 * m - 3, 0, -4))
    return tuple(range(-4 * m - 1, 0, -4))


def hc_charge(core: Partition) -> int | None:
    """Charge of a core partition, or None if it is not one of ``delta_h``."""
    if core == ():
        return 0
    m = len(core)
    if core == delta_h(m):
        return m
    if core == delta_h(-m):
        return -m
    return None


def h_abacus_decompose(lam: Partition) -> AbacusDecomposition:
    """Place a strict partition on three runners and read off its invariants.

    Even parts sit on their own runner and come back halved as ``shifted0``.
    Odd parts occupy a single charged line: position i >= 0 carries the value
    4i+1 and position i < 0 carries 4|i|-1, a position being occupied when its
    value is a part (for 4i+1) or is NOT a part (for 4i+3).  Reading vacancies
    below each bead gives ``quotient1``; the bead surplus gives the charge and
    the core.  The weight identity
    ``|lam| = |core| + 2(|shifted0| + 2|quotient1|)`` always holds.
    """
    lam = as_partition(lam)
    if not is_strict(lam):
        raise ValueError(f"abacus expects a strict partition, got {lam}")
    shifted0 = tuple(a // 2 for a in lam if a % 2 == 0)
    col2 = {a for a in lam if a % 4 == 1}
    col3 = {a for a in lam if a % 4 == 3}
    charge = len(col2) - len(col3)
    top = max(lam, default=0)
    k = top // 4 + 2
    parts: list[int] = []
    vacancies = 0
    for i in range(-k, k + 1):
        occupied = (4 * i + 1 in col2) if i >= 0 else (-4 * i - 1 not in col3)
        if occupied:
            if vacancies:
                parts.append(vacancies)
        else:
            vacancies += 1
    quotient1 = tuple(sorted(parts, reverse=True))
    return AbacusDecomposition(delta_h(charge), shifted0, quotient1, charge)


def h_abacus_compose(core: Partition, shifted0: Partition, quotient1: Partition) -> Partition:
    """Rebuild the strict partition with the given abacus data.

    ``core`` must belong to the ``delta_h`` family, ``shifted0`` must be
    strict, ``quotient1`` any partition.  Inverse of ``h_abacus_decompose``.
    """
    core = as_partition(core)
    shifted0 = as_partition(shifted0)
    quotient1 = as_partition(quotient1)
    c = hc_charge(core)
    if c is None:
        raise ValueError(f"{core} is not an abacus core")
    if not is_strict(shifted0):
        raise ValueError(f"shifted0 must be strict, got {shifted0}")
    j_max = len(quotient1) + abs(c) + 2
    occ = {
        c - j + (quotient1[j - 1] if j <= len(quotient1) else 0)
        for j in range(1, j_max + 1)
    }
    parts = [4 * i + 1 for i in occ if i >= 0]
    parts += [-4 * i - 1 for i in range(min(occ), 0) if i not in occ]
    parts += [2 * a for a in shifted0]
    lam = tuple(sorted(parts, reverse=True))
    if not is_strict(lam):
        raise ValueError(
            f"abacus data ({core}; {shifted0}, {quotient1}) does not assemble "
            f"to a strict partition"
        )
    return lam


# --------------------------------------------------------------------------
# 2-core / 2-quotient with sign
# --------------------------------------------------------------------------

class TwoQuotient(NamedTuple):
    """2-core, 2-quotient pair and sign of a partition.

    ``sign`` is the parity of the two-row shuffle taking the beta-set to the
    runners, normalized against the empty partition at the same padding, so
    it does not depend on the beta-set length.
    """

    core2: Partition
    q0: Partition
    q1: Partition
    sign: int


def two_core_quotient(xi: Partition) -> TwoQuotient:
    """2-core/2-quotient decomposition of an arbitrary partition.

    The beta-set (padded to even length) is split by parity: even beta
    numbers halve to the beta-set of q0, odd ones to q1; pushing all beads
    down on both runners leaves the staircase 2-core.  The sign counts,
    mod 2, the pairs (odd beta number above even beta number), relative to
    the same count for the empty partition.
    """
    xi = as_partition(xi)
    k = len(xi) + (len(xi) % 2)
    beta = [xi[i] + k - 1 - i for i in range(len(xi))]
    beta += list(range(k - len(xi) - 1, -1, -1))
    evens = sorted((b // 2 for b in beta if b % 2 == 0), reverse=True)
    odds = sorted((b // 2 for b in beta if b % 2 == 1), reverse=True)
    q0 = partition_from_beta(evens)
    q1 = partition_from_beta(odds)
    core_beta = [2 * i for i in range(len(evens))] + [2 * i + 1 for i in range(len(odds))]
    core2 = partition_from_beta(core_beta)
    below = inversions = 0  # even beta numbers passed, from the bottom
    for b in reversed(beta):
        if b % 2:
            inversions += below
        else:
            below += 1
    h = k // 2  # the empty partition's k beads 0..k-1 have h(h+1)/2 such pairs
    sign = -1 if (inversions + h * (h + 1) // 2) % 2 else 1
    return TwoQuotient(core2, q0, q1, sign)

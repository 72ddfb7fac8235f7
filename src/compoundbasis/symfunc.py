"""Symmetric functions with exact rational coefficients in the power-sum basis.

Every element is a finite linear combination of power-sum monomials
``p_rho = p_{rho_1} p_{rho_2} ...`` with ``fractions.Fraction`` coefficients;
a key is the index partition rho.  This canonical representation makes the
two specializations that drive the compound basis one-liners:

* ``sub_double``  -- p_r -> 2 p_r, i.e. evaluation at the doubled alphabet (x, x);
* ``sub_square``  -- p_r -> p_{2r}, i.e. evaluation at squared variables x^2.

Bases provided: complete homogeneous ``complete_h``, Schur ``schur`` and
Schur-Q ``schur_Q`` (each read off its table of columns at one mask), the
halved ``schur_P``, and the compound family ``W_basis`` / ``V_basis`` built
from the multiplicity-parity split ``phi``.

The character table is stored once, column by column (``_mn_column``, the
Murnaghan-Nakayama rule on beta-sets held as int bitmasks), lam's key in
every column being ``_beta_mask(lam)``; the Green table of the Q-functions
likewise (``_bar_column``, Morris's bar rule on part masks).  Their oracles
are the recursive ``character``, called only by the ``frobenius`` claim and
the tests, and a Pfaffian of ``q_product`` terms in the tests.  The key
formats stay in this module: ``_chi_rows`` and ``_green_rows`` give rows of
characters and Green values on a set of keys, and ``_exact`` is the one
exact division.  ``_class_table`` reads the compound family off both tables
as the integers z_rho [p_rho]W_mu / 2^{len(rho)}; ``build_A`` (class by
class, as dense products with ``_chi_rows``) and the pairing claims use it,
and the product ``W_from_pair`` is its oracle in the tests.

Littlewood-Richardson numbers come from one route, ``_lr_counts``, which
counts companion tableaux (``partitions._lr_tableaux``) and checks each
column by the dimension count, with no character and no Fraction;
``_lr_column`` spreads a column over a list of partitions.  Kostka numbers
are the same count for one-row factors composed over the parts of mu
(Young's rule), one whole column at a time (``_kostka_column``), checked
the same way.  No Schur coefficient is read off a Fraction SymFunc.

``inner`` gives the Hall pairing ``<p_rho, p_sigma> = z_rho delta`` and its
twisted companion with weight ``2^{-len(rho)} z_rho``, under which W and V
are dual families.

SymFunc objects are immutable; all module-level tables are memoized caches of
pure functions, so concurrent readers and repeated calls always see the same
values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Literal, Mapping

from .partitions import (
    Partition,
    _dimension,
    _lr_tableaux,
    as_partition,
    generate_partitions,
    is_odd,
    is_strict,
    partition_from_beta,
    phi,
    psi_inverse,
    weight,
    z_factor,
)

__all__ = [
    "SymFunc",
    "InnerProductKind",
    "p_monomial",
    "complete_h",
    "h_product",
    "q_gen",
    "q_product",
    "schur",
    "schur_Q",
    "schur_P",
    "sub_double",
    "sub_square",
    "W_basis",
    "V_basis",
    "W_from_pair",
    "V_from_pair",
    "q_prime",
    "inner",
    "character",
    "spin_character",
    "green_function",
    "littlewood_richardson",
    "kostka",
    "format_symfunc",
]

InnerProductKind = Literal["hall", "minus_one"]


def _add_into(out: dict, terms, scale) -> dict:
    """out += scale * terms for a term list (pairs key, coefficient); zero
    coefficients are dropped."""
    for k, c in terms:
        s = out.get(k, 0) + c * scale
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _exact(num: int, den: int, what: str, *labels) -> int:
    """num / den, which must be an integer; the error names the entry as
    ``what.format(*labels)`` otherwise."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what.format(*labels)} came out non-integral: {Fraction(num, den)}")
    return q


class SymFunc:
    """Immutable symmetric function: finite map from key partitions to Fractions.

    Supports +, -, scalar and ring multiplication, and exact equality.  Zero
    coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Partition, Fraction | int] | None = None):
        clean: dict[Partition, Fraction] = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[as_partition(key)] = c
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _raw(cls, terms: dict[Partition, Fraction]) -> "SymFunc":
        """Internal fast constructor: takes ownership of a clean dict."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    # -- inspection ---------------------------------------------------------

    def coeff(self, key) -> Fraction:
        """Coefficient of the power-sum monomial indexed by ``key``."""
        return self._terms.get(as_partition(key), Fraction(0))

    def items(self) -> Iterable[tuple[Partition, Fraction]]:
        return self._terms.items()

    def sorted_items(self) -> list[tuple[Partition, Fraction]]:
        """Terms sorted by (degree, key) ascending; deterministic display order."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def support(self) -> set[Partition]:
        return set(self._terms)

    def degrees(self) -> set[int]:
        return {sum(k) for k in self._terms}

    def component(self, n: int) -> "SymFunc":
        """Homogeneous part of degree n."""
        return SymFunc._raw({k: c for k, c in self._terms.items() if sum(k) == n})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return SymFunc._raw(_add_into(dict(self._terms), other._terms.items(), 1))

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return SymFunc._raw(_add_into(dict(self._terms), other._terms.items(), -1))

    def __neg__(self) -> "SymFunc":
        return SymFunc._raw({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            out: dict = {}
            for k1, c1 in self._terms.items():
                terms = [(tuple(sorted(k1 + k2, reverse=True)), c) for k2, c in other.items()]
                _add_into(out, terms, c1)
            return SymFunc._raw(out)
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            if not c0:
                return SymFunc._raw({})
            return SymFunc._raw({k: c * c0 for k, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"SymFunc({format_symfunc(self)})"

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """JSON form: list of {"key": [...], "num": str, "den": str}."""
        return [
            {"key": list(k), "num": str(c.numerator), "den": str(c.denominator)}
            for k, c in self.sorted_items()
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "SymFunc":
        terms = {
            as_partition(t["key"]): Fraction(int(t["num"]), int(t["den"]))
            for t in obj
        }
        return cls(terms)


_ONE = SymFunc._raw({(): Fraction(1)})


def p_monomial(rho) -> SymFunc:
    """The power-sum monomial p_rho with coefficient 1."""
    return SymFunc._raw({as_partition(rho): Fraction(1)})


@cache
def complete_h(r: int) -> SymFunc:
    """Complete homogeneous function h_r = sum over rho of p_rho / z_rho."""
    if r < 0:
        raise ValueError("h_r needs r >= 0")
    return SymFunc._raw(
        {rho: Fraction(1, z_factor(rho)) for rho in generate_partitions(r)}
    )


@cache
def h_product(mu: Partition) -> SymFunc:
    """Product h_{mu_1} h_{mu_2} ... over the parts of mu."""
    mu = as_partition(mu)
    if not mu:
        return _ONE
    return complete_h(mu[0]) * h_product(mu[1:])


def q_gen(r: int) -> SymFunc:
    """Generator q_r = sum over odd-part rho of 2^{len(rho)} p_rho / z_rho.

    These are the coefficients of exp(2 * sum_{r odd} p_r u^r / r); the
    support is exactly the odd-part keys.
    """
    if r < 0:
        raise ValueError("q_r needs r >= 0")
    return SymFunc._raw(
        {
            rho: Fraction(2 ** len(rho), z_factor(rho))
            for rho in generate_partitions(r, "odd")
        }
    )


def q_product(mu: Partition) -> SymFunc:
    """Product q_{mu_1} q_{mu_2} ... over the parts of mu."""
    mu = as_partition(mu)
    if not mu:
        return _ONE
    return q_gen(mu[0]) * q_product(mu[1:])


# --------------------------------------------------------------------------
# Schur functions and character rows from the character table
# --------------------------------------------------------------------------

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
        beads = m
        while beads:
            bit = beads & -beads
            beads ^= bit
            tgt = bit << r
            if not m & tgt:
                key = m ^ bit ^ tgt
                jumped = (m & (tgt - (bit << 1))).bit_count()
                col[key] = col.get(key, 0) + (-c if jumped & 1 else c)
    return {k: v for k, v in col.items() if v}


@cache
def _beta_mask(lam: Partition) -> int:
    """The beta-set of lam with |lam| beads as an int bitmask: lam's key in
    every character column."""
    n = weight(lam)
    return sum(1 << (part + n - 1 - i) for i, part in enumerate(lam)) + (1 << (n - len(lam))) - 1


@cache
def schur(lam) -> SymFunc:
    """Schur function S_lam = sum_rho chi^lam_rho p_rho / z_rho (Frobenius)."""
    lam = as_partition(lam)
    mask = _beta_mask(lam)
    col = ((rho, _mn_column(rho).get(mask)) for rho in generate_partitions(weight(lam)))
    return SymFunc._raw({rho: Fraction(c, z_factor(rho)) for rho, c in col if c})


def _chi_rows(keys, lams) -> list[list[int]]:
    """The characters chi^lam_rho over rho in ``keys``, one row per lam in
    ``lams``, read off the columns."""
    cols = [_mn_column(rho) for rho in keys]
    return [[col.get(m, 0) for col in cols] for m in map(_beta_mask, lams)]


def _lr_counts(nu: Partition, xi: Partition) -> dict[Partition, int]:
    """The nonzero Littlewood-Richardson numbers {lam: c^lam_{nu,xi}} of
    S_nu S_xi, counted as companion tableaux filling the factor of smaller
    weight (c^lam_{nu,xi} = c^lam_{xi,nu}).  The whole column must pass the
    dimension count sum_lam c^lam_{nu,xi} f^lam = binom(|nu| + |xi|, |nu|)
    f^nu f^xi, with f from the hook-length formula; a column that fails it is
    an internal defect."""
    a, b = weight(nu), weight(xi)
    counts = _lr_tableaux(nu, xi) if b <= a else _lr_tableaux(xi, nu)
    got = sum(c * _dimension(lam) for lam, c in counts.items())
    want = math.comb(a + b, a) * _dimension(nu) * _dimension(xi)
    if got != want:
        raise ArithmeticError(f"LR column ({nu}, {xi}) fails the dimension count: {got} != {want}")
    return counts


def _lr_column(nu: Partition, xi: Partition, lams) -> list[int]:
    """The Littlewood-Richardson numbers c^lam_{nu,xi} = <S_nu S_xi, S_lam>
    for each lam in ``lams``, read off the checked ``_lr_counts``."""
    counts = _lr_counts(nu, xi)
    return [counts.get(lam, 0) for lam in lams]


# --------------------------------------------------------------------------
# Schur Q-functions from the Green table
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
        beads = m | 1
        while beads:
            bit = beads & -beads
            beads ^= bit
            tgt = bit << r
            if not m & tgt:
                key = ((m | 1) ^ bit ^ tgt) & ~1
                jumped = (m & (tgt - (bit << 1))).bit_count()
                col[key] = col.get(key, 0) + (-c if jumped & 1 else c)
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


@cache
def schur_Q(lam) -> SymFunc:
    """Schur Q-function Q_lam = sum_sigma 2^{len(sigma)} X^lam_sigma p_sigma /
    z_sigma for strict lam, read off the Green columns at ``_part_mask(lam)``."""
    lam = as_partition(lam)
    if not is_strict(lam):
        raise ValueError(f"Q_lam needs a strict partition, got {lam}")
    mask = _part_mask(lam)
    col = ((s, _bar_column(s).get(mask)) for s in generate_partitions(weight(lam), "odd"))
    return SymFunc._raw({s: Fraction(c << len(s), z_factor(s)) for s, c in col if c})


def schur_P(lam) -> SymFunc:
    """Schur P-function P_lam = 2^{-len(lam)} Q_lam."""
    lam = as_partition(lam)
    return schur_Q(lam) * Fraction(1, 2 ** len(lam))


# --------------------------------------------------------------------------
# Specializations and the compound family
# --------------------------------------------------------------------------

def sub_double(f: SymFunc) -> SymFunc:
    """Algebra map p_r -> 2 p_r; evaluates f on the doubled alphabet (x, x)."""
    return SymFunc._raw({k: c * (1 << len(k)) for k, c in f.items()})


def sub_square(f: SymFunc) -> SymFunc:
    """Algebra map p_r -> p_{2r}; evaluates f at squared variables."""
    return SymFunc._raw({tuple(2 * a for a in k): c for k, c in f.items()})


def W_from_pair(r, d) -> SymFunc:
    """W for the pair (r, d): Q_r(x) * S_d(x^2)."""
    return schur_Q(r) * sub_square(schur(d))


def V_from_pair(r, d) -> SymFunc:
    """V for the pair (r, d): P_r(x) * S_d(x^2), the dual partner of
    ``W_from_pair(r, d)`` under the twisted pairing."""
    return schur_P(r) * sub_square(schur(d))


def _class_table(n: int) -> dict[tuple[int, int], tuple[list, list, list]]:
    """The compound family of degree n on power sums as one integer table,
    M[rho][mu] = z_rho [p_rho]W_mu / 2^{len(rho)} = X^{mu_r}_sigma
    chi^{mu_d}_tau for rho = sigma + 2 tau (and V_mu = 2^{-len(mu_r)} W_mu).
    M is block diagonal: each class (n0, n1), n0 descending, maps to its keys
    (sigma odd |- n0 outer, tau |- n1 inner), its pairs (r, d) in canonical
    order and one row of M per key, a Green row times a character row."""
    out = {}
    for n1 in range(n // 2 + 1):
        n0 = n - 2 * n1
        rs, ds = generate_partitions(n0, "strict"), generate_partitions(n1)
        sigmas = generate_partitions(n0, "odd")
        keys, rows = [], []
        for sigma, x_row in zip(sigmas, zip(*_green_rows(sigmas, rs))):
            for tau in ds:
                chi_row = [_mn_column(tau).get(_beta_mask(d), 0) for d in ds]
                keys.append(psi_inverse(sigma, tau))
                rows.append([x * c for x in x_row for c in chi_row])
        out[n0, n1] = (keys, [(r, d) for r in rs for d in ds], rows)
    return out


def W_basis(lam) -> SymFunc:
    """Compound basis element W_lam = Q_{lam_r}(x) * S_{lam_d}(x^2),
    where (lam_r, lam_d) is the multiplicity-parity split of lam."""
    r, d = phi(as_partition(lam))
    return W_from_pair(r, d)


def V_basis(lam) -> SymFunc:
    """Dual element V_lam = P_{lam_r}(x) * S_{lam_d}(x^2): satisfies
    <W_lam, V_mu> = delta under the twisted pairing."""
    r, d = phi(as_partition(lam))
    return V_from_pair(r, d)


def q_prime(lam) -> SymFunc:
    """Q'-function: Q_{lam_r} on the doubled alphabet times the complete
    homogeneous product of lam_d at squared variables."""
    r, d = phi(as_partition(lam))
    return sub_double(schur_Q(r)) * sub_square(h_product(d))


# --------------------------------------------------------------------------
# Inner products
# --------------------------------------------------------------------------

def inner(f: SymFunc, g: SymFunc, kind: InnerProductKind = "hall") -> Fraction:
    """Bilinear pairing diagonal on power sums.

    kind="hall":      <p_rho, p_sigma> = z_rho * delta_{rho,sigma}
    kind="minus_one": <p_rho, p_sigma> = 2^{-len(rho)} z_rho * delta_{rho,sigma}
    """
    if kind not in ("hall", "minus_one"):
        raise ValueError(f"unknown inner product kind {kind!r}")
    small, big = (f, g) if len(f) <= len(g) else (g, f)
    terms = big._terms
    total = Fraction(0)
    for key, c in small.items():
        d = terms.get(key)
        if d:
            w = Fraction(z_factor(key))
            if kind == "minus_one":
                w /= 1 << len(key)
            total += c * d * w
    return total


# --------------------------------------------------------------------------
# Characters
# --------------------------------------------------------------------------

@cache
def character(lam, rho) -> int:
    """Irreducible symmetric-group character chi^lam_rho via the
    Murnaghan-Nakayama border-strip recursion on beta-sets, one entry at a
    time.  This is the oracle for the column-built table ``_mn_column``; no
    Schur function or matrix builder calls it."""
    lam = as_partition(lam)
    rho = as_partition(rho)
    if weight(lam) != weight(rho):
        raise ValueError("character needs |lam| = |rho|")
    if not lam:
        return 1
    r, rest = rho[0], rho[1:]
    length = len(lam)
    beta = [lam[i] + length - 1 - i for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = [nb if x == b else x for x in beta]
        mu = partition_from_beta(new_beta)
        total += (-1) ** height * character(mu, rest)
    return total


def green_function(lam, sigma) -> int:
    """Integer X^lam_sigma defined by Q_lam = sum_sigma 2^{len(sigma)}
    z_sigma^{-1} X^lam_sigma p_sigma over odd-part sigma; read off the table."""
    lam = as_partition(lam)
    sigma = as_partition(sigma)
    if not is_strict(lam):
        raise ValueError(f"green_function needs strict lam, got {lam}")
    if not is_odd(sigma):
        raise ValueError(f"green_function needs odd sigma, got {sigma}")
    if weight(lam) != weight(sigma):
        raise ValueError("green_function needs |lam| = |sigma|")
    return _bar_column(sigma).get(_part_mask(lam), 0)


def spin_character(lam, rho) -> int:
    """Spin character value X^lam_rho * 2^{-(len(lam) - len(rho) + eps)/2},
    eps = (len(lam) - len(rho)) mod 2, from the Green function; it must be
    an integer."""
    lam, rho = as_partition(lam), as_partition(rho)
    x = green_function(lam, rho)
    d = len(lam) - len(rho)
    k = (d + d % 2) // 2
    return _exact(x << max(-k, 0), 1 << max(k, 0), "spin character ({}, {})", lam, rho)


# --------------------------------------------------------------------------
# Structure coefficients
# --------------------------------------------------------------------------

def littlewood_richardson(nu, xi, lam) -> int:
    """Coefficient of S_lam in S_nu * S_xi: a count of companion tableaux,
    read off the checked column ``_lr_counts``."""
    nu, xi, lam = as_partition(nu), as_partition(xi), as_partition(lam)
    if weight(nu) + weight(xi) != weight(lam):
        raise ValueError("littlewood_richardson needs |nu| + |xi| = |lam|")
    return _lr_counts(nu, xi).get(lam, 0)


def _kostka_column(mu: Partition) -> dict[Partition, int]:
    """The nonzero Kostka numbers {nu: K_{nu,mu}} over nu |- |mu|, by Young's
    rule (Macdonald I.6): h_mu = h_{mu_1} h_{mu_2} ..., each factor adding a
    horizontal strip counted as the companion tableaux of a one-row shape
    (``partitions._lr_tableaux(lam, (m,))``).  The whole column must pass the
    count sum_nu K_{nu,mu} f^nu = n! / prod mu_i!, the dimension of h_mu,
    with f from the hook-length formula; a column that fails it is an
    internal defect."""
    counts: dict[Partition, int] = {(): 1}
    for m in mu:
        step: dict[Partition, int] = {}
        for lam, c in counts.items():
            _add_into(step, _lr_tableaux(lam, (m,)).items(), c)
        counts = step
    got = sum(c * _dimension(lam) for lam, c in counts.items())
    want = math.factorial(weight(mu)) // math.prod(map(math.factorial, mu))
    if got != want:
        raise ArithmeticError(f"Kostka column {mu} fails the dimension count: {got} != {want}")
    return counts


def kostka(nu, mu) -> int:
    """Kostka number K_{nu,mu} = <h_mu, S_nu> under the Hall pairing, read
    off the checked column ``_kostka_column(mu)``."""
    nu, mu = as_partition(nu), as_partition(mu)
    if weight(nu) != weight(mu):
        raise ValueError("kostka needs |nu| = |mu|")
    return _kostka_column(mu).get(nu, 0)


# --------------------------------------------------------------------------
# Display
# --------------------------------------------------------------------------

def _key_monomial(key: Partition, sym: str) -> str:
    if not key:
        return ""
    factors = []
    seen: dict[int, int] = {}
    for a in key:
        seen[a] = seen.get(a, 0) + 1
    for a in sorted(seen):
        m = seen[a]
        factors.append(f"{sym}{a}" + (f"^{m}" if m > 1 else ""))
    return "*".join(factors)


def format_symfunc(f: SymFunc, vars: str = "x") -> str:
    """Render a SymFunc as text.

    vars="x"        -- power-sum monomials, e.g. "4/3*p1^3 - 4/3*p3".
    vars="t-schur"  -- monomials in t after p_j = j*t_j.
    vars="t-q"      -- monomials in t after p_j = (j/2)*t_j.
    """
    if vars not in ("x", "t-schur", "t-q"):
        raise ValueError(f"unknown display convention {vars!r}")
    if not f:
        return "0"
    pieces: list[str] = []
    for key, c in f.sorted_items():
        if vars == "t-schur":
            for a in key:
                c = c * a
        elif vars == "t-q":
            for a in key:
                c = c * Fraction(a, 2)
        if not c:
            continue
        mono = _key_monomial(key, "p" if vars == "x" else "t")
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"

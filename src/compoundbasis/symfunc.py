"""Symmetric functions with exact rational coefficients in the power-sum basis.

Every element is a finite linear combination of power-sum monomials
``p_rho = p_{rho_1} p_{rho_2} ...`` with ``fractions.Fraction`` coefficients;
a key is the index partition rho.  This canonical representation makes the
two specializations that drive the compound basis one-liners:

* ``sub_double``  -- p_r -> 2 p_r, i.e. evaluation at the doubled alphabet (x, x);
* ``sub_square``  -- p_r -> p_{2r}, i.e. evaluation at squared variables x^2.

Bases provided: complete homogeneous ``complete_h``, Schur ``schur`` and
Schur-Q ``schur_Q`` (each one row of an integer table), the halved
``schur_P``, and the compound family ``W_basis`` / ``V_basis`` built from
the multiplicity-parity split ``phi``.

The integer tables live in ``tables``: this module reads characters and
Green values only as rows (``_chi_rows``, ``_green_rows``).  Of the tables'
oracles the recursive ``character`` stays here, called only by the
``frobenius`` claim and the tests; the products ``W_from_pair`` and
``V_from_pair`` are the class table's oracle in the tests.  Kostka numbers are the companion
tableaux of one-row factors composed over the parts of mu (Young's rule),
one whole column at a time (``_kostka_column``), checked by the dimension
count as LR columns are.  No Schur coefficient is read off a Fraction
SymFunc, and no matrix builder imports this module.

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

from . import _EXPORTS
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
    weight,
    z_factor,
)
from .tables import _chi_rows, _green_rows

__all__ = list(_EXPORTS["symfunc"])

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
# Schur functions and Schur Q-functions from the tables
# --------------------------------------------------------------------------

@cache
def schur(lam) -> SymFunc:
    """Schur function S_lam = sum_rho chi^lam_rho p_rho / z_rho (Frobenius),
    read off the character table as lam's row ``tables._chi_rows``."""
    lam = as_partition(lam)
    rhos = generate_partitions(weight(lam))
    (row,) = _chi_rows(rhos, [lam])
    return SymFunc._raw({rho: Fraction(c, z_factor(rho)) for rho, c in zip(rhos, row) if c})


@cache
def schur_Q(lam) -> SymFunc:
    """Schur Q-function Q_lam = sum_sigma 2^{len(sigma)} X^lam_sigma p_sigma /
    z_sigma for strict lam, read off the Green table as lam's row
    ``tables._green_rows``."""
    lam = as_partition(lam)
    if not is_strict(lam):
        raise ValueError(f"Q_lam needs a strict partition, got {lam}")
    sigmas = generate_partitions(weight(lam), "odd")
    (row,) = _green_rows(sigmas, [lam])
    return SymFunc._raw({s: Fraction(c << len(s), z_factor(s)) for s, c in zip(sigmas, row) if c})


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
    time.  This is the oracle for the column-built table ``tables._mn_column``; no
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
    return _green_rows([sigma], [lam])[0][0]


# --------------------------------------------------------------------------
# Structure coefficients
# --------------------------------------------------------------------------

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

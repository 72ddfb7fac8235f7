"""Symmetric functions with exact rational coefficients in the power-sum basis.

Every element is a finite linear combination of power-sum monomials
``p_rho = p_{rho_1} p_{rho_2} ...`` with rational coefficients; a key is the
index partition rho.  This canonical representation makes the two
specializations that drive the compound basis one-liners:

* ``sub_double``  -- p_r -> 2 p_r, i.e. evaluation at the doubled alphabet (x, x);
* ``sub_square``  -- p_r -> p_{2r}, i.e. evaluation at squared variables x^2.

A ``SymFunc`` holds its coefficients as integer numerators over one positive
denominator, in lowest terms, so every ring operation, specialization and
basis constructor runs on ints.  ``fractions`` is imported only at the public
boundary, where coefficients go in (``SymFunc(...)``, a Fraction scalar) or
come out (``coeff``, ``items``, ``sorted_items``, ``to_json_obj``,
``format_symfunc``, ``inner``); a passing ``verify`` crosses none of it.

Bases provided: complete homogeneous ``complete_h``, Schur ``schur`` and
Schur-Q ``schur_Q`` (each one row of an integer table over n!), the halved
``schur_P``, and the compound family ``W_basis`` / ``V_basis`` built from
the multiplicity-parity split ``phi``.

The integer tables live in ``tables``: this module reads characters and
Green values only as rows (``_chi_rows``, ``_green_rows``).  Of the tables'
oracles the recursive ``character`` stays here, called only by the
``frobenius`` claim and the tests; the products ``W_from_pair`` and
``V_from_pair`` are the class table's oracle in the tests.  Kostka numbers
are read off ``tables._kostka_column``, one whole column at a time, which
folds the Pieri columns of the one LR route over the parts of mu (Young's
rule).  No Schur coefficient is read off a SymFunc, and no matrix builder
imports this module.

``inner`` gives the Hall pairing ``<p_rho, p_sigma> = z_rho delta`` and its
twisted companion with weight ``2^{-len(rho)} z_rho``, under which W and V
are dual families.

SymFunc objects are immutable; all module-level tables are memoized caches of
pure functions, so concurrent readers and repeated calls always see the same
values.
"""

from __future__ import annotations

from functools import cache
from math import factorial, gcd, lcm
from typing import Literal, Mapping

from . import _EXPORTS
from .partitions import (
    Partition,
    as_partition,
    generate_partitions,
    is_odd,
    is_strict,
    multiplicities,
    partition_from_beta,
    phi,
    weight,
    z_factor,
)
from .tables import _chi_rows, _green_rows, _kostka_column

__all__ = list(_EXPORTS["symfunc"])

InnerProductKind = Literal["hall", "minus_one"]


def _add_into(out: dict, terms, scale: int) -> dict:
    """out += scale * terms for a term list (pairs key, integer numerator);
    zero numerators are dropped."""
    for k, c in terms:
        s = out.get(k, 0) + c * scale
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class SymFunc:
    """Immutable symmetric function: finite map from key partitions to
    rational coefficients, held as integer numerators over one denominator.

    ``_num`` maps keys to nonzero integers and ``_den`` is a positive
    integer; the gcd of ``_den`` and every numerator is 1 (the zero function
    has no terms and denominator 1), so equal functions hold equal numerators
    and denominators.  Supports +, -, scalar and ring multiplication, and
    exact equality, all in integers.  Coefficients come out as Fractions.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Partition, Fraction | int] | None = None):
        clean = {}
        if terms:
            from fractions import Fraction

            # keys that normalise to one partition add their coefficients
            for key, c in terms.items():
                key = as_partition(key)
                clean[key] = clean.get(key, 0) + Fraction(c)
            clean = {k: c for k, c in clean.items() if c}
        # each Fraction is in lowest terms, so its numerator scaled up to the
        # lcm of the denominators keeps the whole in lowest terms
        den = lcm(*(c.denominator for c in clean.values()))
        num = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _raw(cls, num: dict[Partition, int], den: int = 1) -> "SymFunc":
        """Internal fast constructor: takes ownership of a zero-free dict of
        numerators already in lowest terms with ``den``."""
        out = object.__new__(cls)
        object.__setattr__(out, "_num", num)
        object.__setattr__(out, "_den", den)
        return out

    @classmethod
    def _over(cls, num: dict[Partition, int], den: int) -> "SymFunc":
        """Internal constructor: a zero-free dict of numerators over a
        positive ``den``, brought to lowest terms."""
        g = gcd(den, *num.values())
        if g != 1:
            num, den = {k: c // g for k, c in num.items()}, den // g
        return cls._raw(num, den)

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    # -- inspection ---------------------------------------------------------

    def coeff(self, key) -> Fraction:
        """Coefficient of the power-sum monomial indexed by ``key``."""
        from fractions import Fraction

        return Fraction(self._num.get(as_partition(key), 0), self._den)

    def items(self) -> list[tuple[Partition, Fraction]]:
        from fractions import Fraction

        return [(k, Fraction(c, self._den)) for k, c in self._num.items()]

    def sorted_items(self) -> list[tuple[Partition, Fraction]]:
        """Terms sorted by (degree, key) ascending; deterministic display order."""
        return sorted(self.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    # -- ring operations ----------------------------------------------------

    def _plus(self, other: "SymFunc", sign: int) -> "SymFunc":
        """self + sign * other over the least common denominator."""
        g = gcd(self._den, other._den)
        a, b = other._den // g, self._den // g
        out = {k: c * a for k, c in self._num.items()}
        return SymFunc._over(_add_into(out, other._num.items(), sign * b), self._den * a)

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "SymFunc":
        return SymFunc._raw({k: -c for k, c in self._num.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            out: dict = {}
            for k1, c1 in self._num.items():
                terms = [(tuple(sorted(k1 + k2, reverse=True)), c) for k2, c in other._num.items()]
                _add_into(out, terms, c1)
            return SymFunc._over(out, self._den * other._den)
        if isinstance(other, int):
            if not other:
                return SymFunc._raw({})
            # den / g and other / g are coprime, so the result is in lowest terms
            g = gcd(self._den, other)
            return SymFunc._raw({k: c * (other // g) for k, c in self._num.items()}, self._den // g)
        from fractions import Fraction

        if isinstance(other, Fraction):
            scaled = self * other.numerator
            return SymFunc._over(scaled._num, scaled._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __repr__(self) -> str:
        return f"SymFunc({format_symfunc(self)})"

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """JSON form: list of {"key": [...], "num": str, "den": str}."""
        return [
            {"key": list(k), "num": str(c.numerator), "den": str(c.denominator)}
            for k, c in self.sorted_items()
        ]


_ONE = SymFunc._raw({(): 1})


def p_monomial(rho) -> SymFunc:
    """The power-sum monomial p_rho with coefficient 1."""
    return SymFunc._raw({as_partition(rho): 1})


@cache
def complete_h(r: int) -> SymFunc:
    """Complete homogeneous function h_r = sum over rho of p_rho / z_rho."""
    if r < 0:
        raise ValueError("h_r needs r >= 0")
    fact = factorial(r)
    return SymFunc._over({rho: fact // z_factor(rho) for rho in generate_partitions(r)}, fact)


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
    fact = factorial(r)
    return SymFunc._over(
        {rho: (fact << len(rho)) // z_factor(rho) for rho in generate_partitions(r, "odd")}, fact
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
    fact = factorial(weight(lam))
    return SymFunc._over({rho: c * (fact // z_factor(rho)) for rho, c in zip(rhos, row) if c}, fact)


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
    fact = factorial(weight(lam))
    return SymFunc._over(
        {s: (c << len(s)) * (fact // z_factor(s)) for s, c in zip(sigmas, row) if c}, fact
    )


def schur_P(lam) -> SymFunc:
    """Schur P-function P_lam = 2^{-len(lam)} Q_lam."""
    lam = as_partition(lam)
    q = schur_Q(lam)
    return SymFunc._over(q._num, q._den << len(lam))


# --------------------------------------------------------------------------
# Specializations and the compound family
# --------------------------------------------------------------------------

def sub_double(f: SymFunc) -> SymFunc:
    """Algebra map p_r -> 2 p_r; evaluates f on the doubled alphabet (x, x)."""
    return SymFunc._over({k: c << len(k) for k, c in f._num.items()}, f._den)


def sub_square(f: SymFunc) -> SymFunc:
    """Algebra map p_r -> p_{2r}; evaluates f at squared variables."""
    return SymFunc._raw({tuple(2 * a for a in k): c for k, c in f._num.items()}, f._den)


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
    from fractions import Fraction

    small, big = (f, g) if len(f) <= len(g) else (g, f)
    terms = big._num
    # the twisted weight 2^{-len(key)} as 2^{top - len(key)} over 2^top
    twist = kind == "minus_one"
    top = max(map(len, small._num), default=0) if twist else 0
    total = sum(
        c * d * z_factor(k) << top - twist * len(k)
        for k, c in small._num.items()
        if (d := terms.get(k))
    )
    return Fraction(total, f._den * g._den << top)


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

def kostka(nu, mu) -> int:
    """Kostka number K_{nu,mu} = <h_mu, S_nu> under the Hall pairing, read
    off the checked column ``tables._kostka_column(mu)``."""
    nu, mu = as_partition(nu), as_partition(mu)
    if weight(nu) != weight(mu):
        raise ValueError("kostka needs |nu| = |mu|")
    return _kostka_column(mu).get(nu, 0)


# --------------------------------------------------------------------------
# Display
# --------------------------------------------------------------------------

def _key_monomial(key: Partition, sym: str) -> str:
    return "*".join(
        f"{sym}{a}" + (f"^{m}" if m > 1 else "") for a, m in sorted(multiplicities(key).items())
    )


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
                c = c * a / 2
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

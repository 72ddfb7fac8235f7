"""Symmetric functions with exact rational coefficients in the power-sum basis.

Every element is a finite linear combination of power-sum monomials
``p_rho = p_{rho_1} p_{rho_2} ...`` with ``fractions.Fraction`` coefficients;
a key is the index partition rho.  This canonical representation makes the
two specializations that drive the compound basis one-liners:

* ``sub_double``  -- p_r -> 2 p_r, i.e. evaluation at the doubled alphabet (x, x);
* ``sub_square``  -- p_r -> p_{2r}, i.e. evaluation at squared variables x^2.

Bases provided: complete homogeneous ``complete_h``, Schur ``schur`` (the
Frobenius formula over one Murnaghan-Nakayama character row), Schur-Q
``schur_Q`` (via the two-row recursion and Pfaffian expansion), the halved
``schur_P``, and the compound family ``W_basis`` / ``V_basis`` built from the
multiplicity-parity split ``phi``.

The same character row is the one Schur kernel: every Schur coefficient,
``<f, S_lam> = sum_rho [p_rho]f * chi^lam_rho``, is one integer sum over it
(``_schur_coeff``), which Kostka, Littlewood-Richardson and Stembridge
coefficients and the transition matrices all read.

Two inner products are available through ``inner``: the Hall pairing
``<p_rho, p_sigma> = z_rho delta`` and its twisted companion with weight
``2^{-len(rho)} z_rho``, under which W and V are dual families.

SymFunc objects are immutable; all module-level tables are memoized caches of
pure functions, so concurrent readers and repeated calls always see the same
values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Literal, Mapping

from .partitions import (
    Partition,
    as_partition,
    generate_partitions,
    is_odd,
    is_strict,
    partition_from_beta,
    phi,
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
    "reduce2",
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
    "stembridge_g",
    "kostka",
    "format_symfunc",
]

InnerProductKind = Literal["hall", "minus_one"]


def _merge_keys(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


def _mul_into(out: dict, f, g, combine, scale) -> dict:
    """out += scale * f * g for term lists f and g (pairs key, coefficient),
    product keys formed by ``combine``; zero coefficients are dropped."""
    for k1, c1 in f:
        c1 = scale * c1
        for k2, c2 in g:
            k = combine(k1, k2)
            s = out.get(k, 0) + c1 * c2
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
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SymFunc._raw(out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SymFunc._raw(out)

    def __neg__(self) -> "SymFunc":
        return SymFunc._raw({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            return SymFunc._raw(
                _mul_into({}, self._terms.items(), other._terms.items(), _merge_keys, 1)
            )
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


_ZERO = SymFunc._raw({})
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


@cache
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


@cache
def q_product(mu: Partition) -> SymFunc:
    """Product q_{mu_1} q_{mu_2} ... over the parts of mu."""
    mu = as_partition(mu)
    if not mu:
        return _ONE
    return q_gen(mu[0]) * q_product(mu[1:])


# --------------------------------------------------------------------------
# Schur functions and Schur coefficients from the character table
# --------------------------------------------------------------------------

@cache
def _character_row(lam: Partition) -> dict[Partition, int]:
    """The integer character row rho -> chi^lam_rho over rho |- |lam|."""
    return {rho: character(lam, rho) for rho in generate_partitions(weight(lam))}


@cache
def schur(lam) -> SymFunc:
    """Schur function S_lam = sum_rho chi^lam_rho p_rho / z_rho (Frobenius)."""
    row = _character_row(as_partition(lam))
    return SymFunc._raw(
        {rho: Fraction(c, z_factor(rho)) for rho, c in row.items() if c}
    )


def _schur_coeff(f: SymFunc, lam: Partition, what: str) -> int:
    """The Hall pairing <f, S_lam> = sum_rho [p_rho]f * chi^lam_rho, which
    must be an integer; ``what`` names it in the error otherwise."""
    row = _character_row(lam)
    return _as_int(sum(c * row.get(k, 0) for k, c in f.items()), what)


# --------------------------------------------------------------------------
# Schur Q-functions: two-row recursion + Pfaffian expansion in the q-generators
# --------------------------------------------------------------------------

@cache
def _q_two_row(a: int, b: int) -> tuple[tuple[Partition, int], ...]:
    """Q_{(a,b)} (a > b >= 0) as q-monomials:
    q_a q_b + 2 sum_{i=1..b} (-1)^i q_{a+i} q_{b-i}."""
    if b == 0:
        return (((a,), 1),)
    out: dict[Partition, int] = {tuple(sorted((a, b), reverse=True)): 1}
    for i in range(1, b + 1):
        hi, lo = a + i, b - i
        key = (hi,) if lo == 0 else tuple(sorted((hi, lo), reverse=True))
        c = 2 * (-1) ** i
        out[key] = out.get(key, 0) + c
    return tuple((k, c) for k, c in out.items() if c)


@cache
def _pfaffian_q(parts: Partition) -> tuple[tuple[Partition, int], ...]:
    """Pfaffian of the two-row matrix over an even-length strictly decreasing
    tuple (last entry may be 0), expanded along the first row; q-monomials."""
    if not parts:
        return (((), 1),)
    out: dict[Partition, int] = {}
    first = parts[0]
    rest = parts[1:]
    for j, b in enumerate(rest):
        sign = 1 if j % 2 == 0 else -1
        sub = rest[:j] + rest[j + 1 :]
        _mul_into(out, _pfaffian_q(sub), _q_two_row(first, b), _merge_keys, sign)
    return tuple(out.items())


@cache
def schur_Q(lam) -> SymFunc:
    """Schur Q-function Q_lam for strict lam, via the Pfaffian of two-row
    functions; supported on odd-part keys only."""
    lam = as_partition(lam)
    if not is_strict(lam):
        raise ValueError(f"Q_lam needs a strict partition, got {lam}")
    padded = lam if len(lam) % 2 == 0 else lam + (0,)
    total = _ZERO
    for key, c in _pfaffian_q(padded):
        total = total + c * q_product(key)
    return total


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


def reduce2(f: SymFunc) -> SymFunc:
    """Projection onto odd-part keys: every monomial touching an even p_r dies."""
    return SymFunc._raw({k: c for k, c in f.items() if is_odd(k)})


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
    Murnaghan-Nakayama border-strip recursion on beta-sets."""
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


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"{what} came out non-integral: {x}")
    return x.numerator


def green_function(lam, sigma) -> int:
    """Integer X^lam_sigma defined by Q_lam = sum_sigma 2^{len(sigma)}
    z_sigma^{-1} X^lam_sigma p_sigma over odd-part sigma."""
    lam = as_partition(lam)
    sigma = as_partition(sigma)
    if not is_strict(lam):
        raise ValueError(f"green_function needs strict lam, got {lam}")
    if not is_odd(sigma):
        raise ValueError(f"green_function needs odd sigma, got {sigma}")
    if weight(lam) != weight(sigma):
        raise ValueError("green_function needs |lam| = |sigma|")
    val = schur_Q(lam).coeff(sigma) * z_factor(sigma) / Fraction(1 << len(sigma))
    return _as_int(val, f"green function ({lam}, {sigma})")


def spin_character(lam, rho) -> int:
    """Spin character value X^lam_rho * 2^{-(len(lam) - len(rho) + eps)/2},
    eps = (len(lam) - len(rho)) mod 2, from the Green function; it must be
    an integer."""
    lam, rho = as_partition(lam), as_partition(rho)
    x = green_function(lam, rho)
    d = len(lam) - len(rho)
    return _as_int(x * Fraction(2) ** -((d + d % 2) // 2), f"spin character ({lam}, {rho})")


# --------------------------------------------------------------------------
# Structure coefficients
# --------------------------------------------------------------------------

def littlewood_richardson(nu, xi, lam) -> int:
    """Coefficient of S_lam in S_nu * S_xi, by the Hall pairing."""
    nu, xi, lam = as_partition(nu), as_partition(xi), as_partition(lam)
    if weight(nu) + weight(xi) != weight(lam):
        raise ValueError("littlewood_richardson needs |nu| + |xi| = |lam|")
    c = _schur_coeff(schur(nu) * schur(xi), lam, f"LR coefficient ({nu}, {xi}; {lam})")
    if c < 0:
        raise ArithmeticError(f"LR coefficient negative: {c}")
    return c


def stembridge_g(mu, nu) -> int:
    """Stembridge coefficient g_{mu,nu} = <P_mu, S_nu> under the Hall pairing."""
    mu, nu = as_partition(mu), as_partition(nu)
    if not is_strict(mu):
        raise ValueError(f"stembridge_g needs strict mu, got {mu}")
    if weight(mu) != weight(nu):
        raise ValueError("stembridge_g needs |mu| = |nu|")
    return _schur_coeff(schur_P(mu), nu, f"Stembridge g ({mu}, {nu})")


def kostka(nu, mu) -> int:
    """Kostka number K_{nu,mu} = <h_mu, S_nu> under the Hall pairing."""
    nu, mu = as_partition(nu), as_partition(mu)
    if weight(nu) != weight(mu):
        raise ValueError("kostka needs |nu| = |mu|")
    return _schur_coeff(h_product(mu), nu, f"Kostka ({nu}, {mu})")


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

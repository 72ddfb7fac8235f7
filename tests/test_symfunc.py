"""Symmetric functions over the power-sum basis with exact coefficients."""

import functools
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from compoundbasis.partitions import (
    _dimension,
    _yamanouchi_tableaux,
    generate_partitions,
    phi,
    weight,
    z_factor,
)
from compoundbasis.symfunc import (
    SymFunc,
    V_basis,
    W_basis,
    W_from_pair,
    character,
    complete_h,
    format_symfunc,
    green_function,
    h_product,
    inner,
    kostka,
    p_monomial,
    q_gen,
    q_prime,
    q_product,
    schur,
    schur_P,
    schur_Q,
    sub_double,
    sub_square,
)
from compoundbasis.tables import (
    _bar_column,
    _beta_mask,
    _chi_rows,
    _class_table,
    _domino_counts,
    _lr_counts,
    _mn_column,
    _part_mask,
)
from compoundbasis.transition import build_A, build_Gamma, canonical_pairs
from compoundbasis.verify import _core_free_quotients, _square_expansion


# --------------------------------------------------------------------------
# Ring laws
# --------------------------------------------------------------------------

def test_ring_laws():
    f = schur((2, 1))
    g = p_monomial((3,))
    h = complete_h(2)
    zero = SymFunc()
    assert f + zero == f
    assert f - f == zero
    assert not zero
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f * 2 == f + f
    assert f * Fraction(1, 3) * 3 == f
    assert -(-f) == f


def test_symfunc_immutable_and_zero_free():
    f = p_monomial((2, 1))
    with pytest.raises(AttributeError):
        f._terms = {}
    g = f - f
    assert dict(g.items()) == {}
    assert f.coeff((2, 1)) == 1
    assert f.coeff((3,)) == 0


# --------------------------------------------------------------------------
# The integer representation against a plain dict of Fractions
# --------------------------------------------------------------------------

# every key of weight <= 6, the empty one included
SMALL_KEYS = [key for n in range(7) for key in generate_partitions(n)]


def _random_terms(rng):
    """Up to six random keys, each with an int or a Fraction coefficient
    (zero among them)."""
    return {
        key: rng.choice([rng.randint(-6, 6), Fraction(rng.randint(-20, 20), rng.randint(1, 24))])
        for key in rng.sample(SMALL_KEYS, rng.randint(0, 6))
    }


def _ref(terms):
    """The reference: a dict of nonzero Fractions."""
    return {key: Fraction(c) for key, c in terms.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for (k1, c1), (k2, c2) in product(a.items(), b.items()):
        key = tuple(sorted(k1 + k2, reverse=True))
        out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _ref_scale(a, c):
    return {key: c * v for key, v in a.items() if c * v}


def _ref_format(a, vars):
    """format_symfunc's text, written out from the reference's Fractions."""
    pieces = []
    for key in sorted(a, key=lambda k: (sum(k), k)):
        c = a[key]
        for part in key:
            c *= {"x": 1, "t-schur": part, "t-q": Fraction(part, 2)}[vars]
        sym = "p" if vars == "x" else "t"
        mono = "*".join(
            f"{sym}{part}" + (f"^{m}" if (m := key.count(part)) > 1 else "")
            for part in sorted(set(key))
        )
        body = mono if mono and abs(c) == 1 else f"{abs(c)}*{mono}" if mono else str(abs(c))
        sign = ("" if c > 0 else "-") if not pieces else ("+ " if c > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


def _ref_inner(a, b, kind):
    return sum(
        (c * b[key] * z_factor(key) / (1 << len(key) if kind == "minus_one" else 1)
         for key, c in a.items() if key in b),
        Fraction(0),
    )


def _assert_canonical(f):
    # no zero numerator, a positive denominator, and no common factor
    assert all(f._num.values())
    assert f._den > 0
    assert math.gcd(f._den, *f._num.values()) == 1


def _assert_matches(f, ref):
    _assert_canonical(f)
    assert dict(f.items()) == ref
    assert all(isinstance(c, Fraction) for _, c in f.items())
    assert f == SymFunc(ref)
    assert (f._num, f._den) == (SymFunc(ref)._num, SymFunc(ref)._den)
    assert bool(f) == bool(ref) and len(f) == len(ref)
    assert f.sorted_items() == sorted(ref.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    for key in SMALL_KEYS[:12]:
        assert f.coeff(key) == ref.get(key, 0)
        assert isinstance(f.coeff(key), Fraction)
    assert f.to_json_obj() == [
        {"key": list(key), "num": str(c.numerator), "den": str(c.denominator)}
        for key, c in sorted(ref.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    ]
    for vars in ("x", "t-schur", "t-q"):
        assert format_symfunc(f, vars=vars) == _ref_format(ref, vars)


@pytest.mark.parametrize("seed", range(40))
def test_the_integer_representation_matches_a_fraction_reference(seed):
    rng = random.Random(seed)
    terms_f, terms_g = _random_terms(rng), _random_terms(rng)
    f, g = SymFunc(terms_f), SymFunc(terms_g)
    a, b = _ref(terms_f), _ref(terms_g)
    n = rng.randint(-6, 6)
    q = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    _assert_matches(f, a)
    _assert_matches(f + g, _ref_add(a, b))
    _assert_matches(f - g, _ref_add(a, b, -1))
    _assert_matches(-f, _ref_scale(a, -1))
    _assert_matches(f * g, _ref_mul(a, b))
    _assert_matches(f * n, _ref_scale(a, n))
    _assert_matches(n * f, _ref_scale(a, n))
    _assert_matches(f * q, _ref_scale(a, q))
    _assert_matches(q * f, _ref_scale(a, q))
    assert (f == g) == (a == b)
    for kind in ("hall", "minus_one"):
        got = inner(f, g, kind)
        assert isinstance(got, Fraction)
        assert got == _ref_inner(a, b, kind)


@pytest.mark.parametrize("seed", range(10))
def test_equal_functions_hold_equal_numerators_and_denominators(seed):
    # the normal form is canonical: different routes to one function agree
    # on the representation itself, not only under ==
    rng = random.Random(seed)
    f, g = SymFunc(_random_terms(rng)), SymFunc(_random_terms(rng))
    q = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    routes = [f, (f + g) - g, f * q * (1 / q), f * 6 + f * -5, -(-f), (f - f) + f]
    for h in routes:
        _assert_canonical(h)
        assert (h._num, h._den) == (f._num, f._den)
    zero = f - f
    assert (zero._num, zero._den) == ({}, 1)
    for lam in generate_partitions(5):
        h = schur(lam)
        _assert_canonical(h)
        assert (h._num, h._den) == (SymFunc(dict(h.items()))._num, SymFunc(dict(h.items()))._den)


@pytest.mark.parametrize(
    "terms, want",
    [
        ({(2, 1): 1, (2, 1, 0): 2}, {(2, 1): 3}),
        ({(2, 1): 1, (2, 1, 0): -1}, {}),
        # 1/2 + 1/3 + 1/6 over the lcm 6 reduces to 1 over 1
        ({(2, 1): Fraction(1, 2), (2, 1, 0): Fraction(1, 3), (2, 1, 0, 0): Fraction(1, 6)},
         {(2, 1): 1}),
    ],
)
def test_keys_that_normalise_to_one_partition_add_their_coefficients(terms, want):
    f = SymFunc(terms)
    _assert_canonical(f)
    assert dict(f.items()) == want
    assert (f._num, f._den) == ({k: int(c) for k, c in want.items()}, 1)


# --------------------------------------------------------------------------
# Generators: Newton-style recursions as an independent oracle
# --------------------------------------------------------------------------

@pytest.mark.parametrize("r", range(1, 9))
def test_complete_h_newton_recursion(r):
    # r*h_r = sum_{i=1..r} p_i h_{r-i}
    lhs = complete_h(r) * r
    rhs = SymFunc()
    for i in range(1, r + 1):
        rhs = rhs + p_monomial((i,)) * complete_h(r - i)
    assert lhs == rhs


@pytest.mark.parametrize("r", range(1, 9))
def test_q_generator_recursion(r):
    # r*q_r = 2 * sum_{odd i <= r} p_i q_{r-i}
    lhs = q_gen(r) * r
    rhs = SymFunc()
    for i in range(1, r + 1, 2):
        rhs = rhs + p_monomial((i,)) * q_gen(r - i) * 2
    assert lhs == rhs


def test_generator_base_cases():
    one = SymFunc({(): 1})
    assert complete_h(0) == one
    assert complete_h(1) == p_monomial((1,))
    assert q_gen(0) == one
    assert q_gen(1) == p_monomial((1,)) * 2
    assert h_product(()) == one
    assert q_product(()) == one
    assert h_product((2, 1)) == complete_h(2) * complete_h(1)


def test_q_generators_supported_on_odd_keys():
    for r in range(0, 9):
        for key, _ in q_gen(r).items():
            assert all(a % 2 == 1 for a in key)


# --------------------------------------------------------------------------
# Schur functions: the character expansion versus Jacobi-Trudi
# --------------------------------------------------------------------------

def jacobi_trudi(lam):
    """det(h_{lam_i - i + j}) by Laplace expansion along the first column,
    with SymFunc entries; a route to S_lam that shares nothing with the
    character table."""
    minors = {}

    def minor(rows, col):
        # rows x columns col..len(lam)-1; a column set is always a suffix
        if not rows:
            return SymFunc({(): 1})
        if rows not in minors:
            total = SymFunc()
            for pos, i in enumerate(sorted(rows)):
                d = lam[i] - i + col
                if d >= 0:
                    term = complete_h(d) * minor(rows - {i}, col + 1)
                    total = total - term if pos % 2 else total + term
            minors[rows] = total
        return minors[rows]

    return minor(frozenset(range(len(lam))), 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_schur_equals_character_expansion(n):
    for lam in generate_partitions(n):
        assert schur(lam) == jacobi_trudi(lam)


def test_character_frozen_values():
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (2, 1)) == 0
    assert character((2, 1), (3,)) == -1
    # trivial and sign characters
    for n in range(1, 8):
        for rho in generate_partitions(n):
            assert character((n,), rho) == 1
            assert character((1,) * n, rho) == (-1) ** (n - len(rho))


@pytest.mark.parametrize("n", range(0, 13))
def test_character_table_equals_the_recursive_oracle(n):
    parts = generate_partitions(n)
    for lam in parts:
        mask = _beta_mask(lam)
        assert all(_mn_column(rho).get(mask, 0) == character(lam, rho) for rho in parts)


def test_production_routes_do_not_call_the_character_oracle(cold_memo_tables):
    build_A(8)
    schur((3, 2, 1))
    kostka((2, 1), (1, 1, 1))
    assert character.cache_info().misses == 0


def test_lr_routes_read_no_character_and_no_schur_function(cold_memo_tables):
    # LR numbers are tableau counts: no character column, no Schur function
    _lr_counts((2, 1), (2,))
    _core_free_quotients(4)
    _square_expansion((2, 1))
    assert _mn_column.cache_info().misses == 0
    assert schur.cache_info().misses == 0


@pytest.mark.parametrize("n", range(0, 13))
def test_hook_length_dimension_is_the_character_at_the_identity(n):
    ones = _mn_column((1,) * n)
    for lam in generate_partitions(n):
        assert _dimension(lam) == ones[_beta_mask(lam)]


@pytest.mark.parametrize("n", range(1, 8))
def test_character_first_orthogonality(n):
    parts = generate_partitions(n)
    for lam in parts:
        for mu in parts:
            total = sum(
                Fraction(character(lam, rho) * character(mu, rho), z_factor(rho))
                for rho in parts
            )
            assert total == (1 if lam == mu else 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_schur_orthonormal_hall(n):
    parts = generate_partitions(n)
    mats = {lam: schur(lam) for lam in parts}
    for lam in parts:
        for mu in parts:
            assert inner(mats[lam], mats[mu]) == (1 if lam == mu else 0)


def test_schur_base_cases():
    assert schur(()) == SymFunc({(): 1})
    assert schur((1,)) == p_monomial((1,))
    for r in range(0, 8):
        assert schur((r,) if r else ()) == complete_h(r)


# --------------------------------------------------------------------------
# Q- and P-functions: the Green table versus the Pfaffian
# --------------------------------------------------------------------------

q_monomial = functools.cache(q_product)


@functools.cache
def pfaffian_Q(lam):
    """Q_lam from the q-generators, sharing nothing with the Green table.

    Q_(a,b) = q_a q_b + 2 sum_{i=1..b} (-1)^i q_{a+i} q_{b-i} for a > b >= 0.
    A longer lam, padded with a 0 to even length, is the Pfaffian of these
    (Macdonald III.8), expanded along its first row: Q_lam = sum_j (-1)^j
    Q_(lam_1, b_j) Q_(lam without lam_1 and b_j)."""
    if len(lam) <= 2:
        a, b = lam + (0,) * (2 - len(lam))
        return sum(
            (
                q_monomial(tuple(p for p in (a + i, b - i) if p)) * (2 * (-1) ** i if i else 1)
                for i in range(b + 1)
            ),
            SymFunc(),
        )
    padded = lam + (0,) * (len(lam) % 2)
    first, rest = padded[0], padded[1:]
    return sum(
        (
            pfaffian_Q(tuple(p for p in (first, b) if p))
            * pfaffian_Q(tuple(p for p in rest if p and p != b))
            * (-1) ** j
            for j, b in enumerate(rest)
        ),
        SymFunc(),
    )


@pytest.mark.parametrize("n", range(0, 15))
def test_schur_q_equals_the_pfaffian_oracle(n):
    for lam in generate_partitions(n, "strict"):
        assert schur_Q(lam) == pfaffian_Q(lam)


@pytest.mark.parametrize("n", range(1, 13))
def test_green_table_equals_the_pfaffian_oracle(n):
    for lam in generate_partitions(n, "strict"):
        q = pfaffian_Q(lam)
        for sigma in generate_partitions(n, "odd"):
            want = q.coeff(sigma) * z_factor(sigma) / (1 << len(sigma))
            assert green_function(lam, sigma) == want


@pytest.mark.parametrize("n", range(0, 25))
def test_shifted_tableau_count_is_the_green_value_at_the_identity(n):
    # g^lam = n!/prod lam_i! * prod_{i<j} (lam_i - lam_j)/(lam_i + lam_j)
    # counts standard shifted tableaux; every strict lam |- n has one
    want = {}
    for lam in generate_partitions(n, "strict"):
        num = math.factorial(n)
        den = math.prod(math.factorial(a) for a in lam)
        for i, a in enumerate(lam):
            for b in lam[i + 1:]:
                num, den = num * (a - b), den * (a + b)
        assert num % den == 0
        want[_part_mask(lam)] = num // den
    assert _bar_column((1,) * n) == want


def test_schur_q_base_cases():
    assert schur_Q(()) == SymFunc({(): 1})
    for r in range(1, 8):
        assert schur_Q((r,)) == q_gen(r)
    with pytest.raises(ValueError):
        schur_Q((2, 2))


def test_schur_q_odd_support():
    for n in range(1, 11):
        for lam in generate_partitions(n, "strict"):
            for key, _ in schur_Q(lam).items():
                assert all(a % 2 == 1 for a in key)


def test_schur_q_two_row_frozen():
    # hand expansion: Q_(2,1) = q_2 q_1 - 2 q_3 with q_1 = 2p1, q_2 = 2p1^2,
    # q_3 = (4/3)p1^3 + (2/3)p3, giving (4/3)p1^3 - (4/3)p3
    assert schur_Q((2, 1)) == SymFunc(
        {(1, 1, 1): Fraction(4, 3), (3,): Fraction(-4, 3)}
    )


@pytest.mark.parametrize("n", range(1, 11))
def test_q_p_duality(n):
    stricts = generate_partitions(n, "strict")
    qs = {lam: schur_Q(lam) for lam in stricts}
    ps = {lam: schur_P(lam) for lam in stricts}
    for lam in stricts:
        for mu in stricts:
            got = inner(qs[lam], ps[mu], "minus_one")
            assert got == (1 if lam == mu else 0)
    for lam in stricts:
        assert qs[lam] == ps[lam] * (2 ** len(lam))


def test_schur_q_through_n_16_is_pinned():
    # five-part lam first appear at n = 15; the digest was taken from the
    # q-monomial Pfaffian expansion, an independent route to the same values
    doc = [
        [list(lam), schur_Q(lam).to_json_obj()]
        for n in range(17)
        for lam in generate_partitions(n, "strict")
    ]
    assert len(doc) == 169
    digest = hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()
    assert digest == "15aa9308edb07773f77e6cfc90c51b065721759e0d48c60bd516f35efb8fb6da"


def test_schur_q_memo_holds_only_strict_partitions(cold_memo_tables):
    # Q_lam reads the Green table and calls no schur_Q: one entry per strict lam
    stricts = [lam for n in range(15) for lam in generate_partitions(n, "strict")]
    for lam in stricts:
        schur_Q(lam)
    assert len(stricts) == schur_Q.cache_info().currsize == 110


def test_green_values():
    assert green_function((2,), (1, 1)) == 1
    assert green_function((3,), (3,)) == 1
    assert green_function((3,), (1, 1, 1)) == 1
    assert green_function((2, 1), (3,)) == -2
    assert green_function((2, 1), (1, 1, 1)) == 1


def test_green_functions_are_integral_tables(max_n=8):
    for n in range(1, max_n + 1):
        for lam in generate_partitions(n, "strict"):
            for sigma in generate_partitions(n, "odd"):
                assert isinstance(green_function(lam, sigma), int)


# --------------------------------------------------------------------------
# Specializations
# --------------------------------------------------------------------------

def test_specializations_on_monomials():
    rho = (3, 2, 1)
    assert sub_double(p_monomial(rho)) == p_monomial(rho) * 8
    assert sub_square(p_monomial(rho)) == p_monomial((6, 4, 2))


def test_specializations_are_ring_maps():
    f = schur((2, 1))
    g = schur_Q((3,))
    for submap in (sub_double, sub_square):
        assert submap(f * g) == submap(f) * submap(g)
        assert submap(f + g) == submap(f) + submap(g)


def test_doubled_alphabet_dimension_anchor():
    # S_lam(x,x) evaluated via exponential specialization: the coefficient of
    # p_1^n equals dim(lam) * 2^n / n!-scaling; spot-check against S_(2)(x,x)
    f = sub_double(schur((2,)))
    assert f.coeff((1, 1)) == 2  # (1/2)*2^2
    assert f.coeff((2,)) == 1  # (1/2)*2


# --------------------------------------------------------------------------
# Compound family
# --------------------------------------------------------------------------

def test_w_v_examples():
    assert W_basis((2, 1)) == schur_Q((2, 1))
    assert W_basis((1, 1)) == schur_Q(()) * sub_square(schur((1,)))
    assert W_basis((1, 1)) == sub_square(p_monomial((1,)))
    assert V_basis((2, 1)) == schur_P((2, 1))
    r, d = phi((3, 1, 1))
    assert W_basis((3, 1, 1)) == W_from_pair(r, d)


@pytest.mark.parametrize("n", range(1, 6))
def test_w_v_pairing_small(n):
    parts = generate_partitions(n)
    for lam in parts:
        for mu in parts:
            got = inner(W_basis(lam), V_basis(mu), "minus_one")
            assert got == (1 if lam == mu else 0)


@pytest.mark.parametrize("n", range(1, 11))
def test_class_table_equals_the_product_oracle(n):
    # oracle: z_rho [p_rho] W_mu / 2^{len(rho)} of the Fraction product
    # Q_{mu_r}(x) S_{mu_d}(x^2), for every pair; an entry outside mu's class
    # must be absent from the product, as it is from the table
    table = _class_table(n)
    assert [p for _, prs, _ in table.values() for p in prs] == list(canonical_pairs(n))
    all_keys = sorted(k for keys, _, _ in table.values() for k in keys)
    assert all_keys == sorted(generate_partitions(n))
    for (n0, n1), (keys, prs, rows) in table.items():
        for j, (r, d) in enumerate(prs):
            assert (weight(r), weight(d)) == (n0, n1)
            want = {
                rho: c * z_factor(rho) / 2 ** len(rho) for rho, c in W_from_pair(r, d).items()
            }
            got = {rho: row[j] for rho, row in zip(keys, rows) if row[j]}
            assert got == want


def test_q_prime_examples():
    assert q_prime((2, 1)) == sub_double(schur_Q((2, 1)))
    lam = (1, 1)
    assert q_prime(lam) == sub_square(complete_h(1))


# --------------------------------------------------------------------------
# Structure constants
# --------------------------------------------------------------------------

def brute_kostka(nu, mu):
    """Count column-strict fillings of shape nu with content mu, by direct
    enumeration over row fillings."""
    nu = tuple(nu)
    mu = tuple(mu)
    if weight(nu) != weight(mu):
        return 0

    def rows(shape_idx, remaining, prev_row):
        if shape_idx == len(nu):
            return 1 if all(c == 0 for c in remaining) else 0
        width = nu[shape_idx]
        total = 0

        def fill(col, value, row_acc, rem):
            nonlocal total
            if col == width:
                total += rows(shape_idx + 1, rem, row_acc)
                return
            for v in range(value, len(rem) + 1):
                if rem[v - 1] == 0:
                    continue
                if prev_row is not None and (col >= len(prev_row) or prev_row[col] >= v):
                    continue
                rem2 = list(rem)
                rem2[v - 1] -= 1
                fill(col + 1, v, row_acc + (v,), tuple(rem2))

        fill(0, 1, (), remaining)
        return total

    return rows(0, mu, None)


def test_kostka_against_bruteforce():
    for n in range(1, 6):
        for nu in generate_partitions(n):
            for mu in generate_partitions(n):
                assert kostka(nu, mu) == brute_kostka(nu, mu)


def test_kostka_triangularity():
    from compoundbasis.partitions import dominance_leq

    for n in range(1, 7):
        for nu in generate_partitions(n):
            assert kostka(nu, nu) == 1
            for mu in generate_partitions(n):
                if kostka(nu, mu) and nu != mu:
                    assert dominance_leq(mu, nu)


def test_littlewood_richardson_pieri():
    # multiplying by a one-row Schur adds a horizontal strip
    assert _lr_counts((1,), (1,)) == {(2,): 1, (1, 1): 1}
    # and no (2, 1, 1, 1): its two new cells would share a column
    assert _lr_counts((2, 1), (2,)) == {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1}


def test_lr_tableaux_count_a_multiplicity_above_one():
    assert _yamanouchi_tableaux((2, 1), (2, 1), 1)[(3, 2, 1)] == 2
    assert _lr_counts((2, 1), (2, 1))[(3, 2, 1)] == 2


@pytest.mark.parametrize("w", range(11))
def test_lr_tableaux_are_symmetric_in_their_factors(w):
    # _lr_counts fills the factor of smaller weight only; the swapped call
    # makes the search fill the larger one too
    for k in range(w + 1):
        for nu in generate_partitions(k):
            for xi in generate_partitions(w - k):
                assert _yamanouchi_tableaux(nu, xi, 1) == _yamanouchi_tableaux(xi, nu, 1)


@pytest.mark.parametrize("n", range(1, 10))
def test_lr_columns_equal_the_schur_product_oracle(n):
    # oracle: the nonzero Hall pairings <S_nu S_xi, S_lam> of the Fraction
    # product, for every (nu, xi) of total weight n
    lams = generate_partitions(n)
    schurs = [schur(lam) for lam in lams]
    for k in range(n + 1):
        for nu in generate_partitions(k):
            for xi in generate_partitions(n - k):
                prod = schur(nu) * schur(xi)
                pairings = {lam: inner(prod, s) for lam, s in zip(lams, schurs)}
                assert _lr_counts(nu, xi) == {lam: c for lam, c in pairings.items() if c}


@pytest.mark.parametrize("n", range(13))
def test_lr_columns_equal_the_character_formula(n):
    # oracle past the Fraction product's reach: c^lam_{nu,xi} = sum over
    # alpha |- |nu|, beta |- |xi| of chi^nu_alpha chi^xi_beta
    # chi^lam_{alpha u beta} / (z_alpha z_beta), each term scaled by
    # |nu|! |xi|! to an integer and the sum divided exactly
    lams = generate_partitions(n)
    for a in range(n // 2 + 1):
        alphas, betas = generate_partitions(a), generate_partitions(n - a)
        fa, fb = math.factorial(a), math.factorial(n - a)
        scales = [fa // z_factor(al) * (fb // z_factor(be)) for al in alphas for be in betas]
        unions = [tuple(sorted(al + be, reverse=True)) for al in alphas for be in betas]
        lam_rows = dict(zip(lams, _chi_rows(unions, lams)))
        for nu, nu_row in zip(alphas, _chi_rows(alphas, alphas)):
            for xi, xi_row in zip(betas, _chi_rows(betas, betas)):
                terms = [s * x * y for s, (x, y) in zip(scales, product(nu_row, xi_row))]
                want = {}
                for lam, row in lam_rows.items():
                    c, r = divmod(sum(map(mul, terms, row)), fa * fb)
                    assert r == 0
                    if c:
                        want[lam] = c
                assert _lr_counts(nu, xi) == want


def test_littlewood_richardson_symmetry_and_nonnegativity():
    for n1 in range(0, 4):
        for n2 in range(0, 4):
            for nu in generate_partitions(n1):
                for xi in generate_partitions(n2):
                    prod = schur(nu) * schur(xi)
                    for lam in generate_partitions(n1 + n2):
                        c = _lr_counts(nu, xi).get(lam, 0)
                        assert c >= 0
                        assert c == _lr_counts(xi, nu).get(lam, 0)
                        assert inner(prod, schur(lam)) == c


@pytest.mark.parametrize("n", range(2, 13))
def test_domino_columns_equal_the_littlewood_lr_oracle(n):
    # oracle: S_d(x^2) by Littlewood's signed 2-quotient rule, each term
    # times S_nu by LR columns; up to n = 12, where reading the rows in
    # place of the columns gives wrong coefficients
    for n1 in range(1, n // 2 + 1):
        for nu in generate_partitions(n - 2 * n1):
            for d in generate_partitions(n1):
                acc = {}
                for xi, c in _square_expansion(d):
                    for lam, k in _lr_counts(nu, xi).items():
                        acc[lam] = acc.get(lam, 0) + c * k
                assert _domino_counts(nu, d) == {lam: c for lam, c in acc.items() if c}


def test_stembridge_small_table():
    # degree 3: the strict labels are (3) and (21)
    table = {
        ((3,), (3,)): 1,
        ((3,), (2, 1)): 1,
        ((3,), (1, 1, 1)): 1,
        ((2, 1), (3,)): 0,
        ((2, 1), (2, 1)): 1,
        ((2, 1), (1, 1, 1)): 0,
    }
    for (mu, nu), val in table.items():
        assert build_Gamma(3).entry(nu, mu) == val
    for n in range(1, 7):
        assert all(g >= 0 for row in build_Gamma(n).entries for g in row)


# --------------------------------------------------------------------------
# Serialization and display
# --------------------------------------------------------------------------

def test_json_roundtrip():
    # terms sorted by (degree, key), so (2) before (1, 1, 1); each
    # coefficient as decimal numerator and denominator strings
    f = schur((2, 1)) - schur_Q((3,)) * Fraction(1, 7) + p_monomial((2,))
    obj = f.to_json_obj()
    assert obj == [
        {"key": [2], "num": "1", "den": "1"},
        {"key": [1, 1, 1], "num": "1", "den": "7"},
        {"key": [3], "num": "-3", "den": "7"},
    ]
    assert json.loads(json.dumps(obj)) == obj


def test_format_symfunc_x():
    assert format_symfunc(SymFunc()) == "0"
    assert format_symfunc(schur((1, 1, 1))) == "1/6*p1^3 - 1/2*p1*p2 + 1/3*p3"
    assert format_symfunc(W_basis((2, 1))) == "4/3*p1^3 - 4/3*p3"
    assert format_symfunc(SymFunc({(): Fraction(1)})) == "1"


def test_format_symfunc_t_conventions():
    # t-display for the spin side: p_j = (j/2) t_j
    assert format_symfunc(schur_Q((2, 1)), vars="t-q") == "1/6*t1^3 - 2*t3"
    # t-display for the linear side: p_j = j t_j
    assert format_symfunc(schur((1, 1, 1)), vars="t-schur") == "1/6*t1^3 - t1*t2 + t3"
    with pytest.raises(ValueError):
        format_symfunc(schur((1,)), vars="y")

"""Symmetric functions over the power-sum basis with exact coefficients."""

from fractions import Fraction

import pytest

from compoundbasis.partitions import generate_partitions, phi, weight, z_factor
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
    littlewood_richardson,
    p_monomial,
    q_gen,
    q_prime,
    q_product,
    reduce2,
    schur,
    schur_P,
    schur_Q,
    spin_character,
    stembridge_g,
    sub_double,
    sub_square,
)


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
    assert (f * 2) / 2 == f
    assert f * Fraction(1, 3) * 3 == f
    assert -(-f) == f


def test_symfunc_immutable_and_zero_free():
    f = p_monomial((2, 1))
    with pytest.raises(AttributeError):
        f._terms = {}
    g = f - f
    assert g.support() == set()
    assert f.coeff((2, 1)) == 1
    assert f.coeff((3,)) == 0


def test_component_and_degrees():
    f = p_monomial((2, 1)) + p_monomial((1,))
    assert f.degrees() == {1, 3}
    assert f.component(3) == p_monomial((2, 1))
    assert f.component(2) == SymFunc()


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
        for key in q_gen(r).support():
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
# Q- and P-functions
# --------------------------------------------------------------------------

def test_schur_q_base_cases():
    assert schur_Q(()) == SymFunc({(): 1})
    for r in range(1, 8):
        assert schur_Q((r,)) == q_gen(r)
    with pytest.raises(ValueError):
        schur_Q((2, 2))


def test_schur_q_odd_support():
    for n in range(1, 11):
        for lam in generate_partitions(n, "strict"):
            for key in schur_Q(lam).support():
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


def test_spin_and_green_values():
    assert green_function((2,), (1, 1)) == 1
    assert green_function((3,), (3,)) == 1
    assert green_function((3,), (1, 1, 1)) == 1
    assert green_function((2, 1), (3,)) == -2
    assert green_function((2, 1), (1, 1, 1)) == 1
    assert spin_character((2,), (1, 1)) == 1
    assert spin_character((2, 1), (1, 1, 1)) == 1
    assert spin_character((2, 1), (3,)) == -1


def test_green_functions_are_integral_tables(max_n=8):
    for n in range(1, max_n + 1):
        for lam in generate_partitions(n, "strict"):
            for sigma in generate_partitions(n, "odd"):
                assert isinstance(green_function(lam, sigma), int)
                assert isinstance(spin_character(lam, sigma), int)


# --------------------------------------------------------------------------
# Specializations
# --------------------------------------------------------------------------

def test_specializations_on_monomials():
    rho = (3, 2, 1)
    assert sub_double(p_monomial(rho)) == p_monomial(rho) * 8
    assert sub_square(p_monomial(rho)) == p_monomial((6, 4, 2))
    assert reduce2(p_monomial((3, 1))) == p_monomial((3, 1))
    assert reduce2(p_monomial((2, 1))) == SymFunc()


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
    assert littlewood_richardson((1,), (1,), (2,)) == 1
    assert littlewood_richardson((1,), (1,), (1, 1)) == 1
    assert littlewood_richardson((2, 1), (2,), (3, 2)) == 1
    assert littlewood_richardson((2, 1), (2,), (2, 2, 1)) == 1
    assert littlewood_richardson((2, 1), (2,), (3, 1, 1)) == 1
    assert littlewood_richardson((2, 1), (2,), (2, 1, 1, 1)) == 0  # vertical overlap
    with pytest.raises(ValueError):
        littlewood_richardson((2, 2), (1,), (2, 2, 2))  # weight mismatch


def test_littlewood_richardson_symmetry_and_nonnegativity():
    for n1 in range(0, 4):
        for n2 in range(0, 4):
            for nu in generate_partitions(n1):
                for xi in generate_partitions(n2):
                    prod = schur(nu) * schur(xi)
                    for lam in generate_partitions(n1 + n2):
                        c = littlewood_richardson(nu, xi, lam)
                        assert c >= 0
                        assert c == littlewood_richardson(xi, nu, lam)
                        assert inner(prod, schur(lam)) == c


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
        assert stembridge_g(mu, nu) == val
    for n in range(1, 7):
        for mu in generate_partitions(n, "strict"):
            for nu in generate_partitions(n):
                assert stembridge_g(mu, nu) >= 0


# --------------------------------------------------------------------------
# Serialization and display
# --------------------------------------------------------------------------

def test_json_roundtrip():
    f = schur((2, 1)) - schur_Q((3,)) / 7
    obj = f.to_json_obj()
    assert SymFunc.from_json_obj(obj) == f
    import json

    assert SymFunc.from_json_obj(json.loads(json.dumps(obj))) == f


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

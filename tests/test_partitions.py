"""Partition containers, bijections, and the two abaci."""

import itertools

import pytest

from compoundbasis.partitions import (
    AbacusDecomposition,
    _conjugate,
    as_partition,
    delta_h,
    dominance_leq,
    generate_partitions,
    glaisher,
    glaisher_inverse,
    h_abacus_compose,
    h_abacus_decompose,
    hc_charge,
    is_odd,
    is_strict,
    multiplicities,
    parse_partition,
    partition_from_beta,
    partition_str,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    two_core_quotient,
    weight,
    z_factor,
)


# --------------------------------------------------------------------------
# Independent oracle: partition generation by brute-force recursion
# --------------------------------------------------------------------------

def brute_partitions(n, max_part=None):
    """All partitions of n with parts <= max_part, naive recursion."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in brute_partitions(n - first, first):
            out.append((first,) + rest)
    return out


@pytest.mark.parametrize("n", range(0, 21))
def test_generation_matches_bruteforce(n):
    exhaustive = brute_partitions(n)
    assert list(generate_partitions(n)) == exhaustive
    assert list(generate_partitions(n, "strict")) == [
        p for p in exhaustive if len(set(p)) == len(p)
    ]
    assert list(generate_partitions(n, "odd")) == [
        p for p in exhaustive if all(a % 2 for a in p)
    ]


def test_generation_is_descending_revlex():
    for n in range(1, 21):
        for kind in ("all", "strict", "odd"):
            parts = generate_partitions(n, kind)
            assert list(parts) == sorted(parts, reverse=True)


def test_strict_partitions_of_8_frozen():
    assert generate_partitions(8, "strict") == (
        (8,),
        (7, 1),
        (6, 2),
        (5, 3),
        (5, 2, 1),
        (4, 3, 1),
    )


def test_counts_small():
    # p(n) for n = 0..12 and the strict = odd count coincidence
    assert [len(generate_partitions(n)) for n in range(13)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77,
    ]
    for n in range(1, 16):
        assert len(generate_partitions(n, "strict")) == len(generate_partitions(n, "odd"))


# --------------------------------------------------------------------------
# Containers, parsing, display
# --------------------------------------------------------------------------

def test_as_partition_normalizes():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition([2, 3])
    with pytest.raises(ValueError):
        as_partition([3, -1])


def test_parse_partition_exponent_syntax():
    assert parse_partition("5^3,4^4,2^7,1") == (5, 5, 5, 4, 4, 4, 4, 2, 2, 2, 2, 2, 2, 2, 1)
    assert parse_partition("3,2,1") == (3, 2, 1)
    for text in ("", "-", "[]", "()"):
        assert parse_partition(text) == ()
    with pytest.raises(ValueError):
        parse_partition("2,3")
    with pytest.raises(ValueError):
        parse_partition("3^0x2")


def test_parse_partition_exponent_must_be_nonnegative():
    assert parse_partition("3^0,1") == (1,)
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        parse_partition("3^-2,1")


def test_partition_str_roundtrip_forms():
    assert partition_str(()) in ("∅", "\\emptyset")
    assert partition_str((2, 1, 1)) == "21^2"
    assert partition_str((11, 10, 5, 3, 2)) == "11,10,5,3,2"
    assert partition_str((3,), latex=True) == "3"


def test_weight_multiplicities_z():
    lam = (4, 4, 2, 1, 1, 1)
    assert weight(lam) == 13
    assert multiplicities(lam) == {4: 2, 2: 1, 1: 3}
    # z = prod i^{m_i} m_i!
    assert z_factor(lam) == (4 ** 2 * 2) * (2 ** 1 * 1) * (1 ** 3 * 6)
    assert z_factor(()) == 1


def test_predicates():
    assert is_strict((5, 3, 1)) and not is_strict((3, 3))
    assert is_odd((5, 1, 1)) and not is_odd((2, 1))
    assert is_strict(()) and is_odd(())


# --------------------------------------------------------------------------
# The three splitting bijections
# --------------------------------------------------------------------------

def test_phi_worked_example():
    lam = parse_partition("5^3,4^4,2^7,1")
    assert phi(lam) == ((5, 2, 1), (5, 4, 4, 2, 2, 2))


def test_phi_properties_exhaustive():
    for n in range(0, 15):
        for lam in generate_partitions(n):
            r, d = phi(lam)
            assert is_strict(r)
            assert weight(r) + 2 * weight(d) == n
            assert phi_inverse(r, d) == lam
            mult = multiplicities(lam)
            for a, m in mult.items():
                assert (a in r) == (m % 2 == 1)
                assert multiplicities(d).get(a, 0) == m // 2


def test_psi_properties_exhaustive():
    for n in range(0, 15):
        for lam in generate_partitions(n):
            odd, halves = psi(lam)
            assert is_odd(odd)
            assert weight(odd) + 2 * weight(halves) == n
            assert psi_inverse(odd, halves) == lam


def test_glaisher_worked_example():
    # doubling each part 2^p * q into 2^p copies of q
    assert glaisher((8, 6, 4, 3, 1)) == (3, 3, 3) + (1,) * 13
    assert glaisher((1,)) == (1,)
    assert glaisher(()) == ()


def test_glaisher_bijection_exhaustive():
    for n in range(0, 15):
        stricts = generate_partitions(n, "strict")
        odds = generate_partitions(n, "odd")
        images = [glaisher(lam) for lam in stricts]
        assert sorted(images) == sorted(odds)
        for lam in stricts:
            assert glaisher_inverse(glaisher(lam)) == lam
    with pytest.raises(ValueError):
        glaisher((2, 2))
    with pytest.raises(ValueError):
        glaisher_inverse((2, 1))


def test_conjugate_transposes_the_diagram():
    for n in range(11):
        for lam in brute_partitions(n):
            cells = {(i, j) for i, part in enumerate(lam) for j in range(part)}
            conj = _conjugate(lam)
            assert {(j, i) for i, part in enumerate(conj) for j in range(part)} == cells
            assert _conjugate(conj) == lam


# --------------------------------------------------------------------------
# Dominance order
# --------------------------------------------------------------------------

def test_dominance_examples():
    assert dominance_leq((1, 1, 1, 1), (4,))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1, 1, 1))


@pytest.mark.parametrize("n", range(1, 11))
def test_dominance_is_partial_order(n):
    parts = generate_partitions(n)
    for lam in parts:
        assert dominance_leq(lam, lam)
    for lam, mu in itertools.combinations(parts, 2):
        if dominance_leq(lam, mu) and dominance_leq(mu, lam):
            assert lam == mu
    for lam in parts:
        for mu in parts:
            if not dominance_leq(lam, mu):
                continue
            for nu in parts:
                if dominance_leq(mu, nu):
                    assert dominance_leq(lam, nu)


def test_dominance_extremes():
    for n in range(1, 11):
        bottom = (1,) * n
        top = (n,)
        for lam in generate_partitions(n):
            assert dominance_leq(bottom, lam)
            assert dominance_leq(lam, top)


# --------------------------------------------------------------------------
# Beta-sets
# --------------------------------------------------------------------------

def test_partition_from_beta():
    assert partition_from_beta([4, 2, 1]) == (2, 1, 1)
    assert partition_from_beta([2, 1, 0]) == ()
    with pytest.raises(ValueError):
        partition_from_beta([2, 2])
    for n in range(0, 10):
        for lam in generate_partitions(n):
            k = len(lam) + 2
            beta = [lam[i] + k - 1 - i if i < len(lam) else k - 1 - i for i in range(k)]
            assert partition_from_beta(beta) == lam


# --------------------------------------------------------------------------
# Three-runner abacus on strict partitions
# --------------------------------------------------------------------------

def test_habacus_worked_example():
    dec = h_abacus_decompose((11, 10, 5, 3, 2))
    assert dec == AbacusDecomposition(core=(3,), shifted0=(5, 1), quotient1=(3, 1), charge=-1)


def test_habacus_cores_and_charges():
    assert delta_h(0) == ()
    assert delta_h(1) == (1,)
    assert delta_h(2) == (5, 1)
    assert delta_h(-1) == (3,)
    assert delta_h(-2) == (7, 3)
    for m in range(-6, 7):
        core = delta_h(m)
        assert is_strict(core)
        assert hc_charge(core) == m
        dec = h_abacus_decompose(core)
        assert dec.core == core and dec.shifted0 == () and dec.quotient1 == ()
        assert dec.charge == m
    assert hc_charge((2,)) is None


@pytest.mark.parametrize("n", range(0, 21))
def test_habacus_roundtrip_and_weight_identity(n):
    seen = {}
    for lam in generate_partitions(n, "strict"):
        dec = h_abacus_decompose(lam)
        # weight identity
        assert n == weight(dec.core) + 2 * (weight(dec.shifted0) + 2 * weight(dec.quotient1))
        # the shifted reading is strict, the core is a charged staircase
        assert is_strict(dec.shifted0)
        assert hc_charge(dec.core) == dec.charge
        # decompose is injective and compose inverts it
        key = (dec.core, dec.shifted0, dec.quotient1)
        assert key not in seen, f"collision between {lam} and {seen[key]}"
        seen[key] = lam
        assert h_abacus_compose(dec.core, dec.shifted0, dec.quotient1) == lam


def test_habacus_compose_total_on_empty():
    assert h_abacus_compose((), (), ()) == ()
    dec = h_abacus_decompose(())
    assert dec == AbacusDecomposition((), (), (), 0)


# --------------------------------------------------------------------------
# Two-runner abacus on all partitions
# --------------------------------------------------------------------------

def test_two_quotient_small_signs():
    assert two_core_quotient(()).sign == 1
    tq2 = two_core_quotient((2,))
    assert (tq2.core2, tq2.sign) == ((), 1)
    tq11 = two_core_quotient((1, 1))
    assert (tq11.core2, tq11.sign) == ((), -1)
    assert {tq2.q0, tq2.q1} | {tq11.q0, tq11.q1} == {(), (1,)}


@pytest.mark.parametrize("n", range(0, 11))
def test_two_quotient_weight_identity(n):
    for xi in generate_partitions(n):
        tq = two_core_quotient(xi)
        assert n == weight(tq.core2) + 2 * (weight(tq.q0) + weight(tq.q1))
        assert tq.sign in (1, -1)
        # the 2-core is a staircase
        c = tq.core2
        assert c == tuple(range(len(c), 0, -1))


@pytest.mark.parametrize("m", range(17))
def test_two_quotient_sign_equals_the_pair_count_definition(m):
    # the sign by its O(k^2) definition: the pairs (odd beta number above
    # even beta number), plus those of the empty partition's k beads 0..k-1
    def pairs(beta):
        return sum(1 for x in beta for y in beta if x > y and x % 2 == 1 and y % 2 == 0)

    for xi in generate_partitions(m):
        k = len(xi) + len(xi) % 2
        beta = [part + k - 1 - i for i, part in enumerate(xi)] + list(range(k - len(xi)))
        want = -1 if (pairs(beta) + pairs(range(k))) % 2 else 1
        assert two_core_quotient(xi).sign == want


def test_two_quotient_core_free_count():
    # partitions of 2m with empty 2-core are pairs of partitions of total m
    for m in range(0, 7):
        free = [xi for xi in generate_partitions(2 * m) if two_core_quotient(xi).core2 == ()]
        expect = sum(
            len(generate_partitions(a)) * len(generate_partitions(m - a))
            for a in range(m + 1)
        )
        assert len(free) == expect


# --------------------------------------------------------------------------
# Stored reference examples
# --------------------------------------------------------------------------

def test_fixture_bijection_examples():
    from compoundbasis.golden import golden_data

    bij = golden_data()["bijections"]
    lam = as_partition(bij["phi"]["input"])
    assert phi(lam) == (as_partition(bij["phi"]["r"]), as_partition(bij["phi"]["d"]))
    lam = as_partition(bij["psi"]["input"])
    assert psi(lam) == (as_partition(bij["psi"]["odd"]), as_partition(bij["psi"]["halves"]))
    for case in bij["glaisher"]:
        assert glaisher(as_partition(case["input"])) == as_partition(case["image"])
    hab = bij["habacus"]
    dec = h_abacus_decompose(as_partition(hab["input"]))
    assert dec == AbacusDecomposition(
        as_partition(hab["core"]),
        as_partition(hab["shifted0"]),
        as_partition(hab["quotient1"]),
        hab["charge"],
    )

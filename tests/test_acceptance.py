"""Acceptance criteria: one test and one printed pass/fail line per criterion.

Every check is exact (integer or rational equality, zero tolerance); the
stated wall-clock budgets are asserted where the criterion carries one.
"""

import time

from compoundbasis.golden import golden_matrix, paper_order
from compoundbasis.partitions import (
    AbacusDecomposition,
    generate_partitions,
    h_abacus_compose,
    h_abacus_decompose,
    hc_charge,
    is_strict,
    weight,
)
from compoundbasis.transition import (
    build_A,
    cartan_like,
    k_value,
    matrix_det,
)
from compoundbasis.verify import check
from test_transition import plain_A  # the character-pairing oracle of A

LINES = []


def _record(num, name, ok, note):
    line = f"ACCEPTANCE {num:02d} {name}: {'pass' if ok else 'FAIL'} ({note})"
    LINES.append(line)
    print(line)
    assert ok, line


def _elapsed(start):
    return time.perf_counter() - start


def test_criterion_01_golden_transition_matrices():
    start = time.perf_counter()
    ok = all(paper_order(build_A(n), n) == golden_matrix(f"A{n}") for n in (3, 4))
    took = _elapsed(start)
    _record(1, "golden-transition-matrices", ok and took < 1.0, f"exact, {took:.3f}s < 1s")


def test_criterion_02_golden_gram_matrices():
    start = time.perf_counter()
    ok = all(paper_order(cartan_like(n), n) == golden_matrix(f"AtA{n}") for n in (3, 4))
    took = _elapsed(start)
    _record(2, "golden-gram-matrices", ok and took < 1.0, f"exact, {took:.3f}s < 1s")


def test_criterion_03_k_table(k_table):
    start = time.perf_counter()
    ok = k_table == {1: 0, 2: 1, 3: 1, 4: 4, 5: 5, 6: 11, 7: 15, 8: 28} and all(
        k_value(n) == k for n, k in k_table.items()
    )
    took = _elapsed(start)
    _record(3, "k-table", ok and took < 5.0, f"n=1..8 both formulas, {took:.3f}s < 5s")


def test_criterion_04_determinant_law():
    start = time.perf_counter()
    ok = all(abs(matrix_det(build_A(n))) == 2 ** k_value(n) for n in range(1, 11))
    took = _elapsed(start)
    _record(4, "determinant-law", ok and took < 120.0, f"n <= 10, {took:.1f}s < 120s")


def test_criterion_05_integrality_and_route_equality():
    ok = True
    for n in range(1, 11):
        mat = build_A(n)
        ok = ok and all(isinstance(v, int) for row in mat.entries for v in row)
        ok = ok and mat.entries == plain_A(n)
    _record(5, "integrality-and-routes", ok, "entries integral and routes agree, n <= 10")


def test_criterion_06_pairing_and_kernels():
    ok = all(check("cor-4.2", n).passed for n in range(1, 9)) and all(
        check("prop-4.1", n).passed for n in range(1, 9)
    )
    _record(6, "duality-and-kernels", ok, "identity pairing and kernel expansions, n <= 8")


def test_criterion_07_elementary_divisors():
    ok = all(check("thm-4.5-via-formula", n).passed for n in range(1, 11))
    _record(7, "elementary-divisors", ok, "SNF multiset formula, n <= 10")


def test_criterion_08_blocks():
    ok = all(check("thm-4.8", n).passed for n in range(1, 9))
    _record(8, "block-structure", ok, "off-block zeros and block determinants, n <= 8")


def test_criterion_09_length_statistics():
    ok = all(check("prop-3.1", n).passed for n in range(1, 15))
    _record(9, "length-statistics", ok, "all chains, global and per class, n <= 14")


def test_criterion_10_abacus_combinatorics():
    ok = True
    for n in range(0, 21):
        for lam in generate_partitions(n, "strict"):
            dec = h_abacus_decompose(lam)
            ok = ok and weight(lam) == weight(dec.core) + 2 * (
                weight(dec.shifted0) + 2 * weight(dec.quotient1)
            )
            ok = ok and h_abacus_compose(dec.core, dec.shifted0, dec.quotient1) == lam
            ok = ok and is_strict(dec.shifted0) and hc_charge(dec.core) == dec.charge
    ok = ok and all(check("eta-correspondence", n).passed for n in range(1, 11))
    ok = ok and h_abacus_decompose((11, 10, 5, 3, 2)) == AbacusDecomposition(
        core=(3,), shifted0=(5, 1), quotient1=(3, 1), charge=-1
    )
    _record(10, "abacus-combinatorics", ok, "round-trip n <= 20; correspondence n <= 10; worked example")


def test_criterion_11_property_suites():
    ok = all(check("stembridge-structure", n).passed for n in range(1, 11))
    ok = ok and all(check("two-sign-oracle", n).passed for n in range(1, 6))
    ok = ok and all(check("frobenius", n).passed for n in range(1, 9))
    ok = ok and all(check("prop-4.9", n).passed for n in range(1, 9))
    ok = ok and all(check("qprime-kostka", n).passed for n in range(1, 9))
    _record(
        11,
        "property-suites",
        ok,
        "expansion structure n <= 10; squared-alphabet signs <= 5; monomial formula, Gram factorization, Kostka n <= 8",
    )

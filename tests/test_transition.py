"""Exact linear algebra and the transition matrices."""

import ast
import functools
import importlib
import itertools
import json
import math
import pickle
import pkgutil
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import compoundbasis
import compoundbasis.tables as tables_mod
import compoundbasis.transition as transition_mod
from compoundbasis import cli
from compoundbasis.golden import golden_matrix, paper_order
from compoundbasis.partitions import (
    _conjugate, generate_partitions, glaisher, is_odd, phi, psi, weight, z_factor,
)
from compoundbasis.labeled import (
    LabeledIntMatrix,
    label_str,
    matrix_from_json_dict,
    matrix_to_json_dict,
    matrix_to_latex,
    pair_class,
    reorder,
)
from compoundbasis.symfunc import character, green_function
from compoundbasis.transition import (
    SingularMatrixError,
    bareiss_solve,
    blocks,
    build_A,
    build_Gamma,
    canonical_pairs,
    cartan_like,
    gram_G,
    k_value,
    matrix_det,
    smith_normal_form,
)
from compoundbasis.verify import check_all


# --------------------------------------------------------------------------
# Test-local oracles: naive Gaussian elimination and cofactor determinants
# --------------------------------------------------------------------------

def gauss_solve(mat, rhs):
    """Plain fraction Gaussian elimination with partial pivoting."""
    size = len(mat)
    aug = [
        [Fraction(v) for v in mat[i]] + [Fraction(v) for v in rhs[i]]
        for i in range(size)
    ]
    ncols = len(rhs[0])
    for col in range(size):
        piv = next((i for i in range(col, size) if aug[i][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        for i in range(size):
            if i != col and aug[i][col]:
                f = aug[i][col] / aug[col][col]
                for j in range(col, size + ncols):
                    aug[i][j] -= f * aug[col][j]
    return [
        [aug[i][size + c] / aug[i][i] for i in range(size)] for c in range(ncols)
    ]


def full_gram(mat):
    """(transpose mat) mat in full, entry by entry."""
    cols = list(zip(*mat.entries))
    ent = tuple(tuple(sum(x * y for x, y in zip(a, b)) for b in cols) for a in cols)
    return LabeledIntMatrix(mat.col_labels, mat.col_labels, ent)


def plain_A(n):
    """A_n as plain triple sums over each class of the class table, the
    oracle of the packed products: a_{lam,p} = sum_rho chi^lam_rho
    n! 2^{len(rho)} / z_rho M[rho][p] over n! 2^{len(p_r)}, as Fractions."""
    fact, lams, cols = math.factorial(n), generate_partitions(n), []
    for keys, prs, rows in tables_mod._class_table(n).values():
        chi = tables_mod._chi_rows(keys, lams)
        weights = [fact // z_factor(rho) << len(rho) for rho in keys]
        for j, (r, _) in enumerate(prs):
            col = []
            for chi_row in chi:
                total = 0
                for k in range(len(keys)):
                    total += chi_row[k] * weights[k] * rows[k][j]
                col.append(Fraction(total, fact << len(r)))
            cols.append(col)
    return tuple(zip(*cols))


def plain_blocks(n):
    """The blocks of (transpose A_n) A_n as plain triple sums over each class
    of the class table: sum_rho n! 4^{len(rho)} / z_rho M[rho][p] M[rho][q]
    over n! 2^{len(p_r) + len(q_r)}, as Fractions."""
    fact, out = math.factorial(n), {}
    for cls, (keys, prs, rows) in tables_mod._class_table(n).items():
        weights = [fact // z_factor(rho) << 2 * len(rho) for rho in keys]
        ent = []
        for i, (p, _) in enumerate(prs):
            ent_row = []
            for j, (q, _) in enumerate(prs):
                total = 0
                for k in range(len(keys)):
                    total += weights[k] * rows[k][i] * rows[k][j]
                ent_row.append(Fraction(total, fact << len(p) + len(q)))
            ent.append(tuple(ent_row))
        out[cls] = tuple(ent)
    return out


def cofactor_det(mat):
    size = len(mat)
    if size == 0:
        return 1
    if size == 1:
        return mat[0][0]
    total = 0
    for j in range(size):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * cofactor_det(minor)
    return total


def test_bareiss_solve_matches_gauss_on_random_systems():
    rng = random.Random(20260816)
    for trial in range(40):
        size = rng.randint(1, 6)
        while True:
            mat = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            if cofactor_det(mat) != 0:
                break
        rhs = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(size)]
        assert bareiss_solve(mat, rhs) == gauss_solve(mat, rhs)


def test_bareiss_det_matches_cofactor_expansion():
    rng = random.Random(7)
    for trial in range(60):
        size = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
        assert matrix_det(mat) == cofactor_det(mat)


def test_singular_detection():
    with pytest.raises(SingularMatrixError):
        bareiss_solve([[1, 2], [2, 4]], [[1], [0]])
    assert matrix_det([[1, 2], [2, 4]]) == 0


@pytest.mark.parametrize(
    "mat, rhs",
    [
        ([[2, 1], [1, 3]], [[1, 0], [0, 1]]),  # the inverse: denominators 5
        ([[1, 2], [3, 4]], [[1, 5], [7, 0]]),  # last pivot -2
        ([[5, 1, 0], [1, 2, 1], [0, 1, 7]], [[1], [2], [3]]),  # pivots on row 1 first
        ([[0, 3], [2, 0]], [[1], [1]]),  # a zero on the diagonal
    ],
)
def test_integer_back_substitution_matches_gauss(mat, rhs):
    got = bareiss_solve(mat, rhs)
    assert got == gauss_solve(mat, rhs)
    assert all(type(v) is Fraction for col in got for v in col)
    assert any(v.denominator != 1 for col in got for v in col)


def test_bareiss_solve_of_the_empty_system():
    assert bareiss_solve([], []) == []


@pytest.mark.parametrize("n", range(1, 11))
def test_bareiss_solve_matches_gauss_on_the_stembridge_systems(n):
    # the stembridge-structure systems: 2^{len(k)} X^mu_k against
    # 2^{len(k)} chi^lam_k over odd k, from the two recursive oracles
    keys, stricts = generate_partitions(n, "odd"), generate_partitions(n, "strict")
    mat = [[green_function(mu, k) << len(k) for mu in stricts] for k in keys]
    rhs = [[character(lam, k) << len(k) for lam in generate_partitions(n)] for k in keys]
    assert bareiss_solve(mat, rhs) == gauss_solve(mat, rhs)


def test_a_back_substitution_remainder_is_an_internal_defect(monkeypatch):
    # y = D x is integral for a correct elimination; doubling a pivot after
    # it breaks that, and the exact division must say so
    eliminate = transition_mod._forward_eliminate

    def doubled_first_pivot(aug, size):
        sign = eliminate(aug, size)
        aug[0][0] *= 2
        return sign

    monkeypatch.setattr(transition_mod, "_forward_eliminate", doubled_first_pivot)
    text = "back-substituted entry (0, 0) came out non-integral: 1/2"
    with pytest.raises(ArithmeticError, match=re.escape(text)):
        bareiss_solve([[1, 0], [0, 1]], [[1], [1]])


# --------------------------------------------------------------------------
# Smith normal form
# --------------------------------------------------------------------------

def test_snf_frozen_examples():
    assert smith_normal_form([[3, 1], [1, 1]]) == (1, 2)
    assert smith_normal_form([[4, 2], [2, 3]]) == (1, 8)
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert smith_normal_form([[2, 0], [0, 0]]) == (2, 0)
    assert smith_normal_form([[6, 0], [0, 10]]) == (2, 30)


def test_snf_properties_random():
    rng = random.Random(99)
    for trial in range(40):
        size = rng.randint(1, 5)
        mat = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        divisors = smith_normal_form(mat)
        # divisibility chain, nonnegative, and determinant preserved up to sign
        for a, b in zip(divisors, divisors[1:]):
            assert a >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0
        prod = 1
        for d in divisors:
            prod *= d
        assert prod == abs(cofactor_det(mat))


def test_snf_divisor_products_are_the_gcds_of_minors():
    # d_1 ... d_k is the gcd of all k x k minors, for every k: this fixes each
    # divisor, where the chain and the product alone let (1, 4) pass for 2 I
    rng = random.Random(2023)
    mats = [[[2, 0], [0, 2]]]
    for trial in range(80):
        size = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
        if trial % 4 == 0 and size > 1:  # singular: the last row a multiple of the first
            mat[-1] = [-2 * v for v in mat[0]]
        mats.append(mat)
    for mat in mats:
        divisors, size, prod = smith_normal_form(mat), len(mat), 1
        for k, d in enumerate(divisors, 1):
            prod *= d
            minors = [
                cofactor_det([[mat[i][j] for j in cols] for i in rows])
                for rows in itertools.combinations(range(size), k)
                for cols in itertools.combinations(range(size), k)
            ]
            assert prod == math.gcd(*minors), (mat, divisors, k)


def test_snf_rejects_non_square():
    with pytest.raises(ValueError) as exc:
        smith_normal_form([[1, 2, 3], [4, 5, 6]])
    assert str(exc.value) == "smith_normal_form needs a square matrix"


def test_det_rejects_non_square():
    # labeled or plain rows, one intake for both routines
    tall = LabeledIntMatrix(((2,), (1, 1)), ((2,),), ((1,), (0,)))
    for mat in (tall, [[1, 2, 3], [4, 5, 6]]):
        with pytest.raises(ValueError) as exc:
            matrix_det(mat)
        assert str(exc.value) == "determinant needs a square matrix"


# --------------------------------------------------------------------------
# The transition matrix
# --------------------------------------------------------------------------

def test_build_a_degree_one():
    mat = build_A(1)
    assert mat.row_labels == ((1,),)
    assert mat.col_labels == (((1,), ()),)
    assert mat.entries == ((1,),)


def test_build_a_rejects_bad_degree():
    builders = (canonical_pairs, build_A, build_Gamma, blocks, cartan_like, gram_G)
    for n in (0, -1):
        for builder in builders:
            with pytest.raises(ValueError, match=rf"^degree n must be >= 1, got {n}$"):
                builder(n)


@pytest.mark.parametrize("n", [3, 4])
def test_golden_transition_matrices(n):
    mat = paper_order(build_A(n), n)
    gold = golden_matrix(f"A{n}")
    assert mat == gold


@pytest.mark.parametrize("n", [3, 4])
def test_golden_gram_matrices(n):
    mat = paper_order(cartan_like(n), n)
    gold = golden_matrix(f"AtA{n}")
    assert mat == gold


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_paper_order_is_identity_without_a_stored_layout(n):
    assert paper_order(build_A(n), n) is build_A(n)
    g = gram_G(n)
    assert paper_order(g, n) is g


def test_golden_a4_spot_entries():
    mat = paper_order(build_A(4), 4)
    assert mat.entry((2, 2), ((), (2,))) == 1
    assert mat.entry((1, 1, 1, 1), ((4,), ())) == 1
    assert mat.entry((2, 1, 1), ((), (1, 1))) == -1


# 11-15: past the thm-4.3 cap; 14 and 15 are the first degrees with d != d' of
# one length, (3, 3, 1) and (3, 2, 2), so both of them are searched
@pytest.mark.parametrize("n", [*range(1, 7), 11, 12, 13, 14, 15])
def test_two_routes_agree(n):
    # the closed formula, the one production route, against the character
    # pairing of the test oracle
    assert build_A(n).entries == plain_A(n)


@pytest.mark.parametrize("n", range(1, 14))
def test_the_oracle_is_omega_equivariant(n):
    # omega fixes Q_r, takes S_lam(x, x) to S_lam'(x, x) and S_d(x^2) to
    # (-1)^{|d|} S_d'(x^2), so a_{lam',(r,d')} = (-1)^{|d|} a_{lam,(r,d)}:
    # the identity build_A reads half of A by, here on the character pairing
    ent, lams, prs = plain_A(n), generate_partitions(n), canonical_pairs(n)
    row = {lam: i for i, lam in enumerate(lams)}
    col = {p: j for j, p in enumerate(prs)}
    for i, lam in enumerate(lams):
        for j, (r, d) in enumerate(prs):
            mirror = ent[row[_conjugate(lam)]][col[r, _conjugate(d)]]
            assert mirror == (-1) ** weight(d) * ent[i][j]


@pytest.mark.parametrize("n", range(1, 15))
def test_gamma_rows_of_conjugate_partitions_agree(n):
    # the case d = () of the omega identity: g_{mu,lam} = g_{mu,lam'}
    g = build_Gamma(n)
    rows = dict(zip(g.row_labels, g.entries))
    assert all(rows[_conjugate(lam)] == row for lam, row in rows.items())


@pytest.mark.parametrize("n", range(1, 15))
def test_gamma_is_the_strict_columns(n):
    a = build_A(n)
    g = build_Gamma(n)
    assert g.row_labels == a.row_labels
    for j, mu in enumerate(g.col_labels):
        col = a.col_labels.index((mu, ()))
        for i in range(len(g.row_labels)):
            assert g.entries[i][j] == a.entries[i][col]


def test_gamma_and_g_form_no_a(cold_memo_tables, monkeypatch, capsys):
    # Gamma and G are built from class (n, 0) of the class table alone
    def boom(*args):
        raise RuntimeError("the whole of A built")

    monkeypatch.setattr(transition_mod, "_build_A_canonical", boom)
    assert build_Gamma(14).shape == (135, 22)
    assert cli.main(["matrix", "Gamma", "--n", "12"]) == 0
    assert capsys.readouterr().err == ""


def test_gamma_and_g_read_only_class_n_0(cold_memo_tables, monkeypatch):
    keys, gram_keys, pairs = [], [], []
    chi_rows, pairing = transition_mod._chi_rows, transition_mod._pairing
    class_block = transition_mod._class_block

    def spy_chi_rows(ks, lams):
        keys.extend(ks)
        return chi_rows(ks, lams)

    def spy_pairing(n, rows, ks, block, power=2):
        gram_keys.extend(ks)
        return pairing(n, rows, ks, block, power)

    def spy_class_block(n0, n1):
        block = class_block(n0, n1)
        pairs.extend(block[1])
        return block

    monkeypatch.setattr(transition_mod, "_chi_rows", spy_chi_rows)
    monkeypatch.setattr(transition_mod, "_pairing", spy_pairing)
    monkeypatch.setattr(transition_mod, "_class_block", spy_class_block)
    build_Gamma(12)
    gram_G(12)
    # only class (n, 0) has all-odd keys: sigma + 2 tau has an even part once tau is nonempty
    assert keys and all(map(is_odd, keys))
    assert gram_keys and all(map(is_odd, gram_keys))
    assert pairs and all(pair_class(p) == (12, 0) for p in pairs)


def test_matrix_block_forms_only_its_own_class(cold_memo_tables, monkeypatch, capsys):
    gram_keys, pairs = [], []
    pairing, class_block = transition_mod._pairing, transition_mod._class_block

    def spy_pairing(n, rows, ks, block, power=2):
        gram_keys.extend(ks)
        return pairing(n, rows, ks, block, power)

    def spy_class_block(n0, n1):
        block = class_block(n0, n1)
        pairs.extend(block[1])
        return block

    monkeypatch.setattr(transition_mod, "_pairing", spy_pairing)
    monkeypatch.setattr(transition_mod, "_class_block", spy_class_block)
    assert cli.main(["matrix", "block", "--n", "8", "--block", "4,2"]) == 0
    assert capsys.readouterr().err == ""
    # key rho = sigma + 2 tau is in class (|sigma|, |tau|)
    assert gram_keys and {tuple(map(weight, psi(k))) for k in gram_keys} == {(4, 2)}
    assert pairs and {pair_class(p) for p in pairs} == {(4, 2)}


def test_the_sweep_forms_each_class_block_once(cold_memo_tables):
    # A, Gamma, the Gram blocks and the pairing claims read one memo: from
    # cold tables the sweep forms every class of degree <= 8 exactly once
    check_all(max_n=8)
    classes = {(n0, n1) for n in range(1, 9) for n0, n1, _ in tables_mod._classes(n)}
    info = tables_mod._class_block.cache_info()
    assert info.misses == info.currsize == len(classes) == 24
    # shared, so immutable: keys, pairs and every row of M are tuples
    keys, prs, rows = tables_mod._class_block(4, 2)
    assert all(type(part) is tuple for part in (keys, prs, *rows))
    assert len(rows) == len(keys) and {len(row) for row in rows} == {len(prs)}


def test_a_block_outside_the_walk_is_a_value_error():
    text = "invalid block class (3,1): need n0 + 2*n1 = 4 with n0, n1 >= 0"
    with pytest.raises(ValueError, match=re.escape(text)):
        transition_mod._gram_block(4, 3, 1)


@pytest.mark.parametrize("n", [7, 8])
def test_the_closed_formula_reads_gamma_through_build_gamma(cold_memo_tables, monkeypatch, n):
    # g_{r,nu} = <P_r, S_nu> is entry (nu, r) of Gamma_n0, read once for each
    # class with n0 >= 1; the class (0, n/2) of an even n reads Gamma_0 = [[1]]
    degrees, build_gamma = [], transition_mod.build_Gamma

    def spy(n0):
        degrees.append(n0)
        return build_gamma(n0)

    monkeypatch.setattr(transition_mod, "build_Gamma", spy)
    assert build_A(n).entries == plain_A(n)
    assert degrees == list(range(n, 0, -2))


def test_a_reads_only_the_gamma_and_guard_characters_of_its_degree(cold_memo_tables, monkeypatch):
    # A is the closed formula: of the 42 character columns of degree 10 it
    # reads the odd rho, for Gamma_10, and the domino guards (2^k 1^{10-2k})
    read, mn_column = set(), tables_mod._mn_column

    def spy(rho):
        read.add(rho)
        return mn_column(rho)

    monkeypatch.setattr(tables_mod, "_mn_column", spy)
    mat = build_A(10)
    degree_10 = {rho for rho in read if weight(rho) == 10}
    guards = {(2,) * k + (1,) * (10 - 2 * k) for k in range(6)}
    assert degree_10 == set(generate_partitions(10, "odd")) | guards
    assert len(degree_10) == 15
    assert mat.entries == plain_A(10)


def test_a_searches_one_side_of_each_omega_pair(cold_memo_tables, monkeypatch):
    # columns (r, d) with len(d) > len(d') and products S_nu S_d(x^2) with
    # d = d' and len(nu) > len(nu') are read off by omega, not searched: a
    # cold A_12 runs 130 searches, 88 of them laying a nonempty d
    contents, tableaux = [], tables_mod._yamanouchi_tableaux

    def spy(nu, content, size):
        contents.append(content)
        return tableaux(nu, content, size)

    monkeypatch.setattr(tables_mod, "_yamanouchi_tableaux", spy)
    build_A(12)
    assert len(contents) == 130
    assert sum(map(bool, contents)) == 88


def test_gamma_frozen_degree_three():
    g = build_Gamma(3)
    assert g.row_labels == ((3,), (2, 1), (1, 1, 1))
    assert g.col_labels == ((3,), (2, 1))
    assert g.entries == ((1, 0), (1, 1), (1, 0))


def test_k_table_against_fixture(k_table):
    assert k_table == {1: 0, 2: 1, 3: 1, 4: 4, 5: 5, 6: 11, 7: 15, 8: 28}
    for n, k in k_table.items():
        assert k_value(n) == k


@pytest.mark.parametrize("n", range(1, 7))
def test_determinant_power_of_two(n):
    assert abs(matrix_det(build_A(n))) == 2 ** k_value(n)


def sorted_pairs(n):
    """The label rule the class walk replaced, kept as its oracle: phi of
    every mu |- n, sorted by (|mu_r|, mu_r, mu_d) and reversed."""
    pairs = (phi(mu) for mu in generate_partitions(n))
    return tuple(sorted(pairs, key=lambda rd: (weight(rd[0]), rd[0], rd[1]), reverse=True))


def test_canonical_pairs_cover_and_order():
    for n in range(1, 25):
        assert canonical_pairs(n) == sorted_pairs(n)


@pytest.mark.parametrize("n", range(1, 15))
def test_each_matrix_is_labeled_by_the_sorted_pairs(n):
    pairs = sorted_pairs(n)
    assert build_A(n).col_labels == pairs
    assert cartan_like(n).row_labels == cartan_like(n).col_labels == pairs
    assert tuple(p for block in blocks(n).values() for p in block.col_labels) == pairs
    stricts = generate_partitions(n, "strict")
    assert build_Gamma(n).col_labels == gram_G(n).row_labels == gram_G(n).col_labels == stricts


def test_gram_frozen_values():
    assert gram_G(3).entries == ((3, 1), (1, 1))
    assert gram_G(4).entries == ((4, 2), (2, 3))
    assert smith_normal_form(gram_G(3)) == (1, 2)
    assert smith_normal_form(gram_G(4)) == (1, 8)


def test_blocks_frozen():
    b3 = blocks(3)
    assert set(b3) == {(3, 0), (1, 1)}
    assert b3[(3, 0)].entries == ((3, 1), (1, 1))
    assert b3[(1, 1)].entries == ((2,),)
    b4 = blocks(4)
    assert set(b4) == {(4, 0), (2, 1), (0, 2)}
    assert b4[(4, 0)].entries == ((4, 2), (2, 3))
    assert b4[(2, 1)].entries == ((4,),)
    assert b4[(0, 2)].entries == ((3, 1), (1, 3))


@pytest.mark.parametrize("n", range(1, 15))
def test_gram_matrices_equal_the_full_product(n):
    # the class-table route against its oracle, the product with the
    # transpose summed entry by entry
    assert cartan_like(n) == full_gram(build_A(n))
    assert gram_G(n) == full_gram(build_Gamma(n))


@pytest.mark.parametrize("n", [15, 16])
def test_packed_products_equal_the_plain_triple_sums(n):
    assert build_A(n).entries == plain_A(n)
    assert {cls: b.entries for cls, b in blocks(n).items()} == plain_blocks(n)


def plain_products(rows, weights, block):
    width = len(block[0]) if block else 0
    return [
        [sum(r * w * b[j] for r, w, b in zip(row, weights, block)) for j in range(width)]
        for row in rows
    ]


@pytest.mark.parametrize("seed", range(40))
def test_packed_products_equal_plain_sums_on_random_tables(seed):
    rng = random.Random(seed)
    keys, width = rng.randint(1, 8), rng.randint(1, 8)
    big = rng.choice([1, 2, 127, 128, 255, 1 << 63, 1 << 64, 1 << 200])

    def draw():
        return rng.randint(-big, big)

    block = [[draw() for _ in range(width)] for _ in range(keys)]
    weights = [draw() for _ in range(keys)]
    rows = [[draw() for _ in range(keys)] for _ in range(rng.randint(0, 6))]
    rows.append([0] * keys)  # an all-zero row
    zero = rng.randrange(width)
    for b in block:
        b[zero] = 0  # an all-zero column
    assert tables_mod._matmul(rows, weights, block) == plain_products(rows, weights, block)
    # the scaled pairing is the same product on keys rho |- n, weighted by
    # n! power^{len(rho)} / z_rho
    n = rng.choice([6, 7, 8])
    ks = rng.sample(generate_partitions(n), keys)
    for power in (1, 2, 4):
        weights = [math.factorial(n) * power ** len(k) // z_factor(k) for k in ks]
        got = tables_mod._pairing(n, rows, ks, block, power)
        assert got == plain_products(rows, weights, block)


@pytest.mark.parametrize("bound", [1, 127, 128, 255, 256, (1 << 63) - 1, 1 << 63, (1 << 64) - 1])
def test_packed_products_reach_the_width_bound(bound):
    # every product is +-B or 0 for B the bound of the slot width, which sits
    # right below, at or right above a power of two (one key, then three
    # keys whose terms add up to the bound)
    block = [[bound, -bound, 0, bound]]
    assert tables_mod._matmul([[1], [-1]], [1], block) == plain_products([[1], [-1]], [1], block)
    if bound % 3 == 0:
        block = [[bound // 3, -bound // 3]] * 3
        rows = [[1, 1, 1], [-1, -1, -1]]
        assert tables_mod._matmul(rows, [1, 1, 1], block) == [[bound, -bound], [-bound, bound]]
    block = [[1, -1], [-1, 1]]
    rows = [[bound, bound]]  # the row's own entries reach the bound
    assert tables_mod._matmul(rows, [1, 1], block) == [[0, 0]]
    assert tables_mod._matmul([[bound, 0]], [1, 1], block) == [[bound, -bound]]


def test_packed_products_of_zero_and_empty_blocks():
    matmul = tables_mod._matmul
    assert matmul([[3, -4]], [5, 6], [[0, 0, 0], [0, 0, 0]]) == [[0, 0, 0]]
    assert matmul([[0, 0]], [0, 0], [[7, -7], [1, 2]]) == [[0, 0]]
    assert matmul([[2]], [3], [[-5, 0, 4]]) == [[-30, 0, 24]]  # one key
    assert matmul([[1, 2], [3, 4]], [1, 1], [[], []]) == [[], []]  # no columns
    assert matmul([[], []], [], []) == [[], []]  # no keys
    assert matmul([], [1], [[1, 2]]) == []  # no rows


def test_a_non_integral_transition_entry_is_named_pair_by_pair(cold_memo_tables, monkeypatch):
    # wrong characters on class (7, 0), the one class built by pairing
    # (Gamma_7, which A reads): +1 at chi^(7)_(3,3,1) and -1 at
    # chi^(7)_(3,1,1,1,1) leave the first pair's column whole and remainders
    # in later pairs' columns at the first lam, +1 at chi^(1^7)_(1^7) in every
    # column at the last lam; the error names the first entry pair by pair,
    # then lam, so the first pair's entry at the last lam
    chi_rows = transition_mod._chi_rows

    def corrupt(*wrong):
        def corrupted(keys, lams):
            out = [list(row) for row in chi_rows(keys, lams)]
            for lam, rho, delta in wrong:
                if lam in lams and rho in keys:
                    out[list(lams).index(lam)][list(keys).index(rho)] += delta
            return out

        monkeypatch.setattr(transition_mod, "_chi_rows", corrupted)
        transition_mod._build_Gamma_canonical.cache_clear()
        transition_mod._build_A_canonical.cache_clear()

    first = ((7,), (3, 3, 1), 1), ((7,), (3, 1, 1, 1, 1), -1)
    corrupt(*first)
    text = "transition column ((6, 1), ()) at lam=(7,) came out non-integral: -1/3"
    for builder in (build_Gamma, build_A):
        with pytest.raises(ArithmeticError, match=re.escape(text)):
            builder(7)
    corrupt(*first, ((1,) * 7, (1,) * 7, 1))
    text = ("transition column ((7,), ()) at lam=(1, 1, 1, 1, 1, 1, 1) "
            "came out non-integral: 319/315")
    for builder in (build_Gamma, build_A):
        with pytest.raises(ArithmeticError, match=re.escape(text)):
            builder(7)


def test_gram_matrices_form_no_full_product(monkeypatch, capsys):
    # blocks, cartan_like and gram_G read the class table only: neither A nor
    # the full product is formed on their path
    def boom(*args):
        raise RuntimeError("full product route called")

    monkeypatch.setattr(transition_mod, "_build_A_canonical", boom)
    assert cartan_like(14).shape == (135, 135)
    assert sum(b.shape[0] for b in blocks(14).values()) == 135
    assert gram_G(14).shape == (22, 22)
    assert cli.main(["matrix", "AtA", "--n", "12"]) == 0
    assert capsys.readouterr().err == ""


def test_a_non_integral_gram_entry_is_an_internal_defect(cold_memo_tables, monkeypatch):
    # a wrong Green value leaves a remainder in the exact division of the
    # Hall Gram: an ArithmeticError naming the entry, not a wrong matrix
    table = tables_mod._bar_column
    mask = tables_mod._part_mask((2, 1))

    @functools.cache
    def corrupted(sigma):
        col = dict(table(sigma))
        if sigma == (3,):
            col[mask] = -col[mask]
        return col

    monkeypatch.setattr(tables_mod, "_bar_column", corrupted)
    text = "Gram entry (((3,), ()), ((2, 1), ())) came out non-integral: 5/3"
    with pytest.raises(ArithmeticError, match=re.escape(text)):
        blocks(3)


@pytest.mark.parametrize("n", range(1, 15))
def test_blocks_cover_cartan(n):
    table = blocks(n)
    ata = cartan_like(n)
    total = sum(b.shape[0] for b in table.values())
    assert total == ata.shape[0]
    for cls, block in table.items():
        assert all(pair_class(p) == cls for p in block.row_labels)
        for r1 in block.row_labels:
            for c1 in block.col_labels:
                assert block.entry(r1, c1) == ata.entry(r1, c1)


# --------------------------------------------------------------------------
# Labels, reordering, emitters
# --------------------------------------------------------------------------

def test_labeled_matrix_is_an_immutable_value():
    mat = build_A(2)
    assert repr(mat) == (
        "LabeledIntMatrix(row_labels=((2,), (1, 1)), col_labels=(((2,), ()), ((), (1,))), "
        "entries=((1, 1), (1, -1)))"
    )
    twin = LabeledIntMatrix(mat.row_labels, mat.col_labels, mat.entries)
    assert twin == mat and hash(twin) == hash(mat) and twin is not mat
    flipped = LabeledIntMatrix(mat.col_labels, mat.row_labels, tuple(zip(*mat.entries)))
    assert mat != flipped and mat != (mat.row_labels, mat.col_labels, mat.entries)
    assert pickle.loads(pickle.dumps(mat)) == mat
    with pytest.raises(AttributeError):
        mat.entries = ()
    with pytest.raises(AttributeError):
        mat.extra = 1
    with pytest.raises(ValueError, match="row count"):
        LabeledIntMatrix(((1,),), (), ())
    with pytest.raises(ValueError, match="column count"):
        LabeledIntMatrix(((1,),), ((1,),), ((1, 2),))


def test_label_str_forms():
    assert label_str((3, 1)) == "31"
    assert label_str(((3, 1), ())) == "(31,∅)"
    assert label_str(((), (1, 1))) == "(∅,1^2)"
    assert label_str(((3, 1), ()), latex=True) == "(31,\\emptyset)"


def test_reorder_roundtrip_and_errors():
    mat = build_A(4)
    rows = tuple(reversed(mat.row_labels))
    cols = tuple(reversed(mat.col_labels))
    back = reorder(reorder(mat, rows, cols), mat.row_labels, mat.col_labels)
    assert back == mat
    with pytest.raises(ValueError):
        reorder(mat, mat.row_labels[:-1], mat.col_labels)


def test_csv_emitter(capsys):
    assert cli.main(["matrix", "A", "--n", "3", "--order", "paper", "--format", "csv"]) == 0
    assert capsys.readouterr() == ("1,0,1\n1,1,0\n1,0,-1\n", "")


def test_latex_emitter_matches_reference_layout():
    text = matrix_to_latex(paper_order(build_A(3), 3))
    assert text.startswith("\\bordermatrix{")
    assert "(3,\\emptyset)" in text and "(21,\\emptyset)" in text and "(1,1)" in text
    assert "(1^3) & 1 & 0 & -1" in text


def test_json_roundtrip():
    for kind_mat, n in ((build_A(4), 4), (cartan_like(3), 3), (build_Gamma(5), 5)):
        doc = matrix_to_json_dict(kind_mat, n)
        doc2 = json.loads(json.dumps(doc))
        n_back, mat_back = matrix_from_json_dict(doc2)
        assert n_back == n
        assert mat_back == kind_mat


def test_shape():
    assert build_Gamma(4).shape == (5, 2)


# the memo tables perfbench/stages.py looks up by name, to clear or count them
_BENCHMARK_TABLES = (
    "transition._build_A_canonical",
    "transition._build_A_combinatorial_canonical",
    "transition._build_Gamma_canonical",
    "symfunc.schur",
    "symfunc.schur_Q",
    "symfunc.character",
)


def test_the_benchmark_looks_up_no_other_memo_table_by_name():
    # read off the benchmark's source: each literal tables["module.name"]
    # lookup, and the symfunc tables it counts through CACHED_TABLES
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "stages.py").read_text("utf-8")
    (counted,) = re.findall(r"^CACHED_TABLES = (\(.*\))$", source, re.MULTILINE)
    names = set(re.findall(r"tables\[\"(\w+\.\w+)\"\]", source))
    names |= {f"symfunc.{name}" for name in ast.literal_eval(counted)}
    assert names == set(_BENCHMARK_TABLES)


def test_the_benchmark_imports_only_public_names():
    # perfbench/stages.py imports these names from the package, the alias
    # build_A_combinatorial among them, so deleting one breaks the benchmark
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "stages.py").read_text("utf-8")
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "compoundbasis"
        for alias in node.names
    }
    assert "build_A_combinatorial" in imported
    assert imported - {"cli"} <= set(compoundbasis.__all__)
    for name in imported:
        getattr(compoundbasis, name)


@pytest.mark.parametrize("table", _BENCHMARK_TABLES)
def test_benchmark_reads_these_memo_tables_by_name(table):
    # perfbench/stages.py clears and counts these tables by name
    module, name = table.split(".")
    obj = getattr(importlib.import_module(f"compoundbasis.{module}"), name)
    assert callable(getattr(obj, "cache_info", None))
    assert callable(getattr(obj, "cache_clear", None))
    assert obj.__module__ == f"compoundbasis.{module}"


def test_the_memo_tables_are_pinned():
    # found the way perfbench/stages.py finds them: each table holds its values
    # for the life of the process, so adding or dropping one is deliberate
    found = set()
    for info in pkgutil.iter_modules(compoundbasis.__path__):
        mod = importlib.import_module(f"compoundbasis.{info.name}")
        for name, obj in vars(mod).items():
            if (
                callable(getattr(obj, "cache_clear", None))
                and callable(getattr(obj, "cache_info", None))
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                found.add(f"{info.name}.{name}")
    assert found == {
        "golden.golden_data",
        "golden.golden_matrix",
        "golden.paper_layout",
        "partitions._dimension",
        "partitions.generate_partitions",
        "symfunc.character",
        "symfunc.complete_h",
        "symfunc.h_product",
        "symfunc.schur",
        "symfunc.schur_Q",
        "tables._bar_column",
        "tables._beta_mask",
        "tables._class_block",
        "tables._mn_column",
        "transition._build_A_canonical",
        "transition._build_A_combinatorial_canonical",
        "transition._build_Gamma_canonical",
        "transition._gram_block",
        "transition.canonical_pairs",
        "verify._core_free_quotients",
        "verify._gram_misses",
        "verify._square_expansion",
    }

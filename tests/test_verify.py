"""The verification harness: reports, determinism, failure fidelity."""

import functools
import hashlib
import json
from pathlib import Path

import pytest

import compoundbasis
import compoundbasis.symfunc as symfunc_mod
import compoundbasis.tables as tables_mod
import compoundbasis.transition as transition_mod
import compoundbasis.verify as verify_mod
from compoundbasis.golden import paper_order
from compoundbasis.transition import (
    LabeledIntMatrix,
    build_A,
    build_Gamma,
)
from compoundbasis.verify import (
    CLAIM_CAPS,
    VerificationReport,
    all_passed,
    check,
    check_all,
    claim_ids,
    compare_matrices,
)


def _flip(mat, i, j):
    """``mat`` with entry (i, j) raised by one."""
    rows = [list(r) for r in mat.entries]
    rows[i][j] += 1
    return LabeledIntMatrix(mat.row_labels, mat.col_labels, tuple(tuple(r) for r in rows))


def _essence(report):
    return (
        report.claim_id,
        report.n,
        report.status,
        json.dumps(report.details, sort_keys=True),
    )


def test_registry_lists_every_capped_claim():
    ids = claim_ids()
    assert set(ids) == set(CLAIM_CAPS)
    assert list(ids) == sorted(ids)
    assert "thm-4.6" in ids and "golden-matrices" in ids


def test_check_documented_examples():
    r = check("thm-4.6", 8)
    assert r.passed and r.details == {"k_n": 28}
    r = check("thm-4.3", 1)
    assert r.passed
    r = check("cor-4.2", 6)
    assert r.passed and r.details == {"size": 11}


def test_check_unknown_claim_raises():
    with pytest.raises(ValueError):
        check("no-such-claim", 3)
    with pytest.raises(ValueError):
        check("thm-4.6", 0)
    with pytest.raises(ValueError):
        check_all(max_n=2, claims=["thm-4.6", "bogus"])


def test_report_json_line_shape():
    r = check("prop-3.1", 5)
    doc = json.loads(r.to_json_line())
    assert doc["claim_id"] == "prop-3.1"
    assert doc["n"] == 5
    assert doc["status"] == "pass"
    assert isinstance(doc["elapsed_ms"], (int, float))


def test_determinism_modulo_elapsed():
    first = check_all(max_n=3)
    second = check_all(max_n=3)
    assert [_essence(r) for r in first] == [_essence(r) for r in second]


def test_reports_sorted_by_claim_then_degree():
    reports = check_all(max_n=4)
    keys = [(r.claim_id, r.n) for r in reports]
    assert keys == sorted(keys)


def test_check_all_small_degrees_pass():
    # max_n=1 passes trivially; max_n=4 includes the stored-layout comparisons
    assert all_passed(check_all(max_n=1))
    reports = check_all(max_n=4)
    assert all_passed(reports)
    golden = [r for r in reports if r.claim_id == "golden-matrices"]
    assert [r.n for r in golden] == [1, 2, 3, 4]
    assert golden[2].details == {"matrices": ["A3", "AtA3"]}


def test_caps_shape_the_sweep(monkeypatch):
    reports = check_all(max_n=99, claims=["two-sign-oracle"])
    assert [r.n for r in reports] == list(range(1, CLAIM_CAPS["two-sign-oracle"] + 1))
    monkeypatch.setitem(verify_mod.CLAIM_CAPS, "two-sign-oracle", 2)
    reports = check_all(max_n=99, claims=["two-sign-oracle"])
    assert [r.n for r in reports] == [1, 2]


def test_parallel_matches_sequential():
    seq = check_all(max_n=3)
    par = check_all(max_n=3, jobs=2)
    assert [_essence(r) for r in seq] == [_essence(r) for r in par]


def test_json_lines_stream():
    reports = check_all(max_n=2, claims=["thm-4.6", "cor-4.2"])
    lines = [r.to_json_line() for r in reports]
    assert len(lines) == 4 and not any("\n" in line for line in lines)
    parsed = [json.loads(line) for line in lines]
    assert all(doc["status"] == "pass" for doc in parsed)


def test_failure_fidelity_names_exact_labels():
    good = paper_order(build_A(4), 4)
    payload = compare_matrices(good, _flip(good, 2, 3))
    assert payload == {
        "mismatch": "entry",
        "row": "2^2",
        "col": "(∅,1^2)",
        "expected": 1,
        "actual": 2,
    }


def test_compare_matrices_label_mismatch():
    mat = build_A(3)
    permuted = LabeledIntMatrix(
        tuple(reversed(mat.row_labels)), mat.col_labels, tuple(reversed(mat.entries))
    )
    payload = compare_matrices(mat, permuted)
    assert payload is not None and payload["mismatch"] == "row_labels"
    assert compare_matrices(mat, mat) is None


_PAST_CAP_BLOCKS = {
    11: [((11, 0), 12, 32), ((9, 1), 8, 26), ((7, 2), 10, 33), ((5, 3), 9, 30), ((3, 4), 10, 29),
         ((1, 5), 7, 20)],
    12: [((12, 0), 15, 42), ((10, 1), 10, 33), ((8, 2), 12, 44), ((6, 3), 12, 42), ((4, 4), 10, 39),
         ((2, 5), 7, 27), ((0, 6), 11, 35)],
}


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("cid", ["stembridge-structure", "thm-4.3", "thm-4.8", "prop-4.9"])
def test_the_product_claims_hold_past_their_caps(cid, n):
    # the default sweep stops these claims at 8 or 10; their packed products
    # hold beyond that
    sizes = {11: (56, 12), 12: (77, 15)}[n]
    details = {
        "stembridge-structure": {"rows": sizes[0], "cols": sizes[1]},
        "thm-4.3": {"size": sizes[0]},
        "thm-4.8": {
            "blocks": [
                {"class": list(cls), "size": size, "exponent": e}
                for cls, size, e in _PAST_CAP_BLOCKS[n]
            ]
        },
        "prop-4.9": {"size": sizes[0]},
    }[cid]
    r = check(cid, n)
    assert (r.status, r.details) == ("pass", details)


@pytest.mark.parametrize("n", [11, 12])
def test_duality_holds_at_the_matrix_weights(n):
    # build_A reads each entry off the dual family, so it is right only while
    # W and V stay biorthogonal; the default sweep stops cor-4.2 at 8.
    r = check("cor-4.2", n)
    assert r.passed and r.details == {"size": len(build_A(n).col_labels)}


# --------------------------------------------------------------------------
# Negative controls: one corrupted entry turns the cross-check red
# --------------------------------------------------------------------------

def test_stembridge_structure_catches_a_flipped_gamma_entry(monkeypatch):
    monkeypatch.setattr(
        verify_mod, "build_Gamma", lambda n: _flip(build_Gamma(n), 2, 1)
    )
    # Gamma[2^2][31] raised from 1 to 2: sum_mu Gamma[lam][mu] X^mu_k misses
    # chi^lam_k at the first odd key
    r = check("stembridge-structure", 4)
    assert r.status == "fail"
    assert r.details == {
        "row": "2^2",
        "key": "31",
        "expected": -1,
        "actual": -2,
        "detail": "Gamma does not solve the Green system",
    }


def test_stembridge_structure_needs_a_nonsingular_green_table(monkeypatch):
    # a zero Green row on the claim's side leaves the system with no unique
    # solution, whatever Gamma is
    green_rows = verify_mod._green_rows

    def zeroed(keys, stricts):
        rows = green_rows(keys, stricts)
        return [[0] * len(keys) if mu == (3, 1) else row for mu, row in zip(stricts, rows)]

    monkeypatch.setattr(verify_mod, "_green_rows", zeroed)
    r = check("stembridge-structure", 4)
    assert (r.status, r.details) == ("fail", {"detail": "the Green table on odd keys is singular"})


_NEGATED_ROWS = [
    # Q_(4,3,1) -> -Q_(4,3,1) at n = 8: duality, |det|, SNF and the Gram
    # structure are invariant under the sign of one basis element, and Gamma
    # still solves the (negated) Green system, so only the nonnegativity of
    # Gamma turns red
    pytest.param(
        "_green_rows",
        (4, 3, 1),
        (tables_mod, symfunc_mod, verify_mod),
        [
            (
                "stembridge-structure",
                8,
                {
                    "row": "431",
                    "col": "431",
                    "actual": "-1",
                    "detail": "coefficient is not a nonnegative integer",
                },
            ),
        ],
        id="green",
    ),
    # S_(3,3,2) -> -S_(3,3,2): Gamma's row turns negative, A's class (8, 0)
    # is Gamma_8 while every other class reads Gamma of lower degree and
    # domino counts, so A M^T misses X, |det A| moves and (transpose A) A
    # gains entries between classes; two-sign-oracle at n = 4 reads the row
    # at the doubled keys
    pytest.param(
        "_chi_rows",
        (3, 3, 2),
        (tables_mod, symfunc_mod, transition_mod, verify_mod),
        [
            (
                "stembridge-structure",
                8,
                {
                    "row": "3^22",
                    "col": "53",
                    "actual": "-1",
                    "detail": "coefficient is not a nonnegative integer",
                },
            ),
            (
                "thm-4.3",
                8,
                {
                    "row": "3^22",
                    "key": "32^21",
                    "expected": -2,
                    "actual": 2,
                    "detail": "integer expansion does not reproduce the doubled Schur function",
                },
            ),
            (
                "thm-4.6",
                8,
                {"k_n": 28, "expected_abs": "268435456", "actual_det": "83886080"},
            ),
            ("thm-4.8", 8, {"row": "(53,∅)", "col": "(4,2)", "expected": 0, "actual": -2}),
            ("two-sign-oracle", 4, {"label": "31"}),
        ],
        id="character",
    ),
]


def _negate_row(monkeypatch, name, label, modules):
    """The row of ``label`` negated in every module that reads the rows of
    the table ``tables.<name>``."""
    table_rows = getattr(tables_mod, name)

    def negated(keys, labels):
        rows = table_rows(keys, labels)
        return [[-x for x in row] if lab == label else row for lab, row in zip(labels, rows)]

    for module in modules:
        monkeypatch.setattr(module, name, negated)


@pytest.mark.parametrize("name, label, modules, red", _NEGATED_ROWS)
def test_a_negated_table_row_turns_only_its_claims_red(
    cold_memo_tables, monkeypatch, name, label, modules, red
):
    _negate_row(monkeypatch, name, label, modules)
    failed = [r for r in check_all(max_n=8) if r.status == "fail"]
    assert [(r.claim_id, r.n, r.details) for r in failed] == red


def test_a_negated_character_row_at_degree_10_turns_the_determinant_claims_red(
    cold_memo_tables, monkeypatch
):
    # S_(4,4,2) -> -S_(4,4,2): A reads the row on class (10, 0) alone, through
    # Gamma_10, so A is no longer a row-signed copy of itself: |det A| moves
    # (thm-4.6) and (transpose A) A gains entries between classes (thm-4.8,
    # past its cap), besides the claims that read the row directly
    modules = (tables_mod, symfunc_mod, transition_mod, verify_mod)
    _negate_row(monkeypatch, "_chi_rows", (4, 4, 2), modules)
    failed = [r for r in check_all(max_n=10) if r.status == "fail"]
    assert [(r.claim_id, r.n) for r in failed] == [
        ("stembridge-structure", 10), ("thm-4.3", 10), ("thm-4.6", 10), ("two-sign-oracle", 5),
    ]
    assert failed[1].details == {
        "row": "4^22",
        "key": "532",
        "expected": -1,
        "actual": 1,
        "detail": "integer expansion does not reproduce the doubled Schur function",
    }
    r = check("thm-4.8", 10)
    assert (r.status, r.details) == (
        "fail",
        {"row": "(64,∅)", "col": "(62,1)", "expected": 0, "actual": -2},
    )


def test_a_wrong_character_of_gamma_is_named_at_its_transition_column(
    cold_memo_tables, monkeypatch
):
    # chi^(1^4)_(3,1) raised by 1: build_A at n = 6 reads no character of
    # degree 4, and the closed formula reads g_{r,nu} for class (4, 1) off
    # Gamma_4, whose exact division names the column and lam
    table = tables_mod._mn_column
    mask = tables_mod._beta_mask((1, 1, 1, 1))

    @functools.cache
    def corrupted(rho):
        col = dict(table(rho))
        if rho == (3, 1):
            col[mask] = col.get(mask, 0) + 1
        return col

    monkeypatch.setattr(tables_mod, "_mn_column", corrupted)
    r = check("thm-4.3", 6)
    assert (r.status, r.details) == (
        "fail",
        {
            "error": "ArithmeticError: transition column ((4,), ()) at lam=(1, 1, 1, 1) "
            "came out non-integral: 5/3"
        },
    )


def test_thm_4_3_catches_a_flipped_transition_entry(monkeypatch):
    monkeypatch.setattr(
        verify_mod, "build_A", lambda n: _flip(build_A(n), 2, 4)
    )
    # a_{2^2,(∅,1^2)} raised by 1 moves sum_mu a_{lam,mu} M[rho][mu] by
    # M[(4)][(∅,1^2)] = chi^{1^2}_(2) = -1 at the first key of class (0, 2)
    r = check("thm-4.3", 4)
    assert r.status == "fail"
    assert r.details == {
        "row": "2^2",
        "key": "4",
        "expected": 0,
        "actual": -1,
        "detail": "integer expansion does not reproduce the doubled Schur function",
    }


def test_thm_4_3_names_a_flipped_entry_at_degree_9(monkeypatch):
    monkeypatch.setattr(verify_mod, "build_A", lambda n: _flip(build_A(n), 3, 14))
    # a_{71^2,(5,1^2)} raised by 1 moves sum_mu a_{lam,mu} M[rho][mu] by
    # M[(5,4)][(5,1^2)] = X^5_5 chi^{1^2}_2 = -1 at the first key of class (5, 2)
    r = check("thm-4.3", 9)
    assert r.status == "fail"
    assert r.details == {
        "row": "71^2",
        "key": "54",
        "expected": 1,
        "actual": 0,
        "detail": "integer expansion does not reproduce the doubled Schur function",
    }


def test_a_corrupted_character_turns_the_schur_claims_red(cold_memo_tables, monkeypatch):
    # every Schur coefficient reads the character table, so one wrong value
    # must show up in each claim that expands in or pairs with Schur functions
    # (the column recursion reads the patched name, so the degree >= 8
    # columns ending in (2,2,1,1) inherit the error); of the degree-6
    # characters, A reads Gamma_6's odd keys and the domino guards, whose
    # products have no S_321 term (its 2-core is (2,1)), so A M^T = X names
    # the row, and the Gram claims, which read A and the class table, stay green
    table = tables_mod._mn_column
    mask = tables_mod._beta_mask((3, 2, 1))

    @functools.cache
    def corrupted(rho):
        col = dict(table(rho))
        if rho == (2, 2, 1, 1):
            col[mask] = col.get(mask, 0) + 2
        return col

    monkeypatch.setattr(tables_mod, "_mn_column", corrupted)
    reports = {cid: check(cid, 6) for cid in claim_ids()}
    failed = {cid for cid, r in reports.items() if r.status == "fail"}
    assert failed == {"prop-4.1", "thm-4.3", "two-sign-oracle"}
    assert reports["thm-4.3"].details == {
        "row": "321",
        "key": "2^21^2",
        "expected": 2,
        "actual": 0,
        "detail": "integer expansion does not reproduce the doubled Schur function",
    }


def test_a_corrupted_character_turns_qprime_kostka_red(cold_memo_tables, monkeypatch):
    # Kostka numbers come from Young's rule and read no character, so the
    # claim checks the characters against it: chi^(2)_(1,1) raised from 1 to 3
    # breaks h_2(x^2) = sum_nu K_{nu,(2)} S_nu(x^2) at lam = (2,2)
    table = tables_mod._mn_column
    mask = tables_mod._beta_mask((2,))

    @functools.cache
    def corrupted(rho):
        col = dict(table(rho))
        if rho == (1, 1):
            col[mask] += 2
        return col

    monkeypatch.setattr(tables_mod, "_mn_column", corrupted)
    r = check("qprime-kostka", 4)
    assert (r.status, r.details) == ("fail", {"label": "2^2"})


def test_a_corrupted_character_names_the_first_schur_side_labels(cold_memo_tables, monkeypatch):
    # chi^(2,1)_(3) raised from -1 to 0 leaves the compound side of prop-4.1
    # whole at n = 3, which reads characters of degree <= 1 there, and breaks
    # sum_lam chi^lam_rho chi^lam_rho' = delta z_rho in row and column (3,):
    # the least key pair is named, in the kernel's normalisation
    table = tables_mod._mn_column
    mask = tables_mod._beta_mask((2, 1))

    @functools.cache
    def corrupted(rho):
        col = dict(table(rho))
        if rho == (3,):
            col[mask] = col.get(mask, 0) + 1
        return col

    monkeypatch.setattr(tables_mod, "_mn_column", corrupted)
    r = check("prop-4.1", 3)
    assert (r.status, r.details) == (
        "fail",
        {
            "key_x": "1^3",
            "key_y": "3",
            "expected": "0",
            "actual": "8/9",
            "expansion": "doubled-schur-by-schur",
        },
    )


def test_a_corrupted_green_value_turns_the_q_claims_red(cold_memo_tables, monkeypatch):
    # every Q-function and every Green value reads the Green table, so one
    # wrong value must show up in each claim that checks Q or P functions
    # against another route (the column recursion reads the patched name, so
    # the columns ending in (3,) inherit the error); prop-3.1,
    # eta-correspondence and two-sign-oracle read no Q-function, and
    # qprime-kostka reads the same Q on both of its sides
    table = tables_mod._bar_column
    mask = tables_mod._part_mask((2, 1))

    @functools.cache
    def corrupted(sigma):
        col = dict(table(sigma))
        if sigma == (3,):
            col[mask] = -col[mask]
        return col

    monkeypatch.setattr(tables_mod, "_bar_column", corrupted)
    failed = {r.claim_id for r in check_all(max_n=6) if r.status == "fail"}
    assert failed == {
        "cor-4.2",
        "frobenius",
        "golden-matrices",
        "prop-4.1",
        "prop-4.9",
        "stembridge-structure",
        "thm-4.3",
        "thm-4.5-via-formula",
        "thm-4.6",
        "thm-4.8",
    }


def test_production_routes_do_not_call_the_q_generators(cold_memo_tables, monkeypatch):
    # q_gen and q_product serve `expand q` and the Pfaffian oracle of the
    # tests only: the default sweep and the matrix builders never reach them
    def boom(r):
        raise RuntimeError("q_gen called")

    monkeypatch.setattr(symfunc_mod, "q_gen", boom)
    reports = check_all(max_n=14)
    assert len(reports) == 121 and all_passed(reports)
    build_A(10)
    assert symfunc_mod.green_function((5, 3, 1), (3, 3, 3)) == 6


@pytest.mark.parametrize(
    "cid, payload",
    [
        (
            "prop-4.1",
            {
                "key_x": "1^3",
                "key_y": "3",
                "expected": "0",
                "actual": "8/9",
                "expansion": "compound-by-dual",
            },
        ),
        ("cor-4.2", {"row": "(3,∅)", "col": "(21,∅)", "expected": "0", "actual": "2/3"}),
        ("frobenius", {"class": [3, 0], "sigma": "3", "rho": "∅", "key": "3"}),
        (
            "prop-4.9",
            {
                "error": "ArithmeticError: transition column ((2, 1), ()) at lam=(3,) "
                "came out non-integral: 2/3"
            },
        ),
    ],
)
def test_a_corrupted_green_value_names_the_first_failing_labels(
    cold_memo_tables, monkeypatch, cid, payload
):
    # the pairing claims read the integer class table, yet scan in the order
    # of the Fraction products they replace and print each coefficient in
    # the paper's normalisation: with X^{(2,1)}_{(3)} negated as above, each
    # names the labels the products named
    table = tables_mod._bar_column
    mask = tables_mod._part_mask((2, 1))

    @functools.cache
    def corrupted(sigma):
        col = dict(table(sigma))
        if sigma == (3,):
            col[mask] = -col[mask]
        return col

    monkeypatch.setattr(tables_mod, "_bar_column", corrupted)
    r = check(cid, 3)
    assert (r.status, r.details) == ("fail", payload)


def test_the_sweep_and_the_builders_form_no_compound_product(cold_memo_tables, monkeypatch):
    # the class table is the one route to the power-sum coordinates of W and
    # V: the Fraction products and pairings serve expand, the demos and the
    # tests, where they are the table's oracle
    def boom(*args):
        raise RuntimeError("Fraction product route called")

    for module in (compoundbasis, symfunc_mod, transition_mod, verify_mod):
        for name in ("W_from_pair", "V_from_pair", "inner"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, boom)
    reports = check_all(max_n=14)
    assert len(reports) == 121 and all_passed(reports)
    build_A(12)
    transition_mod.cartan_like(8)


@pytest.mark.parametrize(
    "cid, payload",
    [
        ("thm-4.8", {"row": "(4,∅)", "col": "(∅,2)", "expected": 0, "actual": 1}),
        ("prop-4.9", {"row": "(4,∅)", "col": "(31,∅)", "expected": "2", "actual": 3}),
    ],
)
def test_a_raised_off_block_product_entry_turns_the_gram_claims_red(
    cold_memo_tables, monkeypatch, cid, payload
):
    # the product with the transpose, one packed product of A's columns, is
    # the oracle of the class-table Gram matrices: one entry raised between
    # two classes (thm-4.8) or within one (prop-4.9, which scans only those)
    # names its labels
    matmul, labels = verify_mod._matmul, build_A(4).col_labels
    i = labels.index(((4,), ()))
    j = labels.index(((), (2,)) if cid == "thm-4.8" else ((3, 1), ()))

    def raised(rows, weights, block):
        out = matmul(rows, weights, block)
        out[i][j] += 1
        return out

    monkeypatch.setattr(verify_mod, "_matmul", raised)
    r = check(cid, 4)
    assert (r.status, r.details) == ("fail", payload)


def test_thm_4_8_catches_a_raised_block_entry(cold_memo_tables, monkeypatch):
    blocks = verify_mod.blocks

    def raised(n):
        out = dict(blocks(n))
        out[0, 2] = _flip(out[0, 2], 0, 0)
        return out

    monkeypatch.setattr(verify_mod, "blocks", raised)
    r = check("thm-4.8", 4)
    assert (r.status, r.details) == (
        "fail",
        {"block": [0, 2], "expected_abs": "8", "actual_det": "11"},
    )


def test_thm_4_5_catches_a_raised_gram_entry(monkeypatch):
    gram_G = verify_mod.gram_G
    monkeypatch.setattr(verify_mod, "gram_G", lambda n: _flip(gram_G(n), 0, 0))
    r = check("thm-4.5-via-formula", 4)
    assert (r.status, r.details) == ("fail", {"expected": [1, 8], "actual": [1, 11]})


def test_prop_3_1_catches_a_short_glaisher_image(monkeypatch):
    glaisher = verify_mod.glaisher
    monkeypatch.setattr(
        verify_mod, "glaisher", lambda lam: glaisher(lam)[:-1] if lam == (2, 1) else glaisher(lam)
    )
    r = check("prop-3.1", 3)
    assert (r.status, r.details) == (
        "fail",
        {"scope": "all", "chain": "length", "values": [6, 6, 6, 5]},
    )


def test_qprime_kostka_catches_a_raised_kostka_number(monkeypatch):
    column = verify_mod._kostka_column

    def raised(mu):
        col = column(mu)
        if mu == (1, 1):
            col[(2,)] = col.get((2,), 0) + 1
        return col

    monkeypatch.setattr(verify_mod, "_kostka_column", raised)
    r = check("qprime-kostka", 4)
    assert (r.status, r.details) == ("fail", {"label": "1^4"})


def test_eta_correspondence_catches_a_raised_charge(monkeypatch):
    decompose = verify_mod.h_abacus_decompose

    def raised(lam):
        dec = decompose(lam)
        return dec._replace(charge=dec.charge + 1) if lam == (3, 1) else dec

    monkeypatch.setattr(verify_mod, "h_abacus_decompose", raised)
    r = check("eta-correspondence", 2)
    assert (r.status, r.details) == ("fail", {"missing": ["(∅,1)"], "extra": []})


def test_a_corrupted_square_expansion_turns_only_two_sign_oracle_red(cold_memo_tables, monkeypatch):
    # two-sign-oracle is the one reader of the 2-quotient expansion of
    # S_d(x^2); S_1(x^2) = S_2 - S_11, so raising the S_2 term breaks it,
    # while the closed formula for A counts domino tableaux and stays green
    expansion = verify_mod._square_expansion

    @functools.cache
    def corrupted(d):
        terms = expansion(d)
        if d == (1,):
            terms = tuple((xi, c + 1 if xi == (2,) else c) for xi, c in terms)
        return terms

    monkeypatch.setattr(verify_mod, "_square_expansion", corrupted)
    r = check("two-sign-oracle", 1)
    assert (r.status, r.details) == ("fail", {"label": "1"})
    r = check("thm-4.3", 2)
    assert (r.status, r.details) == ("pass", {"size": 2})


def test_a_negative_lr_number_is_an_internal_defect(cold_memo_tables, monkeypatch):
    # every LR column goes through tables._lr_counts and its dimension count,
    # the 2-quotient products of two-sign-oracle's expansion included; xi =
    # (2, 2) has 2-quotient ((1,), (1,)), and S_1 S_1 = S_2 + S_11, so
    # negating its S_2 tableau breaks sum_lam c^lam f^lam = 2
    tableaux = tables_mod._yamanouchi_tableaux

    def negated(nu, content, size):
        counts = tableaux(nu, content, size)
        if (nu, content, size) == ((1,), (1,), 1):
            counts[(2,)] = -counts[(2,)]
        return counts

    monkeypatch.setattr(tables_mod, "_yamanouchi_tableaux", negated)
    text = "LR column ((1,), (1,)) fails the dimension count: 0 != 2"
    with pytest.raises(ArithmeticError) as exc:
        verify_mod._core_free_quotients(2)
    assert str(exc.value) == text
    r = check("two-sign-oracle", 2)
    assert (r.status, r.details) == ("fail", {"error": f"ArithmeticError: {text}"})
    assert check("thm-4.3", 2).passed  # the closed formula reads no LR column


def test_a_negated_domino_count_is_an_internal_defect(cold_memo_tables, monkeypatch):
    # each domino column passes the class count at rho = (2^{n1} 1^{n0}):
    # S_1(x^2) = S_2 - S_11 and chi^2_2 = 1, chi^11_2 = -1, so negating the
    # S_2 count breaks sum_lam c_lam chi^lam_2 = 2 f^() f^1 = 2
    tableaux = tables_mod._yamanouchi_tableaux

    def negated(nu, content, size):
        counts = tableaux(nu, content, size)
        if (nu, content, size) == ((), (1,), 2):
            counts[(2,)] = -counts[(2,)]
        return counts

    monkeypatch.setattr(tables_mod, "_yamanouchi_tableaux", negated)
    text = "domino column ((), (1,)) fails the class count: 0 != 2"
    with pytest.raises(ArithmeticError) as exc:
        tables_mod._domino_counts((), (1,))
    assert str(exc.value) == text
    r = check("thm-4.3", 2)
    assert (r.status, r.details) == ("fail", {"error": f"ArithmeticError: {text}"})


def test_a_domino_count_the_class_count_cannot_see_is_named_by_thm_4_3(cold_memo_tables, monkeypatch):
    # chi^44_{2221^2} = 0, so a raised count at lam = (4, 4) in S_2 S_21(x^2)
    # passes the guard; d = (2, 1) = d', so S_11 S_21(x^2) is read off it by
    # omega and carries the raise, negated, at lam' = (2, 2, 2, 2).  With
    # g_{2,2} = g_{2,11} = 1 both land in column (2, 21) on two rows, and A M^T
    # misses X first at row (4, 4), key (6, 1, 1), where M[611][(2,21)] =
    # X^2_{11} chi^21_3 = -1
    tableaux = tables_mod._yamanouchi_tableaux

    def raised(nu, content, size):
        counts = tableaux(nu, content, size)
        if (nu, content, size) == ((2,), (2, 1), 2):
            counts[(4, 4)] = counts.get((4, 4), 0) + 1
        return counts

    monkeypatch.setattr(tables_mod, "_yamanouchi_tableaux", raised)
    mat = build_A(8)
    assert mat.entry((4, 4), ((2,), (2, 1))) == 1
    assert mat.entry((2, 2, 2, 2), ((2,), (2, 1))) == -1
    r = check("thm-4.3", 8)
    assert (r.status, r.details) == ("fail", {
        "row": "4^2",
        "key": "61^2",
        "expected": 0,
        "actual": -1,
        "detail": "integer expansion does not reproduce the doubled Schur function",
    })


def test_a_corrupt_searched_column_is_mirrored_and_named_by_thm_4_3(cold_memo_tables, monkeypatch):
    # len(3) < len(111), so column ((), (111)) of A_6 is read off the searched
    # column ((), (3)) by omega, as (-1)^3 times it with the rows conjugated:
    # a count raised at lam = 1^6 there reaches the derived column negated,
    # at lam' = (6), which is the row A M^T misses first, at key (6), where
    # M[6][((),111)] = chi^111_3 = 1
    domino_counts = transition_mod._domino_counts

    def raised(nu, d):
        counts = dict(domino_counts(nu, d))
        if (nu, d) == ((), (3,)):
            counts[(1,) * 6] = counts.get((1,) * 6, 0) + 1
        return counts

    monkeypatch.setattr(transition_mod, "_domino_counts", raised)
    mat = build_A(6)
    assert mat.entry((1,) * 6, ((), (3,))) == 1
    assert mat.entry((6,), ((), (1, 1, 1))) == -1
    r = check("thm-4.3", 6)
    assert (r.status, r.details) == ("fail", {
        "row": "6",
        "key": "6",
        "expected": 1,
        "actual": 0,
        "detail": "integer expansion does not reproduce the doubled Schur function",
    })


def test_a_negative_pieri_count_is_an_internal_defect(cold_memo_tables, monkeypatch):
    # Kostka numbers fold the Pieri columns of the one LR route over the
    # parts of mu (Young's rule), so each step passes the LR dimension count;
    # h_2 = S_() S_2, whose one tableau fills the empty factor into (2,):
    # negating it breaks the count binom(2, 0) f^() f^(2) = 1
    tableaux = tables_mod._yamanouchi_tableaux

    def negated(nu, content, size):
        counts = tableaux(nu, content, size)
        if (nu, content, size) == ((2,), (), 1):
            counts[(2,)] = -counts[(2,)]
        return counts

    monkeypatch.setattr(tables_mod, "_yamanouchi_tableaux", negated)
    text = "LR column ((), (2,)) fails the dimension count: -1 != 1"
    with pytest.raises(ArithmeticError) as exc:
        symfunc_mod.kostka((2,), (2,))
    assert str(exc.value) == text
    r = check("qprime-kostka", 4)
    assert (r.status, r.details) == ("fail", {"error": f"ArithmeticError: {text}"})


def test_a_negative_kostka_fold_is_an_internal_defect(cold_memo_tables, monkeypatch):
    # the fold of the Pieri columns keeps its own check, sum_nu K_{nu,mu}
    # f^nu = n! / prod mu_i!: a Pieri column that passes no count of its own
    # (h_2 = S_2 negated) still breaks the count 2!/2! = 1 of K_{., (2)}
    lr_counts = tables_mod._lr_counts

    def negated(nu, xi):
        counts = lr_counts(nu, xi)
        return {lam: -c for lam, c in counts.items()} if (nu, xi) == ((), (2,)) else counts

    monkeypatch.setattr(tables_mod, "_lr_counts", negated)
    text = "Kostka column (2,) fails the dimension count: -1 != 1"
    with pytest.raises(ArithmeticError) as exc:
        symfunc_mod.kostka((2,), (2,))
    assert str(exc.value) == text
    r = check("qprime-kostka", 4)
    assert (r.status, r.details) == ("fail", {"error": f"ArithmeticError: {text}"})


@pytest.mark.parametrize("n, size, support", [(6, 11, 65), (7, 15, 110), (8, 22, 185)])
def test_two_sign_oracle_holds_past_its_cap(n, size, support):
    r = check("two-sign-oracle", n)
    assert (r.status, r.details) == ("pass", {"size": size, "support": support})


def test_default_sweep_matches_the_benchmark_digest():
    # every report line of the default sweep but its timing, pinned by the
    # digest the benchmark checks (read only)
    baseline = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"
    full = json.loads(baseline.read_text(encoding="utf-8"))["full"]
    lines = []
    for report in check_all(max_n=14):
        doc = report.to_json_dict()
        del doc["elapsed_ms"]
        lines.append(json.dumps(doc))
    assert len(lines) == full["verify_reports"] == 121
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == full["verify_digest"]


def test_exception_inside_claim_becomes_fail_report(monkeypatch):
    def boom(n):
        raise RuntimeError("synthetic fault")

    monkeypatch.setitem(verify_mod._CLAIMS, "thm-4.6", boom)
    r = check("thm-4.6", 2)
    assert not r.passed
    assert "synthetic fault" in r.details["error"]


def test_report_is_frozen():
    r = check("thm-4.3", 1)
    assert isinstance(r, VerificationReport)
    with pytest.raises(Exception):
        r.status = "fail"


def test_an_unknown_claim_is_named_alike_by_check_and_check_all():
    text = rf"^unknown claim 'bogus'; known: {', '.join(claim_ids())}$"
    with pytest.raises(ValueError, match=text):
        check("bogus", 1)
    with pytest.raises(ValueError, match=text):
        check_all(claims=["thm-4.6", "bogus"])


def test_worker_count_is_clamped(monkeypatch):
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 4)
    one_claim = {"claims": ["thm-4.6"], "jobs": 10**6}
    assert len(check_all(max_n=2, **one_claim)) == 2  # clamped to the task count
    assert len(check_all(max_n=6, **one_claim)) == 6  # clamped to the cpu count
    check_all(max_n=6, claims=["thm-4.6"], jobs=3)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: None)
    check_all(max_n=6, **one_claim)  # unknown cpu count: one process, no pool
    assert seen == [2, 4, 3]

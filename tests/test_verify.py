"""The verification harness: reports, determinism, failure fidelity."""

import json

import pytest

import compoundbasis.verify as verify_mod
from compoundbasis.transition import (
    LabeledIntMatrix,
    build_A,
    build_A_combinatorial,
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
    reports_to_json_lines,
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


def test_caps_shape_the_sweep():
    reports = check_all(max_n=99, claims=["two-sign-oracle"])
    assert [r.n for r in reports] == list(range(1, CLAIM_CAPS["two-sign-oracle"] + 1))
    reports = check_all(max_n=99, claims=["two-sign-oracle"], caps={"two-sign-oracle": 2})
    assert [r.n for r in reports] == [1, 2]


def test_parallel_matches_sequential():
    seq = check_all(max_n=3)
    par = check_all(max_n=3, jobs=2)
    assert [_essence(r) for r in seq] == [_essence(r) for r in par]


def test_json_lines_stream():
    reports = check_all(max_n=2, claims=["thm-4.6", "cor-4.2"])
    lines = reports_to_json_lines(reports).splitlines()
    assert len(lines) == 4
    parsed = [json.loads(line) for line in lines]
    assert all(doc["status"] == "pass" for doc in parsed)


def test_failure_fidelity_names_exact_labels():
    good = build_A(4, order="paper")
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
        verify_mod, "build_Gamma", lambda n, order="canonical": _flip(build_Gamma(n), 2, 1)
    )
    r = check("stembridge-structure", 4)
    assert r.status == "fail"
    assert r.details == {
        "mismatch": "entry",
        "row": "2^2",
        "col": "31",
        "expected": 2,
        "actual": 1,
        "detail": "solve route and pairing route disagree",
    }


def test_thm_4_3_catches_a_flipped_transition_entry(monkeypatch):
    monkeypatch.setattr(
        verify_mod, "build_A", lambda n, order="canonical": _flip(build_A(n), 2, 4)
    )
    r = check("thm-4.3", 4)
    assert r.status == "fail"
    assert r.details == {
        "row": "2^2",
        "detail": "integer expansion does not reproduce the doubled Schur function",
    }


def test_thm_4_3_catches_a_flipped_closed_formula_entry(monkeypatch):
    monkeypatch.setattr(
        verify_mod,
        "build_A_combinatorial",
        lambda n, order="canonical": _flip(build_A_combinatorial(n), 2, 4),
    )
    r = check("thm-4.3", 4)
    assert r.status == "fail"
    assert r.details == {
        "mismatch": "entry",
        "row": "2^2",
        "col": "(∅,1^2)",
        "expected": 1,
        "actual": 2,
        "detail": "solver route and closed-formula route disagree",
    }


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


def test_worker_count_is_clamped(monkeypatch):
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 4)
    one_claim = {"claims": ["thm-4.6"], "jobs": 10**6}
    assert len(check_all(max_n=2, **one_claim)) == 2  # clamped to the task count
    assert len(check_all(max_n=6, **one_claim)) == 6  # clamped to the cpu count
    check_all(max_n=6, claims=["thm-4.6"], jobs=3)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: None)
    check_all(max_n=6, **one_claim)  # unknown cpu count: one process, no pool
    assert seen == [2, 4, 3]

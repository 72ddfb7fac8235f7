"""The command-line interface end to end, via main(argv)."""

import hashlib
import json

import pytest

from compoundbasis import __version__, cli
from compoundbasis.cli import CacheEntry, main
from compoundbasis.transition import BlockStructureError, matrix_from_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# matrix
# --------------------------------------------------------------------------

def test_matrix_csv_degree_one(capsys):
    code, out, err = run(capsys, "matrix", "A", "--n", "1", "--format", "csv")
    assert code == 0
    assert out == "1\n"
    assert err == ""


def test_matrix_latex_reference_layout(capsys):
    code, out, _ = run(
        capsys, "matrix", "A", "--n", "3", "--format", "latex", "--order", "paper"
    )
    assert code == 0
    assert out.splitlines() == [
        "\\bordermatrix{ & (3,\\emptyset) & (21,\\emptyset) & (1,1) \\cr",
        "  (3) & 1 & 0 & 1 \\cr",
        "  (21) & 1 & 1 & 0 \\cr",
        "  (1^3) & 1 & 0 & -1 \\cr",
        "}",
    ]


def test_matrix_json_ata_has_block_annotation(capsys):
    code, out, _ = run(
        capsys, "matrix", "AtA", "--n", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["blocks", "col_labels", "entries", "n", "row_labels"]
    assert len(doc["row_labels"]) == 5
    classes = [b["class"] for b in doc["blocks"]]
    assert classes == [[4, 0], [2, 1], [0, 2]]
    assert sum(b["size"] for b in doc["blocks"]) == 5
    # document re-parses to the in-memory matrix
    n, mat = matrix_from_json_dict(doc)
    assert n == 4 and mat.shape == (5, 5)


def test_matrix_json_a_has_exactly_four_keys(capsys):
    code, out, _ = run(capsys, "matrix", "A", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["col_labels", "entries", "n", "row_labels"]
    n, mat = matrix_from_json_dict(doc)
    assert n == 3 and mat.shape == (3, 3)


def test_matrix_block_kind(capsys):
    code, out, _ = run(
        capsys, "matrix", "block", "--n", "4", "--block", "0,2", "--format", "csv"
    )
    assert code == 0
    assert out == "3,1\n1,3\n"


def test_matrix_block_requires_valid_class(capsys):
    code, _, err = run(capsys, "matrix", "block", "--n", "4", "--block", "3,1")
    assert code == 2
    assert "block class" in err
    code, _, err = run(capsys, "matrix", "block", "--n", "4")
    assert code == 2
    assert "--block" in err


def test_internal_defect_exits_3_not_bad_input(capsys, monkeypatch):
    def defective(n, order):
        raise ArithmeticError("transition entry ((2, 2), ((), (1, 1))) came out non-integral: 1/2")

    monkeypatch.setattr(cli, "build_A", defective)
    code, out, err = run(capsys, "matrix", "A", "--n", "4")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: transition entry")

    def off_block(n):
        raise BlockStructureError(((4,), ()), ((), (2,)), 1)

    monkeypatch.setattr(cli, "blocks", off_block)
    code, _, err = run(capsys, "matrix", "block", "--n", "4", "--block", "0,2")
    assert code == 3
    assert err == "internal error: nonzero off-block entry 1 at ((4,∅), (∅,2))\n"
    # bad input is still exit 2
    code, _, err = run(capsys, "matrix", "block", "--n", "4", "--block", "3,1")
    assert code == 2 and err.startswith("error: ")


# sha256 of `matrix {A,AtA} --n N` stdout as emitted when A was still solved
# from a linear system, and of `matrix {Gamma,G} --n N` as emitted when Gamma
# was still built from Stembridge pairings of its own, pinning the bytes
# beyond the stored n = 3, 4 layouts.
EMITTED_SHA256 = {
    ("A", 5): "06456ffe2c2e0b084519829d637cbe115a1cc97aeedf5a0a8cf545f3a825a0f1",
    ("A", 6): "a2aa894a1fd6e07cb7edeebbf0da5229c903cb0d767d6cb79ab502c4ae04cdb9",
    ("A", 7): "40d0f0e8e50de0eccb8e8bf3d44c1a07b0743d1b444c2abc1afc1bee86719ee7",
    ("A", 8): "99024654cb5725160d4c4f618add219584aea6ff26c15a9f9316804460e763d1",
    ("A", 9): "f59f18454ac9c3bdf3b155d2564e819bbe65f4eb780ddfc701e8c775aae55b5a",
    ("A", 10): "6695ca8bfa28157820e89d16e56991ac62ced18bfd57726c4e3900d7c8e82887",
    ("AtA", 5): "1eaf5e9055ec152365e194f3a885a22be4011c1dbd3fc3c2ed9202fe67a04b43",
    ("AtA", 6): "8f985664772b01ff6297f474bac5d056960022fc1b88f3c509ac057950588d70",
    ("AtA", 7): "5b39d8d017562426f5b64d6a1fa3069e06265c7ffc927a46eec75055b255a38d",
    ("AtA", 8): "f8c0cdb7aed4353a67c0057403d6fcc5e794a69e07746d67fa2da0cf553435cf",
    ("AtA", 9): "7d6cff672f03587cf1e6d18371ed323b866f350de82bb735b8c28b27bcbc614d",
    ("AtA", 10): "119fef90f63d9958d467e1e5b6e39e0ce8769206eeb26a8e89b32a8807232dd6",
    ("Gamma", 5): "07dd84002ea30b7e68177bcf6abffd2c9aa019727d23e2f2a47cc581d6558045",
    ("Gamma", 6): "93bff2f572d366d9653abaae0e305ec46f7d67c81f3c403c9f4db5643d503974",
    ("Gamma", 7): "b7d04e4d0a339d2d50fa2d761f3f89b685e7d429690020bc6e54cd2109b88bfa",
    ("Gamma", 8): "2ef888a2683358501b24ae1aa4dbe088736ab1ae412af1194bfa582c4fc7ac7d",
    ("Gamma", 9): "ee891c3af620d30ac9b6123e2a45218a870ad6998fe20a413bc41bc0187e70d0",
    ("Gamma", 10): "6fa79d693394558d18cfa3421c0a81c5a0c66480df0d01c1a00f78319d10928b",
    ("G", 5): "08090c217c917acd6b11b2eeeabaa6ba1af3115f4b93ad47575047e0439a4c98",
    ("G", 6): "8c442309f440514fd9c09c4a445743fb8e1507a4d1640372323fa21d1f44bdd8",
    ("G", 7): "ec2c8de8118325ac3341f66fc63cb797e4613938f00e2fdaae07691205db01eb",
    ("G", 8): "8b3137942d96d8e2df88be5c830db96bd7320e93e4feece0292f38636683a368",
    ("G", 9): "f05def611ab12b3c2a64accfe061099dbb940e7a55b756c66fc387c977ca06b2",
    ("G", 10): "e363936fe6ad79220677de9952e3acc1447ff7aae3ef9d3a4446a493a3f58c83",
}


@pytest.mark.parametrize("kind,n", sorted(EMITTED_SHA256))
def test_matrix_json_bytes_are_pinned(capsys, kind, n):
    code, out, _ = run(capsys, "matrix", kind, "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EMITTED_SHA256[kind, n]


def test_matrix_gamma_and_g(capsys):
    code, out, _ = run(capsys, "matrix", "Gamma", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "1,0\n1,1\n1,0\n"
    code, out, _ = run(capsys, "matrix", "G", "--n", "4", "--format", "csv")
    assert code == 0
    assert out == "4,2\n2,3\n"


# --------------------------------------------------------------------------
# cache
# --------------------------------------------------------------------------

def test_cache_transparency(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path / "cache"))
    base = run(capsys, "matrix", "A", "--n", "6", "--format", "json")
    cold = run(capsys, "matrix", "A", "--n", "6", "--format", "json", "--cache")
    files = list((tmp_path / "cache").glob("*.json"))
    assert len(files) == 1
    warm = run(capsys, "matrix", "A", "--n", "6", "--format", "json", "--cache")
    assert base == cold == warm
    # the stored entry carries a verifying checksum
    doc = json.loads(files[0].read_text())
    entry = CacheEntry(doc["key"], doc["checksum"], doc["payload"])
    assert entry.verified_payload() == doc["payload"]
    assert entry.key == f"{__version__}:A:6:canonical"


def test_cache_ignores_entries_of_other_versions(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    fresh = run(capsys, "matrix", "A", "--n", "5")
    doctored = json.loads(fresh[1])
    doctored["entries"][0][0] = "999"
    for stale_key in ("A:5:canonical", "0.0.0:A:5:canonical"):
        cli._cache_store(stale_key, doctored)
    assert run(capsys, "matrix", "A", "--n", "5", "--cache") == fresh
    # the same entry under this version's key is served: the check above can fail
    cli._cache_store(f"{__version__}:A:5:canonical", doctored)
    assert run(capsys, "matrix", "A", "--n", "5", "--cache") != fresh


def test_cache_corruption_falls_back_to_recompute(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    first = run(capsys, "matrix", "G", "--n", "5", "--format", "csv", "--cache")
    [path] = list(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    doc["payload"]["entries"][0][0] = "999"
    path.write_text(json.dumps(doc))
    second = run(capsys, "matrix", "G", "--n", "5", "--format", "csv", "--cache")
    assert first == second


def test_cache_distinguishes_orders(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    run(capsys, "matrix", "A", "--n", "4", "--cache")
    run(capsys, "matrix", "A", "--n", "4", "--order", "paper", "--cache")
    assert len(list(tmp_path.glob("*.json"))) == 2


# --------------------------------------------------------------------------
# decompose
# --------------------------------------------------------------------------

def test_decompose_habacus_worked_example(capsys):
    code, out, _ = run(capsys, "decompose", "habacus", "11,10,5,3,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["core"] == [3]
    assert doc["shifted0"] == [5, 1]
    assert doc["quotient1"] == [3, 1]
    assert doc["charge"] == -1


def test_decompose_phi_exponent_syntax(capsys):
    code, out, _ = run(capsys, "decompose", "phi", "5^3,4^4,2^7,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == [5, 2, 1]
    assert doc["d"] == [5, 4, 4, 2, 2, 2]


def test_decompose_psi_glaisher_2quot(capsys):
    code, out, _ = run(capsys, "decompose", "psi", "4,3,2")
    doc = json.loads(out)
    assert (code, doc["odd"], doc["halved_even"]) == (0, [3], [2, 1])
    code, out, _ = run(capsys, "decompose", "glaisher", "1")
    assert code == 0 and json.loads(out)["image"] == [1]
    code, out, _ = run(capsys, "decompose", "2quot", "2,1,1")
    doc = json.loads(out)
    assert code == 0
    assert doc["sign"] in (-1, 1)
    assert sum(doc["core2"]) + 2 * (sum(doc["q0"]) + sum(doc["q1"])) == 4


def test_decompose_empty_partition(capsys):
    code, out, _ = run(capsys, "decompose", "habacus", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "map": "habacus",
        "input": [],
        "core": [],
        "shifted0": [],
        "quotient1": [],
        "charge": 0,
    }


def test_decompose_precondition_violation_exits_2(capsys):
    code, out, err = run(capsys, "decompose", "glaisher", "2,2")
    assert code == 2
    assert out == ""
    assert "strict" in err
    code, _, err = run(capsys, "decompose", "habacus", "3,3")
    assert code == 2
    code, _, err = run(capsys, "decompose", "phi", "1,2")
    assert code == 2
    assert "error" in err


# --------------------------------------------------------------------------
# expand
# --------------------------------------------------------------------------

def test_expand_text_conventions(capsys):
    code, out, _ = run(capsys, "expand", "Q", "2,1", "--vars", "t-q")
    assert code == 0
    assert out == "1/6*t1^3 - 2*t3\n"
    code, out, _ = run(capsys, "expand", "S", "1,1,1", "--vars", "t-schur")
    assert out == "1/6*t1^3 - t1*t2 + t3\n"
    code, out, _ = run(capsys, "expand", "W", "2,1")
    assert out == "4/3*p1^3 - 4/3*p3\n"
    code, out, _ = run(capsys, "expand", "S", "-")
    assert out == "1\n"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "p", "2,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "p"
    assert doc["partition"] == [2, 1]
    assert doc["terms"] == [{"key": [2, 1], "num": "1", "den": "1"}]


def test_expand_families_agree_with_library(capsys):
    from compoundbasis.symfunc import SymFunc, q_prime

    code, out, _ = run(capsys, "expand", "Qprime", "2,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert SymFunc.from_json_obj(doc["terms"]) == q_prime((2, 2))


def test_expand_precondition_violation(capsys):
    code, _, err = run(capsys, "expand", "Q", "2,2")
    assert code == 2
    assert "strict" in err


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_single_claim_stream(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "thm-4.6", "--max-n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    docs = [json.loads(line) for line in lines]
    assert [d["n"] for d in docs] == list(range(1, 7))
    assert all(d["status"] == "pass" for d in docs)


def test_verify_all_trivial_degree(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "1")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert all(d["status"] == "pass" for d in docs)
    assert sorted({d["claim_id"] for d in docs}) == [
        "cor-4.2",
        "eta-correspondence",
        "frobenius",
        "golden-matrices",
        "prop-3.1",
        "prop-4.1",
        "prop-4.9",
        "qprime-kostka",
        "stembridge-structure",
        "thm-4.3",
        "thm-4.5-via-formula",
        "thm-4.6",
        "thm-4.8",
        "two-sign-oracle",
    ]


def test_verify_claim_subset_with_jobs(capsys):
    code, out, _ = run(
        capsys, "verify", "--claims", "cor-4.2,thm-4.6", "--max-n", "3", "--jobs", "2"
    )
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert [(d["claim_id"], d["n"]) for d in docs] == [
        ("cor-4.2", 1),
        ("cor-4.2", 2),
        ("cor-4.2", 3),
        ("thm-4.6", 1),
        ("thm-4.6", 2),
        ("thm-4.6", 3),
    ]


def test_verify_unknown_claim_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--claims", "nope")
    assert code == 2
    assert "unknown claim" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-n", "0"],
        ["--max-n", "-2"],
        ["--claims", ","],
        ["--jobs", "0"],
        ["--jobs", "-3"],
    ],
)
def test_verify_empty_sweep_or_bad_jobs_exits_2(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "error" in err

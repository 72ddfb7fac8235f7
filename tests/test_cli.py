"""The command-line interface end to end, via main(argv)."""

import atexit
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compoundbasis.labeled as labeled_mod
import compoundbasis.partitions as partitions_mod
import compoundbasis.symfunc as symfunc_mod
import compoundbasis.tables as tables_mod
import compoundbasis.transition as transition_mod
import compoundbasis.verify as verify_mod
from compoundbasis import __version__, cli
from compoundbasis.cli import main
from compoundbasis.labeled import matrix_from_json_dict, matrix_to_json_dict
from compoundbasis.transition import blocks, build_A


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_compute(*args):
    raise AssertionError("a cache hit computed the matrix")


def cache_key(kind_n_order: str) -> str:
    """The cache key this checkout writes for ``kind:n:order``."""
    return f"{cli._source_digest()}:{kind_n_order}"


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


@pytest.mark.parametrize("cls", ["a,b", "1", "1,2,3", "2.0,1"])
def test_a_block_class_that_is_not_two_integers_exits_2(capsys, cls):
    code, out, err = run(capsys, "matrix", "block", "--n", "4", "--block", cls)
    assert (code, out) == (2, "")
    assert err == f"error: block class must look like 'n0,n1', got {cls!r}\n"


@pytest.mark.parametrize("kind", ["A", "Gamma", "G", "AtA"])
def test_block_option_is_bad_input_for_other_kinds(capsys, tmp_path, monkeypatch, kind):
    # a class selector means nothing to these kinds, so neither the emitted
    # matrix nor a cache entry keyed on the selector may appear
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    code, out, err = run(capsys, "matrix", kind, "--n", "3", "--block", "9,9", "--cache")
    assert (code, out) == (2, "")
    assert err == "error: --block n0,n1 goes with kind 'block' and with no other kind\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [3, 4])
def test_matrix_block_paper_order_is_canonical(capsys, n):
    # every block at the stored degrees already lists its labels in paper order
    for n0, n1 in blocks(n):
        argv = ["matrix", "block", "--n", str(n), "--block", f"{n0},{n1}"]
        assert run(capsys, *argv, "--order", "paper") == run(capsys, *argv)


@pytest.mark.parametrize(
    "argv", [["A"], ["Gamma"], ["G"], ["AtA"], ["block", "--block", "0,0"]]
)
def test_matrix_degree_zero_exits_2(capsys, argv):
    code, out, err = run(capsys, "matrix", *argv, "--n", "0")
    assert code == 2
    assert out == ""
    assert err == "error: degree n must be >= 1, got 0\n"


def test_internal_defect_exits_3_not_bad_input(capsys, monkeypatch, cold_memo_tables):
    def defective(n):
        raise ArithmeticError("transition entry ((2, 2), ((), (1, 1))) came out non-integral: 1/2")

    monkeypatch.setattr(transition_mod, "build_A", defective)
    code, out, err = run(capsys, "matrix", "A", "--n", "4")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: transition entry")

    # a wrong Green value leaves a remainder in the exact division of a Gram entry
    table, mask = tables_mod._bar_column, tables_mod._part_mask((2, 1))

    @functools.cache
    def corrupted(sigma):
        col = dict(table(sigma))
        if sigma == (3,):
            col[mask] = -col[mask]
        return col

    monkeypatch.setattr(tables_mod, "_bar_column", corrupted)
    code, _, err = run(capsys, "matrix", "block", "--n", "3", "--block", "3,0")
    assert code == 3
    assert err.startswith("internal error: Gram entry")
    # bad input is still exit 2
    code, _, err = run(capsys, "matrix", "block", "--n", "4", "--block", "3,1")
    assert code == 2 and err.startswith("error: ")


def test_a_value_error_past_the_input_checks_exits_3(capsys, monkeypatch, cold_memo_tables):
    # a builder whose labels miss one column: the codec's ValueError is the
    # package's fault, since `matrix` has checked its input before building
    real = transition_mod.canonical_pairs
    monkeypatch.setattr(transition_mod, "canonical_pairs", lambda n: real(n)[:-1])
    assert run(capsys, "matrix", "A", "--n", "5") == (
        3, "", "internal error: column count does not match column labels\n"
    )


def test_out_of_memory_exits_5_not_a_failed_identity(capsys, monkeypatch, cold_memo_tables):
    # a builder that runs out of memory, raised by a patch (never for real):
    # neither a failed verification (1) nor an internal defect (3); the
    # sweep stops at the claim, so no report is printed, not even prop-3.1's
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(transition_mod, "build_A", exhausted)
    assert run(capsys, "matrix", "A", "--n", "4") == (5, "", "error: out of memory\n")
    monkeypatch.setattr(verify_mod, "build_A", exhausted)
    with pytest.raises(MemoryError):
        verify_mod.check("thm-4.6", 3)
    argv = ["verify", "--claims", "prop-3.1,thm-4.6", "--max-n", "3"]
    assert run(capsys, *argv) == (5, "", "error: out of memory\n")


# sha256 of `matrix {A,AtA} --n N` stdout as emitted when A was still solved
# from a linear system, and of `matrix {Gamma,G} --n N` as emitted when Gamma
# was still built from Stembridge pairings of its own, pinning the bytes
# beyond the stored n = 3, 4 layouts.  `matrix A --n 12/14` are as emitted
# when the character table was still filled entry by entry by `character`.
# `matrix A --n 16` is as emitted when each column of A was still summed over
# the Fraction product V_mu = P_{mu_r}(x) S_{mu_d}(x^2).  `matrix AtA --n
# 12/14/16` and `matrix G --n 14/16` are as emitted when both were still the
# full product of A, or of Gamma, with its own transpose.  `matrix Gamma --n
# 12/14/16` and `matrix G --n 12` are as emitted when Gamma was still cut out
# of the whole of A and G out of every block.
EMITTED_SHA256 = {
    ("A", 5): "06456ffe2c2e0b084519829d637cbe115a1cc97aeedf5a0a8cf545f3a825a0f1",
    ("A", 6): "a2aa894a1fd6e07cb7edeebbf0da5229c903cb0d767d6cb79ab502c4ae04cdb9",
    ("A", 7): "40d0f0e8e50de0eccb8e8bf3d44c1a07b0743d1b444c2abc1afc1bee86719ee7",
    ("A", 8): "99024654cb5725160d4c4f618add219584aea6ff26c15a9f9316804460e763d1",
    ("A", 9): "f59f18454ac9c3bdf3b155d2564e819bbe65f4eb780ddfc701e8c775aae55b5a",
    ("A", 10): "6695ca8bfa28157820e89d16e56991ac62ced18bfd57726c4e3900d7c8e82887",
    ("A", 12): "c289370c5c2efc65f753273a9d54c36b2e31aae338daa673ecacaa40e57dec96",
    ("A", 14): "bc03663fbc8c0e2e10c7ae756cecf714701a4957d5c4860ae83f7def6de01369",
    ("A", 16): "fc46158fc3aed0397b22e54cb8d613ae55e50784572526957d1b96f34dd10d76",
    ("AtA", 5): "1eaf5e9055ec152365e194f3a885a22be4011c1dbd3fc3c2ed9202fe67a04b43",
    ("AtA", 6): "8f985664772b01ff6297f474bac5d056960022fc1b88f3c509ac057950588d70",
    ("AtA", 7): "5b39d8d017562426f5b64d6a1fa3069e06265c7ffc927a46eec75055b255a38d",
    ("AtA", 8): "f8c0cdb7aed4353a67c0057403d6fcc5e794a69e07746d67fa2da0cf553435cf",
    ("AtA", 9): "7d6cff672f03587cf1e6d18371ed323b866f350de82bb735b8c28b27bcbc614d",
    ("AtA", 10): "119fef90f63d9958d467e1e5b6e39e0ce8769206eeb26a8e89b32a8807232dd6",
    ("AtA", 12): "44df0e6da861d0dfab836b39190bf5dc94092a41e3a1a600501c1149aa80852d",
    ("AtA", 14): "e08886b8e7414ba7e5d6852fbcf1d361065683ea003f64dfca8514f4d698275f",
    ("AtA", 16): "087caf2f90c5362645e0353d9ac59bdbdc7dbe82de4566b8e25e37507aa1f850",
    ("Gamma", 5): "07dd84002ea30b7e68177bcf6abffd2c9aa019727d23e2f2a47cc581d6558045",
    ("Gamma", 6): "93bff2f572d366d9653abaae0e305ec46f7d67c81f3c403c9f4db5643d503974",
    ("Gamma", 7): "b7d04e4d0a339d2d50fa2d761f3f89b685e7d429690020bc6e54cd2109b88bfa",
    ("Gamma", 8): "2ef888a2683358501b24ae1aa4dbe088736ab1ae412af1194bfa582c4fc7ac7d",
    ("Gamma", 9): "ee891c3af620d30ac9b6123e2a45218a870ad6998fe20a413bc41bc0187e70d0",
    ("Gamma", 10): "6fa79d693394558d18cfa3421c0a81c5a0c66480df0d01c1a00f78319d10928b",
    ("Gamma", 12): "77918bc31f2528bf539bf6c8964149fcaa2860b06c332b63f6884e04e24ffc05",
    ("Gamma", 14): "16149dc1ff224a3ae1d9fc228e51c8bdb9aa0bf028afae7b75789a9bc8745ca9",
    ("Gamma", 16): "c5ff6a69193709319227489e463b017c9ed2077fb6dc2f62587c14a7f7946956",
    ("G", 5): "08090c217c917acd6b11b2eeeabaa6ba1af3115f4b93ad47575047e0439a4c98",
    ("G", 6): "8c442309f440514fd9c09c4a445743fb8e1507a4d1640372323fa21d1f44bdd8",
    ("G", 7): "ec2c8de8118325ac3341f66fc63cb797e4613938f00e2fdaae07691205db01eb",
    ("G", 8): "8b3137942d96d8e2df88be5c830db96bd7320e93e4feece0292f38636683a368",
    ("G", 9): "f05def611ab12b3c2a64accfe061099dbb940e7a55b756c66fc387c977ca06b2",
    ("G", 10): "e363936fe6ad79220677de9952e3acc1447ff7aae3ef9d3a4446a493a3f58c83",
    ("G", 12): "8799821290c772619239531bc9e181c5cf9d65d17686ec80ca7d034b4c9d18d7",
    ("G", 14): "4691c52533d0cef357f4f4864b44934b812bb8c3e69df3c3b7eb8f2dc924fa0f",
    ("G", 16): "06c6b568827da7fffc54b03498710ce6e5e07ae69e1f45cd2b8cfb97ac56eeff",
}


@pytest.mark.parametrize("kind,n", sorted(EMITTED_SHA256))
def test_matrix_json_bytes_are_pinned(capsys, kind, n):
    code, out, _ = run(capsys, "matrix", kind, "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EMITTED_SHA256[kind, n]


# sha256 of `matrix block --n N --block n0,n1` stdout as emitted when each
# block was still cut out of the full product of A with its own transpose.
BLOCK_SHA256 = {
    (16, "0,8"): "04d1e5b1c495670d9b6817b63fa06768ca81636ed9c4c76200310a0194f09e20",
    (12, "4,4"): "d5289881ccd9ccd06749fe782afc19e22e9eb8d3b3aaf30b7024e224bf7294ac",
}


@pytest.mark.parametrize("n,cls", sorted(BLOCK_SHA256))
def test_matrix_block_bytes_are_pinned(capsys, n, cls):
    code, out, _ = run(capsys, "matrix", "block", "--n", str(n), "--block", cls)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BLOCK_SHA256[n, cls]


# sha256 of `matrix {Gamma,G} --n N --order paper --format json` stdout as
# emitted when each builder still took an order argument of its own.
PAPER_SHA256 = {
    ("Gamma", 3): "937fca3132ea3655bf1652a326021a6d5980cf0b6320b93569a311695da4cd93",
    ("Gamma", 4): "4d700e7186a4913f5b90278ad39fa0b0ea0832ab403174e9a8625e173d520d35",
    ("G", 3): "e17347b233d404fb7fa06149d46c22938634006ace0dadaeada868f482718bf9",
    ("G", 4): "5a9db7e00efde8b950950debdd35f00707a67557977e463863616105e7015624",
}


@pytest.mark.parametrize("kind,n", sorted(PAPER_SHA256))
def test_matrix_paper_order_bytes_are_pinned(capsys, kind, n):
    code, out, _ = run(capsys, "matrix", kind, "--n", str(n), "--order", "paper")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PAPER_SHA256[kind, n]


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 1, "row_labels": [[1]], "col_labels": [[[1], []]], "entries": [["1"]]},
        {"n": 2, "row_labels": [[2], [1, 1]], "col_labels": [], "entries": [[], []]},
        {"n": 3, "row_labels": [], "col_labels": [], "entries": []},
        {"n": 2, "entries": [["-10", "0"], ["0", "3"]], "blocks": [{"class": [2, 0], "size": 1}]},
    ],
)
def test_the_json_emitter_lays_out_as_json_dumps_indent_2(doc):
    # the pinned digests cover real matrices; these cover empty fields
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


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
    # the stored entry carries the printed text and a checksum of its bytes
    text = warm[1].removesuffix("\n").encode()
    entry = json.loads(files[0].read_bytes())
    assert entry == {
        "key": cache_key("A:6:canonical"),
        "checksum": hashlib.sha256(text).hexdigest(),
        "payload": json.loads(text),
    }


def test_concurrent_writers_of_one_key_leave_one_whole_entry(tmp_path, monkeypatch, capsys):
    # a second writer stores the same key while the first is still writing
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    key, text = cache_key("A:3:canonical"), run(capsys, "matrix", "A", "--n", "3")[1][:-1]
    real_open = open
    interleaved = []

    def open_after_a_second_writer(path, mode="r", **kwargs):
        fh = real_open(path, mode, **kwargs)
        if mode == "x" and not interleaved:  # the entry's temp file, open
            interleaved.append(path)
            cli._cache_store(key, text)
        return fh

    monkeypatch.setattr(cli, "open", open_after_a_second_writer, raising=False)
    code, out, err = run(capsys, "matrix", "A", "--n", "3", "--cache")
    assert (code, err, out) == (0, "", text + "\n")
    assert len(interleaved) == 1
    files = list(tmp_path.iterdir())
    assert [f.suffix for f in files] == [".json"]
    doc = json.loads(files[0].read_text())
    assert doc["key"] == key
    assert cli._cache_load(key, 3) == (json.loads(out), text)  # checksum and shape verify


def test_the_cache_entry_is_key_checksum_and_the_stored_text(tmp_path, monkeypatch):
    # json.dumps's layout of {"key", "checksum", "payload"} with the text
    # verbatim as the payload and the checksum over the text's bytes
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    key = cache_key("A:4:canonical")
    text = json.dumps(matrix_to_json_dict(build_A(4), 4), indent=2)
    cli._cache_store(key, text)
    [path] = list(tmp_path.glob("*.json"))
    checksum = hashlib.sha256(text.encode()).hexdigest()
    head = json.dumps({"key": key, "checksum": checksum, "payload": None})[:-len("null}")]
    assert path.read_bytes() == f"{head}{text}}}".encode()


def test_the_cache_format_number_pins_the_document_layout():
    # a hit serves the stored document verbatim, so the layout that
    # matrix_to_json_dict writes is part of the cache format (the key changes
    # with the source of labeled, which writes it)
    text = (
        '{"n": 3, "row_labels": [[3], [2, 1], [1, 1, 1]], '
        '"col_labels": [[[3], []], [[2, 1], []], [[1], [1]]], '
        '"entries": [["1", "0", "1"], ["1", "1", "0"], ["1", "0", "-1"]]}'
    )
    layout = json.dumps(matrix_to_json_dict(build_A(3), 3))
    assert layout == text, "the matrix document's layout changed: pin the new text here"


def test_cache_ignores_entries_of_other_versions(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    fresh = run(capsys, "matrix", "A", "--n", "5")
    doctored = json.loads(fresh[1])
    doctored["entries"][0][0] = "999"
    stale_keys = (
        "A:5:canonical",
        "0.0.0:A:5:canonical",
        "0.0.0:1:A:5:canonical",  # another version, format 1
        f"{__version__}:A:5:canonical",  # this version, before the format tag
        f"{__version__}:1:A:5:canonical",  # this version and format 1, before the source digest
        f"{__version__}:2:A:5:canonical",  # this version, another format
    )
    for stale_key in stale_keys:
        cli._cache_store(stale_key, json.dumps(doctored, indent=2))
    assert run(capsys, "matrix", "A", "--n", "5", "--cache") == fresh
    # the same entry under this checkout's key is served: the check above can fail
    cli._cache_store(cache_key("A:5:canonical"), json.dumps(doctored, indent=2))
    assert run(capsys, "matrix", "A", "--n", "5", "--cache") != fresh


def test_a_source_edit_makes_the_next_run_miss(tmp_path):
    # the same command through a copy of the package one comment line apart
    # computes and stores a second entry instead of serving the first
    cache = tmp_path / "cache"
    env = dict(_child_env(), COMPOUND_CACHE_DIR=str(cache))
    argv = [sys.executable, "-m", "compoundbasis.cli", "matrix", "A", "--n", "5", "--cache"]
    first = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (first.returncode, first.stderr, len(list(cache.iterdir()))) == (0, "", 1)
    copy = tmp_path / "src" / "compoundbasis"
    shutil.copytree(Path(cli.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "tables.py", "a", encoding="utf-8") as fh:
        fh.write("# one comment line\n")
    env["PYTHONPATH"] = str(copy.parent)
    second = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (second.returncode, second.stderr, second.stdout) == (0, "", first.stdout)
    assert len(list(cache.iterdir())) == 2


def test_cache_corruption_falls_back_to_recompute(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    first = run(capsys, "matrix", "G", "--n", "5", "--format", "csv", "--cache")
    [path] = list(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    doc["payload"]["entries"][0][0] = "999"
    path.write_text(json.dumps(doc))
    second = run(capsys, "matrix", "G", "--n", "5", "--format", "csv", "--cache")
    assert first == second


def test_cache_entry_that_is_not_a_matrix_is_recomputed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    fresh = run(capsys, "matrix", "A", "--n", "3")
    key = cache_key("A:3:canonical")
    doc = json.loads(fresh[1])
    ragged = dict(doc, entries=[*doc["entries"][:-1], doc["entries"][-1][:-1]])
    short = dict(doc, entries=doc["entries"][:-1])
    wrong_n = dict(doc, n=4)
    integers = dict(doc, entries=[[int(v) for v in row] for row in doc["entries"]])
    reordered = {k: doc[k] for k in reversed(list(doc))}
    payloads = (
        {"n": 3, "col_labels": [], "entries": []}, [], "A3",
        ragged, short, wrong_n, integers, reordered,
    )
    for payload in payloads:
        # a valid checksum over a non-matrix
        cli._cache_store(key, json.dumps(payload, indent=2))
        assert run(capsys, "matrix", "A", "--n", "3", "--cache") == fresh
    # the untouched document under the same key is served: the checks above can fail
    cli._cache_store(key, json.dumps(doc, indent=2))
    monkeypatch.setattr(cli, "_compute_matrix", no_compute)
    assert run(capsys, "matrix", "A", "--n", "3", "--cache") == fresh


def test_edited_payload_bytes_under_the_old_checksum_are_recomputed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    fresh = run(capsys, "matrix", "A", "--n", "4", "--cache")
    [path] = list(tmp_path.glob("*.json"))
    entry = path.read_bytes()
    edits = (
        entry.replace(b'"-1"', b'"-2"', 1),  # one entry, still a matrix document
        entry.replace(b'\n  "n"', b'\n   "n"', 1),  # layout only: the same document
        entry[:-1] + b"\n}",  # a byte after the payload
    )
    for edited in edits:
        assert edited != entry
        path.write_bytes(edited)
        assert run(capsys, "matrix", "A", "--n", "4", "--cache") == fresh
        assert path.read_bytes() == entry  # rewritten whole


def test_a_checksummed_text_that_is_not_the_asked_matrix_is_recomputed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    fresh = run(capsys, "matrix", "A", "--n", "3", "--cache")
    [path] = list(tmp_path.glob("*.json"))
    entry = path.read_bytes()
    four = run(capsys, "matrix", "A", "--n", "4")[1][:-1]
    for text in ("", "not json", four, fresh[1][:-1] + " []", fresh[1][:-1] + "}"):
        cli._cache_store(cache_key("A:3:canonical"), text)  # checksum valid
        assert run(capsys, "matrix", "A", "--n", "3", "--cache") == fresh
        assert path.read_bytes() == entry


@pytest.fixture
def encoder_calls(monkeypatch):
    """The names of the document builder and the json encoder, in the order
    the runs of a test call them."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    spy(labeled_mod, "matrix_to_json_dict")
    spy(cli, "_json_text")
    return calls


def test_a_json_hit_prints_the_stored_bytes_without_encoding(
    tmp_path, monkeypatch, capsys, encoder_calls
):
    # the stored text is served as it is: a compact layout stored under this
    # checkout's key comes back compact, so no encoder ran on the hit
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    stored = json.dumps(matrix_to_json_dict(build_A(5), 5))
    cli._cache_store(cache_key("A:5:canonical"), stored)
    monkeypatch.setattr(cli, "_compute_matrix", no_compute)
    assert run(capsys, "matrix", "A", "--n", "5", "--cache") == (0, stored + "\n", "")
    assert encoder_calls == []


def test_an_ata_json_miss_encodes_once_and_its_hit_encodes_nothing(
    tmp_path, monkeypatch, capsys, encoder_calls
):
    # AtA appends its blocks to the one encoded text: the miss encodes the
    # document once, and the hit prints the stored text with blocks appended
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    miss = run(capsys, "matrix", "AtA", "--n", "5", "--cache")
    assert encoder_calls == ["matrix_to_json_dict", "_json_text"]
    encoder_calls.clear()
    monkeypatch.setattr(cli, "_compute_matrix", no_compute)
    assert run(capsys, "matrix", "AtA", "--n", "5", "--cache") == miss
    assert encoder_calls == []
    assert miss[0] == 0 and miss[1] == json.dumps(json.loads(miss[1]), indent=2) + "\n"


def test_an_ata_hit_appends_its_blocks_to_a_compact_stored_text(tmp_path, monkeypatch, capsys):
    # the blocks go before the stored text's closing brace, whatever its layout
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    plain = json.loads(run(capsys, "matrix", "AtA", "--n", "5")[1])
    doc = {key: plain[key] for key in ("n", "row_labels", "col_labels", "entries")}
    cli._cache_store(cache_key("AtA:5:canonical"), json.dumps(doc))
    monkeypatch.setattr(cli, "_compute_matrix", no_compute)
    code, out, err = run(capsys, "matrix", "AtA", "--n", "5", "--cache")
    assert (code, err) == (0, "")
    assert json.loads(out) == plain == dict(doc, blocks=plain["blocks"])


def test_cache_distinguishes_orders(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    run(capsys, "matrix", "A", "--n", "4", "--cache")
    run(capsys, "matrix", "A", "--n", "4", "--order", "paper", "--cache")
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cache_shares_the_canonical_entry_without_a_stored_layout(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    canonical = run(capsys, "matrix", "A", "--n", "5", "--cache")
    paper = run(capsys, "matrix", "A", "--n", "5", "--order", "paper", "--cache")
    assert paper == canonical
    [path] = list(tmp_path.glob("*.json"))
    assert json.loads(path.read_text())["key"] == cache_key("A:5:canonical")


MATRIX_CASES = [
    [kind, "--n", str(n), "--format", fmt, "--order", order]
    for n in range(1, 7)
    for kind in ("A", "Gamma", "G", "AtA")
    for fmt in ("json", "csv", "latex")
    for order in ("canonical", "paper")
] + [
    ["block", "--n", str(n), "--block", f"{n - 2 * n1},{n1}", "--format", fmt, "--order", order]
    for n in range(1, 7)
    for n1 in range(n // 2 + 1)
    for fmt in ("json", "csv", "latex")
    for order in ("canonical", "paper")
]


@pytest.mark.parametrize("argv", MATRIX_CASES, ids=" ".join)
def test_plain_miss_and_hit_emit_the_same_bytes(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    plain = run(capsys, "matrix", *argv)
    miss = run(capsys, "matrix", *argv, "--cache")
    assert len(list(tmp_path.glob("*.json"))) == 1
    monkeypatch.setattr(cli, "_compute_matrix", no_compute)
    hit = run(capsys, "matrix", *argv, "--cache")
    assert plain[0] == 0 and plain[2] == ""
    assert plain == miss == hit


def test_unusable_cache_directory_is_bad_input(tmp_path, monkeypatch, capsys):
    # a regular file where the cache directory should be: exit 2, nothing printed
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(blocker))
    code, out, err = run(capsys, "matrix", "A", "--n", "3", "--cache")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cache directory '{blocker}' is not usable: ")


def test_a_failed_cache_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    # the disk fills up halfway through the entry
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    real_open = open

    def open_on_a_full_disk(path, mode="r", **kwargs):
        fh = real_open(path, mode, **kwargs)
        if mode == "x":  # the entry's temp file

            def write(text):
                type(fh).write(fh, text[: len(text) // 2])
                raise OSError(28, "No space left on device")

            fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", open_on_a_full_disk, raising=False)
    code, out, err = run(capsys, "matrix", "A", "--n", "3", "--cache")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cache directory '{tmp_path}' is not usable: ")
    assert list(tmp_path.iterdir()) == []


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a sweep with --jobs > 1 needs concurrent.futures
    code = "import sys, compoundbasis.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_a_closed_pipe_exits_4_without_a_traceback():
    # A_14 is 224 KB of json, more than a 64 KiB pipe buffer holds, so the run
    # is still writing when the reader closes its end after the first line
    argv = [sys.executable, "-m", "compoundbasis.cli", "matrix", "A", "--n", "14"]
    with subprocess.Popen(
        argv, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (4, "")


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["matrix", "A", "--n", "3"], 0, ""),
        (["matrix", "A", "--n", "0"], 2, "error: degree n must be >= 1, got 0\n"),
    ],
)
def test_exit_codes_through_the_module_entry_point(capsys, argv, code, err):
    done = subprocess.run(
        [sys.executable, "-m", "compoundbasis.cli", *argv],
        env=_child_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
    assert (done.returncode, done.stderr) == (code, err)


def test_a_profiled_module_run_still_prints_its_stats():
    # the entry point ends the process from an exit handler, after a profiler
    # wrapped around the module has printed what it measured
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "compoundbasis.cli", "matrix", "A", "--n", "3"],
        env=_child_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    document, stats = done.stdout.split("\n}\n", 1)
    assert json.loads(document + "}")["n"] == 3
    assert " function calls " in stats and "(_cmd_matrix)" in stats


# A fresh interpreter with automatic collection off leaves one object in a
# reference cycle whose finalizer writes to stderr, then runs a command the
# way each entry point does: only a shutdown collection would finalize it.
_CYCLE_THEN_COMMAND = """
import gc, sys
gc.disable()

class Loud:
    def __del__(self):
        sys.stderr.write("collected at exit\\n")

loud = Loud()
loud.self = loud
del loud
sys.argv = ["compoundbasis", "decompose", "phi", "2,1"]
"""
_ENTRY_POINTS = {
    "python -m": "import runpy; runpy.run_module('compoundbasis.cli', run_name='__main__')",
    "console script": "from compoundbasis.cli import entry; sys.exit(entry())",
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_a_cli_process_exits_without_collecting_its_heap(entry):
    done = subprocess.run(
        [sys.executable, "-c", _CYCLE_THEN_COMMAND + _ENTRY_POINTS[entry]],
        env=_child_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["r"] == [2, 1]


def test_main_in_process_registers_no_exit_handler(capsys):
    # only the entry point ends the process early, so a caller that goes on
    # running main (a test suite, the benchmark's stage runner) exits as it
    # would without it, and keeps collecting its own garbage meanwhile
    handlers, enabled = atexit._ncallbacks(), gc.isenabled()
    for argv in (["decompose", "phi", "2,1"], ["matrix", "A", "--n", "0"]):
        run(capsys, *argv)
        assert atexit._ncallbacks() == handlers
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() is enabled


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
    code, out, err = run(capsys, "decompose", "phi", "3^-2,1")
    assert (code, out) == (2, "")
    assert err == "error: exponents must be nonnegative, got '3^-2'\n"


def test_decompose_checks_strictness_with_the_maps_own_texts(capsys):
    assert run(capsys, "decompose", "glaisher", "2,2") == (
        2, "", "error: glaisher expects a strict partition, got (2, 2)\n"
    )
    assert run(capsys, "decompose", "habacus", "3,3") == (
        2, "", "error: abacus expects a strict partition, got (3, 3)\n"
    )


def test_decompose_a_value_error_past_the_input_check_exits_3(capsys, monkeypatch):
    # `decompose` checks its partition before mapping it, so a map's
    # ValueError is the package's fault
    def defective(lam):
        raise ValueError("a defect")

    monkeypatch.setattr(partitions_mod, "two_core_quotient", defective)
    assert run(capsys, "decompose", "2quot", "2,1") == (3, "", "internal error: a defect\n")


@pytest.mark.parametrize("command", ["decompose phi", "expand S"])
@pytest.mark.parametrize("exponent", [2**63, 2**60])
def test_an_exponent_past_the_address_space_is_bad_input(capsys, command, exponent):
    # [1] * 2^63 overflows an index and [1] * 2^60 is refused before any
    # allocation: each is the user's input, so exit 2 naming the token
    token = f"1^{exponent}"
    code, out, err = run(capsys, *command.split(), token)
    assert (code, out) == (2, "")
    assert err == f"error: exponent too large to expand, got {token!r}\n"


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
    from compoundbasis.symfunc import q_prime

    code, out, _ = run(capsys, "expand", "Qprime", "2,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == q_prime((2, 2)).to_json_obj()


def test_expand_precondition_violation(capsys):
    code, _, err = run(capsys, "expand", "Q", "2,2")
    assert code == 2
    assert "strict" in err


def test_expand_a_value_error_past_the_input_check_exits_3(capsys, monkeypatch):
    # `expand` checks its partition before building, so a builder's
    # ValueError is the package's fault
    def defective(lam):
        raise ValueError("a defect")

    monkeypatch.setattr(symfunc_mod, "schur", defective)
    assert run(capsys, "expand", "S", "2,1") == (3, "", "internal error: a defect\n")


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


def test_verify_a_value_error_inside_a_claim_is_a_failing_report(capsys, monkeypatch):
    # check_all rejects bad --claims, --jobs and an empty sweep before any
    # claim runs, and check turns every exception but MemoryError into a
    # failing report: so a ValueError from a builder is exit 1, not bad input
    def defect(n):
        raise ValueError("defect")

    monkeypatch.setattr(verify_mod, "build_A", defect)
    code, out, err = run(capsys, "verify", "--claims", "thm-4.3", "--max-n", "2")
    assert (code, err) == (1, "")
    lines = [re.sub(r', "elapsed_ms": [0-9.e-]+', "", line) for line in out.splitlines()]
    assert lines == [
        f'{{"claim_id": "thm-4.3", "n": {n}, "status": "fail", '
        f'"details": {{"error": "ValueError: defect"}}}}'
        for n in (1, 2)
    ]


# --------------------------------------------------------------------------
# argv: the grammar's reader against argparse
# --------------------------------------------------------------------------

# values for the arguments that have no choices, each one argparse accepts
SAMPLES = {
    "--n": ["1", "3", "12", " 7"],
    "--max-n": ["2", "14"],
    "--jobs": ["1", "2"],
    "--block": ["2,1", "0,0", "a,b"],
    "--claims": ["all", "prop-3.1,thm-4.6", ","],
    "partition": ["2,1", "5^3,4^4,2^7,1", "3^-2"],
}
TRICKY = ["-", "--", "-1", "--max", "--cache=1", "--n=", "--claims=", "", "--unknown", "-h", "--help",
          "x", "Z"]
PARSER = cli._build_parser()


def parsed_by_argparse(argv):
    """``vars`` of argparse's namespace for ``argv``, or None where it
    prints help or a usage error and exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(PARSER.parse_args(argv))
    except SystemExit:
        return None


def argument_values(name, spec):
    """The values to give an argument: its choices or samples; None for a flag."""
    return [None] if spec.get("action") == "store_true" else spec.get("choices") or SAMPLES[name]


def well_formed_argv(rng, command):
    """A random argv that the grammar reads: positionals in order, then a
    random subset of the options in a random order and form, some repeated."""
    _, _, arguments = cli._GRAMMAR[command]
    argv = [command]
    options = []
    for name, spec in arguments:
        values = argument_values(name, spec)
        if not name.startswith("-"):
            argv.append(rng.choice(values))
        elif spec.get("required") or rng.random() < 0.6:
            options += [(name, rng.choice(values)) for _ in range(1 + (rng.random() < 0.2))]
    rng.shuffle(options)
    for name, value in options:
        if value is None:
            argv.append(name)
        elif rng.random() < 0.5:
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    return argv


def corpus(seed=7, per_command=150):
    """(good, bad): every argument at each of its choices and samples, with
    one fixed argv of its subcommand, and random well-formed argv; then each
    of those with a tricky token inserted or put in place of another, one
    token dropped, or all shuffled."""
    rng = random.Random(seed)
    good = []
    for command, (_, _, arguments) in cli._GRAMMAR.items():
        base = well_formed_argv(random.Random(0), command)
        for name, spec in arguments:
            for value in argument_values(name, spec):
                if not name.startswith("-"):
                    position = [n for n, _ in arguments].index(name) + 1
                    good.append(base[:position] + [value] + base[position + 1:])
                elif value is None:
                    good.append([*base, name])
                else:
                    good += [[*base, name, value], [*base, f"{name}={value}"]]
        good += [well_formed_argv(rng, command) for _ in range(per_command)]
    bad = []
    for argv in good:
        mangled = list(argv)
        i = rng.randrange(len(mangled) + 1)
        choice = rng.randrange(4)
        if choice == 0:
            mangled.insert(i, rng.choice(TRICKY))
        elif choice == 1 and i < len(mangled):
            del mangled[i]
        elif choice == 2 and i < len(mangled):
            mangled[i] = rng.choice(TRICKY)
        else:
            rng.shuffle(mangled)
        bad.append(mangled)
    bad += [["matrix", "A"], ["matrix", "block", "--block", "2,1"], ["decompose", "phi"],
            ["verify", "--claims=", "all"], [], ["bogus"], ["--help"], ["-h", "matrix"]]
    return good, bad


def test_the_reader_returns_argparse_s_namespace_or_none():
    good, bad = corpus()
    for argv in good:
        read = cli._read_argv(argv)
        assert read is not None and vars(read) == parsed_by_argparse(argv), argv
    for argv in bad:
        read = cli._read_argv(argv)
        assert read is None or vars(read) == parsed_by_argparse(argv), argv


def readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^\$ compoundbasis (.+)$", text, re.M)
    lines += re.findall(r"`compoundbasis ([a-z]+ [^`|]+?)\s*(?:\|[^`]*)?`", text)
    return [shlex.split(line) for line in lines]


def test_every_benchmark_and_readme_argv_is_read_without_argparse():
    examples = readme_examples()
    assert len(examples) >= 4
    benchmark = [["verify", "--max-n", "14", "--jobs", "1"], ["matrix", "A", "--n", "12", "--cache"]]
    for argv in benchmark + examples:
        read = cli._read_argv(argv)
        assert read is not None, argv
        assert vars(read) == parsed_by_argparse(argv), argv


@pytest.mark.parametrize(
    "argv",
    [[], ["matrix", "A"], ["matrix", "A", "--n", "x"], ["matrix", "Z", "--n", "3"],
     ["verify", "--max-n"]],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_a_usage_error_prints_argparse_s_text_and_exits_2(capsys, monkeypatch, argv):
    # the text is argparse's on this interpreter: its wording differs between
    # Python versions, so it is not stored
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        cli._build_parser().parse_args(argv)
    assert exited.value.code == 2
    expected = capsys.readouterr().err
    done = subprocess.run(
        [sys.executable, "-m", "compoundbasis.cli", *argv],
        env=dict(_child_env(), COLUMNS="80"), capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", expected)


def test_an_abbreviated_option_still_runs_through_argparse():
    argv = ["verify", "--max", "2", "--claims", "prop-3.1"]
    assert cli._read_argv(argv) is None
    done = subprocess.run(
        [sys.executable, "-m", "compoundbasis.cli", *argv],
        env=_child_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    docs = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(d["claim_id"], d["n"], d["status"]) for d in docs] == [
        ("prop-3.1", 1, "pass"), ("prop-3.1", 2, "pass")
    ]

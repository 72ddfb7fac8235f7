"""The command-line interface end to end, via main(argv)."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compoundbasis.tables as tables_mod
import compoundbasis.transition as transition_mod
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
    """The cache key this version writes for ``kind:n:order``."""
    return f"{__version__}:{cli._CACHE_FORMAT}:{kind_n_order}"


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
    canon = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    assert doc["checksum"] == hashlib.sha256(canon.encode("utf-8")).hexdigest()
    assert doc["key"] == cache_key("A:6:canonical")


def test_concurrent_writers_of_one_key_leave_one_whole_entry(tmp_path, monkeypatch, capsys):
    # a second writer stores the same key while the first is still writing
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    dumps = json.dumps
    interleaved = []

    def dumps_after_a_second_writer(obj, *args, **kwargs):
        if "checksum" in obj and not interleaved:  # the entry, its temp file open
            interleaved.append(obj["key"])
            cli._cache_store(obj["key"], obj["payload"])
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", dumps_after_a_second_writer)
    code, out, err = run(capsys, "matrix", "A", "--n", "3", "--cache")
    assert (code, err) == (0, "")
    assert interleaved == [cache_key("A:3:canonical")]
    files = list(tmp_path.iterdir())
    assert [f.suffix for f in files] == [".json"]
    doc = json.loads(files[0].read_text())
    assert doc["key"] == cache_key("A:3:canonical")
    assert cli._cache_load(doc["key"], 3) == json.loads(out)  # checksum and shape verify


def test_the_cache_entry_is_one_json_dumps_of_key_checksum_and_payload(tmp_path, monkeypatch):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    key, payload = cache_key("A:4:canonical"), matrix_to_json_dict(build_A(4), 4)
    cli._cache_store(key, payload)
    [path] = list(tmp_path.glob("*.json"))
    entry = {"key": key, "checksum": cli._checksum(payload), "payload": payload}
    assert path.read_text(encoding="utf-8") == json.dumps(entry)


def test_the_cache_format_number_pins_the_document_layout():
    # a hit serves the stored document verbatim, so the layout that
    # matrix_to_json_dict writes is part of the cache format
    text = (
        '{"n": 3, "row_labels": [[3], [2, 1], [1, 1, 1]], '
        '"col_labels": [[[3], []], [[2, 1], []], [[1], [1]]], '
        '"entries": [["1", "0", "1"], ["1", "1", "0"], ["1", "0", "-1"]]}'
    )
    layout = json.dumps(matrix_to_json_dict(build_A(3), 3))
    assert (cli._CACHE_FORMAT, layout) == (1, text), (
        "the matrix document's layout changed: bump cli._CACHE_FORMAT and pin the new text here"
    )


def test_cache_ignores_entries_of_other_versions(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMPOUND_CACHE_DIR", str(tmp_path))
    fresh = run(capsys, "matrix", "A", "--n", "5")
    doctored = json.loads(fresh[1])
    doctored["entries"][0][0] = "999"
    fmt = cli._CACHE_FORMAT
    stale_keys = (
        "A:5:canonical",
        "0.0.0:A:5:canonical",
        f"0.0.0:{fmt}:A:5:canonical",  # another version, this format
        f"{__version__}:A:5:canonical",  # this version, before the format tag
        f"{__version__}:{fmt + 1}:A:5:canonical",  # this version, another format
    )
    for stale_key in stale_keys:
        cli._cache_store(stale_key, doctored)
    assert run(capsys, "matrix", "A", "--n", "5", "--cache") == fresh
    # the same entry under this version's key is served: the check above can fail
    cli._cache_store(cache_key("A:5:canonical"), doctored)
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
        cli._cache_store(key, payload)  # a valid checksum over a non-matrix
        assert run(capsys, "matrix", "A", "--n", "3", "--cache") == fresh
    # the untouched document under the same key is served: the checks above can fail
    cli._cache_store(key, doc)
    monkeypatch.setattr(cli, "_compute_matrix", no_compute)
    assert run(capsys, "matrix", "A", "--n", "3", "--cache") == fresh


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
    for n in (3, 4, 6)
    for kind in ("A", "Gamma", "G", "AtA")
    for fmt in ("json", "csv", "latex")
    for order in ("canonical", "paper")
] + [
    ["block", "--n", "6", "--block", "2,2", "--format", fmt, "--order", order]
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

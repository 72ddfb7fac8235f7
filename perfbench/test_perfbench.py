"""Tests of the benchmark itself, at smoke weights (seconds, not minutes).

Run from the repository root::

    python3 -m pytest -q perfbench

The negative controls show that each output check can fail: a flipped matrix
entry, one failing report line and a rewritten cache file must each count as
a failed operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE = run.SIZES["smoke"]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--seconds", "0.5", *args],
        capture_output=True, text=True, timeout=120, cwd=run.ROOT,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def base() -> dict:
    return run.load_baseline()["smoke"]


def cli_stdout(tmp_path: Path, *argv: str) -> bytes:
    out = tmp_path / "stdout"
    code, *_ = run.run_child(
        [sys.executable, "-m", "compoundbasis.cli", *argv], run.child_env(tmp_path / "cache"), out
    )
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_smoke_run_is_correct(workload):
    result = last_json(bench("--workload", workload, "--seed", "3", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    result = last_json(bench("--workload", "matrix-A", "--seed", "4", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["cli.cache_hit_ratio"]["value"] == 1
    assert result["metrics"]["verify.reports"]["value"] == run.load_baseline()["smoke"]["verify_reports"]


def test_stages_find_every_memo_table_and_share_the_weights():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; sys.path.insert(0, 'perfbench'); import stages; "
         "print(json.dumps([len(stages.find_cache_tables()), stages.SIZES]))"],
        capture_output=True, text=True, timeout=60, cwd=run.ROOT, env=run.child_env(run.WORK),
    )
    assert proc.returncode == 0, proc.stderr
    count, sizes = json.loads(proc.stdout)
    assert count >= 18
    for preset, weights in run.SIZES.items():
        assert {name: sizes[preset][name] for name in weights} == weights


def test_flipped_matrix_entry_fails(tmp_path, base):
    good = cli_stdout(tmp_path, "matrix", "A", "--n", str(SMOKE["matrix_n"]))
    doc = json.loads(good)
    assert (json.dumps(doc, indent=2) + "\n").encode() == good
    doc["entries"][0][0] = str(int(doc["entries"][0][0]) + 1)
    flipped = (json.dumps(doc, indent=2) + "\n").encode()
    checker = run.MatrixChecker(SMOKE["matrix_n"], base)
    assert checker(0, good) is None
    assert checker(0, flipped) is not None


def test_failing_report_line_fails(tmp_path, base):
    good = cli_stdout(tmp_path, "verify", "--max-n", str(SMOKE["verify_max_n"]))
    assert run.check_verify(0, good, base) is None
    bad = good.replace(b'"status": "pass"', b'"status": "fail"', 1)
    assert bad != good
    assert run.check_verify(0, bad, base) is not None
    assert run.check_verify(1, good, base) is not None


def test_rewritten_cache_file_fails(tmp_path, base):
    wl = run.Workload("matrix-cached", SMOKE, base, tmp_path)
    wl.prepare()
    assert wl.run_op().error is None
    # Spoil the entry's checksum: the program must miss, recompute and
    # rewrite it, which the cache-state check has to catch even though the
    # emitted matrix is still correct.
    (entry,) = wl.cache.iterdir()
    doc = json.loads(entry.read_text())
    doc["checksum"] = "0" * 64
    entry.write_text(json.dumps(doc))
    wl.cache_before = run.dir_state(wl.cache)
    op = wl.run_op()
    assert op.error is not None and "cache" in op.error
    assert wl.check_matrix(0, wl.out.read_bytes()) is None


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

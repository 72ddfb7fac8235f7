"""Cold-process benchmark for the compoundbasis command line.

Usage, from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40   # every workload, untraced and traced

Workloads (the inputs are weights, so they do not depend on the seed; the
seed orders the claims in the traced sweep):

- ``verify-sweep``: ``compoundbasis verify --max-n 14 --jobs 1``.
- ``matrix-A``: ``compoundbasis matrix A --n 12 --cache`` into a fresh, empty
  cache directory per operation: a cold compute followed by a cache write.
- ``matrix-cached``: the same command against a cache filled once, untimed,
  before the timed operations: the load, checksum and emit path.

Each operation is one fresh interpreter started by this process, one at a
time (a closed loop with one client).  Operations run until ``--seconds`` is
used up (at least three).  Every output is checked outside the timed
interval; a wrong output counts as a failed operation.

``--trace 0`` prints the end-to-end metrics, each a median over the run.
Other tenants of a shared host slow it down by up to half, for stretches
from a second to minutes, and a stretch that covers a whole run moves any
median of raw times with it.  So after every operation a fresh interpreter
runs ``probe.py``, a fixed ``Fraction`` elimination that does not use the
package, and each operation's time is divided by the mean of the probes just
before and just after it.  ``wall_norm_s`` and ``cpu_norm_s`` are the median
of these ratios times ``REF_PROBE_S``: the operation's wall time, and its user
plus system time from ``wait4``, in seconds on a host where the probe takes
``REF_PROBE_S``.  A change to the package moves them in proportion to its
own time; the raw medians go to stderr.  ``setup_s`` is scaled the same way:
a fresh interpreter importing the package, timed between operations all
through the run and divided by the probe just before it.  ``peak_rss_mb`` is
the median over operations.

``--trace 1`` measures a few untraced operations, runs the stage groups of
``stages.py`` twice (each group in a fresh process, keeping each stage's
fastest time) and prints the per-layer metrics plus ``trace.unattributed_s``:
the fastest untraced operation minus the fastest set-up and the summed stages
of the workload, each scaled by its probes like the end-to-end times.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable report, the host record
(cpu count, Python, platform, commit, seed, load average before and after)
and ``error_rate`` go to stderr.  ``--smoke`` swaps in tiny weights
(``--max-n 5``, ``--n 6``) so the benchmark's own tests run in seconds;
``--digests`` prints the output digests of the current program, for
re-baselining ``baseline.json`` when the workloads' outputs change on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("verify-sweep", "matrix-A", "matrix-cached")
SIZES = {"full": {"verify_max_n": 14, "matrix_n": 12}, "smoke": {"verify_max_n": 5, "matrix_n": 6}}
SETUP_EVERY_S = 1.5  # set-up is sampled between operations, spread over the run
REF_PROBE_S = 0.2  # the probe's time on a shared 2-vCPU Xeon VM under Python 3.11
MIN_OPS = 3
TRACE_SHARE = 0.3  # share of --seconds spent on untraced operations in a traced run
TRACE_PASSES = 2
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    """One finished operation."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None
    probe_wall_s: float = 0.0  # mean of the probes just before and after
    probe_cpu_s: float = 0.0


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["COMPOUND_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(args: list[str], env: dict, out_path: Path) -> tuple[int, float, float, float]:
    """Run one process with stdout to ``out_path``; returns (exit code, wall s,
    user+sys s, peak RSS MB) of that process alone."""
    err_path = out_path.with_name(out_path.name + ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(err_path.read_text("utf-8", "replace").rstrip(), file=sys.stderr)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def check_import(work: Path) -> None:
    """The package must import from this checkout's source tree."""
    probe = work / "import-probe"
    code, *_ = run_child(
        [sys.executable, "-c", "import compoundbasis; print(compoundbasis.__file__)"],
        child_env(work / "unused-cache"), probe,
    )
    where = probe.read_text().strip()
    if code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"compoundbasis did not import from {SRC} (got {where!r})")


def time_setup(work: Path) -> float:
    """Wall time of one fresh interpreter importing the package."""
    return run_child([sys.executable, "-c", "import compoundbasis"],
                     child_env(work / "unused-cache"), work / "setup-out")[1]


def run_probe(work: Path) -> tuple[float, float]:
    """(wall s, cpu s) of one host-speed probe in a fresh interpreter."""
    out = work / "probe-out"
    code, *_ = run_child([sys.executable, str(HERE / "probe.py")], child_env(work / "unused-cache"), out)
    if code != 0:
        raise BenchError(f"probe.py exited {code}")
    doc = json.loads(out.read_text())
    return doc["wall"], doc["cpu"]


# --------------------------------------------------------------------------
# Output checks (independent of the package)
# --------------------------------------------------------------------------

def verify_digest(stdout: bytes) -> str:
    """sha256 of the report lines with the timing field removed."""
    lines = []
    for line in stdout.decode("utf-8").splitlines():
        obj = json.loads(line)
        obj.pop("elapsed_ms", None)
        lines.append(json.dumps(obj))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def check_verify(code: int, stdout: bytes, base: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        reports = [json.loads(line) for line in stdout.decode("utf-8").splitlines()]
    except ValueError as exc:
        return f"unparsable report line: {exc}"
    if len(reports) != base["verify_reports"]:
        return f"{len(reports)} report lines, expected {base['verify_reports']}"
    failing = [f"{r.get('claim_id')} n={r.get('n')}" for r in reports if r.get("status") != "pass"]
    if failing:
        return "claims not passing: " + ", ".join(failing)
    if verify_digest(stdout) != base["verify_digest"]:
        return "report digest differs from the baseline"
    return None


def partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def k_exponent(n: int) -> int:
    """k_n with |det A_n| = 2^k_n: the number of even parts summed over all
    partitions of n."""
    return sum(1 for lam in partitions(n) for part in lam if part % 2 == 0)


def bareiss_det(rows: list[list[int]]) -> int:
    m = [list(row) for row in rows]
    size, sign, prev = len(m), 1, 1
    for k in range(size):
        pivot = next((i for i in range(k, size) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        mk, pk = m[k], m[k][k]
        for i in range(k + 1, size):
            mi, aik = m[i], m[i][k]
            for j in range(k + 1, size):
                mi[j] = (mi[j] * pk - aik * mk[j]) // prev
        prev = pk
    return sign * m[-1][-1] if size else 1


class MatrixChecker:
    """Checks ``matrix A`` output; the determinant is computed once per
    distinct output, since equal digests mean equal bytes."""

    def __init__(self, n: int, base: dict):
        self.n = n
        self.base = base
        self.det_errors: dict[str, str | None] = {}

    def __call__(self, code: int, stdout: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}"
        digest = hashlib.sha256(stdout).hexdigest()
        if digest not in self.det_errors:
            self.det_errors[digest] = self._det_error(stdout)
        if self.det_errors[digest]:
            return self.det_errors[digest]
        if digest != self.base["matrix_digest"]:
            return "matrix output digest differs from the baseline"
        return None

    def _det_error(self, stdout: bytes) -> str | None:
        try:
            doc = json.loads(stdout)
            entries = [[int(v) for v in row] for row in doc["entries"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable matrix document: {exc}"
        if doc.get("n") != self.n or any(len(row) != len(entries) for row in entries):
            return "matrix document has the wrong degree or shape"
        det = abs(bareiss_det(entries))
        if det != 1 << k_exponent(self.n):
            return f"|det| = {det}, expected 2^{k_exponent(self.n)}"
        return None


def dir_state(path: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in sorted(path.iterdir())}


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Workload:
    """Runs and checks the operations of one workload inside ``work``."""

    def __init__(self, name: str, sizes: dict, base: dict, work: Path):
        self.name = name
        self.work = work
        self.base = base
        self.out = work / "op-stdout"
        if name == "verify-sweep":
            self.argv = ["verify", "--max-n", str(sizes["verify_max_n"]), "--jobs", "1"]
        else:
            self.argv = ["matrix", "A", "--n", str(sizes["matrix_n"]), "--cache"]
            self.check_matrix = MatrixChecker(sizes["matrix_n"], base)
        self.cache = work / "cache"
        self.cache_before: dict = {}

    def prepare(self) -> None:
        """Untimed: fill the cache that every matrix-cached operation reads."""
        if self.name != "matrix-cached":
            return
        self.cache.mkdir()
        code, *_ = run_child(self._cmd(), child_env(self.cache), self.out)
        error = self.check_matrix(code, self.out.read_bytes())
        if error or not any(self.cache.iterdir()):
            raise BenchError(f"filling the matrix cache failed: {error or 'no cache file written'}")
        self.cache_before = dir_state(self.cache)

    def _cmd(self) -> list[str]:
        return [sys.executable, "-m", "compoundbasis.cli", *self.argv]

    def run_op(self) -> Op:
        if self.name == "matrix-A":
            shutil.rmtree(self.cache, ignore_errors=True)
            self.cache.mkdir()
        code, wall, cpu, rss = run_child(self._cmd(), child_env(self.cache), self.out)
        return Op(wall, cpu, rss, self.check(code, self.out.read_bytes()))

    def check(self, code: int, stdout: bytes) -> str | None:
        if self.name == "verify-sweep":
            return check_verify(code, stdout, self.base)
        error = self.check_matrix(code, stdout)
        if error is None and self.name == "matrix-cached" and dir_state(self.cache) != self.cache_before:
            error = "the cache directory changed: the run missed the cache and rewrote it"
        return error

    def run_ops(self, seconds: float, min_ops: int, setup: list[tuple[float, float]]) -> list[Op]:
        """At least ``min_ops`` operations, each followed by a probe; no new
        one once the median round would overrun ``seconds``.  Appends a
        set-up sample, with the probe wall time before it, to ``setup``
        before the first operation and then every SETUP_EVERY_S."""
        ops: list[Op] = []
        rounds: list[float] = []
        start = time.perf_counter()
        last_setup = None
        before = run_probe(self.work)
        while True:
            t0 = time.perf_counter()
            if last_setup is None or t0 - last_setup >= SETUP_EVERY_S:
                setup.append((time_setup(self.work), before[0]))
                last_setup = t0 = time.perf_counter()
            ops.append(self.run_op())
            after = run_probe(self.work)
            ops[-1].probe_wall_s = (before[0] + after[0]) / 2
            ops[-1].probe_cpu_s = (before[1] + after[1]) / 2
            before = after
            rounds.append(time.perf_counter() - t0)
            if ops[-1].error:
                print(f"[{self.name}] failed op: {ops[-1].error}", file=sys.stderr)
            if len(ops) >= min_ops and time.perf_counter() - start + statistics.median(rounds) > seconds:
                return ops


# --------------------------------------------------------------------------
# Host record and report
# --------------------------------------------------------------------------

def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(args, workload: str, when: str) -> None:
    record = {
        "when": when,
        "workload": workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "loadavg": os.getloadavg(),
    }
    print("host " + json.dumps(record), file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(workload: str, trace: int, result: dict, ops: list[Op], setup: list[tuple[float, float]]) -> None:
    failed = result["failed"]
    attempted = result["attempted"]
    print(f"[{workload} trace={trace}] {attempted} ops, error_rate {failed / attempted:.4g} ratio", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if ops:
        walls = sorted(op.wall_s for op in ops)
        print(f"  raw wall per op: n={len(walls)} min {walls[0]:.4g} s, median {statistics.median(walls):.4g} s,"
              f" max {walls[-1]:.4g} s; median cpu {statistics.median(op.cpu_s for op in ops):.4g} s,"
              f" median set-up {statistics.median(s for s, _ in setup):.4g} s", file=sys.stderr)
        print(f"  probe: median {statistics.median(op.probe_wall_s for op in ops):.4g} s wall,"
              f" {statistics.median(op.probe_cpu_s for op in ops):.4g} s cpu", file=sys.stderr)


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------

def end_to_end(setup: list[tuple[float, float]], ops: list[Op]) -> dict:
    return {
        "setup_s": metric(REF_PROBE_S * statistics.median(s / probe for s, probe in setup), "s"),
        "wall_norm_s": metric(REF_PROBE_S * statistics.median(op.wall_s / op.probe_wall_s for op in ops), "s"),
        "cpu_norm_s": metric(REF_PROBE_S * statistics.median(op.cpu_s / op.probe_cpu_s for op in ops), "s"),
        "peak_rss_mb": metric(statistics.median(op.peak_rss_mb for op in ops), "MB"),
    }


def traced(args, workload: str, base: dict, work: Path) -> tuple[dict, float, str | None]:
    """Per-layer metrics from TRACE_PASSES passes over the stage groups of
    stages.py, one fresh process per group: the fastest time of each stage,
    and counts, which must repeat exactly.  Also returns the summed stages of
    ``workload``.  Counts reported by several groups (the memo-table misses)
    are added."""
    spans: dict[str, float] = {}
    sums: dict[str, list[str]] = {}
    passes = []
    for i in range(TRACE_PASSES):
        pass_dir = work / f"trace-pass{i}"
        pass_dir.mkdir()
        out = pass_dir / "stages-out"
        counts: dict[str, float] = {}
        for group in ("matrix", "cached", "verify"):
            code, *_ = run_child(
                [sys.executable, str(HERE / "stages.py"), "--group", group, "--sizes", args.sizes,
                 "--seed", str(args.seed), "--workdir", str(pass_dir)],
                child_env(pass_dir / "unused-cache"), out,
            )
            if code != 0:
                raise BenchError(f"stages.py --group {group} exited {code}")
            doc = json.loads(out.read_text())
            for name, value in doc["spans"].items():
                spans[name] = min(value, spans.get(name, value))
            sums.update(doc["sums"])
            for name, value in doc["counts"].items():
                counts[name] = counts.get(name, 0) + value
        passes.append(counts)
    metrics = {name: metric(value, "s") for name, value in spans.items()}
    for name, value in counts.items():
        metrics[name] = metric(value, "ratio" if name.endswith("_ratio") else "count")
    staged = sum(spans[name] for name in sums[workload])
    error = None
    if any(p != counts for p in passes):
        error = f"counts differ between trace passes: {passes}"
    elif counts["verify.reports"] != base["verify_reports"]:
        error = f"traced sweep made {counts['verify.reports']} reports"
    elif counts["cli.cache_hit_ratio"] != 1:
        error = "a traced cache read missed"
    return metrics, staged, error


def run_set(args, workload: str, trace: int) -> tuple[dict, list[Op], list[tuple[float, float]]]:
    base = load_baseline()[args.sizes]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        check_import(work)
        setup: list[tuple[float, float]] = []
        wl = Workload(workload, SIZES[args.sizes], base, work)
        wl.prepare()
        if trace:
            # Untraced operations on both sides of the stages, to balance drift.
            ops = wl.run_ops(args.seconds * TRACE_SHARE / 2, 1, setup)
            before = run_probe(work)[0]
            metrics, staged, error = traced(args, workload, base, work)
            after = run_probe(work)[0]
            ops += wl.run_ops(args.seconds * TRACE_SHARE / 2, 1, setup)
            untraced = min(op.wall_s / op.probe_wall_s for op in ops) - min(s / p for s, p in setup)
            gap = REF_PROBE_S * (untraced - staged / ((before + after) / 2))
            metrics["trace.unattributed_s"] = metric(gap, "s")
        else:
            ops = wl.run_ops(args.seconds, MIN_OPS, setup)
            metrics, error = end_to_end(setup, ops), None
        if error:
            print(f"[{workload}] failed trace: {error}", file=sys.stderr)
        failed = sum(op.error is not None for op in ops) + (error is not None)
        attempted = len(ops) + trace
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, ops, setup


def load_baseline() -> dict:
    return json.loads((HERE / "baseline.json").read_text())


def print_digests(args) -> None:
    sizes = SIZES[args.sizes]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=WORK))
    try:
        env, out = child_env(work / "cache"), work / "out"
        verify = ["verify", "--max-n", str(sizes["verify_max_n"])]
        matrix = ["matrix", "A", "--n", str(sizes["matrix_n"])]
        outputs = []
        for argv in (verify, matrix):
            code, *_ = run_child([sys.executable, "-m", "compoundbasis.cli", *argv], env, out)
            if code != 0:
                raise BenchError(f"compoundbasis {' '.join(argv)} exited {code}")
            outputs.append(out.read_bytes())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    found = {
        "verify_reports": len(outputs[0].splitlines()),
        "verify_digest": verify_digest(outputs[0]),
        "matrix_digest": hashlib.sha256(outputs[1]).hexdigest(),
    }
    print(json.dumps({args.sizes: found}, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold-process benchmark for compoundbasis.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", dest="sizes", action="store_const", const="smoke", default="full",
                        help="tiny weights, for the benchmark's own tests")
    parser.add_argument("--digests", action="store_true",
                        help="print the current program's output digests and exit")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "compoundbasis" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC / 'compoundbasis'}")
        if args.digests:
            print_digests(args)
            return 0
        sets = [(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all" else [(args.workload, args.trace)]
        all_correct = True
        for workload, trace in sets:
            host_record(args, workload, "before")
            result, ops, setup = run_set(args, workload, trace)
            host_record(args, workload, "after")
            report(workload, trace, result, ops, setup)
            all_correct &= result["correct"]
            if args.workload == "all":
                print(json.dumps({"workload": workload, "trace": trace, **result}))
            else:
                print(json.dumps(result))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0 if args.workload != "all" or all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

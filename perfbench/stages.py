"""Staged per-layer trace of the benchmark workloads, one process per stage group.

Usage (normally started by ``run.py --trace 1``, one process per group)::

    PYTHONPATH=src python3 perfbench/stages.py --group matrix --seed 1 --workdir DIR
    PYTHONPATH=src python3 perfbench/stages.py --group cached --seed 1 --workdir DIR
    PYTHONPATH=src python3 perfbench/stages.py --group verify --seed 1 --workdir DIR

Each stage group runs in a fresh process and starts from empty memo tables:
every ``functools.cache`` table found on the ``compoundbasis`` modules is
cleared and checked empty.
Inside a group the stages call the package's public functions in dependency
order, so each stage finds its prerequisites already cached and its span
measures that layer's own time.

Stages come in two kinds.  *Summed* stages replay one workload's path; their
total, with set-up, should account for the workload's untraced wall time.
*Probes* time one layer on its own (a direct ``bareiss_solve``, the character
table, Hall pairings, ...); they repeat work done inside a summed stage and are
never added to a sum.

Prints one JSON object: ``spans`` (seconds), ``counts`` and ``sums`` (the
summed stage names of the group's workload).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import pkgutil
import random
import statistics
import sys
import time
from pathlib import Path

import compoundbasis
from compoundbasis import (
    CLAIM_CAPS,
    bareiss_solve,
    blocks,
    build_A,
    build_A_combinatorial,
    build_Gamma,
    canonical_pairs,
    character,
    check,
    claim_ids,
    generate_partitions,
    gram_G,
    inner,
    matrix_det,
    schur,
    schur_Q,
    smith_normal_form,
    sub_double,
    W_from_pair,
    z_factor,
)
from compoundbasis import cli
from run import dir_state  # run.py sits beside this file, on sys.path[0]

# Weights per size preset.  "full" is the benchmark; "smoke" runs in seconds.
# verify_max_n and matrix_n are the workloads' weights in run.SIZES.
SIZES = {
    "full": {"verify_max_n": 14, "matrix_n": 12, "warm_k": 10, "comb_n": 8,
             "inner_k": 10, "blocks_k": 8, "hit_reps": 7},
    "smoke": {"verify_max_n": 5, "matrix_n": 6, "warm_k": 5, "comb_n": 5,
              "inner_k": 5, "blocks_k": 5, "hit_reps": 3},
}

PARTITION_KINDS = ("all", "strict", "odd")
CACHED_TABLES = ("schur", "schur_Q", "character")


def find_cache_tables() -> dict:
    """Every ``functools.cache`` table defined on a ``compoundbasis`` module,
    private ones included, keyed ``module.function``."""
    tables = {}
    for info in pkgutil.iter_modules(compoundbasis.__path__):
        mod = importlib.import_module(f"compoundbasis.{info.name}")
        for name, obj in vars(mod).items():
            if (
                callable(getattr(obj, "cache_clear", None))
                and callable(getattr(obj, "cache_info", None))
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                tables[f"{info.name}.{name}"] = obj
    return tables


class Trace:
    """Spans and counts recorded from outside the package."""

    def __init__(self, tables: dict):
        self.tables = tables
        self.spans: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def clear_caches(self) -> None:
        for name, table in self.tables.items():
            table.cache_clear()
            if table.cache_info().currsize != 0:
                raise RuntimeError(f"memo table {name} is not empty after cache_clear")

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] = self.spans.get(name, 0.0) + time.perf_counter() - start

    def record_misses(self) -> None:
        """Record the misses of the named symfunc tables since the last clear."""
        for name in CACHED_TABLES:
            key = f"symfunc.{name}.misses"
            self.counts[key] = self.tables[f"symfunc.{name}"].cache_info().misses


@contextlib.contextmanager
def cli_env(workdir: str, cache_dir: str):
    """Point the CLI at ``cache_dir`` and send its stdout to a file, as the
    benchmark's own processes do."""
    old_cache = os.environ.get("COMPOUND_CACHE_DIR")
    os.environ["COMPOUND_CACHE_DIR"] = cache_dir
    try:
        with open(os.path.join(workdir, "trace-stdout"), "w", encoding="utf-8") as out:
            with contextlib.redirect_stdout(out):
                yield
    finally:
        if old_cache is None:
            del os.environ["COMPOUND_CACHE_DIR"]
        else:
            os.environ["COMPOUND_CACHE_DIR"] = old_cache


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"compoundbasis {' '.join(argv)} exited {code}")


def scaled_coeff(f, key) -> int:
    """The integer z_key * [p_key] f."""
    value = f.coeff(key) * z_factor(key)
    if value.denominator != 1:
        raise RuntimeError(f"scaled coordinate {value} at {key} is not an integer")
    return value.numerator


def group_matrix(tr: Trace, n: int, workdir: str, cache_dir: str) -> list[str]:
    """matrix-A: a cold ``matrix A --n N --cache`` into an empty cache."""
    tr.clear_caches()
    with tr.span("partitions.generate_s"):
        for k in range(n + 1):
            for kind in PARTITION_KINDS:
                generate_partitions(k, kind)
    with tr.span("symfunc.schur_table_s"):
        for lam in generate_partitions(n):
            schur(lam)
    with tr.span("symfunc.schur_Q_table_s"):
        for n1 in range(n // 2 + 1):
            for mu in generate_partitions(n - 2 * n1, "strict"):
                schur_Q(mu)
    with tr.span("transition.build_A_s"):
        a_mat = build_A(n)
    argv = ["matrix", "A", "--n", str(n), "--cache"]
    with cli_env(workdir, cache_dir), tr.span("cli.miss_s"):
        run_cli(argv)
    tr.record_misses()
    summed = ["partitions.generate_s", "symfunc.schur_table_s", "symfunc.schur_Q_table_s",
              "transition.build_A_s", "cli.miss_s"]

    # Probes, each repeating part of transition.build_A_s or cli.miss_s.
    pairs = canonical_pairs(n)
    with tr.span("symfunc.W_family_s"):
        w_family = [W_from_pair(r, d) for (r, d) in pairs]
    keys = generate_partitions(n)
    s_family = [sub_double(schur(lam)) for lam in a_mat.row_labels]
    w_mat = [[scaled_coeff(w, k) for w in w_family] for k in keys]
    rhs = [[scaled_coeff(s, k) for s in s_family] for k in keys]
    with tr.span("transition.bareiss_solve_s"):
        x_cols = bareiss_solve(w_mat, rhs)
    if [tuple(col) for col in x_cols] != list(a_mat.entries):
        raise RuntimeError(f"bareiss_solve on the degree-{n} system differs from build_A({n})")
    with cli_env(workdir, cache_dir), tr.span("cli.emit_s"):
        run_cli(argv[:-1])
    return summed


def group_cached(tr: Trace, n: int, workdir: str, cache_dir: str, reps: int) -> list[str]:
    """matrix-cached: ``matrix A --n N --cache`` against the cache that the
    matrix group filled; every memo table starts empty, as in a fresh process."""
    argv = ["matrix", "A", "--n", str(n), "--cache"]
    before = dir_state(Path(cache_dir))
    if not before:
        raise RuntimeError("the matrix cache is empty; run the matrix group first")
    times, hits = [], 0
    for _ in range(reps):
        tr.clear_caches()
        with cli_env(workdir, cache_dir):
            start = time.perf_counter()
            run_cli(argv)
            times.append(time.perf_counter() - start)
        computed = tr.tables["transition._build_A_canonical"].cache_info().misses
        hits += computed == 0 and dir_state(Path(cache_dir)) == before
    tr.spans["cli.hit_s"] = statistics.median(times)
    tr.counts["cli.cache_hit_ratio"] = hits / reps
    return ["cli.hit_s"]


def warm_verify(sizes: dict) -> None:
    """The memoized transition matrices the claims share, with their
    partition and symfunc prerequisites."""
    for k in range(1, sizes["warm_k"] + 1):
        build_A(k)
        build_Gamma(k)
    for k in range(1, sizes["comb_n"] + 1):
        build_A_combinatorial(k)


def group_verify(tr: Trace, sizes: dict, seed: int) -> list[str]:
    """verify-sweep: shared tables, then each claim over its weights, with
    the claims in a seed-dependent order."""
    max_n = sizes["verify_max_n"]
    tr.clear_caches()
    with tr.span("verify.warm_s"):
        warm_verify(sizes)
    order = list(claim_ids())
    random.Random(seed).shuffle(order)
    reports = []
    for cid in order:
        name = f"verify.{cid}_s"
        tr.spans.setdefault(name, 0.0)
        for k in range(1, min(max_n, CLAIM_CAPS.get(cid, max_n)) + 1):
            with tr.span(name):
                reports.append(check(cid, k))
    failed = [f"{r.claim_id} n={r.n}" for r in reports if not r.passed]
    if failed:
        raise RuntimeError(f"verify claims failed: {', '.join(failed)}")
    tr.counts["verify.reports"] = len(reports)
    tr.record_misses()

    # Probes on warm tables; each clears only the table it measures.
    lams = generate_partitions(sizes["inner_k"])
    table = [schur(lam) for lam in lams]
    with tr.span("symfunc.inner_s"):
        for f in table:
            for g in table:
                inner(f, g)
    tr.tables["transition._build_A_combinatorial_canonical"].cache_clear()
    with tr.span("transition.build_A_combinatorial_s"):
        build_A_combinatorial(sizes["comb_n"])
    tr.tables["transition._build_Gamma_canonical"].cache_clear()
    with tr.span("transition.build_Gamma_s"):
        for k in range(1, sizes["warm_k"] + 1):
            build_Gamma(k)
    a_mats = [build_A(k) for k in range(1, sizes["warm_k"] + 1)]
    with tr.span("transition.det_s"):
        for mat in a_mats:
            matrix_det(mat)
    g_mats = [gram_G(k) for k in range(1, sizes["warm_k"] + 1)]
    with tr.span("transition.snf_s"):
        for mat in g_mats:
            smith_normal_form(mat)
    with tr.span("transition.blocks_s"):
        for k in range(1, sizes["blocks_k"] + 1):
            blocks(k)
    return ["verify.warm_s"] + [f"verify.{cid}_s" for cid in order]


def probe_characters(tr: Trace, n: int) -> None:
    """The full character table of degree n, partitions already generated."""
    character.cache_clear()
    lams = generate_partitions(n)
    with tr.span("symfunc.character_table_s"):
        for lam in lams:
            for rho in lams:
                character(lam, rho)


GROUPS = ("matrix", "cached", "verify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", choices=GROUPS, required=True,
                        help="run 'matrix' before 'cached', which reads the cache it fills")
    parser.add_argument("--sizes", choices=sorted(SIZES), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, help="scratch directory for caches and stdout")
    args = parser.parse_args(argv)
    sizes = SIZES[args.sizes]
    cache_dir = os.path.join(args.workdir, "trace-cache")

    tr = Trace(find_cache_tables())
    if args.group == "matrix":
        os.makedirs(cache_dir)
        summed = {"matrix-A": group_matrix(tr, sizes["matrix_n"], args.workdir, cache_dir)}
    elif args.group == "cached":
        summed = {"matrix-cached": group_cached(tr, sizes["matrix_n"], args.workdir, cache_dir,
                                                sizes["hit_reps"])}
    else:
        summed = {"verify-sweep": group_verify(tr, sizes, args.seed)}
        probe_characters(tr, sizes["matrix_n"])
    json.dump({"spans": tr.spans, "counts": tr.counts, "sums": summed}, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

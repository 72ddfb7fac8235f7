"""Command-line interface: compute, emit, cache, verify.

Subcommands
-----------
matrix     emit a transition-related matrix as json, csv, or latex
decompose  apply one of the partition bijections and print the pieces
verify     run the verification harness and stream JSON-line reports
expand     print a symmetric function in one of the display conventions

The optional matrix cache is a directory of content-addressed JSON files,
one per (package version, kind, degree, order) key, so entries written by
another version are recomputed rather than served; its location comes from the
COMPOUND_CACHE_DIR environment variable and defaults to ./.compound-cache.
Cached and freshly computed runs emit byte-identical documents because both
paths re-emit from the same in-memory matrix value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .partitions import parse_partition, phi, psi, glaisher, h_abacus_decompose, two_core_quotient
from .symfunc import (
    SymFunc,
    W_basis,
    V_basis,
    format_symfunc,
    h_product,
    p_monomial,
    q_prime,
    q_product,
    schur,
    schur_P,
    schur_Q,
)
from .transition import (
    LabeledIntMatrix,
    blocks,
    build_A,
    build_Gamma,
    cartan_like,
    gram_G,
    matrix_from_json_dict,
    matrix_to_csv,
    matrix_to_json_dict,
    matrix_to_latex,
    pair_class,
)
from .verify import check_all, claim_ids

__all__ = ["CacheEntry", "main"]

_CACHE_ENV = "COMPOUND_CACHE_DIR"
_CACHE_DEFAULT = ".compound-cache"


# --------------------------------------------------------------------------
# Cache
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CacheEntry:
    """One cached artifact: a key, its payload, and the payload checksum."""

    key: str
    checksum: str
    payload: dict

    @staticmethod
    def payload_checksum(payload: dict) -> str:
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    @classmethod
    def build(cls, key: str, payload: dict) -> "CacheEntry":
        return cls(key=key, checksum=cls.payload_checksum(payload), payload=payload)

    def verified_payload(self) -> dict | None:
        if self.checksum != self.payload_checksum(self.payload):
            return None
        return self.payload


def _cache_dir() -> str:
    return os.environ.get(_CACHE_ENV, _CACHE_DEFAULT)


def _cache_path(key: str) -> str:
    name = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32] + ".json"
    return os.path.join(_cache_dir(), name)


def _cache_load(key: str) -> dict | None:
    path = _cache_path(key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        entry = CacheEntry(doc["key"], doc["checksum"], doc["payload"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if entry.key != key:
        return None
    return entry.verified_payload()


def _cache_store(key: str, payload: dict) -> None:
    entry = CacheEntry.build(key, payload)
    path = _cache_path(key)
    os.makedirs(_cache_dir(), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(
            {"key": entry.key, "checksum": entry.checksum, "payload": entry.payload},
            fh,
        )
    os.replace(tmp, path)


# --------------------------------------------------------------------------
# matrix
# --------------------------------------------------------------------------

def _parse_block_class(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"block class must look like 'n0,n1', got {text!r}")
    return int(parts[0]), int(parts[1])


def _compute_matrix(kind: str, n: int, order: str, block_class) -> LabeledIntMatrix:
    if kind == "A":
        return build_A(n, order)
    if kind == "Gamma":
        return build_Gamma(n, order)
    if kind == "G":
        return gram_G(n, order)
    if kind == "AtA":
        return cartan_like(n, order)
    if kind == "block":
        if block_class is None:
            raise ValueError("kind 'block' needs --block n0,n1")
        n0, n1 = block_class
        if n0 < 0 or n1 < 0 or n0 + 2 * n1 != n:
            raise ValueError(
                f"invalid block class ({n0},{n1}): need n0 + 2*n1 = {n} with n0, n1 >= 0"
            )
        table = blocks(n)
        if (n0, n1) not in table:
            raise ValueError(f"no block of class ({n0},{n1}) at degree {n}")
        return table[(n0, n1)]
    raise ValueError(f"unknown matrix kind {kind!r}")


def _block_annotation(mat: LabeledIntMatrix) -> list[dict]:
    """Classes (n0, n1) detected along the column labels, in order."""
    seen: dict[tuple[int, int], list] = {}
    for label in mat.col_labels:
        cls = pair_class(label)
        seen.setdefault(cls, []).append([list(label[0]), list(label[1])])
    return [
        {"class": [c[0], c[1]], "size": len(labels), "labels": labels}
        for c, labels in seen.items()
    ]


def _emit_matrix(mat: LabeledIntMatrix, kind: str, n: int, fmt: str) -> str:
    if fmt == "json":
        doc = matrix_to_json_dict(mat, n)
        if kind == "AtA":
            doc["blocks"] = _block_annotation(mat)
        return json.dumps(doc, indent=2)
    if fmt == "csv":
        return matrix_to_csv(mat)
    if fmt == "latex":
        return matrix_to_latex(mat)
    raise ValueError(f"unknown format {fmt!r}")


def _cmd_matrix(args) -> int:
    block_class = None
    if args.block is not None:
        block_class = _parse_block_class(args.block)
    key = f"{__version__}:{args.kind}:{args.n}:{args.order}"
    if block_class is not None:
        key += f":{block_class[0]},{block_class[1]}"
    mat = None
    if args.cache:
        payload = _cache_load(key)
        if payload is not None:
            _, mat = matrix_from_json_dict(payload)
    if mat is None:
        mat = _compute_matrix(args.kind, args.n, args.order, block_class)
        if args.cache:
            _cache_store(key, matrix_to_json_dict(mat, args.n))
    print(_emit_matrix(mat, args.kind, args.n, args.format))
    return 0


# --------------------------------------------------------------------------
# decompose
# --------------------------------------------------------------------------

def _cmd_decompose(args) -> int:
    lam = parse_partition(args.partition)
    doc: dict = {"map": args.map, "input": list(lam)}
    if args.map == "phi":
        r, d = phi(lam)
        doc["r"] = list(r)
        doc["d"] = list(d)
    elif args.map == "psi":
        odd, halves = psi(lam)
        doc["odd"] = list(odd)
        doc["halved_even"] = list(halves)
    elif args.map == "glaisher":
        doc["image"] = list(glaisher(lam))
    elif args.map == "habacus":
        dec = h_abacus_decompose(lam)
        doc["core"] = list(dec.core)
        doc["shifted0"] = list(dec.shifted0)
        doc["quotient1"] = list(dec.quotient1)
        doc["charge"] = dec.charge
    elif args.map == "2quot":
        tq = two_core_quotient(lam)
        doc["core2"] = list(tq.core2)
        doc["q0"] = list(tq.q0)
        doc["q1"] = list(tq.q1)
        doc["sign"] = tq.sign
    else:  # unreachable behind argparse choices
        raise ValueError(f"unknown map {args.map!r}")
    print(json.dumps(doc))
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.claims.strip() == "all":
        selected = None
    else:
        selected = [c.strip() for c in args.claims.split(",") if c.strip()]
    reports = check_all(max_n=args.max_n, claims=selected, jobs=args.jobs)
    for report in reports:
        print(report.to_json_line())
    return 0 if all(r.passed for r in reports) else 1


# --------------------------------------------------------------------------
# expand
# --------------------------------------------------------------------------

_FAMILIES = {
    "S": schur,
    "Q": schur_Q,
    "P": schur_P,
    "W": W_basis,
    "V": V_basis,
    "Qprime": q_prime,
    "h": h_product,
    "q": q_product,
    "p": p_monomial,
}


def _cmd_expand(args) -> int:
    lam = parse_partition(args.partition)
    f: SymFunc = _FAMILIES[args.family](lam)
    if args.format == "json":
        doc = {
            "family": args.family,
            "partition": list(lam),
            "vars": args.vars,
            "terms": f.to_json_obj(),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(format_symfunc(f, vars=args.vars))
    return 0


# --------------------------------------------------------------------------
# Parser and entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compoundbasis",
        description="Exact computations around the compound basis of symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("matrix", help="emit a transition-related matrix")
    m.add_argument("kind", choices=["A", "Gamma", "G", "AtA", "block"])
    m.add_argument("--n", type=int, required=True, help="degree, n >= 1")
    m.add_argument("--format", choices=["json", "csv", "latex"], default="json")
    m.add_argument(
        "--order",
        choices=["canonical", "paper"],
        default="canonical",
        help="label order; 'paper' reproduces the stored reference layouts",
    )
    m.add_argument("--block", help="class 'n0,n1' with n0 + 2*n1 = n (kind=block)")
    m.add_argument(
        "--cache",
        action="store_true",
        help=f"reuse ${_CACHE_ENV} (default ./{_CACHE_DEFAULT}) across runs",
    )
    m.set_defaults(func=_cmd_matrix)

    d = sub.add_parser("decompose", help="apply a partition bijection")
    d.add_argument("map", choices=["phi", "psi", "glaisher", "habacus", "2quot"])
    d.add_argument("partition", help="e.g. '5^3,4^4,2^7,1'; '-' for the empty partition")
    d.set_defaults(func=_cmd_decompose)

    v = sub.add_parser("verify", help="run the verification harness")
    v.add_argument(
        "--claims",
        default="all",
        help="'all' or a comma-separated subset of: " + ", ".join(claim_ids()),
    )
    v.add_argument("--max-n", type=int, default=8, dest="max_n")
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("expand", help="print a symmetric function")
    e.add_argument("family", choices=sorted(_FAMILIES))
    e.add_argument("partition", help="e.g. '2,1'")
    e.add_argument("--vars", choices=["x", "t-schur", "t-q"], default="x")
    e.add_argument("--format", choices=["text", "json"], default="text")
    e.set_defaults(func=_cmd_expand)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Exit 0 on success, 1 when a verification fails,
    2 on bad input (ValueError) and 3 on an internal defect (ArithmeticError:
    a non-integral kernel entry, a singular solve, disagreeing closed forms,
    an off-block entry)."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: compute, emit, cache, verify.

Subcommands
-----------
matrix     emit a transition-related matrix as json, csv, or latex
decompose  apply one of the partition bijections and print the pieces
verify     run the verification harness and stream JSON-line reports
expand     print a symmetric function in one of the display conventions

``matrix`` emits one value, the matrix's JSON document as
``labeled.matrix_to_json_dict`` writes it: json prints it, csv joins its
entries (already decimal strings) and only latex decodes it back into a
matrix to print the labels.

The optional matrix cache is a directory of JSON files, one per (package
version, cache format, kind, degree, order) key and named by a hash of that
key; each holds its key, the document as its payload and a checksum of the
payload.  An entry written by another version or in another format, damaged on
disk, or not shaped as a matrix document of the asked degree is recomputed
rather than served.  Concurrent writers are safe: each renames a whole file of
its own into place.  The order part is "paper" only at degrees with a stored
layout; elsewhere the paper order is the canonical one and shares its entry.
The location comes from the COMPOUND_CACHE_DIR environment variable and
defaults to ./.compound-cache.  Cached and freshly computed runs emit
byte-identical output because a miss stores the very document it emits and a
hit emits the stored one.

Each subcommand imports only the modules it runs, inside its own function:
``transition`` and ``labeled`` to compute a matrix (which brings in only
``tables`` and ``partitions``: no ``symfunc`` and no ``fractions``),
``golden`` for ``--order paper``, ``verify`` for ``verify``, ``partitions``
for ``decompose``, and ``partitions`` and ``symfunc`` for ``expand``.  A json
or csv cache hit reads, checks and emits with no module of the package
beyond this one.  Only the cache hashes, with the interpreter's builtin
SHA-256 module: ``hashlib`` is its fallback where that is not built.

json prints the document as ``json.dumps(doc, indent=2)`` lays it out, but
that call always takes the pure-Python encoder; ``_json_text`` sends each row
of entries through the C encoder with the indented item separator and only
the labels (and AtA's ``blocks``) down the indented path: the same bytes in
about half the time (1.2 ms against 1.9 ms for A at n = 12, 44 ms against
96 ms at n = 20, on 2 shared vCPUs under Python 3.11).

A CLI process ends right after ``main`` has run its command and flushed
standard output, and what the interpreter then spends is its shutdown
collections over every live object: about 9 ms of an 85 ms cached ``matrix A
--n 12`` hit, 10 ms of a 213 ms ``verify --max-n 14`` (the benchmark's times
on 2 shared vCPUs under Python 3.11).  So ``main`` registers
``gc.freeze`` with ``atexit``, once per process: at exit it moves every live
object into the permanent generation, which those collections skip.  An
in-process caller of ``main(argv)``, such as a test suite, keeps running
unfrozen until its own exit.  The consequence: finalizers of objects in
reference cycles do not run at CLI exit.  The package keeps none: its files
are closed by ``with`` and the process pool by ``check_all``.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys

from . import __version__

__all__ = ["main"]

_CACHE_ENV = "COMPOUND_CACHE_DIR"
_CACHE_DEFAULT = ".compound-cache"
# part of every cache key: bump it when the stored entry's layout changes, so
# that entries of the old layout miss instead of being served verbatim
_CACHE_FORMAT = 1
# the fields of a matrix document, in the order matrix_to_json_dict writes them
_DOC_FIELDS = ["n", "row_labels", "col_labels", "entries"]
# json.dumps(..., indent=2) as an encoder, and the C encoder of one row of
# entries as that layout nests it: one string per line, six spaces in
_INDENTED = json.JSONEncoder(indent=2)
_ROW = json.JSONEncoder(separators=(",\n      ", ": "))


# --------------------------------------------------------------------------
# Cache
# --------------------------------------------------------------------------

def _sha256_hex(text: str) -> str:
    """The hex SHA-256 digest of ``text`` in UTF-8, from the interpreter's
    builtin module (``_sha256``, ``_sha2`` from Python 3.12) where it is
    built: ``hashlib`` would load OpenSSL's ``_hashlib`` for the same
    digest."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode("utf-8")).hexdigest()


def _checksum(payload: dict) -> str:
    return _sha256_hex(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _cache_dir() -> str:
    return os.environ.get(_CACHE_ENV, _CACHE_DEFAULT)


def _cache_path(key: str) -> str:
    return os.path.join(_cache_dir(), _sha256_hex(key)[:32] + ".json")


def _is_matrix_doc(doc, n: int) -> bool:
    """Whether ``doc`` is laid out as the document of a degree-``n`` matrix:
    its four fields in order, and one list of strings per row label, each as
    long as the column labels."""
    if list(doc) != _DOC_FIELDS or doc["n"] != n:
        return False
    width, rows = len(doc["col_labels"]), doc["entries"]
    return len(rows) == len(doc["row_labels"]) and all(
        type(row) is list and len(row) == width and set(map(type, row)) <= {str}
        for row in rows
    )


def _cache_load(key: str, n: int) -> dict | None:
    """The matrix document stored under ``key``, or None when the entry is
    missing, written under another key, fails its checksum or is not shaped
    as the document of a degree-``n`` matrix."""
    path = _cache_path(key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        doc = entry["payload"]
        if entry["key"] != key or entry["checksum"] != _checksum(doc):
            return None
        return doc if _is_matrix_doc(doc, n) else None
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cache_store(key: str, payload: dict) -> None:
    """Write the entry for ``key``; an unusable cache directory is bad input
    (ValueError), raised before anything is printed.  Each writer fills a temp
    file of its own and renames it into place, so concurrent writers of one
    key leave one whole entry."""
    path = _cache_path(key)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        os.makedirs(_cache_dir(), exist_ok=True)
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": key, "checksum": _checksum(payload), "payload": payload}))
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):  # a failed write leaves no partial file behind
            os.remove(tmp)
        raise ValueError(f"cache directory '{_cache_dir()}' is not usable: {exc}") from exc


# --------------------------------------------------------------------------
# matrix
# --------------------------------------------------------------------------

def _parse_block_class(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"block class must look like 'n0,n1', got {text!r}")
    return int(parts[0]), int(parts[1])


def _compute_matrix(kind: str, n: int, block_class):
    from .transition import _gram_block, build_A, build_Gamma, cartan_like, gram_G

    if kind == "A":
        return build_A(n)
    if kind == "Gamma":
        return build_Gamma(n)
    if kind == "G":
        return gram_G(n)
    if kind == "AtA":
        return cartan_like(n)
    return _gram_block(n, *block_class)


def _block_annotation(col_labels: list) -> list[dict]:
    """Classes (n0, n1) = (|r|, |d|) of the column pairs [r, d], in order."""
    seen: dict[tuple[int, int], list] = {}
    for label in col_labels:
        r, d = label
        seen.setdefault((sum(r), sum(d)), []).append(label)
    return [
        {"class": [c[0], c[1]], "size": len(labels), "labels": labels}
        for c, labels in seen.items()
    ]


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` of a matrix document, with each row of
    entries (a list of strings) C-encoded.  Every other field is encoded
    indented at depth 0 and shifted two spaces in: a JSON string holds no
    raw newline, so each newline starts a line of the layout."""
    fields = []
    for key, value in doc.items():
        if key == "entries" and value:
            text = "[\n    " + ",\n    ".join(
                f"[\n      {_ROW.encode(row)[1:-1]}\n    ]" if row else "[]" for row in value
            ) + "\n  ]"
        else:
            text = _INDENTED.encode(value).replace("\n", "\n  ")
        fields.append(f"{_INDENTED.encode(key)}: {text}")
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def _emit_matrix(doc: dict, kind: str, fmt: str) -> str:
    """The matrix document ``doc`` in format ``fmt``."""
    if fmt == "json":
        if kind == "AtA":
            doc = dict(doc, blocks=_block_annotation(doc["col_labels"]))
        return _json_text(doc)
    if fmt == "csv":
        return "\n".join(",".join(row) for row in doc["entries"])
    from .labeled import matrix_from_json_dict, matrix_to_latex

    return matrix_to_latex(matrix_from_json_dict(doc)[1])


def _cmd_matrix(args) -> int:
    if (args.block is None) == (args.kind == "block"):
        raise ValueError("--block n0,n1 goes with kind 'block' and with no other kind")
    block_class = None if args.block is None else _parse_block_class(args.block)
    order = "canonical"
    if args.order == "paper":
        from .golden import paper_layout, paper_order

        # without a stored layout the paper order is the canonical one: one entry
        if paper_layout(args.n) is not None:
            order = "paper"
    key = f"{__version__}:{_CACHE_FORMAT}:{args.kind}:{args.n}:{order}"
    if block_class is not None:
        key += f":{block_class[0]},{block_class[1]}"
    doc = _cache_load(key, args.n) if args.cache else None
    if doc is None:
        from .labeled import matrix_to_json_dict

        mat = _compute_matrix(args.kind, args.n, block_class)
        if order == "paper":
            mat = paper_order(mat, args.n)
        doc = matrix_to_json_dict(mat, args.n)
        if args.cache:
            _cache_store(key, doc)
    print(_emit_matrix(doc, args.kind, args.format))
    return 0


# --------------------------------------------------------------------------
# decompose
# --------------------------------------------------------------------------

def _cmd_decompose(args) -> int:
    from .partitions import glaisher, h_abacus_decompose, parse_partition, phi, psi, two_core_quotient

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
    else:  # the record's fields in its order (json writes each tuple as a list)
        record = h_abacus_decompose if args.map == "habacus" else two_core_quotient
        doc.update(record(lam)._asdict())
    print(json.dumps(doc))
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from .verify import all_passed, check_all

    if args.claims.strip() == "all":
        selected = None
    else:
        selected = [c.strip() for c in args.claims.split(",") if c.strip()]
    reports = check_all(max_n=args.max_n, claims=selected, jobs=args.jobs)
    for report in reports:
        print(report.to_json_line())
    return 0 if all_passed(reports) else 1


# --------------------------------------------------------------------------
# expand
# --------------------------------------------------------------------------

# family -> the name of its constructor in ``symfunc``
_FAMILIES = {
    "S": "schur",
    "Q": "schur_Q",
    "P": "schur_P",
    "W": "W_basis",
    "V": "V_basis",
    "Qprime": "q_prime",
    "h": "h_product",
    "q": "q_product",
    "p": "p_monomial",
}


def _cmd_expand(args) -> int:
    from . import symfunc
    from .partitions import parse_partition

    lam = parse_partition(args.partition)
    f = getattr(symfunc, _FAMILIES[args.family])(lam)
    if args.format == "json":
        doc = {
            "family": args.family,
            "partition": list(lam),
            "vars": args.vars,
            "terms": f.to_json_obj(),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(symfunc.format_symfunc(f, vars=args.vars))
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
    m.add_argument("--block", help="class 'n0,n1' with n0 + 2*n1 = n (kind=block only)")
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
        help="'all' or a comma-separated list of claim ids; an unknown id is "
        "rejected with the list of known ones",
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
    2 on bad input (ValueError), 3 on an internal defect (ArithmeticError:
    a non-integral kernel entry, a singular solve, disagreeing closed forms,
    a non-integral Gram entry) and 4 when the reader closed standard output
    before all of it was written (BrokenPipeError).  The process, when it
    exits, freezes its heap first (see the module notes)."""
    atexit.unregister(gc.freeze)  # one registration however often main runs
    atexit.register(gc.freeze)
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

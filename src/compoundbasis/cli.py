"""Command-line interface: compute, emit, cache, verify.

Subcommands
-----------
matrix     emit a transition-related matrix as json, csv, or latex
decompose  apply one of the partition bijections and print the pieces
verify     run the verification harness and stream JSON-line reports
expand     print a symmetric function in one of the display conventions

``matrix`` emits one value, the matrix's JSON document as
``labeled.matrix_to_json_dict`` writes it: json prints its text (AtA's with
its ``blocks`` appended), csv joins its entries (already decimal strings) and
only latex decodes it back into a matrix to print the labels.

The optional matrix cache is a directory of JSON files, one per (source
digest, kind, degree, order) key and named by a hash of that key.  An entry
is laid out as ``json.dumps`` lays out ``{"key": …, "checksum": …,
"payload": …}``, but its payload is the document's json text verbatim, as
json prints it, and its checksum is the SHA-256 of those bytes; so
``json.loads`` of an entry still yields the document.  A miss encodes the
document once, prints that text and stores it.  A hit checks the key and the
checksum on the bytes, parses the payload once to check that it is shaped as
the document of the asked degree, and then json prints the stored text
without encoding it again (AtA appends its ``blocks`` to that text; csv and
latex work from the parsed document).  The digest hashes ``_KEY_SOURCES``,
the files that compute, order and lay out an entry, without importing them.
An entry written by other code, damaged on disk, or not shaped as a matrix
document of the asked degree is recomputed rather than served.  Concurrent
writers are safe: each renames a whole file of its own into place.  The order
part is "paper" only at degrees with a stored layout; elsewhere the paper
order is the canonical one and shares its entry.  The location comes from the
COMPOUND_CACHE_DIR environment variable and defaults to ./.compound-cache.
Cached and freshly computed runs emit byte-identical output because a miss
stores the very text it prints and a hit prints the stored one.

Each subcommand imports only the modules it runs, inside its own function:
``transition`` and ``labeled`` to compute a matrix (which brings in only
``tables`` and ``partitions``: no ``symfunc`` and no ``fractions``),
``golden`` for ``--order paper``, ``verify`` for ``verify``, ``partitions``
for ``decompose``, and ``partitions`` and ``symfunc`` for ``expand``.  A json
or csv cache hit reads, checks and emits with no module of the package
beyond this one.  Only the cache hashes, with the interpreter's builtin
SHA-256 module: ``hashlib`` is its fallback where that is not built.

A well-formed command line loads no ``argparse``, nor the ``gettext`` and
``locale`` modules argparse's messages bring in.  ``_GRAMMAR`` declares each
subcommand's positionals and options once, as data.  ``_read_argv`` reads an
argv that is exactly a subcommand, its positionals and its long options
spelled in full into the namespace argparse would return.  Everything else
(help, abbreviations, a value starting with '-', every usage error) goes to
the argparse parser that ``_build_parser`` builds from the same table, which
prints and exits as it always did.  Importing argparse (2.0 ms), building
its parser (2.6 ms) and parsing (0.4 ms) cost every command about 5 ms;
reading the argv off the table takes 0.04 ms (medians of 15 fresh
processes, 2 shared vCPUs, Python 3.11).

json prints the document as ``json.dumps(doc, indent=2)`` lays it out, but
that call always takes the pure-Python encoder; ``_json_text`` sends each row
of entries through the C encoder with the indented item separator and only
the labels down the indented path: the same bytes in
about half the time (1.2 ms against 1.9 ms for A at n = 12, 44 ms against
96 ms at n = 20, on 2 shared vCPUs under Python 3.11).

A CLI process skips the interpreter's teardown.  ``entry``, the entry point
of both ``python -m compoundbasis.cli`` and the console script, runs
``main`` and then registers an ``atexit`` handler that flushes standard
output and standard error and ends the process with ``os._exit`` and
``main``'s exit code.  Teardown (collecting, clearing every module and
freeing every live object) was the largest fixed cost left after a command
had run: about 2.5 ms of a cached ``matrix A --n 12`` hit and 3.2 ms of
``verify --max-n 14``, against 0.8 and 0.9 ms from the end of ``main`` to
the reaped process now (2 shared vCPUs, Python 3.11).  The handler runs at
interpreter exit, so a wrapper that finishes after the module does, such as
``python -m cProfile -m compoundbasis.cli``, still prints its report.  The
consequence: no finalizer runs at CLI exit, nor any ``atexit`` handler
registered before this one.  The package relies on none: its files are
closed by ``with`` and the process pool by ``check_all``.  ``main(argv)``,
called in process by a test suite or the benchmark's stage runner,
registers nothing.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from types import SimpleNamespace

__all__ = ["entry", "main"]

_CACHE_ENV = "COMPOUND_CACHE_DIR"
_CACHE_DEFAULT = ".compound-cache"
# the files beside this one that compute, order and lay out a cached entry:
# the SHA-256 of their bytes starts every cache key
_KEY_SOURCES = ("partitions.py", "labeled.py", "tables.py", "transition.py", "golden.py",
                "cli.py", "data/golden.json")
# the fields of a matrix document, in the order matrix_to_json_dict writes them
_DOC_FIELDS = ["n", "row_labels", "col_labels", "entries"]
# json.dumps(..., indent=2) as an encoder, and the C encoder of one row of
# entries as that layout nests it: one string per line, six spaces in
_INDENTED = json.JSONEncoder(indent=2)
_ROW = json.JSONEncoder(separators=(",\n      ", ": "))


# --------------------------------------------------------------------------
# Cache
# --------------------------------------------------------------------------

def _sha256(data: bytes):
    """The SHA-256 hash of ``data``, from the interpreter's builtin module
    (``_sha256``, ``_sha2`` from Python 3.12) where it is built: ``hashlib``
    would load OpenSSL's ``_hashlib`` for the same digest."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def _source_digest() -> str:
    """The hex SHA-256 of the bytes of the ``_KEY_SOURCES`` in order, read
    as files, not imported: any edit to them makes every key new."""
    here, digest = os.path.dirname(os.path.abspath(__file__)), _sha256(b"")
    for name in _KEY_SOURCES:
        with open(os.path.join(here, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _cache_dir() -> str:
    return os.environ.get(_CACHE_ENV, _CACHE_DEFAULT)


def _cache_path(key: str) -> str:
    return os.path.join(_cache_dir(), _sha256(key.encode()).hexdigest()[:32] + ".json")


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


def _entry_head(key: str, checksum: str) -> str:
    """The entry for ``key`` up to its payload, as ``json.dumps`` lays out
    the start of ``{"key": key, "checksum": checksum, "payload": …}``."""
    return f'{{"key": {json.dumps(key)}, "checksum": "{checksum}", "payload": '


def _cache_load(key: str, n: int) -> tuple[dict, str] | None:
    """The matrix document stored under ``key`` and its stored text, or None
    when the entry is missing, written under another key, fails its checksum
    or is not shaped as the document of a degree-``n`` matrix."""
    start = len(_entry_head(key, "0" * 64))  # a SHA-256 is 64 hex digits
    try:
        with open(_cache_path(key), "rb") as fh:
            data = fh.read()
        payload = memoryview(data)[start:-1]  # the bytes between the head and the closing brace
        if data[-1:] != b"}" or data[:start] != _entry_head(key, _sha256(payload).hexdigest()).encode():
            return None
        text = str(payload, "utf-8")
        doc = json.loads(text)
        return (doc, text) if _is_matrix_doc(doc, n) else None
    except (OSError, ValueError, TypeError):
        return None


def _cache_store(key: str, text: str) -> None:
    """Write the entry for ``key`` with the document's printed ``text`` as
    its payload; an unusable cache directory is bad input (ValueError),
    raised before anything is printed.  Each writer fills a temp file of its
    own and renames it into place, so concurrent writers of one key leave one
    whole entry."""
    path = _cache_path(key)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    checksum = _sha256(text.encode()).hexdigest()
    try:
        os.makedirs(_cache_dir(), exist_ok=True)
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(f"{_entry_head(key, checksum)}{text}}}")
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):  # a failed write leaves no partial file behind
            os.remove(tmp)
        raise ValueError(f"cache directory '{_cache_dir()}' is not usable: {exc}") from exc


# --------------------------------------------------------------------------
# matrix
# --------------------------------------------------------------------------

class _InternalError(Exception):
    """A ValueError raised by ``matrix``, ``decompose`` or ``expand`` once
    its input has passed every check: the package, not the input, is at
    fault (exit 3)."""


def _parse_block_class(text: str) -> tuple[int, int]:
    try:
        n0, n1 = map(int, text.split(","))
    except ValueError:  # not two parts, or a part that is not an integer
        raise ValueError(f"block class must look like 'n0,n1', got {text!r}") from None
    return n0, n1


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


def _emit_matrix(doc: dict, text: str | None, kind: str, fmt: str) -> str:
    """The matrix document ``doc`` in format ``fmt``; ``text`` is the
    document as json prints it, None where no run needs it.  AtA's json
    appends ``blocks`` to ``text`` as ``json.dumps(..., indent=2)`` would."""
    if fmt == "json":
        if kind == "AtA":
            blocks = _INDENTED.encode(_block_annotation(doc["col_labels"])).replace("\n", "\n  ")
            text = f'{text.rstrip()[:-1].rstrip()},\n  "blocks": {blocks}\n}}'
        return text
    if fmt == "csv":
        return "\n".join(",".join(row) for row in doc["entries"])
    from .labeled import matrix_from_json_dict, matrix_to_latex

    return matrix_to_latex(matrix_from_json_dict(doc)[1])


def _cmd_matrix(args) -> int:
    if (args.block is None) == (args.kind == "block"):
        raise ValueError("--block n0,n1 goes with kind 'block' and with no other kind")
    block_class = None if args.block is None else _parse_block_class(args.block)
    # the input's checks, with the texts tables._classes and
    # transition._gram_block would raise; so a ValueError past them is a defect
    if args.n < 1:
        raise ValueError(f"degree n must be >= 1, got {args.n}")
    if block_class is not None:
        n0, n1 = block_class
        if min(n0, n1) < 0 or n0 + 2 * n1 != args.n:
            raise ValueError(f"invalid block class ({n0},{n1}): need n0 + 2*n1 = {args.n} with n0, n1 >= 0")
    order = "canonical"
    if args.order == "paper":
        from .golden import paper_layout, paper_order

        # without a stored layout the paper order is the canonical one: one entry
        if paper_layout(args.n) is not None:
            order = "paper"
    key = f"{args.kind}:{args.n}:{order}"
    if block_class is not None:
        key += f":{block_class[0]},{block_class[1]}"
    hit = None
    if args.cache:
        key = f"{_source_digest()}:{key}"
        hit = _cache_load(key, args.n)
    try:
        if hit is None:
            from .labeled import matrix_to_json_dict

            mat = _compute_matrix(args.kind, args.n, block_class)
            if order == "paper":
                mat = paper_order(mat, args.n)
            doc = matrix_to_json_dict(mat, args.n)
            text = _json_text(doc) if args.cache or args.format == "json" else None
        else:
            doc, text = hit
        output = _emit_matrix(doc, text, args.kind, args.format)
    except ValueError as exc:
        raise _InternalError(exc) from exc
    if args.cache and hit is None:
        _cache_store(key, text)
    print(output)
    return 0


# --------------------------------------------------------------------------
# decompose
# --------------------------------------------------------------------------

def _cmd_decompose(args) -> int:
    from .partitions import (
        glaisher,
        h_abacus_decompose,
        is_strict,
        parse_partition,
        phi,
        psi,
        two_core_quotient,
    )

    lam = parse_partition(args.partition)
    # the input's one check, with the texts glaisher and h_abacus_decompose
    # would raise; so a ValueError past it is a defect
    if args.map in ("glaisher", "habacus") and not is_strict(lam):
        name = "glaisher" if args.map == "glaisher" else "abacus"
        raise ValueError(f"{name} expects a strict partition, got {lam}")
    doc: dict = {"map": args.map, "input": list(lam)}
    try:
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
    except ValueError as exc:
        raise _InternalError(exc) from exc
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
    from .partitions import is_strict, parse_partition

    lam = parse_partition(args.partition)
    # the input's one check, with the text symfunc.schur_Q would raise; so a
    # ValueError past it is a defect
    if args.family in ("Q", "P") and not is_strict(lam):
        raise ValueError(f"Q_lam needs a strict partition, got {lam}")
    try:
        f = getattr(symfunc, _FAMILIES[args.family])(lam)
        if args.format == "json":
            doc = {
                "family": args.family,
                "partition": list(lam),
                "vars": args.vars,
                "terms": f.to_json_obj(),
            }
            output = json.dumps(doc, indent=2)
        else:
            output = symfunc.format_symfunc(f, vars=args.vars)
    except ValueError as exc:
        raise _InternalError(exc) from exc
    print(output)
    return 0


# --------------------------------------------------------------------------
# Parser and entry point
# --------------------------------------------------------------------------

# The grammar of the four subcommands, declared once: per subcommand its help
# line, its handler and its arguments, each a positional or a long option
# with the keywords ``add_argument`` takes for it.  ``_build_parser`` builds
# the argparse parser from it and ``_read_argv`` reads well-formed argv off it.
_GRAMMAR = {
    "matrix": ("emit a transition-related matrix", _cmd_matrix, (
        ("kind", {"choices": ["A", "Gamma", "G", "AtA", "block"]}),
        ("--n", {"type": int, "required": True, "help": "degree, n >= 1"}),
        ("--format", {"choices": ["json", "csv", "latex"], "default": "json"}),
        ("--order", {
            "choices": ["canonical", "paper"],
            "default": "canonical",
            "help": "label order; 'paper' reproduces the stored reference layouts",
        }),
        ("--block", {"help": "class 'n0,n1' with n0 + 2*n1 = n (kind=block only)"}),
        ("--cache", {
            "action": "store_true",
            "default": False,
            "help": f"reuse ${_CACHE_ENV} (default ./{_CACHE_DEFAULT}) across runs",
        }),
    )),
    "decompose": ("apply a partition bijection", _cmd_decompose, (
        ("map", {"choices": ["phi", "psi", "glaisher", "habacus", "2quot"]}),
        ("partition", {"help": "e.g. '5^3,4^4,2^7,1'; '-' for the empty partition"}),
    )),
    "verify": ("run the verification harness", _cmd_verify, (
        ("--claims", {
            "default": "all",
            "help": "'all' or a comma-separated list of claim ids; an unknown id is "
            "rejected with the list of known ones",
        }),
        ("--max-n", {"type": int, "default": 8}),
        ("--jobs", {"type": int, "default": 1}),
    )),
    "expand": ("print a symmetric function", _cmd_expand, (
        ("family", {"choices": sorted(_FAMILIES)}),
        ("partition", {"help": "e.g. '2,1'"}),
        ("--vars", {"choices": ["x", "t-schur", "t-q"], "default": "x"}),
        ("--format", {"choices": ["text", "json"], "default": "text"}),
    )),
}


def _build_parser():
    """The argparse parser of ``_GRAMMAR``: the one reader of help, of
    abbreviated options and of every malformed argv, and the only importer
    of argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="compoundbasis",
        description="Exact computations around the compound basis of symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, func, arguments) in _GRAMMAR.items():
        command_parser = sub.add_parser(command, help=help_line)
        for name, spec in arguments:
            command_parser.add_argument(name, **spec)
        command_parser.set_defaults(func=func)
    return parser


def _read_value(token: str, spec: dict):
    """``token`` as the value of the argument ``spec``: through its type and
    within its choices.  ValueError for a token argparse might read as an
    option (empty or starting with '-') and for one it would reject."""
    if not token or token.startswith("-"):
        raise ValueError(token)
    value = spec.get("type", str)(token)
    if value not in spec.get("choices", [value]):
        raise ValueError(token)
    return value


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns, read off
    ``_GRAMMAR`` without argparse, or None unless ``argv`` is well formed: a
    subcommand, its positionals in order, then its long options spelled in
    full as ``--name value`` or ``--name=value`` (a flag bare), each value
    through its type and within its choices, and every required option
    given.  A repeated option keeps its last value, as in argparse.  All
    else (help, abbreviations, values starting with '-', '--', every usage
    error) is None and left to argparse."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, func, arguments = _GRAMMAR[argv[0]]
    positionals = [(name, spec) for name, spec in arguments if not name.startswith("-")]
    options = {name: spec for name, spec in arguments if name.startswith("-")}
    if len(argv) <= len(positionals):
        return None
    values, given = {"command": argv[0], "func": func}, {}
    try:
        for (name, spec), token in zip(positionals, argv[1:]):
            values[name] = _read_value(token, spec)
        rest = iter(argv[1 + len(positionals):])
        for token in rest:
            name, eq, value = token.partition("=")
            spec = options[name]  # KeyError: not an option of this subcommand
            if spec.get("action") != "store_true":
                given[name] = _read_value(value if eq else next(rest, ""), spec)
            elif eq:
                raise ValueError(token)
            else:
                given[name] = True
    except (KeyError, ValueError):
        return None
    if any(spec.get("required") and name not in given for name, spec in options.items()):
        return None
    values.update(
        (name[2:].replace("-", "_"), given.get(name, spec.get("default")))
        for name, spec in options.items()
    )
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run one subcommand.  Exit 0 on success, 1 when a verification fails,
    2 on bad input (ValueError), 3 on an internal defect (ArithmeticError:
    a non-integral kernel entry, a singular solve, disagreeing closed forms,
    a non-integral Gram entry; or _InternalError), 4 when the reader closed
    standard output before all of it was written (BrokenPipeError) and 5
    when the process ran out of memory (MemoryError)."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _build_parser().parse_args(argv)
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
    except (ArithmeticError, _InternalError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 5


def _exit_now(code: int) -> None:
    """Flush the standard streams and end the process with ``code``."""
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(code)


def entry() -> int:
    """The command line's entry point, for ``python -m compoundbasis.cli``
    and the console script: run ``main`` on ``sys.argv``, then end the
    process at exit without tearing the interpreter down (see the module
    notes)."""
    code = main()
    atexit.register(_exit_now, code)
    return code


if __name__ == "__main__":
    raise SystemExit(entry())

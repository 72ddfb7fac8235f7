"""The package imports nothing outside the standard library, its modules
import one another only down a fixed order of layers, and a process loads
only the modules its command runs."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compoundbasis

SRC = Path(__file__).resolve().parent.parent / "src" / "compoundbasis"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


# CPython's builtin SHA-256 module is `_sha256` up to 3.11 and `_sha2` from
# 3.12: each is standard library, but only in its own versions' names
BUILTIN_SHA256 = {"_sha256", "_sha2"}


def test_package_imports_only_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in _absolute_imports(path)
        if module not in sys.stdlib_module_names | BUILTIN_SHA256 and module != "compoundbasis"
    ]
    assert foreign == []


# Each module may import only the modules before it, and the package root,
# which loads no submodule (test_importing_the_package_loads_no_submodule)
# and so is below every layer.
LAYERS = ("partitions", "labeled", "tables", "symfunc", "transition", "golden", "verify", "cli")


def _relative_imports(path: Path):
    """Every ``from .x import ...`` in the file, function-local ones included;
    ``from . import ...`` yields the package root as ``""``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node.lineno, node.module or ""


def test_modules_import_down_the_layers():
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(LAYERS)
    upward = [
        f"{name}.py:{line}: {target or 'compoundbasis'}"
        for rank, name in enumerate(LAYERS)
        for line, target in _relative_imports(SRC / f"{name}.py")
        if target not in ("", *LAYERS[:rank])
    ]
    assert upward == []


# The kernel's own counters and columns: each derived object has one route,
# through `tables`, and `partitions` defines the two counters it reads.
KERNEL_ONLY = {"_yamanouchi_tableaux", "_dimension", "_mn_column", "_bar_column"}


def _names(path: Path):
    """Every name the module's code binds, reads or imports (attributes
    included), with its line; text in strings and comments is not code."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name


def test_only_tables_reads_the_kernel_counters_and_columns():
    foreign = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in ("tables", "partitions")
        for line, name in _names(path)
        if name in KERNEL_ONLY
    ]
    assert foreign == []


def test_transition_reads_products_and_green_values_through_the_pairing():
    # transition forms its products through `tables._pairing`, the one home
    # of the pairing weights, and reads Green values only through the class
    # table (and so through Gamma)
    foreign = [
        f"transition.py:{line}: {name}"
        for line, name in _names(SRC / "transition.py")
        if name in ("_matmul", "_green_rows")
    ]
    assert foreign == []


def test_no_claim_or_builder_reads_the_fraction_solver():
    # every claim multiplies through the integer kernel; `bareiss_solve`
    # stays public only for the benchmark's layer probe
    foreign = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "transition"
        for line, name in _names(path)
        if name == "bareiss_solve"
    ]
    assert foreign == []


# --------------------------------------------------------------------------
# Import budget: lazy package exports, and each command's own modules
# --------------------------------------------------------------------------

# every name `from compoundbasis import *` binds: the public surface, pinned
# so that adding or dropping a name is deliberate
STAR_NAMES = """
AbacusDecomposition CLAIM_CAPS LabeledIntMatrix SingularMatrixError SymFunc
TwoQuotient V_basis V_from_pair VerificationReport W_basis W_from_pair all_passed
as_partition bareiss_solve blocks build_A build_A_combinatorial build_Gamma
canonical_pairs cartan_like character check check_all claim_ids compare_matrices
complete_h delta_h dominance_leq format_symfunc generate_partitions glaisher
glaisher_inverse gram_G green_function h_abacus_compose h_abacus_decompose h_product
hc_charge inner is_odd is_strict k_value kostka label_str matrix_det
matrix_from_json_dict matrix_to_json_dict matrix_to_latex multiplicities p_monomial
pair_class paper_order parse_partition partition_from_beta partition_str phi
phi_inverse psi psi_inverse q_gen q_prime q_product reorder schur schur_P schur_Q
smith_normal_form sub_double sub_square two_core_quotient weight z_factor
""".split()

COMPUTE_MODULES = {
    "compoundbasis.tables",
    "compoundbasis.transition",
    "compoundbasis.symfunc",
    "compoundbasis.verify",
}


def _modules_after(code: str, **env) -> set[str]:
    """The modules loaded by a fresh interpreter once it has run ``code``."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    report = "\nimport sys; print(*sys.modules, file=sys.stderr)"
    done = subprocess.run(
        [sys.executable, "-c", code + report],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


def test_importing_the_package_loads_no_submodule():
    loaded = _modules_after("import compoundbasis")
    assert sorted(m for m in loaded if m.startswith("compoundbasis.")) == []


def test_a_cache_miss_loads_no_verify(tmp_path):
    code = "from compoundbasis.cli import main; main(['matrix', 'A', '--n', '6', '--cache'])"
    loaded = _modules_after(code, COMPOUND_CACHE_DIR=str(tmp_path))
    assert "compoundbasis.transition" in loaded
    assert "compoundbasis.verify" not in loaded


@pytest.mark.parametrize(
    "argv",
    [["A"], ["Gamma"], ["G"], ["AtA"], ["block", "--block", "2,2"]],
    ids=lambda argv: argv[0],
)
def test_a_matrix_run_loads_only_the_integer_kernel(argv):
    # every matrix is built from the integer tables alone: no SymFunc, no
    # Fraction, no harness and no stored layouts
    code = f"from compoundbasis.cli import main; main({['matrix', *argv, '--n', '6']!r})"
    loaded = _modules_after(code)
    assert sorted(loaded & {"fractions", "decimal"}) == []
    package = sorted(m for m in loaded if m.startswith("compoundbasis."))
    kernel = ["cli", "labeled", "partitions", "tables", "transition"]
    assert package == [f"compoundbasis.{m}" for m in kernel]


def test_only_the_cache_loads_hashlib():
    loaded = _modules_after("from compoundbasis.cli import main; main(['verify', '--max-n', '2'])")
    assert "compoundbasis.verify" in loaded
    assert sorted(loaded & {"hashlib", "_hashlib"}) == []


@pytest.mark.skipif(
    not any(map(importlib.util.find_spec, sorted(BUILTIN_SHA256))),
    reason="this interpreter has no builtin SHA-256 module",
)
def test_the_cache_hashes_without_openssl(tmp_path):
    # a miss and a hit each hash the key and the payload with the builtin
    # module, and the stored file is named by the same digest hashlib gives
    code = "from compoundbasis.cli import main; main(['matrix', 'A', '--n', '6', '--cache'])"
    for run in ("miss", "hit"):
        loaded = _modules_after(code, COMPOUND_CACHE_DIR=str(tmp_path))
        assert ("compoundbasis.transition" in loaded) == (run == "miss")
        assert sorted(loaded & {"hashlib", "_hashlib"}) == [], run
    (entry,) = os.listdir(tmp_path)
    key = json.loads((tmp_path / entry).read_text(encoding="utf-8"))["key"]
    assert entry == hashlib.sha256(key.encode("utf-8")).hexdigest()[:32] + ".json"


def test_a_cache_hit_loads_no_compute_module(tmp_path):
    # a json or csv hit emits the stored document as it is: no decoding module
    def matrix_a(fmt: str) -> set[str]:
        argv = ["matrix", "A", "--n", "6", "--format", fmt, "--cache"]
        code = f"from compoundbasis.cli import main; main({argv!r})"
        return _modules_after(code, COMPOUND_CACHE_DIR=str(tmp_path))

    matrix_a("json")  # fills the cache
    for fmt in ("json", "csv"):
        loaded = matrix_a(fmt)
        assert sorted(loaded & (COMPUTE_MODULES | {"dataclasses", "fractions"})) == []
        package = sorted(m for m in loaded if m.startswith("compoundbasis."))
        assert package == ["compoundbasis.cli"], fmt


def test_every_export_is_the_object_of_its_home_module():
    for name in compoundbasis.__all__:
        home = importlib.import_module(f"compoundbasis.{compoundbasis._HOME[name]}")
        obj = getattr(compoundbasis, name)
        assert obj is getattr(home, name), name
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name


def test_each_module_lists_its_exports_and_nothing_else():
    for module, names in compoundbasis._EXPORTS.items():
        home = importlib.import_module(f"compoundbasis.{module}")
        assert sorted(home.__all__) == sorted(names), module


def test_star_import_binds_every_name_it_bound_before():
    namespace: dict = {}
    exec("from compoundbasis import *", namespace)
    assert sorted(compoundbasis.__all__) == sorted(STAR_NAMES)
    assert [name for name in STAR_NAMES if name not in namespace] == []


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'build_a'"):
        compoundbasis.build_a
    with pytest.raises(ImportError):
        exec("from compoundbasis import build_a", {})

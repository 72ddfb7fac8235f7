"""Each demo script, and README's quick tour, runs against the package in
``src``."""

import doctest
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compoundbasis

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_four_demos():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_the_readme_quick_tour_prints_what_it_shows():
    # the first python block of README.md, read as a doctest up to its
    # closing fence (a whole-file doctest would read the fence as output)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    tour = doctest.DocTestParser().get_doctest(block, {}, "quick tour", "README.md", 0)
    assert tour.examples
    report = []
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    assert runner.run(tour, out=report.append) == (0, len(tour.examples)), "".join(report)


def test_every_module_name_the_readme_cites_resolves():
    # a `module.name` reference to a package module names an attribute that
    # exists, so a retired helper cannot linger in the prose
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = {m.name for m in pkgutil.iter_modules(compoundbasis.__path__)}
    refs = sorted({ref for ref in re.findall(r"`([a-z_]+)\.(\w+)", readme) if ref[0] in modules})
    assert len(refs) >= 10
    missing = [
        f"{mod}.{name}"
        for mod, name in refs
        if not hasattr(importlib.import_module(f"compoundbasis.{mod}"), name)
    ]
    assert not missing

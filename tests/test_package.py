"""Package hygiene: runtime dependencies and the public names."""

import ast
import sys
import warnings
from pathlib import Path

import pytest

import martctrl

SRC = Path(__file__).resolve().parents[1] / "src" / "martctrl"

# numpy is the only runtime dependency beside the standard library
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "martctrl"}


def imported_roots(tree):
    """Top-level names of the absolute imports in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if name not in ALLOWED}
    assert not foreign


def test_every_public_name_resolves():
    missing = [name for name in martctrl.__all__
               if not hasattr(martctrl, name)]
    assert not missing


def test_pyproject_reads_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # setuptools calls the table beta
        project = pyprojecttoml.read_configuration(
            SRC.parents[1] / "pyproject.toml", expand=True)["project"]
    assert project["version"] == martctrl.__version__

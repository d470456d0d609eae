"""The third-party imports of the code match what pyproject.toml declares, and
the package's modules import one another only along the allowed layers."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def third_party_imports(files, first_party):
    """Top-level names of every absolute import in ``files`` that is neither
    stdlib nor in ``first_party``, including imports inside functions."""
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - first_party


def requirement_names(requirements):
    """Names of PEP 508 requirements such as ``numpy>=1.24``; each is also the import name."""
    return {re.match(r"[A-Za-z0-9_.-]+", req)[0] for req in requirements}


@pytest.fixture(scope="module")
def project():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11; the package supports 3.10
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_package_imports_exactly_the_runtime_dependencies(project):
    files = sorted((ROOT / "src" / "localspec").glob("*.py"))
    assert third_party_imports(files, {"localspec"}) == requirement_names(project["dependencies"])


def test_tests_and_bench_import_only_declared_dependencies(project):
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    local_modules = {path.stem for path in files} | {"localspec"}
    declared = requirement_names(project["dependencies"])
    declared |= requirement_names(project["optional-dependencies"]["test"])
    assert third_party_imports(files, local_modules) <= declared


def package_imports(path):
    """Dotted names that ``path`` imports from localspec, relative imports
    resolved; ``from M import name`` yields both M and M.name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["localspec" if node.level else "", node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return {name for name in names if name.split(".")[0] == "localspec"}


@pytest.mark.parametrize("module", ["embedding", "spectral"])
def test_localizability_is_imported_by_no_lower_layer(module):
    # localizability alone splits A around a vertex; the fitting layers stay below it
    names = package_imports(ROOT / "src" / "localspec" / f"{module}.py")
    assert not {name for name in names if name.startswith("localspec.localizability")}

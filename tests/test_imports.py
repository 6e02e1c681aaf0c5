"""Import hygiene, checked from the syntax tree: every imported name is
used, in the package, its tests and the benchmark scripts, and the
package imports nothing outside the standard library, numpy and oiekit
itself (numpy is the only runtime dependency; the tests also import
pytest and hypothesis). Also:
every public function and class of the package is named by the package
or the benchmark scripts, so test-only code stays in tests/; and
the CLI does not load the HTTP stack that only the entailment adapter
uses."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "oiekit"
BENCH = TESTS.parent / "bench"
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "oiekit"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_problems(source: str, check_modules: bool = True) -> list[str]:
    """Unused imported names and, with ``check_modules``, imports of
    modules outside ALLOWED_TOP_LEVEL."""
    tree = ast.parse(source)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            parts = (_dotted(node) or "").split(".")
            used.update(".".join(parts[: i + 1]) for i in range(len(parts)))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            bound = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            modules = [node.module] if node.level == 0 else []
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for module in modules if check_modules else ():
            if module.split(".")[0] not in ALLOWED_TOP_LEVEL:
                problems.append(f"line {node.lineno}: imports {module}")
        for name in bound:
            if name not in used:
                problems.append(f"line {node.lineno}: {name} is never used")
    return problems


def test_checker_finds_unused_and_foreign_imports():
    source = ("import os\nimport urllib.parse\nimport urllib.request\n"
              "import requests\nfrom typing import Optional\n"
              "urllib.request.urlopen\nrequests.post\n")
    assert import_problems(source) == [
        "line 1: os is never used",
        "line 2: urllib.parse is never used",
        "line 4: imports requests",
        "line 5: Optional is never used",
    ]
    assert import_problems(source, check_modules=False) == [
        "line 1: os is never used",
        "line 2: urllib.parse is never used",
        "line 5: Optional is never used",
    ]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_imports_are_clean(module):
    # __init__.py is left out: its imports are the package's re-exports.
    assert import_problems((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_imports_are_used(module):
    assert import_problems((TESTS / module).read_text(encoding="utf-8"),
                           check_modules=False) == []


@pytest.mark.parametrize("module", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_imports_are_used(module):
    assert import_problems((BENCH / module).read_text(encoding="utf-8"),
                           check_modules=False) == []


def unreferenced_definitions(package: dict[str, str], elsewhere: str) -> list[str]:
    """Public top-level functions and classes of the ``package`` sources
    (module name -> source) whose name appears as a word nowhere in those
    sources or in ``elsewhere``, apart from their own definition."""
    text = "\n".join([*package.values(), elsewhere])
    found = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and len(re.findall(rf"\b{node.name}\b", text)) < 2):
                found.append(f"{module}.{node.name}")
    return found


def test_every_public_definition_is_named_by_the_package_or_the_benchmark():
    source = "def used():\n    pass\n\n\ndef orphan():\n    used()\n\n\nclass _Hidden:\n    pass\n"
    assert unreferenced_definitions({"m": source}, "") == ["m.orphan"]
    package = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py")))
    assert unreferenced_definitions(package, bench) == []


def test_cli_import_leaves_the_http_stack_unloaded():
    script = ("import sys, oiekit.cli; "
              "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, encoding="utf-8", check=True)
    assert result.stdout.strip() == "[]"

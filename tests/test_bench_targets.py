"""The benchmark traces oiekit from outside: bench/tracing.py patches the
functions and methods it names, and bench/selftest.py checks that names
imported with ``from ... import`` are patched too. A refactor that renames
or stops sharing one of them fails here instead of in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oiekit_module(name):
    return importlib.import_module(f"oiekit.{name}")


def test_every_traced_function_exists(tracing):
    for module, attr, *_ in tracing.SPANNED + tracing.COUNTED:
        assert callable(getattr(oiekit_module(module), attr, None)), f"{module}.{attr}"


def test_every_traced_method_exists(tracing):
    for module, cls, attr, _ in tracing.METHODS:
        assert callable(vars(getattr(oiekit_module(module), cls)).get(attr)), \
            f"{module}.{cls}.{attr}"


@pytest.mark.parametrize("holder,owner,name", [
    ("rl", "tagger", "allowed_labels"),
    ("rl", "reward", "syn_score"),
    ("tagger", "patterns", "identify_predicates"),
    ("mle", "core", "spans_from_tags"),
])
def test_imported_names_are_the_traced_functions(holder, owner, name):
    assert getattr(oiekit_module(holder), name) is getattr(oiekit_module(owner), name)

"""A functools cache on a module function holds per-run data for the life of the process, out of its callers' sight.

This test lists every `functools.lru_cache` and `functools.cache` decorator
in the package and fails on any that the allow-list below does not name
with the reason it stays.  Per-object caches (`cached_property`) are not
module state and are not listed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinphase"
MODULES = sorted(PACKAGE.glob("*.py"))
CACHES = {"lru_cache", "cache"}
ALLOWED = {
    "entropy_production._reference_log_of": (
        "vn_route, a benchmark workload, calls ep_vn_general with rho_eq once per state, so the reference's "
        "logarithm is memoized; the cache goes when that workload stops passing rho_eq"
    ),
}


def cached_functions(source: str, module: str) -> list:
    """module.name of each function in source decorated with functools.lru_cache or functools.cache, called or bare."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in CACHES:
                    found.append(f"{module}.{node.name}")
    return found


def test_the_check_finds_every_cache_decorator_form():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=4)\ndef a(x): return x\n"
        "@lru_cache\ndef b(x): return x\n"
        "@functools.cache\ndef c(x): return x\n"
        "@cache\ndef d(x): return x\n"
        "class E:\n    @functools.cached_property\n    def f(self): return 1\n"
        "def g(x): return x\n"
    )
    assert cached_functions(source, "m") == ["m.a", "m.b", "m.c", "m.d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_hides_a_cache_off_the_allow_list(path):
    found = cached_functions(path.read_text(encoding="utf-8"), path.stem)
    assert [name for name in found if name not in ALLOWED] == []

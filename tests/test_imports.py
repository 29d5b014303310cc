"""An import a module never uses is dead code that no linter here reports; this test does.

It reads the package modules and the demos.  An import kept on purpose,
such as a name bench/tracer.py wraps, says so with `# noqa: F401` on its
line.  The layering gate below holds `dynamics` to matrices: channels have
no phase-space form, since the phase-space dissipator is the Husimi
function of the matrix one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinphase"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names source imports and never reads, less those whose line carries `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import_and_honours_noqa():
    source = "import os\nimport sys\nfrom math import (\n    pi,\n    tau,  # noqa: F401\n)\nprint(sys.argv)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 4)"]


def imported_modules(source: str) -> set:
    """The last dotted part of every module source imports from or imports, and each name of a `from . import`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.split(".")[-1])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def test_the_layering_check_finds_every_import_form():
    source = "from .spins import SpinJ\nfrom . import errors\nimport spinphase.cli\nfrom spinphase.phase_space import q"
    assert imported_modules(source) == {"spins", "errors", "cli", "phase_space"}


@pytest.mark.parametrize("path", MODULES + DEMOS, ids=lambda path: f"demos/{path.name}" if path in DEMOS else path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_dynamics_imports_nothing_from_phase_space():
    assert "phase_space" not in imported_modules((PACKAGE / "dynamics.py").read_text(encoding="utf-8"))

"""An import a module never uses is dead code that no linter here reports; this test does.

It reads the package modules, the demos and the tests.  An import kept on
purpose, such as a name bench/tracer.py wraps, says so with `# noqa: F401`
on its line.  The layering gate below holds `dynamics` to matrices: channels have
no phase-space form, since the phase-space dissipator is the Husimi
function of the matrix one.  The public-surface gate fails on a name the
package exports that only its own module and the tests read, unless the
allow-list below names it with the reason it stays.  The dispatch gate
fails on an `isinstance` test against a channel class anywhere in the
package: each channel carries what its rates read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinphase"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
# exported names that no package module but their own, no demo and no benchmark file reads
UNREAD_EXPORTS = {
    "PauliRates": "the return type of pauli_rates_from_davies, exported so a caller can name it",
    "Trajectory": "the return type of evolve, exported so a caller can name it",
    "CoherentAmplitudes": "the return type of coherent_amplitudes, exported so a caller can name it",
    **dict.fromkeys(
        ("phase_space_jz", "phase_space_jplus", "phase_space_jminus"),
        "the paper's differential operators for J_z and the ladder pair acting on Q, kept as its statement of them",
    ),
}


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


@pytest.mark.parametrize(
    "path", MODULES + DEMOS + TESTS, ids=lambda path: path.name if path in MODULES else f"{path.parent.name}/{path.name}"
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_dynamics_imports_nothing_from_phase_space():
    assert "phase_space" not in imported_modules((PACKAGE / "dynamics.py").read_text(encoding="utf-8"))


def exported_names(source: str) -> dict:
    """{name: module} of every name an `__init__` source imports from a package module."""
    return {
        alias.asname or alias.name: node.module
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def read_names(source: str) -> set:
    """Every name source loads, as a bare name or an attribute, or looks up by a string equal to it, as getattr does."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_the_surface_check_finds_reads_by_name_attribute_and_string():
    source = 'import spinphase as sp\nx = sp.a(b)\ngetattr(sp, "c")\nd = 1\n"""e, named in a docstring"""\n'
    assert {"a", "b", "c"} <= read_names(source)
    assert not {"d", "e"} & read_names(source)
    assert exported_names("from .m import (\n    a,\n    b as c,\n)\n__version__ = '1'\n") == {"a": "m", "c": "m"}


def test_every_export_is_read_outside_its_module_or_allowed():
    exported = exported_names((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    readers = {path: read_names(path.read_text(encoding="utf-8")) for path in MODULES + DEMOS + BENCH}
    unread = [
        name
        for name, module in exported.items()
        if not any(name in names for path, names in readers.items() if path != PACKAGE / f"{module}.py")
    ]
    assert [name for name in unread if name not in UNREAD_EXPORTS] == []
    # an entry whose name is gone or has found a reader leaves the list
    assert sorted(UNREAD_EXPORTS) == sorted(name for name in unread if name in UNREAD_EXPORTS)


def _name_of(node) -> str | None:
    """The name a Name node holds, or the last part of an Attribute's dotted name."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def channel_classes(sources) -> set:
    """Channel and every class in sources that derives from it, directly or through another channel class."""
    bases = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_name_of(base) for base in node.bases}
    found = {"Channel"}
    while more := {name for name, parents in bases.items() if parents & found} - found:
        found |= more
    return found


def channel_isinstance_lines(source: str, channels: set) -> list:
    """Line of each isinstance call in source whose class argument, or a member of its tuple, names one of channels."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name_of(node.func) == "isinstance" and len(node.args) == 2:
            spec = node.args[1]
            if any(_name_of(name) in channels for name in (spec.elts if isinstance(spec, ast.Tuple) else [spec])):
                lines.append(node.lineno)
    return lines


def test_the_dispatch_check_finds_channel_classes_by_name_attribute_and_tuple():
    source = "class A(Channel): pass\nclass B(m.A): pass\nclass C: pass\n"
    channels = channel_classes([source])
    assert channels == {"Channel", "A", "B"}
    calls = "isinstance(x, B)\nisinstance(x, (int, m.A))\nisinstance(x, (int, C))\nisinstance(x, Channel)\n"
    assert channel_isinstance_lines(calls, channels) == [1, 2, 4]


CHANNELS = channel_classes(path.read_text(encoding="utf-8") for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_dispatches_on_a_channel_class(path):
    assert {"UnitaryChannel", "DephasingChannel", "AmplitudeDampingChannel"} <= CHANNELS
    assert channel_isinstance_lines(path.read_text(encoding="utf-8"), CHANNELS) == []

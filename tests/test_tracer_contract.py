"""The benchmark's tracer (bench/tracer.py) times layers by swapping spinphase
module attributes it names.  A refactor that renames one, or that makes the
CLI call a library function through a reference bound at import time, would
silently blank the per-layer metrics of `bench/run.py --trace 1`."""

import ast
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from spinphase import cli, dynamics, entropy_production, errors, phase_space, spins

MODULES = SimpleNamespace(
    cli=cli, dynamics=dynamics, entropy_production=entropy_production, errors=errors,
    phase_space=phase_space, spins=spins,
)


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    names = [(ns, attr) for ns, attr, *_ in tracer.SPANS + tracer.COUNTED] + [("cli", "_run_tasks")]
    missing = [f"{ns}.{attr}" for ns, attr in names if not callable(getattr(getattr(MODULES, ns), attr, None))]
    assert not missing


def test_cli_calls_go_through_the_traced_names(tmp_path):
    tracing = load_tracer()
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        code = cli.main([
            "evolve", "--channel", "damping", "--gamma", "1.0", "--nbar", "0.5", "--bloch", "0.5,0,0.2",
            "--tmax", "0.1", "--steps", "70", "--grid", "16x16", "--deterministic", "--out", str(tmp_path / "o.csv"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.metrics(1.0, 1.0, 1.0)
    rows = 71  # seventy steps and the initial state
    assert metrics["cli.rows"] == rows
    # a block holds BLOCK_NODES // (16 * 16) = 64 states, so the phase-space columns take two stacked calls of each
    assert cli.BLOCK_NODES // (16 * 16) == 64
    assert metrics["phase_space.husimi_calls"] == 2
    assert metrics["entropy_production.quad_calls"] == 2
    assert metrics["phase_space.wehrl_entropy_s"] > 0.0
    # the von Neumann column is one vn_rates pass, which the tracer does not wrap, at every spin
    assert metrics["entropy_production.vn_calls"] == 0
    assert metrics["dynamics.steps"] == 70
    assert metrics["dynamics.liouvillian_calls"] == 1  # the channel's generator, from which evolve builds its step map


def test_a_traced_evolve_above_spin_half_completes(tmp_path):
    # the von Neumann column of a d > 2 table is one stacked pass, and the phase-space columns one stacked call
    # per block; the tracer's per-call hooks must take a stacked field and a stacked report without raising
    tracer = load_tracer().Tracer(MODULES)
    tracer.install()
    try:
        code = cli.main([
            "evolve", "--channel", "damping", "--j", "1", "--gamma", "1.0", "--nbar", "0.5", "--seed", "3",
            "--coherence", "0.4", "--tmax", "0.1", "--steps", "2", "--grid", "16x16", "--out", str(tmp_path / "o.csv"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.metrics(1.0, 1.0, 1.0)
    assert metrics["cli.rows"] == 3
    # the three states of 16 x 16 nodes fit one block
    assert metrics["phase_space.husimi_calls"] == 1
    assert metrics["entropy_production.quad_calls"] == 1
    assert metrics["entropy_production.vn_calls"] == 0


def test_every_kept_unused_import_names_a_traced_name():
    # an import kept only for bench/tracer.py says so with `# noqa: F401`; each must be one the tracer wraps
    tracer = load_tracer()
    traced = {(ns, attr) for ns, attr, *_ in tracer.SPANS + tracer.COUNTED}
    package = Path(__file__).resolve().parents[1] / "src" / "spinphase"
    kept = []
    for path in sorted(package.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom):
                kept += [(path.stem, a.asname or a.name) for a in node.names if "# noqa: F401" in lines[a.lineno - 1]]
    assert kept and [name for name in kept if name not in traced] == []

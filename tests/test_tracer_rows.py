"""Sweep and figure-2 rows reach the library through the names bench/tracer.py wraps.

The benchmark's `sweep_spin4` and `figures_qubit` workloads report their
per-layer metrics from these rows, so each row must make exactly one
Husimi synthesis, one quadrature rate and one von Neumann rate call that
the tracer sees.
"""

from spinphase import cli
from test_tracer_contract import MODULES, load_tracer


def test_sweep_and_fig2_rows_go_through_the_traced_names(tmp_path):
    tracer = load_tracer().Tracer(MODULES)
    tracer.install()
    try:
        codes = [
            cli.main([
                "sweep-coherence", "--channel", "damping", "--gamma", "1", "--nbar", "0.5", "--bloch", "0,0,0.2",
                "--points", "4", "--grid", "16x16", "--out", str(tmp_path / "qubit.csv"),
            ]),
            cli.main([
                "sweep-coherence", "--channel", "dephasing", "--lambda", "1", "--j", "1", "--seed", "2",
                "--coherence", "0.5", "--points", "3", "--grid", "16x16", "--out", str(tmp_path / "random.csv"),
            ]),
            cli.main(["fig", "--id", "2", "--out", str(tmp_path)]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    metrics = tracer.metrics(1.0, 1.0, 1.0)
    rows = 4 + 3 + 2 * 51
    assert metrics["cli.rows"] == rows
    assert metrics["phase_space.husimi_calls"] == rows
    assert metrics["entropy_production.quad_calls"] == rows
    assert metrics["entropy_production.vn_calls"] == rows
    # one Bloch state per qubit point, one seeded draw per random sweep
    assert metrics["spins.state_prep_calls"] == 4 + 1 + 2 * 51

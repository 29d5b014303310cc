"""Sweep and figure-2 rows reach the library through the names bench/tracer.py wraps.

The benchmark's `sweep_spin4` and `figures_qubit` workloads report their
per-layer metrics from these rows, so each block of a table's states
(cli.BLOCK_NODES grid nodes: one state at 128^2, 64 at 16^2) must make
exactly one stacked Husimi synthesis and, per channel, one stacked
quadrature rate call that the tracer sees, and each table, qubit or not,
one vn_rates pass.  Fig 2's two panels share its states, so one pass over
them serves both channels.
"""

from spinphase import cli
from test_tracer_contract import MODULES, load_tracer


def test_sweep_and_fig2_rows_go_through_the_traced_names(tmp_path, monkeypatch):
    stacks = []
    vn_rates = cli.vn_rates
    monkeypatch.setattr(cli, "vn_rates", lambda states, channel: stacks.append(len(states)) or vn_rates(states, channel))
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
    # each 16 x 16 sweep fits one block; fig 2 runs each of its 51 states at 128^2 as a block of its own,
    # whose one Husimi field both channels' quadratures read
    assert metrics["phase_space.husimi_calls"] == 1 + 1 + 51
    assert metrics["entropy_production.quad_calls"] == 1 + 1 + 2 * 51
    # every table takes its column in one vn_rates pass over its stack, which the tracer does not wrap
    assert metrics["entropy_production.vn_calls"] == 0
    assert stacks == [4, 3, 51, 51]
    # one stacked Bloch call per qubit sweep, fig 2's included, and one seeded draw per random sweep
    assert metrics["spins.state_prep_calls"] == 1 + 1 + 1

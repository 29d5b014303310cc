import math
import warnings

import numpy as np
import pytest

from conftest import column, load_csv
from spinphase.cli import main, read_state_file


def run(args):
    return main([str(a) for a in args])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        run(["--version"])
    assert err.value.code == 0
    assert "spinphase" in capsys.readouterr().out


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2


def evolve_args(out, extra):
    return ["evolve", "--channel", "dephasing", "--j", "1/2", "--lambda", "1.0", "--out", out] + extra


def test_evolve_requires_exactly_one_initial_state(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    assert run(evolve_args(out, [])) == 2
    assert run(evolve_args(out, ["--bloch", "0.5,0,0", "--seed", "1", "--coherence", "0.3"])) == 2
    capsys.readouterr()


def test_evolve_rejects_bloch_for_larger_spin(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    code = run(
        ["evolve", "--channel", "dephasing", "--j", "1", "--lambda", "1.0", "--bloch", "0.5,0,0", "--out", out]
    )
    assert code == 2
    assert "--bloch" in capsys.readouterr().err


def test_evolve_rejects_missing_rate(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    code = run(["evolve", "--channel", "dephasing", "--j", "1/2", "--bloch", "0.5,0,0", "--out", out])
    assert code == 2
    assert "--lambda" in capsys.readouterr().err


def test_evolve_rejects_damping_without_bath(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    code = run(["evolve", "--channel", "damping", "--j", "1/2", "--bloch", "0.5,0,0", "--out", out])
    assert code == 2
    capsys.readouterr()


def test_evolve_rejects_malformed_grid(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    code = run(evolve_args(out, ["--bloch", "0.5,0,0", "--grid", "64by64"]))
    assert code == 2
    assert "--grid" in capsys.readouterr().err


def test_evolve_rejects_bad_spin(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    code = run(
        ["evolve", "--channel", "dephasing", "--j", "2/3", "--lambda", "1.0", "--bloch", "0.5,0,0", "--out", out]
    )
    assert code == 2
    capsys.readouterr()


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("dim 2\n0.7+0j 0.1+0.2j\n0.1-0.2j 0.3+0j\n")
    rho = read_state_file(str(path))
    assert rho[0, 1] == pytest.approx(0.1 + 0.2j)
    out = str(tmp_path / "o.csv")
    code = run(
        ["evolve", "--channel", "dephasing", "--j", "1/2", "--lambda", "1.0", "--state", str(path),
         "--tmax", "1.0", "--steps", "20", "--grid", "32x32", "--out", out]
    )
    assert code == 0


def test_state_file_validation(tmp_path, capsys):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("2\n0.5 0\n0 0.5\n")
    with pytest.raises(Exception) as err:
        read_state_file(str(bad_header))
    assert "--state" in str(err.value)

    bad_rows = tmp_path / "b.txt"
    bad_rows.write_text("dim 2\n0.5 0\n")
    with pytest.raises(Exception):
        read_state_file(str(bad_rows))


def test_evolve_dephasing_diagonal_state_produces_nothing(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("dim 3\n0.5+0j 0j 0j\n0j 0.3+0j 0j\n0j 0j 0.2+0j\n")
    out = str(tmp_path / "o.csv")
    code = run(
        ["evolve", "--channel", "dephasing", "--j", "1", "--lambda", "1.0", "--state", str(path),
         "--tmax", "1.0", "--steps", "10", "--grid", "32x32", "--out", out]
    )
    assert code == 0
    _, header, rows, _ = load_csv(out)
    assert max(abs(v) for v in column(header, rows, "sigma_quad")) < 1e-12


def test_evolve_dephasing_qubit_routes_agree(tmp_path):
    out = str(tmp_path / "o.csv")
    code = run(
        ["evolve", "--channel", "dephasing", "--j", "1/2", "--lambda", "1.0", "--bloch", "0.6,0,0.1",
         "--tmax", "2.0", "--steps", "40", "--grid", "64x64", "--out", out]
    )
    assert code == 0
    meta, header, rows, _ = load_csv(out)
    assert meta["channel"] == "dephasing"
    quad = column(header, rows, "sigma_quad")
    closed = column(header, rows, "sigma_closed")
    for a, b in zip(quad, closed):
        assert abs(a - b) / max(b, 1e-12) < 1e-6
    # time column carries lambda t and sigma_vn dominates sigma_quad
    assert header[0] == "lambda_t"
    for a, b in zip(quad, column(header, rows, "sigma_vn")):
        assert b >= a - 1e-9


def test_evolve_damping_relaxes_to_bath_polarization(tmp_path):
    out = str(tmp_path / "o.csv")
    code = run(
        ["evolve", "--channel", "damping", "--j", "1/2", "--gamma", "1.0", "--nbar", "0.5",
         "--bloch", "0.6,0,0.1", "--tmax", "15.0", "--steps", "150", "--grid", "48x48", "--out", out]
    )
    assert code == 0
    meta, header, rows, _ = load_csv(out)
    assert header[0] == "gamma_bar_t"
    assert float(meta["gamma"]) == 1.0 and float(meta["nbar"]) == 0.5
    # bath polarization -1 / (2 nbar + 1)
    assert rows[-1][header.index("tau_z")] == pytest.approx(-0.5, abs=1e-6)
    assert abs(rows[-1][header.index("tau_x")]) < 1e-6
    # scaled time: gamma_bar = 2, raw tmax = 15
    assert rows[-1][0] == pytest.approx(30.0, abs=1e-9)


def test_evolve_tau_bar_z_flag_selects_unit_gamma_bar(tmp_path):
    out = str(tmp_path / "o.csv")
    code = run(
        ["evolve", "--channel", "damping", "--j", "1/2", "--tau-bar-z", "-0.25",
         "--bloch", "0.3,0,0.0", "--tmax", "1.0", "--steps", "10", "--grid", "32x32", "--out", out]
    )
    assert code == 0
    meta, _, _, _ = load_csv(out)
    assert float(meta["gamma_bar"]) == pytest.approx(1.0)
    assert float(meta["tau_bar_z"]) == pytest.approx(-0.25)


def test_evolve_infinite_temperature_bath(tmp_path):
    out = str(tmp_path / "o.csv")
    code = run(
        ["evolve", "--channel", "damping", "--j", "1/2", "--tau-bar-z", "0.0",
         "--bloch", "0.5,0,0.2", "--tmax", "2.0", "--steps", "20", "--grid", "48x48", "--out", out]
    )
    assert code == 0
    _, header, rows, _ = load_csv(out)
    final_z = rows[-1][header.index("tau_z")]
    assert abs(final_z) < 0.05


def test_evolve_pure_state_reports_nan_vn_rate(tmp_path):
    out = str(tmp_path / "o.csv")
    code = run(
        ["evolve", "--channel", "dephasing", "--j", "1/2", "--lambda", "1.0", "--bloch", "1,0,0",
         "--tmax", "0.5", "--steps", "5", "--grid", "32x32", "--out", out]
    )
    assert code == 0
    _, header, rows, _ = load_csv(out)
    assert math.isnan(rows[0][header.index("sigma_vn")])
    # after finite dephasing the state is mixed and the rate is finite again
    assert not math.isnan(rows[-1][header.index("sigma_vn")])


def test_evolve_spin_one_writes_matrix_columns(tmp_path):
    out = str(tmp_path / "o.csv")
    code = run(
        ["evolve", "--channel", "damping", "--j", "1", "--gamma", "1.0", "--nbar", "0.5",
         "--seed", "3", "--coherence", "0.4", "--tmax", "1.0", "--steps", "10", "--grid", "32x32", "--out", out]
    )
    assert code == 0
    _, header, rows, _ = load_csv(out)
    for name in ("rho_01_re", "rho_01_im", "rho_02_re", "rho_12_re", "s_vn", "s_q", "c_l1"):
        assert name in header
    assert "tau_x" not in header


def test_sweep_qubit_dephasing(tmp_path):
    out = str(tmp_path / "o.csv")
    code = run(
        ["sweep-coherence", "--channel", "dephasing", "--j", "1/2", "--lambda", "1.0",
         "--bloch", "0,0,0", "--points", "6", "--grid", "48x48", "--out", out]
    )
    assert code == 0
    _, header, rows, _ = load_csv(out)
    assert header == ["coherence_fig", "coherence_l1", "sigma_wehrl", "sigma_vn"]
    assert len(rows) == 6
    wehrl = column(header, rows, "sigma_wehrl")
    assert abs(wehrl[0]) < 1e-10
    assert all(b >= a - 1e-12 for a, b in zip(wehrl, wehrl[1:]))
    # the last point reaches the pure-state rim where the vN rate diverges
    assert math.isnan(rows[-1][header.index("sigma_vn")])
    finite = [r for r in rows if not math.isnan(r[header.index("sigma_vn")])]
    for r in finite:
        assert r[header.index("sigma_vn")] >= r[header.index("sigma_wehrl")] - 1e-9


def test_sweep_spin_one_uses_seeded_random_states(tmp_path):
    out = str(tmp_path / "o.csv")
    code = run(
        ["sweep-coherence", "--channel", "damping", "--j", "1", "--gamma", "1.0", "--nbar", "0.5",
         "--seed", "4", "--coherence", "0.8", "--points", "4", "--grid", "32x32", "--out", out]
    )
    assert code == 0
    _, header, rows, _ = load_csv(out)
    assert len(rows) == 4
    for r in rows:
        assert math.isnan(r[header.index("coherence_fig")])
    targets = column(header, rows, "coherence_l1")
    np.testing.assert_allclose(targets, np.linspace(0.0, 0.8, 4), atol=1e-5)


def test_byte_identical_reruns(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["evolve", "--channel", "damping", "--j", "1/2", "--gamma", "1.0", "--nbar", "0.5",
            "--bloch", "0.4,0.2,0.1", "--tmax", "1.0", "--steps", "15", "--grid", "48x48"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_deterministic_flag_changes_only_its_own_metadata(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["evolve", "--channel", "dephasing", "--j", "1/2", "--lambda", "1.0",
            "--bloch", "0.5,0,0.1", "--tmax", "1.0", "--steps", "10", "--grid", "32x32"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b, "--deterministic"]) == 0
    lines_a = [l for l in open(a).read().splitlines() if not l.startswith("# deterministic")]
    lines_b = [l for l in open(b).read().splitlines() if not l.startswith("# deterministic")]
    assert lines_a == lines_b


def test_thread_cap_does_not_change_output(tmp_path, monkeypatch):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["evolve", "--channel", "damping", "--j", "1/2", "--gamma", "1.0", "--nbar", "0.5",
            "--bloch", "0.4,0,0.1", "--tmax", "1.0", "--steps", "12", "--grid", "32x32"]
    assert run(args + ["--out", a]) == 0
    monkeypatch.setenv("SPINPHASE_THREADS", "1")
    assert run(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_fig_rejects_unknown_id(tmp_path, capsys):
    assert run(["fig", "--id", "7", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_fig_outputs_exist(fig_dir):
    names = [
        "fig1_observables.csv",
        "fig2_dephasing.csv",
        "fig2_damping.csv",
        "fig3_dephasing.csv",
        "fig3_damping.csv",
        "fig4_dephasing.csv",
        "fig4_damping.csv",
    ]
    for name in names:
        assert (fig_dir / name).is_file()


def test_fig1_closed_evolution_is_unitary(fig_dir):
    _, header, rows, _ = load_csv(fig_dir / "fig1_observables.csv")
    sz = column(header, rows, "sz_closed")
    ts = column(header, rows, "t")
    for t, z in zip(ts[::100], sz[::100]):
        assert z == pytest.approx(math.cos(t), abs=1e-6)


def test_fig2_panels_share_the_sweep_grid(fig_dir):
    _, h_deph, rows_deph, _ = load_csv(fig_dir / "fig2_dephasing.csv")
    _, h_damp, rows_damp, _ = load_csv(fig_dir / "fig2_damping.csv")
    assert len(rows_deph) == len(rows_damp) == 51
    np.testing.assert_allclose(
        column(h_deph, rows_deph, "coherence_fig"),
        column(h_damp, rows_damp, "coherence_fig"),
        atol=1e-12,
    )


NON_FINITE_STATE = "dim 2\nnan+0j 0j\n0j 0.5+0j\n"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["evolve", "--channel", "dephasing", "--lambda", "1.0", "--bloch", "nan,0,0"], "Bloch"),
        (["evolve", "--channel", "damping", "--gamma", "inf", "--nbar", "0.5", "--bloch", "0.5,0,0"], "gamma"),
        (["evolve", "--channel", "dephasing", "--lambda", "nan", "--bloch", "0.5,0,0"], "dephasing rate"),
        (["evolve", "--channel", "dephasing", "--lambda", "1.0", "--state", "STATE"], "non-finite"),
        (["evolve", "--channel", "dephasing", "--j", "1", "--lambda", "1.0", "--seed", "1", "--coherence", "nan"],
         "coherence"),
        (["sweep-coherence", "--channel", "dephasing", "--lambda", "1.0", "--bloch", "0,0,nan"], "Bloch"),
    ],
)
def test_non_finite_input_is_a_named_error(tmp_path, capsys, argv, named):
    state = tmp_path / "state.txt"
    state.write_text(NON_FINITE_STATE)
    out = tmp_path / "o.csv"
    argv = [str(state) if a == "STATE" else a for a in argv]
    assert run(argv + ["--out", out]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_evolve_builds_spin_operators_at_most_once(tmp_path, monkeypatch):
    # the damping rate needs a channel for dS/dt at every state; it must not
    # rebuild the spin matrices for each one
    from spinphase import spins

    built = []
    real = spins.SpinOperators

    def counting(**fields):
        built.append(fields["j"])
        return real(**fields)

    monkeypatch.setattr(spins, "SpinOperators", counting)
    out = tmp_path / "o.csv"
    code = run([
        "evolve", "--channel", "damping", "--j", "4", "--gamma", "1.0", "--nbar", "0.5",
        "--seed", "3", "--coherence", "0.5", "--tmax", "0.2", "--steps", "20", "--grid", "32x32",
        "--deterministic", "--out", out,
    ])
    assert code == 0
    _, _, rows, _ = load_csv(out)
    assert len(rows) == 21
    assert len(built) <= 1


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--channel", "damping", "--j", "4", "--gamma", "1", "--nbar", "0.5", "--seed", "3",
         "--coherence", "0.4", "--grid", "4x4", "--tmax", "0.4", "--steps", "20"],
        ["sweep-coherence", "--channel", "dephasing", "--j", "4", "--lambda", "1", "--seed", "7",
         "--coherence", "0.8", "--grid", "9x16", "--points", "3"],
    ],
)
def test_grid_below_the_band_limit_is_a_named_error(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and "band limit" in err and "n_phi >= 17" in err
    assert not out.exists()


def test_grid_is_checked_before_propagation(tmp_path, capsys, monkeypatch):
    from spinphase import cli, dynamics

    def fail(*args, **kwargs):
        raise AssertionError("propagated before the grid was checked")

    monkeypatch.setattr(dynamics, "evolve", fail)
    monkeypatch.setattr(cli, "evolve", fail)
    out = tmp_path / "o.csv"
    code = run([
        "evolve", "--channel", "damping", "--j", "4", "--gamma", "1", "--nbar", "0.5", "--seed", "3",
        "--coherence", "0.4", "--grid", "4x4", "--tmax", "1", "--steps", "200000", "--out", out,
    ])
    assert code == 2
    assert "--grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["8x3", "1x16", "3x0"])
def test_grid_below_the_sphere_grid_minimum_names_the_flag(tmp_path, capsys, grid):
    out = tmp_path / "o.csv"
    argv = ["evolve", "--channel", "dephasing", "--lambda", "1", "--bloch", "0.1,0,0", "--grid", grid]
    code = run(argv + ["--out", out])
    assert code == 2
    assert "--grid" in capsys.readouterr().err
    assert not out.exists()


def test_too_coarse_steps_are_a_named_error(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code = run([
        "evolve", "--channel", "damping", "--j", "4", "--gamma", "1", "--nbar", "0.5", "--seed", "3",
        "--coherence", "0.4", "--grid", "32x32", "--tmax", "50", "--steps", "200", "--out", out,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --steps: ") and "too coarse for this channel" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_steps_that_break_positivity_are_a_named_error(tmp_path, capsys):
    # the one RK4 step stays finite but leaves an eigenvalue of -6.35, below every state check's floor
    out = tmp_path / "p.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([
            "evolve", "--channel", "dephasing", "--lambda", "10", "--bloch", "1,0,0", "--tmax", "1", "--steps", "1",
            "--grid", "16x16", "--out", out,
        ])
    assert code == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("error: --steps: minimum eigenvalue reached ") and "steps too coarse" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_sweeps_and_fig2_compute_no_wehrl_rate(tmp_path, monkeypatch):
    # dS/dt feeds only evolve's phi_dot column; sweeps and figures write sigma alone
    from spinphase import entropy_production, phase_space

    calls = []
    real = phase_space.wehrl_rate_dissipative

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(entropy_production, "wehrl_rate_dissipative", counting)
    monkeypatch.setattr(phase_space, "wehrl_rate_dissipative", counting)
    damping = ["--channel", "damping", "--gamma", "1", "--nbar", "0.5", "--grid", "32x32", "--points", "4"]
    assert run(["sweep-coherence", *damping, "--bloch", "0,0,0.2", "--out", tmp_path / "q.csv"]) == 0
    assert run(["sweep-coherence", *damping, "--j", "1", "--seed", "2", "--coherence", "0.5",
                "--out", tmp_path / "s.csv"]) == 0
    assert run(["fig", "--id", "2", "--out", tmp_path]) == 0
    assert calls == []
    assert run(["evolve", "--channel", "damping", "--gamma", "1", "--nbar", "0.5", "--bloch", "0.3,0,0.1",
                "--grid", "32x32", "--tmax", "0.1", "--steps", "2", "--out", tmp_path / "e.csv"]) == 0
    assert len(calls) == 3


def test_write_csv_formats_ints_non_finite_and_missing_cells(tmp_path):
    from spinphase.cli import write_csv

    path = tmp_path / "t.csv"
    rows = [
        [0.5, 3, math.nan, math.inf, -0.0],
        [np.float64(-0.25), np.int64(0), None, -math.inf, np.float64(math.nan)],
    ]
    write_csv(str(path), {"b": 2, "a": "x"}, ["f", "n", "g", "h", "k"], rows, ["floor note"])
    assert path.read_text() == (
        "# a = x\n# b = 2\nf,n,g,h,k\n"
        "5.00000000000000000e-01,3,nan,inf,-0.00000000000000000e+00\n"
        "-2.50000000000000000e-01,0,nan,-inf,nan\n"
        "# warning: floor note\n"
    )

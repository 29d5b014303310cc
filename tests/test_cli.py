import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import column, finite, load_csv
from spinphase import BathParams, bloch_to_rho, ep_vn_qubit_damping, ep_vn_qubit_dephasing
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


@pytest.mark.parametrize("spin", ["inf", "1e400", "inf/2", "nan"])
def test_non_finite_spin_is_a_named_error(tmp_path, capsys, spin):
    out = tmp_path / "o.csv"
    code = run([
        "sweep-coherence", "--channel", "dephasing", "--lambda", "1", "--j", spin, "--seed", "1",
        "--coherence", "0.2", "--points", "3", "--grid", "16x16", "--out", out,
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: --j: expected a positive integer or half-integer, got '{spin}'")
    assert not out.exists()


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
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_deterministic_flag_changes_only_its_own_metadata(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["evolve", "--channel", "dephasing", "--j", "1/2", "--lambda", "1.0",
            "--bloch", "0.5,0,0.1", "--tmax", "1.0", "--steps", "10", "--grid", "32x32"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b, "--deterministic"]) == 0
    lines_a = [l for l in Path(a).read_text().splitlines() if not l.startswith("# deterministic")]
    lines_b = [l for l in Path(b).read_text().splitlines() if not l.startswith("# deterministic")]
    assert lines_a == lines_b


def test_thread_cap_does_not_change_output(tmp_path, monkeypatch):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["evolve", "--channel", "damping", "--j", "1/2", "--gamma", "1.0", "--nbar", "0.5",
            "--bloch", "0.4,0,0.1", "--tmax", "1.0", "--steps", "12", "--grid", "32x32"]
    assert run(args + ["--out", a]) == 0
    monkeypatch.setenv("SPINPHASE_THREADS", "1")
    assert run(args + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


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
SPIN_ONE_SWEEP = ["sweep-coherence", "--channel", "dephasing", "--lambda", "1", "--j", "1", "--seed", "1",
                  "--points", "3"]
SPIN_200 = ["--j", "200", "--seed", "1", "--coherence", "0.01", "--grid", "401x801"]
SPIN_200_DAMPING = ["--channel", "damping", "--gamma", "1", "--nbar", "0.5", *SPIN_200]


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
        (["sweep-coherence", "--channel", "dephasing", "--lambda", "1.0", "--bloch", "nan,0,0.2"], "Bloch"),
        (["sweep-coherence", "--channel", "dephasing", "--lambda", "1.0", "--bloch", "inf,0,0"], "Bloch"),
        # a sweep's maximum is checked as given, before the targets between 0 and it are spaced
        ([*SPIN_ONE_SWEEP, "--coherence", "inf"], "error: --coherence: must be finite and >= 0, got inf"),
        ([*SPIN_ONE_SWEEP, "--coherence", "nan"], "error: --coherence: must be finite and >= 0, got nan"),
        ([*SPIN_ONE_SWEEP, "--coherence", "-0.5"], "error: --coherence: must be finite and >= 0, got -0.5"),
        # evolve checks its target as a sweep checks its maximum
        (["evolve", "--channel", "dephasing", "--lambda", "1", "--j", "1", "--seed", "1", "--coherence", "-0.5"],
         "error: --coherence: must be finite and >= 0, got -0.5"),
        # a count whose arrays cannot be allocated at all (10**11 points or steps fails at once, allocating nothing)
        (["sweep-coherence", "--channel", "dephasing", "--lambda", "1", "--bloch", "0,0,0.2", "--points",
          "100000000000", "--grid", "16x16"], "error: --points: "),
        (["evolve", "--channel", "dephasing", "--lambda", "1", "--bloch", "0.5,0,0", "--steps", "100000000000",
          "--grid", "16x16"], "error: --steps: "),
        # a spin whose d^2 x d^2 generator cannot be allocated at all (two_j 400 asks 385 GiB and fails at once)
        (["sweep-coherence", *SPIN_200_DAMPING, "--points", "2"], "error: --j: "),
        (["sweep-coherence", "--channel", "dephasing", "--lambda", "1", *SPIN_200, "--points", "2"],
         "error: --j: "),
        (["evolve", *SPIN_200_DAMPING, "--steps", "2"], "error: --j: "),
        # a grid whose Gauss-Legendre table cannot be allocated at all (10**6 theta nodes ask 1.8 TiB and fail at once)
        (["sweep-coherence", "--channel", "dephasing", "--lambda", "1", "--j", "1/2", "--points", "3", "--grid",
          "1000000x64"], "error: --grid: Unable to allocate"),
        # a finite rate whose dissipator weights, lambda (m - m')^2 / 2, overflow at this spin
        (["sweep-coherence", "--channel", "dephasing", "--lambda", "1e308", "--j", "2", "--seed", "1", "--coherence",
          "0.5", "--points", "3", "--grid", "16x16"], "dephasing rate"),
        # finite damping rates whose von Neumann rate overflows to inf at a diagonal state
        (["sweep-coherence", "--channel", "damping", "--gamma", "1e300", "--nbar", "1e7", "--j", "2", "--seed", "1",
          "--coherence", "0.5", "--points", "3", "--grid", "16x16"],
         "error: --gamma/--nbar: the rates overflow: sigma_vn is infinite in row 0"),
        (["evolve", "--channel", "damping", "--gamma", "1e300", "--nbar", "1e7", "--j", "2", "--seed", "1",
          "--coherence", "0", "--steps", "2", "--tmax", "1e-310", "--grid", "16x16"],
         "error: --gamma/--nbar: the rates overflow: sigma_vn is infinite in row 0"),
    ],
)
def test_non_finite_input_is_a_named_error(tmp_path, capsys, argv, named):
    state = tmp_path / "state.txt"
    state.write_text(NON_FINITE_STATE)
    out = tmp_path / "o.csv"
    argv = [str(state) if a == "STATE" else a for a in argv]
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert named in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "sweep-coherence"])
def test_a_negative_seed_is_a_named_error(tmp_path, capsys, command):
    out = tmp_path / "o.csv"
    argv = [command, "--channel", "dephasing", "--lambda", "1", "--j", "1", "--seed", "-3", "--coherence", "0.3"]
    assert run(argv + ["--grid", "16x16", "--out", out]) == 2
    assert capsys.readouterr().err == "error: --seed: must be >= 0, got -3\n"
    assert not out.exists()


def test_a_sweep_checks_the_whole_bloch_vector(tmp_path, capsys):
    # only tau_z sets the sweep, but a vector of norm 5.004 is no state
    out = tmp_path / "o.csv"
    argv = ["sweep-coherence", "--channel", "dephasing", "--lambda", "1", "--points", "3", "--grid", "16x16"]
    assert run(argv + ["--bloch", "5,0,0.2", "--out", out]) == 2
    assert "Bloch norm 5.00399840127872 exceeds 1" in capsys.readouterr().err
    assert not out.exists()


def test_fig2_panels_are_the_sweeps_of_their_channels(tmp_path):
    # below the metadata lines, each panel is the --points 51 --grid 128x128 sweep of its channel, byte for byte
    assert run(["fig", "--id", "2", "--out", tmp_path]) == 0
    for name, rate in (("dephasing", ["--lambda", "1"]), ("damping", ["--tau-bar-z", "0"])):
        out = tmp_path / f"{name}.csv"
        assert run(["sweep-coherence", "--channel", name, *rate, "--points", "51", "--grid", "128x128", "--out", out]) == 0
        panel = (tmp_path / f"fig2_{name}.csv").read_text()
        sweep = out.read_text()
        assert panel[panel.index("coherence_fig,") :] == sweep[sweep.index("coherence_fig,") :]


QUBIT_SWEEP = ["sweep-coherence", "--channel", "dephasing", "--lambda", "1", "--points", "3", "--grid", "16x16"]
QUBIT_EVOLVE = ["evolve", "--bloch", "0.5,0,0", "--tmax", "0.1", "--steps", "2", "--grid", "16x16"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        ([*QUBIT_SWEEP, "--state", "state.txt"], "--state"),
        ([*QUBIT_SWEEP, "--seed", "1", "--coherence", "0.3"], "--seed"),
        ([*QUBIT_SWEEP, "--coherence", "0.3"], "--coherence"),
        ([*QUBIT_SWEEP, "--j", "1", "--seed", "1", "--coherence", "0.3", "--bloch", "0,0,0.5"], "--bloch"),
        ([*QUBIT_SWEEP, "--tau-bar-z", "0"], "--tau-bar-z"),
        ([*QUBIT_EVOLVE, "--channel", "dephasing", "--lambda", "1", "--gamma", "1"], "--gamma"),
        ([*QUBIT_EVOLVE, "--channel", "damping", "--gamma", "1", "--nbar", "0.5", "--lambda", "1"], "--lambda"),
        # a qubit sweep reads only tau_z of --bloch, so a transverse part would be recorded but never used
        ([*QUBIT_SWEEP, "--bloch", "0.3,0.1,0.2"], "--bloch"),
        ([*QUBIT_SWEEP, "--bloch", "0,-0.2,0"], "--bloch"),
    ],
)
def test_a_flag_the_command_never_reads_is_a_named_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "o.csv"
    try:
        code = run(argv + ["--out", out])
    except SystemExit as exc:  # a flag the subcommand does not define at all
        code = exc.code
    assert code == 2
    assert flag in capsys.readouterr().err
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
    # the quadrature flux reads the populations, so no command synthesizes D(Q) or integrates D(Q) ln Q;
    # dS/dt is sigma - phi_dot, evolve's phi_dot column included
    from spinphase import entropy_production, phase_space

    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    for name in ("wehrl_rate_dissipative", "dissipator_field"):
        monkeypatch.setattr(phase_space, name, counting(getattr(phase_space, name)))
    monkeypatch.setattr(entropy_production, "wehrl_rate_dissipative", phase_space.wehrl_rate_dissipative)
    damping = ["--channel", "damping", "--gamma", "1", "--nbar", "0.5", "--grid", "32x32"]
    assert run(["sweep-coherence", *damping, "--points", "4", "--bloch", "0,0,0.2", "--out", tmp_path / "q.csv"]) == 0
    assert run(["sweep-coherence", *damping, "--points", "4", "--j", "1", "--seed", "2", "--coherence", "0.5",
                "--out", tmp_path / "s.csv"]) == 0
    assert run(["fig", "--id", "2", "--out", tmp_path]) == 0
    assert run(["evolve", *damping, "--bloch", "0.3,0,0.1", "--tmax", "0.1", "--steps", "2",
                "--out", tmp_path / "e.csv"]) == 0
    assert run(["evolve", *damping, "--j", "2", "--seed", "2", "--coherence", "0.5", "--tmax", "0.1", "--steps", "2",
                "--out", tmp_path / "e2.csv"]) == 0
    assert calls == []
    # the evolve rows still carry a finite, nonzero flux
    _, header, rows, _ = load_csv(tmp_path / "e2.csv")
    phi = column(header, rows, "phi_dot")
    assert len(phi) == 3 and all(math.isfinite(x) for x in phi) and any(x != 0.0 for x in phi)


def test_write_csv_formats_ints_non_finite_and_missing_cells(tmp_path):
    from spinphase.cli import write_csv

    path = tmp_path / "t.csv"
    # a missing value is a NaN cell, as in every table the CLI builds
    rows = [
        [0.5, 3, math.nan, math.inf, -0.0],
        [np.float64(-0.25), np.int64(0), math.nan, -math.inf, np.float64(math.nan)],
    ]
    write_csv(str(path), {"b": 2, "a": "x"}, ["f", "n", "g", "h", "k"], rows, ["floor note"])
    assert path.read_text() == (
        "# a = x\n# b = 2\nf,n,g,h,k\n"
        "5.00000000000000000e-01,3,nan,inf,-0.00000000000000000e+00\n"
        "-2.50000000000000000e-01,0,nan,-inf,nan\n"
        "# warning: floor note\n"
    )


UNREACHABLE = ["--j", "1", "--seed", "1", "--coherence", "5", "--grid", "16x16"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-coherence", "--channel", "dephasing", "--lambda", "1", "--points", "3", *UNREACHABLE],
        ["evolve", "--channel", "dephasing", "--lambda", "1", "--tmax", "0.1", "--steps", "2", *UNREACHABLE],
    ],
)
def test_unreachable_coherence_is_a_named_error(tmp_path, capsys, argv):
    out = tmp_path / "u.csv"
    assert run(argv + ["--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: --coherence: no positive dim=3 state")
    assert not out.exists()


@pytest.mark.parametrize("tmax", ["nan", "inf", "-1"])
def test_tmax_must_be_finite_and_positive(tmp_path, capsys, tmax):
    out = tmp_path / "t.csv"
    assert run(evolve_args(out, ["--bloch", "0.5,0,0", "--tmax", tmax, "--steps", "2", "--grid", "16x16"])) == 2
    assert capsys.readouterr().err.startswith("error: --tmax: must be finite and > 0")
    assert not out.exists()


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_random_sweep_draws_its_states_in_one_call(tmp_path, monkeypatch):
    from spinphase import cli

    draws = _count_calls(monkeypatch, cli, "random_state_with_coherence")
    assert run(["sweep-coherence", "--channel", "dephasing", "--lambda", "1", "--j", "1", "--seed", "4",
                "--coherence", "0.8", "--points", "4", "--grid", "16x16", "--out", tmp_path / "s.csv"]) == 0
    assert len(draws) == 1


def test_evolve_takes_state_only_columns_from_the_trajectory_stack(tmp_path, monkeypatch):
    from spinphase import cli

    entropies = _count_calls(monkeypatch, cli, "von_neumann_entropy")
    coherences = _count_calls(monkeypatch, cli, "l1_coherence")
    assert run(["evolve", "--channel", "dephasing", "--lambda", "1", "--j", "1", "--seed", "3", "--coherence", "0.4",
                "--tmax", "0.1", "--steps", "2", "--grid", "16x16", "--out", tmp_path / "e.csv"]) == 0
    assert len(entropies) == 1 and len(coherences) == 1
    _, _, rows, _ = load_csv(tmp_path / "e.csv")
    assert len(rows) == 3


LOW_TEMPERATURE = ["--channel", "damping", "--j", "4", "--gamma", "1", "--nbar", "0.03", "--seed", "7", "--grid", "32x32"]


def test_low_temperature_von_neumann_column_is_finite(tmp_path):
    # the reference state's smallest population is below 1e-12 here, and its logarithm is still finite
    assert run(["sweep-coherence", *LOW_TEMPERATURE, "--coherence", "0.5", "--points", "3",
                "--out", tmp_path / "s.csv"]) == 0
    assert run(["evolve", *LOW_TEMPERATURE, "--coherence", "0.5", "--tmax", "0.1", "--steps", "4",
                "--out", tmp_path / "e.csv"]) == 0
    for name, count in (("s.csv", 3), ("e.csv", 5)):
        _, header, rows, _ = load_csv(tmp_path / name)
        sigma_vn = column(header, rows, "sigma_vn")
        assert len(sigma_vn) == count and all(math.isfinite(x) and x > 0.0 for x in sigma_vn)


def test_qubit_von_neumann_column_is_finite_at_any_positive_nbar(tmp_path):
    # tau_bar_z rounds to within 1e-12 of -1 here; the closed form reads atanh(tau_bar_z) from nbar instead
    assert run(["sweep-coherence", "--channel", "damping", "--j", "1/2", "--gamma", "1", "--nbar", "1e-13",
                "--points", "3", "--grid", "16x16", "--out", tmp_path / "s.csv"]) == 0
    _, header, rows, _ = load_csv(tmp_path / "s.csv")
    sigma_vn = column(header, rows, "sigma_vn")
    # the last point is the pure state on the rim, where the von Neumann rate diverges
    assert all(math.isfinite(x) and x > 0.0 for x in sigma_vn[:-1]) and math.isnan(sigma_vn[-1])
    assert column(header, rows, "coherence_l1")[-1] == 1.0


def test_von_neumann_column_above_spin_half_is_one_stacked_pass(tmp_path, monkeypatch):
    from spinphase import cli

    stacks = _count_calls(monkeypatch, cli, "vn_rates")
    damping = ["--channel", "damping", "--gamma", "1", "--nbar", "0.5", "--j", "1", "--seed", "3", "--grid", "16x16"]
    assert run(["evolve", *damping, "--coherence", "0.4", "--tmax", "0.1", "--steps", "4",
                "--out", tmp_path / "e.csv"]) == 0
    assert run(["sweep-coherence", *damping, "--coherence", "0.4", "--points", "3", "--out", tmp_path / "s.csv"]) == 0
    assert [args[0].shape for args in stacks] == [(5, 3, 3), (3, 3, 3)]
    # a zero-temperature bath makes the whole column nan, as the qubit closed form does
    assert run(["sweep-coherence", "--channel", "damping", "--gamma", "1", "--nbar", "0", "--j", "1", "--seed", "3",
                "--grid", "16x16", "--coherence", "0.4", "--points", "3", "--out", tmp_path / "z.csv"]) == 0
    _, header, rows, _ = load_csv(tmp_path / "z.csv")
    assert all(math.isnan(x) for x in column(header, rows, "sigma_vn"))


def test_evolve_rows_across_a_block_boundary_are_each_states_own(tmp_path):
    # 17 states on 32 x 32 run as two stacked blocks (16 + 1); every phase-space cell must be what the state alone
    # gives: sigma and S_Q to 1e-15 relative, phi_dot bit for bit, and the floor-note count
    from spinphase import BathParams, DephasingChannel, SphereGrid, SpinJ, coherent_amplitudes, husimi_field
    from spinphase import ep_rate_damping_quad, ep_rate_dephasing_quad, evolve, make_spin_operators, wehrl_entropy
    from spinphase.cli import BLOCK_NODES

    assert BLOCK_NODES // (32 * 32) == 16
    j = SpinJ(8)
    ops = make_spin_operators(j)
    vec = coherent_amplitudes(j, 1.1).amplitudes * np.exp(0.7j * np.arange(j.dim))
    state = tmp_path / "coherent.txt"
    state.write_text("dim 9\n" + "\n".join(" ".join(repr(complex(x)) for x in row) for row in np.outer(vec, vec.conj())))
    grid = SphereGrid(32, 32)
    cases = (
        (["--channel", "dephasing", "--lambda", "1"], DephasingChannel(lam=1.0, ops=ops), ep_rate_dephasing_quad),
        (["--channel", "damping", "--gamma", "1", "--nbar", "0.5"], BathParams.from_nbar(1.0, 0.5).channel(ops),
         ep_rate_damping_quad),
    )
    noted = 0
    for flags, channel, rate in cases:
        out = tmp_path / "e.csv"
        assert run(["evolve", *flags, "--j", "4", "--state", state, "--tmax", "0.01", "--steps", "16",
                    "--grid", "32x32", "--out", out]) == 0
        _, header, rows, notes = load_csv(out)
        assert len(rows) == 17
        traj = evolve(channel, read_state_file(str(state)), 0.01, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for row, rho in zip(rows, traj.states):
                field = husimi_field(rho, grid)
                report = rate(field, channel)
                cells = dict(zip(header, row))
                assert abs(cells["sigma_quad"] - report.sigma_dot) <= 1e-15 * abs(report.sigma_dot)
                assert abs(cells["s_q"] - wehrl_entropy(field)) <= 1e-15 * abs(wehrl_entropy(field))
                assert cells["phi_dot"] == report.phi_dot
                assert cells["warnings_count"] == len(report.warnings)
                noted += len(report.warnings)
    # the coherent state underflows the floor near its antipode until dephasing mixes it
    assert noted > 0


# (rate flags, the von Neumann closed form at a Bloch vector)
QUBIT_VN_CLOSED_FORMS = {
    "dephasing": (["--channel", "dephasing", "--lambda", "0.7"], lambda tau: ep_vn_qubit_dephasing(tau, 0.7)),
    "damping": (["--channel", "damping", "--gamma", "1.3", "--nbar", "0.4"],
                lambda tau: ep_vn_qubit_damping(tau, BathParams.from_nbar(1.3, 0.4))),
    "tau_bar_z": (["--channel", "damping", "--tau-bar-z=-0.3"],
                  lambda tau: ep_vn_qubit_damping(tau, BathParams.from_tau_bar(1.0, -0.3))),
}


def assert_vn_column_is_the_closed_form(taus, sigma_vn, closed, rtol, scale=None):
    """Each cell is nan exactly where the state's smallest eigenvalue is below 1e-12, else the closed form.

    A cell is within rtol of its closed form, or of scale when one is given.
    """
    assert len(taus) == len(sigma_vn)
    for tau, cell in zip(taus, sigma_vn):
        rank_deficient = np.linalg.eigvalsh(bloch_to_rho(tau))[0] < 1e-12
        assert math.isnan(cell) == rank_deficient
        if not rank_deficient:
            expected = closed(tau)
            assert abs(cell - expected) <= rtol * (abs(expected) if scale is None else scale)


@pytest.mark.parametrize("case", list(QUBIT_VN_CLOSED_FORMS))
def test_qubit_von_neumann_column_is_the_closed_form(tmp_path, case):
    # the CLI takes sigma_vn from the matrix route, so the closed forms check it independently
    flags, closed = QUBIT_VN_CLOSED_FORMS[case]
    sweep, trajectory = tmp_path / "s.csv", tmp_path / "e.csv"
    assert run(["sweep-coherence", *flags, "--bloch", "0,0,-0.2", "--points", "9", "--grid", "16x16",
                "--out", sweep]) == 0
    _, header, rows, _ = load_csv(sweep)
    taus = [[perp, 0.0, -0.2] for perp in column(header, rows, "coherence_l1")]
    sigma_vn = column(header, rows, "sigma_vn")
    assert_vn_column_is_the_closed_form(taus, sigma_vn, closed, 1e-13)
    # the sweep ends on the pure states, where the rate diverges
    assert math.isnan(sigma_vn[-1]) and len(finite(sigma_vn)) == 8
    # a pure initial state, mixed from the first step on
    assert run(["evolve", *flags, "--bloch", "0.6,0,0.8", "--tmax", "1", "--steps", "50", "--grid", "16x16",
                "--out", trajectory]) == 0
    _, header, rows, _ = load_csv(trajectory)
    taus = [row[1:4] for row in rows]
    assert header[1:4] == ["tau_x", "tau_y", "tau_z"]
    sigma_vn = column(header, rows, "sigma_vn")
    assert math.isnan(sigma_vn[0]) and len(finite(sigma_vn)) == 50
    scale = max(abs(x) for x in finite(sigma_vn))
    assert_vn_column_is_the_closed_form(taus, sigma_vn, closed, 1e-12, scale)


def test_fig2_von_neumann_column_is_the_closed_form(fig_dir):
    for name, closed in (
        ("dephasing", lambda tau: ep_vn_qubit_dephasing(tau, 1.0)),
        ("damping", lambda tau: ep_vn_qubit_damping(tau, BathParams.from_tau_bar(1.0, 0.0))),
    ):
        _, header, rows, _ = load_csv(fig_dir / f"fig2_{name}.csv")
        taus = [[perp, 0.0, 0.0] for perp in column(header, rows, "coherence_l1")]
        sigma_vn = column(header, rows, "sigma_vn")
        assert_vn_column_is_the_closed_form(taus, sigma_vn, closed, 1e-13)
        assert math.isnan(sigma_vn[-1]) and len(finite(sigma_vn)) == 50


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["evolve", "--channel", "dephasing", "--lambda", "1", "--tmax", "0.1", "--steps", "2", "--grid", "16x16"],
         "--bloch", "-0.5,0,0"),
        (["sweep-coherence", "--channel", "damping", "--points", "3", "--grid", "16x16"], "--tau-bar-z", "-1e-3"),
        (["sweep-coherence", "--channel", "damping", "--points", "3", "--grid", "16x16"], "--tau-bar-z", "-.5e-1"),
    ],
)
def test_a_negative_value_reads_the_same_in_either_spelling(tmp_path, argv, flag, value):
    # argparse alone takes `-0.5,0,0` or `-1e-3` for a flag of its own and refuses `--bloch -0.5,0,0`
    assert run([*argv, flag, value, "--out", tmp_path / "spaced.csv"]) == 0
    assert run([*argv, f"{flag}={value}", "--out", tmp_path / "joined.csv"]) == 0
    assert (tmp_path / "spaced.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()

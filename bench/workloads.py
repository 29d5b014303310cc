"""The four benchmark workloads: inputs from a seed, set-up, and one measured pass.

Why these four (each stresses a different layer, and each optimisation
planned in ROADMAP has one workload that exercises it and one that bypasses
it):

- figures_qubit: the paper's qubit datasets (`spinphase fig --id 1` and
  `--id 2`).  Qubit dynamics, then Husimi synthesis and the quadrature rates
  on a 128^2 grid, where dS/dt is computed but never written, and the
  pure-state rim.  It has no inputs to vary, so it is the same for every
  seed.  Figures 3 and 4 (8-9 s each on one core) are left out: a pass that
  long leaves a run too few passes to take a steady median of.
- trajectory_spin4: `spinphase evolve` at two_j = 8 on the smallest grid the
  band limit allows (32^2).  A hundred small fields each pay the fixed
  per-state cost, and the flux column needs dS/dt.  It runs 100 steps
  of 0.004 up to t = 0.4, so a pass lasts about half a second and the
  calibration loops around it see the host speed it ran at.
- sweep_spin4: `spinphase sweep-coherence --j 4` for both channels on 128^2,
  single-threaded (`--deterministic`).  Few large fields, so per-node
  synthesis dominates; the only workload where state preparation is real
  work.
- vn_route: library calls only, the paper's second route.  Seeded state ->
  `evolve` -> von Neumann rate at every stored state for two_j in
  {1, 2, 4, 8} and three channels.  No phase space at all, so it is where
  propagation changes show and phase-space changes must not.

Every measured pass is single-threaded; the traced run adds a pass with the
CLI thread pool on for the POOLED workloads.
"""

import os

import numpy as np

NAMES = ("figures_qubit", "trajectory_spin4", "sweep_spin4", "vn_route")
POOLED = ("figures_qubit", "trajectory_spin4")  # the traced run times the CLI thread pool on these

TRAJ = {"gamma": 1.0, "nbar": 0.5, "grid": (32, 32), "two_j": 8, "tmax": 0.4, "steps": 100}
SWEEP = {"lam": 1.0, "gamma": 1.0, "nbar": 0.5, "grid": (128, 128), "two_j": 8, "c_max": 1.0, "points": 51}
VN = {"two_js": (1, 2, 4, 8), "lam": 1.0, "gamma": 1.0, "nbar": 0.5, "gamma_bar": 1.0, "tmax": 1.0, "steps": 200}
VN_CHANNELS = ("dephasing", "damping", "damping_inf")
# vn_route states keep every eigenvalue above this, so the logarithms stay
# well conditioned over the whole trajectory
VN_MIN_EIGENVALUE = 1e-3


def reference_channel(kind):
    """vn_route channel as the tuple reference.py takes: (kind, rate[, nbar])."""
    if kind == "dephasing":
        return ("dephasing", VN["lam"])
    if kind == "damping":
        return ("damping", VN["gamma"], VN["nbar"])
    return ("damping_inf", VN["gamma_bar"])


def make_inputs(name, seed, sp):
    """Seeded inputs for one workload; every draw is one the program accepts."""
    rng = np.random.default_rng([seed % 2**63, NAMES.index(name)])

    def reachable_state(dim, low, high, min_eig=0.0, first_draw=False):
        for _ in range(1000):
            state_seed = int(rng.integers(2**31 - 1))
            coherence = round(float(rng.uniform(low, high)), 4)
            try:
                rho = sp.spins.random_state_with_coherence(dim, coherence, state_seed)
            except sp.errors.UnreachableCoherence:
                continue
            if first_draw:
                pops = np.random.default_rng(state_seed).dirichlet(np.ones(dim))
                if not np.array_equal(np.diag(rho).real, pops):
                    continue
            if np.linalg.eigvalsh(rho).min() >= min_eig:
                return state_seed, coherence
        raise RuntimeError(f"no acceptable dim-{dim} random state in 1000 draws")

    if name == "figures_qubit":
        return {}
    if name == "trajectory_spin4":
        state_seed, coherence = reachable_state(TRAJ["two_j"] + 1, 0.3, 1.0)
        return {"state_seed": state_seed, "coherence": coherence}
    if name == "sweep_spin4":
        # The number of rejected draws behind a state is heavy-tailed across
        # seeds (0.13-1.4 s of state preparation per sweep), which would
        # swamp the run-to-run spread.  Keep seeds whose first draw is
        # positive at the top target; by convexity it then serves every
        # target, so each sweep point costs one draw and one scaling.
        state_seed, _ = reachable_state(SWEEP["two_j"] + 1, SWEEP["c_max"], SWEEP["c_max"], first_draw=True)
        return {"state_seed": state_seed}
    combos = []
    for two_j in VN["two_js"]:
        for kind in VN_CHANNELS:
            state_seed, coherence = reachable_state(two_j + 1, 0.1, 0.5, VN_MIN_EIGENVALUE)
            combos.append({"two_j": two_j, "channel": kind, "state_seed": state_seed, "coherence": coherence})
    return {"combos": combos}


def cli_invocations(name, inputs, out_dir):
    """argv lists for spinphase.cli.main, one per CLI call in a pass."""
    if name == "figures_qubit":
        return [["fig", "--id", str(i), "--out", out_dir] for i in (1, 2)]
    if name == "trajectory_spin4":
        return [[
            "evolve", "--channel", "damping", "--j", str(TRAJ["two_j"] // 2),
            "--gamma", repr(TRAJ["gamma"]), "--nbar", repr(TRAJ["nbar"]),
            "--grid", "%dx%d" % TRAJ["grid"], "--seed", str(inputs["state_seed"]),
            "--coherence", repr(inputs["coherence"]), "--tmax", repr(TRAJ["tmax"]),
            "--steps", str(TRAJ["steps"]), "--out", os.path.join(out_dir, "trajectory.csv"),
        ]]
    if name == "sweep_spin4":
        common = [
            "--j", str(SWEEP["two_j"] // 2), "--seed", str(inputs["state_seed"]),
            "--coherence", repr(SWEEP["c_max"]), "--points", str(SWEEP["points"]),
            "--grid", "%dx%d" % SWEEP["grid"], "--deterministic",
        ]
        return [
            ["sweep-coherence", "--channel", "dephasing", "--lambda", repr(SWEEP["lam"])]
            + common + ["--out", os.path.join(out_dir, "sweep_dephasing.csv")],
            ["sweep-coherence", "--channel", "damping", "--gamma", repr(SWEEP["gamma"]), "--nbar", repr(SWEEP["nbar"])]
            + common + ["--out", os.path.join(out_dir, "sweep_damping.csv")],
        ]
    return []


def build(name, inputs, sp):
    """What the workload builds before its first state: grids, operators, channels."""
    ps, dyn, ep = sp.phase_space, sp.dynamics, sp.entropy_production
    if name == "figures_qubit":
        grid = ps.SphereGrid(128, 128)
        ops = sp.spins.make_spin_operators(sp.spins.SpinJ(1))
        dyn.DephasingChannel(lam=1.0, ops=ops)
        ep.BathParams.from_tau_bar(1.0, 0.0).channel(ops)
        ep.BathParams.from_nbar(0.5, 0.5).channel(ops)
        return grid
    if name in ("trajectory_spin4", "sweep_spin4"):
        params = TRAJ if name == "trajectory_spin4" else SWEEP
        grid = ps.SphereGrid(*params["grid"])
        ops = sp.spins.make_spin_operators(sp.spins.SpinJ(params["two_j"]))
        if name == "sweep_spin4":
            dyn.DephasingChannel(lam=SWEEP["lam"], ops=ops)
        return grid, ep.BathParams.from_nbar(params["gamma"], params["nbar"]).channel(ops)
    built = []
    for combo in inputs["combos"]:
        j = sp.spins.SpinJ(combo["two_j"])
        ops = sp.spins.make_spin_operators(j)
        if combo["channel"] == "dephasing":
            built.append((dyn.DephasingChannel(lam=VN["lam"], ops=ops), ops, None))
        elif combo["channel"] == "damping":
            channel = ep.BathParams.from_nbar(VN["gamma"], VN["nbar"]).channel(ops)
            built.append((channel, ops, dyn.damping_stationary_state(j, VN["nbar"])))
        else:
            channel = ep.BathParams.from_tau_bar(VN["gamma_bar"], 0.0).channel(ops)
            built.append((channel, ops, dyn.damping_stationary_state(j, float("inf"))))
    return built


def vn_pass(inputs, built, sp):
    """One vn_route pass: per combo, the stored states and (sigma, phi, dS/dt) at each.

    Library functions are looked up on their modules at call time, so the
    tracer's attribute swaps see these calls.
    """
    results = []
    for combo, (channel, ops, rho_eq) in zip(inputs["combos"], built):
        rho0 = sp.spins.random_state_with_coherence(combo["two_j"] + 1, combo["coherence"], combo["state_seed"])
        traj = sp.dynamics.evolve(channel, rho0, VN["tmax"], VN["steps"])
        rates = np.empty((len(traj.states), 3))
        for k, rho in enumerate(traj.states):
            if rho_eq is None:
                sigma = sp.entropy_production.vn_rate_dephasing(rho, VN["lam"], ops)
                rates[k] = sigma, 0.0, sigma
            else:
                report = sp.entropy_production.ep_vn_general(rho, channel, rho_eq)
                rates[k] = report.sigma_dot, report.phi_dot, report.ds_dt
        results.append((traj.states, rates))
    return results

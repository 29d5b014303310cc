"""Outside-in tracing of the spinphase layers, installed by swapping module attributes.

Callers inside spinphase look functions up in their own module namespace
(`spinphase.cli.husimi_field`, `spinphase.entropy_production.wehrl_rate_dissipative`,
...).  Replacing those attributes with timing wrappers records a span for
every call that crosses into a layer, without editing the library.  Spans
are kept in memory and reduced to per-layer metrics when the pass ends;
`uninstall` restores every original attribute.

A layer is a module.  A span's self time is its duration minus the time of
the spans it directly caused on the same thread, so the layer self times of
a single-threaded pass add up to the traced time.
"""

import dataclasses
import math
import os
import threading
import time
from collections import defaultdict

# Bytes touched per grid node and Fourier component by the synthesis
# `out += np.outer(g, phase)` on complex128: outer-product write, then a
# read of it and a read-modify-write of the accumulator (4 x 16 B).
SYNTH_BYTES_PER_NODE = 64
SYNTH_FIELDS = 3  # q, dq/dtheta and dq/dphi are each synthesised once per state

VN_DIVERGENCES = ("PurityDivergence", "TemperatureDivergence", "SupportError")

# (namespace module, attribute, span name, layer).  One entry per call site
# namespace, so every call is wrapped exactly once.
SPANS = (
    ("cli", "husimi_field", "phase_space.husimi", "phase_space"),
    ("cli", "wehrl_entropy", "phase_space.wehrl_entropy", "phase_space"),
    ("cli", "ep_rate_dephasing_quad", "entropy_production.quad", "entropy_production"),
    ("cli", "ep_rate_damping_quad", "entropy_production.quad", "entropy_production"),
    ("cli", "ep_vn_general", "entropy_production.vn", "entropy_production"),
    ("cli", "vn_rate_dephasing", "entropy_production.vn", "entropy_production"),
    ("cli", "ep_vn_qubit_dephasing", "entropy_production.vn", "entropy_production"),
    ("cli", "ep_vn_qubit_damping", "entropy_production.vn", "entropy_production"),
    ("cli", "ep_qubit_dephasing_closed", "entropy_production.closed", "entropy_production"),
    ("cli", "ep_qubit_damping_closed", "entropy_production.closed", "entropy_production"),
    ("cli", "evolve", "dynamics.evolve", "dynamics"),
    ("cli", "qubit_dephasing_bloch", "dynamics.closed", "dynamics"),
    ("cli", "qubit_damping_bloch", "dynamics.closed", "dynamics"),
    ("cli", "damping_stationary_state", "dynamics.stationary", "dynamics"),
    ("cli", "bloch_to_rho", "spins.state_prep", "spins"),
    ("cli", "random_state_with_coherence", "spins.state_prep", "spins"),
    ("cli", "l1_coherence", "spins.observables", "spins"),
    ("cli", "rho_to_bloch", "spins.observables", "spins"),
    ("cli", "von_neumann_entropy", "spins.observables", "spins"),
    ("cli", "check_density_matrix", "spins.validate", "spins"),
    ("cli", "make_spin_operators", "spins.operators", "spins"),
    ("cli", "write_csv", "cli.write_csv", "cli"),
    ("entropy_production", "wehrl_rate_dissipative", "phase_space.wehrl_rate", "phase_space"),
    ("entropy_production", "apply_liouvillian", "dynamics.liouvillian", "dynamics"),
    ("entropy_production", "dephasing_dissipator", "dynamics.liouvillian", "dynamics"),
    ("entropy_production", "check_density_matrix", "spins.validate", "spins"),
    ("entropy_production", "make_spin_operators", "spins.operators", "spins"),
    ("phase_space", "dissipator_field", "phase_space.dissipator", "phase_space"),
    ("phase_space", "check_density_matrix", "spins.validate", "spins"),
    ("dynamics", "check_density_matrix", "spins.validate", "spins"),
    # the benchmark's own library calls (vn_route) go through the defining modules
    ("spins", "random_state_with_coherence", "spins.state_prep", "spins"),
    ("dynamics", "evolve", "dynamics.evolve", "dynamics"),
    ("entropy_production", "ep_vn_general", "entropy_production.vn", "entropy_production"),
    ("entropy_production", "vn_rate_dephasing", "entropy_production.vn", "entropy_production"),
)

# Called four times per RK4 step: counted, not timed, so tracing stays cheap.
COUNTED = (("dynamics", "apply_liouvillian", "dynamics.liouvillian"),)


class Tracer:
    """Span recorder for one traced pass; `install` patches, `uninstall` restores."""

    def __init__(self, modules):
        self.modules = modules
        self.watched_report = type("WatchedReport", (_WatchedReport, modules.entropy_production.EpReport), {})
        self.local = threading.local()
        self.lock = threading.Lock()
        self.spans = []  # (name, layer, self seconds, inclusive seconds)
        self.counts = defaultdict(float)
        self.patched = []

    def install(self):
        for ns, attr, name, layer in SPANS:
            self._patch(ns, attr, self._span(name, layer, getattr(getattr(self.modules, ns), attr), _HOOKS.get(attr)))
        for ns, attr, name in COUNTED:
            self._patch(ns, attr, self._counter(name, getattr(getattr(self.modules, ns), attr)))
        self._patch("cli", "_run_tasks", self._pool(self.modules.cli._run_tasks))

    def uninstall(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched = []

    def _patch(self, ns, attr, wrapper):
        module = getattr(self.modules, ns)
        self.patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def add(self, name, amount=1.0):
        with self.lock:
            self.counts[name] += amount

    def call(self, name, layer, fn, *args, **kwargs):
        """Run fn inside a span; the benchmark's own calls into a layer use this."""
        stack = self.local.__dict__.setdefault("stack", [])
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self.spans.append((name, layer, elapsed - frame[0], elapsed))

    def _span(self, name, layer, fn, hook):
        def wrapper(*args, **kwargs):
            try:
                result = self.call(name, layer, fn, *args, **kwargs)
            except Exception as exc:
                if name == "entropy_production.vn" and type(exc).__name__ in VN_DIVERGENCES:
                    self.add("vn_nan")
                raise
            return result if hook is None else hook(self, args, result)

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.add(name + "_calls")
            return fn(*args, **kwargs)

        return wrapper

    def _pool(self, run_tasks):
        # The main thread's wait for the pool is not a layer's work; each task
        # is CLI row-building code that runs on a worker thread.
        def wrapper(tasks, deterministic):
            wrapped = [lambda task=task: self.call("cli.task", "cli", task) for task in tasks]
            return self.call("cli.pool", "pool_wait", run_tasks, wrapped, deterministic)

        return wrapper

    def metrics(self, traced_wall, overhead_frac, parallel_efficiency):
        """Per-layer metrics of the traced pass, which took TRACED_WALL seconds."""
        incl = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, layer, own, total in self.spans:
            incl[name] += total
            calls[name] += 1
            self_s[layer] += own
        c = self.counts
        steps = c["dynamics.steps"]
        husimi_calls = calls["phase_space.husimi"]
        ds_dt_computed = calls["phase_space.wehrl_rate"]
        vn_calls = calls["entropy_production.vn"]
        layers = ("spins", "dynamics", "phase_space", "entropy_production", "cli")
        return {
            "spins.self_s": self_s["spins"],
            "spins.state_prep_s": incl["spins.state_prep"],
            "spins.state_prep_calls": calls["spins.state_prep"],
            "spins.observables_s": incl["spins.observables"],
            "dynamics.self_s": self_s["dynamics"],
            "dynamics.evolve_s": incl["dynamics.evolve"],
            "dynamics.steps": steps,
            "dynamics.liouvillian_calls": c["dynamics.liouvillian_calls"] + calls["dynamics.liouvillian"],
            "dynamics.us_per_step": 1e6 * incl["dynamics.evolve"] / steps if steps else 0.0,
            "phase_space.self_s": self_s["phase_space"],
            "phase_space.husimi_s": incl["phase_space.husimi"],
            "phase_space.husimi_calls": husimi_calls,
            "phase_space.husimi_us_per_call": 1e6 * incl["phase_space.husimi"] / husimi_calls if husimi_calls else 0.0,
            "phase_space.synth_madds": c["phase_space.synth_madds"],
            "phase_space.synth_mb": c["phase_space.synth_madds"] * SYNTH_BYTES_PER_NODE / 1e6,
            "phase_space.dissipator_s": incl["phase_space.dissipator"],
            "phase_space.dissipator_calls": calls["phase_space.dissipator"],
            "phase_space.wehrl_entropy_s": incl["phase_space.wehrl_entropy"],
            "entropy_production.self_s": self_s["entropy_production"],
            "entropy_production.quad_s": sum(own for name, _, own, _ in self.spans if name == "entropy_production.quad"),
            "entropy_production.quad_calls": calls["entropy_production.quad"],
            "entropy_production.ds_dt_used_frac": c["ds_dt_used"] / ds_dt_computed if ds_dt_computed else 0.0,
            "entropy_production.vn_s": incl["entropy_production.vn"],
            "entropy_production.vn_calls": vn_calls,
            "entropy_production.vn_nan_frac": c["vn_nan"] / vn_calls if vn_calls else 0.0,
            "entropy_production.floor_reports": c["floor_reports"],
            "cli.self_s": self_s["cli"],
            "cli.write_csv_s": incl["cli.write_csv"],
            "cli.bytes_written": c["cli.bytes_written"],
            "cli.rows": c["cli.rows"],
            "cli.parallel_efficiency": parallel_efficiency,
            "trace.overhead_frac": overhead_frac,
            "trace.coverage_frac": sum(self_s[layer] for layer in layers) / traced_wall,
        }


class _WatchedReport:
    """Mixin recording the first read of a report's flux or dS/dt."""

    def __getattribute__(self, name):
        if name in ("phi_dot", "ds_dt"):
            tracer = object.__getattribute__(self, "_tracer")
            if tracer is not None:
                object.__setattr__(self, "_tracer", None)
                tracer.add("ds_dt_used")
        return object.__getattribute__(self, name)


def _quad_hook(tracer, args, report):
    tracer.add("floor_reports", len(report.warnings))
    return report


def _damping_quad_hook(tracer, args, report):
    # the damping rate evaluates dS/dt; dephasing gets it free as sigma
    tracer.add("floor_reports", len(report.warnings))
    watched = tracer.watched_report(**{f.name: getattr(report, f.name) for f in dataclasses.fields(report)})
    object.__setattr__(watched, "_tracer", tracer)
    return watched


def _husimi_hook(tracer, args, field):
    components = 2 * field.j.two_j + 1
    tracer.add("phase_space.synth_madds", SYNTH_FIELDS * components * field.grid.n_theta * field.grid.n_phi)
    return field


def _vn_hook(tracer, args, result):
    if not math.isfinite(result if isinstance(result, float) else result.sigma_dot):
        tracer.add("vn_nan")
    return result


def _write_csv_hook(tracer, args, result):
    tracer.add("cli.bytes_written", os.path.getsize(args[0]))
    tracer.add("cli.rows", len(args[3]))
    return result


def _evolve_hook(tracer, args, trajectory):
    tracer.add("dynamics.steps", len(trajectory.times) - 1)
    return trajectory


_HOOKS = {
    "husimi_field": _husimi_hook,
    "ep_rate_dephasing_quad": _quad_hook,
    "ep_rate_damping_quad": _damping_quad_hook,
    "ep_vn_general": _vn_hook,
    "vn_rate_dephasing": _vn_hook,
    "ep_vn_qubit_dephasing": _vn_hook,
    "ep_vn_qubit_damping": _vn_hook,
    "write_csv": _write_csv_hook,
    "evolve": _evolve_hook,
}

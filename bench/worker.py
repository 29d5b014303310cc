"""Fresh-process side of the benchmark (run.py starts it; not meant to be run by hand).

    worker.py setup WORKLOAD INPUTS_JSON
        Prints {"setup_s": ...}: import spinphase and build the workload's
        grids and channels, timed from before the first spinphase import.
    worker.py run WORKLOAD INPUTS_JSON OUT_DIR SECONDS TRACE WORKERS
        After an untimed warm-up pass, repeats the workload's pass until
        SECONDS are used (at least one pass), with the calibration loop
        (calibrate.py) before and after each, runs SETUP_PROBES set-up
        probes spread evenly over those seconds, and writes
        OUT_DIR/result.json.
        With TRACE 1 it instead runs an untraced, a traced and another
        untraced pass and, if WORKERS > 1, a pass with the CLI thread pool
        at WORKERS threads, and reports per-layer metrics.  Passes run
        single-threaded unless stated.
"""

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

# Set-up probes are spread over the run rather than taken in a burst before
# it: the host's speed sits at one level for seconds at a time, so a burst
# measures that level, and the medians of bursts in separate runs differed
# by up to 1.6x.
SETUP_PROBES = 9


def import_spinphase(root):
    """The spinphase modules from ROOT/src, refusing any other installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import spinphase
    from spinphase import cli, dynamics, entropy_production, errors, phase_space, spins

    if not os.path.abspath(spinphase.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"spinphase imported from {spinphase.__file__}, not from {src}")
    return SimpleNamespace(
        cli=cli, dynamics=dynamics, entropy_production=entropy_production,
        errors=errors, phase_space=phase_space, spins=spins,
    )


def _setup(name, inputs):
    start = time.perf_counter()
    sp = import_spinphase(os.getcwd())
    import workloads

    workloads.build(name, inputs, sp)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _digest(out_dir, results):
    h = hashlib.sha256()
    if results is not None:
        for states, rates in results:
            h.update(states.tobytes())
            h.update(rates.tobytes())
    else:
        for fname in sorted(os.listdir(out_dir)):
            if fname.endswith(".csv"):
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    h.update(fname.encode() + fh.read())
    return h.hexdigest()


def _setup_probe(name, inputs_path):
    """setup_s of one fresh process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", name, inputs_path],
        stdout=subprocess.PIPE, timeout=60, check=True, text=True,
    ).stdout
    return json.loads(out)["setup_s"]


def _run(name, inputs, inputs_path, out_dir, seconds, trace, workers):
    sp = import_spinphase(os.getcwd())
    import numpy as np

    import calibrate
    import tracer as tracing
    import workloads

    built = workloads.build(name, inputs, sp)
    invocations = workloads.cli_invocations(name, inputs, out_dir)
    failed_invocations = 0

    def one_pass(tracer=None):
        nonlocal failed_invocations
        start = time.perf_counter()
        results = None
        if name == "vn_route":
            results = workloads.vn_pass(inputs, built, sp)
        for argv in invocations:
            try:
                code = tracer.call("cli.main", "cli", sp.cli.main, argv) if tracer else sp.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            if code != 0:
                failed_invocations += 1
        return time.perf_counter() - start, results

    digests, scaler, setups = [], None, []

    def timed(tracer=None):
        wall, results = one_pass(tracer)
        digests.append(_digest(out_dir, results))
        return scaler.add(wall), results

    layer_metrics = {}
    if not trace:
        begin = time.perf_counter()
        _, results = one_pass()  # warm-up: first-call costs and caches, not timed
        digests.append(_digest(out_dir, results))
        scaler = calibrate.Scaler()
        while True:
            _, results = timed()
            used = time.perf_counter() - begin
            if len(setups) < SETUP_PROBES and used >= seconds * len(setups) / SETUP_PROBES:
                setups.append(_setup_probe(name, inputs_path))
                continue
            if used + statistics.median(scaler.raw) + scaler.loops[-1] > seconds:
                break
        while len(setups) < SETUP_PROBES:
            setups.append(_setup_probe(name, inputs_path))
        walls = scaler.scaled
    else:
        # every pass single-threaded; untraced passes on both sides of the
        # traced one, so warm-up and drift do not masquerade as tracing overhead
        scaler = calibrate.Scaler()
        before, results = timed()
        tracer = tracing.Tracer(sp)
        tracer.install()
        try:
            traced, results = timed(tracer)
        finally:
            tracer.uninstall()
        after, results = timed()
        untraced = 0.5 * (before + after)
        pooled = untraced
        if workers > 1:
            os.environ["SPINPHASE_THREADS"] = str(workers)
            pooled, results = timed()
            os.environ["SPINPHASE_THREADS"] = "1"
        walls = [before, after]
        # overhead and pool efficiency from scaled times; coverage from the
        # raw traced time, which the spans share
        layer_metrics = tracer.metrics(scaler.raw[1], traced / untraced, untraced / (workers * pooled))
    if results is not None:
        np.savez(os.path.join(out_dir, "vn_route.npz"), **{
            key: array for i, (states, rates) in enumerate(results)
            for key, array in ((f"states_{i}", states), (f"rates_{i}", rates))
        })
    record = {
        "walls": walls,
        "raw_walls": scaler.raw,
        "calibration_loops": scaler.loops,
        "setup_probes": setups,
        "digests": digests,
        "invocations": len(invocations) * len(digests),
        "failed_invocations": failed_invocations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layer_metrics,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main(argv):
    mode, name, inputs_path = argv[:3]
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    if mode == "setup":
        _setup(name, inputs)
    else:
        out_dir, seconds, trace, workers = argv[3], float(argv[4]), argv[5] == "1", int(argv[6])
        _run(name, inputs, inputs_path, out_dir, seconds, trace, workers)


if __name__ == "__main__":
    main(sys.argv[1:])

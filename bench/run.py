"""spinphase benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a spinphase checkout; the library is imported from its
src/ directory.  Workloads are described in workloads.py and bench/README.md.

--trace 0 measures the end-to-end metrics: set-up time (median of fresh
processes), the median wall time of a pass repeated for S seconds, states
per second and peak resident memory.  Pass and set-up times are scaled to
a nominal host speed with the calibration loop in calibrate.py; the raw
times are in the record line.  --trace 1 reports per-layer metrics from a
traced pass.  Either way every output is checked (oracle.py) and the
last stdout line is {"correct", "attempted", "failed", "metrics"}; the line
before it records the inputs, seed, thread settings and versions.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170


def nproc():
    """Cores this process may use: the affinity mask, capped by a cgroup CPU quota."""
    cores = len(os.sched_getaffinity(0))
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="utf-8") as fh:
            quota, period = fh.read().split()
        if quota != "max":
            cores = min(cores, max(1, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):
        pass
    return cores


def pinned_env():
    """Child environment: BLAS/OpenMP and the CLI pool single-threaded.

    On a few shared cores a second thread measures the host's scheduler
    more than the program; the traced run measures the pool separately.

    glibc's malloc is pinned to serve large arrays from its heap and never
    trim it.  Left dynamic, its mmap threshold made identical passes differ
    4x in page faults and up to 40 % in time, depending on allocation
    history; pinned, the page-fault cost of large temporaries is excluded
    from wall_s (peak_rss_mb still counts the memory).
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = str(64 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(256 << 20)
    env["SPINPHASE_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child(args, env, cwd):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        env=env, cwd=cwd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=True, text=True,
    ).stdout


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinphase", "__init__.py")):
        print(f"error: {root} is not a spinphase checkout (no src/spinphase)", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    import numpy as np

    import calibrate
    import oracle
    import workloads
    from worker import import_spinphase

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    sp = import_spinphase(root)
    cores = nproc()
    pool_workers = cores if args.workload in workloads.POOLED else 1
    env = pinned_env()
    inputs = workloads.make_inputs(args.workload, args.seed, sp)

    work = os.path.join(root, ".bench_run", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)
    try:
        inputs_path = os.path.join(work, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        child(["run", args.workload, inputs_path, out_dir, str(args.seconds), str(args.trace), str(pool_workers)],
              env, root)
        with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
            run = json.load(fh)
        try:
            tables, rim_err = oracle.check(args.workload, inputs, out_dir, sp)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            print(f"output check failed: {exc!r}", file=sys.stderr)
            tables, rim_err = [], None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, ".bench_run"))

    failed_rows = sum(len(t.failed_rows()) for t in tables)
    uncaught = [t.label for t in tables if not t.perturbation_caught()]
    rows = sum(len(t.data) for t in tables)
    states = sum(t.states for t in tables)
    attempted = run["invocations"] + rows + (not tables)
    failed = run["failed_invocations"] + failed_rows + (not tables)
    identical = len(set(run["digests"])) == 1
    correct = failed == 0 and not uncaught and identical

    wall = statistics.median(run["walls"])
    if args.trace:
        values = dict(run["layers"], **{"entropy_production.rim_err": rim_err or 0.0})
    else:
        values = {
            "wall_s": wall,
            "states_per_s": states / wall,
            # a probe is too short to bracket with loops of its own; the
            # run's median loop scales it to the host speed of the run
            "setup_s": statistics.median(run["setup_probes"]) * calibrate.NOMINAL_S
            / statistics.median(run["calibration_loops"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs,
        "passes": len(run["walls"]),
        "pass_walls_s": run["walls"],
        "raw_pass_walls_s": run["raw_walls"],
        "calibration_loops_s": run["calibration_loops"],
        "setup_probes_s": run["setup_probes"],
        "calibration_nominal_s": calibrate.NOMINAL_S,
        "states_per_pass": states,
        "failed_frac": {"value": failed / attempted, "unit": "frac"},
        "rim_err": {"value": rim_err, "unit": "abs"} if rim_err is not None else None,
        "outputs_identical_across_passes": identical,
        "perturbation_missed": uncaught,
        "nproc": cores,
        "spinphase_threads": 1,
        "trace_pool_threads": pool_workers,
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
    }
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def blas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of magicdist: one workload per run, end to end or traced.

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` and from nowhere else.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics
(``setup_s``, ``wall_s``, ``cpu_s``, ``peak_rss_mib``); with ``--trace 1``
it carries the per-layer metrics of a separate traced run.  Times are
reported at nominal machine speed, scaled by reference kernels run
between operations (speed.py).  The line before it describes the run:
unit count, measured and scaled unit times, kernel times, library
versions, CPUs.  See README.md for the workloads and what each metric
should move.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread, pinned before numpy loads (here and in the
# set-up subprocesses, which inherit the environment)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MAGICDIST_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SCRATCH = BENCH_DIR / ".scratch"
SETUP_REPEATS = 9
# reference kernel slices (see speed.py): before a unit and around each
# set-up interpreter, in seconds; after each operation, as a share of the
# operation's time
REFERENCE_SLICE_S = 0.1
REFERENCE_SHARE = 0.2

# time from a bare interpreter to an imported package with numpy/scipy and
# filled first-call caches, as every CLI invocation pays it
_SETUP_CODE = """
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import magicdist, magicdist.cli
magicdist.exact_pdf.n2_log_intercept()
magicdist.single_qubit_cliffords()
print(repr(time.perf_counter() - t0))
"""


def measure_setup(repeats: int, probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Set-up times of ``repeats`` fresh interpreters, after one warm-up, each
    scaled to nominal speed by the array kernel's slices just before
    and just after it.  Returns (scaled, measured)."""
    scaled, measured = [], []
    before = probe.mark()
    probe.slice(REFERENCE_SLICE_S)
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE.format(src=str(SRC))],
                              capture_output=True, text=True, timeout=120, check=True)
        after = probe.mark()
        probe.slice(REFERENCE_SLICE_S)
        if i:
            t = float(proc.stdout.strip().splitlines()[-1])
            measured.append(t)
            scaled.append(t * probe.factors("array", before)[0])
        before = after
    return scaled, measured


def run_unit(workload, scratch: Path, probe: SpeedProbe, tracer=None):
    """Run one unit in a fresh directory, with reference slices before the
    first operation and after each one.  Returns (wall, cpu, scaled wall,
    scaled cpu, attempted, failed, problems); scaled times are at nominal
    speed."""
    out = Path(tempfile.mkdtemp(dir=scratch))
    ops = workload.ops(out)
    results = {}
    wall = cpu = 0.0
    failed = 0
    gc.collect()
    mark = probe.mark()
    probe.slice(REFERENCE_SLICE_S)
    if tracer is not None:
        tracer.install()
    try:
        for name, call in ops:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                results[name] = call()
            except (Exception, SystemExit):  # an operation fails; the run goes on
                failed += 1
                print(f"operation {name!r} failed:\n{traceback.format_exc()}", file=sys.stderr)
            op_wall = time.perf_counter() - t0
            cpu += time.process_time() - c0
            wall += op_wall
            probe.slice(REFERENCE_SHARE * op_wall)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_factor, cpu_factor = probe.factors(workload.reference, mark)
    try:
        problems = workload.check(results, out)
    except Exception:
        problems = [f"check raised:\n{traceback.format_exc()}"]
    shutil.rmtree(out)
    return wall, cpu, wall * wall_factor, cpu * cpu_factor, len(ops), failed, problems


def peak_alloc_mib(workload) -> float:
    """tracemalloc peak of one pauli_spectrum_fast call at the largest n."""
    if not hasattr(workload, "largest_state"):
        return 0.0
    import magicdist as md

    state = workload.largest_state()
    tracemalloc.start()
    try:
        md.pauli_spectrum_fast(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    if not (SRC / "magicdist" / "__init__.py").is_file():
        print(f"no magicdist sources under {SRC}; run from a magicdist checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from speed import SpeedProbe
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    warnings.filterwarnings("ignore", message=".*outside the histogram range")

    import magicdist

    if Path(magicdist.__file__).resolve().parent != SRC / "magicdist":
        print(f"magicdist imported from {magicdist.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    probe = SpeedProbe()
    setup = ([], []) if args.trace else measure_setup(SETUP_REPEATS, probe)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        return measure(args, WORKLOADS[args.workload](args.seed), setup, probe, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workload, setup, probe, scratch: Path) -> int:
    """Warm up, run units for ``args.seconds`` and print the result line."""
    from tracing import PER_LAYER_UNITS, Tracer

    attempted = failed = 0
    problems = []
    walls, scaled_walls, scaled_cpus, traced_walls, layer_runs = [], [], [], [], []
    tracer = Tracer() if args.trace else None

    def one_unit(traced=False):
        nonlocal attempted, failed
        if traced:
            tracer.reset()
        *times, n_ops, n_failed, found = run_unit(workload, scratch, probe,
                                                  tracer if traced else None)
        attempted += n_ops
        failed += n_failed
        problems.extend(found)
        return times

    one_unit()  # warm-up: first-touch allocations, page cache
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, _, scaled_wall, scaled_cpu = one_unit()
        walls.append(wall)
        scaled_walls.append(scaled_wall)
        scaled_cpus.append(scaled_cpu)
        if args.trace:
            traced_walls.append(one_unit(traced=True)[2])
            layer_runs.append(tracer.layer_metrics())

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "units": len(walls), "unit_wall_s": walls,
            "unit_wall_s_at_nominal_speed": scaled_walls,
            "reference": workload.reference,
            "reference_kernel_s": {kind: probe.median(kind) for kind in probe.walls},
            **environment()}
    if args.trace:
        layers = {name: statistics.median(run[name] for run in layer_runs)
                  for name in layer_runs[0]}
        layers["pauli_spectrum.pauli_spectrum_fast.peak_alloc_mib"] = peak_alloc_mib(workload)
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                     - statistics.median(scaled_walls))
        info["traced_unit_wall_s_at_nominal_speed"] = traced_walls
        metrics = {name: {"value": int(layers[name]) if unit == "count" else float(layers[name]),
                          "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        info["setup_s_at_nominal_speed"], info["setup_s_measured"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup[0]), "unit": "s"},
            "wall_s": {"value": statistics.median(scaled_walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(scaled_cpus), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
    print(json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {wide-2d,deep-3d,locate-5d}
                         [--seed 1] [--seconds 30] [--trace 0|1]

Run from any directory; the library is imported from ``src/`` next to this
directory, never from an installed copy.  Everything runs in this one
process, with ``workers=1``, every BLAS pool pinned to one thread and
numpy's huge-page advice off.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics
listed in BENCHMARK.json, in seconds at the host's nominal speed (see
``hostspeed.py``); with ``--trace 1`` it reports the per-layer
metrics, taken by wrapping the library's public functions from outside (see
``tracer.py``).  Lines starting with ``#`` describe the run (environment,
sample counts, failures); the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 on a completed run, even one whose operations failed or
raised (``correct`` is then false, and a metric with no completed operation
behind it is left out), 2 when the library or BENCHMARK.json is missing.
"""

from __future__ import annotations

import os

# Fix numpy's environment before numpy is first imported: every BLAS pool
# gets one thread, and numpy does not ask for transparent huge pages.
# Whether the kernel grants them depends on how fragmented the machine's
# memory is when the process starts, which moved locate-5d timings by up to
# 30% between otherwise identical processes.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
#: Imports in fresh processes, and in-process input set-ups, that set-up time
#: is the median of; single values vary by a third.
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("wide-2d", "deep-3d", "locate-5d")

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Measurement:
    samples: dict
    attempted: int = 0
    failed: int = 0
    infos: list = field(default_factory=list)
    #: per kept operation, the host-speed factor around it (see hostspeed.py)
    factors: list = field(default_factory=list)

    @property
    def op_seconds(self) -> float | None:
        """Mean seconds per completed operation, both phases together."""
        completed = len(next(iter(self.samples.values())))
        if not completed:
            return None
        return sum(sum(v) for v in self.samples.values()) / completed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed, 0 <= seed < 2**32 (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must satisfy 0 <= seed < 2**32")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def import_library():
    """Import the workloads (and with them numpy and yaoyao) from this checkout."""
    if not (SRC / "yaoyao" / "__init__.py").is_file():
        raise BenchError(f"library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    import yaoyao

    if not Path(yaoyao.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"yaoyao was imported from {yaoyao.__file__}, not from {SRC}")
    return workloads


def repeat_timed(host, step):
    """Run ``step``, which returns the seconds it took, ``SETUP_REPEATS``
    times with the host-speed kernel timed before and after each; return the
    medians of the measured seconds and of the seconds at nominal speed."""
    measured, nominal = [], []
    for _ in range(SETUP_REPEATS):
        before = host.samples[-1]
        seconds = step()
        gc.collect()
        host.sample()
        measured.append(seconds)
        nominal.append(seconds * host.factor([before, host.samples[-1]]))
    return statistics.median(measured), statistics.median(nominal)


def import_probe() -> float:
    """Seconds to import numpy and the library in a fresh process.

    The import in this process is timed once and pays for a cold file cache;
    fresh processes see the cache a user's repeated runs see."""
    probe = ("import sys, time\n"
             "t = time.perf_counter()\n"
             f"sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).resolve().parent)!r}]\n"
             "import workloads\n"
             "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "workers": 1,
        "seed": seed,
    }


def measure(workload, phases, seconds: float, tracer=None, *, warmup=False,
            host=None) -> Measurement:
    """Run operations in whole cycles over the workload's input pool, so that
    every input counts equally, and stop at the cycle boundary nearest to
    ``seconds`` (after one cycle at least).  Every attempted operation
    counts; one that raises or fails its check counts as failed.  With
    ``warmup``, one operation runs first and is checked and counted, but its
    times are not kept: the first operation in a process pays for
    first-touch memory and is slower.

    With ``host``, the host-speed kernel runs before the first operation and
    after every one, outside the timed intervals, once the operation's
    result is dropped and garbage is collected, so that what an operation
    leaves behind cannot slow the kernel.  Each kept operation gets the
    factor of the two kernel times on either side of it."""
    m = Measurement({phase: [] for phase in phases})

    def attempt(j, keep=True):
        m.attempted += 1
        before = host.samples[-1] if host else None
        result = None
        try:
            with tracer.recording() if tracer else nullcontext():
                times, result = workload.run(j)
            ok, info = workload.check(j, result)
        except Exception:
            if not m.failed:  # one traceback is enough; every failure is counted
                traceback.print_exc()
            m.failed += 1
            return
        finally:
            result = None
            if host:
                gc.collect()
                host.sample()
        m.failed += not ok
        if keep:
            for phase, seconds_taken in times.items():
                m.samples[phase].append(seconds_taken)
            m.infos.append(info)
            if host:
                m.factors.append(host.factor([before, host.samples[-1]]))

    if host:
        gc.collect()
        host.sample()
    if warmup:
        attempt(0, keep=False)
    start = clock()
    while True:
        cycle_start = clock()
        for j in range(workload.pool_size):
            attempt(j)
        now = clock()
        if now - start + (now - cycle_start) / 2 >= seconds:
            return m


def tail_percentile(values):
    """Highest of p99/p90 that has at least ten samples beyond it, or None."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def end_to_end(m: Measurement, lines: list) -> dict:
    """Medians and set-up time at the host's nominal speed (see
    ``hostspeed.py``); the ``#`` lines give the measured values too."""
    metrics = {}
    if m.factors:
        lines.append(f"host_speed_factor median {statistics.median(m.factors):.6g} over"
                     f" {len(m.factors)} operations; reported seconds = measured seconds x factor")
    for phase, values in m.samples.items():
        if not values:
            lines.append(f"{phase}.p50 absent: no operation completed")
            continue
        reported = [v * f for v, f in zip(values, m.factors)]
        metrics[f"{phase}.p50"] = statistics.median(reported)
        extra = ""
        if len(reported) >= 2:
            q1, _, q3 = statistics.quantiles(reported, n=4)
            extra = f" q1={q1:.6g} q3={q3:.6g}"
        tail = tail_percentile(reported)
        if tail:
            extra += f" p{tail[0]}={tail[1]:.6g}"
        lines.append(f"{phase}.p50 {metrics[f'{phase}.p50']:.6g} s n={len(values)}{extra}"
                     f" measured={statistics.median(values):.6g}")
    # Reported, not gated: the peak moves by up to a third from run to run
    # with the allocator's history, so it cannot carry a regression bound.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"peak_rss_mb {rss_mb:.6g} MB")
    lines.append(f"failed_ratio {m.failed / m.attempted:.6g} ({m.failed}/{m.attempted})")
    return metrics


def per_layer(workload, phases, seconds: int, lines: list):
    """A warm-up operation and one untraced cycle for reference, then traced
    cycles for ``seconds``.

    Every value is per operation, over whole cycles, so counts repeat exactly
    for a seed.  Returns (metrics, attempted, failed)."""
    from tracer import Tracer

    reference = measure(workload, phases, 0, warmup=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, phases, seconds, tracer)
    finally:
        tracer.uninstall()

    ops = traced.attempted
    metrics = {}
    for name, stat in tracer.stats.items():
        metrics[f"{name}.calls"] = stat.calls / ops
        metrics[f"{name}.s"] = stat.s / ops
        metrics[f"{name}.self_s"] = stat.self_s / ops
        metrics[f"{name}.bytes"] = stat.bytes / ops
    if "measures.split_at_median" in tracer.stats:
        dims = tracer.stats["measures.split_at_median"].by_dimension
        for depth in range(1, 4):  # depth = n - cloud dimension + 1
            metrics[f"solver.splits.d{depth}"] = dims[workload.dimension - depth + 1] / ops
    if "solver.compute_center_partition.self_s" in metrics:
        metrics["solver.self_s"] = metrics["solver.compute_center_partition.self_s"]
    for key in ("root_iterations", "root_expansions"):
        metrics[f"solver.{key}"] = sum(i.get(key, 0) for i in traced.infos) / ops
    if traced.op_seconds and reference.op_seconds:
        metrics["trace.overhead_ratio"] = traced.op_seconds / reference.op_seconds

    lines.append(f"traced operations {ops}, untraced reference operations {reference.attempted}")
    for digest in sorted({i["digest"] for i in traced.infos + reference.infos if "digest" in i}):
        lines.append(f"digest {digest}")
    if tracer.absent:
        lines.append("absent " + " ".join(tracer.absent))
    return metrics, reference.attempted + ops, reference.failed + traced.failed


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    t0 = clock()
    workloads = import_library()
    first_import_s = clock() - t0
    from hostspeed import HostSpeed

    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}",
             "env " + json.dumps(environment(args.seed), sort_keys=True)]
    host = HostSpeed()
    host.sample()
    import_measured, import_s = repeat_timed(host, import_probe)
    lines.append(f"import_s {import_s:.6g} s n={SETUP_REPEATS} measured={import_measured:.6g}"
                 f" (in fresh processes; first import in this process {first_import_s:.6g} s)")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = None

        def set_up():
            nonlocal workload
            workload = None
            gc.collect()
            t = clock()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            return clock() - t

        inputs_measured, inputs_s = repeat_timed(host, set_up)
        lines.append(f"inputs_s {inputs_s:.6g} s n={SETUP_REPEATS} measured={inputs_measured:.6g}")
        setup_s = import_s + inputs_s
        lines.append(f"setup_s {setup_s:.6g} s measured={import_measured + inputs_measured:.6g}"
                     " (median import plus median input set-up)")

        if args.trace:
            values, attempted, failed = per_layer(
                workload, workloads.PHASES, args.seconds, lines)
            wanted = spec["per_layer"]
        else:
            m = measure(workload, workloads.PHASES, args.seconds, warmup=True, host=host)
            values = end_to_end(m, lines)
            values["setup_s"] = setup_s
            attempted, failed = m.attempted, m.failed
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = {}
    for entry in wanted:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        elif not args.trace and failed == 0:
            raise BenchError(f"end-to-end metric {entry['name']} was not measured")
    for line in lines:
        print("# " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except (BenchError, OSError, json.JSONDecodeError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

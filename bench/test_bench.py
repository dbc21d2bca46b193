"""Tests of the benchmark itself (not part of the library suite).

    python3 -m pytest bench/test_bench.py -q

The determinism test runs every workload traced twice on one seed, which
takes about two minutes on two cores.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
from yaoyao import geometry, measures, solver  # noqa: E402

COUNT_PREFIXES = ("solver.splits.", "solver.root_")
COUNT_SUFFIXES = (".calls", ".bytes")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _traced(workload: str, seed: int):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = [line for line in lines if line.startswith("# digest ")]
    counts = {
        name: m["value"] for name, m in result["metrics"].items()
        if name.startswith(COUNT_PREFIXES) or name.endswith(COUNT_SUFFIXES)
    }
    return result, counts, digests


@pytest.mark.parametrize("workload", ["wide-2d", "deep-3d", "locate-5d"])
def test_traced_counts_repeat_for_a_seed(workload):
    first, counts_a, digests_a = _traced(workload, 3)
    second, counts_b, digests_b = _traced(workload, 3)
    assert first["correct"] and second["correct"]
    assert counts_a == counts_b
    assert digests_a == digests_b and digests_a
    assert any(v > 0 for v in counts_a.values())


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "yaoyao" or name.startswith("yaoyao."):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    out["post_init"] = vars(measures.WeightedPointCloud)["__post_init__"]
    return out


def test_tracer_sees_inner_calls_and_restores_every_name():
    for _, module, _, _ in tracer.TARGETS:
        importlib.import_module(module)
    before = _bindings()
    missing = ("measures.gone", "yaoyao.measures", "no_such_function", None)
    t = tracer.Tracer(tracer.TARGETS + (missing,))
    t.install()
    try:
        assert solver.split_at_median is not before[("yaoyao.solver", "split_at_median")]
        cloud = measures.sample(measures.MeasureSpec.uniform_box([0, 0], [1, 1]), 64, 0)
        with t.recording():
            solver.compute_center_partition(cloud, geometry.CoordinateSystem.standard(2))
        solver.compute_center_partition(cloud, geometry.CoordinateSystem.standard(2))
    finally:
        t.uninstall()
    assert _bindings() == before
    assert t.absent == ["measures.gone"]
    splits = t.stats["measures.split_at_median"]
    assert splits.calls > 0 and sum(splits.by_dimension.values()) == splits.calls
    assert t.stats["measures.cloud_new"].calls > splits.calls
    assert t.stats["measures.cloud_new"].bytes > 0
    solve = t.stats["solver.compute_center_partition"]
    assert solve.calls == 1 and 0 < solve.self_s < solve.s


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "deep-3d", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_failing_operations_still_print_a_result(monkeypatch, capsys, trace):
    import run
    import workloads

    def broken(self, j):
        raise RuntimeError("the library is broken")

    monkeypatch.setattr(workloads.Deep3D, "run", broken)
    assert run.main(["--workload", "deep-3d", "--seconds", "1", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0

"""The benchmark's three workloads.

Each workload is a closed loop with one caller: operation j + 1 starts after
operation j has finished.  Constructing a workload is its set-up; it draws a
small pool of inputs from the seed, and operations cycle through that pool,
so every full cycle does the same work and traced counts repeat exactly.

``run(j)`` performs operation j and returns the seconds of its two timed
phases plus its raw result; ``check(j, result)`` judges that result outside
the timed interval and returns (ok, info), where info carries deterministic
counters for the traced run.

The library is always called through module attributes (``solver.x(...)``,
never a name bound at import), so the tracer's wrappers see these calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from yaoyao import cli, geometry, measures, partition, solver, verify

clock = time.perf_counter

#: The two timed phases of every operation.  compute_s produces the answer
#: (a partition, or the labels of a point batch); certify_s checks or
#: certifies (verification, or witness search with its exact certificate).
PHASES = ("compute_s", "certify_s")

CHECK_COUNT = 1000


def _sample_seed(seed: int, j: int) -> int:
    return seed * 16 + j


def _root_counts(meta: dict) -> dict:
    records = (meta.get("root_trace") or {}).get("records", [])
    return {
        "root_iterations": sum(r["iterations"] for r in records),
        "root_expansions": sum(r["expansions"] for r in records),
    }


class Wide2D:
    """CLI ``center`` then ``verify`` on n=2, N=32768 clouds, in-process.

    The large-N user path: few residual evaluations, so per-point work
    (cloud validation, CSV reads, membership tolerances, half-space masses)
    dominates.  N=131072 showed the same split of time, but its operations
    took five to seven seconds on the baseline host, so a run held only four
    of them and the quartile spread of ten runs' medians was 0.11-0.15.
    """

    dimension = 2
    size = 32768
    specs = (
        measures.MeasureSpec.uniform_box([0.0, 0.0], [1.0, 1.0]),
        measures.MeasureSpec.gaussian([0.0, 0.0], [[2.0, 0.0], [0.5, 1.0]]),
    )

    def __init__(self, seed: int, workdir: Path):
        self.files = []
        for j, spec in enumerate(self.specs):
            points = workdir / f"points{j}.csv"
            measures.write_csv(measures.sample(spec, self.size, _sample_seed(seed, j)), points)
            self.files.append((str(points), workdir / f"part{j}.json", workdir / f"report{j}.json"))
        self.pool_size = len(self.files)

    def run(self, j: int):
        points, part, report = self.files[j]
        part.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
        with redirect_stdout(io.StringIO()):
            t0 = clock()
            rc_center = cli.main(["center", points, "-o", str(part)])
            t1 = clock()
            rc_verify = cli.main(["verify", str(part), points,
                                  "--count", str(CHECK_COUNT), "-o", str(report)])
            t2 = clock()
        return {"compute_s": t1 - t0, "certify_s": t2 - t1}, (rc_center, rc_verify)

    def check(self, j: int, result):
        rc_center, rc_verify = result
        _, part, report = self.files[j]
        if rc_center != 0 or rc_verify != 0:
            return False, {}
        passed = json.loads(report.read_text(encoding="utf-8"))["all_passed"] is True
        data = part.read_bytes()
        info = _root_counts(json.loads(data)["meta"])
        info["digest"] = hashlib.sha256(data).hexdigest()
        return passed, info


class Deep3D:
    """Library solve plus the three checks on n=3, N=1024 clouds.

    The nested solve dominates (thousands of median splits and cloud
    constructions on small arrays), while verification is cheap, which makes
    this the control workload for verify and partition changes.
    """

    dimension = 3
    size = 1024
    specs = (
        measures.MeasureSpec.uniform_box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),
        measures.MeasureSpec.gaussian(
            [0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.5, 2.0, 0.0], [0.3, -0.4, 3.0]]
        ),
    )

    #: Clouds per spec.  Solve cost varies by a few percent from cloud to
    #: cloud, so a larger pool keeps the median from following the seed.
    copies = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.clouds = [
            measures.sample(self.specs[j % 2], self.size, _sample_seed(seed, j))
            for j in range(self.copies * len(self.specs))
        ]
        self.system = geometry.CoordinateSystem.standard(self.dimension)
        self.config = solver.SolverConfig()
        self.pool_size = len(self.clouds)

    def run(self, j: int):
        cloud = self.clouds[j]
        t0 = clock()
        tree = solver.compute_center_partition(cloud, self.system, self.config, workers=1)
        t1 = clock()
        reports = [
            verify.check_equipartition(tree, cloud),
            verify.check_depth(tree, cloud, CHECK_COUNT, self.seed),
            verify.check_avoidance(tree, CHECK_COUNT, self.seed, cloud),
        ]
        t2 = clock()
        return {"compute_s": t1 - t0, "certify_s": t2 - t1}, (tree, reports)

    def check(self, j: int, result):
        tree, reports = result
        info = _root_counts(tree.meta)
        doc = json.dumps(partition.serialize(tree), indent=2).encode()
        info["digest"] = hashlib.sha256(doc).hexdigest()
        return all(r.passed for r in reports), info


class Locate5D:
    """Point location and witness search on a seeded synthetic 5-D tree.

    The read side of partition and geometry: a partition is built once and
    queried many times, and no solve runs, which makes this the control
    workload for solver and measures changes.  The tree is synthetic (a real
    5-D solve takes minutes), so its regions hold unequal shares of points.
    """

    dimension = 5
    size = 2**17
    halfspaces = 5000
    pool_size = 2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, self.dimension])
        self.doc_text = json.dumps(_synthetic_tree_doc(rng, self.dimension))
        self.tree = partition.deserialize(json.loads(self.doc_text))
        center = self.tree.center
        self.batches = [rng.standard_normal((self.size, self.dimension))
                        for _ in range(self.pool_size)]
        self.queries = []
        for _ in range(self.pool_size):
            normals = rng.standard_normal((self.halfspaces, self.dimension))
            normals /= np.linalg.norm(normals, axis=1)[:, None]
            # offsets below the form's value at the center keep the center inside
            offsets = normals @ center - np.abs(rng.standard_normal(self.halfspaces))
            self.queries.append([geometry.HalfSpace(a, c) for a, c in zip(normals, offsets)])

    def run(self, j: int):
        tree = self.tree
        t0 = clock()
        labels = partition.locate_points(tree, self.batches[j])
        t1 = clock()
        regs = partition.regions(tree)
        certified = [
            geometry.halfspace_contains_region(h, regs[partition.witness_region(tree, h)])
            for h in self.queries[j]
        ]
        t2 = clock()
        return {"compute_s": t1 - t0, "certify_s": t2 - t1}, (labels, certified)

    def check(self, j: int, result):
        labels, certified = result
        points = self.batches[j]
        ok = labels.shape == points.shape and bool(np.all(np.abs(labels) == 1))
        if ok:
            for signs, region in partition.regions(self.tree).items():
                mask = np.all(labels == np.asarray(signs), axis=1)
                ok = ok and bool(np.all(geometry.cone_contains(region, points[mask])))
        ok = ok and len(certified) == len(self.queries[j]) and all(certified)
        return ok, {"digest": hashlib.sha256(self.doc_text.encode()).hexdigest()}


def _synthetic_tree_doc(rng: np.random.Generator, n: int) -> dict:
    """A valid ``yaoyao-partition/v1`` document with random sub-diagonal axes."""

    def node(depth: int):
        if depth > n:
            return None
        axis = np.zeros(n)
        axis[depth - 1] = 1.0
        axis[depth:] = 0.7 * rng.standard_normal(n - depth)
        return {"axis": axis.tolist(), "neg": node(depth + 1), "pos": node(depth + 1)}

    return {
        "schema": partition.SCHEMA,
        "dim": n,
        "system": {"matrix": np.eye(n).tolist(), "offset": [0.0] * n},
        "center": (0.1 * rng.standard_normal(n)).tolist(),
        "root": node(1),
        "meta": {"synthetic": True},
    }


WORKLOADS = {"wide-2d": Wide2D, "deep-3d": Deep3D, "locate-5d": Locate5D}

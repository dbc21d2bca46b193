"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line per
criterion.  Every tolerance is pinned here, not deferred to configuration.
"""

import json
import time

import numpy as np
import pytest

from yaoyao.cli import main as cli_main
from yaoyao.geometry import (
    CoordinateSystem,
    HalfSpace,
    cone_coefficients,
    halfspace_contains_region,
    region_halfspace_rep,
)
from yaoyao.measures import MeasureSpec, WeightedPointCloud, sample, seeded_generator, symmetrize
from yaoyao.partition import regions, serialize, witness_region
from yaoyao.solver import SolverConfig, compute_center_partition
from yaoyao.verify import (
    _halfspace_draws,
    check_avoidance,
    check_continuity,
    check_depth,
    check_equipartition,
    check_prefix_dependence,
    check_symmetry,
    oracle_center_2d,
)

CFG = SolverConfig()
DELTA_V = CFG.root_tol
DELTA_T = CFG.residual_tol

ASYMMETRIC = WeightedPointCloud.from_points([(0, 0), (1, 2), (2, 1), (3, 3)])
SQUARE = WeightedPointCloud.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])

SEEDED = [
    (2, 1024, MeasureSpec.uniform_box([0, 0], [1, 1]), 201),
    (2, 4096, MeasureSpec.uniform_box([-1, 0], [2, 5]), 202),
    (3, 1024, MeasureSpec.uniform_box([0, 0, 0], [1, 2, 3]), 203),
    (3, 4096, MeasureSpec.uniform_box([0, -1, 0], [1, 1, 1]), 204),
]


def report(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def seeded_trees():
    out = []
    for n, count, spec, seed in SEEDED:
        cloud = sample(spec, count, seed)
        tree = compute_center_partition(cloud, CoordinateSystem.standard(n), CFG)
        out.append((n, count, cloud, tree))
    return out


def test_criterion_1_hand_fixture():
    t0 = time.perf_counter()
    tree = compute_center_partition(ASYMMETRIC, CoordinateSystem.standard(2), CFG)
    elapsed = time.perf_counter() - t0
    center_err = float(np.max(np.abs(tree.center - [1.5, 1.5])))
    axis_err = float(np.max(np.abs(tree.axes[0] - [1.0, 0.5])))
    ok = center_err <= 1e-9 and axis_err <= 1e-9 and elapsed < 1.0
    report(1, "hand fixture", ok,
           f"center err {center_err:.2e}, axis err {axis_err:.2e}, {elapsed:.3f}s")


def test_criterion_2_symmetry():
    t0 = time.perf_counter()
    cloud2 = sample(MeasureSpec.uniform_box([0, 0], [3, 1]), 301, seed=51)
    rep2 = check_symmetry(cloud2, (1.0, 2.0), CFG)
    cloud3 = sample(MeasureSpec.uniform_box([-1, -1, -1], [2, 1, 1]), 251, seed=52)
    rep3 = check_symmetry(cloud3, (0.0, 0.0, 0.0), CFG)
    elapsed = time.perf_counter() - t0
    dev = max(rep2.stats["max_deviation"], rep3.stats["max_deviation"])
    ok = rep2.passed and rep3.passed and dev <= 50 * DELTA_T and elapsed < 30.0
    report(2, "symmetry", ok, f"max deviation {dev:.2e} vs {50 * DELTA_T:.0e}, {elapsed:.1f}s")


def test_criterion_3_equipartition(seeded_trees):
    t0 = time.perf_counter()
    worst_region = worst_prefix = 0.0
    ok = True
    for n, count, cloud, tree in seeded_trees:
        rep = check_equipartition(tree, cloud, tol=1e-6)
        worst_region = max(worst_region, rep.stats["max_relative_deviation"])
        worst_prefix = max(worst_prefix, rep.stats["max_prefix_deviation"])
        ok = ok and rep.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(3, "equipartition", ok,
           f"region dev {worst_region:.2e}, prefix dev {worst_prefix:.2e}, {elapsed:.1f}s")


def test_criterion_4_avoidance(seeded_trees):
    # the check proves the sign-walk lemma; the certificates witness it on
    # 1000 half-spaces per tree, each through a data point and holding the center
    total = hits = lemmas = 0
    for n, count, cloud, tree in seeded_trees:
        rep = check_avoidance(tree, 1000, seed=400 + n, cloud=cloud)
        lemmas += rep.passed and rep.stats == {"regions": 2**n} and rep.seed is None
        regs = regions(tree)
        for a, c in zip(*_halfspace_draws(seeded_generator(400 + n), tree, cloud, 1000)):
            h = HalfSpace(a, c)
            hits += halfspace_contains_region(h, regs[witness_region(tree, h)])
            total += 1
    report(4, "hyperplane avoidance", lemmas == len(seeded_trees) and hits == total,
           f"lemma on {lemmas}/{len(seeded_trees)} trees, {hits}/{total} certificates")


def test_criterion_5_depth(seeded_trees):
    ok = True
    worst = np.inf
    for n, count, cloud, tree in seeded_trees:
        rep = check_depth(tree, cloud, 1000, seed=500 + n)
        ok = ok and rep.passed
        worst = min(worst, rep.stats["min_mass"] / rep.stats["floor"])
    report(5, "center depth", ok, f"min mass / floor = {worst:.6f}")


def test_seeded_root_iterations(seeded_trees):
    # the interpolating root step needs a handful of residual evaluations per
    # coordinate; plain bisection took 24-28
    for n, count, cloud, tree in seeded_trees:
        records = tree.meta["root_trace"]["records"]
        assert len(records) == n - 1
        assert all(r["iterations"] <= 10 for r in records), (n, count, records)


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    box = MeasureSpec.uniform_box([-1, -2], [2, 1])
    sys2 = CoordinateSystem.standard(2)
    worst = 0.0
    for seed in range(50):
        cloud = sample(box, 128, seed=seed)
        tree = compute_center_partition(cloud, sys2, CFG)
        gap = float(np.max(np.abs(oracle_center_2d(cloud) - tree.center)))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    report(6, "2-D oracle equivalence", ok, f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_7_prefix_dependence():
    cloud = sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 512, seed=71)

    def shear(pts):
        pts[:, 2] += np.sin(pts[:, 0] + pts[:, 1])
        return pts

    rep = check_prefix_dependence(cloud, 2, shear, CFG)
    tol = 10 * max(DELTA_V, DELTA_T)
    report(7, "prefix dependence", rep.passed,
           f"prefix deviation {rep.stats['prefix_deviation']:.2e} vs {tol:.0e}")


def test_criterion_8_continuity():
    cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 512, seed=81)
    gamma = MeasureSpec.gaussian([2.0, 2.0])
    rep = check_continuity(cloud, gamma, [0.2, 0.1, 0.05], CFG, count=256, seed=82)
    assert rep.tolerances["rate_constant"] == 0.5
    dists = ", ".join(f"{d:.4f}" for d in rep.stats["distances"])
    report(8, "continuity", rep.passed,
           f"distances [{dists}] for eps {rep.stats['eps']}, scale {rep.stats['data_scale']:.3f}")


def test_criterion_9_representations(seeded_trees):
    fixture_trees = [
        compute_center_partition(SQUARE, CoordinateSystem.standard(2), CFG),
        compute_center_partition(ASYMMETRIC, CoordinateSystem.standard(2), CFG),
    ] + [tree for _, _, _, tree in seeded_trees]
    rng = np.random.default_rng(900)
    disagreements = 0
    checked = 0
    for tree in fixture_trees:
        for r in regions(tree).values():
            gens = r.generators
            for i in range(r.dimension):
                assert gens[i, i] == 1.0
                assert np.all(gens[i, :i] == 0.0)
            halves = region_halfspace_rep(r)
            pts = r.apex + rng.standard_normal((10_000, tree.dimension)) * 2.0
            coeffs = cone_coefficients(r, pts)
            v_in = np.all(coeffs >= 0.0, axis=1)
            h_vals = np.stack([h.value(pts) for h in halves], axis=1)
            h_in = np.all(h_vals >= 0.0, axis=1)
            margin = np.minimum(np.min(np.abs(coeffs), axis=1),
                                np.min(np.abs(h_vals), axis=1))
            clear = margin > 1e-9 * (1 + np.max(np.abs(pts)))
            disagreements += int(np.sum(v_in[clear] != h_in[clear]))
            checked += int(np.sum(clear))
    report(9, "H-rep/V-rep + sub-diagonal", disagreements == 0,
           f"{disagreements} disagreements over {checked} clear samples")


def test_criterion_10_determinism(tmp_path, run_cli):
    # the solve runs in one thread; threads act only inside BLAS, so the bytes
    # must repeat in-process and under one and two BLAS threads
    csv = tmp_path / "pts.csv"
    csv.write_text("x1,x2,x3\n" + "\n".join(
        ",".join(repr(float(v)) for v in row)
        for row in sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 64, seed=10).points
    ) + "\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert cli_main(["center", str(csv), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.json"
        run_cli(["center", csv, "-o", out], OPENBLAS_NUM_THREADS=threads)
        outs.append(out.read_bytes())
    cloud = sample(MeasureSpec.uniform_box([0, 0], [2, 2]), 128, seed=11)
    sys2 = CoordinateSystem.standard(2)
    t1 = compute_center_partition(cloud, sys2, CFG)
    t2 = compute_center_partition(cloud, sys2, CFG)
    library_equal = serialize(t1) == serialize(t2) and t1 == t2
    cli_equal = len(set(outs)) == 1
    report(10, "determinism", cli_equal and library_equal,
           f"CLI bytes identical across runs and BLAS threads 1/2: {cli_equal}, "
           f"library trees equal: {library_equal}")

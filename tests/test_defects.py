"""The defect ledger: clouds whose solved tree fails its own equipartition check.

Each row solves a cloud in the standard frame and asserts that the tree
passes ``check_equipartition`` at its default tolerance.  Every row fails
today, so each is a strict xfail naming the ROADMAP item that fixes it: the
fix turns the row into an unexpected pass, which fails the suite until the
mark is removed.  ``raises=AssertionError`` keeps any other exception, a
solver error say, a plain failure.  The comment on each row gives
max(region deviation, prefix deviation) as it fails today.
"""

import numpy as np
import pytest

from yaoyao.geometry import CoordinateSystem
from yaoyao.measures import WeightedPointCloud
from yaoyao.solver import compute_center_partition
from yaoyao.verify import check_equipartition


def defect(items, points, weights=None, name=None):
    mark = pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP {items}")
    return pytest.param(points, weights, marks=mark, id=name)


UNIFORM = np.random.default_rng(1).random((1024, 2))
GAUSS = np.random.default_rng(3).standard_normal((2048, 3))
_r = np.random.default_rng(5)
WEIGHTED = _r.standard_normal((4096, 2)), _r.uniform(0.1, 3.0, 4096)
_r = np.random.default_rng(5)
WEIGHTED_4D = _r.standard_normal((256, 4)), _r.uniform(0.1, 3.0, 256)
COPLANAR = np.column_stack([np.random.default_rng(0).standard_normal((20, 2)), np.zeros(20)])

ROWS = [
    defect("item 1a", UNIFORM * 2.0**-20, name="uniform-2d-scale-2^-20"),  # 1.17e-2
    defect("items 1a and 1b", UNIFORM * 2.0**-30, name="uniform-2d-scale-2^-30"),  # 3
    defect("items 1a and 1b", UNIFORM * 2.0**-40, name="uniform-2d-scale-2^-40"),  # 3
    defect("item 1a", UNIFORM + 1e6, name="uniform-2d-offset-1e6"),  # 2.73e-2
    defect("item 1a", UNIFORM + 1e8, name="uniform-2d-offset-1e8"),  # 1.43
    defect("items 1a and 1b", GAUSS * [1, 1e-9, 1e9], name="gauss-3d-scales-1-1e-9-1e9"),  # 2.07
    defect("items 1a and 1b", GAUSS * 1e-7, name="gauss-3d-scale-1e-7"),  # 3.12e-2
    defect("item 3", *WEIGHTED, name="weighted-gauss-2d"),  # 2.32e-3
    defect("item 3", *WEIGHTED_4D, name="weighted-gauss-4d"),  # 0.154
    defect("item 3", np.array([[0.3, 0.7]]), name="one-point-2d"),  # 3
    defect("item 3", np.tile([0.25, -1.5, 3.0], (50, 1)), name="50-identical-3d"),  # 7
    defect("item 3", COPLANAR, name="20-coplanar-3d"),  # 1
] + [
    defect("items 3 and 6", np.random.default_rng(s).integers(0, 4, (97, 2)).astype(float),
           name=f"grid-2d-seed{s}")  # 1.19, 0.773 and 0.258 for seeds 4, 5 and 6
    for s in (4, 5, 6)
]


@pytest.mark.parametrize("points, weights", ROWS)
def test_solved_tree_passes_its_equipartition_check(points, weights):
    cloud = WeightedPointCloud.from_points(points, weights)
    tree = compute_center_partition(cloud, CoordinateSystem.standard(cloud.dimension))
    report = check_equipartition(tree, cloud)
    assert report.passed, (report.stats["max_relative_deviation"],
                           report.stats["max_prefix_deviation"])

"""
A center you can compute by hand
================================

Four unit points: (0,0), (1,2), (2,1), (3,3).  The cut of the first coordinate
falls at 1.5, leaving {(0,0),(1,2)} below and {(2,1),(3,3)} above.  Sliding
each half along the axis (1, t) into the cut line and taking medians gives
1 + t on the low side and 2 - t on the high side, so the residual is 2t - 1
and the unique axis slope is t = 1/2, with common center (1.5, 1.5).
"""

import numpy as np

from yaoyao import (
    CoordinateSystem,
    SolverConfig,
    WeightedPointCloud,
    compute_center_partition,
    evaluate_axis_residual,
    regions,
    split_at_median,
)

cloud = WeightedPointCloud.from_points([(0, 0), (1, 2), (2, 1), (3, 3)])
cfg = SolverConfig()

# watch the residual change sign exactly as the hand computation predicts
alpha, low, high = split_at_median(cloud)
print(f"cut value alpha = {alpha}")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    res, x_neg, x_pos = evaluate_axis_residual(low, high, alpha, np.array([1.0, t]), cfg)
    print(f"  t = {t:4.2f}:  low median {x_neg[0]:5.2f}   "
          f"high median {x_pos[0]:5.2f}   residual {res[0]:+5.2f}")

# the solver finds the same root and assembles the full partition
tree = compute_center_partition(cloud, CoordinateSystem.standard(2), cfg)
print(f"\ncenter    = {tree.center}")
print(f"root axis = {tree.axes[0]}")

# each of the four regions is the center plus a signed cone
print("\nregions (sign word -> generators):")
for signs, region in sorted(regions(tree).items()):
    word = "".join("+" if s > 0 else "-" for s in signs)
    gens = [tuple(map(float, g)) for g in region.signed_generators()]
    print(f"  {word}: apex {tuple(map(float, region.apex))}  cone{gens}")

# every point of the cloud lands in its own region: an exact 4-way equal split
from yaoyao import region_of_point

for p in cloud.points:
    word = "".join("+" if s > 0 else "-" for s in region_of_point(tree, p))
    print(f"  point {tuple(map(float, p))} lies in region {word}")

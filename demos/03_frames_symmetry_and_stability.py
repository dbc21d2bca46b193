"""
Coordinate frames, symmetry, and what the center depends on
===========================================================

The center is relative to a coordinate frame: changing the forms changes the
point.  Two structural facts survive any frame: a centrally symmetric cloud
is centered at its symmetry point, and the first k center coordinates only
see the first k coordinates of the data.
"""

import numpy as np

from yaoyao import (
    CoordinateSystem,
    MeasureSpec,
    compute_center_partition,
    sample,
    symmetrize,
)
from yaoyao.verify import check_prefix_dependence, check_symmetry

# --- the frame matters -------------------------------------------------------
cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 600, seed=3)
identity = CoordinateSystem.standard(2)
rotated = CoordinateSystem(np.array([[0.8, 0.6], [-0.6, 0.8]]), np.zeros(2))

center_std = compute_center_partition(cloud, identity).center
rot_cloud = type(cloud)(rotated.to_coordinates(cloud.points), cloud.weights, cloud.ids)
center_rot = rotated.to_ambient(compute_center_partition(rot_cloud, rotated).center)
print("center in the standard frame :", np.round(center_std, 5))
print("center via a rotated frame   :", np.round(center_rot, 5))
print("(different points: the construction is frame-dependent)\n")

# --- symmetry pins the center exactly ---------------------------------------
z = (1.0, 2.0)
sym = symmetrize(cloud, z)
tree = compute_center_partition(sym, identity)
print(f"symmetrized about {z}: center {tree.center}, "
      f"deviation {np.max(np.abs(tree.center - z)):.2e}")
print(check_symmetry(cloud, z).stats, "\n")

# --- only the leading coordinates matter to the leading center entries -------
cloud3 = sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 512, seed=4)

def warp_third_coordinate(pts):
    pts[:, 2] += np.sin(3.0 * pts[:, 0]) + pts[:, 1] ** 2
    return pts

rep = check_prefix_dependence(cloud3, 2, warp_third_coordinate)
print("center before warp:", np.round(rep.stats["center_before"], 6))
print("center after warp :", np.round(rep.stats["center_after"], 6))
print(f"first two coordinates moved by {rep.stats['prefix_deviation']:.1e}")

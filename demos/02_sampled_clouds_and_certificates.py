"""
Sampled clouds, equal masses, and exact half-space certificates
===============================================================

Draw a reproducible cloud from a generative spec, partition it, and then let
the verification layer re-derive everything: region masses by point location,
and for random hyperplanes an explicit region that the bounding half-space
contains.  The certificate is a handful of sign checks, and a lemma says the
witness always passes it: the avoidance check proves that lemma for the whole
tree instead of sampling it.
"""

import numpy as np

from yaoyao import (
    CoordinateSystem,
    HalfSpace,
    MeasureSpec,
    SolverConfig,
    compute_center_partition,
    halfspace_contains_region,
    regions,
    sample,
    witness_region,
)
from yaoyao.verify import check_avoidance, check_depth, check_equipartition

spec = MeasureSpec.uniform_box([0, 0, 0], [2, 1, 1])
cloud = sample(spec, 2048, seed=7)
tree = compute_center_partition(cloud, CoordinateSystem.standard(3), SolverConfig())
print(f"center of 2048 sampled points: {np.round(tree.center, 6)}")

rep = check_equipartition(tree, cloud)
print(f"\nregion masses  (each should be {cloud.total_mass / 8:g}):")
for word, mass in rep.stats["region_masses"].items():
    print(f"  {word}: {mass:g}")
print(f"max relative deviation: {rep.stats['max_relative_deviation']:.2e}")

# one hyperplane, by hand: orient it around the center, ask for a witness
a = np.array([0.3, -1.1, 0.7])
h = HalfSpace(a, float(a @ tree.center) - 0.05)
signs = witness_region(tree, h)
word = "".join("+" if s > 0 else "-" for s in signs)
certified = halfspace_contains_region(h, regions(tree)[signs])
print(f"\nhalf-space with normal {a} holds the center;")
print(f"witness region {word}, certificate valid: {certified}")

# now a thousand of them, each through a data point and turned to hold the
# center: every witness passes its certificate
rng = np.random.default_rng(1)
regs = regions(tree)
hits = 0
for _ in range(1000):
    a = rng.standard_normal(3)
    h = HalfSpace(a, float(a @ cloud.points[rng.integers(cloud.size)]))
    if h.value(tree.center) < 0.0:
        h = HalfSpace(-a, -h.offset)
    hits += halfspace_contains_region(h, regs[witness_region(tree, h)])
print(f"\n{hits}/1000 witnesses certified")

# the avoidance check proves the same for every half-space, with no draws
print(check_avoidance(tree, 1000, seed=1, cloud=cloud))
# and the depth consequence: every half-space through the center carries at
# least 1/8 of the mass
print(str(check_depth(tree, cloud, 1000, seed=2).stats))

"""Equal-mass cone partitions of weighted point clouds.

Given a cloud in R^n (or a sampled density), compute a center and 2^n
simplicial-cone regions of equal mass such that every affine hyperplane has
one region entirely on one of its closed sides, and certify every claimed
property of the result.
"""

from .geometry import (
    ConeRegion,
    CoordinateSystem,
    HalfSpace,
    cone_coefficients,
    cone_contains,
    halfspace_contains_region,
    region_halfspace_rep,
)
from .measures import (
    MeasureSpec,
    WeightedPointCloud,
    halfspace_mass,
    project_measure,
    read_csv,
    regularize,
    sample,
    split_at_median,
    symmetrize,
    weighted_quantile,
    write_csv,
)
from .partition import (
    PartitionFormatError,
    PartitionTree,
    deserialize,
    locate_points,
    region_of_point,
    regions,
    serialize,
    witness_region,
)
from .solver import (
    BracketNotFoundError,
    DegenerateInputError,
    NonConvergenceError,
    SolverConfig,
    compute_center_partition,
    evaluate_axis_residual,
)
from .verify import (
    CheckReport,
    check_avoidance,
    check_continuity,
    check_depth,
    check_equipartition,
    check_prefix_dependence,
    check_symmetry,
    oracle_center_2d,
)

__version__ = "0.1.0"

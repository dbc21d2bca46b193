"""Command-line front end: sample, center, verify, plot.

stdout carries machine-readable results only; diagnostics go to stderr.
Exit codes: 0 pass, 1 check failure, 2 input error, 3 solver failure.
All randomness flows from --seed, so repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import measures, partition, verify
from .geometry import CoordinateSystem, _holds_bool
from .solver import (
    BracketNotFoundError,
    NonConvergenceError,
    compute_center_partition,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_ERROR = 3


class _InputError(Exception):
    pass


def _system_file(path) -> CoordinateSystem:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("coordinate system document must be a JSON object")
    for key in ("matrix", "offset"):
        if key not in doc:
            raise ValueError(f"coordinate system document is missing key {key!r}")
        if _holds_bool(doc[key]):
            raise ValueError(f"{key!r} must not hold true or false")
    return partition._system(doc["matrix"], doc["offset"])


def _load_system(path, dimension) -> CoordinateSystem:
    if path is None:
        return CoordinateSystem.standard(dimension)
    system = _read(_system_file, path, "coordinate system")
    if system.dimension != dimension:
        raise _InputError(
            f"coordinate system is {system.dimension}-dimensional, "
            f"points are {dimension}-dimensional"
        )
    return system


def _read(load, path, kind):
    """load(path), with a bad or unreadable file reported as an input error;
    a number too large for a float is one too."""
    try:
        return load(path)
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _InputError(f"bad {kind} file: {exc}") from exc


def cmd_sample(args) -> int:
    spec = _read(measures.MeasureSpec.load, args.spec, "measure spec")
    try:
        cloud = measures.sample(spec, args.count, args.seed)
    except ValueError as exc:
        raise _InputError(f"cannot sample: {exc}") from exc
    measures.write_csv(cloud, args.out)
    print(args.out)
    return EXIT_OK


def cmd_center(args) -> int:
    cloud = _read(measures.read_csv, args.points, "points")
    system = _load_system(args.system, cloud.dimension)
    coords = _to_system_coords(cloud, system)
    try:
        tree = compute_center_partition(coords, system)
    except ValueError as exc:
        raise _InputError(f"cannot center: {exc}") from exc
    except (BracketNotFoundError, NonConvergenceError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        if exc.coordinate is not None:
            print(f"  while solving axis coordinate {exc.coordinate}", file=sys.stderr)
        for r in exc.records:
            print(f"  coordinate {r['coordinate']}: bracket {tuple(r['bracket'])}, "
                  f"{r['expansions']} expansions, {r['iterations']} iterations, "
                  f"residual {r['residual']:.3e}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    report = verify.check_equipartition(tree, coords)
    if not report.passed:
        print(f"solver failed: the partition fails its equipartition check (max deviation "
              f"{report.stats['max_relative_deviation']:.3e})", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    if args.out:
        partition.save(tree, args.out)
    ambient = system.to_ambient(tree.center)
    print(" ".join(repr(float(v)) for v in ambient))
    return EXIT_OK


def _to_system_coords(cloud, system: CoordinateSystem):
    """Re-express an ambient cloud in the system's coordinates (input error if not finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        coords = system.to_coordinates(cloud.points)
    try:
        return measures.WeightedPointCloud(coords, cloud.weights, cloud.ids)
    except ValueError as exc:
        raise _InputError(f"cannot express the points in the coordinate system: {exc}") from exc


_CHECKS = ("equipartition", "avoidance", "depth")


def cmd_verify(args) -> int:
    tree = _read(partition.load, args.partition, "partition")
    cloud = _read(measures.read_csv, args.points, "points")
    if cloud.dimension != tree.dimension:
        raise _InputError("points and partition have different dimensions")
    coords = _to_system_coords(cloud, tree.system)

    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not names:
        raise _InputError(f"--checks names no check (known: {_CHECKS})")
    unknown = set(names) - set(_CHECKS)
    if unknown:
        raise _InputError(f"unknown checks: {sorted(unknown)} (known: {_CHECKS})")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise _InputError("--tol must be finite and >= 0")
    if args.count < 1:
        raise _InputError("--count must be >= 1")
    if not 0 <= args.seed < 2**64:
        raise _InputError("--seed must lie in 0..2^64 - 1")

    reports = []
    try:
        for name in names:
            if name == "equipartition":
                reports.append(verify.check_equipartition(tree, coords, tol=args.tol))
            elif name == "avoidance":
                reports.append(verify.check_avoidance(tree, args.count, args.seed, coords))
            elif name == "depth":
                reports.append(verify.check_depth(tree, coords, args.count, args.seed))
    except ValueError as exc:
        raise _InputError(f"cannot verify: {exc}") from exc
    doc = {
        "all_passed": all(r.passed for r in reports),
        "checks": [r.to_json() for r in reports],
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if doc["all_passed"] else EXIT_CHECK_FAILED


def _clip_polygon(poly, normal, offset):
    """Keep the part of a convex polygon with normal . p >= offset."""
    out = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        fp = float(normal @ p) - offset
        fq = float(normal @ q) - offset
        if fp >= 0:
            out.append(p)
        if (fp < 0) != (fq < 0):
            t = fp / (fp - fq)
            out.append(p + t * (q - p))
    return out

_FILLS = ("#aecbe8", "#f2c4a2", "#b8dcb8", "#e8b4c8")


def cmd_plot(args) -> int:
    tree = _read(partition.load, args.partition, "partition")
    if tree.dimension != 2:
        raise _InputError("plotting is two-dimensional only")
    cloud = _read(measures.read_csv, args.points, "points")
    if cloud.dimension != 2:
        raise _InputError("points file is not two-dimensional")

    svg = render_svg(tree, cloud.points)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(args.out)
    return EXIT_OK


def render_svg(tree, ambient_points) -> str:
    """Deterministic SVG of a 2-D partition: filled regions clipped to the data
    bounding box grown by 1.2, boundary rays from the center, the points, and a
    center marker."""
    pts = np.asarray(ambient_points, dtype=float)
    center = tree.system.to_ambient(tree.center)
    lo = np.min(np.vstack([pts, [center]]), axis=0)
    hi = np.max(np.vstack([pts, [center]]), axis=0)
    mid = 0.5 * (lo + hi)
    half = np.maximum(0.5 * (hi - lo), 1e-9) * 1.2
    lo, hi = mid - half, mid + half
    rect = [
        np.array([lo[0], lo[1]]),
        np.array([hi[0], lo[1]]),
        np.array([hi[0], hi[1]]),
        np.array([lo[0], hi[1]]),
    ]

    scale = 640.0 / float(np.max(hi - lo))  # 640 px along the longer side
    width = (hi[0] - lo[0]) * scale
    height = (hi[1] - lo[1]) * scale

    def to_px(p):
        return ((p[0] - lo[0]) * scale, (hi[1] - p[1]) * scale)

    def fmt(v):
        return f"{v:.3f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(width)}" height="{fmt(height)}" '
        f'viewBox="0 0 {fmt(width)} {fmt(height)}">',
        f'<rect x="0" y="0" width="{fmt(width)}" height="{fmt(height)}" fill="white"/>',
    ]

    from .geometry import region_halfspace_rep
    from .partition import regions as tree_regions

    matrix = tree.system.matrix
    offset_vec = tree.system.offset
    for i, (signs, region) in enumerate(sorted(tree_regions(tree).items())):
        poly = [r.copy() for r in rect]
        for h in region_halfspace_rep(region):
            # coordinate-space half-space a.x >= c pulls back to ambient
            a_amb = matrix.T @ h.normal
            c_amb = h.offset - float(h.normal @ offset_vec)
            poly = _clip_polygon(poly, a_amb, c_amb)
            if not poly:
                break
        if not poly:
            continue
        path = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in (to_px(p) for p in poly))
        parts.append(
            f'<polygon points="{path}" fill="{_FILLS[i % len(_FILLS)]}" '
            f'fill-opacity="0.45" stroke="none"/>'
        )

    # boundary rays: +-root axis and +-the depth-2 direction (second dual vector)
    root_dir = tree.system.to_ambient(tree.center + tree.axes[0]) - center
    child_dir = tree.system.dual_basis()[:, 1]
    for d in (root_dir, -root_dir, child_dir, -child_dir):
        t_max = np.inf
        for k in range(2):
            if d[k] > 0:
                t_max = min(t_max, (hi[k] - center[k]) / d[k])
            elif d[k] < 0:
                t_max = min(t_max, (lo[k] - center[k]) / d[k])
        if not np.isfinite(t_max) or t_max <= 0:
            continue
        end = center + t_max * d
        (x1, y1), (x2, y2) = to_px(center), to_px(end)
        parts.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            f'stroke="#333333" stroke-width="1.2"/>'
        )

    for p in pts:
        x, y = to_px(p)
        parts.append(f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="2.5" fill="#1a1a1a"/>')
    cx, cy = to_px(center)
    parts.append(
        f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="5" fill="none" '
        f'stroke="#cc0000" stroke-width="2"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yaoyao",
        description="Equal-mass cone partitions of weighted point clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a CSV cloud from a measure spec")
    p.add_argument("--spec", required=True, help="measure spec JSON")
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("center", help="compute the center and partition")
    p.add_argument("points", help="input CSV (x1,...,xn[,w])")
    p.add_argument("--system", help="coordinate system JSON (matrix + offset)")
    p.add_argument("-o", "--out", help="partition JSON output path")
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("verify", help="run checks against a stored partition")
    p.add_argument("partition", help="partition JSON")
    p.add_argument("points", help="input CSV")
    p.add_argument("--checks", default=",".join(_CHECKS))
    p.add_argument("--count", type=int, default=1000, help="half-spaces the depth check draws")
    p.add_argument("--seed", type=int, default=0, help="seed of the depth check's half-spaces")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("-o", "--out", help="report JSON path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="render a 2-D partition to SVG")
    p.add_argument("partition", help="partition JSON")
    p.add_argument("points", help="input CSV")
    p.add_argument("-o", "--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

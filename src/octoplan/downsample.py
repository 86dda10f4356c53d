"""Hull-preserving point-cloud downsampling over a subdivision tree.

Each occupied leaf is reduced independently:

1. Collect the per-axis extreme points (2 * d of them) and build their
   convex polytope.
2. Drop every point strictly inside that polytope; boundary points stay.
3. Split the survivors into 2^d orthants around the leaf's assigned-box
   midpoint (upper side on ties, matching the tree's split rule) and hull
   each orthant.
4. Return the deduplicated union of all orthant hull vertices and the
   extreme points from step 1.

Leaves with at most 2 * d points, and any stage whose hull degenerates
(too few points, collinear or coplanar input, or a spread too wide to
hull), retain that stage's points unchanged. The retained set therefore
always contains every vertex of the leaf's full convex hull: such a vertex
is never strictly inside the seed polytope, and a supporting hyperplane at
it also supports its orthant's hull, so it survives both cuts.

The voxel-grid filter baseline lives here too, with a calibration helper
that hunts for the voxel size hitting a requested output count.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .errors import DegenerateInput, EmptyInput, InvalidSpec
from .geometry import (Aabb, ConvexHull, PointCloud, _dedupe_rows, quickhull,
                       strictly_inside)
from .pool import ordered_map
from .tree import OctoTree, morton_encode, occupied_leaf_nodes


@dataclass(frozen=True)
class DownsampleResult:
    retained: PointCloud
    retention_rate: float
    per_leaf_meshes: list
    elapsed_seconds: float
    eliminate_seconds: float
    mesh_seconds: float


def convexify_leaf(points, split_boundary: Aabb | None = None) -> np.ndarray:
    """Reduce one leaf's points to a hull-preserving subset.

    The orthant partition pivots on the split_boundary midpoint; without
    one, the tight bounds of the points stand in.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise EmptyInput("convexify_leaf needs a nonempty (n, d) array")
    d = pts.shape[1]
    if len(pts) <= 2 * d:
        return _dedupe_rows(pts)

    seed_idx = np.unique(np.concatenate(
        [np.argmin(pts, axis=0), np.argmax(pts, axis=0)]))
    extremes = pts[seed_idx]
    try:
        seed_hull = quickhull(PointCloud(extremes))
        survivors = pts[~strictly_inside(seed_hull, pts)]
    except (EmptyInput, DegenerateInput):
        return _dedupe_rows(pts)

    if split_boundary is not None:
        center = split_boundary.center()
    else:
        center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    codes = morton_encode(survivors >= center, 1)

    kept = [extremes]
    for code in range(1 << d):
        sub = survivors[codes == code]
        if len(sub) == 0:
            continue
        # Hulling each orthant together with the extremal seed also sheds
        # points that sit on the seed polytope's boundary or between an
        # orthant's points and a seed vertex; any hull vertex of the full
        # set still survives, because a point inside the hull of other
        # input points was never a vertex to begin with.
        try:
            verts = quickhull(PointCloud(np.vstack([sub, extremes]))).vertices
        except (EmptyInput, DegenerateInput):
            kept.append(sub)
            continue
        kept.append(verts)
    return _dedupe_rows(np.vstack(kept))


def _leaf_job(args):
    """Reduce one leaf and mesh it if asked: (retained, mesh, seconds)."""
    pts, boundary, mesh = args
    t0 = perf_counter()
    retained = convexify_leaf(pts, boundary)
    eliminate_seconds = perf_counter() - t0
    if not mesh:
        return retained, None, eliminate_seconds, 0.0
    t1 = perf_counter()
    try:
        hull = quickhull(PointCloud(retained))
    except (EmptyInput, DegenerateInput):
        hull = None
    return retained, hull, eliminate_seconds, perf_counter() - t1


def downsample_tree(tree: OctoTree, workers: int = 1,
                    mesh: bool = False) -> DownsampleResult:
    """Run the per-leaf reduction over every occupied leaf and, with mesh
    only, mesh each leaf's retained set where its hull is non-degenerate.

    Leaves go in 16-leaf chunks to at most `workers` processes and come
    back in the tree's Morton order, so the output does not depend on the
    worker count; stage seconds are summed over leaves. An empty tree
    yields an empty retained cloud at retention 1.0.
    """
    t_start = perf_counter()
    leaves = occupied_leaf_nodes(tree)
    if not leaves:
        return DownsampleResult(PointCloud.empty(tree.dim), 1.0, [],
                                perf_counter() - t_start, 0.0, 0.0)
    points = tree.points_array()
    payloads = [(points[leaf.point_ids], leaf.split_boundary, mesh)
                for leaf in leaves]
    total = sum(len(p[0]) for p in payloads)
    outcomes = ordered_map(_leaf_job, payloads, workers, 16)

    retained = np.vstack([o[0] for o in outcomes])
    meshes = [o[1] for o in outcomes if o[1] is not None]
    return DownsampleResult(
        retained=PointCloud(retained),
        retention_rate=len(retained) / total,
        per_leaf_meshes=meshes,
        elapsed_seconds=perf_counter() - t_start,
        eliminate_seconds=sum(o[2] for o in outcomes),
        mesh_seconds=sum(o[3] for o in outcomes),
    )


def voxel_filter(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Keep one representative per occupied voxel: the input point nearest
    the voxel's centroid of members, ties broken by lowest input index.
    Output is ordered by voxel grid index."""
    if len(cloud) == 0:
        raise EmptyInput("cannot voxel-filter an empty cloud")
    if not (np.isfinite(voxel_size) and voxel_size > 0):
        raise InvalidSpec(
            f"voxel_size must be positive and finite, got {voxel_size}")
    pts = cloud.points
    with np.errstate(over="ignore"):
        cell = np.floor((pts - pts.min(axis=0)) / voxel_size)
    if cell.max() == np.inf:
        raise InvalidSpec(f"voxel_size {voxel_size!r} overflows a voxel index")

    # Voxel rows in grid order, axis 0 first; the stable sort keeps input
    # order within a voxel.
    order = np.lexsort(cell.T[::-1])
    ordered = pts[order]
    srt = cell[order]
    new = np.r_[True, np.any(srt[1:] != srt[:-1], axis=1)]
    starts = np.flatnonzero(new)
    sums = np.add.reduceat(ordered, starts, axis=0)
    counts = np.diff(np.r_[starts, len(pts)])
    centroids = sums / counts[:, None]

    group_of = np.cumsum(new) - 1
    dist = np.linalg.norm(ordered - centroids[group_of], axis=1)
    # Sort each voxel group by distance then by original index; the first
    # row per group is the representative.
    pick = np.lexsort((order, dist, group_of))
    winners = pick[starts]
    return PointCloud(ordered[winners])


def calibrate_voxel_size(cloud: PointCloud, target_count: int,
                         tolerance: int = 5,
                         max_iters: int = 64) -> tuple[float, int]:
    """Bisect for a voxel size whose filtered count lands within tolerance
    of target_count; returns (voxel_size, achieved_count), the closest pair
    found if the tolerance is unreachable."""
    n_unique = len(_dedupe_rows(cloud.points))
    if not 1 <= target_count <= n_unique:
        raise InvalidSpec(
            f"target_count must be in [1, {n_unique}], got {target_count}")
    edges = cloud.points.max(axis=0) - cloud.points.min(axis=0)
    hi = float(edges.max()) * (1 + 1e-9) or 1.0
    lo = hi * 2.0 ** -40
    best = (hi, 1)
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        count = len(voxel_filter(cloud, mid))
        if abs(count - target_count) < abs(best[1] - target_count):
            best = (mid, count)
        if abs(count - target_count) <= tolerance:
            return mid, count
        if count > target_count:
            lo = mid
        else:
            hi = mid
    return best


def export_mesh(meshes: list, path) -> None:
    """Write hulls as one Wavefront OBJ, one group per leaf in list order.
    3-D hulls emit triangular f elements; 2-D hulls emit one closed l
    polyline around the ring."""
    with open(path, "w") as fh:
        base = 1
        for i, mesh in enumerate(meshes):
            fh.write(f"g leaf_{i}\n")
            verts = np.asarray(mesh.vertices, dtype=float)
            row = "v %r %r %r\n" if verts.shape[1] == 3 else "v %r %r 0.0\n"
            fh.write((row * len(verts)) % tuple(verts.ravel().tolist()))
            if verts.shape[1] == 3:
                faces = np.asarray(mesh.faces, dtype=np.int64) + base
                fh.write(("f %d %d %d\n" * len(faces))
                         % tuple(faces.ravel().tolist()))
            else:
                loop = " ".join(str(base + v) for v in range(len(verts)))
                fh.write(f"l {loop} {base}\n")
            base += len(verts)


def metrics_csv(input_size: int, retained: int, retention_rate: float,
                elapsed_seconds: float) -> str:
    """The metrics.csv text of one downsample run: header and one row."""
    return ("input_size,retained,retention_rate,elapsed_ms\n"
            f"{input_size},{retained},{retention_rate!r},"
            f"{elapsed_seconds * 1e3!r}\n")

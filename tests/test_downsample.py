"""Downsampling tests: per-leaf reduction, voxel baseline, mesh export.

scipy's hull is the independent cross-check for hull preservation.
"""
import math
import os

import numpy as np
import pytest
from scipy.spatial import ConvexHull as SciHull

import octoplan.downsample as downsample_mod
import octoplan.pool as pool_mod
from octoplan.downsample import (calibrate_voxel_size, convexify_leaf,
                                 downsample_tree, export_mesh, metrics_csv,
                                 voxel_filter)
from octoplan.errors import EmptyInput, InvalidSpec
from octoplan.geometry import Aabb, ConvexHull, PointCloud, quickhull
from octoplan.tree import build, occupied_leaf_nodes

CUBE = np.array([[float(i), float(j), float(k)]
                 for i in (0, 1) for j in (0, 1) for k in (0, 1)])


def rows(arr):
    return {tuple(r) for r in np.asarray(arr)}


def scipy_hull_vertices(pts):
    return rows(pts[SciHull(pts).vertices])


# ----------------------------------------------------------- convexify_leaf


def test_cube_with_centroid_keeps_only_corners():
    pts = np.vstack([CUBE, [[0.5, 0.5, 0.5]]])
    kept = convexify_leaf(pts)
    assert rows(kept) == rows(CUBE)
    assert len(kept) == 8


def test_tiny_leaf_returns_unique_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.2], [0.0, 0.0]])
    kept = convexify_leaf(pts)
    assert rows(kept) == rows(pts)
    assert len(kept) == 3


def test_degenerate_leaf_retains_everything():
    line = np.column_stack([np.linspace(0, 1, 12),
                            np.linspace(0, 2, 12),
                            np.zeros(12)])
    kept = convexify_leaf(line)
    assert rows(kept) == rows(line)


@pytest.mark.parametrize("d", [2, 3])
def test_hull_is_preserved_on_random_leaves(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(25):
        pts = rng.uniform(0.0, 4.0, size=(500, d))
        kept = convexify_leaf(pts)
        assert rows(kept) <= rows(pts)
        assert scipy_hull_vertices(pts) <= rows(kept)
        assert scipy_hull_vertices(np.asarray(kept)) == scipy_hull_vertices(pts)


def test_reduction_actually_removes_bulk_points():
    rng = np.random.default_rng(7)
    pts = rng.uniform(size=(1000, 3))
    kept = convexify_leaf(pts)
    assert len(kept) < 0.8 * len(pts)


def test_split_boundary_changes_orthant_pivot_but_not_the_hull():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 1.0, size=(400, 3))
    box = Aabb(np.zeros(3), np.full(3, 4.0))
    for kept in (convexify_leaf(pts), convexify_leaf(pts, box)):
        assert scipy_hull_vertices(np.asarray(kept)) == scipy_hull_vertices(pts)


def test_convexify_rejects_empty():
    with pytest.raises(EmptyInput):
        convexify_leaf(np.empty((0, 3)))


# ----------------------------------------------------------- tree traversal


def tree_fixture(n=3000, seed=5):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 8.0, size=(n, 3))
    dom = Aabb(np.zeros(3), np.full(3, 8.0))
    return pts, build(PointCloud(pts), dom, depth=2)


def test_downsample_tree_preserves_global_hull():
    pts, tree = tree_fixture()
    result = downsample_tree(tree)
    retained = rows(result.retained.points)
    assert retained <= rows(pts)
    assert scipy_hull_vertices(pts) <= retained
    assert result.retention_rate == pytest.approx(
        len(result.retained) / len(pts))
    assert 0.0 < result.retention_rate < 1.0


def test_downsample_tree_worker_count_does_not_change_output():
    _, tree = tree_fixture(n=2000, seed=6)
    one = downsample_tree(tree, workers=1, mesh=True)
    two = downsample_tree(tree, workers=2, mesh=True)
    assert one.retained.points.tobytes() == two.retained.points.tobytes()
    assert len(one.per_leaf_meshes) == len(two.per_leaf_meshes)
    for a, b in zip(one.per_leaf_meshes, two.per_leaf_meshes):
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.faces.tobytes() == b.faces.tobytes()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no
    process and maps in this one."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize):
        return map(fn, items)


@pytest.mark.parametrize("workers, cpus, n, want", [
    (100_000, 2, 2000, [2]),    # capped by the usable CPUs
    (100_000, 64, 2000, [4]),   # capped by the 16-leaf chunks
    (3, 64, 2000, [3]),         # as asked
    (8, 64, 10, []),            # one chunk: no pool
    (8, 1, 2000, []),           # one CPU: no pool
    (1, 64, 2000, []),
])
def test_downsample_pool_is_capped(monkeypatch, workers, cpus, n, want):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    _, tree = tree_fixture(n=n, seed=6)
    chunks = -(-len(occupied_leaf_nodes(tree)) // 16)
    assert chunks == {2000: 4, 10: 1}[n]
    got = downsample_tree(tree, workers=workers, mesh=True)
    assert RecordingPool.sizes == want
    alone = downsample_tree(tree, workers=1, mesh=True)
    assert got.retained.points.tobytes() == alone.retained.points.tobytes()


def test_downsample_tree_reports_stage_times():
    _, tree = tree_fixture(n=1500, seed=9)
    result = downsample_tree(tree, mesh=True)
    assert result.eliminate_seconds >= 0.0
    assert result.mesh_seconds >= 0.0
    assert result.elapsed_seconds + 1e-6 >= (result.eliminate_seconds
                                             + result.mesh_seconds)


def test_downsample_empty_tree():
    dom = Aabb(np.zeros(3), np.full(3, 8.0))
    tree = build(PointCloud(np.empty((0, 3))), dom, depth=2)
    result = downsample_tree(tree)
    assert len(result.retained) == 0
    assert result.retention_rate == 1.0
    assert result.per_leaf_meshes == []


def test_downsample_meshes_cover_occupied_leaves():
    _, tree = tree_fixture(n=4000, seed=11)
    result = downsample_tree(tree, mesh=True)
    occupied = sum(1 for leaf in tree.leaves if len(leaf.point_ids))
    assert len(result.per_leaf_meshes) == occupied


def test_downsample_without_mesh_hulls_nothing_more(monkeypatch):
    # The reduction's own hulls are the only ones: a run with meshes makes
    # one more quickhull call per occupied leaf and keeps the same points.
    _, tree = tree_fixture(n=4000, seed=11)
    calls = []

    def counted(cloud):
        calls.append(len(cloud))
        return quickhull(cloud)

    monkeypatch.setattr(downsample_mod, "quickhull", counted)
    plain = downsample_tree(tree)
    plain_calls = len(calls)
    meshed = downsample_tree(tree, mesh=True)
    assert len(calls) - 2 * plain_calls == len(tree.codes)
    assert plain.per_leaf_meshes == [] and plain.mesh_seconds == 0.0
    assert plain.retained.points.tobytes() == meshed.retained.points.tobytes()


# ------------------------------------------------------------ voxel filter


def test_voxel_single_point():
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
    out = voxel_filter(cloud, 0.5)
    assert np.array_equal(out.points, cloud.points)


def test_voxel_merges_cohabitants():
    cloud = PointCloud(np.array([[0.1, 0.1], [0.2, 0.2], [0.9, 0.9]]))
    out = voxel_filter(cloud, 0.5)
    assert len(out) == 2
    assert rows(out.points) <= rows(cloud.points)


def test_voxel_representative_is_nearest_to_centroid():
    cloud = PointCloud(np.array([[0.10, 0.10], [0.30, 0.30], [0.26, 0.26]]))
    out = voxel_filter(cloud, 1.0)
    # Centroid is (0.22, 0.22); the third point sits closest.
    assert np.array_equal(out.points, np.array([[0.26, 0.26]]))


def test_voxel_tie_breaks_toward_first_input():
    # Dyadic coordinates make the two centroid distances exactly equal.
    cloud = PointCloud(np.array([[0.25, 0.25], [0.75, 0.75]]))
    out = voxel_filter(cloud, 1.0)
    assert np.array_equal(out.points, np.array([[0.25, 0.25]]))


def test_voxel_output_is_input_subset():
    rng = np.random.default_rng(13)
    cloud = PointCloud(rng.uniform(0.0, 10.0, size=(2000, 3)))
    out = voxel_filter(cloud, 1.3)
    assert rows(out.points) <= rows(cloud.points)
    assert 0 < len(out) < len(cloud)


def test_voxel_errors():
    with pytest.raises(EmptyInput):
        voxel_filter(PointCloud.empty(3), 1.0)
    cloud = PointCloud(np.array([[0.0, 0.0]]))
    for size in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            voxel_filter(cloud, size)


@pytest.mark.parametrize("extent,size", [
    ((200.0, 150.0), 1e-8), ((20.0, 20.0, 20.0), 1e-6),
    ((200.0, 150.0), 1e-300), ((20.0, 20.0, 20.0), 0.7),
], ids=["2d-1e-8", "3d-1e-6", "2d-1e-300", "3d-0.7"])
def test_voxel_groups_exactly_in_grid_order(extent, size):
    # The first three grids have more voxels than an int64 key can number;
    # the oracle numbers them with Python ints.
    rng = np.random.default_rng(19)
    pts = rng.uniform(0.0, 1.0, (3000, len(extent))) * extent
    pts = pts[rng.integers(0, len(pts), len(pts))]
    low = pts.min(axis=0).tolist()

    def voxel(p):
        return tuple(int(np.floor((x - lo) / size)) for x, lo in zip(p, low))

    members = {}
    for i, p in enumerate(pts.tolist()):
        members.setdefault(voxel(p), []).append(i)
    out = voxel_filter(PointCloud(pts), size).points
    keys = [voxel(p) for p in out.tolist()]
    assert keys == sorted(members)
    assert all(rows(out[[k]]) <= rows(pts[members[key]])
               for k, key in enumerate(keys))
    if size == 1e-300:
        assert np.array_equal(out, np.unique(pts, axis=0))


def test_voxel_size_with_an_index_over_the_float_range_is_refused():
    cloud = PointCloud(np.array([[0.0, 0.0], [100.0, 1.0]]))
    with pytest.raises(InvalidSpec, match="overflows a voxel index"):
        voxel_filter(cloud, 5e-324)


def test_calibrate_voxel_size_hits_ten_percent():
    rng = np.random.default_rng(17)
    cloud = PointCloud(rng.uniform(0.0, 20.0, size=(10000, 3)))
    size, achieved = calibrate_voxel_size(cloud, 1000, tolerance=50)
    assert abs(achieved - 1000) <= 50
    assert len(voxel_filter(cloud, size)) == achieved


def test_calibrate_voxel_size_validates_target():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(InvalidSpec):
        calibrate_voxel_size(cloud, 0)
    with pytest.raises(InvalidSpec):
        calibrate_voxel_size(cloud, 3)


# ------------------------------------------------------------- OBJ export


def parse_obj(text):
    groups, verts, faces, lines = [], [], [], []
    for raw in text.splitlines():
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "g":
            groups.append(parts[1])
        elif parts[0] == "v":
            verts.append([float(v) for v in parts[1:]])
        elif parts[0] == "f":
            faces.append([int(v) for v in parts[1:]])
        elif parts[0] == "l":
            lines.append([int(v) for v in parts[1:]])
    return groups, np.asarray(verts), faces, lines


def test_export_cube_mesh(tmp_path):
    mesh = quickhull(PointCloud(CUBE))
    path = tmp_path / "leaf.obj"
    export_mesh([mesh], path)
    groups, verts, faces, lines = parse_obj(path.read_text())
    assert groups == ["leaf_0"]
    assert len(verts) == 8 and len(faces) == 12 and not lines
    assert rows(verts) == rows(CUBE)
    for face in faces:
        assert len(face) == 3
        assert all(1 <= v <= 8 for v in face)


def test_export_multiple_groups_offsets_indices(tmp_path):
    mesh1 = quickhull(PointCloud(CUBE))
    mesh2 = quickhull(PointCloud(CUBE + 10.0))
    path = tmp_path / "two.obj"
    export_mesh([mesh1, mesh2], path)
    groups, verts, faces, _ = parse_obj(path.read_text())
    assert groups == ["leaf_0", "leaf_1"]
    assert len(verts) == 16 and len(faces) == 24
    assert all(v >= 9 for face in faces[12:] for v in face)


def test_export_2d_hull_writes_closed_loop(tmp_path):
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = quickhull(PointCloud(square))
    path = tmp_path / "flat.obj"
    export_mesh([mesh], path)
    _, verts, faces, lines = parse_obj(path.read_text())
    assert not faces and len(lines) == 1
    assert verts.shape == (4, 3) and not verts[:, 2].any()
    loop = lines[0]
    assert loop[0] == loop[-1] == 1
    assert sorted(loop[:-1]) == [1, 2, 3, 4]


def test_export_text_equals_row_at_a_time_text(tmp_path):
    awkward = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                        [3.0, -2.0, 0.0], [1e16, 0.1, -7.25]])
    meshes = [quickhull(PointCloud(CUBE)),
              ConvexHull(awkward, np.array([[0, 1, 2], [0, 2, 1]])),
              ConvexHull(awkward[:, :2], np.arange(3))]
    want, base = [], 1
    for i, mesh in enumerate(meshes):
        want.append(f"g leaf_{i}\n")
        for r in mesh.vertices.tolist():
            z = r[2] if len(r) == 3 else 0.0
            want.append(f"v {r[0]!r} {r[1]!r} {z!r}\n")
        if mesh.dim == 3:
            want += [f"f {a + base} {b + base} {c + base}\n"
                     for a, b, c in mesh.faces.tolist()]
        else:
            want.append(f"l {base} {base + 1} {base + 2} {base}\n")
        base += len(mesh.vertices)
    path = tmp_path / "mixed.obj"
    export_mesh(meshes, path)
    assert path.read_text() == "".join(want)


def test_export_empty_list(tmp_path):
    path = tmp_path / "none.obj"
    export_mesh([], path)
    assert path.read_text() == ""


# ----------------------------------------------------------------- metrics


def test_metrics_csv_format():
    text = metrics_csv(input_size=100, retained=25, retention_rate=0.25,
                       elapsed_seconds=0.5)
    header, row, trailer = text.split("\n")
    assert header == "input_size,retained,retention_rate,elapsed_ms"
    assert trailer == ""
    fields = row.split(",")
    assert fields[0] == "100" and fields[1] == "25"
    assert float(fields[2]) == 0.25
    assert float(fields[3]) == pytest.approx(500.0)

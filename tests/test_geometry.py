"""Hull, box, and containment tests against independent oracles.

Oracles used here:
  * a Carathéodory brute-force membership test (exhaustive subset scan),
  * scipy.spatial.ConvexHull as an independently implemented cross-check.
Neither is used anywhere in the package itself.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull as SciHull

from octoplan.errors import DegenerateInput, EmptyInput
from octoplan.geometry import (Aabb, PointCloud, aabb_of, as_point, contains,
                               quickhull, strictly_inside)


def hull_volume(hull):
    """Signed volume (3-D) or signed area (2-D); positive for valid output."""
    if hull.dim == 2:
        v = hull.vertices
        nxt = np.roll(v, -1, axis=0)
        return float(0.5 * np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))
    v = hull.vertices
    tri = hull.faces
    a, b, c = v[tri[:, 0]], v[tri[:, 1]], v[tri[:, 2]]
    return float(np.sum(np.einsum("ij,ij->i", a, np.cross(b, c))) / 6.0)


def bary_contains(points, p, tol=1e-9):
    """True iff p is in the convex hull of points, by exhaustive scan of
    (d+1)-point subsets (Carathéodory's theorem)."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    for sub in itertools.combinations(range(len(pts)), d + 1):
        a = np.vstack([pts[list(sub)].T, np.ones(d + 1)])
        b = np.append(np.asarray(p, dtype=float), 1.0)
        coef, residual, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if np.allclose(a @ coef, b, atol=tol) and np.all(coef >= -tol):
            return True
    return False


def vertex_set(hull):
    return {tuple(v) for v in np.asarray(hull.vertices)}


# ---------------------------------------------------------------- quickhull


def test_square_with_center_keeps_corners():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], float)
    hull = quickhull(PointCloud(pts))
    assert vertex_set(hull) == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_cube_with_centroid_keeps_corners_and_triangulates():
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    pts = np.vstack([corners, [[0.5, 0.5, 0.5]]])
    hull = quickhull(PointCloud(pts))
    assert vertex_set(hull) == {tuple(c) for c in corners}
    assert len(hull.faces) == 12


def test_random_cloud_vertex_set_matches_leave_one_out_oracle():
    rng = np.random.default_rng(123)
    pts = rng.uniform(0, 1, (200, 3))
    hull = quickhull(PointCloud(pts))
    got = vertex_set(hull)
    scipy_hull = SciHull(pts)
    expected = {tuple(pts[i]) for i in scipy_hull.vertices}
    assert got == expected
    # Leave-one-out reading of the same claim, on a subsample small enough
    # for the exhaustive oracle.
    small = rng.uniform(0, 1, (12, 3))
    small_hull = quickhull(PointCloud(small))
    small_got = vertex_set(small_hull)
    for i, p in enumerate(small):
        others = np.delete(small, i, axis=0)
        inside = bary_contains(others, p)
        assert (tuple(p) in small_got) == (not inside)


@pytest.mark.parametrize("d", [2, 3])
def test_matches_scipy_on_random_clouds(d):
    rng = np.random.default_rng(7 + d)
    for _ in range(20):
        n = int(rng.integers(d + 2, 120))
        pts = rng.normal(0, 3, (n, d))
        hull = quickhull(PointCloud(pts))
        ref = SciHull(pts)
        assert vertex_set(hull) == {tuple(pts[i]) for i in ref.vertices}
        assert hull_volume(hull) == pytest.approx(ref.volume, rel=1e-9)


def test_vertices_are_input_points():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, (60, 3))
    hull = quickhull(PointCloud(pts))
    pool = {tuple(p) for p in pts}
    assert vertex_set(hull) <= pool


def test_duplicate_points_are_harmless():
    base = np.array([[0, 0], [4, 0], [4, 3], [0, 3], [2, 1]], float)
    doubled = np.vstack([base, base, base])
    hull = quickhull(PointCloud(doubled))
    assert vertex_set(hull) == {(0, 0), (4, 0), (4, 3), (0, 3)}


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_2d_extreme_within_tolerance_of_its_chord_is_dropped(sign):
    # The lowest-x point (highest-x when mirrored) sits 4.5e-301 outside
    # the edge x = 0 between its ring neighbours: inside HULL_EPS, so it is
    # no vertex, like any other point that close to an edge.
    pts = np.array([[0.0, 0.0], [0.0, -2.0], [1.0, 0.0],
                    [-4.4805173e-301, -1.0]]) * [sign, 1.0]
    hull = quickhull(PointCloud(pts))
    assert vertex_set(hull) == {tuple(p) for p in pts[:3]}
    for p in pts:
        assert contains(hull, p)
    with pytest.raises(DegenerateInput):
        quickhull(PointCloud(pts[[0, 1, 3]]))


def test_too_few_points_raise_empty_input():
    with pytest.raises(EmptyInput):
        quickhull(PointCloud(np.empty((0, 2))))
    with pytest.raises(EmptyInput):
        quickhull(PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]])))
    with pytest.raises(EmptyInput):
        quickhull(PointCloud(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]])))


def test_degenerate_inputs_raise():
    line = np.array([[i, 2.0 * i] for i in range(6)], float)
    with pytest.raises(DegenerateInput):
        quickhull(PointCloud(line))
    plane = np.array([[x, y, x + y] for x in range(3) for y in range(3)],
                     float)
    with pytest.raises(DegenerateInput):
        quickhull(PointCloud(plane))
    same = np.tile([1.0, 2.0, 3.0], (5, 1))
    with pytest.raises(DegenerateInput):
        quickhull(PointCloud(same))


def test_2d_ring_is_counter_clockwise():
    rng = np.random.default_rng(31)
    for _ in range(10):
        pts = rng.uniform(0, 5, (40, 2))
        ring = np.asarray(quickhull(PointCloud(pts)).vertices)
        x, y = ring[:, 0], ring[:, 1]
        shoelace = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert shoelace > 0


def test_3d_faces_point_outward():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 1, (50, 3))
    hull = quickhull(PointCloud(pts))
    verts = np.asarray(hull.vertices)
    interior = verts.mean(axis=0)
    for a, b, c in np.asarray(hull.faces):
        n = np.cross(verts[b] - verts[a], verts[c] - verts[a])
        assert n @ (verts[a] - interior) > 0


def test_3d_triangulation_satisfies_euler_formula():
    rng = np.random.default_rng(99)
    for _ in range(8):
        pts = rng.normal(0, 1, (int(rng.integers(5, 200)), 3))
        hull = quickhull(PointCloud(pts))
        assert len(hull.faces) == 2 * len(hull.vertices) - 4


# ------------------------------------------------------- hypothesis properties

finite_coord = st.floats(min_value=-50, max_value=50,
                         allow_nan=False, allow_infinity=False)


@st.composite
def point_clouds(draw, d):
    n = draw(st.integers(min_value=d + 1, max_value=40))
    pts = draw(st.lists(
        st.tuples(*[finite_coord] * d), min_size=n, max_size=n))
    return np.asarray(pts, dtype=float)


@settings(max_examples=60, deadline=None)
@given(pts=point_clouds(2))
def test_hull_properties_2d(pts):
    try:
        hull = quickhull(PointCloud(pts))
    except (EmptyInput, DegenerateInput):
        return
    for p in pts:
        assert contains(hull, p)
    again = quickhull(PointCloud(np.asarray(hull.vertices)))
    assert vertex_set(again) == vertex_set(hull)
    verts = np.asarray(hull.vertices)
    for i in range(len(verts)):
        rest = np.delete(verts, i, axis=0)
        assert not bary_contains(rest, verts[i])


@settings(max_examples=40, deadline=None)
@given(pts=point_clouds(3))
def test_hull_properties_3d(pts):
    try:
        hull = quickhull(PointCloud(pts))
    except (EmptyInput, DegenerateInput):
        return
    for p in pts:
        assert contains(hull, p)
    again = quickhull(PointCloud(np.asarray(hull.vertices)))
    assert vertex_set(again) == vertex_set(hull)


def test_minimality_removing_any_vertex_loses_it():
    rng = np.random.default_rng(55)
    pts = rng.uniform(0, 2, (30, 3))
    hull = quickhull(PointCloud(pts))
    verts = np.asarray(hull.vertices)
    for i in range(len(verts)):
        rest = np.delete(verts, i, axis=0)
        smaller = quickhull(PointCloud(rest))
        assert not contains(smaller, verts[i])


# -------------------------------------------------- containment and volume


def test_contains_on_unit_square():
    hull = quickhull(PointCloud(np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1.0]])))
    assert contains(hull, (0.5, 0.5))
    assert not contains(hull, (2.0, 0.0))
    assert contains(hull, (1.0, 1.0))
    assert contains(hull, (0.0, 0.5))


def test_contains_agrees_with_face_half_space_oracle():
    rng = np.random.default_rng(41)
    pts = rng.uniform(0, 1, (40, 3))
    hull = quickhull(PointCloud(pts))
    verts = np.asarray(hull.vertices)
    planes = []
    for a, b, c in np.asarray(hull.faces):
        n = np.cross(verts[b] - verts[a], verts[c] - verts[a])
        n = n / np.linalg.norm(n)
        planes.append((n, n @ verts[a]))
    probes = rng.uniform(-0.3, 1.3, (50, 3))
    for p in probes:
        expected = all(n @ p <= off + 1e-9 for n, off in planes)
        assert contains(hull, p) == expected


def test_strictly_inside_excludes_boundary():
    hull = quickhull(PointCloud(np.array(
        [[0, 0], [2, 0], [2, 2], [0, 2.0]])))
    inside = strictly_inside(hull, np.array(
        [[1.0, 1.0], [0.0, 1.0], [2.0, 2.0], [3.0, 1.0]]))
    assert inside.tolist() == [True, False, False, False]


def test_hull_volume_known_solids():
    square = quickhull(PointCloud(np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1.0]])))
    assert hull_volume(square) == pytest.approx(1.0)
    cube = quickhull(PointCloud(
        np.array(list(itertools.product([0.0, 2.0], repeat=3)))))
    assert hull_volume(cube) == pytest.approx(8.0)
    tetra = quickhull(PointCloud(np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])))
    assert hull_volume(tetra) == pytest.approx(1.0 / 6.0)


# ------------------------------------------------------------- Aabb / points


def test_as_point_validation():
    assert as_point([1, 2]).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        as_point([1.0])
    with pytest.raises(ValueError):
        as_point([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])


def test_aabb_of_trivials():
    box = aabb_of(PointCloud(np.array([[0, 0], [2, 1.0]])))
    assert box.min.tolist() == [0, 0] and box.max.tolist() == [2, 1]
    single = aabb_of(PointCloud(np.array([[3.0, 4.0]])))
    assert single.min.tolist() == [3, 4] and single.max.tolist() == [3, 4]
    with pytest.raises(EmptyInput):
        aabb_of(PointCloud.empty(2))


def test_aabb_of_is_tight():
    rng = np.random.default_rng(3)
    pts = rng.normal(0, 10, (1000, 3))
    box = aabb_of(PointCloud(pts))
    assert np.all(pts >= box.min) and np.all(pts <= box.max)
    for a in range(3):
        assert np.any(pts[:, a] == box.min[a])
        assert np.any(pts[:, a] == box.max[a])


def test_aabb_validation_and_helpers():
    with pytest.raises(ValueError):
        Aabb(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    box = Aabb(np.zeros(2), np.array([2.0, 4.0]))
    assert box.dim == 2
    assert box.edges.tolist() == [2.0, 4.0]
    assert box.center().tolist() == [1.0, 2.0]
    assert box.contains([2.0, 4.0])
    assert not box.contains([2.1, 1.0])

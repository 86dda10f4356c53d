"""Occupancy grid tests: rasterization, gap checks, serialization."""
import itertools
import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoplan.errors import InvalidSpec, PointOutOfDomain
from octoplan.geometry import Aabb, PointCloud
from octoplan.gridmap import (UniformGridMap, gap_preserved, grid_to_json,
                              grid_to_pgm, rasterize_adaptive,
                              rasterize_fixed, rle_encode)
from octoplan.tree import build, occupied_leaves


def rle_decode(runs, dims):
    """Occupancy from free-first run lengths in axis-0-fastest order."""
    values = np.arange(len(runs)) % 2 == 1
    return np.repeat(values, runs).reshape(dims, order="F")


def domain2(w=10.0, h=5.0):
    return Aabb(np.zeros(2), np.array([float(w), float(h)]))


# ------------------------------------------------------------ rasterize_fixed


def test_fixed_single_point_lands_in_its_cell():
    cloud = PointCloud(np.array([[3.0, 3.0]]))
    grid = rasterize_fixed(cloud, Aabb(np.zeros(2), np.full(2, 4.0)), 2.0)
    assert grid.dims == (2, 2)
    assert grid.occupied_count == 1
    assert grid.is_occupied((1, 1))


def test_fixed_midpoint_goes_to_upper_cell():
    # Half-open cells: a point exactly on an interior boundary belongs to
    # the cell above it, matching the tree's membership rule.
    cloud = PointCloud(np.array([[2.0, 2.0]]))
    grid = rasterize_fixed(cloud, Aabb(np.zeros(2), np.full(2, 4.0)), 2.0)
    assert grid.is_occupied((1, 1))
    assert not grid.is_occupied((0, 0))


def test_fixed_domain_max_stays_in_last_cell():
    cloud = PointCloud(np.array([[4.0, 4.0]]))
    grid = rasterize_fixed(cloud, Aabb(np.zeros(2), np.full(2, 4.0)), 2.0)
    assert grid.is_occupied((1, 1))


def test_fixed_empty_cloud_all_free():
    grid = rasterize_fixed(PointCloud(np.empty((0, 2))), domain2(), 1.0)
    assert grid.occupied_count == 0
    for dim in (2, 3):
        dom = Aabb(np.zeros(dim), np.full(dim, 5.0))
        grid = rasterize_fixed(PointCloud.empty(dim), dom, 2.0)
        assert grid.dims == (3,) * dim
        assert grid.occupancy.dtype == bool and not grid.occupancy.any()
        assert grid.cell_size.tolist() == [2.0] * dim
        assert grid.origin.tolist() == [0.0] * dim


def test_fixed_dims_are_ceilings():
    dom = Aabb(np.zeros(2), np.array([200.0, 150.0]))
    grid = rasterize_fixed(PointCloud(np.empty((0, 2))), dom, 2.6)
    assert grid.dims == (77, 58)


def test_fixed_per_axis_cell_sizes():
    dom = Aabb(np.zeros(2), np.array([8.0, 6.0]))
    grid = rasterize_fixed(PointCloud(np.array([[7.9, 5.9]])), dom,
                           np.array([2.0, 3.0]))
    assert grid.dims == (4, 2)
    assert grid.is_occupied((3, 1))


def test_fixed_rejects_out_of_domain_point():
    cloud = PointCloud(np.array([[1.0, 1.0], [1.0, 9.0]]))
    with pytest.raises(PointOutOfDomain) as err:
        rasterize_fixed(cloud, Aabb(np.zeros(2), np.full(2, 4.0)), 1.0)
    assert err.value.index == 1


def test_fixed_occupancy_matches_floor_arithmetic():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 8.0, size=(2000, 2))
    grid = rasterize_fixed(PointCloud(pts), Aabb(np.zeros(2), np.full(2, 8.0)),
                           1.0)
    expected = set(map(tuple, np.floor(pts).astype(int)))
    actual = set(zip(*np.nonzero(grid.occupancy)))
    assert actual == expected


def test_fixed_monotone_under_more_points():
    rng = np.random.default_rng(11)
    base = rng.uniform(0.0, 10.0, size=(300, 2)) * np.array([1.0, 0.5])
    extra = rng.uniform(0.0, 10.0, size=(200, 2)) * np.array([1.0, 0.5])
    g1 = rasterize_fixed(PointCloud(base), domain2(), 0.7)
    g2 = rasterize_fixed(PointCloud(np.vstack([base, extra])), domain2(), 0.7)
    assert np.all(g2.occupancy[g1.occupancy])


def fixed_occupancy_by_rows(pts, domain, cell, dims):
    """rasterize_fixed's occupancy as one (n, d) expression: floor of every
    row at once, clamped to the last cell, scattered by index tuple."""
    occ = np.zeros(dims, dtype=bool)
    idx = np.floor((pts - domain.min) / cell).astype(np.int64)
    np.minimum(idx, np.asarray(dims) - 1, out=idx)
    occ[tuple(idx.T)] = True
    return occ


@st.composite
def fixed_cases(draw):
    """A 2-D or 3-D domain with non-dyadic origin, edges and per-axis cells,
    and points anywhere inside, on interior cell faces or on the far faces."""
    dim = draw(st.sampled_from([2, 3]))
    origin = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=dim,
                                    max_size=dim)))
    edges = np.array(draw(st.lists(st.floats(0.5, 30.0), min_size=dim,
                                   max_size=dim)))
    domain = Aabb(origin, origin + edges)
    cell = np.array([draw(st.floats(e / 20.0, e * 1.5)) for e in edges])
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = origin + rng.uniform(size=(n, dim)) * edges
    kind = rng.integers(0, 3, size=(n, dim))
    faces = origin + rng.integers(0, 21, size=(n, dim)) * cell
    pts = np.where((kind == 1) & (faces <= domain.max), faces, pts)
    pts = np.where(kind == 2, domain.max, pts)
    return domain, cell if draw(st.booleans()) else cell[0], pts


@settings(max_examples=300, deadline=None)
@given(fixed_cases())
def test_fixed_matches_row_expression(case):
    domain, cell, pts = case
    grid = rasterize_fixed(PointCloud(pts), domain, cell)
    expected = fixed_occupancy_by_rows(pts, domain,
                                       np.broadcast_to(cell, domain.dim),
                                       grid.dims)
    assert np.array_equal(grid.occupancy, expected)


def test_axis_cells_far_face_closed():
    grid = rasterize_fixed(PointCloud(np.empty((0, 2))), domain2(), 1.0)
    assert grid.axis_cells(0, np.array([10.0])).tolist() == [9]
    assert grid.axis_cells(1, np.array([5.0])).tolist() == [4]


@pytest.mark.parametrize("dims, cell, origin", [
    ((10, 5), (1.0, 1.0), (0.0, 0.0)),
    ((7, 13), (0.1, 1 / 3), (-2.5, 1e-3)),
    ((256, 256), (0.78125, 0.3), (-100.0, 37.7)),
    ((3, 1), (2e9, 1e-12), (1e9, -1e-12)),
    ((4, 6, 5), (0.7, 1 / 7, 3.0), (0.1, -0.2, 0.3)),
])
def test_axis_cells_is_the_cell_rasterize_fixed_marks(dims, cell, origin):
    # Points on every cell face, one ulp either side, on the far face and
    # at the domain's corners: axis_cells gives each the floor rule's cell,
    # the one rasterize_fixed marks for it as a one-point cloud.  On the
    # second grid the domain's edge rounds to a hair over 7 cells of 0.1,
    # so rasterize_fixed adds an eighth column that overhangs the domain.
    lo = np.array(origin)
    domain = Aabb(lo, lo + np.array(dims) * np.array(cell))
    grid = rasterize_fixed(PointCloud(np.empty((0, len(dims)))), domain, cell)
    per_axis = []
    for a, n in enumerate(grid.dims):
        faces = [lo[a] + k * grid.cell_size[a] for k in range(n)]
        values = {f for face in faces + [domain.max[a]]
                  for f in (face, np.nextafter(face, -np.inf),
                            np.nextafter(face, np.inf))}
        per_axis.append(sorted(v for v in values
                               if domain.min[a] <= v <= domain.max[a]))
    rng = np.random.default_rng(len(dims))
    points = [[v[rng.integers(len(v))] for v in per_axis]
              for _ in range(3000)]
    points += itertools.product(*zip(domain.min, domain.max))
    points = np.array(points)
    cells = np.stack([grid.axis_cells(a, points[:, a])
                      for a in range(len(dims))], axis=1)
    for p, c in zip(points.tolist(), cells.tolist()):
        assert c == [min(math.floor((v - o) / w), n - 1) for v, o, w, n
                     in zip(p, lo.tolist(), grid.cell_size.tolist(),
                            grid.dims)]
        one = rasterize_fixed(PointCloud(np.array([p])), domain, cell)
        assert np.argwhere(one.occupancy).tolist() == [c]


# --------------------------------------------------------- rasterize_adaptive


def test_adaptive_single_point():
    dom = Aabb(np.zeros(2), np.full(2, 8.0))
    tree = build(PointCloud(np.array([[0.5, 0.5]])), dom, depth=3)
    grid = rasterize_adaptive(tree)
    assert grid.dims == (8, 8)
    assert np.allclose(grid.cell_size, 1.0)
    assert grid.occupied_count == 1
    assert grid.is_occupied((0, 0))
    [rec] = occupied_leaves(tree)
    assert rec.index == (0, 0)
    box = rec.node_boundary
    assert np.allclose(box.min, [0.5, 0.5]) and np.allclose(box.max, [0.5, 0.5])


def test_adaptive_empty_tree_all_free():
    dom = Aabb(np.zeros(2), np.full(2, 8.0))
    tree = build(PointCloud(np.empty((0, 2))), dom, depth=3)
    grid = rasterize_adaptive(tree)
    assert grid.occupied_count == 0
    assert occupied_leaves(tree) == []


def test_adaptive_matches_floor_arithmetic_oracle():
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.0, 8.0, size=(5000, 2))
    dom = Aabb(np.zeros(2), np.full(2, 8.0))
    tree = build(PointCloud(pts), dom, depth=3)
    grid = rasterize_adaptive(tree)
    expected = set(map(tuple, np.floor(pts).astype(int)))
    actual = set(zip(*np.nonzero(grid.occupancy)))
    assert actual == expected
    assert {rec.index for rec in occupied_leaves(tree)} == expected


def test_rasterizers_refuse_grid_over_cell_budget():
    # Depth 16 in 2-D is 2^32 cells, 4 GiB of occupancy; so is a 1e-4 m
    # fixed cell over the 10 x 5 m domain (5e9 cells).
    cloud = PointCloud(np.array([[0.5, 0.5]]))
    tree = build(cloud, domain2(), depth=16)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidSpec):
            rasterize_adaptive(tree)
        with pytest.raises(InvalidSpec):
            rasterize_fixed(cloud, domain2(), 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_adaptive_and_fixed_agree_at_matched_cells():
    # Rebuilding the uniform map at the tree's effective per-axis cell
    # size must reproduce the adaptive occupancy exactly.
    rng = np.random.default_rng(31)
    dom = Aabb(np.zeros(2), np.array([200.0, 150.0]))
    pts = rng.uniform(0.0, 1.0, size=(3000, 2)) * np.array([200.0, 150.0])
    depth = 7
    tree = build(PointCloud(pts), dom, depth=depth)
    adaptive = rasterize_adaptive(tree)
    fixed = rasterize_fixed(PointCloud(pts), dom, dom.edges / float(1 << depth))
    assert fixed.dims == adaptive.dims == (128, 128)
    assert np.array_equal(fixed.occupancy, adaptive.occupancy)


# --------------------------------------------------------------- gap check


def wall_grid(free_columns, w=10, h=5):
    """10 x 5 unit-cell map with a dense wall on row j = 2 except at the
    given column indices."""
    pts = [(i + 0.5, 2.5) for i in range(w) if i not in free_columns]
    if not pts:
        pts = [(0.5, 0.5)]
    return rasterize_fixed(PointCloud(np.array(pts, dtype=float)),
                           domain2(w, h), 1.0)


def test_gap_aligned_single_cell_passes():
    grid = wall_grid(free_columns={5})
    corridor = Aabb(np.array([5.0, 1.0]), np.array([6.0, 4.0]))
    assert gap_preserved(grid, corridor)


def test_gap_one_and_a_half_cells_at_chosen_offset_passes():
    # The gap [4.8, 6.3) fully contains the cell [5, 6), so one free
    # column survives even though the gap is not grid aligned.
    grid = wall_grid(free_columns={5})
    corridor = Aabb(np.array([4.8, 1.0]), np.array([6.3, 4.0]))
    assert gap_preserved(grid, corridor)


def test_gap_much_narrower_than_cell_fails():
    # A 0.4-wide gap straddling the boundary x = 5 leaves wall material in
    # both adjacent columns, so no free cell crosses the wall row.
    grid = wall_grid(free_columns=set())
    corridor = Aabb(np.array([4.8, 1.0]), np.array([5.2, 4.0]))
    assert not gap_preserved(grid, corridor)


def test_gap_double_cell_width_survives_any_offset():
    # Pigeonhole: a 2-cell-wide gap contains a whole cell at every offset.
    rng = np.random.default_rng(43)
    for _ in range(20):
        g0 = float(rng.uniform(1.0, 7.0))
        free = {i for i in range(10) if g0 <= i and i + 1 <= g0 + 2.0}
        grid = wall_grid(free_columns=free)
        corridor = Aabb(np.array([g0, 1.0]), np.array([g0 + 2.0, 4.0]))
        assert gap_preserved(grid, corridor)


def test_gap_open_space_trivially_passes():
    grid = rasterize_fixed(PointCloud(np.array([[0.5, 0.5]])), domain2(), 1.0)
    corridor = Aabb(np.array([3.0, 1.0]), np.array([4.0, 4.0]))
    assert gap_preserved(grid, corridor)


def test_gap_corridor_outside_grid_fails():
    grid = wall_grid(free_columns={5})
    corridor = Aabb(np.array([50.0, 1.0]), np.array([51.0, 4.0]))
    assert not gap_preserved(grid, corridor)


def test_gap_fully_blocked_corridor_fails():
    # Occupy every cell the corridor touches.
    pts = [(i + 0.5, j + 0.5) for i in range(3, 6) for j in range(5)]
    grid = rasterize_fixed(PointCloud(np.array(pts, dtype=float)),
                           domain2(), 1.0)
    corridor = Aabb(np.array([4.0, 0.5]), np.array([5.0, 4.5]))
    assert not gap_preserved(grid, corridor)


def bfs_gap_preserved(grid, corridor):
    """The reference for gap_preserved: a breadth-first search, one cell at
    a time, from the seed cells through the free cells whose interior
    overlaps the corridor, until it reaches a target cell."""
    lo = np.maximum(corridor.min, grid.origin)
    hi = np.minimum(corridor.max, grid.extent_max)
    if np.any(hi - lo <= 0):
        return False
    long_axis = int(np.argmax(hi - lo))

    dims = np.asarray(grid.dims)
    first = np.floor((lo - grid.origin) / grid.cell_size).astype(np.int64)
    last = np.ceil((hi - grid.origin) / grid.cell_size).astype(np.int64) - 1
    first = np.clip(first, 0, dims - 1)
    last = np.clip(last, 0, dims - 1)

    def overlaps(idx):
        cs = grid.origin + np.asarray(idx) * grid.cell_size
        ce = cs + grid.cell_size
        return bool(np.all(np.minimum(ce, hi) - np.maximum(cs, lo) > 0))

    def axis_span(idx, axis):
        start = grid.origin[axis] + idx[axis] * grid.cell_size[axis]
        return start, start + grid.cell_size[axis]

    ranges = [range(a, b + 1) for a, b in zip(first, last)]
    seeds = []
    for idx in np.ndindex(*[len(r) for r in ranges]):
        cell = tuple(r[i] for r, i in zip(ranges, idx))
        if grid.is_occupied(cell) or not overlaps(cell):
            continue
        s, e = axis_span(cell, long_axis)
        if s <= lo[long_axis] < e:
            seeds.append(cell)

    seen = set(seeds)
    work = deque(seeds)
    while work:
        cell = work.popleft()
        s, e = axis_span(cell, long_axis)
        if s < hi[long_axis] <= e:
            return True
        for axis in range(grid.dim):
            for step in (-1, 1):
                nxt = cell[:axis] + (cell[axis] + step,) + cell[axis + 1:]
                if nxt in seen or not grid.in_bounds(nxt):
                    continue
                if grid.is_occupied(nxt) or not overlaps(nxt):
                    continue
                seen.add(nxt)
                work.append(nxt)
    return False


@st.composite
def grid_and_corridor(draw):
    """A random 2-D or 3-D grid with non-dyadic cells and origins, and a
    corridor whose corners lie on cell faces or anywhere around the grid,
    so it may stick out of the grid or miss it entirely."""
    dim = draw(st.sampled_from([2, 3]))
    dims = tuple(draw(st.lists(st.integers(1, 12 if dim == 2 else 6),
                               min_size=dim, max_size=dim)))
    size = st.one_of(st.sampled_from([1.0, 0.5, 0.3, 0.7, 1.1, 2.0 / 3.0]),
                     st.floats(0.05, 3.0))
    cell = np.array(draw(st.lists(size, min_size=dim, max_size=dim)))
    offset = st.one_of(st.sampled_from([0.0, -1.3, 2.7, 0.1]),
                       st.floats(-5.0, 5.0))
    origin = np.array(draw(st.lists(offset, min_size=dim, max_size=dim)))
    density = draw(st.sampled_from([0.0, 0.2, 0.4, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = UniformGridMap(dims, cell, origin, rng.uniform(size=dims) < density)

    def coordinate(axis):
        on_face = st.builds(lambda k: origin[axis] + k * cell[axis],
                            st.integers(-2, dims[axis] + 2))
        anywhere = st.floats(origin[axis] - 2.0,
                             float(grid.extent_max[axis]) + 2.0)
        return draw(st.one_of(on_face, anywhere))

    corners = np.array([[coordinate(a) for a in range(dim)] for _ in range(2)])
    return grid, Aabb(corners.min(axis=0), corners.max(axis=0))


@settings(max_examples=400, deadline=None)
@given(grid_and_corridor())
def test_gap_preserved_matches_breadth_first_search(case):
    grid, corridor = case
    assert gap_preserved(grid, corridor) == bfs_gap_preserved(grid, corridor)


# ------------------------------------------------------------- serialization


def test_rle_axis0_fastest_example():
    occ = np.zeros((2, 2), dtype=bool)
    occ[1, 0] = True
    # Axis-0-fastest order visits (0,0), (1,0), (0,1), (1,1).
    assert rle_encode(occ) == [1, 1, 2]


def test_rle_leading_zero_when_first_cell_occupied():
    occ = np.zeros((3,), dtype=bool)
    occ[0] = True
    assert rle_encode(occ) == [0, 1, 2]


def test_rle_round_trip_random():
    rng = np.random.default_rng(5)
    for dims in [(7, 9), (4, 5, 6), (1, 1), (16,)]:
        occ = rng.uniform(size=dims) < 0.3
        runs = rle_encode(occ)
        assert np.array_equal(rle_decode(runs, dims), occ)
        assert sum(runs) == int(np.prod(dims))


def test_grid_json_round_trip():
    rng = np.random.default_rng(17)
    occ = rng.uniform(size=(6, 4)) < 0.4
    grid = UniformGridMap((6, 4), np.array([0.5, 1.5]),
                          np.array([-1.0, 2.0]), occ)
    doc = json.loads(grid_to_json(grid))
    assert doc["order"] == "axis0-fastest"
    assert tuple(doc["dims"]) == grid.dims
    assert np.allclose(doc["cell_size_m"], grid.cell_size)
    assert np.allclose(doc["origin_m"], grid.origin)
    assert np.array_equal(rle_decode(doc["rle_free_first"], doc["dims"]),
                          grid.occupancy)


def test_pgm_text_layout_and_values():
    occ = np.zeros((3, 2), dtype=bool)
    occ[0, 1] = True  # cell at x index 0, top row
    grid = UniformGridMap((3, 2), np.ones(2), np.zeros(2), occ)
    text = grid_to_pgm(grid)
    lines = text.strip().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "3 2"
    assert lines[2] == "255"
    # Rows print top-down, so the j = 1 row comes first.
    assert lines[3] == "255 0 0"
    assert lines[4] == "0 0 0"


def pgm_from_text(text):
    """Parse a P2 raster back into the integer shade array (w, h)."""
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("not a P2 raster")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    vals = np.asarray([int(t) for t in tokens[4:]], dtype=np.int64)
    if vals.size != w * h or maxval != 255:
        raise ValueError("raster payload does not match its header")
    shade = np.empty((w, h), dtype=np.int64)
    for k in range(h):
        shade[:, h - 1 - k] = vals[k * w:(k + 1) * w]
    return shade


def test_pgm_path_overlay_and_round_trip():
    occ = np.zeros((4, 3), dtype=bool)
    occ[2, 2] = True
    grid = UniformGridMap((4, 3), np.ones(2), np.zeros(2), occ)
    text = grid_to_pgm(grid, path_cells=[(0, 0), (1, 1)])
    shade = pgm_from_text(text)
    assert shade.shape == (4, 3)
    assert shade[2, 2] == 255
    assert shade[0, 0] == 128 and shade[1, 1] == 128
    assert shade[3, 0] == 0
    assert set(np.unique(shade)) <= {0, 128, 255}


def test_pgm_rejects_3d():
    occ = np.zeros((2, 2, 2), dtype=bool)
    grid = UniformGridMap((2, 2, 2), np.ones(3), np.zeros(3), occ)
    with pytest.raises(ValueError):
        grid_to_pgm(grid)


def test_pgm_parser_rejects_garbage():
    with pytest.raises(ValueError):
        pgm_from_text("P5\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        pgm_from_text("P2\n2 2\n255\n0 0 0\n")

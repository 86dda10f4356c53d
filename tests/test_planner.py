"""Planner tests: JPS vs Dijkstra and vs a cell-by-cell scan, legality checks,
refinement rounds."""
import heapq
import json
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from octoplan.errors import (InvalidRequest, InvalidSpec, NoPathAtMaxDepth,
                             PointOutOfDomain, StartOrGoalOccupied)
from octoplan.geometry import Aabb, PointCloud
from octoplan.gridmap import UniformGridMap, rasterize_adaptive
import octoplan.planner as planner_mod
from octoplan.planner import (GridPath, PlanRequest, _check_request,
                              _octile, dijkstra_plan,
                              free_components, jps_plan, path_to_json,
                              plan_with_refinement, validate_path)
from octoplan.tree import build, dynamic_partition as real_partition
from test_tree import morton_key

SQRT2 = math.sqrt(2.0)


def empty_grid(w, h):
    return UniformGridMap((w, h), np.ones(2), np.zeros(2),
                          np.zeros((w, h), dtype=bool))


def grid_from_occ(occ):
    occ = np.asarray(occ, dtype=bool)
    return UniformGridMap(occ.shape, np.ones(2), np.zeros(2), occ)


# ------------------------------------------------------------------ basics


def test_open_diagonal_run():
    path = jps_plan(empty_grid(5, 5), PlanRequest((0, 0), (4, 4)))
    assert path is not None
    assert path.cost == pytest.approx(4 * SQRT2)
    assert path.nodes[0] == (0, 0) and path.nodes[-1] == (4, 4)
    validate_path(empty_grid(5, 5), path)


def test_open_cardinal_run():
    path = jps_plan(empty_grid(3, 3), PlanRequest((0, 0), (2, 0)))
    assert path.cost == pytest.approx(2.0)
    assert path.nodes == ((0, 0), (1, 0), (2, 0))


def test_start_equals_goal():
    path = jps_plan(empty_grid(3, 3), PlanRequest((1, 1), (1, 1)))
    assert path.nodes == ((1, 1),) and path.cost == 0.0
    assert path.metric_length(empty_grid(3, 3)) == 0.0


def test_full_wall_disconnects():
    occ = np.zeros((15, 7), dtype=bool)
    occ[7, :] = True
    grid = grid_from_occ(occ)
    req = PlanRequest((0, 3), (14, 3))
    assert jps_plan(grid, req) is None
    assert dijkstra_plan(grid, req) is None


def test_blocked_flank_forces_detour():
    # With (1, 0) occupied the diagonal (0,0) -> (1,1) is illegal, so the
    # planner must go around at cost 2 instead of sqrt(2).
    occ = np.zeros((2, 2), dtype=bool)
    occ[1, 0] = True
    path = jps_plan(grid_from_occ(occ), PlanRequest((0, 0), (1, 1)))
    assert path.cost == pytest.approx(2.0)
    assert path.nodes == ((0, 0), (0, 1), (1, 1))


def test_both_flanks_blocked_disconnects():
    occ = np.zeros((2, 2), dtype=bool)
    occ[1, 0] = True
    occ[0, 1] = True
    assert jps_plan(grid_from_occ(occ), PlanRequest((0, 0), (1, 1))) is None


def test_planner_is_deterministic():
    rng = np.random.default_rng(9)
    occ = rng.uniform(size=(15, 15)) < 0.3
    occ[0, 0] = occ[14, 14] = False
    grid = grid_from_occ(occ)
    req = PlanRequest((0, 0), (14, 14))
    first = jps_plan(grid, req)
    second = jps_plan(grid, req)
    if first is None:
        assert second is None
    else:
        assert first.nodes == second.nodes and first.cost == second.cost


# ------------------------------------------------- cross-check vs Dijkstra


def test_jps_matches_dijkstra_on_random_maps():
    # Non-square shapes catch a flat lookup that swaps the two axes.
    rng = np.random.default_rng(123)
    solved = 0
    shapes = [(20, 20)] * 120 + [(7, 31), (31, 7), (1, 25), (25, 1)] * 30
    for shape in shapes:
        density = float(rng.uniform(0.1, 0.4))
        occ = rng.uniform(size=shape) < density
        grid = grid_from_occ(occ)
        free = np.argwhere(~occ)
        s = tuple(int(v) for v in free[rng.integers(len(free))])
        t = tuple(int(v) for v in free[rng.integers(len(free))])
        req = PlanRequest(s, t)
        fast = jps_plan(grid, req)
        slow = dijkstra_plan(grid, req)
        if fast is None or slow is None:
            assert fast is None and slow is None
        else:
            assert abs(fast.cost - slow.cost) <= 1e-9
            validate_path(grid, fast)
            validate_path(grid, slow)
            solved += 1
    assert solved >= 40


def same_partition(a, b):
    """True when two labelings group the cells of a grid identically."""
    pairs = set(zip(a.ravel().tolist(), b.ravel().tolist()))
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


def diagonal_gap_grid():
    # Columns 3 and 4 are a wall except (3, 3) and (4, 4), which touch only
    # at a corner: without corner cutting the two halves stay apart.
    occ = np.zeros((8, 8), dtype=bool)
    occ[:, 3:5] = True
    occ[3, 3] = occ[4, 4] = False
    return occ


def test_free_components_match_scipy_label():
    rng = np.random.default_rng(7)
    grids = [np.zeros((9, 13), dtype=bool), np.ones((4, 5), dtype=bool),
             np.zeros((1, 1), dtype=bool), diagonal_gap_grid()]
    for shape in [(1, 40), (40, 1), (17, 33), (33, 17), (64, 64),
                  (1, 1, 1), (1, 9, 1), (7, 1, 5), (6, 9, 11), (16, 16, 16)]:
        for density in (0.0, 0.2, 0.4, 0.6, 0.9):
            grids.append(rng.uniform(size=shape) < density)
    for occ in grids:
        labels = free_components(occ)
        assert labels.shape == occ.shape and labels.dtype == np.int32
        assert (labels[occ] == -1).all() and (labels[~occ] >= 0).all()
        # Face connectivity by default: 4 neighbours in 2-D, 6 in 3-D.
        reference, count = ndimage.label(~occ)
        assert same_partition(labels, reference)
        # Each component carries its smallest id of a free run along the
        # last axis, runs numbered in C order.
        starts = ~occ
        starts[..., 1:] &= occ[..., :-1]
        run = np.cumsum(starts).reshape(occ.shape) - 1
        for c in range(1, count + 1):
            assert (labels[reference == c] == run[reference == c].min()).all()

    occ = diagonal_gap_grid()
    labels = free_components(occ)
    assert labels[3, 3] != labels[4, 4]
    assert len(np.unique(labels[~occ])) == 2
    req = PlanRequest((0, 0), (7, 7))
    assert jps_plan(grid_from_occ(occ), req) is None
    assert dijkstra_plan(grid_from_occ(occ), req) is None


# ------------------------------------------ oracle: the cell-by-cell scan


def cell_by_cell_jps_plan(grid, req):
    """Jump point search whose straight scans step one cell at a time: the
    reference that the stop-table scans must match decision for decision."""
    _check_request(grid, req)
    start = (int(req.start[0]), int(req.start[1]))
    goal = (int(req.goal[0]), int(req.goal[1]))
    if start == goal:
        return GridPath((start,), 0.0)
    labels = free_components(grid.occupancy)
    if labels[start] != labels[goal]:
        return None

    w, h = grid.dims
    depth_bits = max(w - 1, h - 1).bit_length()
    # Cell (i, j) is fr[(i + 1) * S + j + 1] in a row-major copy padded with
    # a blocked border, so every neighbour of a grid cell is a valid index
    # and a step along (di, dj) adds di * S + dj.
    S = h + 2
    fr = np.pad(~grid.occupancy, 1).astype(np.uint8).tobytes()

    def flat(cell):
        return (cell[0] + 1) * S + cell[1] + 1

    def cell_of(p):
        i, j = divmod(p, S)
        return (i - 1, j - 1)

    goal_p = flat(goal)

    def step_ok(p, a, b):
        if not fr[p + a + b]:
            return False
        if a and b:
            return fr[p + a] and fr[p + b]
        return True

    def straight(p, d, side):
        """Next jump point from p along the cardinal step d, or None; side
        is the flat step perpendicular to d."""
        while True:
            p += d
            if not fr[p]:
                return None
            if p == goal_p:
                return p
            # Obstacle diagonally behind with an open cell beside it means
            # the perpendicular detour has to pass through this cell.
            if (fr[p + side] and not fr[p + side - d]) or \
               (fr[p - side] and not fr[p - side - d]):
                return p

    def jump(p, a, b):
        """Next jump point from p along (a, b) = (di * S, dj), or None."""
        if not a:
            return straight(p, b, S)
        if not b:
            return straight(p, a, 1)
        d = a + b
        while True:
            if not (fr[p + d] and fr[p + a] and fr[p + b]):
                return None
            p += d
            if p == goal_p:
                return p
            if straight(p, a, 1) is not None or straight(p, b, S) is not None:
                return p

    def directions(p, parent_p):
        if parent_p is None:
            dirs = []
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if (di or dj) and step_ok(p, di * S, dj):
                        dirs.append((di * S, dj))
            return dirs
        i, j = cell_of(p)
        pi, pj = cell_of(parent_p)
        a = ((i > pi) - (i < pi)) * S
        b = (j > pj) - (j < pj)
        dirs = []
        if a and b:
            if step_ok(p, a, 0):
                dirs.append((a, 0))
            if step_ok(p, 0, b):
                dirs.append((0, b))
            if step_ok(p, a, b):
                dirs.append((a, b))
        elif a:
            if step_ok(p, a, 0):
                dirs.append((a, 0))
            for b2 in (-1, 1):
                if fr[p + b2] and not fr[p - a + b2]:
                    dirs.append((0, b2))
                    if step_ok(p, a, b2):
                        dirs.append((a, b2))
        else:
            if step_ok(p, 0, b):
                dirs.append((0, b))
            for a2 in (-S, S):
                if fr[p + a2] and not fr[p + a2 - b]:
                    dirs.append((a2, 0))
                    if step_ok(p, a2, b):
                        dirs.append((a2, b))
        return dirs

    start_p = flat(start)
    g = {start_p: 0.0}
    parent = {start_p: None}
    open_heap = [(_octile(start, goal), 0.0,
                  morton_key(start, depth_bits), start_p)]
    closed = set()
    while open_heap:
        f, neg_g, _, p = heapq.heappop(open_heap)
        if p in closed:
            continue
        closed.add(p)
        if p == goal_p:
            break
        for a, b in directions(p, parent[p]):
            jp = jump(p, a, b)
            if jp is None:
                continue
            seg = (jp - p) // (a + b)
            cost = g[p] + (SQRT2 * seg if a and b else float(seg))
            if jp not in g or cost < g[jp] - 1e-12:
                g[jp] = cost
                parent[jp] = p
                cell = cell_of(jp)
                heapq.heappush(open_heap,
                               (cost + _octile(cell, goal), -cost,
                                morton_key(cell, depth_bits), jp))
    if goal_p not in closed:
        return None

    waypoints = [goal_p]
    while parent[waypoints[-1]] is not None:
        waypoints.append(parent[waypoints[-1]])
    waypoints = [cell_of(p) for p in reversed(waypoints)]
    cells = [start]
    for a, b in zip(waypoints, waypoints[1:]):
        # The cells strictly after a up to b, one step at a time.
        di = (b[0] > a[0]) - (b[0] < a[0])
        dj = (b[1] > a[1]) - (b[1] < a[1])
        i, j = a
        while (i, j) != b:
            i += di
            j += dj
            cells.append((i, j))
    return GridPath(tuple(cells), g[goal_p])


def forced_cells(occ):
    """Free cells where a straight scan in some cardinal direction stops for
    a forced neighbour: an open cell beside it whose cell diagonally behind
    is blocked or off the grid."""
    w, h = occ.shape

    def open_(i, j):
        return 0 <= i < w and 0 <= j < h and not occ[i, j]

    cells = []
    for i in range(w):
        for j in range(h):
            if open_(i, j) and any(
                    open_(i + s * dj, j + s * di)
                    and not open_(i + s * dj - di, j + s * di - dj)
                    for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0))
                    for s in (1, -1)):
                cells.append((i, j))
    return cells


GRID_SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(2, 24), st.integers(2, 24)),
)


@st.composite
def occupancies(draw):
    """A grid drawn toward the scans' edge cases: 1xN and Nx1 grids,
    all-free grids, fully walled rows and columns."""
    w, h = draw(GRID_SHAPES)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.25, 0.4]))
    occ = rng.uniform(size=(w, h)) < density
    for i in draw(st.lists(st.integers(0, w - 1), max_size=2)):
        occ[i, :] = True
    for j in draw(st.lists(st.integers(0, h - 1), max_size=2)):
        occ[:, j] = True
    if occ.all():
        occ[w // 2, h // 2] = False
    return occ


@st.composite
def queries(draw, occ, after=None):
    """A start and a goal on occ, the goal on the start's row, column or
    diagonal, on a forced-neighbour cell, on the start itself or anywhere.
    Given an earlier query after, the start is either its start or a cell
    on the row or column of its goal, so the new query's scans tend to run
    over that goal."""
    free = [tuple(c) for c in np.argwhere(~occ).tolist()]
    if after is None:
        start = draw(st.sampled_from(free))
    else:
        goal = after[1]
        start = draw(st.just(after[0]) | st.sampled_from(
            [c for c in free if goal[0] == c[0] or goal[1] == c[1]]))
    on_line = {
        "row": lambda c: c[0] == start[0],
        "column": lambda c: c[1] == start[1],
        "diagonal": lambda c: abs(c[0] - start[0]) == abs(c[1] - start[1]),
    }
    kind = draw(st.sampled_from(["any", "row", "column", "diagonal",
                                 "forced", "start"]))
    if kind == "start":
        goals = [start]
    elif kind == "forced":
        goals = forced_cells(occ)
    elif kind in on_line:
        goals = [c for c in free if on_line[kind](c)]
    else:
        goals = free
    return start, draw(st.sampled_from(goals or free))


@st.composite
def planning_cases(draw):
    occ = draw(occupancies())
    return (occ, *draw(queries(occ)))


@settings(max_examples=600, deadline=None)
@given(case=planning_cases())
def test_jps_matches_cell_by_cell_oracle(case):
    # Same nodes, same cost, same None: the stop tables may not change a
    # single decision of the search.
    occ, start, goal = case
    grid = grid_from_occ(occ)
    req = PlanRequest(start, goal)
    assert jps_plan(grid, req) == cell_by_cell_jps_plan(grid, req)


@settings(max_examples=200, deadline=None)
@given(occ=occupancies())
def test_scan_hits_match_cell_by_cell_scans(occ):
    # Every byte of every hit table, blocked and border cells included, is
    # the free byte of the stop that a scan stepping one cell at a time
    # from that cell reaches, or 0 when the scan leaves the padded grid.
    free = np.pad(~occ, 1)
    W, S = free.shape
    stops = planner_mod._stop_tables(free)
    hits = planner_mod._scan_hits(free, stops)
    assert [len(t) for t in hits] == [W * S] * 4
    for k, (di, dj) in enumerate(((0, 1), (0, -1), (1, 0), (-1, 0))):
        stop = np.frombuffer(stops[k], dtype=bool)
        stop = stop.reshape(W, S) if k < 2 else stop.reshape(S, W).T
        hit = np.frombuffer(hits[k], dtype=np.uint8).reshape(W, S)
        for i in range(W):
            for j in range(S):
                r, c = i + di, j + dj
                while 0 <= r < W and 0 <= c < S and not stop[r, c]:
                    r, c = r + di, c + dj
                inside = 0 <= r < W and 0 <= c < S
                assert hit[i, j] == (inside and free[r, c]), (k, i, j)


def test_metric_length_keeps_the_array_form_bits():
    # The old form converted the node tuples with np.asarray; the sums
    # over the same array are the same bits.
    rng = np.random.default_rng(5)
    for cell in ([1.0, 1.0], [0.1, 0.3], [1 / 3, 2 / 7], [1e-7, 3e5]):
        grid = UniformGridMap((64, 64), np.array(cell), np.zeros(2),
                              np.zeros((64, 64), dtype=bool))
        for n in (2, 3, 17, 200):
            steps = rng.integers(-1, 2, size=(n - 1, 2))
            nodes = np.vstack([[30, 30], 30 + np.cumsum(steps, axis=0)])
            path = GridPath(tuple(map(tuple, nodes.tolist())), 0.0)
            pts = np.asarray(path.nodes, dtype=float) * grid.cell_size
            hops = np.diff(pts, axis=0)
            old = float(np.sum(np.sqrt((hops ** 2).sum(axis=1))))
            assert path.metric_length(grid) == old


# ------------------------------------------------- the per-map table memo


@st.composite
def query_runs(draw, count):
    """A map and count queries on it, each drawn after the one before."""
    occ = draw(occupancies())
    reqs = [draw(queries(occ))]
    while len(reqs) < count:
        reqs.append(draw(queries(occ, after=reqs[-1])))
    return occ, reqs


def assert_tables_carry_no_goal():
    """The memo's stop tables are exactly those of its own free bytes, and
    its hit tables, once built, exactly those of its free bytes and stop
    tables."""
    memo = planner_mod._map_memo
    shape, _, _, fr, stops, _, _ = memo[:7]
    free = np.frombuffer(fr, dtype=bool).reshape(shape[0] + 2, shape[1] + 2)
    assert stops == planner_mod._stop_tables(free)
    assert memo[7] in (None, planner_mod._scan_hits(free, stops))


@settings(max_examples=300, deadline=None)
@given(a=query_runs(6), b=query_runs(3))
def test_memo_matches_oracle_across_maps(a, b):
    # Three queries on A, three on B, three on A again, with the memo left
    # as each query leaves it.  Later queries scan over earlier goals, and
    # goals fall on forced-neighbour cells that the shared tables already
    # mark.  A goal left in the tables rarely changes a path, only where it
    # splits a diagonal run, so the tables are checked directly as well.
    (occ_a, reqs_a), (occ_b, reqs_b) = a, b
    grid_a, grid_b = grid_from_occ(occ_a), grid_from_occ(occ_b)
    for grid, reqs in ((grid_a, reqs_a[:3]), (grid_b, reqs_b),
                       (grid_a, reqs_a[3:])):
        for start, goal in reqs:
            req = PlanRequest(start, goal)
            assert jps_plan(grid, req) == cell_by_cell_jps_plan(grid, req)
            if planner_mod._map_memo is not None:
                assert_tables_carry_no_goal()


def test_memo_forgets_earlier_goals():
    # The second walk along the diagonal scans row 1 from (1, 1), where the
    # first goal would stop it if it were left in the tables; the diagonal
    # would then cost sqrt(2) + 6 sqrt(2), one ulp above 7 sqrt(2).
    grid = empty_grid(8, 8)
    jps_plan(grid, PlanRequest((0, 0), (1, 7)))
    req = PlanRequest((0, 0), (7, 7))
    path = jps_plan(grid, req)
    assert path.cost == 7 * SQRT2
    assert path == cell_by_cell_jps_plan(grid, req)


@pytest.mark.parametrize("corner", [(0, 0), (1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("offset", [(10, 25), (25, 10)])
def test_diagonal_run_stops_where_it_crosses_the_goals_line(corner, offset):
    # On an open grid, w != h, the diagonal from a corner meets the goal's
    # row or column after min(dx, dy) steps, where one of its two scans
    # reaches the goal; the path turns there, as the cell-by-cell scan's
    # does.  Each corner walks one of the four diagonals, and each offset
    # has the turn found by the row-major or the column-major scan.
    w, h = 31, 43
    start = (corner[0] * (w - 1), corner[1] * (h - 1))
    goal = tuple(s + (o if c == 0 else -o)
                 for s, o, c in zip(start, offset, corner))
    grid, req = empty_grid(w, h), PlanRequest(start, goal)
    path = jps_plan(grid, req)
    assert path == cell_by_cell_jps_plan(grid, req)
    turn = min(offset)
    di, dj = (1 - 2 * c for c in corner)
    assert path.nodes[turn] == (start[0] + turn * di, start[1] + turn * dj)
    assert path.cost == pytest.approx(turn * SQRT2 + abs(offset[0] - offset[1]))


def count_builds(monkeypatch):
    """Reset the memo and count the maps built into it; each build asserts
    that the previous map's tables were dropped first."""
    monkeypatch.setattr(planner_mod, "_map_memo", None)
    builds = []

    def counted(occupancy):
        assert planner_mod._map_memo is None
        builds.append(occupancy.shape)
        return free_components(occupancy)

    monkeypatch.setattr(planner_mod, "free_components", counted)
    return builds


def test_memo_hits_equal_maps_and_misses_changed_ones(monkeypatch):
    builds = count_builds(monkeypatch)
    rng = np.random.default_rng(11)
    occ = rng.uniform(size=(20, 20)) < 0.2
    occ[0, 0] = occ[19, 19] = occ[0, 19] = False
    req = PlanRequest((0, 0), (19, 19))
    jps_plan(grid_from_occ(occ), req)
    jps_plan(grid_from_occ(occ), PlanRequest((0, 19), (19, 19)))
    jps_plan(grid_from_occ(occ.copy()), req)
    assert len(builds) == 1
    changed = occ.copy()
    changed[10, 10] = not changed[10, 10]
    jps_plan(grid_from_occ(changed), req)
    jps_plan(grid_from_occ(occ), req)
    assert len(builds) == 3


def test_memo_misses_in_place_edit():
    grid = empty_grid(10, 10)
    req = PlanRequest((0, 0), (9, 0))
    assert jps_plan(grid, req).cost == 9.0
    grid.occupancy[5, :] = True
    assert jps_plan(grid, req) is None
    grid.occupancy[5, 9] = False
    path = jps_plan(grid, req)
    assert (5, 9) in path.nodes
    assert path == cell_by_cell_jps_plan(grid, req)


def test_memo_keys_on_shape():
    # The (8, 8) and (4, 16) grids have the same bytes; a memo keyed on the
    # bytes alone would search one with the other's tables.
    rng = np.random.default_rng(3)
    occ8 = rng.uniform(size=(8, 8)) < 0.25
    occ4 = occ8.reshape(4, 16).copy()
    assert occ8.tobytes() == occ4.tobytes()
    grids = [grid_from_occ(occ8), grid_from_occ(occ4)]
    for _ in range(3):
        for grid in grids:
            free = np.argwhere(~grid.occupancy)
            for _ in range(4):
                s, t = (tuple(int(v) for v in free[rng.integers(len(free))])
                        for _ in range(2))
                req = PlanRequest(s, t)
                assert jps_plan(grid, req) == cell_by_cell_jps_plan(grid, req)
            assert planner_mod._map_memo[0] == grid.dims


def test_memo_holds_only_the_last_map(monkeypatch):
    builds = count_builds(monkeypatch)
    occ_a = np.zeros((12, 9), dtype=bool)
    occ_b = occ_a.copy()
    occ_b[6, 1:] = True
    req = PlanRequest((0, 0), (11, 8))
    jps_plan(grid_from_occ(occ_a), req)
    labels_a = weakref.ref(planner_mod._map_memo[2])
    jps_plan(grid_from_occ(occ_b), req)
    assert builds == [(12, 9), (12, 9)]
    assert labels_a() is None
    memo = planner_mod._map_memo
    assert memo[:2] == ((12, 9), occ_b.tobytes())
    assert memo[3] == np.pad(~occ_b, 1).tobytes()
    assert_tables_carry_no_goal()


def test_query_on_a_held_map_copies_no_table():
    # The search only reads the memo's tables: a second query on the same
    # map allocates the memo key's one byte per cell, not a copy of the
    # four stop tables (four bytes per padded cell).
    rng = np.random.default_rng(25)
    occ = rng.uniform(size=(512, 512)) < 0.2
    occ[[0, -1], :] = occ[:, [0, -1]] = False
    grid = grid_from_occ(occ)
    assert jps_plan(grid, PlanRequest((0, 0), (511, 0))) is not None
    assert planner_mod._map_memo[7] is not None
    tracemalloc.start()
    try:
        path = jps_plan(grid, PlanRequest((0, 0), (0, 6)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.cost == 6.0
    assert peak < 2 * 514 * 514


# ----------------------------------------------------------- validate_path


def test_validate_accepts_legal_path():
    validate_path(empty_grid(3, 3), GridPath(((0, 0), (1, 1), (2, 1)),
                                             SQRT2 + 1.0))


def test_validate_rejects_teleport_hop():
    with pytest.raises(AssertionError):
        validate_path(empty_grid(4, 4), GridPath(((0, 0), (2, 0)), 2.0))


def test_validate_rejects_occupied_cell():
    occ = np.zeros((3, 3), dtype=bool)
    occ[1, 0] = True
    with pytest.raises(AssertionError):
        validate_path(grid_from_occ(occ), GridPath(((0, 0), (1, 0)), 1.0))


def test_validate_rejects_corner_cut():
    occ = np.zeros((3, 3), dtype=bool)
    occ[1, 0] = True
    with pytest.raises(AssertionError):
        validate_path(grid_from_occ(occ), GridPath(((0, 0), (1, 1)), SQRT2))


def test_validate_rejects_wrong_cost():
    with pytest.raises(AssertionError):
        validate_path(empty_grid(3, 3), GridPath(((0, 0), (1, 0)), 5.0))


# ------------------------------------------------------- request validation


def test_request_out_of_bounds_codes():
    grid = empty_grid(3, 3)
    with pytest.raises(InvalidRequest) as err:
        jps_plan(grid, PlanRequest((-1, 0), (1, 1)))
    assert err.value.code == "start_out_of_bounds"
    with pytest.raises(InvalidRequest) as err:
        jps_plan(grid, PlanRequest((0, 0), (3, 0)))
    assert err.value.code == "goal_out_of_bounds"
    # A cell coordinate that is not an integer is refused by name, and
    # numpy integers, as argwhere gives them, are accepted.
    for req in (PlanRequest((0.5, 0), (7, 7)), PlanRequest((0, 0), (1, "2"))):
        for plan in (jps_plan, dijkstra_plan):
            with pytest.raises(InvalidSpec, match="cell coordinate"):
                plan(grid, req)
    cells = np.argwhere(np.ones((3, 3), dtype=bool))
    path = jps_plan(grid, PlanRequest(tuple(cells[0]), tuple(cells[-1])))
    assert path.nodes[0] == (0, 0) and path.nodes[-1] == (2, 2)
    assert all(type(v) is int for v in path.nodes[0] + path.nodes[-1])


def test_request_occupied_codes():
    occ = np.zeros((3, 3), dtype=bool)
    occ[0, 0] = occ[2, 2] = True
    grid = grid_from_occ(occ)
    with pytest.raises(InvalidRequest) as err:
        jps_plan(grid, PlanRequest((0, 0), (1, 1)))
    assert err.value.code == "start_occupied"
    with pytest.raises(InvalidRequest) as err:
        dijkstra_plan(grid, PlanRequest((1, 1), (2, 2)))
    assert err.value.code == "goal_occupied"


def test_request_rejects_3d_grid():
    grid = UniformGridMap((2, 2, 2), np.ones(3), np.zeros(3),
                          np.zeros((2, 2, 2), dtype=bool))
    with pytest.raises(InvalidRequest) as err:
        jps_plan(grid, PlanRequest((0, 0), (1, 1)))
    assert err.value.code == "map_not_2d"


# -------------------------------------------------------------- refinement


def wall_cloud(spacing, gap_lo=None, gap_hi=None):
    """Points along the vertical line x = 7.9, optionally skipping a y gap."""
    ys = np.arange(spacing / 2, 16.0, spacing)
    if gap_lo is not None:
        ys = ys[(ys < gap_lo) | (ys >= gap_hi)]
    pts = np.column_stack([np.full(ys.shape, 7.9), ys])
    return PointCloud(pts)


def refinement_domain():
    return Aabb(np.zeros(2), np.full(2, 16.0))


def leaf_of(point, domain, depth):
    """The leaf index build gives a one-point cloud at point."""
    return tuple(build(PointCloud(np.array([point])), domain,
                       depth).index[0].tolist())


def test_refinement_opens_subcell_gap():
    # The wall gap [8, 10) is one depth-3 cell wide: at depth 2 the coarse
    # cell [8, 12) still holds wall points, so round 0 fails and the split
    # in round 1 opens the way.
    tree = build(wall_cloud(0.5, gap_lo=8.0, gap_hi=10.0),
                 refinement_domain(), depth=2)
    result = plan_with_refinement(tree, (2.0, 8.0), (14.0, 8.0), max_rounds=2)
    assert result.rounds_used == 1
    assert result.grid.dims == (8, 8)
    validate_path(result.grid, result.path)
    # Both endpoints lie on depth-3 faces; each path end is the leaf that
    # the tree's face table gives a cloud point there.
    assert result.path.nodes[0] == leaf_of((2.0, 8.0),
                                           refinement_domain(), 3) == (1, 4)
    assert result.path.nodes[-1] == leaf_of((14.0, 8.0),
                                            refinement_domain(), 3) == (7, 4)
    assert result.plan_seconds >= 0.0


def test_refinement_round_zero_when_map_already_open():
    tree = build(wall_cloud(0.5, gap_lo=4.0, gap_hi=12.0),
                 refinement_domain(), depth=2)
    result = plan_with_refinement(tree, (2.0, 8.0), (14.0, 8.0), max_rounds=2)
    assert result.rounds_used == 0
    assert result.grid.dims == (4, 4)


def test_refinement_exhausts_on_solid_wall(monkeypatch):
    # Each partition sleeps 0.1 s, so a failure time that counted anything
    # beyond the searches would exceed 0.1 s.
    def slow_partition(tree):
        time.sleep(0.1)
        return real_partition(tree)

    monkeypatch.setattr(planner_mod, "dynamic_partition", slow_partition)
    tree = build(wall_cloud(0.05), refinement_domain(), depth=2)
    with pytest.raises(NoPathAtMaxDepth) as err:
        plan_with_refinement(tree, (2.0, 8.0), (14.0, 8.0), max_rounds=2)
    assert err.value.rounds_attempted == 2
    assert err.value.grid.dims == (16, 16)
    assert err.value.code == "no_path_at_max_depth"
    assert 0.0 < err.value.plan_seconds < 0.1


def test_refinement_reports_occupied_endpoint():
    side = np.arange(0.025, 1.0, 0.05)
    blob = np.array([(x, y) for x in side for y in side])
    tree = build(PointCloud(blob), refinement_domain(), depth=2)
    with pytest.raises(StartOrGoalOccupied) as err:
        plan_with_refinement(tree, (0.5, 0.5), (14.0, 14.0), max_rounds=2)
    assert err.value.rounds_attempted == 2
    assert err.value.code == "start_or_goal_occupied"
    assert err.value.plan_seconds == 0.0


def test_endpoint_on_an_occupied_leafs_face_is_refused():
    # floor((v - origin) / cell) puts p in cell (6, 6), but the face table
    # that placed p as a cloud point puts it in leaf (7, 7).
    p = (0.26249999999999996, 0.26249999999999996)
    domain = Aabb(np.zeros(2), np.full(2, 0.3))
    tree = build(PointCloud(np.array([p])), domain, depth=3)
    assert leaf_of(p, domain, 3) == (7, 7)
    cell = 0.3 / 2 ** 3
    assert (math.floor(p[0] / cell), math.floor(p[1] / cell)) == (6, 6)
    with pytest.raises(StartOrGoalOccupied) as err:
        plan_with_refinement(tree, p, (0.299, 0.001), max_rounds=0)
    assert err.value.rounds_attempted == 0


def test_face_endpoints_that_are_cloud_points_are_refused_at_every_depth():
    # A cloud point on interior faces of a non-dyadic domain, and the same
    # point as the start: every attempted depth places the start in the
    # leaf that holds the point, however the arithmetic rounds.  The goal
    # at the domain's low corner is in free leaf (0, 0).
    rng = np.random.default_rng(7)
    for _ in range(300):
        lo = rng.uniform(-50.0, 50.0, 2)
        domain = Aabb(lo, lo + rng.uniform(0.1, 100.0, 2))
        depth = int(rng.integers(1, 8))
        faces = build(PointCloud(np.empty((0, 2))), domain, depth).boundaries
        k = rng.integers(1, 1 << depth, size=2)
        p = (faces[0, k[0]], faces[1, k[1]])
        tree = build(PointCloud(np.array([p])), domain, depth)
        rounds = int(rng.integers(0, 3))
        with pytest.raises(StartOrGoalOccupied) as err:
            plan_with_refinement(tree, p, domain.min, max_rounds=rounds)
        assert err.value.rounds_attempted == rounds


def same_grid(a, b):
    return (a.dims == b.dims and np.array_equal(a.cell_size, b.cell_size)
            and np.array_equal(a.origin, b.origin)
            and np.array_equal(a.occupancy, b.occupancy))


def test_refinement_leaves_the_callers_tree_as_built(monkeypatch):
    # At depth 1 the start shares the wall's cell and at depth 2 the gap
    # [8, 10) is inside an occupied cell, so the search succeeds only after
    # two refinements.  The tree keeps them, and a second call reuses them.
    cloud = wall_cloud(0.5, gap_lo=8.0, gap_hi=10.0)
    tree = build(cloud, refinement_domain(), depth=1)
    tables = ("boundaries", "codes", "index", "order", "offsets")
    before = {name: getattr(tree, name).copy() for name in tables}
    first = plan_with_refinement(tree, (2.0, 8.0), (14.0, 8.0), max_rounds=2)
    assert first.rounds_used == 2
    assert tree.depth == 1
    for name in tables:
        assert np.array_equal(getattr(tree, name), before[name]), name
    fresh = build(cloud, refinement_domain(), depth=1)
    assert same_grid(rasterize_adaptive(tree), rasterize_adaptive(fresh))
    expected = plan_with_refinement(fresh, (2.0, 8.0), (14.0, 8.0),
                                    max_rounds=2)

    partitions = []
    monkeypatch.setattr(planner_mod, "dynamic_partition", partitions.append)
    again = plan_with_refinement(tree, (2.0, 8.0), (14.0, 8.0), max_rounds=2)
    assert partitions == []
    assert again.path == expected.path == first.path
    assert again.rounds_used == expected.rounds_used == 2
    assert same_grid(again.grid, expected.grid)
    assert tree.finer.finer.depth == 3


def count_rasters(monkeypatch):
    """Depths of the trees planner.rasterize_adaptive rasterizes."""
    depths = []

    def counted(tree):
        depths.append(tree.depth)
        return rasterize_adaptive(tree)

    monkeypatch.setattr(planner_mod, "rasterize_adaptive", counted)
    return depths


def test_queries_on_one_tree_rasterize_it_once(monkeypatch):
    depths = count_rasters(monkeypatch)
    tree = build(wall_cloud(0.5, gap_lo=4.0, gap_hi=12.0),
                 refinement_domain(), depth=3)
    rng = np.random.default_rng(5)
    grids = set()
    for _ in range(20):
        start = rng.uniform([0.0, 0.0], [6.0, 16.0])
        goal = rng.uniform([8.0, 0.0], [16.0, 16.0])
        result = plan_with_refinement(tree, start, goal, max_rounds=2)
        assert result.rounds_used == 0
        grids.add(id(result.grid))
    assert depths == [3]
    assert grids == {id(tree.raster)}


def test_refinement_rasterizes_each_new_depth_once(monkeypatch):
    depths = count_rasters(monkeypatch)
    tree = build(wall_cloud(0.5, gap_lo=8.0, gap_hi=10.0),
                 refinement_domain(), depth=1)
    for _ in range(2):
        result = plan_with_refinement(tree, (2.0, 8.0), (14.0, 8.0),
                                      max_rounds=2)
        assert result.rounds_used == 2
        assert depths == [1, 2, 3]
    assert result.grid is tree.finer.finer.raster


def test_in_place_partition_drops_the_kept_raster():
    tree = build(wall_cloud(0.5, gap_lo=4.0, gap_hi=12.0),
                 refinement_domain(), depth=2)
    assert plan_with_refinement(tree, (2.0, 8.0), (14.0, 8.0)).grid.dims \
        == (4, 4)
    assert tree.raster is not None
    real_partition(tree)
    assert tree.raster is None and tree.finer is None
    result = plan_with_refinement(tree, (2.0, 8.0), (14.0, 8.0))
    assert result.grid.dims == (8, 8)
    assert result.grid is tree.raster


def test_refined_tree_has_its_own_raster():
    tree = build(wall_cloud(0.5, gap_lo=8.0, gap_hi=10.0),
                 refinement_domain(), depth=2)
    plan_with_refinement(tree, (2.0, 8.0), (14.0, 8.0), max_rounds=2)
    finer = planner_mod.refined(tree)
    assert finer.raster is not None and finer.raster is not tree.raster
    assert finer.raster.dims == (8, 8) and tree.raster.dims == (4, 4)


def test_kept_raster_is_read_only():
    tree = build(wall_cloud(0.5, gap_lo=4.0, gap_hi=12.0),
                 refinement_domain(), depth=2)
    result = plan_with_refinement(tree, (2.0, 8.0), (14.0, 8.0))
    with pytest.raises(ValueError):
        result.grid.occupancy[0, 0] = True


def test_refinement_refuses_3d_tree_before_rasterizing(monkeypatch):
    depths = count_rasters(monkeypatch)
    domain = Aabb(np.zeros(3), np.full(3, 16.0))
    tree = build(PointCloud(np.array([[8.0, 8.0, 8.0]])), domain, depth=2)
    with pytest.raises(InvalidRequest) as err:
        plan_with_refinement(tree, (1.0, 1.0, 1.0), (15.0, 15.0, 15.0))
    assert err.value.code == "map_not_2d"
    assert depths == [] and tree.raster is None


def test_refinement_rejects_point_outside_domain():
    tree = build(wall_cloud(0.5), refinement_domain(), depth=2)
    with pytest.raises(PointOutOfDomain):
        plan_with_refinement(tree, (-1.0, 8.0), (14.0, 8.0))


@pytest.mark.parametrize("start, goal, row", [
    ((-1.0, 8.0), (14.0, 8.0), 0),
    ((1.0, 8.0), (14.0, math.nan), 1),
])
def test_refinement_names_the_endpoint_row_before_rasterizing(start, goal,
                                                              row):
    tree = build(wall_cloud(0.5), refinement_domain(), depth=2)
    with pytest.raises(PointOutOfDomain) as err:
        plan_with_refinement(tree, start, goal)
    assert err.value.index == row
    assert tree.raster is None


@pytest.mark.parametrize("start, goal, name", [
    ((1.0, 8.0, 1.0), (14.0, 8.0), "start"),
    ((1.0, 8.0), "ab", "goal"),
    ((1.0,), (14.0, 8.0), "start"),
])
def test_refinement_names_a_malformed_endpoint(start, goal, name):
    tree = build(wall_cloud(0.5), refinement_domain(), depth=2)
    with pytest.raises(InvalidSpec, match=f"^{name} point"):
        plan_with_refinement(tree, start, goal)
    assert tree.raster is None


@pytest.mark.parametrize("rounds", [1.5, "2", -1])
def test_refinement_refuses_a_round_count_that_is_not_a_count(rounds):
    tree = build(wall_cloud(0.5), refinement_domain(), depth=2)
    with pytest.raises(InvalidSpec, match="^max_rounds"):
        plan_with_refinement(tree, (1.0, 8.0), (14.0, 8.0), max_rounds=rounds)
    assert tree.raster is None


# ------------------------------------------------------------------- JSON


def test_path_json_fields():
    grid = UniformGridMap((4, 4), np.array([2.0, 1.0]), np.zeros(2),
                          np.zeros((4, 4), dtype=bool))
    path = GridPath(((0, 0), (1, 1), (2, 1)), SQRT2 + 1.0)
    doc = json.loads(path_to_json(path, grid))
    assert doc["cells"] == [[0, 0], [1, 1], [2, 1]]
    assert doc["cost"] == pytest.approx(SQRT2 + 1.0)
    assert doc["cell_size_m"] == [2.0, 1.0]
    # Cell centers are 2 m apart in x and 1 m in y, so the diagonal hop
    # spans sqrt(5) and the cardinal hop spans 2.
    assert doc["metric_length_m"] == pytest.approx(math.sqrt(5.0) + 2.0)

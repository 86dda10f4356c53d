"""Planner tests: JPS vs Dijkstra, legality checks, refinement rounds."""
import json
import math
import time

import numpy as np
import pytest
from scipy import ndimage

from octoplan.errors import (InvalidRequest, NoPathAtMaxDepth,
                             PointOutOfDomain, StartOrGoalOccupied)
from octoplan.geometry import Aabb, PointCloud
from octoplan.gridmap import UniformGridMap
import octoplan.planner as planner_mod
from octoplan.planner import (GridPath, PlanRequest, dijkstra_plan,
                              free_components, jps_plan, path_to_json,
                              plan_with_refinement, validate_path)
from octoplan.tree import build, dynamic_partition as real_partition

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
    for shape in [(1, 40), (40, 1), (17, 33), (33, 17), (64, 64)]:
        for density in (0.0, 0.2, 0.4, 0.6, 0.9):
            grids.append(rng.uniform(size=shape) < density)
    for occ in grids:
        labels = free_components(occ)
        assert labels.shape == occ.shape
        assert (labels[occ] == -1).all() and (labels[~occ] >= 0).all()
        reference, _ = ndimage.label(~occ)  # 4-connectivity by default
        assert same_partition(labels, reference)

    occ = diagonal_gap_grid()
    labels = free_components(occ)
    assert labels[3, 3] != labels[4, 4]
    assert len(np.unique(labels[~occ])) == 2
    req = PlanRequest((0, 0), (7, 7))
    assert jps_plan(grid_from_occ(occ), req) is None
    assert dijkstra_plan(grid_from_occ(occ), req) is None


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
    assert result.path.nodes[0] == result.grid.index_of((2.0, 8.0))
    assert result.path.nodes[-1] == result.grid.index_of((14.0, 8.0))
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
        real_partition(tree)

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


def test_refinement_rejects_point_outside_domain():
    tree = build(wall_cloud(0.5), refinement_domain(), depth=2)
    with pytest.raises(PointOutOfDomain):
        plan_with_refinement(tree, (-1.0, 8.0), (14.0, 8.0))


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

"""Grid planners: jump point search and a plain Dijkstra reference.

Both use the same 8-connected motion model on 2-D occupancy grids: cardinal
steps cost 1, diagonal steps cost sqrt(2), and a diagonal move is legal only
when both flanking cardinal cells are free (no corner cutting).  Ties in the
open list break toward larger g, then smaller Morton index of the cell, so
runs are fully deterministic.

jps_plan prunes the search to jump points; dijkstra_plan expands everything
and exists to cross-check optimality, so it deliberately shares no pruning
code with the JPS path.
"""
from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidRequest, NoPathAtMaxDepth, PointOutOfDomain,
                     StartOrGoalOccupied, DepthCapExceeded)
from .gridmap import UniformGridMap, rasterize_adaptive
from .tree import OctoTree, dynamic_partition, morton_key

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PlanRequest:
    start: tuple[int, int]
    goal: tuple[int, int]


@dataclass(frozen=True)
class GridPath:
    """A cell-by-cell path: every hop is one of the 8 neighbor moves."""

    nodes: tuple[tuple[int, int], ...]
    cost: float

    def metric_length(self, grid: UniformGridMap) -> float:
        """Geometric length of the polyline through cell centers."""
        if len(self.nodes) < 2:
            return 0.0
        pts = np.asarray(self.nodes, dtype=float) * grid.cell_size
        hops = np.diff(pts, axis=0)
        return float(np.sum(np.sqrt((hops ** 2).sum(axis=1))))


def _check_request(grid: UniformGridMap, req: PlanRequest):
    if grid.dim != 2:
        raise InvalidRequest("map_not_2d", f"planner needs a 2-D grid, got {grid.dim}-D")
    for name, cell in (("start", req.start), ("goal", req.goal)):
        if len(cell) != 2 or not grid.in_bounds(cell):
            raise InvalidRequest(f"{name}_out_of_bounds",
                                 f"{name} cell {cell} outside grid dims {grid.dims}")
    if grid.is_occupied(req.start):
        raise InvalidRequest("start_occupied", f"start cell {req.start} is occupied")
    if grid.is_occupied(req.goal):
        raise InvalidRequest("goal_occupied", f"goal cell {req.goal} is occupied")


def _octile(a, b) -> float:
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    return (dx + dy) + (SQRT2 - 2.0) * min(dx, dy)


def _expand_segment(a, b):
    """Cells strictly after a up to b along a straight or diagonal ray."""
    di = (b[0] > a[0]) - (b[0] < a[0])
    dj = (b[1] > a[1]) - (b[1] < a[1])
    out = []
    i, j = a
    while (i, j) != b:
        i += di
        j += dj
        out.append((i, j))
    return out


def jps_plan(grid: UniformGridMap, req: PlanRequest) -> GridPath | None:
    """Optimal path via jump point search, or None when disconnected."""
    _check_request(grid, req)
    start = (int(req.start[0]), int(req.start[1]))
    goal = (int(req.goal[0]), int(req.goal[1]))
    if start == goal:
        return GridPath((start,), 0.0)

    occ = grid.occupancy
    w, h = grid.dims
    depth_bits = max(w - 1, h - 1).bit_length()

    def free(i, j):
        return 0 <= i < w and 0 <= j < h and not occ[i, j]

    def step_ok(i, j, di, dj):
        if not free(i + di, j + dj):
            return False
        if di and dj:
            return free(i + di, j) and free(i, j + dj)
        return True

    def jump(i, j, di, dj):
        """Next jump point from (i, j) along (di, dj), or None."""
        while True:
            if not step_ok(i, j, di, dj):
                return None
            i, j = i + di, j + dj
            if (i, j) == goal:
                return (i, j)
            if di and dj:
                if jump(i, j, di, 0) is not None or jump(i, j, 0, dj) is not None:
                    return (i, j)
            elif di:
                # Obstacle diagonally behind with an open cell beside it means
                # the vertical detour has to pass through this cell.
                if (free(i, j + 1) and not free(i - di, j + 1)) or \
                   (free(i, j - 1) and not free(i - di, j - 1)):
                    return (i, j)
            else:
                if (free(i + 1, j) and not free(i + 1, j - dj)) or \
                   (free(i - 1, j) and not free(i - 1, j - dj)):
                    return (i, j)

    def directions(node, parent):
        if parent is None:
            dirs = []
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if (di or dj) and step_ok(node[0], node[1], di, dj):
                        dirs.append((di, dj))
            return dirs
        i, j = node
        di = (i > parent[0]) - (i < parent[0])
        dj = (j > parent[1]) - (j < parent[1])
        dirs = []
        if di and dj:
            if step_ok(i, j, di, 0):
                dirs.append((di, 0))
            if step_ok(i, j, 0, dj):
                dirs.append((0, dj))
            if step_ok(i, j, di, dj):
                dirs.append((di, dj))
        elif di:
            if step_ok(i, j, di, 0):
                dirs.append((di, 0))
            for dj2 in (-1, 1):
                if free(i, j + dj2) and not free(i - di, j + dj2):
                    dirs.append((0, dj2))
                    if step_ok(i, j, di, dj2):
                        dirs.append((di, dj2))
        else:
            if step_ok(i, j, 0, dj):
                dirs.append((0, dj))
            for di2 in (-1, 1):
                if free(i + di2, j) and not free(i + di2, j - dj):
                    dirs.append((di2, 0))
                    if step_ok(i, j, di2, dj):
                        dirs.append((di2, dj))
        return dirs

    def morton(cell):
        return morton_key(cell, depth_bits)

    g = {start: 0.0}
    parent = {start: None}
    open_heap = [(_octile(start, goal), 0.0, morton(start), start)]
    closed = set()
    while open_heap:
        f, neg_g, _, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        closed.add(node)
        if node == goal:
            break
        for d in directions(node, parent[node]):
            jp = jump(node[0], node[1], d[0], d[1])
            if jp is None:
                continue
            seg = max(abs(jp[0] - node[0]), abs(jp[1] - node[1]))
            cost = g[node] + (SQRT2 * seg if d[0] and d[1] else float(seg))
            if jp not in g or cost < g[jp] - 1e-12:
                g[jp] = cost
                parent[jp] = node
                heapq.heappush(open_heap,
                               (cost + _octile(jp, goal), -cost, morton(jp), jp))
    if goal not in closed:
        return None

    waypoints = [goal]
    while parent[waypoints[-1]] is not None:
        waypoints.append(parent[waypoints[-1]])
    waypoints.reverse()
    cells = [start]
    for a, b in zip(waypoints, waypoints[1:]):
        cells.extend(_expand_segment(a, b))
    return GridPath(tuple(cells), g[goal])


def dijkstra_plan(grid: UniformGridMap, req: PlanRequest) -> GridPath | None:
    """Uniform-cost search over all free cells; the optimality reference."""
    _check_request(grid, req)
    start = (int(req.start[0]), int(req.start[1]))
    goal = (int(req.goal[0]), int(req.goal[1]))
    if start == goal:
        return GridPath((start,), 0.0)
    occ = grid.occupancy
    w, h = grid.dims

    def free(i, j):
        return 0 <= i < w and 0 <= j < h and not occ[i, j]

    g = {start: 0.0}
    parent = {start: None}
    heap = [(0.0, start)]
    done = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == goal:
            break
        i, j = node
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if not (di or dj):
                    continue
                if not free(i + di, j + dj):
                    continue
                if di and dj and not (free(i + di, j) and free(i, j + dj)):
                    continue
                nxt = (i + di, j + dj)
                nd = dist + (SQRT2 if di and dj else 1.0)
                if nxt not in g or nd < g[nxt] - 1e-12:
                    g[nxt] = nd
                    parent[nxt] = node
                    heapq.heappush(heap, (nd, nxt))
    if goal not in done:
        return None
    cells = [goal]
    while parent[cells[-1]] is not None:
        cells.append(parent[cells[-1]])
    cells.reverse()
    return GridPath(tuple(cells), g[goal])


def validate_path(grid: UniformGridMap, path: GridPath) -> None:
    """Independent legality check; raises AssertionError on any violation."""
    assert len(path.nodes) >= 1, "path must contain at least one cell"
    total = 0.0
    for cell in path.nodes:
        assert grid.in_bounds(cell), f"cell {cell} out of bounds"
        assert not grid.is_occupied(cell), f"cell {cell} is occupied"
    for a, b in zip(path.nodes, path.nodes[1:]):
        di, dj = b[0] - a[0], b[1] - a[1]
        assert max(abs(di), abs(dj)) == 1, f"hop {a}->{b} is not a neighbor move"
        if di and dj:
            assert not grid.is_occupied((a[0] + di, a[1])), \
                f"diagonal {a}->{b} cuts an occupied corner"
            assert not grid.is_occupied((a[0], a[1] + dj)), \
                f"diagonal {a}->{b} cuts an occupied corner"
            total += SQRT2
        else:
            total += 1.0
    assert abs(total - path.cost) <= 1e-9, \
        f"declared cost {path.cost} != step sum {total}"


# ------------------------------------------------------------- refinement


@dataclass
class RefinementResult:
    path: GridPath
    grid: UniformGridMap
    rounds_used: int
    plan_seconds: float


def plan_with_refinement(tree: OctoTree, start_point, goal_point,
                         max_rounds: int = 2) -> RefinementResult:
    """Plan on the tree's occupancy; on failure, split occupied leaves one
    level and retry, up to max_rounds extra depths.

    Refinement deepens the caller's tree in place: after a call that used
    r rounds, tree.depth has grown by r.  Rebuild or copy the tree first to
    keep the original depth.

    Raises StartOrGoalOccupied when every attempted depth left an endpoint
    in an occupied cell, NoPathAtMaxDepth when all attempts failed for lack
    of a route.
    """
    start_point = np.asarray(start_point, dtype=float)
    goal_point = np.asarray(goal_point, dtype=float)
    for name, p in (("start", start_point), ("goal", goal_point)):
        if not tree.domain.contains(p):
            raise PointOutOfDomain(p, tree.domain.min, tree.domain.max)

    elapsed = 0.0
    endpoint_free_somewhere = False
    last_grid = None
    rounds = 0
    for rounds in range(max_rounds + 1):
        grid = rasterize_adaptive(tree)
        last_grid = grid
        s = grid.index_of(start_point)
        t = grid.index_of(goal_point)
        if not grid.is_occupied(s) and not grid.is_occupied(t):
            endpoint_free_somewhere = True
            t0 = time.perf_counter()
            path = jps_plan(grid, PlanRequest(s, t))
            elapsed += time.perf_counter() - t0
            if path is not None:
                return RefinementResult(path, grid, rounds, elapsed)
        if rounds < max_rounds:
            try:
                dynamic_partition(tree)
            except DepthCapExceeded:
                break
    if endpoint_free_somewhere:
        raise NoPathAtMaxDepth(
            f"no route after {rounds} refinement rounds",
            grid=last_grid, rounds_attempted=rounds)
    raise StartOrGoalOccupied(
        "start or goal cell stayed occupied at every attempted depth",
        grid=last_grid, rounds_attempted=rounds)


def path_to_json(path: GridPath, grid: UniformGridMap) -> str:
    doc = {
        "cells": [[int(i), int(j)] for i, j in path.nodes],
        "cost": float(path.cost),
        "cell_size_m": [float(v) for v in grid.cell_size],
        "metric_length_m": path.metric_length(grid),
    }
    return json.dumps(doc, sort_keys=True)

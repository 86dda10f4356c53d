"""Grid planners: jump point search and a plain Dijkstra reference.

Both use the same 8-connected motion model on 2-D occupancy grids: cardinal
steps cost 1, diagonal steps cost sqrt(2), and a diagonal move is legal only
when both flanking cardinal cells are free (no corner cutting).  Ties in the
open list break toward larger g, then smaller Morton index of the cell, so
runs are fully deterministic.

jps_plan prunes the search to jump points; dijkstra_plan expands everything
and exists to cross-check optimality, so it deliberately shares no pruning
code with the JPS path.

Before searching, jps_plan labels the 4-connected free components of the
grid with gridmap.free_components, the same labelling that answers
gridmap.gap_preserved, and returns None at once when start and goal lie in
different ones.
The check is exact: a diagonal step is legal only when both flanking
cardinal cells are free, so it can be replaced by two cardinal steps
through either of them, and 8-connected reachability under this motion
model equals 4-connected reachability.  An impossible query then costs one
labelling pass instead of an exhaustive search.

The search also scans four stop tables, one per cardinal scan direction,
built with numpy from the padded free grid (block-based scanning, after
Harabor & Grastien, ICAPS 2014).  A table marks the cells where a straight
scan in its direction ends on any query: blocked cells and free cells with
a forced neighbour.  East and west tables are row-major, south and north
tables column-major, so each straight scan is one bytes.find or
bytes.rfind, cut short at the goal if the goal lies before its stop.  Four
scan-hit tables, one per direction and all row-major, say for each cell
whether the scan leaving it ends on a free stop, a jump point.  A diagonal
walk returns at the first cell that either hit table of its move marks,
and runs one scan only where it crosses the goal's row (the row scan) or
column (the column scan), the only cells where the goal can end a scan.
Heap tie-break keys come from two lists, one per axis, whose bitwise or is
the cell's Morton key.  Every jump point, heap entry, path and cost is the
same as the cell-by-cell scan gives.

None of these tables depends on the query, so, as in JPS+ (Harabor &
Grastien, ICAPS 2014), they are built once per map and reused: a one-entry
memo holds the int32 component labels, the padded free bytes, the four
stop tables without any goal, the two key lists and the four hit tables.
The hit tables are built on the first query that passes the label check,
so a map whose queries all lie in different components never pays for
them.  The memo's key is the grid's content, the occupancy's shape and
bytes, so an equal raster hits whichever grid object carries it, and an
in-place edit, a refined raster or another map misses.  Only one map is
held: a miss drops the old entry before it builds the new one.  A search
only reads the tables, so a query copies none of them and they never
carry a goal.  The entry takes about 14 bytes per cell: 4 of labels, 4 of
stop tables, 4 of hit tables, 1 of free bytes and 1 of key.

plan_with_refinement keeps each tree's adaptive raster, read-only, as
tree.raster, so a long-lived tree is rasterized once however many queries
it answers.  OctoTree._set_table drops it and tree.coarser starts a view
without one, so an in-place dynamic_partition, a refined() copy or a view
never plans on a stale raster.
"""
from __future__ import annotations

import copy
import heapq
import json
import math
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (InvalidRequest, InvalidSpec, NoPathAtMaxDepth,
                     StartOrGoalOccupied, DepthCapExceeded, require_int)
from .geometry import require_inside
from .gridmap import UniformGridMap, free_components, rasterize_adaptive
from .tree import OctoTree, dynamic_partition, morton_encode

SQRT2 = math.sqrt(2.0)
OCTILE = SQRT2 - 2.0


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
        n = len(self.nodes)
        if n < 2:
            return 0.0
        pts = np.fromiter(chain.from_iterable(self.nodes), dtype=float,
                          count=2 * n).reshape(n, 2) * grid.cell_size
        hops = np.diff(pts, axis=0)
        return float(np.sum(np.sqrt((hops ** 2).sum(axis=1))))


def require_2d(dim: int) -> None:
    """Refuse a map of any dimension but 2, before anything rasterizes it."""
    if dim != 2:
        raise InvalidRequest("map_not_2d", f"planner needs a 2-D grid, got {dim}-D")


def _check_request(grid: UniformGridMap, req: PlanRequest):
    """Start and goal as int tuples, or the error that refuses one."""
    require_2d(grid.dim)
    cells = {name: tuple(require_int(f"{name} cell coordinate", v) for v in cell)
             for name, cell in (("start", req.start), ("goal", req.goal))}
    for name, cell in cells.items():
        if len(cell) != 2 or not grid.in_bounds(cell):
            raise InvalidRequest(f"{name}_out_of_bounds",
                                 f"{name} cell {cell} outside grid dims {grid.dims}")
    for name, cell in cells.items():
        if grid.is_occupied(cell):
            raise InvalidRequest(f"{name}_occupied", f"{name} cell {cell} is occupied")
    return cells.values()


def _octile(a, b) -> float:
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    return (dx + dy) + OCTILE * min(dx, dy)


def _expand_segment(a, b):
    """Cells strictly after a up to b along a straight or diagonal ray."""
    (i, j), (k, l) = a, b
    di = (k > i) - (k < i)
    dj = (l > j) - (l < j)
    return list(zip(range(i + di, k + di, di) if di else [i] * abs(l - j),
                    range(j + dj, l + dj, dj) if dj else [j] * abs(k - i)))


def _stop_tables(free: np.ndarray) -> tuple[bytes, ...]:
    """Stop tables of the east, west, south and north straight scans.

    free is the padded free grid.  A table holds 1 where a scan in its
    direction stops on this map whatever the query: blocked cells, and
    free cells with a forced neighbour, i.e. an open cell beside the scan
    line whose cell diagonally behind is blocked.  East and west tables
    are row-major, south and north column-major, so every scan reads a
    contiguous run of bytes.  The goal is never marked: it bounds a scan.
    """
    w, h = free.shape[0] - 2, free.shape[1] - 2

    def at(di, dj):
        return free[1 + di:w + 1 + di, 1 + dj:h + 1 + dj]

    tables = []
    for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        stop = ~free
        stop[1:-1, 1:-1] |= ((at(dj, di) & ~at(dj - di, di - dj))
                             | (at(-dj, -di) & ~at(-dj - di, -di - dj)))
        tables.append((stop if di == 0 else stop.T).tobytes())
    return tuple(tables)


def _scan_hits(free: np.ndarray, stops: tuple[bytes, ...]) -> tuple[bytes, ...]:
    """Hit tables of the east, west, south and north straight scans.

    free is the padded free grid and stops its _stop_tables.  A table holds,
    row-major for every direction, the free byte of the stop where the scan
    leaving a cell ends (0 past the last stop).  In scan order the stops
    sit at pos, the first and last on the blocked border, so a forward scan
    from [pos[m], pos[m + 1]) ends at pos[m + 1], a backward one from
    (pos[m], pos[m + 1]] at pos[m].
    """
    rows, cols = free.reshape(-1), free.T.reshape(-1)
    tables = []
    for stop, fv, forward in zip(stops, (rows, rows, cols, cols),
                                 (True, False, True, False)):
        pos = np.flatnonzero(np.frombuffer(stop, dtype=bool))
        hit, run = fv[pos], np.diff(pos)
        hit = (np.append(np.repeat(hit[1:], run), False) if forward
               else np.insert(np.repeat(hit[:-1], run), 0, False))
        if fv is cols:
            hit = hit.reshape(free.shape[::-1]).T
        tables.append(hit.tobytes())
    return tuple(tables)


# The memo of _map_tables: None, or one tuple (shape, occupancy bytes,
# labels, padded free bytes, stop tables, key_i, key_j, hit tables),
# replaced whole.  The hit tables are None until _memo_hits builds them.
_map_memo = None


def _map_tables(occupancy: np.ndarray) -> tuple:
    """The query-independent search tables of one map, built on a miss."""
    global _map_memo
    shape, data = occupancy.shape, occupancy.tobytes()
    memo = _map_memo
    if memo is not None and memo[0] == shape and memo[1] == data:
        return memo
    # Drop the old map's tables first, so two maps are never held at once.
    memo = _map_memo = None
    w, h = shape
    labels = free_components(occupancy)
    free = np.pad(~occupancy, 1)
    # Tie-break keys by padded row and column.  The Morton key is separable
    # by axis, so key_i[i + 1] | key_j[j + 1] is the cell's Morton key at
    # depth max(w - 1, h - 1).bit_length() (the interleave of morton_encode),
    # and bit b of axis 1 sits one place above bit b of axis 0.
    axis = np.arange(max(w, h))
    keys = morton_encode(np.column_stack([axis, np.zeros_like(axis)]),
                         max(w - 1, h - 1).bit_length())
    _map_memo = (shape, data, labels, free.tobytes(),
                 _stop_tables(free), [0] + keys.tolist(),
                 [0] + (keys << 1).tolist(), None)
    return _map_memo


def _memo_hits(memo: tuple) -> tuple[bytes, ...]:
    """The hit tables of memo, the current _map_memo, built into it on the
    first call."""
    global _map_memo
    if memo[7] is None:
        w, h = memo[0]
        free = np.frombuffer(memo[3], dtype=bool).reshape(w + 2, h + 2)
        memo = _map_memo = memo[:7] + (_scan_hits(free, memo[4]),)
    return memo[7]


def release_map_tables() -> None:
    """Drop the _map_tables memo, so the last map's tables do not outlive
    the caller's searches on it."""
    global _map_memo
    _map_memo = None


def jps_plan(grid: UniformGridMap, req: PlanRequest) -> GridPath | None:
    """Optimal path via jump point search, or None when disconnected."""
    start, goal = _check_request(grid, req)
    if start == goal:
        return GridPath((start,), 0.0)
    memo = _map_tables(grid.occupancy)
    _, _, labels, fr, stops, key_i, key_j, _ = memo
    if labels[start] != labels[goal]:
        return None
    hit_e, hit_w, hit_s, hit_n = _memo_hits(memo)

    w, h = grid.dims
    # Cell (i, j) is fr[(i + 1) * S + j + 1] in a row-major copy padded with
    # a blocked border, so every neighbour of a grid cell is a valid index
    # and a step along (di, dj) adds di * S + dj.  The column-major tables
    # put the same cell at (j + 1) * W + i + 1, where the step adds
    # dj * W + di.
    S, W = h + 2, w + 2
    gi, gj = goal[0] + 1, goal[1] + 1
    goal_p, goal_q = gi * S + gj, gj * W + gi
    east, west, south, north = stops

    def jump(p, a, b):
        """Next jump point from p along (a, b) = (di * S, dj), or None.

        A straight scan ends on the first stop cell past p, a jump point
        when it is free, or on the goal if it lies strictly between; the
        blocked border keeps it in its row or column.  A diagonal walk ends
        at the first cell either of its hit tables marks, or where it
        crosses the goal's row (x_row) or column (x_col) and the one scan
        along that line reaches the goal."""
        if not a:
            r = east.find(1, p + 1) if b > 0 else west.rfind(1, 0, p)
            if p < goal_p < r or r < goal_p < p:
                return goal_p
            return r if fr[r] else None
        i, j = divmod(p, S)
        if not b:
            q = j * W + i
            r = south.find(1, q + 1) if a > 0 else north.rfind(1, 0, q)
            if q < goal_q < r or r < goal_q < q:
                return goal_p
            r = p + (r - q) * S
            return r if fr[r] else None
        d = a + b
        hit_row = hit_e if b > 0 else hit_w
        hit_col = hit_s if a > 0 else hit_n
        k = gi - i if a > 0 else i - gi
        x_row = p + k * d if k > 0 else -1
        k = (gj - j) * b
        x_col = p + k * d if k > 0 else -1
        while fr[p + d] and fr[p + a] and fr[p + b]:
            p += d
            if (hit_row[p] or hit_col[p]
                    or p == x_row and (p == goal_p or jump(p, 0, b))
                    or p == x_col and jump(p, a, 0)):
                return p
        return None

    # Directions worth a jump from p.  A direction whose first step is
    # illegal needs no check here: jump returns None on it at once.
    def directions(p, parent_p):
        if parent_p is None:
            return [(di * S, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                    if di or dj]
        i, j = divmod(p, S)
        pi, pj = divmod(parent_p, S)
        a = ((i > pi) - (i < pi)) * S
        b = (j > pj) - (j < pj)
        if a and b:
            return (a, 0), (0, b), (a, b)
        # Straight move m: a free neighbour e across the line is forced
        # when the cell behind it, p + e - m, is blocked.
        m, dirs = a + b, [(a, b)]
        for ea, eb in ((0, -1), (0, 1)) if a else ((-S, 0), (S, 0)):
            if fr[p + ea + eb] and not fr[p + ea + eb - m]:
                dirs += (ea, eb), (a + ea, b + eb)
        return dirs

    start_p = (start[0] + 1) * S + start[1] + 1
    g = {start_p: 0.0}
    parent = {start_p: None}
    open_heap = [(_octile(start, goal), 0.0,
                  key_i[start[0] + 1] | key_j[start[1] + 1], start_p)]
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
                # The octile distance to the goal, as _octile computes it.
                i, j = divmod(jp, S)
                dx, dy = abs(i - gi), abs(j - gj)
                heapq.heappush(open_heap, (
                    cost + ((dx + dy) + OCTILE * (dx if dx <= dy else dy)),
                    -cost, key_i[i] | key_j[j], jp))
    if goal_p not in closed:
        return None

    waypoints = [goal_p]
    while parent[waypoints[-1]] is not None:
        waypoints.append(parent[waypoints[-1]])
    waypoints = [(p // S - 1, p % S - 1) for p in reversed(waypoints)]
    cells = [start]
    for a, b in zip(waypoints, waypoints[1:]):
        cells.extend(_expand_segment(a, b))
    return GridPath(tuple(cells), g[goal_p])


def dijkstra_plan(grid: UniformGridMap, req: PlanRequest) -> GridPath | None:
    """Uniform-cost search over all free cells; the optimality reference."""
    start, goal = _check_request(grid, req)
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


def refined(tree: OctoTree) -> OctoTree:
    """The tree one level deeper: tree.finer when set, as it is on a
    tree.coarser view, whose finer is the tree it was taken from.  Else a
    partition of a shallow copy, which equals a fresh build and writes into
    no array of tree, kept as tree.finer, so every holder of tree shares
    it."""
    if tree.finer is None:
        tree.finer = dynamic_partition(copy.copy(tree))
    return tree.finer


def plan_with_refinement(tree: OctoTree, start_point, goal_point,
                         max_rounds: int = 2) -> RefinementResult:
    """Plan on the tree's occupancy; on failure, split occupied leaves one
    level and retry, up to max_rounds extra depths.

    Each retry plans on refined(tree), so the caller's tree stays as built
    and keeps the deeper trees as its finer chain for later calls; each
    tree searched keeps its read-only raster as tree.raster.  A tree that
    is not 2-D (InvalidRequest), an endpoint that is not 2 numbers
    (InvalidSpec naming it) or one outside the domain's closed box or NaN
    (PointOutOfDomain, row 0 start, row 1 goal) is refused first.  Each
    depth places the endpoints by OctoTree.axis_cells, build's cloud rule.

    Raises StartOrGoalOccupied when every attempted depth left an endpoint
    in an occupied cell, NoPathAtMaxDepth when all attempts failed for lack
    of a route.  Both carry plan_seconds, the search time summed over the
    attempted depths exactly as RefinementResult.plan_seconds is; rasterize
    and partition time is left out of it either way.
    """
    require_int("max_rounds", max_rounds, 0)
    require_2d(tree.dim)
    ends = []
    for name, p in (("start", start_point), ("goal", goal_point)):
        try:
            ends.append(np.asarray(p, dtype=float))
        except (TypeError, ValueError):
            raise InvalidSpec(f"{name} point is not numeric: {p!r}") from None
        if ends[-1].shape != (2,):
            raise InvalidSpec(f"{name} point must have 2 coordinates: {p!r}")
    require_inside(np.array(ends), tree.domain)

    elapsed = 0.0
    endpoint_free_somewhere = False
    for rounds in range(max_rounds + 1):
        grid = tree.raster
        if grid is None:
            grid = tree.raster = rasterize_adaptive(tree)
            grid.occupancy.flags.writeable = False
        s, t = zip(*(tree.axis_cells(a, v).tolist() for a, v in enumerate(zip(*ends))))
        if not grid.is_occupied(s) and not grid.is_occupied(t):
            endpoint_free_somewhere = True
            t0 = time.perf_counter()
            path = jps_plan(grid, PlanRequest(s, t))
            elapsed += time.perf_counter() - t0
            if path is not None:
                return RefinementResult(path, grid, rounds, elapsed)
        if rounds < max_rounds:
            try:
                tree = refined(tree)
            except DepthCapExceeded:
                break
    if endpoint_free_somewhere:
        raise NoPathAtMaxDepth(
            f"no route after {rounds} refinement rounds",
            grid=grid, rounds_attempted=rounds, plan_seconds=elapsed)
    raise StartOrGoalOccupied(
        "start or goal cell stayed occupied at every attempted depth",
        grid=grid, rounds_attempted=rounds, plan_seconds=elapsed)


def path_to_json(path: GridPath, grid: UniformGridMap) -> str:
    doc = {
        "cells": [[int(i), int(j)] for i, j in path.nodes],
        "cost": float(path.cost),
        "cell_size_m": [float(v) for v in grid.cell_size],
        "metric_length_m": path.metric_length(grid),
    }
    return json.dumps(doc, sort_keys=True)

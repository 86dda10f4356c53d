"""Uniform occupancy grids rasterized from clouds or subdivision trees.

A fixed cell is the half-open box [origin + i*cell, origin + (i+1)*cell) per
axis, far faces closed so the domain's maximal corner stays representable,
occupied iff a point falls in it; UniformGridMap.axis_cells places cloud
and plan endpoints alike.  An adaptive cell is a leaf slot (tree.index),
occupied iff the leaf holds a point; OctoTree.axis_cells places a point in it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .geometry import Aabb, PointCloud, require_inside
from .tree import OctoTree

# Largest dense grid either rasterizer allocates: 2^28 cells is 256 MiB of
# occupancy, a 16384^2 or 512^3 map.
MAX_RASTER_CELLS = 1 << 28


@dataclass
class UniformGridMap:
    dims: tuple[int, ...]
    cell_size: np.ndarray
    origin: np.ndarray
    occupancy: np.ndarray

    def __post_init__(self):
        self.cell_size = np.asarray(self.cell_size, dtype=float)
        self.origin = np.asarray(self.origin, dtype=float)
        self.occupancy = np.asarray(self.occupancy, dtype=bool)
        if self.occupancy.shape != tuple(self.dims):
            raise InvalidSpec(
                f"occupancy shape {self.occupancy.shape} != dims {self.dims}")

    @property
    def dim(self) -> int:
        return len(self.dims)

    @property
    def extent_max(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.cell_size

    def axis_cells(self, axis: int, coords) -> np.ndarray:
        """Cells of in-domain coords on one axis, last on the far face: the
        rule of rasterize_fixed.  Adaptive raster cells come from the tree."""
        idx = np.floor((coords - self.origin[axis]) / self.cell_size[axis])
        idx = idx.astype(np.int64)
        np.minimum(idx, self.dims[axis] - 1, out=idx)
        return idx

    def cell_center(self, idx) -> np.ndarray:
        return self.origin + (np.asarray(idx, dtype=float) + 0.5) * self.cell_size

    def in_bounds(self, idx) -> bool:
        return all(0 <= i < n for i, n in zip(idx, self.dims))

    def is_occupied(self, idx) -> bool:
        return bool(self.occupancy[tuple(idx)])

    @property
    def occupied_count(self) -> int:
        return int(self.occupancy.sum())


def _dense_grid(dims: tuple[int, ...]) -> np.ndarray:
    """All-free occupancy array, refused before allocation when it would
    exceed MAX_RASTER_CELLS."""
    cells = math.prod(dims)
    if cells > MAX_RASTER_CELLS:
        raise InvalidSpec(
            f"grid {'x'.join(map(str, dims))} has {cells} cells, over the "
            f"{MAX_RASTER_CELLS}-cell raster budget")
    return np.zeros(dims, dtype=bool)


def _per_axis_cells(cell_size, dim: int) -> np.ndarray:
    c = np.asarray(cell_size, dtype=float).ravel()
    if c.size == 1:
        c = np.full(dim, c[0])
    if c.shape != (dim,) or not np.all(np.isfinite(c) & (c > 0)):
        raise InvalidSpec(f"cell size must be one or {dim} positive finite"
                          f" values, got {cell_size}")
    return c


def rasterize_fixed(cloud: PointCloud, domain: Aabb, cell_size) -> UniformGridMap:
    """Independent uniform rasterization of a cloud.

    cell_size may be a scalar or one value per axis; dims are the ceiling of
    domain edge / cell, so the grid covers the whole domain.
    """
    cell = _per_axis_cells(cell_size, domain.dim)
    # A count over the float range is inf, clamped for the raster budget.
    with np.errstate(over="ignore"):
        dims = tuple(max(1, math.ceil(min(e / c, 2.0 ** 62)))
                     for e, c in zip(domain.edges, cell))
    grid = UniformGridMap(dims, cell, domain.min.copy(), _dense_grid(dims))
    pts = cloud.points
    require_inside(pts, domain)
    # One pass per axis column accumulates the row-major flat index.
    flat = np.zeros(len(pts), dtype=np.int64)
    for a, n in enumerate(dims):
        flat *= n
        flat += grid.axis_cells(a, pts[:, a])
    grid.occupancy.reshape(-1)[flat] = True
    return grid


def rasterize_adaptive(tree: OctoTree) -> UniformGridMap:
    """Depth-level occupancy of the tree: one cell per leaf slot, occupied
    iff that leaf holds at least one point."""
    dims = (1 << tree.depth,) * tree.dim
    cell = tree.domain.edges / float(1 << tree.depth)
    occ = _dense_grid(dims)
    occ[tuple(tree.index.T)] = True
    return UniformGridMap(dims, cell, tree.domain.min.copy(), occ)


def free_components(occupancy) -> np.ndarray:
    """Label the face-connected free components of an occupancy grid of any
    dimension (4-connected in 2-D, 6-connected in 3-D).

    Returns an int32 array shaped like the grid: -1 on occupied cells, and
    on free cells the id of the cell's component (the smallest run id in
    it).  The free runs along the last axis are the nodes of a union-find
    (He, Chao & Suzuki, IEEE TIP 17(5), 2008); along every other axis, a
    run is joined with each run one step on that it touches.  int32 holds
    the run ids of any grid under 2^31 cells, far above the 2^28-cell
    raster budget.
    """
    free = ~np.asarray(occupancy, dtype=bool)
    starts = free.copy()
    starts[..., 1:] &= ~free[..., :-1]
    run = np.cumsum(starts, axis=None, dtype=np.int32).reshape(free.shape) - 1
    parent = list(range(int(starts.sum())))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for axis in range(free.ndim - 1):
        lower = (slice(None),) * axis + (slice(None, -1),)
        upper = (slice(None),) * axis + (slice(1, None),)
        # Two runs one step apart overlap in one interval, so the first
        # cell of each overlap gives every touching pair exactly once.
        touch = free[lower] & free[upper]
        first = touch.copy()
        first[..., 1:] &= ~touch[..., :-1]
        for a, b in zip(run[lower][first].tolist(), run[upper][first].tolist()):
            ra, rb = find(a), find(b)
            if ra < rb:
                parent[rb] = ra
            elif rb < ra:
                parent[ra] = rb
    # Roots are the smallest run of their set, so parent[x] <= x and one
    # ascending pass points every run at its root.
    for x in range(len(parent)):
        parent[x] = parent[parent[x]]
    roots = np.asarray(parent, dtype=np.int32)
    return np.where(free, roots[run] if len(parent) else run, -1)


def gap_preserved(grid: UniformGridMap, corridor: Aabb) -> bool:
    """True when a connected run of free cells crosses the corridor from its
    low end to its high end along the corridor's longest axis.

    Only cells whose interior overlaps the corridor take part, so the run
    really passes through the gap rather than around it.  Whether a cell
    overlaps, may start the run or may end it each depends on its index
    one axis at a time.  Both faces of a cell grow with its index, so the
    overlapping indices of an axis are one interval, and the run exists
    exactly when a start cell and an end cell share a free_components
    label in the box of those intervals.
    """
    lo = np.maximum(corridor.min, grid.origin)
    hi = np.minimum(corridor.max, grid.extent_max)
    if np.any(hi - lo <= 0):
        return False
    long_axis = int(np.argmax(hi - lo))
    top = np.asarray(grid.dims) - 1
    first = np.floor((lo - grid.origin) / grid.cell_size).astype(np.int64)
    last = np.ceil((hi - grid.origin) / grid.cell_size).astype(np.int64) - 1
    first, last = np.clip(first, 0, top), np.clip(last, 0, top)

    box, seed, target = [], [], []
    for a, n in enumerate(grid.dims):
        idx = np.arange(n)
        cs = grid.origin[a] + idx * grid.cell_size[a]
        ce = cs + grid.cell_size[a]
        o = np.minimum(ce, hi[a]) - np.maximum(cs, lo[a]) > 0
        s = o & (first[a] <= idx) & (idx <= last[a])
        t = o
        if a == long_axis:
            s &= (cs <= lo[a]) & (lo[a] < ce)
            t = o & (cs < hi[a]) & (hi[a] <= ce)
        if not (s.any() and t.any()):
            return False
        k = np.flatnonzero(o)
        box.append(slice(k[0], k[-1] + 1))
        seed.append(s[box[-1]])
        target.append(t[box[-1]])

    labels = free_components(grid.occupancy[tuple(box)])
    seeds = labels[np.ix_(*seed)]
    return np.intersect1d(seeds[seeds >= 0], labels[np.ix_(*target)]).size > 0


# ---------------------------------------------------------------- export


def rle_encode(occupancy: np.ndarray) -> list[int]:
    """Run lengths over the axis-0-fastest flattening, free run first (a
    leading 0 is emitted when the first cell is occupied)."""
    flat = occupancy.flatten(order="F")
    if flat.size == 0:
        return []
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.r_[0, changes, flat.size]
    runs = np.diff(bounds).tolist()
    if bool(flat[0]):
        runs.insert(0, 0)
    return runs


def grid_to_json(grid: UniformGridMap) -> str:
    doc = {
        "dims": [int(v) for v in grid.dims],
        "cell_size_m": [float(v) for v in grid.cell_size],
        "origin_m": [float(v) for v in grid.origin],
        "order": "axis0-fastest",
        "rle_free_first": rle_encode(grid.occupancy),
    }
    return json.dumps(doc, sort_keys=True)


def grid_to_pgm(grid: UniformGridMap, path_cells=None) -> str:
    """P2 raster for 2-D grids: 0 = free, 255 = occupied, 128 = path cell.
    Text row k is the j = dims[1]-1-k row of the map, so +y points up."""
    if grid.dim != 2:
        raise InvalidSpec("PGM export is only defined for 2-D grids")
    w, h = grid.dims
    shade = np.where(grid.occupancy, 255, 0).astype(np.int64)
    if path_cells is not None:
        for idx in path_cells:
            shade[tuple(idx)] = 128
    lines = ["P2", f"{w} {h}", "255"]
    for j in range(h - 1, -1, -1):
        lines.append(" ".join(str(int(v)) for v in shade[:, j]))
    return "\n".join(lines) + "\n"


"""Adaptive 2^d-ary spatial subdivision tree over a fixed domain box.

The tree is a linear quadtree/octree (Gargantini, CACM 1982): one table of
occupied leaves sorted by Morton code, inner nodes implicit as code
prefixes.  A leaf row holds its code, its grid index and a slice of one
permutation of the point ids (ascending within a leaf after build and
dynamic_partition; a coarser view keeps its deeper tree's order).
OctoTree._set_table writes the table; occupied_leaves reads it and computes
each leaf's tight box, which no other caller needs.  A shallower table is a
prefix of a deeper one, so coarser takes it from the deeper sort.

Every axis is halved at mid = 0.5 * (lo + hi); a point on a midpoint goes to
the upper half, and the domain's maximal faces are closed.  The rule treats
each axis alone, so the cell faces at depth D are one table per axis of
2^D + 1 non-decreasing boundaries (_boundaries).  OctoTree.axis_cells places a
point by a binary search in it, a leaf's split box is the two entries around
its index, and dynamic_partition splits at entry 2 * index + 1 of the
depth D + 1 table: the cells the per-level comparisons (upper iff p >= mid) reach.

build walks the cloud in blocks of BLOCK_POINTS = 2^13 points, placing and
encoding each block into preallocated index columns and codes.  A block's
temporaries (64 KiB of int64 index per axis, 32 KiB of code) then stay in
L2 and under malloc's initial 128 KiB mmap threshold, so a build neither
streams whole-cloud temporaries through memory nor takes fresh pages that
depend on what an earlier build freed.  morton_encode gathers codes with
three in-place ufuncs per bit and axis, in an unsigned 32-bit accumulator
up to 32 code bits (depth * d) and in int64 past that, since the narrow
accumulator halves the bytes each ufunc streams.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthCapExceeded, InvalidSpec, require_int, require_real
from .geometry import Aabb, PointCloud, require_inside

# Bounds every boundary table at 2^16 + 1 entries per axis and keeps codes
# (depth * dim bits, dim <= 3) well inside int64.
DEFAULT_DEPTH_CAP = 16

# Points per block of build; the module docstring says why.
BLOCK_POINTS = 1 << 13


@dataclass(frozen=True)
class McrSpec:
    """Smallest controllable region: an infinity-norm ball of radius
    epsilon_max, giving a box of edge 2 * epsilon_max, padded by a safety
    factor k > 1 when choosing tree depth."""

    epsilon_max: float
    k: float = 2.0

    def __post_init__(self):
        for name in ("epsilon_max", "k"):
            object.__setattr__(self, name,
                               require_real(name, getattr(self, name)))
        if not (math.isfinite(self.epsilon_max) and self.epsilon_max > 0):
            raise InvalidSpec(f"epsilon_max must be positive, got {self.epsilon_max}")
        if not (math.isfinite(self.k) and self.k > 1.0):
            raise InvalidSpec(f"safety factor k must exceed 1, got {self.k}")

    @property
    def edge(self) -> float:
        return 2.0 * self.epsilon_max


def compute_depth(longest_edge: float, cell_edge: float) -> int:
    """Smallest depth whose cells along the longest domain edge are no
    coarser than cell_edge: minimal D with 2^D >= L / cell_edge, clamped to
    [0, DEFAULT_DEPTH_CAP].  For a controllable region the cell edge is
    mcr.k * mcr.edge."""
    for name, value in (("domain", longest_edge), ("cell", cell_edge)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidSpec(f"{name} edge must be positive, got {value}")
    ratio = longest_edge / cell_edge
    # 2.0 ** depth is exact, and a ratio that overflowed to inf gets the cap.
    for depth in range(DEFAULT_DEPTH_CAP):
        if 2.0 ** depth >= ratio:
            return depth
    return DEFAULT_DEPTH_CAP


def _boundaries(domain: Aabb, depth: int) -> np.ndarray:
    """Cell faces of a depth-level tree, one row of 2^depth + 1 per axis:
    entry k of row a is the lower face of the cells with index k on axis a.
    Each level keeps the previous faces and adds 0.5 * (lo + hi) between
    every adjacent pair."""
    faces = np.column_stack([domain.min, domain.max])
    # Under half the float range lo + hi is finite, so no row decreases.
    if np.abs(faces).max() > np.finfo(float).max / 2:
        raise InvalidSpec("domain midpoints overflow float64")
    for _ in range(depth):
        finer = np.empty((faces.shape[0], 2 * faces.shape[1] - 1))
        finer[:, 0::2] = faces
        finer[:, 1::2] = 0.5 * (faces[:, :-1] + faces[:, 1:])
        faces = finer
    return faces


@dataclass(frozen=True)
class LeafRecord:
    """Snapshot of one occupied leaf: grid index, split box (the boundary
    table entries around the index), tight box and point ids.  No array is
    shared with the tree, so a later partition never reaches a record
    already read."""

    index: tuple[int, ...]
    split_boundary: Aabb
    node_boundary: Aabb
    point_ids: np.ndarray

    @property
    def point_count(self) -> int:
        return len(self.point_ids)


class OctoTree:
    """2^d-ary tree of fixed scalar depth over a domain box, stored as a
    Morton-sorted table of occupied leaves.

    Leaf k has code codes[k] and grid index index[k] and owns the point ids
    order[offsets[k]:offsets[k + 1]].  boundaries[a] holds the cell faces on
    axis a (_boundaries).  finer is None or the tree one level deeper: the
    tree a coarser view was taken from, or the partition planner.refined
    made from this one.  raster is None or the read-only adaptive raster
    that planner.plan_with_refinement made of this table; the tree keeps
    both until _set_table writes a new table.
    """

    def __init__(self, domain: Aabb, depth: int):
        depth = require_int("depth", depth, 0)
        if depth > DEFAULT_DEPTH_CAP:
            raise DepthCapExceeded(
                f"depth {depth} exceeds cap {DEFAULT_DEPTH_CAP}")
        if np.any(domain.edges <= 0):
            raise InvalidSpec("domain must have positive extent on every axis")
        self.domain = domain
        self.depth = depth
        self.dim = domain.dim
        self.boundaries = _boundaries(domain, depth)
        self._points = np.empty((0, self.dim))
        self._points.flags.writeable = False
        none = np.empty(0, dtype=np.int64)
        self._set_table(none, none, none, np.empty((0, self.dim), np.int64))

    def _set_table(self, sorted_codes: np.ndarray, order: np.ndarray,
                   starts: np.ndarray, index: np.ndarray) -> None:
        """Group point ids sorted by leaf code into the leaf table: leaf k
        starts at row starts[k] of order and has grid index index[k]."""
        self.codes = sorted_codes[starts]
        self.index = index
        self.order = order
        self.offsets = np.r_[starts, len(order)].astype(np.int64)
        self.finer = None
        self.raster = None

    def axis_cells(self, axis: int, coords) -> np.ndarray:
        """Cells of coords on one axis: upper on a face, last on the far face."""
        return np.searchsorted(self.boundaries[axis, 1:-1], coords, side="right")

    def points_array(self) -> np.ndarray:
        """The build's points, input order, as one read-only (n, d) array."""
        return self._points

    @property
    def leaves(self) -> list[LeafRecord]:
        """Occupied leaves in Morton order, as occupied_leaves records."""
        return occupied_leaves(self)


def _run_starts(sorted_codes: np.ndarray) -> np.ndarray:
    # A run opens at the first code and at each code unlike the one before.
    # A bool flag per code, not an int64 diff, keeps build's peak 8 B per
    # point lower.
    new = np.ones(len(sorted_codes), dtype=bool)
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=new[1:])
    return np.flatnonzero(new)


def build(cloud: PointCloud, domain: Aabb, depth: int) -> OctoTree:
    """Build a tree from a whole cloud at once: block by block, a binary
    search per axis in the boundary table and the Morton interleave, then
    one stable sort by leaf code.  The tree keeps its own read-only copy of
    the points."""
    tree = OctoTree(domain, depth)
    pts = np.array(cloud.points, dtype=float)
    require_inside(pts, domain)
    pts.flags.writeable = False
    tree._points = pts
    n, d = pts.shape
    index = np.empty((d, n), dtype=np.int64)
    codes = np.empty(n, dtype=np.int64)
    for lo in range(0, n, BLOCK_POINTS):
        block = slice(lo, lo + BLOCK_POINTS)
        for a in range(d):
            index[a, block] = tree.axis_cells(a, pts[block, a])
        codes[block] = morton_encode(index[:, block].T, depth)
    order = np.argsort(codes, kind="stable")
    codes = codes.take(order)
    starts = _run_starts(codes)
    tree._set_table(codes, order, starts, index.T[order[starts]])
    return tree


def coarser(tree: OctoTree) -> OctoTree:
    """The tree one level shallower, as a view of tree's sort: a leaf is a
    run of tree's leaves whose codes agree but for the last dim bits, and
    its index is theirs halved.  Codes, index, offsets and boundaries equal
    a fresh build's; within a leaf the point ids keep tree's order, not
    input order.  The view shares tree's points and order; its finer is
    tree."""
    if tree.depth == 0:
        raise InvalidSpec("a depth-0 tree has no coarser level")
    codes = tree.codes >> tree.dim
    starts = _run_starts(codes)
    view = copy.copy(tree)
    view.depth = tree.depth - 1
    view.boundaries = tree.boundaries[:, ::2]
    view.codes = codes[starts]
    view.index = tree.index[starts] >> 1
    view.offsets = tree.offsets[np.r_[starts, len(tree.codes)]]
    view.finer = tree
    view.raster = None
    return view


def dynamic_partition(tree: OctoTree) -> OctoTree:
    """Deepen the tree by one level in place: each leaf's segment of point
    ids is stably re-sorted on one more group of code bits, giving the table
    a fresh build at depth + 1 would give."""
    new_depth = tree.depth + 1
    if new_depth > DEFAULT_DEPTH_CAP:
        raise DepthCapExceeded(
            f"partition to depth {new_depth} exceeds cap {DEFAULT_DEPTH_CAP}")
    faces = _boundaries(tree.domain, new_depth)
    counts = np.diff(tree.offsets)
    pts = tree.points_array()
    # Row a is true where a point lies in the upper half of its leaf along
    # axis a: leaf index i splits at the new face 2 * i + 1 of the finer
    # table.  Axis by axis, numpy's inner loops run over the points rather
    # than over the d coordinates of one point.
    upper = np.empty((tree.dim, len(tree.order)), dtype=bool)
    for a in range(tree.dim):
        np.greater_equal(
            pts[:, a].take(tree.order),
            np.repeat(faces[a, 2 * tree.index[:, a] + 1], counts),
            out=upper[a])
    codes = np.repeat(tree.codes << tree.dim, counts)
    codes |= morton_encode(upper.T, 1)
    perm = np.argsort(codes, kind="stable")
    codes = codes.take(perm)
    starts = _run_starts(codes)
    first = perm[starts]
    parent = np.searchsorted(tree.offsets, first, side="right") - 1
    tree.depth = new_depth
    tree.boundaries = faces
    tree._set_table(codes, tree.order.take(perm), starts,
                    2 * tree.index[parent] + upper[:, first].T)
    return tree


def occupied_leaves(tree: OctoTree) -> list[LeafRecord]:
    """Records for every occupied leaf, ordered by Morton code of the leaf's
    grid index (axis 0 in the least significant interleave slot)."""
    axes = np.arange(tree.dim)
    lo = tree.boundaries[axes, tree.index]
    hi = tree.boundaries[axes, tree.index + 1]
    pts = tree.points_array()
    cols = [pts[:, a].take(tree.order) for a in range(tree.dim)]
    bmin = np.column_stack([np.minimum.reduceat(c, tree.offsets[:-1])
                            for c in cols])
    bmax = np.column_stack([np.maximum.reduceat(c, tree.offsets[:-1])
                            for c in cols])
    ids = np.split(tree.order.copy(), tree.offsets[1:-1])
    return [LeafRecord(index=tuple(index),
                       split_boundary=Aabb._trusted(lo[k], hi[k]),
                       node_boundary=Aabb._trusted(bmin[k], bmax[k]),
                       point_ids=ids[k])
            for k, index in enumerate(tree.index.tolist())]


# downsample_tree reads its leaves under this name, which traces of a
# downsample run report as a layer of its own.
occupied_leaf_nodes = occupied_leaves


def morton_encode(idx: np.ndarray, depth: int) -> np.ndarray:
    """Morton codes of an (n, d) index array, integer or bool: bit b of axis
    a of a row's index lands at bit b*d + a of its code."""
    n, d = idx.shape
    width = np.uint32 if depth * d <= 32 else np.int64
    code = np.zeros(n, dtype=width)
    bit = np.empty_like(code)
    for a in range(d):
        col = idx[:, a].astype(width)
        for b in range(depth):
            np.bitwise_and(col, 1 << b, out=bit)
            bit <<= b * (d - 1) + a
            code |= bit
    return code.astype(np.int64, copy=False)

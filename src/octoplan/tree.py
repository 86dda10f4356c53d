"""Adaptive 2^d-ary spatial subdivision tree over a fixed domain box.

The tree is a linear quadtree/octree (Gargantini, CACM 1982): one table of
occupied leaves sorted by Morton code, with inner nodes implicit as code
prefixes.  Each leaf row holds its code, a slice of one permutation of the
point ids (points keep ascending input order within a leaf), the tight
bounding box of its points, and its grid index and split box.  Every table
write goes through OctoTree._set_table, which derives the grid indices and
split boxes from the codes once per table; occupied_leaves is the one
read-out, as LeafRecord snapshots.

Subdivision always bisects every axis at the box midpoint; membership is
half-open (a point exactly on a midpoint goes to the upper child), with the
domain's maximal faces closed so the far corner stays insertable.  The same
successive-midpoint arithmetic (mid = 0.5 * (lo + hi), upper iff p >= mid)
places points in build, push_point and dynamic_partition and derives split
boxes, so all of them agree bit-for-bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthCapExceeded, InvalidSpec, PointOutOfDomain
from .geometry import Aabb, PointCloud, as_point, require_inside

DEFAULT_DEPTH_CAP = 16
# Leaf codes are int64 with depth * dim bits in use.
_CODE_BITS = 62


@dataclass(frozen=True)
class McrSpec:
    """Smallest controllable region: an infinity-norm ball of radius
    epsilon_max, giving a box of edge 2 * epsilon_max, padded by a safety
    factor k > 1 when choosing tree depth."""

    epsilon_max: float
    k: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon_max) and self.epsilon_max > 0):
            raise InvalidSpec(f"epsilon_max must be positive, got {self.epsilon_max}")
        if not (math.isfinite(self.k) and self.k > 1.0):
            raise InvalidSpec(f"safety factor k must exceed 1, got {self.k}")

    @property
    def edge(self) -> float:
        return 2.0 * self.epsilon_max


def compute_depth(longest_edge: float, cell_edge: float,
                  cap: int = DEFAULT_DEPTH_CAP) -> int:
    """Smallest depth whose cells along the longest domain edge are no
    coarser than cell_edge: minimal D with 2^D >= L / cell_edge, clamped to
    [0, cap].  For a controllable region the cell edge is mcr.k * mcr.edge."""
    for name, value in (("domain", longest_edge), ("cell", cell_edge)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} edge must be positive, got {value}")
    ratio = longest_edge / cell_edge
    if ratio <= 1.0:
        return 0
    depth = max(0, math.ceil(math.log2(ratio)))
    # Guard against log2 rounding near exact powers of two.
    while 2.0 ** depth < ratio:
        depth += 1
    while depth > 0 and 2.0 ** (depth - 1) >= ratio:
        depth -= 1
    return min(cap, depth)


@dataclass(frozen=True)
class LeafRecord:
    """Snapshot of one occupied leaf.  Every array is a copy, so later
    pushes and partitions never reach a record already read."""

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

    Leaf k has code codes[k], owns the point ids
    order[offsets[k]:offsets[k + 1]] and has tight bounds bmin[k], bmax[k],
    grid index index[k] and split box split_lo[k], split_hi[k].
    """

    def __init__(self, domain: Aabb, depth: int,
                 depth_cap: int = DEFAULT_DEPTH_CAP):
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if depth_cap < 0:
            raise ValueError(f"depth cap must be >= 0, got {depth_cap}")
        if depth_cap * domain.dim > _CODE_BITS:
            raise ValueError(f"depth cap {depth_cap} overflows int64 codes")
        if depth > depth_cap:
            raise DepthCapExceeded(f"depth {depth} exceeds cap {depth_cap}")
        if np.any(domain.edges <= 0):
            raise ValueError("domain must have positive extent on every axis")
        self.domain = domain
        self.depth = depth
        self.depth_cap = depth_cap
        self.dim = domain.dim
        self._store = np.empty((0, self.dim), dtype=float)
        self._n = 0
        self._set_table(np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.int64),
                        np.empty((0, self.dim), dtype=float))

    def _set_table(self, sorted_codes: np.ndarray, order: np.ndarray,
                   sorted_pts: np.ndarray) -> None:
        """Group point ids already sorted by leaf code into the leaf table."""
        # Codes are non-negative, so a -1 ahead of them opens the first run.
        starts = np.flatnonzero(np.diff(sorted_codes, prepend=-1))
        self.codes = sorted_codes[starts]
        self.order = order
        self.offsets = np.r_[starts, len(sorted_codes)].astype(np.int64)
        self.bmin = np.minimum.reduceat(sorted_pts, starts, axis=0)
        self.bmax = np.maximum.reduceat(sorted_pts, starts, axis=0)
        # Rasterizing scatters index and refining splits at the split-box
        # midpoints, so both are derived once per table, not per use.
        self.index = morton_decode(self.codes, self.depth, self.dim)
        self.split_lo, self.split_hi = _split_boxes(self.domain, self.codes,
                                                    self.depth)

    # ------------------------------------------------------------ points

    @property
    def point_count(self) -> int:
        return self._n

    def points_array(self) -> np.ndarray:
        """All inserted points, insertion order, as one (n, d) view."""
        return self._store[:self._n]

    def _append_point(self, q: np.ndarray) -> int:
        if self._n == self._store.shape[0]:
            cap = max(16, 2 * self._store.shape[0])
            grown = np.empty((cap, self.dim), dtype=float)
            grown[: self._n] = self._store[: self._n]
            self._store = grown
        self._store[self._n] = q
        self._n += 1
        return self._n - 1

    @property
    def leaves(self) -> list[LeafRecord]:
        """Occupied leaves in Morton order, as occupied_leaves records."""
        return occupied_leaves(self)


def _descend_codes(pts: np.ndarray, domain: Aabb, depth: int) -> np.ndarray:
    """Morton code of each point's cell at the given depth, computed by the
    successive-midpoint comparisons: one group of d bits per level, axis a
    in bit a of the group."""
    n, d = pts.shape
    lo = np.tile(domain.min, (n, 1))
    hi = np.tile(domain.max, (n, 1))
    code = np.zeros(n, dtype=np.int64)
    # Reuse one set of buffers across levels instead of fresh temporaries.
    mid = np.empty_like(lo)
    upper = np.empty((n, d), dtype=bool)
    bit = np.empty(n, dtype=np.int64)
    for _ in range(depth):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.greater_equal(pts, mid, out=upper)
        code <<= d
        for a in range(d):
            np.copyto(bit, upper[:, a])
            bit <<= a
            code |= bit
        np.copyto(lo, mid, where=upper)
        np.logical_not(upper, out=upper)
        np.copyto(hi, mid, where=upper)
    return code


def _split_boxes(domain: Aabb, codes: np.ndarray,
                 depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Split boxes (lo, hi rows) of the cells with these codes, halving the
    domain by the same successive midpoints that place points."""
    d = domain.dim
    lo = np.tile(domain.min, (len(codes), 1))
    hi = np.tile(domain.max, (len(codes), 1))
    axes = np.arange(d)
    for level in range(depth - 1, -1, -1):
        upper = ((codes[:, None] >> (level * d + axes)) & 1).astype(bool)
        mid = 0.5 * (lo + hi)
        lo = np.where(upper, mid, lo)
        hi = np.where(upper, hi, mid)
    return lo, hi


def build(cloud: PointCloud, domain: Aabb, depth: int,
          depth_cap: int = DEFAULT_DEPTH_CAP) -> OctoTree:
    """Build a tree from a whole cloud at once: vectorized descent, one
    stable sort by leaf code, tight bounds by reduceat."""
    tree = OctoTree(domain, depth, depth_cap)
    pts = np.ascontiguousarray(cloud.points, dtype=float)
    n = pts.shape[0]
    if n == 0:
        return tree
    if pts.shape[1] != tree.dim:
        raise ValueError(f"cloud dim {pts.shape[1]} != domain dim {tree.dim}")
    require_inside(pts, domain)
    tree._store = pts.copy()
    tree._n = n
    codes = _descend_codes(pts, domain, depth)
    order = np.argsort(codes, kind="stable")
    tree._set_table(codes[order], order, pts[order])
    return tree


def push_point(tree: OctoTree, p) -> LeafRecord:
    """Insert one point into the leaf table; returns the record of the leaf
    it entered."""
    q = as_point(p)
    if q.shape[0] != tree.dim:
        raise ValueError(f"point dim {q.shape[0]} != tree dim {tree.dim}")
    if not tree.domain.contains(q):
        raise PointOutOfDomain(q, tree.domain.min, tree.domain.max)
    code = int(_descend_codes(q[None, :], tree.domain, tree.depth)[0])
    pid = tree._append_point(q)
    # Ids grow with insertion, so the slot after the leaf's last point
    # keeps its ids ascending.
    point_codes = np.repeat(tree.codes, np.diff(tree.offsets))
    slot = int(np.searchsorted(point_codes, code, side="right"))
    order = np.insert(tree.order, slot, pid)
    tree._set_table(np.insert(point_codes, slot, code), order,
                    tree.points_array()[order])
    return _leaf_record(tree, int(np.searchsorted(tree.codes, code)))


def dynamic_partition(tree: OctoTree) -> OctoTree:
    """Deepen the tree by one level in place, re-splitting every occupied
    leaf: each leaf's segment of point ids is stably re-sorted on one more
    group of code bits.

    Equivalent to rebuilding the same points at depth + 1: occupied-leaf set,
    per-leaf point ids and tight bounds match a fresh build exactly.
    """
    new_depth = tree.depth + 1
    if new_depth > tree.depth_cap:
        raise DepthCapExceeded(
            f"partition to depth {new_depth} exceeds cap {tree.depth_cap}")
    counts = np.diff(tree.offsets)
    mid = np.repeat(0.5 * (tree.split_lo + tree.split_hi), counts, axis=0)
    pts = tree.points_array()[tree.order]
    upper = pts >= mid
    d = tree.dim
    codes = np.repeat(tree.codes << d, counts)
    for a in range(d):
        codes |= upper[:, a].astype(np.int64) << a
    perm = np.argsort(codes, kind="stable")
    tree.depth = new_depth
    tree._set_table(codes[perm], tree.order[perm], pts[perm])
    return tree


def _leaf_record(tree: OctoTree, k: int) -> LeafRecord:
    lo, hi = tree.offsets[k], tree.offsets[k + 1]
    return LeafRecord(
        index=tuple(tree.index[k].tolist()),
        split_boundary=Aabb._trusted(tree.split_lo[k].copy(),
                                     tree.split_hi[k].copy()),
        node_boundary=Aabb._trusted(tree.bmin[k].copy(), tree.bmax[k].copy()),
        point_ids=tree.order[lo:hi].copy())


def occupied_leaves(tree: OctoTree) -> list[LeafRecord]:
    """Records for every occupied leaf, ordered by Morton code of the leaf's
    grid index (axis 0 in the least significant interleave slot)."""
    return [_leaf_record(tree, k) for k in range(len(tree.codes))]


# downsample_tree reads its leaves under this name, which traces of a
# downsample run report as a layer of its own.
occupied_leaf_nodes = occupied_leaves


def morton_key(index: tuple[int, ...], depth: int) -> int:
    """Interleave per-axis index bits: bit b of axis a lands at b*d + a."""
    d = len(index)
    code = 0
    for b in range(depth):
        for a in range(d):
            code |= ((index[a] >> b) & 1) << (b * d + a)
    return code


def morton_encode(idx: np.ndarray, depth: int) -> np.ndarray:
    """Vectorized morton_key over an (n, d) index array."""
    n, d = idx.shape
    code = np.zeros(n, dtype=np.int64)
    for b in range(depth):
        for a in range(d):
            code |= ((idx[:, a] >> b) & 1) << (b * d + a)
    return code


def morton_decode(codes: np.ndarray, depth: int, dim: int) -> np.ndarray:
    """Inverse of morton_encode: the (n, dim) grid indices of the codes."""
    idx = np.zeros((len(codes), dim), dtype=np.int64)
    for b in range(depth):
        for a in range(dim):
            idx[:, a] |= ((codes >> (b * dim + a)) & 1) << b
    return idx

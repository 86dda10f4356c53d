"""Adaptive 2^d-ary spatial subdivision tree over a fixed domain box.

The tree is a linear quadtree/octree (Gargantini, CACM 1982): one table of
occupied leaves sorted by Morton code, with inner nodes implicit as code
prefixes.  Each leaf row holds its code, a slice of one permutation of the
point ids (points keep ascending input order within a leaf), and the tight
bounding box of its points.  Grid indices and split boxes are derived from
the code on demand.

Subdivision always bisects every axis at the box midpoint; membership is
half-open (a point exactly on a midpoint goes to the upper child), with the
domain's maximal faces closed so the far corner stays insertable.  The same
successive-midpoint arithmetic (mid = 0.5 * (lo + hi), upper iff p >= mid)
places points in build, push_point and dynamic_partition and derives split
boxes, so all of them agree bit-for-bit.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DepthCapExceeded, InvalidSpec, PointOutOfDomain
from .geometry import Aabb, PointCloud, as_point

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


def compute_depth(domain_edge_length: float, mcr: McrSpec,
                  cap: int = DEFAULT_DEPTH_CAP) -> int:
    """Smallest depth whose cells are no coarser than the safety-scaled
    controllable region: minimal D with 2^D >= L / (k * edge), clamped to
    [0, cap].  Non-cubic domains should pass their longest edge."""
    if not (math.isfinite(domain_edge_length) and domain_edge_length > 0):
        raise ValueError(f"domain edge must be positive, got {domain_edge_length}")
    ratio = domain_edge_length / (mcr.k * mcr.edge)
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
    """Read-out of one occupied leaf."""

    index: tuple[int, ...]
    split_boundary: Aabb
    node_boundary: Aabb
    point_count: int


class Leaf:
    """Live view of one leaf of a tree, addressed by its Morton code.

    Reads go to the tree's current table, so a view returned by push_point
    sees later insertions into the same leaf.  Once dynamic_partition has
    split the leaf, the view reports no points and no tight bounds.
    """

    __slots__ = ("tree", "code", "depth")

    def __init__(self, tree: "OctoTree", code: int):
        self.tree = tree
        self.code = code
        self.depth = tree.depth

    def _row(self) -> int | None:
        tree = self.tree
        if tree.depth != self.depth:
            return None
        k = int(np.searchsorted(tree.codes, self.code))
        if k < len(tree.codes) and tree.codes[k] == self.code:
            return k
        return None

    @property
    def grid_index(self) -> tuple[int, ...]:
        idx = morton_decode(np.array([self.code]), self.depth, self.tree.dim)
        return tuple(int(v) for v in idx[0])

    @property
    def split_boundary(self) -> Aabb:
        lo, hi = _split_boxes(self.tree.domain, np.array([self.code]),
                              self.depth)
        return Aabb._trusted(lo[0], hi[0])

    @property
    def split_min(self) -> np.ndarray:
        return self.split_boundary.min

    @property
    def split_max(self) -> np.ndarray:
        return self.split_boundary.max

    @property
    def node_boundary(self) -> Aabb | None:
        k = self._row()
        if k is None:
            return None
        return Aabb._trusted(self.tree.bmin[k].copy(),
                             self.tree.bmax[k].copy())

    @property
    def point_ids(self) -> np.ndarray:
        k = self._row()
        if k is None:
            return np.empty(0, dtype=np.int64)
        offsets = self.tree.offsets
        return self.tree.order[offsets[k]:offsets[k + 1]]

    @property
    def point_count(self) -> int:
        return len(self.point_ids)


class _LeafSequence(Sequence):
    """The tree's occupied leaves in Morton order, as views made on access."""

    def __init__(self, tree: "OctoTree"):
        self._tree = tree

    def __len__(self) -> int:
        return len(self._tree.codes)

    def __getitem__(self, i: int) -> Leaf:
        return self._tree.leaf(int(self._tree.codes[i]))


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
        self._views: dict[int, Leaf] = {}

    # ------------------------------------------------------------ points

    @property
    def point_count(self) -> int:
        return self._n

    def points_array(self) -> np.ndarray:
        """All inserted points, insertion order, as one (n, d) view."""
        return self._store[:self._n]

    def leaf_points(self, leaf: Leaf) -> np.ndarray:
        return self.points_array()[leaf.point_ids]

    def _append_point(self, q: np.ndarray) -> int:
        if self._n == self._store.shape[0]:
            cap = max(16, 2 * self._store.shape[0])
            grown = np.empty((cap, self.dim), dtype=float)
            grown[: self._n] = self._store[: self._n]
            self._store = grown
        self._store[self._n] = q
        self._n += 1
        return self._n - 1

    # ------------------------------------------------------------ leaves

    @property
    def leaves(self) -> Sequence:
        """Occupied leaves in Morton order."""
        return _LeafSequence(self)

    def leaf(self, code: int) -> Leaf:
        """The view of the leaf with this code at the current depth; the
        same object for the same leaf until the next partition."""
        view = self._views.get(code)
        if view is None:
            view = self._views[code] = Leaf(self, code)
        return view


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
    # Column by column: a reduction over axis 0 of an (n, 3) array is slow.
    if any(pts[:, a].min() < domain.min[a] or pts[:, a].max() > domain.max[a]
           for a in range(tree.dim)):
        ok = (pts >= domain.min).all(axis=1) & (pts <= domain.max).all(axis=1)
        bad = int(np.argmin(ok))
        raise PointOutOfDomain(pts[bad], domain.min, domain.max, index=bad)
    tree._store = pts.copy()
    tree._n = n
    codes = _descend_codes(pts, domain, depth)
    order = np.argsort(codes, kind="stable")
    tree._set_table(codes[order], order, pts[order])
    return tree


def push_point(tree: OctoTree, p) -> Leaf:
    """Insert one point into the leaf table; returns the leaf it entered."""
    q = as_point(p)
    if q.shape[0] != tree.dim:
        raise ValueError(f"point dim {q.shape[0]} != tree dim {tree.dim}")
    if not tree.domain.contains(q):
        raise PointOutOfDomain(q, tree.domain.min, tree.domain.max)
    code = int(_descend_codes(q[None, :], tree.domain, tree.depth)[0])
    pid = tree._append_point(q)
    k = int(np.searchsorted(tree.codes, code))
    offsets = tree.offsets
    if k < len(tree.codes) and tree.codes[k] == code:
        # Ids grow with insertion, so appending keeps the leaf ascending.
        tree.order = np.insert(tree.order, offsets[k + 1], pid)
        tree.offsets = np.r_[offsets[:k + 1], offsets[k + 1:] + 1]
        np.minimum(tree.bmin[k], q, out=tree.bmin[k])
        np.maximum(tree.bmax[k], q, out=tree.bmax[k])
    else:
        new = np.array([code])
        lo, hi = _split_boxes(tree.domain, new, tree.depth)
        tree.codes = np.insert(tree.codes, k, code)
        tree.order = np.insert(tree.order, offsets[k], pid)
        tree.offsets = np.r_[offsets[:k + 1], offsets[k:] + 1]
        tree.bmin = np.insert(tree.bmin, k, q, axis=0)
        tree.bmax = np.insert(tree.bmax, k, q, axis=0)
        tree.index = np.insert(tree.index, k, morton_decode(
            new, tree.depth, tree.dim), axis=0)
        tree.split_lo = np.insert(tree.split_lo, k, lo, axis=0)
        tree.split_hi = np.insert(tree.split_hi, k, hi, axis=0)
    return tree.leaf(code)


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


def occupied_leaves(tree: OctoTree) -> list[LeafRecord]:
    """Records for every occupied leaf, ordered by Morton code of the leaf's
    grid index (axis 0 in the least significant interleave slot)."""
    # push_point updates tight bounds in place, so records get copies.
    bmin, bmax = tree.bmin.copy(), tree.bmax.copy()
    counts = np.diff(tree.offsets).tolist()
    return [LeafRecord(index=tuple(i),
                       split_boundary=Aabb._trusted(tree.split_lo[k],
                                                    tree.split_hi[k]),
                       node_boundary=Aabb._trusted(bmin[k], bmax[k]),
                       point_count=counts[k])
            for k, i in enumerate(tree.index.tolist())]


def occupied_leaf_nodes(tree: OctoTree) -> list[Leaf]:
    """Occupied leaves themselves, in the same Morton order as the records."""
    return list(tree.leaves)


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

"""Geometric primitives: points, boxes, convex hulls.

Hulls are built with a quickhull that works in 2-D (divide and conquer on
edges) and 3-D (conflict lists over triangular faces; Barber, Dobkin &
Huhdanpaa, ACM TOMS 22(4), 1996).  All tolerance checks use a single
absolute epsilon in coordinate units, so callers at metric scale get
nanometre-level slack.

A hull's input is its rows deduplicated by value (0.0 == -0.0, the first
kept), spread by at most MAX_SPREAD on every axis: 2^511 in 2-D, where side
tests multiply two coordinate differences, and 2^255 in 3-D, where plane
normals square cross products of them, so every product stays finite.

The 3-D hull keeps its faces in flat parallel lists indexed by face id:
vertex triple, plane tuple (nx, ny, nz, off), alive flag, conflict list and
visit stamp, with directed edges keyed as the integer u * n + v.  Leaves of
a downsample are hulled by the thousand, mostly with under fifty points
each, so this per-face work is most of a downsample's time.  It stays in
the interpreter, where a scalar read from a list beats a numpy call at that
size: new planes are computed inline, the seed simplex by scalar loops and
the canonical output by Python sorts.  The decisions are fixed, so a hull
is a function of its input bytes alone:

- every plane and side test, on Python scalars or elementwise over numpy
  arrays, is the expression nx*x + ny*y + nz*z - off in that order, never
  a BLAS product.  One ulp can move a point to another face, so the batch
  size, which picks scalars or arrays for speed alone, and the CPU's BLAS
  kernel must not choose the arithmetic;
- the visible flood is depth-first, also into the faces _folds picks, and
  horizon edges, and with them the new faces, come in the order it met them;
- the face queue is last-in, first-out, and a point equally far outside two
  faces goes to the earlier one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, EmptyInput, InvalidSpec, PointOutOfDomain

# Absolute tolerance (coordinate units) for every hull-side predicate.
HULL_EPS = 1e-9
# Largest per-axis spread of a hull input (see the module docstring).
MAX_SPREAD = {2: 2.0 ** 511, 3: 2.0 ** 255}


def as_point(p) -> np.ndarray:
    try:
        a = np.asarray(p, dtype=float)
    except (TypeError, ValueError):
        raise InvalidSpec(f"point must be numeric, got {p!r}") from None
    if a.ndim != 1 or a.shape[0] not in (2, 3):
        raise InvalidSpec(f"point must be a flat 2-D or 3-D coordinate, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidSpec(f"point has non-finite coordinates: {a}")
    return a


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box with inclusive corners min <= max."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        lo, hi = as_point(self.min), as_point(self.max)
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)
        if lo.shape != hi.shape:
            raise InvalidSpec("Aabb corners disagree on dimension")
        if np.any(lo > hi):
            raise InvalidSpec(f"Aabb has min > max: {lo} vs {hi}")

    @classmethod
    def _trusted(cls, lo: np.ndarray, hi: np.ndarray) -> "Aabb":
        """Skip validation for hot paths holding rows of an already
        bulk-checked float matrix."""
        box = object.__new__(cls)
        object.__setattr__(box, "min", lo)
        object.__setattr__(box, "max", hi)
        return box

    @property
    def dim(self) -> int:
        return self.min.shape[0]

    @property
    def edges(self) -> np.ndarray:
        # inf for corners over the float range apart; callers refuse it.
        with np.errstate(over="ignore"):
            return self.max - self.min

    def center(self) -> np.ndarray:
        return 0.5 * (self.min + self.max)


def require_inside(pts: np.ndarray, box: Aabb) -> None:
    """Raise InvalidSpec when an (n, d) array, empty or not, and the box
    differ in dimension, and PointOutOfDomain naming its first row outside
    the closed box or with a NaN.  The scan goes column by column; reducing
    the whole (n, d) comparison over axis 1 is ten times slower."""
    if pts.shape[1] != box.dim:
        raise InvalidSpec(f"point dim {pts.shape[1]} != domain dim {box.dim}")
    if len(pts) and any(not (pts[:, a].min() >= box.min[a] and
                             pts[:, a].max() <= box.max[a])
                        for a in range(box.dim)):
        ok = (pts >= box.min).all(axis=1) & (pts <= box.max).all(axis=1)
        bad = int(np.argmin(ok))
        raise PointOutOfDomain(pts[bad], box.min, box.max, index=bad)


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of points stored as an (n, d) float64 array."""

    points: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.points, dtype=float)
        if a.ndim != 2 or a.shape[1] not in (2, 3):
            raise InvalidSpec(f"cloud must have shape (n, 2) or (n, 3), got {a.shape}")
        if a.size and not np.all(np.isfinite(a)):
            bad = int(np.argwhere(~np.isfinite(a).all(axis=1))[0][0])
            raise InvalidSpec(f"cloud row {bad} has non-finite coordinates")
        object.__setattr__(self, "points", a)

    @classmethod
    def empty(cls, dim: int) -> "PointCloud":
        return cls(np.empty((0, dim), dtype=float))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def aabb_of(cloud: PointCloud) -> Aabb:
    """Tight bounding box of a cloud; EmptyInput on an empty cloud."""
    if len(cloud) == 0:
        raise EmptyInput("cannot bound an empty cloud")
    return Aabb(cloud.points.min(axis=0), cloud.points.max(axis=0))


@dataclass(frozen=True)
class ConvexHull:
    """Hull output.

    vertices: (m, d) array; in 2-D the rows are already in counter-clockwise
    ring order.  faces: in 2-D the ring as an index array [0..m); in 3-D an
    (k, 3) int array of outward-oriented triangles indexing `vertices`.
    """

    vertices: np.ndarray
    faces: np.ndarray

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


def _dedupe_rows(pts: np.ndarray) -> np.ndarray:
    """Unique rows in lexicographic order.  Rows equal by value (0.0 ==
    -0.0) are one row, and the first of them in input order is kept: a
    stable lexsort leaves equal rows in input order."""
    srt = pts[np.lexsort(pts.T[::-1])]
    keep = np.empty(len(srt), dtype=bool)
    keep[:1] = True
    np.any(srt[1:] != srt[:-1], axis=1, out=keep[1:])
    return srt[keep]


def quickhull(cloud: PointCloud) -> ConvexHull:
    """Convex hull of a 2-D or 3-D cloud.

    Raises EmptyInput when the cloud has fewer than d+1 points and
    DegenerateInput when its rows, deduplicated by value, are affinely
    dependent (within HULL_EPS) or spread over MAX_SPREAD[d].  Output
    vertices are a subset of the input points.
    """
    d = cloud.dim
    if len(cloud) < d + 1:
        raise EmptyInput(f"need at least {d + 1} points for a {d}-D hull, got {len(cloud)}")
    pts = _dedupe_rows(cloud.points)
    if pts.shape[0] < d + 1:
        raise DegenerateInput(
            f"only {pts.shape[0]} distinct points after deduplication; need {d + 1}")
    lo, hi = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    if max(b - a for a, b in zip(lo, hi)) > MAX_SPREAD[d]:  # inf included
        raise DegenerateInput(f"points spread over {MAX_SPREAD[d]:g} on an axis")
    if d == 2:
        ring = _hull_2d(pts)
        return ConvexHull(pts[ring], np.arange(len(ring), dtype=np.int64))
    return _hull_3d(pts)


# ---------------------------------------------------------------- 2-D hull


def _side(a, b, pts):
    """Perpendicular signed distance of pts from line a->b (positive = left);
    pts[:, None] against k lines in rows of a and b gives (points, k)."""
    ab = b - a
    norm = np.hypot(ab[..., 0], ab[..., 1])
    return ((pts[..., 0] - a[..., 0]) * ab[..., 1]
            - (pts[..., 1] - a[..., 1]) * ab[..., 0]) / -norm


def _hull_2d(pts: np.ndarray) -> list[int]:
    """Indices of hull vertices in counter-clockwise ring order.

    pts must be deduplicated rows in lexicographic order, as _dedupe_rows
    gives, so row 0 and the last row are the extremes, and each chain
    between them is monotone in row order.  Raises DegenerateInput when
    the points are collinear.
    """
    lo, hi = 0, pts.shape[0] - 1
    a, b = pts[lo], pts[hi]
    if float(np.hypot(*(b - a))) <= HULL_EPS:
        raise DegenerateInput("all points coincide within tolerance")

    side = _side(a, b, pts)
    below, above = np.nonzero(side < -HULL_EPS)[0], np.nonzero(side > HULL_EPS)[0]
    if below.size == 0 and above.size == 0:
        raise DegenerateInput("points are collinear within tolerance")

    ring = [lo, *sorted(_expand_2d(pts, lo, hi, below)), hi,
            *sorted(_expand_2d(pts, hi, lo, above), reverse=True)]
    # The expansion admits a point only when it is more than HULL_EPS
    # outside an edge; hold the two extremes, which enter unconditionally,
    # to the same rule against the chord of their ring neighbours.
    for end in (lo, hi):
        k = ring.index(end)
        chord = pts[ring[k - 1]], pts[ring[(k + 1) % len(ring)]]
        if _side(*chord, pts[[end]])[0] >= -HULL_EPS:
            if len(ring) == 3:
                raise DegenerateInput("points are collinear within tolerance")
            ring.pop(k)
    return ring


def _expand_2d(pts, iu, iv, cand) -> list[int]:
    """Hull vertices strictly between iu and iv on the CCW walk, in no
    particular order.

    cand holds indices of points strictly on the outer side of edge iu->iv.
    A work list instead of recursion, so pathological inputs cannot blow
    the recursion limit.
    """
    found, work = [], [(iu, iv, cand)]
    while work:
        u, v, idxs = work.pop()
        if idxs.size == 0:
            continue
        far = int(idxs[int(np.argmin(_side(pts[u], pts[v], pts[idxs])))])
        found.append(far)
        work.append((u, far, idxs[_side(pts[u], pts[far], pts[idxs]) < -HULL_EPS]))
        work.append((far, v, idxs[_side(pts[far], pts[v], pts[idxs]) < -HULL_EPS]))
    return found


# ---------------------------------------------------------------- 3-D hull


def _plane_rows(pa, pb, pc):
    """Unit normal and offset of the plane through three point rows, and
    (None, 0.0) when the rows are collinear."""
    ux, uy, uz = pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]
    vx, vy, vz = pc[0] - pa[0], pc[1] - pa[1], pc[2] - pa[2]
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if norm == 0.0:
        return None, 0.0
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    return (nx, ny, nz), nx * pa[0] + ny * pa[1] + nz * pa[2]


def _plane_side(pts, table):
    """nx*x + ny*y + nz*z - off of each point row against each plane row
    (nx, ny, nz, off) of table, shape (points, planes): the scalar loop's
    expression, elementwise in the same order, so the same bits."""
    x, y, z = pts[:, 0, None], pts[:, 1, None], pts[:, 2, None]
    return table[:, 0] * x + table[:, 1] * y + table[:, 2] * z - table[:, 3]


def _initial_simplex(rows) -> tuple[int, int, int, int]:
    """Seed tetrahedron: the lexicographically smallest point, the point
    furthest from it, the point furthest from their line and the point
    furthest from their plane, the first on ties."""
    i0 = rows.index(min(rows))
    x0, y0, z0 = rows[i0]
    d = [(x - x0) * (x - x0) + (y - y0) * (y - y0) + (z - z0) * (z - z0)
         for x, y, z in rows]
    i1 = d.index(max(d))
    if math.sqrt(d[i1]) <= HULL_EPS:
        raise DegenerateInput("all points coincide within tolerance")
    sx, sy, sz = rows[i1][0] - x0, rows[i1][1] - y0, rows[i1][2] - z0
    seg = math.sqrt(sx * sx + sy * sy + sz * sz)
    sx, sy, sz = sx / seg, sy / seg, sz / seg
    best, i2 = -math.inf, 0
    for i, (x, y, z) in enumerate(rows):
        proj = (x - x0) * sx + (y - y0) * sy + (z - z0) * sz
        v = d[i] - proj * proj
        if v > best:
            best, i2 = v, i
    normal, off = _plane_rows(rows[i0], rows[i1], rows[i2])
    # best can be rounding alone, picking i2 on the line, even i2 == i1.
    if math.sqrt(max(best, 0.0)) <= HULL_EPS or normal is None:
        raise DegenerateInput("points are collinear within tolerance")
    nx, ny, nz = normal
    best, i3 = -math.inf, 0
    for i, (x, y, z) in enumerate(rows):
        v = abs(nx * x + ny * y + nz * z - off)
        if v > best:
            best, i3 = v, i
    if best <= HULL_EPS:
        raise DegenerateInput("points are coplanar within tolerance")
    return i0, i1, i2, i3


def _hull_3d(pts: np.ndarray) -> ConvexHull:
    n_pts = pts.shape[0]
    rows = pts.tolist()
    i0, i1, i2, i3 = _initial_simplex(rows)
    cx, cy, cz = [(a + b + c + d) / 4.0 for a, b, c, d in zip(
        rows[i0], rows[i1], rows[i2], rows[i3])]

    # Face f is entry f of each table.  `owner` maps the directed edge
    # u -> v, keyed u * n_pts + v, to the face last created with it.  An
    # entry of a dead face is never deleted: the flood checks `alive`, and
    # the horizon test needs no check, as only live faces carry the stamp
    # of the current apex.
    tri, plane, alive, conf, stamp = [], [], [], [], []
    owner: dict[int, int] = {}

    new = [(i0, i1, i2), (i0, i1, i3), (i0, i2, i3), (i1, i2, i3)]
    cand = [i for i in range(n_pts) if i not in (i0, i1, i2, i3)]
    queue: list[int] = []
    while True:
        start = len(tri)
        for f, (a, b, c) in enumerate(new, start):
            # _plane_rows inline, then oriented away from the centroid.
            (ax, ay, az), (bx, by, bz), (qx, qy, qz) = rows[a], rows[b], rows[c]
            ux, uy, uz = bx - ax, by - ay, bz - az
            vx, vy, vz = qx - ax, qy - ay, qz - az
            nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
            norm = math.sqrt(nx * nx + ny * ny + nz * nz)
            if norm == 0.0:
                # Sliver triangle; keep it with a null plane.
                pl = (0.0, 0.0, 0.0, 0.0)
            else:
                nx, ny, nz = nx / norm, ny / norm, nz / norm
                off = nx * ax + ny * ay + nz * az
                if nx * cx + ny * cy + nz * cz > off:
                    # Same plane, opposite winding: negation is exact.
                    b, c = c, b
                    pl = (-nx, -ny, -nz, -off)
                else:
                    pl = (nx, ny, nz, off)
            tri.append((a, b, c))
            plane.append(pl)
            owner[a * n_pts + b] = owner[b * n_pts + c] = owner[c * n_pts + a] = f
        alive += [True] * len(new)
        stamp += [-1] * len(new)
        buckets = _assign_conflicts(pts, rows, plane[start:], cand)
        conf.extend(buckets)
        queue += [f for f, mine in enumerate(buckets, start) if mine]

        while queue and not alive[queue[-1]]:
            queue.pop()
        if not queue:
            break
        face = queue.pop()
        nx, ny, nz, _ = plane[face]
        best, p = -math.inf, -1
        for i in conf[face]:
            x, y, z = rows[i]
            rel = nx * x + ny * y + nz * z
            if rel > best:
                best, p = rel, i
        px, py, pz = rows[p]

        # Depth-first flood from `face` to every face visible from p.  Each
        # point is an apex once, so p itself stamps the faces seen.  The
        # twins of each visible face's edges are kept for the horizon.
        stamp[face] = p
        visible = [face]
        stack = [face]
        twins = {}
        while stack:
            f = stack.pop()
            a, b, c = tri[f]
            twins[f] = near = (owner.get(b * n_pts + a),
                               owner.get(c * n_pts + b),
                               owner.get(a * n_pts + c))
            for g in near:
                if g is None or stamp[g] == p or not alive[g]:
                    continue
                gx, gy, gz, go = plane[g]
                h = gx * px + gy * py + gz * pz - go
                if h > HULL_EPS or h > 0.0 and _folds(
                        rows, tri[g], (a, b, c, a)[near.index(g):], p, cx, cy, cz):
                    stamp[g] = p
                    visible.append(g)
                    stack.append(g)

        # A point is in one conflict list at most: orphans need no set.
        new, orphan = [], []
        for f in visible:
            a, b, c = tri[f]
            gab, gbc, gca = twins[f]
            if gab is None or stamp[gab] != p:
                new.append((a, b, p))
            if gbc is None or stamp[gbc] != p:
                new.append((b, c, p))
            if gca is None or stamp[gca] != p:
                new.append((c, a, p))
            if conf[f]:
                orphan += conf[f]
            alive[f] = False
        orphan.remove(p)
        cand = sorted(orphan)

    # Canonical output: live triangles rotated to start at their smallest
    # index, rows sorted, then vertices renumbered in ascending order.
    faces = [(a, b, c) if a < b and a < c else (b, c, a) if b < c else
             (c, a, b) for (a, b, c), ok in zip(tri, alive) if ok]
    faces.sort()
    flat = [i for t in faces for i in t]
    used = sorted(set(flat))
    rank = dict(zip(used, range(len(used))))
    return ConvexHull(pts[used], np.array([rank[i] for i in flat],
                                          dtype=np.int64).reshape(-1, 3))


def _folds(rows, g_tri, edge, p, cx, cy, cz) -> bool:
    """Whether apex p, within HULL_EPS above face g, must see g anyway: g's
    vertex off edge[:2] is over HULL_EPS outside the face p raises on that
    edge, oriented away from (cx, cy, cz), so keeping g bends the hull in."""
    u, v = edge[0], edge[1]
    normal, off = _plane_rows(rows[u], rows[v], rows[p])
    if normal is None:
        return False
    nx, ny, nz = normal
    qx, qy, qz = next(rows[i] for i in g_tri if i != u and i != v)
    out = nx * qx + ny * qy + nz * qz - off
    return (-out if nx * cx + ny * cy + nz * cz > off else out) > HULL_EPS


def _assign_conflicts(pts, rows, planes, cand):
    """Conflict list of each plane (None when empty): every candidate goes
    to the plane it lies furthest outside of, ties to the earliest."""
    if not cand or not planes:
        return [None] * len(planes)
    if len(cand) * len(planes) >= 4096:
        cand_arr = np.asarray(cand, dtype=np.int64)
        rel = _plane_side(pts[cand_arr], np.array(planes))
        best = np.argmax(rel, axis=1)
        outside = rel[np.arange(len(cand_arr)), best] > HULL_EPS
        return [cand_arr[(best == fi) & outside].tolist() or None
                for fi in range(len(planes))]
    buckets = [None] * len(planes)
    for i in cand:
        x, y, z = rows[i]
        best, at = HULL_EPS, -1
        for fi, (nx, ny, nz, off) in enumerate(planes):
            rel = nx * x + ny * y + nz * z - off
            if rel > best:
                best, at = rel, fi
        if at >= 0:
            if buckets[at] is None:
                buckets[at] = [i]
            else:
                buckets[at].append(i)
    return buckets


# ---------------------------------------------------------------- queries


def _outside(hull: ConvexHull, pts: np.ndarray) -> np.ndarray:
    """Signed distance of each point row outside each hull edge (2-D) or
    face (3-D), shape (points, sides); negative inside."""
    v = hull.vertices
    if hull.dim == 2:
        return -_side(v, np.roll(v, -1, axis=0), pts[:, None])
    rows = v.tolist()
    planes = [(*normal, off) for normal, off in (
        _plane_rows(rows[a], rows[b], rows[c]) for a, b, c in hull.faces.tolist())
        if normal is not None]
    return _plane_side(pts, np.array(planes).reshape(-1, 4))


def contains(hull: ConvexHull, p) -> bool:
    """Inside-or-on test with absolute tolerance HULL_EPS."""
    return bool(np.all(_outside(hull, as_point(p)[None, :]) <= HULL_EPS))


def strictly_inside(hull: ConvexHull, pts: np.ndarray) -> np.ndarray:
    """Vectorized strict-interior test: True where a point clears every
    face by more than HULL_EPS."""
    return np.all(_outside(hull, pts) < -HULL_EPS, axis=1)

"""Synthetic cloud generators: gradient-noise fields and shape surfaces.

The noise path evaluates classic multi-octave gradient noise (Perlin's
"Improving Noise", 2002: quintic fade, doubled 256-entry permutation) on a
regular sample lattice and emits a point wherever the value clears a
threshold. Gradients are unit vectors and the blend of corner contributions
is bounded by sqrt(d)/2 (Jensen over the fade weights), so after scaling by
2/sqrt(d) single-octave values provably stay inside [-1, 1]; octave sums
are divided by their amplitude total, which keeps the bound. The hash cell
is wrapped to 0..255 in float before the integer cast, so no octave
overflows; PerlinParams refuses an octave count whose top frequency would
carry a domain coordinate to infinity.

One kernel serves every dimension and takes the lattice only: one axis
vector per dimension, shaped (n, 1) and (1, m) in 2-D, so floor, fraction
and fade run once per axis value. A corner's hashed gradient is constant
inside a noise cell (Perlin 2002), so the permutation hash and the
gradient lookups run once per run of samples sharing every axis's cell,
each gradient term once per sample of its own axis and run of the others,
and only the sums of the gradient dot and the blends run per sample.
Broadcasting and np.repeat copy operands without changing any float
operation or its order, so values are bit-identical to evaluating every
sample's coordinates. The lattice is evaluated in blocks of at most 2^16
samples (slabs along axis 0), each writing its threshold test into one
bool keep mask, the only array as large as the lattice; lattices over
MAX_RASTER_CELLS (2^28) samples are refused with InvalidSpec before
anything is allocated.

The demo scene samples points exactly on four fixed analytic surfaces
(cuboid, cylinder, arch, helix tube) on a parameter lattice with a
deterministic in-surface jitter, so surface residuals stay at
floating-point scale while avoiding degenerate collinear runs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .geometry import Aabb, PointCloud
from .gridmap import MAX_RASTER_CELLS

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """splitmix64's output function (Steele, Lea & Flood, OOPSLA 2014) of a
    64-bit state, on a Python int or elementwise on a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _stream(seed: int, count: int) -> np.ndarray:
    """The first count splitmix64 outputs from a seed, as uint64: step i's
    state is seed + i * gamma (mod 2^64), so one pass mixes them all."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    return _mix(np.uint64(seed & _MASK64) + steps * np.uint64(_GAMMA))


def derive_seed(base: int, *indices: int) -> int:
    """Stable sub-seed from a base seed and a tuple of stream indices."""
    state = base & _MASK64
    for ix in indices:
        state = ((state ^ ((ix * 0xD1342543DE82EF95) & _MASK64))
                 + _GAMMA) & _MASK64
    return _mix((state + _GAMMA) & _MASK64)


def _permutation(seed: int) -> np.ndarray:
    """256-entry permutation, Fisher-Yates driven by splitmix64, doubled."""
    table = list(range(256))
    for i, out in zip(range(255, 0, -1), _stream(seed, 255).tolist()):
        j = out % (i + 1)
        table[i], table[j] = table[j], table[i]
    return np.asarray(table + table, dtype=np.int64)


def _fade(t):
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def _axis(t: np.ndarray):
    """Hash cell (mod 256), fraction and fade of one coordinate array.

    Wrapping the floor in float before the cast keeps the cell exact for
    any finite coordinate; past 2^53 every float is integral, the fraction
    is 0 and the octave contributes nothing.
    """
    cell = np.floor(t)
    frac = t - cell
    return np.mod(cell, 256.0).astype(np.int64), frac, _fade(frac)


_GRAD2 = np.asarray(
    [[1, 0], [-1, 0], [0, 1], [0, -1],
     [1, 1], [-1, 1], [1, -1], [-1, -1]], dtype=float)
_GRAD2[4:] /= math.sqrt(2.0)

_GRAD3 = np.asarray(
    [[1, 1, 0], [-1, 1, 0], [1, -1, 0], [-1, -1, 0],
     [1, 0, 1], [-1, 0, 1], [1, 0, -1], [-1, 0, -1],
     [0, 1, 1], [0, -1, 1], [0, 1, -1], [0, -1, -1]], dtype=float)
_GRAD3 /= math.sqrt(2.0)


def _hash_tables(seed: int, d: int):
    """The seed's doubled permutation, and per gradient component one
    contiguous vector indexed by the last hash lookup's argument: the
    gradient table composed with that lookup (perm & 7 or perm % 12)."""
    perm = _permutation(seed)
    grad, pick = (_GRAD2, perm & 7) if d == 2 else (_GRAD3, perm % 12)
    return perm, [grad[pick, c] for c in range(d)]


def _lerp(a: np.ndarray, b: np.ndarray, t) -> np.ndarray:
    """a + t * (b - a), written into b; IEEE + and * commute, so the
    in-place order gives the same bits."""
    b -= a
    b *= t
    b += a
    return b


def _cell_runs(cells: list[np.ndarray]):
    """Cut each lattice axis into runs of samples over which its hash cell
    does not change; cells[a] varies along dimension a alone.  Returns the
    cells at each run's first sample, and per axis the run lengths, or None
    where every run is one sample long."""
    firsts, runs = [], []
    for a, c in enumerate(cells):
        v = c.reshape(-1)
        starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
        firsts.append(c.take(starts, axis=a))
        runs.append(None if len(starts) == len(v)
                    else np.diff(starts, append=len(v)))
    return firsts, runs


def _noise(perm: np.ndarray, grads, *coords: np.ndarray) -> np.ndarray:
    """Single-octave noise on a lattice, one axis vector per dimension,
    coords[a] varying along dimension a alone.

    A corner's hash chains perm over the axes, h = perm[h] + (cell + o),
    starting from axis 0's cell.  The hash, and so each corner's gradient,
    is constant inside a noise cell (Perlin 2002), so the hash and the
    gradient lookups run once per run of samples that share every axis's
    cell (_cell_runs).  Each gradient term g_a * (frac_a - o) is formed
    once np.repeat has copied g_a out along dimension a, and only then
    repeated along the others: a term is multiplied once per sample of its
    own axis and run of the others, not once per sample.  The gradient dot
    accumulates from axis 0 up and the blend runs along axis 0 first, so
    the float operations come in one fixed order for every dimension."""
    axes = [_axis(t) for t in coords]
    cells, runs = _cell_runs([cell for cell, _, _ in axes])

    def term(g, a, o):
        if runs[a] is not None:
            g = np.repeat(g, runs[a], axis=a)
        g *= axes[a][1] - o
        # Last dimension first: the later repeats then copy whole rows.
        for j in reversed(range(len(runs))):
            if runs[j] is not None and j != a:
                g = np.repeat(g, runs[j], axis=j)
        return g

    def corner(offs):
        h = cells[0] + offs[0]
        for cell, o in zip(cells[1:], offs[1:]):
            h = perm[h] + (cell + o)
        n = term(grads[0][h], 0, offs[0])
        for a in range(1, len(axes)):
            n += term(grads[a][h], a, offs[a])
        return n

    def blend(a, offs):
        """Corners blended along axes 0..a, the later axes fixed at offs."""
        if a < 0:
            return corner(offs)
        return _lerp(blend(a - 1, (0,) + offs), blend(a - 1, (1,) + offs),
                     axes[a][2])

    out = blend(len(axes) - 1, ())
    out *= 2.0 / math.sqrt(len(axes))
    return out


@dataclass(frozen=True)
class PerlinParams:
    """Noise-field generator settings.

    frequency is in lattice cycles per metre; samples_per_meter sets the
    emission lattice pitch; threshold in [-1, 1] picks the occupied fraction
    (-1 emits every sample, and any finite value is accepted). The top
    octave's frequency times the domain's largest absolute coordinate must
    stay finite.
    """

    seed: int
    domain: Aabb
    frequency: float = 0.03
    octaves: int = 4
    persistence: float = 0.5
    threshold: float = 0.1
    samples_per_meter: float = 4.0

    def __post_init__(self):
        if self.octaves < 1:
            raise InvalidSpec(f"octaves must be >= 1, got {self.octaves}")
        if not math.isfinite(self.threshold):
            raise InvalidSpec(f"threshold must be finite, got {self.threshold}")
        if not 0.0 < self.persistence <= 1.0:
            raise InvalidSpec(f"persistence must be in (0, 1], got {self.persistence}")
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise InvalidSpec(f"frequency must be positive, got {self.frequency}")
        if not (math.isfinite(self.samples_per_meter) and self.samples_per_meter > 0):
            raise InvalidSpec(
                f"samples_per_meter must be positive, got {self.samples_per_meter}")
        if np.any(self.domain.edges <= 0):
            raise InvalidSpec("noise domain must have positive extent")
        try:
            top = math.ldexp(self.frequency, self.octaves - 1)
        except OverflowError:
            top = math.inf
        reach = float(np.abs([self.domain.min, self.domain.max]).max())
        if not math.isfinite(top * reach):
            raise InvalidSpec(
                f"{self.octaves} octaves overflow: the top frequency times "
                f"the domain's largest coordinate is not finite")


def _octave_sum(params: PerlinParams, tables,
                axes: list[np.ndarray]) -> np.ndarray:
    """Normalised octave sum on the lattice of axis vectors, as _noise
    takes them."""
    total = np.zeros(np.broadcast_shapes(*(a.shape for a in axes)))
    amp = 1.0
    amp_sum = 0.0
    freq = params.frequency
    for _ in range(params.octaves):
        total += amp * _noise(*tables, *(a * freq for a in axes))
        amp_sum += amp
        amp *= params.persistence
        freq *= 2.0
    return total / amp_sum


def _lattice_axes(domain: Aabb, spm: float) -> list[np.ndarray]:
    """Cell-centred sample coordinates along each axis; a lattice over
    MAX_RASTER_CELLS samples is refused before any axis is allocated.
    Axis lengths are clamped at 2^62 so an infinite span stays an int."""
    sizes = [max(1, math.floor(min(float(e) * spm, 2.0 ** 62)))
             for e in domain.edges]
    if math.prod(sizes) > MAX_RASTER_CELLS:
        raise InvalidSpec(
            f"sample lattice {'x'.join(map(str, sizes))} is over the "
            f"{MAX_RASTER_CELLS}-sample budget")
    return [lo + (np.arange(n) + 0.5) / spm
            for lo, n in zip(domain.min, sizes)]


# Samples per evaluation block: the noise temporaries stay a few MiB.
_BLOCK_SAMPLES = 1 << 16


def _blocks(shape: tuple[int, ...]):
    """Boxes of at most _BLOCK_SAMPLES samples tiling a lattice: whole
    trailing axes and a slab of axis 0 unless a row alone is larger."""
    step = []
    room = _BLOCK_SAMPLES
    for n in reversed(shape):
        step.insert(0, max(1, min(n, room)))
        room //= step[0]
    for start in itertools.product(*(range(0, n, s)
                                     for n, s in zip(shape, step))):
        yield tuple(slice(b, b + s) for b, s in zip(start, step))


def gen_perlin_cloud(params: PerlinParams) -> PointCloud:
    """Sample the noise field on its lattice and keep cells >= threshold."""
    axes = _lattice_axes(params.domain, params.samples_per_meter)
    d = len(axes)
    tables = _hash_tables(params.seed, d)
    keep = np.zeros(tuple(len(a) for a in axes), dtype=bool)
    for box in _blocks(keep.shape):
        parts = [a[s].reshape([-1 if j == k else 1 for j in range(d)])
                 for k, (a, s) in enumerate(zip(axes, box))]
        keep[box] = _octave_sum(params, tables, parts) >= params.threshold
    hit = np.nonzero(keep)
    return PointCloud(np.stack([a[i] for a, i in zip(axes, hit)], axis=1))


# ------------------------------------------------------------------ shapes


def _jitter(rng_seed: int, shape) -> np.ndarray:
    """Deterministic uniforms in [-0.35, 0.35) for in-lattice jitter."""
    out = (_stream(rng_seed, int(np.prod(shape))) / 2.0 ** 64 - 0.5) * 0.7
    return out.reshape(shape)


def _grid_params(n_u, n_v, seed):
    iu, iv = np.meshgrid(np.arange(n_u), np.arange(n_v), indexing="ij")
    ju = _jitter(derive_seed(seed, 0), iu.shape)
    jv = _jitter(derive_seed(seed, 1), iv.shape)
    u = (iu + 0.5 + ju).ravel() / n_u
    v = (iv + 0.5 + jv).ravel() / n_v
    return u, v


def _counts(length_u: float, length_v: float, density: float) -> tuple[int, int]:
    root = math.sqrt(density)
    return (max(1, round(length_u * root)), max(1, round(length_v * root)))


def _cuboid_points(p, density, seed):
    sx, sy, sz = (float(p[k]) for k in ("sx", "sy", "sz"))
    pieces = []
    spans = [(sy, sz, 0, sx), (sx, sz, 1, sy), (sx, sy, 2, sz)]
    piece = 0
    for lu, lv, fixed_axis, extent in spans:
        for offset in (0.0, extent):
            n_u, n_v = _counts(lu, lv, density)
            u, v = _grid_params(n_u, n_v, derive_seed(seed, piece))
            pts = np.empty((u.size, 3), dtype=float)
            other = [a for a in range(3) if a != fixed_axis]
            pts[:, other[0]] = u * lu
            pts[:, other[1]] = v * lv
            pts[:, fixed_axis] = offset
            pieces.append(pts)
            piece += 1
    return np.vstack(pieces)


def _cylinder_points(p, density, seed):
    r, h = float(p["radius"]), float(p["height"])
    pieces = []
    n_t, n_z = _counts(2 * math.pi * r, h, density)
    u, v = _grid_params(n_t, n_z, derive_seed(seed, 0))
    theta = u * 2 * math.pi
    pts = np.stack([r * np.cos(theta), r * np.sin(theta), v * h], axis=1)
    pieces.append(pts)
    n_rings = max(1, round(r * math.sqrt(density)))
    for cap_i, z in enumerate((0.0, h)):
        ring_pts = []
        for k in range(n_rings):
            rk = (k + 0.5) * r / n_rings
            m = max(1, round(2 * math.pi * rk * math.sqrt(density)))
            jit = _jitter(derive_seed(seed, 1 + cap_i, k), (m,))
            ang = (np.arange(m) + 0.5 + jit) / m * 2 * math.pi
            ring_pts.append(np.stack(
                [rk * np.cos(ang), rk * np.sin(ang), np.full(m, z)], axis=1))
        pieces.append(np.vstack(ring_pts))
    return np.vstack(pieces)


def _arch_points(p, density, seed):
    outer = float(p["outer_radius"])
    inner = float(p["inner_radius"])
    width = float(p["width"])
    pieces = []
    # Two flat half-annulus faces at y = 0 and y = width (local frame:
    # the arch curves in the x-z plane, z up, extruded along y).
    n_t, n_r = _counts(math.pi * 0.5 * (outer + inner), outer - inner, density)
    for face_i, y in enumerate((0.0, width)):
        u, v = _grid_params(n_t, n_r, derive_seed(seed, face_i))
        theta = u * math.pi
        rho = inner + v * (outer - inner)
        pieces.append(np.stack(
            [rho * np.cos(theta), np.full(u.size, y), rho * np.sin(theta)],
            axis=1))
    # Inner and outer half-cylindrical bands.
    for band_i, rho in enumerate((inner, outer)):
        n_t, n_y = _counts(math.pi * rho, width, density)
        u, v = _grid_params(n_t, n_y, derive_seed(seed, 2 + band_i))
        theta = u * math.pi
        pieces.append(np.stack(
            [rho * np.cos(theta), v * width, rho * np.sin(theta)], axis=1))
    # Two flat feet where the arch meets z = 0.
    for foot_i, sign in enumerate((1.0, -1.0)):
        n_x, n_y = _counts(outer - inner, width, density)
        u, v = _grid_params(n_x, n_y, derive_seed(seed, 4 + foot_i))
        x = sign * (inner + u * (outer - inner))
        pieces.append(np.stack(
            [x, v * width, np.zeros(u.size)], axis=1))
    return np.vstack(pieces)


def _helix_points(p, density, seed):
    big_r = float(p["radius"])
    pitch = float(p["pitch"])
    turns = float(p["turns"])
    rho = float(p["tube_radius"])
    c = pitch / (2 * math.pi)
    t_max = 2 * math.pi * turns
    speed = math.sqrt(big_r * big_r + c * c)
    n_t, n_phi = _counts(speed * t_max, 2 * math.pi * rho, density)
    u, v = _grid_params(n_t, n_phi, derive_seed(seed, 0))
    t = u * t_max
    phi = v * 2 * math.pi
    cos_t, sin_t = np.cos(t), np.sin(t)
    center = np.stack([big_r * cos_t, big_r * sin_t, c * t], axis=1)
    normal = np.stack([-cos_t, -sin_t, np.zeros_like(t)], axis=1)
    binorm = np.stack([c * sin_t, -c * cos_t, np.full_like(t, big_r)], axis=1)
    binorm /= speed
    offs = (np.cos(phi)[:, None] * normal + np.sin(phi)[:, None] * binorm) * rho
    return center + offs


# The demo scene used by the timing and retention experiments: four
# indoor-scale shapes, each (sampler, size parameters, translation).
_SCENE = (
    (_cuboid_points, {"sx": 4.0, "sy": 3.0, "sz": 2.5}, (1.0, 1.0, 0.0)),
    (_cylinder_points, {"radius": 1.2, "height": 3.0}, (10.0, 3.0, 0.0)),
    (_arch_points, {"outer_radius": 2.5, "inner_radius": 1.5, "width": 1.0},
     (7.0, 9.0, 0.0)),
    (_helix_points, {"radius": 2.0, "pitch": 1.2, "turns": 3.0,
                     "tube_radius": 0.3}, (3.0, 10.0, 0.2)),
)


def _surface_area(sampler, p) -> float:
    """Analytic surface area of the shape a sampler draws from."""
    if sampler is _cuboid_points:
        sx, sy, sz = float(p["sx"]), float(p["sy"]), float(p["sz"])
        return 2.0 * (sx * sy + sx * sz + sy * sz)
    if sampler is _cylinder_points:
        r, h = float(p["radius"]), float(p["height"])
        return 2 * math.pi * r * h + 2 * math.pi * r * r
    if sampler is _arch_points:
        outer, inner = float(p["outer_radius"]), float(p["inner_radius"])
        w = float(p["width"])
        flats = math.pi * (outer ** 2 - inner ** 2)
        bands = math.pi * (outer + inner) * w
        feet = 2 * (outer - inner) * w
        return flats + bands + feet
    big_r = float(p["radius"])
    c = float(p["pitch"]) / (2 * math.pi)
    length = math.sqrt(big_r ** 2 + c ** 2) * 2 * math.pi * float(p["turns"])
    return 2 * math.pi * float(p["tube_radius"]) * length


def scene_cloud(target_points: int, seed: int = 0) -> PointCloud:
    """Demo scene sampled at the surface density that lands near
    target_points; a target outside (0, MAX_RASTER_CELLS] is refused
    before anything is allocated."""
    if not 0 < target_points <= MAX_RASTER_CELLS:
        raise InvalidSpec(
            f"scene target must be a positive point count of at most "
            f"{MAX_RASTER_CELLS}, got {target_points}")
    area = sum(_surface_area(sampler, p) for sampler, p, _ in _SCENE)
    density = target_points / area
    return PointCloud(np.vstack([
        sampler(p, density, derive_seed(seed, i)) + move
        for i, (sampler, p, move) in enumerate(_SCENE)]))


# A ball and a box, interiors lattice-filled: the geometry never changes,
# only the sample density, which density-trend experiments rely on.
_SOLID_BALL = (np.array([6.0, 6.0, 6.0]), 0.75)
_SOLID_BOX = (np.array([11.0, 5.0, 4.0]), np.array([11.9, 5.8, 4.7]))
_SOLID_EDGE = 20.0
_SOLID_SEED = 0x50F1D

_SOLID_VOLUME = (4.0 / 3.0 * math.pi * _SOLID_BALL[1] ** 3
                 + float(np.prod(_SOLID_BOX[1] - _SOLID_BOX[0])))


def solid_domain() -> Aabb:
    """The cube the fixed solids sit in."""
    return Aabb(np.zeros(3), np.full(3, _SOLID_EDGE))


def _solid_lattice(box: Aabb, samples_per_meter: float, shape_index: int):
    axes = _lattice_axes(box, samples_per_meter)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    for a in range(3):
        jit = _jitter(derive_seed(_SOLID_SEED, shape_index, a), (len(pts),))
        pts[:, a] += jit / samples_per_meter
    return pts


def gen_solid_cloud(samples_per_meter: float) -> PointCloud:
    """Jittered volume fill of a fixed ball-and-box pair inside solid_domain.

    Lattice points are cell-centered at spacing 1/samples_per_meter over
    each solid's bounding box, displaced by a deterministic sub-cell jitter;
    points outside the solid are dropped. The solids themselves never move,
    so only the sampling density varies with the argument.
    """
    if not (math.isfinite(samples_per_meter) and samples_per_meter > 0):
        raise InvalidSpec(
            f"samples_per_meter must be positive, got {samples_per_meter}")
    center, radius = _SOLID_BALL
    ball_box = Aabb(center - radius, center + radius)
    pts = _solid_lattice(ball_box, samples_per_meter, 0)
    inside = np.linalg.norm(pts - center, axis=1) <= radius
    clouds = [pts[inside], _solid_lattice(Aabb(*_SOLID_BOX),
                                          samples_per_meter, 1)]
    return PointCloud(np.vstack(clouds))


def solid_cloud_near(target_points: int) -> PointCloud:
    """Solid-pair cloud at the density that lands near target_points."""
    spm = (target_points / _SOLID_VOLUME) ** (1.0 / 3.0)
    return gen_solid_cloud(spm)

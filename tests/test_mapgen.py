"""Map generator tests: noise fields, analytic shapes, volume solids."""
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import octoplan.mapgen as mapgen_mod
from octoplan.bench import BenchConfig
from octoplan.errors import InvalidSpec
from octoplan.geometry import Aabb, PointCloud
from octoplan.mapgen import (PerlinParams, derive_seed, gen_perlin_cloud,
                             gen_solid_cloud, scene_cloud, solid_cloud_near,
                             solid_domain)


def noise_domain(edge=10.0, d=2):
    return Aabb(np.zeros(d), np.full(d, float(edge)))


def reference_noise(params, coords):
    """Octave-summed noise at each row of coords, written from the kernel's
    documented operation order with no runs and no broadcasting between
    axes: every sample is evaluated on its own coordinates."""
    n, d = coords.shape
    perm = mapgen_mod._permutation(params.seed)
    grad, pick = ((mapgen_mod._GRAD2, perm & 7) if d == 2
                  else (mapgen_mod._GRAD3, perm % 12))
    total, amp, amp_sum, freq = np.zeros(n), 1.0, 0.0, params.frequency
    for _ in range(params.octaves):
        t = coords * freq
        cell = np.floor(t)
        frac = t - cell
        cell = np.mod(cell, 256.0).astype(np.int64)
        fade = frac * frac * frac * (frac * (frac * 6.0 - 15.0) + 10.0)
        corners = {}
        for offs in itertools.product((0, 1), repeat=d):
            h = cell[:, 0] + offs[0]
            for a in range(1, d):
                h = perm[h] + (cell[:, a] + offs[a])
            g = grad[pick[h]]
            dot = g[:, 0] * (frac[:, 0] - offs[0])
            for a in range(1, d):
                dot = dot + g[:, a] * (frac[:, a] - offs[a])
            corners[offs] = dot
        for a in range(d):
            # Blend along axis a; a key holds the later axes' offsets.
            blended = {}
            for k in itertools.product((0, 1), repeat=d - a - 1):
                lo, hi = corners[(0,) + k], corners[(1,) + k]
                blended[k] = lo + fade[:, a] * (hi - lo)
            corners = blended
        total = total + amp * (corners[()] * (2.0 / math.sqrt(d)))
        amp_sum += amp
        amp *= params.persistence
        freq *= 2.0
    return total / amp_sum


def lattice_noise(params, axes):
    """The kernel's octave sum on the lattice of axes, in C order."""
    d = len(axes)
    parts = [a.reshape([-1 if j == k else 1 for j in range(d)])
             for k, a in enumerate(axes)]
    tables = mapgen_mod._hash_tables(params.seed, d)
    return mapgen_mod._octave_sum(params, tables, parts).reshape(-1)


def lattice_coords(axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


# ------------------------------------------------------------------- noise


def random_axes(rng, lo, hi, sizes):
    return [np.sort(rng.uniform(lo, hi, n)) for n in sizes]


def test_noise_is_deterministic():
    params = PerlinParams(seed=42, domain=noise_domain())
    axes = random_axes(np.random.default_rng(1), 0, 10, (25, 20))
    a = lattice_noise(params, axes)
    b = lattice_noise(params, axes)
    assert np.array_equal(a, b)
    other = lattice_noise(PerlinParams(seed=43, domain=noise_domain()), axes)
    assert not np.array_equal(a, other)


def test_noise_stays_in_unit_range():
    rng = np.random.default_rng(2)
    for d, octaves in [(2, 1), (2, 4), (3, 1), (3, 4)]:
        params = PerlinParams(seed=7, domain=noise_domain(d=d),
                              octaves=octaves)
        axes = random_axes(rng, 0, 100, (45, 45) if d == 2 else (13,) * 3)
        values = lattice_noise(params, axes)
        assert np.all(np.abs(values) <= 1.0 + 1e-12)


def test_noise_vanishes_on_integer_lattice():
    # Gradient noise is zero wherever every scaled coordinate is integral,
    # and doubling frequencies keeps integral points integral.
    params = PerlinParams(seed=5, domain=noise_domain(), frequency=0.25)
    axes = [np.array([-4.0, 0.0, 4.0, 40.0]),
            np.array([-16.0, 0.0, 8.0, 12.0])]
    assert np.all(lattice_noise(params, axes) == 0.0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("octaves", [4, 70])
def test_lattice_noise_values_equal_reference(d, octaves):
    # Bit for bit, at a fractional and an integral coordinate in each cell
    # run; from octave 64 on, the scaled coordinates pass 2^53.
    rng = np.random.default_rng(8)
    axes = random_axes(rng, -100.0, 100.0, (40, 31) if d == 2 else (9, 8, 7))
    axes[0][::3] = np.floor(axes[0][::3])
    dom = Aabb(np.full(d, -100.0), np.full(d, 100.0))
    params = PerlinParams(seed=17, domain=dom, octaves=octaves)
    expected = reference_noise(params, lattice_coords(axes))
    assert lattice_noise(params, axes).tobytes() == expected.tobytes()


def test_perlin_cloud_threshold_floor_takes_whole_lattice():
    params = PerlinParams(seed=3, domain=noise_domain(10.0),
                          threshold=-1.0, samples_per_meter=2.0)
    cloud = gen_perlin_cloud(params)
    assert len(cloud) == 400


def test_perlin_cloud_threshold_above_range_is_empty():
    params = PerlinParams(seed=3, domain=noise_domain(10.0), threshold=1.5)
    assert len(gen_perlin_cloud(params)) == 0


def test_perlin_cloud_threshold_monotone():
    counts = []
    for threshold in (-0.2, 0.1, 0.4):
        params = PerlinParams(seed=11, domain=noise_domain(30.0),
                              threshold=threshold)
        counts.append(len(gen_perlin_cloud(params)))
    assert counts[0] >= counts[1] >= counts[2]
    assert counts[0] > counts[2]


def test_perlin_cloud_points_sit_on_the_sampling_lattice():
    params = PerlinParams(seed=9, domain=noise_domain(10.0),
                          samples_per_meter=2.0, threshold=0.0)
    cloud = gen_perlin_cloud(params)
    assert len(cloud) > 0
    slots = (cloud.points - 0.25) * 2.0
    assert np.allclose(slots, np.round(slots), atol=1e-12)


def test_perlin_cloud_byte_identical_across_calls():
    params = PerlinParams(seed=12, domain=noise_domain(20.0))
    a = gen_perlin_cloud(params).points
    b = gen_perlin_cloud(params).points
    assert a.tobytes() == b.tobytes()


def test_perlin_params_validation():
    with pytest.raises(InvalidSpec):
        PerlinParams(seed=1, domain=noise_domain(), octaves=0)
    with pytest.raises(InvalidSpec):
        PerlinParams(seed=1, domain=noise_domain(), persistence=0.0)
    with pytest.raises(InvalidSpec):
        PerlinParams(seed=1, domain=noise_domain(), frequency=-1.0)
    with pytest.raises(InvalidSpec):
        PerlinParams(seed=1, domain=noise_domain(), samples_per_meter=0.0)
    # A finite threshold outside [-1, 1] is allowed (an empty or a full
    # cloud); NaN and infinities are not.
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidSpec, match="threshold"):
            PerlinParams(seed=1, domain=noise_domain(), threshold=threshold)


def test_noise_bound_holds_at_high_octave_counts():
    # Scaled coordinates pass 2^63 from octave 63 on this domain; the
    # hash cell must wrap in float instead of overflowing the int cast.
    rng = np.random.default_rng(4)
    for d in (2, 3):
        axes = random_axes(rng, -100.0, 100.0,
                           (32, 32) if d == 2 else (10,) * 3)
        dom = Aabb(np.full(d, -100.0), np.full(d, 100.0))
        for octaves in (64, 70, 500):
            values = lattice_noise(
                PerlinParams(seed=13, domain=dom, octaves=octaves), axes)
            assert np.all(np.isfinite(values))
            assert np.all(np.abs(values) <= 1.0)


def test_overflowing_octave_count_is_rejected():
    # 0.03 * 2^1019 * 100 is finite; 0.03 * 2^1099 is not, nor is
    # 0.03 * 2^1019 times a coordinate of 1e10 (a negative minimum counts).
    small = Aabb(np.zeros(2), np.full(2, 100.0))
    far = Aabb(np.array([-1e10, 0.0]), np.array([0.0, 1.0]))
    PerlinParams(seed=1, domain=small, octaves=1020)
    for domain, octaves in ((small, 1100), (far, 1020), (small, 10 ** 9)):
        with pytest.raises(InvalidSpec, match="octaves"):
            PerlinParams(seed=1, domain=domain, octaves=octaves)


def campaign_world_params(trial):
    config = BenchConfig()
    return config.noise_params(derive_seed(config.campaign_seed, trial))


@pytest.mark.parametrize("params,digest", [
    (campaign_world_params(0),
     "0427f8671479d6c3dbe32ac72d4f229834b26b216eb50aacd6072e40cd542fb8"),
    (PerlinParams(seed=7, domain=Aabb(np.array([-3.0, 2.0, 1.0]),
                                      np.array([37.0, 32.0, 21.0])),
                  samples_per_meter=2.0, threshold=0.0),
     "8121f0d2674e5a26b4ff5da5fc23a20487284df61f15a33fe9abaa45839e4a5f"),
], ids=["campaign-world-0", "3d"])
def test_perlin_cloud_golden_digest(params, digest):
    # Digests of the points' bytes as every earlier release generated them.
    points = gen_perlin_cloud(params).points
    assert points.dtype == np.float64 and points.flags.c_contiguous
    assert hashlib.sha256(points.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("d,digest", [
    (2, "ee1ad2120d5522ed64b0d30adefc94546fa28dce6006cae877d71a880ab48836"),
    (3, "fb13488865de2718c8a288d36581ea5efb97e37b00e76799e905840f340257d4"),
])
def test_noise_values_golden_digest(d, digest):
    # A cloud keeps only threshold decisions, so a value one ulp off rarely
    # moves a point; these digests pin the bits of every value, which fix
    # the order of the float operations that the kernel and the reference
    # share.  Every seventh row is integral, where the fraction is 0.
    coords = (np.arange(3000 * d).reshape(-1, d) * 0.7548776662466927
              % 400.0 - 200.0)
    coords[::7] = np.floor(coords[::7])
    params = PerlinParams(seed=5, domain=noise_domain(d=d))
    values = reference_noise(params, coords)
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("lo,hi", [
    # 300 x 300: slabs of 218 rows, so the last slab is partial.
    ((-37.3, -12.1), (112.9, 138.2)),
    # one sample on axis 0 (edge below 1/spm).
    ((-5.0, 3.0), (-4.8, 90.0)),
    # 80000 x 1: slabs of 65536 rows.
    ((0.0, 0.0), (40000.0, 0.1)),
    # 7 x 100 x 100: slabs of 6 rows.
    ((-3.5, 0.0, -10.0), (0.0, 50.0, 40.0)),
    # 1 x 300 x 300: one row is over 2^16 samples, so axis 1 is cut too.
    ((-2.2, -3.0, -1.0), (-1.9, 147.0, 149.0)),
])
def test_lattice_cloud_equals_noise_on_explicit_coordinates(lo, hi):
    domain = Aabb(np.array(lo), np.array(hi))
    params = PerlinParams(seed=21, domain=domain, threshold=0.0,
                          samples_per_meter=2.0)
    cloud = gen_perlin_cloud(params)
    axes = [a + (np.arange(max(1, math.floor(e * 2.0))) + 0.5) / 2.0
            for a, e in zip(domain.min, domain.edges)]
    coords = lattice_coords(axes)
    expected = coords[reference_noise(params, coords) >= 0.0]
    assert 0 < len(expected) < len(coords)
    assert cloud.points.tobytes() == expected.tobytes()


def test_perlin_lattice_over_budget_is_refused_before_allocating():
    # 4e6 x 4e6 samples would be 16 TB of keep mask alone.
    huge = PerlinParams(seed=1, domain=Aabb(np.zeros(2), np.full(2, 1e6)))
    # 1e10 m at 1e300 samples/m overflows to an infinite axis length.
    endless = PerlinParams(seed=1, domain=Aabb(np.zeros(3), np.full(3, 1e10)),
                           samples_per_meter=1e300)
    tracemalloc.start()
    try:
        for params in (huge, endless):
            with pytest.raises(InvalidSpec, match="budget"):
                gen_perlin_cloud(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_perlin_lattice_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(mapgen_mod, "MAX_RASTER_CELLS", 400)
    fits = Aabb(np.zeros(2), np.array([10.0, 10.0]))
    over = Aabb(np.zeros(2), np.array([10.0, 10.5]))
    params = PerlinParams(seed=2, domain=fits, samples_per_meter=2.0,
                          threshold=-1.0)
    assert len(gen_perlin_cloud(params)) == 400
    with pytest.raises(InvalidSpec, match="20x21"):
        gen_perlin_cloud(PerlinParams(seed=2, domain=over,
                                      samples_per_meter=2.0))


# ------------------------------------------------------------------ shapes


def test_cuboid_count_tracks_area_times_density():
    params = {"sx": 1.0, "sy": 1.0, "sz": 1.0}
    pts = mapgen_mod._cuboid_points(params, 100.0, seed=77)
    area = mapgen_mod._surface_area(mapgen_mod._cuboid_points, params)
    assert area == pytest.approx(6.0)
    assert 0.9 * 600.0 <= len(pts) <= 1.1 * 600.0


def test_cuboid_points_lie_on_faces():
    pts = mapgen_mod._cuboid_points({"sx": 2.0, "sy": 1.0, "sz": 0.5}, 200.0,
                                    seed=77)
    sizes = np.array([2.0, 1.0, 0.5])
    assert np.all(pts >= -1e-12) and np.all(pts <= sizes + 1e-12)
    on_face = np.zeros(len(pts), dtype=bool)
    for a in range(3):
        on_face |= np.abs(pts[:, a]) <= 1e-12
        on_face |= np.abs(pts[:, a] - sizes[a]) <= 1e-12
    assert np.all(on_face)


def test_cylinder_points_lie_on_surface():
    pts = mapgen_mod._cylinder_points({"radius": 1.5, "height": 3.0}, 150.0,
                                      seed=77)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    on_band = (np.abs(rho - 1.5) <= 1e-9) & (pts[:, 2] >= -1e-12) \
        & (pts[:, 2] <= 3.0 + 1e-12)
    on_cap = (rho <= 1.5 + 1e-9) & (
        (np.abs(pts[:, 2]) <= 1e-12) | (np.abs(pts[:, 2] - 3.0) <= 1e-12))
    assert np.all(on_band | on_cap)
    assert on_band.any() and on_cap.any()


def test_arch_points_lie_on_surface():
    pts = mapgen_mod._arch_points(
        {"outer_radius": 2.5, "inner_radius": 1.5, "width": 1.0}, 150.0,
        seed=77)
    x, y, z = pts.T
    rho = np.hypot(x, z)
    tol = 1e-9
    in_y = (y >= -tol) & (y <= 1.0 + tol)
    in_rho = (rho >= 1.5 - tol) & (rho <= 2.5 + tol)
    above = z >= -tol
    face = (np.minimum(np.abs(y), np.abs(y - 1.0)) <= tol) & in_rho & above
    band = (np.minimum(np.abs(rho - 1.5), np.abs(rho - 2.5)) <= tol) \
        & in_y & above
    foot = (np.abs(z) <= tol) & in_y \
        & (np.abs(x) >= 1.5 - tol) & (np.abs(x) <= 2.5 + tol)
    assert np.all(face | band | foot)
    assert face.any() and band.any() and foot.any()


def test_helix_points_sit_one_tube_radius_off_the_centerline():
    pts = mapgen_mod._helix_points(
        {"radius": 2.0, "pitch": 1.2, "turns": 2.0, "tube_radius": 0.3}, 20.0,
        seed=77)
    c = 1.2 / (2 * math.pi)
    t = np.linspace(0.0, 2 * math.pi * 2.0, 20001)
    center = np.stack([2.0 * np.cos(t), 2.0 * np.sin(t), c * t], axis=1)
    # The polyline oracle can only overestimate the curve distance, and by
    # at most speed * dt / 2, well under the 1e-3 slack.
    for chunk in np.array_split(pts, max(1, len(pts) // 256)):
        gap = np.linalg.norm(chunk[:, None, :] - center[None, :, :], axis=2)
        nearest = gap.min(axis=1)
        assert np.all(nearest >= 0.3 - 1e-9)
        assert np.all(nearest <= 0.3 + 1e-3)


def test_translation_shifts_points_exactly():
    # The scene is each shape's own samples, in table order, moved by its
    # translation and by nothing else.
    target, seed = 4000, 4
    pts = scene_cloud(target, seed=seed).points
    area = sum(mapgen_mod._surface_area(sampler, p)
               for sampler, p, _ in mapgen_mod._SCENE)
    start = 0
    for i, (sampler, p, move) in enumerate(mapgen_mod._SCENE):
        local = sampler(p, target / area, derive_seed(seed, i))
        block = pts[start:start + len(local)]
        assert np.array_equal(block, local + np.array(move))
        start += len(local)
    assert start == len(pts)


def test_shape_cloud_deterministic_and_seed_sensitive():
    a = scene_cloud(3000, seed=1).points
    b = scene_cloud(3000, seed=1).points
    c = scene_cloud(3000, seed=2).points
    assert a.tobytes() == b.tobytes()
    assert a.shape == c.shape and not np.array_equal(a, c)


def test_scene_target_is_refused_before_allocation(monkeypatch):
    for bad in (0, -5, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidSpec, match="scene target"):
            scene_cloud(bad)
    monkeypatch.setattr(mapgen_mod, "MAX_RASTER_CELLS", 1000)
    assert len(scene_cloud(1000)) > 0
    tracemalloc.start()
    try:
        # Ten million points would take 240 MB; the refusal takes none.
        with pytest.raises(InvalidSpec, match="at most 1000"):
            scene_cloud(10_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_scene_cloud_hits_point_target():
    cloud = scene_cloud(20000, seed=6)
    assert 0.8 * 20000 <= len(cloud) <= 1.2 * 20000
    assert cloud.dim == 3


def test_scene_cloud_golden_digest():
    # Pins the in-surface jitter of every shape kind, which no noise or
    # downsample golden reads.
    points = scene_cloud(30_000, seed=5).points
    assert hashlib.sha256(points.tobytes()).hexdigest() == (
        "95d0015beca9b9f34461d2cb7719f8890ea7f60317b39dd7900c9601e754a1eb")


# ------------------------------------------------------------------ solids


def test_solid_cloud_deterministic():
    a = gen_solid_cloud(6.0).points
    b = gen_solid_cloud(6.0).points
    assert a.tobytes() == b.tobytes()


def test_solid_cloud_density_controls_count():
    low = len(gen_solid_cloud(5.0))
    high = len(gen_solid_cloud(9.0))
    assert 0 < low < high


def test_solid_cloud_near_hits_target():
    for target in (50000, 150000):
        cloud = solid_cloud_near(target)
        assert 0.8 * target <= len(cloud) <= 1.2 * target


def test_solid_points_fill_the_two_bodies():
    pts = gen_solid_cloud(7.0).points
    dom = solid_domain()
    assert np.all(pts >= dom.min) and np.all(pts <= dom.max)
    in_ball = np.linalg.norm(pts - np.array([6.0, 6.0, 6.0]), axis=1) <= 0.75
    in_box = np.all((pts >= np.array([11.0, 5.0, 4.0]))
                    & (pts <= np.array([11.9, 5.8, 4.7])), axis=1)
    assert np.all(in_ball | in_box)
    assert in_ball.any() and in_box.any()


def test_solid_cloud_rejects_bad_density():
    with pytest.raises(InvalidSpec):
        gen_solid_cloud(0.0)

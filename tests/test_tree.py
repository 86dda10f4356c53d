"""Subdivision tree tests: depth selection, placement, partition, read-out."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octoplan.bench import BenchConfig
from octoplan.errors import (DepthCapExceeded, InvalidSpec, PointOutOfDomain)
from octoplan.geometry import Aabb, PointCloud
from octoplan.mapgen import gen_perlin_cloud, solid_cloud_near, solid_domain
from octoplan.planner import refined
from octoplan.tree import (BLOCK_POINTS, DEFAULT_DEPTH_CAP, McrSpec, OctoTree,
                           build, coarser, compute_depth, dynamic_partition,
                           morton_encode, occupied_leaves)


def unit_domain(d, edge=1.0):
    return Aabb(np.zeros(d), np.full(d, float(edge)))


# -------------------------------------------------------------------- oracle
# The placement rule spelled out level by level, independent of the tree's
# boundary tables: a descent places points, and two walks over the code bits
# recover grid indices and split boxes.


def descend_codes(pts, domain, depth):
    """Morton code of each point's cell at the given depth, computed by the
    successive-midpoint comparisons: one group of d bits per level, axis a
    in bit a of the group."""
    n, d = pts.shape
    lo = np.tile(domain.min, (n, 1))
    hi = np.tile(domain.max, (n, 1))
    code = np.zeros(n, dtype=np.int64)
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        upper = pts >= mid
        code <<= d
        for a in range(d):
            code |= upper[:, a].astype(np.int64) << a
        lo = np.where(upper, mid, lo)
        hi = np.where(upper, hi, mid)
    return code


def decode_index(codes, depth, dim):
    """The (n, dim) grid indices of the codes, bit by bit."""
    idx = np.zeros((len(codes), dim), dtype=np.int64)
    for b in range(depth):
        for a in range(dim):
            idx[:, a] |= ((codes >> (b * dim + a)) & 1) << b
    return idx


def split_boxes(domain, codes, depth):
    """Split boxes (lo, hi rows) of the cells with these codes, halving the
    domain at the successive midpoints the code bits choose."""
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


def pushed_leaves(pts, domain, depth):
    """Leaf code -> point ids, pushing one point at a time down the
    descent."""
    leaves = {}
    for i, p in enumerate(pts):
        code = int(descend_codes(p[None, :], domain, depth)[0])
        leaves.setdefault(code, []).append(i)
    return leaves


def descended_leaves(pts, domain, depth):
    """Leaf code -> point ids, from one descent of the whole cloud: the
    same comparisons as pushed_leaves, row by row, for clouds too large to
    push one point at a time."""
    leaves = {}
    for i, code in enumerate(descend_codes(pts, domain, depth).tolist()):
        leaves.setdefault(code, []).append(i)
    return leaves


def assert_matches_oracle(tree, pts, leaves=None):
    """Codes, grid indices, split boxes, point ids and tight boxes equal the
    oracle's for the same points, domain and depth (pushed_leaves unless
    the leaves are given)."""
    if leaves is None:
        leaves = pushed_leaves(pts, tree.domain, tree.depth)
    codes = np.array(sorted(leaves), dtype=np.int64)
    index = decode_index(codes, tree.depth, tree.dim)
    lo, hi = split_boxes(tree.domain, codes, tree.depth)
    recs = occupied_leaves(tree)
    assert tree.codes.tolist() == codes.tolist()
    assert [r.index for r in recs] == [tuple(i) for i in index.tolist()]
    for k, rec in enumerate(recs):
        ids = leaves[int(codes[k])]
        assert rec.point_ids.tolist() == ids
        assert np.array_equal(rec.split_boundary.min, lo[k])
        assert np.array_equal(rec.split_boundary.max, hi[k])
        assert np.array_equal(rec.node_boundary.min, pts[ids].min(axis=0))
        assert np.array_equal(rec.node_boundary.max, pts[ids].max(axis=0))


# ------------------------------------------------------------ compute_depth


def mcr_cell(epsilon_max, k=2.0):
    """Cell edge of a controllable region, as the CLI passes it."""
    mcr = McrSpec(epsilon_max=epsilon_max, k=k)
    return mcr.k * mcr.edge


def test_compute_depth_power_of_two():
    assert compute_depth(16.0, mcr_cell(0.5)) == 3


def test_compute_depth_formula_arithmetic():
    # 200 / (2 * 1.5) = 66.67, so the ceiling of its log2 is 7.
    assert compute_depth(200.0, mcr_cell(0.75)) == 7


def test_compute_depth_clamps_to_zero():
    assert compute_depth(8.0, mcr_cell(2.0)) == 0


def test_compute_depth_clamps_to_cap():
    assert compute_depth(1e9, mcr_cell(0.5)) == 16


def test_compute_depth_caps_ratios_that_overflow():
    # Both ratios overflow to inf, which has no integer log2 ceiling.
    assert compute_depth(1e300, mcr_cell(1e-10)) == 16
    assert compute_depth(200.0, 1e-320) == 16


def test_compute_depth_exact_powers_have_no_rounding_slack():
    # With k * edge = 2, a domain of 2^n meters needs exactly n - 1 levels.
    for n in range(1, 12):
        assert compute_depth(2.0 ** n, mcr_cell(0.5)) == n - 1


def test_mcr_spec_validation():
    with pytest.raises(InvalidSpec):
        McrSpec(epsilon_max=0.0)
    with pytest.raises(InvalidSpec):
        McrSpec(epsilon_max=-1.0)
    with pytest.raises(InvalidSpec):
        McrSpec(epsilon_max=1.0, k=1.0)
    assert McrSpec(epsilon_max=1.5).edge == 3.0


# --------------------------------------------------------------------- build


def test_single_center_point():
    dom = unit_domain(2, 8.0)
    tree = build(PointCloud(np.array([[4.0, 4.0]])), dom, depth=2)
    recs = occupied_leaves(tree)
    assert len(recs) == 1
    assert np.allclose(recs[0].split_boundary.edges, 2.0)
    assert recs[0].point_count == 1


def test_one_point_per_quadrant():
    dom = unit_domain(2, 4.0)
    pts = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0], [3.0, 3.0]])
    tree = build(PointCloud(pts), dom, depth=1)
    recs = occupied_leaves(tree)
    assert len(recs) == 4
    assert all(r.point_count == 1 for r in recs)
    assert {r.index for r in recs} == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_build_membership_scan():
    rng = np.random.default_rng(2)
    dom = unit_domain(2)
    pts = rng.uniform(0, 1, (10_000, 2))
    tree = build(PointCloud(pts), dom, depth=5)
    total = 0
    for leaf in tree.leaves:
        grp = tree.points_array()[leaf.point_ids]
        total += len(grp)
        lo, hi = leaf.split_boundary.min, leaf.split_boundary.max
        assert np.all(grp >= lo)
        for a in range(2):
            closed = hi[a] == dom.max[a]
            if closed:
                assert np.all(grp[:, a] <= hi[a])
            else:
                assert np.all(grp[:, a] < hi[a])
    assert total == 10_000


def test_build_rejects_out_of_domain_point():
    dom = unit_domain(2)
    pts = np.array([[0.5, 0.5], [1.5, 0.5]])
    with pytest.raises(PointOutOfDomain) as err:
        build(PointCloud(pts), dom, depth=2)
    assert err.value.index == 1


def test_build_empty_cloud():
    for dim in (2, 3):
        tree = build(PointCloud.empty(dim), unit_domain(dim), depth=3)
        assert occupied_leaves(tree) == []
        # The table a new tree starts with, dtypes and shapes included.
        fresh = OctoTree(unit_domain(dim), 3)
        for name in ("codes", "index", "order", "offsets"):
            got, want = getattr(tree, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        pts = tree.points_array()
        assert pts.shape == (0, dim) and not pts.flags.writeable


def test_build_depth_zero_root_is_leaf():
    pts = np.array([[0.25, 0.25], [0.75, 0.75]])
    tree = build(PointCloud(pts), unit_domain(2), depth=0)
    recs = occupied_leaves(tree)
    assert len(recs) == 1
    assert recs[0].point_count == 2
    assert np.allclose(recs[0].split_boundary.edges, 1.0)


def test_build_matches_push_point_sequence():
    rng = np.random.default_rng(8)
    dom = unit_domain(3, 4.0)
    pts = rng.uniform(0, 4, (300, 3))
    assert_matches_oracle(build(PointCloud(pts), dom, depth=3), pts)


def test_points_array_is_read_only():
    tree = build(PointCloud(np.array([[0.5, 0.5]])), unit_domain(2), depth=2)
    with pytest.raises(ValueError):
        tree.points_array()[0, 0] = 0.25
    assert not OctoTree(unit_domain(2), depth=2).points_array().flags.writeable


def test_build_keeps_its_own_copy_of_the_points():
    cloud = PointCloud(np.array([[0.25, 0.25], [0.75, 0.75]]))
    tree = build(cloud, unit_domain(2), depth=1)
    cloud.points[:] = 0.9
    assert tree.points_array().tolist() == [[0.25, 0.25], [0.75, 0.75]]
    dynamic_partition(tree)
    recs = occupied_leaves(tree)
    assert [r.index for r in recs] == [(1, 1), (3, 3)]
    assert recs[0].node_boundary.min.tolist() == [0.25, 0.25]


def test_depth_that_is_not_a_count_is_refused():
    cloud = PointCloud(np.array([[0.5, 0.5]]))
    for depth in (-1, 2.5, 3.0, "3"):
        with pytest.raises(InvalidSpec, match="^depth must be"):
            build(cloud, unit_domain(2), depth=depth)
    assert build(cloud, unit_domain(2), depth=np.int64(3)).depth == 3


def test_depth_cap_above_limit_is_refused_before_allocating():
    dom = unit_domain(2)
    cloud = PointCloud(np.array([[0.5, 0.5]]))
    tracemalloc.start()
    try:
        with pytest.raises(DepthCapExceeded):
            OctoTree(dom, depth=DEFAULT_DEPTH_CAP + 1)
        with pytest.raises(DepthCapExceeded):
            build(cloud, dom, depth=31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def traced_build_peak_per_point(cloud, domain, depth):
    tracemalloc.start()
    try:
        build(cloud, domain, depth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / len(cloud.points)


def test_build_peak_memory_per_point():
    # Copy of the points, the (d, n) index columns, the codes, the sort's
    # permutation and the sorted codes; the blocks' temporaries are small.
    config = BenchConfig()
    world = gen_perlin_cloud(config.noise_params(2))
    assert traced_build_peak_per_point(world, config.domain, 8) <= 56.5
    solids = solid_cloud_near(300_000)
    assert traced_build_peak_per_point(solids, solid_domain(), 7) <= 72.5


def test_domain_whose_midpoints_overflow_is_refused():
    big = np.finfo(float).max / 2
    faces = OctoTree(Aabb(np.full(2, -big), np.full(2, big)),
                     depth=16).boundaries
    assert np.isfinite(faces).all() and np.all(np.diff(faces, axis=1) > 0)
    with pytest.raises(ValueError, match="overflow"):
        OctoTree(Aabb(np.full(2, 1e308), np.full(2, 1.7e308)), depth=1)


# ----------------------------------------------------------------- placement


def test_midpoint_tie_goes_to_upper_orthant():
    tree = build(PointCloud(np.array([[1.0, 1.0]])), unit_domain(2, 2.0),
                 depth=1)
    assert [r.index for r in occupied_leaves(tree)] == [(1, 1)]


def test_identical_points_share_leaf():
    tree = build(PointCloud(np.array([[0.3, 0.3], [0.3, 0.3]])),
                 unit_domain(2), depth=4)
    recs = occupied_leaves(tree)
    assert len(recs) == 1
    assert recs[0].point_ids.tolist() == [0, 1]


def test_domain_max_corner_lands_in_maximal_orthant():
    depth = 3
    tree = build(PointCloud(np.array([[8.0, 8.0]])), unit_domain(2, 8.0),
                 depth=depth)
    assert [r.index for r in occupied_leaves(tree)] == \
        [(2 ** depth - 1, 2 ** depth - 1)]


def test_push_point_index_arithmetic_oracle():
    """Each point's leaf index is what pushing it alone down the midpoints
    by hand gives."""
    rng = np.random.default_rng(5)
    depth = 4
    pts = rng.uniform(0, 16, (200, 2))
    tree = build(PointCloud(pts), unit_domain(2, 16.0), depth=depth)
    leaf_of = {int(i): rec.index for rec in occupied_leaves(tree)
               for i in rec.point_ids}
    for i, p in enumerate(pts):
        expect = []
        for a in range(2):
            lo, hi, idx = 0.0, 16.0, 0
            for _ in range(depth):
                mid = 0.5 * (lo + hi)
                bit = int(p[a] >= mid)
                idx = idx * 2 + bit
                lo, hi = (mid, hi) if bit else (lo, mid)
            expect.append(idx)
        assert leaf_of[i] == tuple(expect)


# --------------------------------------------------------- dynamic_partition


def test_partition_single_point_halves_leaf_edge():
    dom = unit_domain(2, 8.0)
    tree = build(PointCloud(np.array([[3.0, 5.0]])), dom, depth=2)
    dynamic_partition(tree)
    recs = occupied_leaves(tree)
    assert tree.depth == 3
    assert len(recs) == 1
    assert np.allclose(recs[0].split_boundary.edges, 1.0)


def test_partition_separates_points_in_different_halves():
    dom = unit_domain(2, 4.0)
    pts = np.array([[0.5, 0.5], [1.5, 0.5]])
    tree = build(PointCloud(pts), dom, depth=1)
    assert len(occupied_leaves(tree)) == 1
    dynamic_partition(tree)
    recs = occupied_leaves(tree)
    assert len(recs) == 2
    assert all(r.point_count == 1 for r in recs)


@pytest.mark.parametrize("d", [2, 3])
def test_partition_equals_fresh_build(d):
    rng = np.random.default_rng(13 + d)
    dom = unit_domain(d, 10.0)
    pts = rng.uniform(0, 10, (1000, d))
    grown = build(PointCloud(pts), dom, depth=4)
    dynamic_partition(grown)
    fresh = build(PointCloud(pts), dom, depth=5)
    ra, rb = occupied_leaves(grown), occupied_leaves(fresh)
    assert [r.index for r in ra] == [r.index for r in rb]
    for a, b in zip(ra, rb):
        assert a.point_count == b.point_count
        assert np.array_equal(a.node_boundary.min, b.node_boundary.min)
        assert np.array_equal(a.node_boundary.max, b.node_boundary.max)
        assert np.array_equal(a.split_boundary.min, b.split_boundary.min)
        assert np.array_equal(a.split_boundary.max, b.split_boundary.max)
    leaves_a = [l for l in grown.leaves if len(l.point_ids)]
    leaves_b = [l for l in fresh.leaves if len(l.point_ids)]
    for la, lb in zip(leaves_a, leaves_b):
        assert sorted(map(int, la.point_ids)) == sorted(map(int, lb.point_ids))


def midpoint_coords(lo, hi, depth, rng, n):
    """Lower faces of random cells at this depth on one axis, found by the
    successive midpoints the tree splits at; all lie on split planes."""
    out = []
    for _ in range(n):
        a, b = lo, hi
        for _ in range(depth):
            mid = 0.5 * (a + b)
            if rng.integers(2):
                a = mid
            else:
                b = mid
        out.append(a)
    return np.array(out)


def tricky_cloud(rng, d, depth, n=400):
    """Random domain and snapped_points in it."""
    origin = rng.uniform(-10.0, 10.0, size=d)
    dom = Aabb(origin, origin + rng.uniform(3.0, 30.0, size=d))
    return dom, snapped_points(rng, dom, depth, n)


def snapped_points(rng, dom, depth, n):
    """Random points with coordinates snapped onto split midpoints down to
    the given depth and onto the domain's max faces, plus repeated rows."""
    d = dom.dim
    pts = np.clip(dom.min + rng.uniform(size=(n, d)) * dom.edges,
                  dom.min, dom.max)
    for a in range(d):
        snap = rng.uniform(size=n) < 0.3
        pts[snap, a] = midpoint_coords(dom.min[a], dom.max[a], depth, rng,
                                       int(snap.sum()))
        pts[rng.uniform(size=n) < 0.05, a] = dom.max[a]
    repeats = min(20, n // 2)
    if repeats:
        pts[-repeats:] = pts[rng.integers(0, n - repeats, size=repeats)]
    return pts


def assert_same_leaf_tables(a, b):
    ra, rb = occupied_leaves(a), occupied_leaves(b)
    assert [r.index for r in ra] == [r.index for r in rb]
    for x, y in zip(ra, rb):
        assert x.point_count == y.point_count
        for box in ("split_boundary", "node_boundary"):
            assert np.array_equal(getattr(x, box).min, getattr(y, box).min)
            assert np.array_equal(getattr(x, box).max, getattr(y, box).max)
    assert [leaf.point_ids.tolist() for leaf in a.leaves] == \
        [leaf.point_ids.tolist() for leaf in b.leaves]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("d", [2, 3])
def test_two_partitions_equal_build_two_levels_deeper(d, seed):
    rng = np.random.default_rng([d, seed])
    depth = int(rng.integers(0, 5))
    dom, pts = tricky_cloud(rng, d, depth + 2)
    grown = build(PointCloud(pts), dom, depth=depth)
    dynamic_partition(grown)
    dynamic_partition(grown)
    assert grown.depth == depth + 2
    assert_same_leaf_tables(grown, build(PointCloud(pts), dom,
                                         depth=depth + 2))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("d", [2, 3])
def test_push_point_tree_equals_bulk_build(d, seed):
    """build equals the oracle that pushes one point at a time."""
    rng = np.random.default_rng([d, seed, 1])
    depth = int(rng.integers(0, 6))
    dom, pts = tricky_cloud(rng, d, depth)
    assert_matches_oracle(build(PointCloud(pts), dom, depth=depth), pts)


def test_build_depth_16_in_2d_matches_oracle():
    rng = np.random.default_rng(16)
    dom, pts = tricky_cloud(rng, 2, 16, n=300)
    assert_matches_oracle(build(PointCloud(pts), dom, depth=16), pts)
    tree = build(PointCloud(pts), dom, depth=15)
    assert_matches_oracle(tree, pts)
    dynamic_partition(tree)
    assert_matches_oracle(tree, pts)


def test_ulp_domain_with_repeated_boundaries_matches_oracle():
    # 1e-6 m at 1e6 m is about 8,600 ulps, so from depth 14 on neighbouring
    # boundaries coincide and some cells are empty intervals.
    dom = Aabb(np.full(2, 1e6), np.full(2, 1e6 + 1e-6))
    rng = np.random.default_rng(6)
    pts = snapped_points(rng, dom, 16, 300)
    tree = build(PointCloud(pts), dom, depth=15)
    assert np.any(np.diff(tree.boundaries, axis=1) == 0)
    assert np.all(np.diff(tree.boundaries, axis=1) >= 0)
    assert_matches_oracle(tree, pts)
    dynamic_partition(tree)
    assert_matches_oracle(tree, pts)


def oracle_domain(rng, kind, d):
    """A domain of one kind: negative, tiny (an edge of 1e-12 to 1e-9),
    ulp (1 to 63 ulps wide at 1e6) or mixed signs."""
    if kind == "negative":
        hi = -rng.uniform(0.5, 50.0, size=d)
        return Aabb(hi - rng.uniform(1.0, 100.0, size=d), hi)
    if kind == "tiny":
        lo = rng.uniform(-1.0, 1.0, size=d)
        return Aabb(lo, lo + rng.uniform(1e-12, 1e-9, size=d))
    if kind == "ulp":
        lo = 1e6 + rng.uniform(0.0, 1.0, size=d)
        return Aabb(lo, lo + rng.integers(1, 64, size=d) * np.spacing(lo))
    lo = rng.uniform(-10.0, 10.0, size=d)
    return Aabb(lo, lo + rng.uniform(3.0, 30.0, size=d))


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    depth=st.integers(min_value=0, max_value=DEFAULT_DEPTH_CAP),
    kind=st.sampled_from(["mixed", "negative", "tiny", "ulp"]),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_tables_match_descent_oracle(d, depth, kind, n, seed):
    rng = np.random.default_rng(seed)
    dom = oracle_domain(rng, kind, d)
    pts = snapped_points(rng, dom, min(depth + 1, DEFAULT_DEPTH_CAP), n)
    tree = build(PointCloud(pts), dom, depth=depth)
    assert_matches_oracle(tree, pts)
    if depth < DEFAULT_DEPTH_CAP:
        dynamic_partition(tree)
        assert_matches_oracle(tree, pts)


def leaf_id_sets(tree):
    return [sorted(ids.tolist())
            for ids in np.split(tree.order, tree.offsets[1:-1])]


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    depth=st.integers(min_value=1, max_value=8),
    kind=st.sampled_from(["mixed", "negative", "tiny", "ulp"]),
    n=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@example(d=3, depth=4, kind="mixed", n=0, seed=0)
def test_coarser_views_equal_fresh_builds(d, depth, kind, n, seed):
    # Every view down the chain from one deep build has a fresh build's
    # table; only the order of ids within a leaf may differ.
    rng = np.random.default_rng(seed)
    dom = oracle_domain(rng, kind, d)
    pts = snapped_points(rng, dom, depth, n)
    deep = build(PointCloud(pts), dom, depth=depth)
    tree = deep
    while tree.depth > 0:
        view = coarser(tree)
        assert refined(view) is tree
        assert view.order is deep.order
        assert view.points_array() is deep.points_array()
        fresh = build(PointCloud(pts), dom, depth=tree.depth - 1)
        assert view.depth == fresh.depth
        for table in ("codes", "index", "offsets", "boundaries"):
            assert np.array_equal(getattr(view, table),
                                  getattr(fresh, table)), table
        assert leaf_id_sets(view) == leaf_id_sets(fresh)
        tree = view
    with pytest.raises(InvalidSpec):
        coarser(tree)


@pytest.mark.parametrize("depth", [0, 1, 8, DEFAULT_DEPTH_CAP])
@pytest.mark.parametrize("d", [2, 3])
def test_cloud_over_several_blocks_matches_descent_oracle(d, depth):
    # Three whole blocks and five points of a fourth: leaves and their
    # ascending point ids span block boundaries and a partial last block.
    n = 3 * BLOCK_POINTS + 5
    rng = np.random.default_rng([d, depth, 13])
    dom = oracle_domain(rng, "mixed", d)
    pts = snapped_points(rng, dom, depth, n)
    tree = build(PointCloud(pts), dom, depth=depth)
    for table in (tree.codes, tree.order, tree.offsets, tree.index):
        assert table.dtype == np.int64
    assert tree.index.flags.c_contiguous
    assert_matches_oracle(tree, pts, descended_leaves(pts, dom, depth))


def test_partition_respects_depth_cap():
    tree = build(PointCloud(np.array([[0.5, 0.5]])), unit_domain(2),
                 depth=DEFAULT_DEPTH_CAP)
    with pytest.raises(DepthCapExceeded):
        dynamic_partition(tree)


def test_partition_empty_tree():
    tree = build(PointCloud.empty(2), unit_domain(2), depth=1)
    dynamic_partition(tree)
    assert tree.depth == 2
    assert occupied_leaves(tree) == []


def test_conservation_through_mixed_mutations():
    rng = np.random.default_rng(21)
    dom = unit_domain(2, 6.0)
    tree = build(PointCloud(rng.uniform(0, 6, (557, 2))), dom, depth=3)
    for _ in range(2):
        dynamic_partition(tree)
        ids = np.concatenate([r.point_ids for r in occupied_leaves(tree)])
        assert sorted(ids.tolist()) == list(range(557))


# ------------------------------------------------------------ read-out / misc


def test_occupied_leaves_empty_and_single():
    empty = build(PointCloud.empty(2), unit_domain(2), depth=2)
    assert occupied_leaves(empty) == []
    single = build(PointCloud(np.array([[0.3, 0.7]])), unit_domain(2), depth=2)
    recs = occupied_leaves(single)
    assert len(recs) == 1
    assert np.array_equal(recs[0].node_boundary.min, [0.3, 0.7])
    assert np.array_equal(recs[0].node_boundary.max, [0.3, 0.7])


def morton_key(index, depth):
    """Scalar Morton key: bit b of axis a of the index lands at b*d + a.
    The reference for morton_encode here and for the tie-break keys of the
    cell-by-cell JPS oracle in test_planner."""
    d = len(index)
    code = 0
    for b in range(depth):
        for a in range(d):
            code |= ((index[a] >> b) & 1) << (b * d + a)
    return code


def test_occupied_leaves_morton_order():
    rng = np.random.default_rng(4)
    tree = build(PointCloud(rng.uniform(0, 1, (400, 2))),
                 unit_domain(2), depth=4)
    keys = [morton_key(r.index, tree.depth) for r in occupied_leaves(tree)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_records_are_snapshots_across_partitions():
    dom = unit_domain(2, 8.0)
    tree = build(PointCloud(np.array([[0.25, 0.25], [0.5, 0.5],
                                      [0.75, 0.75]])), dom, depth=3)
    before = occupied_leaves(tree)
    kept = [(r.index, r.point_ids.copy(), r.split_boundary.min.copy(),
             r.split_boundary.max.copy(), r.node_boundary.min.copy(),
             r.node_boundary.max.copy()) for r in before]
    # Splits the read leaf, shrinking its split box, tight box and ids.
    dynamic_partition(tree)
    assert len(occupied_leaves(tree)) == 2
    for rec, (index, ids, slo, shi, nlo, nhi) in zip(before, kept):
        assert rec.index == index
        assert np.array_equal(rec.point_ids, ids)
        assert np.array_equal(rec.split_boundary.min, slo)
        assert np.array_equal(rec.split_boundary.max, shi)
        assert np.array_equal(rec.node_boundary.min, nlo)
        assert np.array_equal(rec.node_boundary.max, nhi)


def test_package_exports_resolve():
    import octoplan
    missing = [name for name in octoplan.__all__
               if not hasattr(octoplan, name)]
    assert missing == []


def test_morton_key_interleave():
    assert morton_key((0, 0), 1) == 0
    assert morton_key((1, 0), 1) == 1
    assert morton_key((0, 1), 1) == 2
    assert morton_key((1, 1), 1) == 3
    assert morton_key((2, 1), 2) == 0b0110
    idx = np.array([[0, 0], [1, 0], [0, 1], [2, 1]])
    assert morton_encode(idx, 2).tolist() == [0, 1, 2, 6]
    rng = np.random.default_rng(5)
    # 32, 6 and 30 code bits take the unsigned 32-bit accumulator, 48 and
    # 33 the int64 one.
    for d, depth in ((2, 16), (3, 16), (2, 3), (3, 10), (3, 11)):
        idx = rng.integers(0, 2 ** depth, (50, d))
        code = morton_encode(idx, depth)
        assert code.dtype == np.int64
        assert code.tolist() == \
            [morton_key(tuple(row), depth) for row in idx.tolist()]
    # Orthant flags, as dynamic_partition and downsample pass them.
    flags = rng.uniform(size=(50, 3)) < 0.5
    assert morton_encode(flags, 1).tolist() == \
        [morton_key(tuple(row), 1) for row in flags.astype(int).tolist()]
    empty = morton_encode(np.empty((0, 3), dtype=np.int64), 11)
    assert empty.dtype == np.int64 and empty.shape == (0,)


def test_node_boundary_inside_split_boundary():
    rng = np.random.default_rng(9)
    dom = unit_domain(3, 5.0)
    tree = build(PointCloud(rng.uniform(0, 5, (800, 3))), dom, depth=3)
    for rec in occupied_leaves(tree):
        assert np.all(rec.node_boundary.min >= rec.split_boundary.min - 1e-12)
        assert np.all(rec.node_boundary.max <= rec.split_boundary.max + 1e-12)
        assert np.allclose(rec.split_boundary.edges, dom.edges / 2 ** 3)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=80),
    depth=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_conservation_property(n, depth, seed):
    rng = np.random.default_rng(seed)
    dom = unit_domain(2, 3.0)
    pts = rng.uniform(0, 3, (n, 2))
    tree = build(PointCloud(pts), dom, depth=depth)
    recs = occupied_leaves(tree)
    assert sum(r.point_count for r in recs) == n
    if depth < 16:
        dynamic_partition(tree)
        assert sum(r.point_count for r in occupied_leaves(tree)) == n

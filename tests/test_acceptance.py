"""End-to-end acceptance gates across the whole package.

One test per gate. Values the gates ask to be reported rather than
asserted (improvement percentages, retention rates, build milliseconds)
go through the acceptance_log fixture and print in the terminal summary.
"""
import statistics
from time import perf_counter

import numpy as np
import pytest
from scipy.spatial import ConvexHull as SciHull

import octoplan.pool as pool_mod
from octoplan.bench import (TIMING_COLUMNS, BenchConfig, aggregate_to_json,
                            records_to_csv, run_campaign)
from octoplan.cli import main
from octoplan.cloudio import write_binary, write_xyz
from octoplan.downsample import convexify_leaf, downsample_tree
from octoplan.geometry import Aabb, PointCloud, aabb_of
from octoplan.gridmap import (UniformGridMap, gap_preserved, grid_to_json,
                              grid_to_pgm, rasterize_adaptive)
from octoplan.mapgen import (PerlinParams, gen_perlin_cloud, gen_solid_cloud,
                             scene_cloud, solid_cloud_near, solid_domain)
from octoplan.planner import (PlanRequest, dijkstra_plan, jps_plan,
                              plan_with_refinement)
from octoplan.tree import build, dynamic_partition, occupied_leaves


@pytest.fixture(scope="session")
def campaign():
    """The full fixed-versus-adaptive campaign at default settings."""
    config = BenchConfig()
    t0 = perf_counter()
    records, aggregate = run_campaign(config)
    return config, records, aggregate, perf_counter() - t0


def test_criterion_01_jps_cost_matches_dijkstra(acceptance_log):
    t0 = perf_counter()
    solved = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        density = 0.10 + 0.30 * float(rng.uniform())
        occ = rng.uniform(size=(30, 30)) < density
        grid = UniformGridMap((30, 30), np.ones(2), np.zeros(2), occ)
        free = np.argwhere(~occ)
        start = tuple(int(v) for v in free[rng.integers(len(free))])
        goal = tuple(int(v) for v in free[rng.integers(len(free))])
        fast = jps_plan(grid, PlanRequest(start, goal))
        slow = dijkstra_plan(grid, PlanRequest(start, goal))
        assert (fast is None) == (slow is None), \
            f"reachability verdicts differ on seed {seed}"
        if fast is not None:
            assert abs(fast.cost - slow.cost) <= 1e-9, \
                f"costs differ on seed {seed}"
            solved += 1
    acceptance_log.append(
        f"criterion 1: 1000/1000 grids agree ({solved} solvable) "
        f"in {perf_counter() - t0:.1f} s")


def test_criterion_02_adaptive_dominates_fixed(campaign, acceptance_log):
    config, _, aggregate, elapsed = campaign
    lines = []
    for cell in config.cell_sizes_m:
        entry = aggregate["per_cell"][repr(cell)]
        assert entry["trials"] == config.trials
        assert entry["adaptive_successes"] >= entry["fixed_successes"]
        assert entry["fixed_only_successes"] == 0
        lines.append(f"{cell} m fixed {entry['fixed_successes']}"
                     f"/adaptive {entry['adaptive_successes']}"
                     f" of {entry['trials']}")
    acceptance_log.append(
        "criterion 2: " + "; ".join(lines) + f" ({elapsed / 60:.1f} min)")


def test_criterion_03_success_and_length_improvements(campaign,
                                                      acceptance_log):
    config, _, aggregate, _ = campaign
    lines = []
    for cell in config.cell_sizes_m:
        entry = aggregate["per_cell"][repr(cell)]
        fixed_rate = entry["fixed_successes"] / entry["trials"]
        adaptive_rate = entry["adaptive_successes"] / entry["trials"]
        assert adaptive_rate >= fixed_rate
        assert entry["joint_successes"] > 0
        assert entry["mean_adaptive_length_m"] <= \
            entry["mean_fixed_length_m"] + 1e-9
        lines.append(f"{cell} m success {(adaptive_rate - fixed_rate) * 100:+.1f} pp"
                     f" length {entry['length_improvement_pct']:+.3f}%")
    acceptance_log.append("criterion 3: " + "; ".join(lines))


def test_criterion_04_hull_vertices_survive_downsampling(acceptance_log):
    rng = np.random.default_rng(2024)
    t0 = perf_counter()
    for case in range(100):
        d = 2 if case < 50 else 3
        n = int(rng.integers(50, 5001))
        if case % 2:
            pts = rng.normal(size=(n, d)) * float(rng.uniform(0.5, 3.0))
        else:
            pts = rng.uniform(0.0, 10.0, size=(n, d))
        kept = np.asarray(convexify_leaf(pts))
        expected = {tuple(pts[i]) for i in SciHull(pts).vertices}
        actual = {tuple(kept[i]) for i in SciHull(kept).vertices}
        assert actual == expected, f"hull changed on case {case}"
    acceptance_log.append(
        f"criterion 4: 100/100 leaves hull-exact in {perf_counter() - t0:.1f} s")


def test_criterion_05_retention_falls_with_density(acceptance_log):
    t0 = perf_counter()
    ladder = []
    for target in (100_000, 300_000, 500_000, 900_000):
        cloud = solid_cloud_near(target)
        tree = build(cloud, solid_domain(), depth=7)
        ladder.append((target, downsample_tree(tree).retention_rate))
    rates = [rate for _, rate in ladder]
    assert all(a > b for a, b in zip(rates, rates[1:])), rates
    acceptance_log.append(
        "criterion 5: retention "
        + " -> ".join(f"{rate:.3f}@{target // 1000}k" for target, rate in ladder)
        + f" in {perf_counter() - t0:.0f} s")


def test_criterion_06_build_time_scales_with_depth_and_size(acceptance_log):
    cloud = scene_cloud(110_000, seed=0)
    dom = aabb_of(cloud)
    build(cloud, dom, 6)  # warm-up so first-touch costs do not skew round 1
    depths = list(range(4, 9))
    samples = {d: [] for d in depths}
    # Interleaved rounds keep machine-load drift from biasing one depth.
    for _ in range(5):
        for d in depths:
            t0 = perf_counter()
            build(cloud, dom, d)
            samples[d].append(perf_counter() - t0)
    medians = [statistics.median(samples[d]) for d in depths]
    assert all(b >= a for a, b in zip(medians, medians[1:])), medians

    double = scene_cloud(220_000, seed=0)
    dom2 = aabb_of(double)
    ones, twos = [], []
    for _ in range(5):
        t0 = perf_counter()
        build(cloud, dom, 6)
        ones.append(perf_counter() - t0)
        t0 = perf_counter()
        build(double, dom2, 6)
        twos.append(perf_counter() - t0)
    ratio = statistics.median(twos) / statistics.median(ones)
    assert ratio <= 2.5, ratio
    acceptance_log.append(
        "criterion 6: depth medians "
        + ", ".join(f"{d}:{m * 1e3:.1f} ms" for d, m in zip(depths, medians))
        + f"; 2n/n build ratio {ratio:.2f}")


def test_criterion_07_partition_equals_fresh_build(acceptance_log):
    rng = np.random.default_rng(7)
    t0 = perf_counter()
    for case in range(100):
        d = int(rng.integers(2, 4))
        depth = int(rng.integers(2, 7))
        n = int(rng.integers(200, 1501))
        origin = rng.uniform(-10.0, 10.0, size=d)
        edges = rng.uniform(5.0, 40.0, size=d)
        dom = Aabb(origin, origin + edges)
        pts = origin + rng.uniform(size=(n, d)) * edges
        grown = build(PointCloud(pts), dom, depth=depth)
        dynamic_partition(grown)
        fresh = build(PointCloud(pts), dom, depth=depth + 1)
        ra, rb = occupied_leaves(grown), occupied_leaves(fresh)
        assert [r.index for r in ra] == [r.index for r in rb], f"case {case}"
        for a, b in zip(ra, rb):
            assert a.point_count == b.point_count
            assert np.array_equal(a.node_boundary.min, b.node_boundary.min)
            assert np.array_equal(a.node_boundary.max, b.node_boundary.max)
            assert np.array_equal(a.split_boundary.min, b.split_boundary.min)
            assert np.array_equal(a.split_boundary.max, b.split_boundary.max)
        ids_a = [sorted(map(int, leaf.point_ids))
                 for leaf in grown.leaves if len(leaf.point_ids)]
        ids_b = [sorted(map(int, leaf.point_ids))
                 for leaf in fresh.leaves if len(leaf.point_ids)]
        assert ids_a == ids_b, f"case {case}"
    acceptance_log.append(
        f"criterion 7: 100/100 partitions leaf-identical "
        f"in {perf_counter() - t0:.1f} s")


def test_criterion_08_gaps_survive_rasterization(acceptance_log):
    rng = np.random.default_rng(88)
    dom = Aabb(np.zeros(2), np.full(2, 20.0))
    depth = 5
    cell = 20.0 / 2 ** depth
    coords = np.arange(0.15, 20.0, 0.3)
    gx, gy = np.meshgrid(coords, coords, indexing="ij")
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    t0 = perf_counter()
    passes = 0
    for _ in range(100):
        axis = int(rng.integers(2))
        width = cell * float(rng.uniform(2.0, 3.0))
        offset = float(rng.uniform(2.0, 18.0 - width))
        inside = (lattice[:, axis] >= offset) \
            & (lattice[:, axis] < offset + width)
        tree = build(PointCloud(lattice[~inside]), dom, depth=depth)
        grid = rasterize_adaptive(tree)
        lo, hi = [0.5, 0.5], [19.5, 19.5]
        lo[axis], hi[axis] = offset, offset + width
        passes += bool(gap_preserved(grid, Aabb(np.array(lo), np.array(hi))))
    assert passes == 100, f"only {passes}/100 slabs crossed"
    acceptance_log.append(
        f"criterion 8: 100/100 slabs preserved in {perf_counter() - t0:.1f} s")


def test_criterion_09_refinement_opens_subcell_corridors(acceptance_log):
    # Corridor width 1.5 m sits strictly between the round-1 cell (1 m)
    # and the round-0 cell (2 m), so every placement needs exactly one
    # refinement round.
    rng = np.random.default_rng(99)
    dom = Aabb(np.zeros(2), np.full(2, 16.0))
    ys = np.arange(0.025, 16.0, 0.05)
    t0 = perf_counter()
    for case in range(20):
        wall_x = float(rng.uniform(3.0, 13.0))
        k = int(rng.integers(2, 14))
        delta = float(rng.uniform(0.0, 0.5))
        gap_lo, gap_hi = k - delta, k - delta + 1.5
        keep = (ys < gap_lo) | (ys >= gap_hi)
        cloud = PointCloud(np.column_stack(
            [np.full(int(keep.sum()), wall_x), ys[keep]]))
        tree = build(cloud, dom, depth=3)
        result = plan_with_refinement(tree, (1.0, 8.0), (15.0, 8.0),
                                      max_rounds=1)
        assert result.rounds_used == 1, f"case {case}"
    acceptance_log.append(
        f"criterion 9: 20/20 corridors open at round 1 "
        f"in {perf_counter() - t0:.1f} s")


def test_criterion_10_reruns_are_byte_identical(tmp_path, acceptance_log):
    t0 = perf_counter()
    config = BenchConfig(trials=20)
    rec1, agg1 = run_campaign(config)
    rec2, agg2 = run_campaign(config)

    def strip_timing(text):
        return "\n".join(",".join(row.split(",")[:-TIMING_COLUMNS])
                         for row in text.strip().splitlines())

    assert strip_timing(records_to_csv(rec1)) == \
        strip_timing(records_to_csv(rec2))
    assert aggregate_to_json(agg1) == aggregate_to_json(agg2)

    params = PerlinParams(seed=123,
                          domain=Aabb(np.zeros(2), np.array([60.0, 45.0])),
                          samples_per_meter=2.0)
    assert gen_perlin_cloud(params).points.tobytes() == \
        gen_perlin_cloud(params).points.tobytes()
    assert scene_cloud(30_000, seed=5).points.tobytes() == \
        scene_cloud(30_000, seed=5).points.tobytes()
    assert gen_solid_cloud(6.0).points.tobytes() == \
        gen_solid_cloud(6.0).points.tobytes()

    blobs = []
    for run in range(2):
        cloud = gen_perlin_cloud(params)
        tree = build(cloud, params.domain, depth=5)
        grid = rasterize_adaptive(tree)
        out = tmp_path / f"run{run}"
        out.mkdir()
        write_xyz(cloud, out / "cloud.xyz")
        write_binary(cloud, out / "cloud.bin")
        (out / "grid.json").write_text(grid_to_json(grid))
        (out / "grid.pgm").write_text(grid_to_pgm(grid))
        blobs.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
    assert blobs[0] == blobs[1]
    acceptance_log.append(
        f"criterion 10: campaign, generators, and artifacts byte-identical "
        f"in {perf_counter() - t0:.0f} s")


def test_criterion_10_cli_campaign_is_identical_at_two_workers(
        tmp_path, monkeypatch, capsys, acceptance_log):
    # The CLI rerun of the gate's campaign: bench at --workers 1 and 2
    # (two processes even on one CPU) writes the same rows and aggregate.
    t0 = perf_counter()
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["--workers", workers, "--out-dir", str(out),
                     "bench", "--trials", "20"]) == 0
        rows = (out / "records.csv").read_text().strip().splitlines()
        outputs.append(([r.rsplit(",", TIMING_COLUMNS)[0] for r in rows],
                        (out / "aggregate.json").read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0]) == 1 + 20 * len(BenchConfig().cell_sizes_m)
    acceptance_log.append(
        f"criterion 10: bench rows identical at --workers 1 and 2 "
        f"in {perf_counter() - t0:.0f} s")

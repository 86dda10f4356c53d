"""Campaign bookkeeping and command-line behavior tests."""
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import octoplan.bench as bench_mod
import octoplan.cli as cli_mod
import octoplan.downsample as downsample_mod
import octoplan.geometry as geometry_mod
import octoplan.gridmap as gridmap_mod
import octoplan.mapgen as mapgen_mod
import octoplan.planner as planner_mod
import octoplan.pool as pool_mod
import octoplan.tree as tree_mod
from octoplan.bench import (CSV_COLUMNS, TIMING_COLUMNS, BenchConfig,
                            TrialRecord, aggregate_to_json, records_to_csv,
                            run_campaign)
from octoplan.cli import main
from octoplan.cloudio import read_xyz, write_binary, write_xyz
from octoplan.errors import InvalidSpec, NoPathAtMaxDepth
from octoplan.geometry import PointCloud
from octoplan.gridmap import UniformGridMap
from octoplan.mapgen import derive_seed
from octoplan.tree import DEFAULT_DEPTH_CAP, compute_depth


def strip_timing(csv_text):
    """Drop the trailing wall-clock columns from every row by position."""
    rows = []
    for row in csv_text.strip().splitlines():
        rows.append(",".join(row.split(",")[:-TIMING_COLUMNS]))
    return "\n".join(rows)


def rle_decode(runs, dims):
    """Occupancy from free-first run lengths in axis-0-fastest order."""
    values = np.arange(len(runs)) % 2 == 1
    return np.repeat(values, runs).reshape(dims, order="F")


def small_config(**overrides):
    base = dict(domain_x_m=40.0, domain_y_m=30.0, cell_sizes_m=(2.0, 3.0),
                trials=2, campaign_seed=99, samples_per_meter=2.0)
    base.update(overrides)
    return BenchConfig(**base)


# ------------------------------------------------------------------ config


def test_config_text_round_trip():
    config = small_config(noise_threshold=0.25, refinement_rounds=1)
    assert BenchConfig.from_text(config.to_text()) == config


def test_config_ignores_comments_and_blanks():
    text = "# campaign\n\ntrials = 5\ncell_sizes_m = 1.5,2.5  # two sizes\n"
    config = BenchConfig.from_text(text)
    assert config.trials == 5
    assert config.cell_sizes_m == (1.5, 2.5)


def test_config_parse_errors_name_the_line():
    with pytest.raises(InvalidSpec, match="line 2"):
        BenchConfig.from_text("trials = 3\nnonsense\n")
    with pytest.raises(InvalidSpec, match="line 1"):
        BenchConfig.from_text("mystery_key = 3\n")
    with pytest.raises(InvalidSpec, match="line 3"):
        BenchConfig.from_text("trials = 3\n\ntrials = lots\n")


def test_config_validation():
    with pytest.raises(InvalidSpec):
        BenchConfig(trials=0)
    with pytest.raises(InvalidSpec):
        BenchConfig(cell_sizes_m=())
    with pytest.raises(InvalidSpec):
        BenchConfig(cell_sizes_m=(2.0, -1.0))
    with pytest.raises(InvalidSpec):
        BenchConfig(min_separation_fraction=1.0)
    # Counts that are not integers are refused before any world is drawn.
    for field in ("trials", "refinement_rounds", "max_endpoint_attempts"):
        for value in (1.5, "2"):
            with pytest.raises(InvalidSpec, match=f"^{field} must be an int"):
                BenchConfig(**{field: value})
    assert BenchConfig(trials=np.int64(2)).trials == 2
    with pytest.raises(InvalidSpec, match="^campaign_seed must be an int"):
        BenchConfig(campaign_seed=1.5)
    config = BenchConfig(campaign_seed=np.int64(5))
    assert type(config.campaign_seed) is int
    assert config == BenchConfig(campaign_seed=5)
    # Non-finite values are refused at construction, not inside a world.
    for value in (math.nan, math.inf):
        for field in ("domain_x_m", "domain_y_m", "noise_threshold"):
            with pytest.raises(InvalidSpec):
                BenchConfig(**{field: value})
        with pytest.raises(InvalidSpec):
            BenchConfig(cell_sizes_m=(2.0, value))
    # Real settings that are not real numbers are refused by name; numpy
    # reals and ints are kept as Python floats.
    for field, value in (("domain_x_m", "3"),
                         ("min_separation_fraction", "0.5"),
                         ("noise_threshold", "0.1"), ("epsilon_max_m", "1.3"),
                         ("cell_sizes_m", ("2.6", 3.0))):
        with pytest.raises(InvalidSpec, match=f"^{field} must be a real"):
            BenchConfig(**{field: value})
    with pytest.raises(InvalidSpec, match="^cell_sizes_m must be a sequence"):
        BenchConfig(cell_sizes_m=3.0)
    config = BenchConfig(domain_x_m=np.float32(200),
                         cell_sizes_m=[np.float64(2.6), 3])
    assert type(config.domain_x_m) is float
    assert config.cell_sizes_m == (2.6, 3.0)
    assert all(type(v) is float for v in config.cell_sizes_m)
    with pytest.raises(InvalidSpec, match="^epsilon_max must be a real"):
        tree_mod.McrSpec(epsilon_max="1.3")
    with pytest.raises(InvalidSpec, match="^k must be a real"):
        tree_mod.McrSpec(epsilon_max=1.3, k=None)


# ----------------------------------------------------------- trial records


def test_compute_depth_campaign_cell_examples():
    assert compute_depth(200.0, 2.6) == 7
    assert compute_depth(200.0, 3.0) == 7
    assert compute_depth(200.0, 3.4) == 6
    assert compute_depth(16.0, 2.0) == 3
    assert compute_depth(10.0, 20.0) == 0
    assert compute_depth(1e9, 0.5) == DEFAULT_DEPTH_CAP


def test_record_row_formatting():
    record = TrialRecord(
        trial_index=3, cell_size_m=2.5, effective_cell_m=1.25,
        trial_seed=42, depth=4, n_points=100,
        start_x_m=1.0, start_y_m=2.0, goal_x_m=3.0, goal_y_m=4.0,
        endpoint_fallback=np.bool_(True), fixed_success=False,
        adaptive_success=True, fixed_length_m=math.nan,
        adaptive_length_m=12.5, adaptive_rounds=1,
        build_seconds=0.5, fixed_plan_seconds=0.0, adaptive_plan_seconds=0.25)
    row = record.to_row()
    assert len(row) == len(CSV_COLUMNS)
    by_name = dict(zip(CSV_COLUMNS, row))
    assert by_name["endpoint_fallback"] == 1
    assert by_name["fixed_success"] == 0
    assert by_name["adaptive_success"] == 1
    assert by_name["fixed_length_m"] == ""
    assert by_name["adaptive_length_m"] == "12.5"
    assert CSV_COLUMNS[-TIMING_COLUMNS:] == [
        "build_seconds", "fixed_plan_seconds", "adaptive_plan_seconds"]


def test_empty_world_trial_succeeds_both_ways():
    # threshold above the noise range gives an empty cloud, so both maps
    # are all-free with identical geometry and must agree exactly.
    config = small_config(domain_x_m=20.0, domain_y_m=15.0,
                          cell_sizes_m=(2.0,), trials=1, noise_threshold=1.5)
    records, aggregate = run_campaign(config)
    assert len(records) == 1
    rec = records[0]
    assert rec.n_points == 0
    assert rec.fixed_success and rec.adaptive_success
    assert rec.adaptive_rounds == 0
    assert rec.adaptive_length_m == rec.fixed_length_m
    entry = aggregate["per_cell"]["2.0"]
    assert entry["joint_successes"] == 1
    assert entry["length_improvement_pct"] == 0.0


def test_failed_adaptive_trial_records_search_time(monkeypatch):
    # A failure reports its summed search time; the row must carry that,
    # not the wall time of the whole refinement loop.
    def failing_plan(tree, start, goal, max_rounds):
        time.sleep(0.05)
        raise NoPathAtMaxDepth("no route", rounds_attempted=2,
                               plan_seconds=0.125)

    monkeypatch.setattr(bench_mod, "plan_with_refinement", failing_plan)
    config = small_config(domain_x_m=20.0, domain_y_m=15.0,
                          cell_sizes_m=(2.0,), trials=1, noise_threshold=1.5)
    records, _ = run_campaign(config)
    assert not records[0].adaptive_success
    assert records[0].adaptive_rounds == 2
    assert records[0].adaptive_plan_seconds == 0.125


@pytest.mark.parametrize("cells,threshold,held", [
    ((3.0, 6.0, 2.0), 0.1, [False, True, False]),
    ((3.0, 6.0, 2.0), 1.5, [False, True, False]),
    ((6.0, 2.0), 0.1, [False, False]),
], ids=["noise", "empty", "refined-first"])
def test_world_builds_once_and_rows_equal_fresh_builds(monkeypatch, cells,
                                                       threshold, held):
    # 3.0, 6.0 and 2.0 m resolve to depths 4, 3 and 5 on the 40 m edge:
    # deep, shallow, deeper.  The world builds depth 3 once and partitions
    # it; every non-timing column must equal a row built fresh at its depth.
    # In "refined-first" the depth-3 cell fails twice, so its refinement
    # makes the depth-5 tree before the 2.0 m cell asks for it.  held marks
    # the cells whose depth the world's dict already held.
    config = small_config(cell_sizes_m=cells, noise_threshold=threshold)
    depth_of = {3.0: 4, 6.0: 3, 2.0: 5}
    assert [compute_depth(40.0, c) for c in cells] == \
        [depth_of[c] for c in cells]
    clouds, depths = [], []

    def world(params):
        clouds.append(mapgen_mod.gen_perlin_cloud(params))
        return clouds[-1]

    def build(cloud, domain, depth):
        depths.append(depth)
        return tree_mod.build(cloud, domain, depth)

    monkeypatch.setattr(bench_mod, "gen_perlin_cloud", world)
    monkeypatch.setattr(bench_mod, "build_tree", build)
    records, _ = run_campaign(config)
    assert depths == [3] * config.trials
    assert [r.build_seconds == 0 for r in records] == held * config.trials
    assert (records[0].n_points == 0) == (threshold > 1)
    if cells == (6.0, 2.0):
        assert [r.adaptive_rounds for r in records[::2]] == \
            [2] * config.trials

    fresh = []
    for trial, cloud in enumerate(clouds):
        seed = derive_seed(config.campaign_seed, trial)
        for k, cell in enumerate(config.cell_sizes_m):
            one = replace(config, cell_sizes_m=(cell,))
            fresh.append(bench_mod.run_trial_cell(
                cloud, config.domain, cell, trial, seed, k, one, {}))
    assert depths == [3] * config.trials + \
        [depth_of[c] for c in cells] * config.trials
    assert [r.to_row()[:-TIMING_COLUMNS] for r in records] == \
        [r.to_row()[:-TIMING_COLUMNS] for r in fresh]


def test_campaign_partitions_each_world_depth_once(monkeypatch):
    # The cells of a default world are at depths 7, 7 and 6, and failing
    # cells refine up to two levels.  The world's own 6 -> 7 partition and
    # every refinement take trees from one refined() chain, so each
    # (world, depth) is partitioned once, all through planner's
    # dynamic_partition.
    worlds, made = [], []
    partition = planner_mod.dynamic_partition

    def world(params):
        worlds.append(params.seed)
        return mapgen_mod.gen_perlin_cloud(params)

    def counted(tree):
        made.append((len(worlds) - 1, tree.depth))
        return partition(tree)

    monkeypatch.setattr(bench_mod, "gen_perlin_cloud", world)
    monkeypatch.setattr(planner_mod, "dynamic_partition", counted)
    records, _ = run_campaign(BenchConfig(trials=4))
    assert any(r.adaptive_rounds for r in records)
    assert len(made) == len(set(made))
    assert {w for w, depth in made if depth == 6} == set(range(4))


def test_campaign_releases_map_tables_between_worlds(monkeypatch):
    # The planner's memo of the last map's search tables must not stay
    # alive while the next world's noise is generated.
    held = []

    def world(params):
        held.append(planner_mod._map_memo is not None)
        return mapgen_mod.gen_perlin_cloud(params)

    monkeypatch.setattr(planner_mod, "_map_memo", None)
    monkeypatch.setattr(bench_mod, "gen_perlin_cloud", world)
    records, _ = run_campaign(small_config(trials=3))
    assert any(r.fixed_success for r in records)
    assert held == [False, False, False]
    assert planner_mod._map_memo is None


def test_campaign_rerun_is_deterministic():
    config = small_config()
    records1, aggregate1 = run_campaign(config)
    records2, aggregate2 = run_campaign(config)
    assert strip_timing(records_to_csv(records1)) == \
        strip_timing(records_to_csv(records2))
    assert aggregate_to_json(aggregate1) == aggregate_to_json(aggregate2)


@pytest.mark.parametrize("overrides,csv_digest,aggregate_digest", [
    ({}, "29e7975e59e3d6fed354f3311fba295c58141119e3127d4261e534d713e4d2d1",
     "378163d8ab528523d05540ce5c5b690e3aed865f9e9dbc9de122280651716833"),
    # Cell edges 199.3 / 128 and 151.7 / 128 are not dyadic, so cell-centre
    # differences round and the endpoint distances are not exact.  A cell
    # centre drawn on the fixed grid can lie on a refined depth's face, where
    # the tree's face table, not the fixed grid's floor, places it.
    (dict(domain_x_m=199.3, domain_y_m=151.7),
     "f04ef6cf756dc7b58bc91a1253f1b9b85d7f0a77b8a8187814d2ba0b3d95f470",
     "83964da5494e0038798eeb205bf36afb6cf899682f2a6f63e51e8ac8666e49c3"),
    # No pair is 0.97 of the diagonal apart: every row takes the farthest
    # pair drawn.
    (dict(domain_x_m=199.3, domain_y_m=151.7, min_separation_fraction=0.97),
     "f6b24834987206c2ce80e330f06674e0eba2214ce58c3b73f3089dc9c89e67e7",
     "305c0ef96548472a73651727d0dd7765f0a9403c283023e37214d1ce93c7db70"),
], ids=["default", "non-dyadic", "non-dyadic-fallback"])
def test_campaign_golden_digest(overrides, csv_digest, aggregate_digest):
    # Digests of the first seven worlds: the non-timing CSV columns and the
    # aggregate JSON.
    records, aggregate = run_campaign(BenchConfig(trials=7, **overrides))
    text = strip_timing(records_to_csv(records))
    assert hashlib.sha256(text.encode()).hexdigest() == csv_digest
    assert hashlib.sha256(
        aggregate_to_json(aggregate).encode()).hexdigest() == aggregate_digest


def test_aggregate_matches_independent_csv_recount():
    config = small_config(trials=4)
    records, aggregate = run_campaign(config)
    rows = list(csv.DictReader(records_to_csv(records).splitlines()))
    assert len(rows) == 4 * len(config.cell_sizes_m)
    for cell in config.cell_sizes_m:
        mine = [r for r in rows if float(r["cell_size_m"]) == cell]
        entry = aggregate["per_cell"][repr(cell)]
        assert entry["trials"] == len(mine) == 4
        assert entry["fixed_successes"] == \
            sum(int(r["fixed_success"]) for r in mine)
        assert entry["adaptive_successes"] == \
            sum(int(r["adaptive_success"]) for r in mine)
        joint = [r for r in mine
                 if r["fixed_success"] == "1" and r["adaptive_success"] == "1"]
        assert entry["joint_successes"] == len(joint)
        assert entry["fixed_only_successes"] == sum(
            1 for r in mine
            if r["fixed_success"] == "1" and r["adaptive_success"] == "0")
        assert entry["adaptive_only_successes"] == sum(
            1 for r in mine
            if r["adaptive_success"] == "1" and r["fixed_success"] == "0")
        if joint:
            mean_fixed = np.mean([float(r["fixed_length_m"]) for r in joint])
            mean_adaptive = np.mean(
                [float(r["adaptive_length_m"]) for r in joint])
            assert entry["mean_fixed_length_m"] == pytest.approx(mean_fixed)
            assert entry["mean_adaptive_length_m"] == \
                pytest.approx(mean_adaptive)
            assert entry["length_improvement_pct"] == pytest.approx(
                (mean_fixed - mean_adaptive) / mean_fixed * 100.0)


# --------------------------------------------------------- endpoint draws


def center_distance(grid, a, b):
    """The documented endpoint distance, sqrt(dx*dx + dy*dy)."""
    dx, dy = grid.cell_center(a) - grid.cell_center(b)
    return math.sqrt(dx * dx + dy * dy)


def draw_endpoints_per_pair(grid, rng, min_dist, attempts):
    """The per-pair draw loop of earlier releases, on center_distance: the
    oracle of bench._draw_endpoints."""
    free = np.argwhere(~grid.occupancy)
    if len(free) < 2:
        return None
    best = None
    best_dist = -1.0
    for _ in range(attempts):
        a, b = rng.integers(0, len(free), size=2)
        if a == b:
            continue
        dist = center_distance(grid, free[a], free[b])
        if dist >= min_dist:
            return tuple(free[a]), tuple(free[b]), False
        if dist > best_dist:
            best_dist = dist
            best = (tuple(free[a]), tuple(free[b]))
    if best is None:
        return None
    return best[0], best[1], True


@st.composite
def endpoint_cases(draw):
    w = draw(st.integers(1, 12))
    h = draw(st.integers(1, 12))
    # Few free cells are drawn often: none, one and exactly two.
    n_free = draw(st.one_of(st.integers(0, 2), st.integers(0, w * h)))
    layout = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    occ = np.ones(w * h, dtype=bool)
    occ[layout.permutation(w * h)[:n_free]] = False
    edge = st.floats(0.01, 50.0, allow_nan=False)
    corner = st.floats(-1e3, 1e3, allow_nan=False)
    grid = UniformGridMap((w, h), [draw(edge), draw(edge)],
                          [draw(corner), draw(corner)], occ.reshape(w, h))
    seed = draw(st.integers(0, 2 ** 32))
    attempts = draw(st.integers(1, 60))
    free = np.argwhere(~grid.occupancy)
    pairs = np.random.default_rng(seed).integers(
        0, max(1, len(free)), size=(attempts, 2))
    dists = [center_distance(grid, free[a], free[b])
             for a, b in pairs if a != b]
    mode = draw(st.sampled_from(["farthest", "drawn", "fraction"]))
    if dists and mode != "fraction":
        # A drawn pair's own distance as the threshold puts a decision on
        # >=, at the farthest one on the hit-or-fallback choice.
        min_dist = max(dists) if mode == "farthest" else draw(
            st.sampled_from(dists))
    else:
        # Fractions above 1 of the diagonal make every draw a fallback.
        diag = float(np.linalg.norm(np.asarray(grid.dims) * grid.cell_size))
        min_dist = diag * draw(st.floats(0.01, 1.5))
    return grid, seed, min_dist, attempts


@settings(max_examples=1000, deadline=None)
@given(case=endpoint_cases())
def test_bulk_endpoint_draw_equals_per_pair_loop(case):
    grid, seed, min_dist, attempts = case
    expected = draw_endpoints_per_pair(
        grid, np.random.default_rng(seed), min_dist, attempts)
    got = bench_mod._draw_endpoints(
        grid, np.random.default_rng(seed), min_dist, attempts)
    assert got == expected


@pytest.mark.parametrize("n", [3, 1000, 20000, 40000, 2 ** 31 + 5])
def test_bulk_integer_draws_equal_pair_by_pair_draws(n):
    # The bulk endpoint draw relies on this; 2^31 + 5 rejects about half
    # of its raw draws.
    k = 20000
    bulk = np.random.default_rng(n).integers(0, n, size=(k, 2))
    rng = np.random.default_rng(n)
    pairs = np.array([rng.integers(0, n, size=2) for _ in range(k)])
    assert np.array_equal(bulk, pairs)


# ------------------------------------------------------------ CLI plumbing


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def wall_file(tmp_path, spacing, gap=None):
    ys = np.arange(spacing / 2, 16.0, spacing)
    if gap is not None:
        ys = ys[(ys < gap[0]) | (ys >= gap[1])]
    pts = np.column_stack([np.full(ys.shape, 7.9), ys])
    path = tmp_path / "wall.xyz"
    write_xyz(PointCloud(pts), path)
    return str(path)


def test_cli_build_with_perlin(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "--seed", "3", "--out-dir", str(tmp_path),
        "build", "--perlin", "--domain", "0,0:32,32", "--depth", "4")
    assert code == 0
    report = json.loads(out)
    assert report["depth"] == 4
    assert report["n_points"] > 0
    assert report["occupied_leaves"] > 0


def test_cli_build_epsilon_depth(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "build", "--perlin", "--domain", "0,0:200,150",
        "--epsilon-max-m", "0.75", "--spm", "1.0")
    assert code == 0
    assert json.loads(out)["depth"] == 7


def test_cli_build_depth_ratio_overflow_gets_the_cap(tmp_path, capsys):
    # The domain edge over the 4e-10 m cell overflows to inf.
    cloud_path = tmp_path / "two.xyz"
    write_xyz(PointCloud(np.array([[1.0, 1.0], [5.0, 5.0]])), cloud_path)
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "build", "--cloud", str(cloud_path), "--domain", "0,0:1e300,1e300",
        "--epsilon-max-m", "1e-10")
    assert code == 0
    assert json.loads(out)["depth"] == DEFAULT_DEPTH_CAP


def test_cli_rasterize_fixed_writes_grid(tmp_path, capsys):
    cloud_path = tmp_path / "pts.xyz"
    write_xyz(PointCloud(np.array([[1.0, 1.0], [6.5, 3.5]])), cloud_path)
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "rasterize", "--cloud", str(cloud_path), "--domain", "0,0:8,4",
        "--mode", "fixed", "--cell", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [8, 4]
    assert report["occupied"] == 2
    doc = json.loads((tmp_path / "grid.json").read_text())
    occupancy = rle_decode(doc["rle_free_first"], doc["dims"])
    assert occupancy[1, 1] and occupancy[6, 3]
    assert occupancy.sum() == 2
    assert (tmp_path / "grid.pgm").read_text().startswith("P2\n8 4\n")


def test_cli_rasterize_adaptive(tmp_path, capsys):
    cloud_path = tmp_path / "pts.xyz"
    write_xyz(PointCloud(np.array([[1.0, 1.0], [6.5, 3.5]])), cloud_path)
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "rasterize", "--cloud", str(cloud_path), "--domain", "0,0:8,8",
        "--mode", "adaptive", "--depth", "3")
    assert code == 0
    assert json.loads(out)["dims"] == [8, 8]


def test_cli_downsample_convex(tmp_path, capsys):
    rng = np.random.default_rng(2)
    cloud_path = tmp_path / "pts.xyz"
    write_xyz(PointCloud(rng.uniform(0, 8, size=(500, 3))), cloud_path)
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "downsample", "--cloud", str(cloud_path), "--domain", "0,0,0:8,8,8",
        "--depth", "1", "--method", "convex", "--mesh-out", "hulls.obj")
    assert code == 0
    report = json.loads(out)
    assert 0.0 < report["retention_rate"] < 1.0
    assert (tmp_path / "retained.xyz").exists()
    assert (tmp_path / "hulls.obj").read_text().startswith("g leaf_0")
    metrics = (tmp_path / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "input_size,retained,retention_rate,elapsed_ms"
    assert metrics[1].startswith("500,")


def downsample_digests(tmp_path, capsys, depth):
    """sha256 of retained.xyz and hulls.obj from a convex downsample of the
    20k solid pair at one depth."""
    cloud_path = tmp_path / "solids.bin"
    write_binary(mapgen_mod.solid_cloud_near(20_000), cloud_path)
    code, _, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "downsample", "--cloud", str(cloud_path),
        "--domain", "0,0,0:20,20,20", "--depth", str(depth),
        "--method", "convex", "--mesh-out", "hulls.obj")
    assert code == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("retained.xyz", "hulls.obj")}


def test_cli_downsample_convex_writes_golden_artifacts(tmp_path, capsys):
    # Digests of the files written by the quickhull with one object per
    # face; any change to a hull decision changes them.
    assert downsample_digests(tmp_path, capsys, 5) == {
        "retained.xyz":
            "85d4205db82b9c1b7eb33a009af6155509a045c50d5675a24049841ed8ce68db",
        "hulls.obj":
            "a0590804a208b56c6862403b4306bca98788f51e6c9fcb871d3e0da975d47f78",
    }


def test_cli_downsample_keeps_the_same_points_without_a_mesh(tmp_path,
                                                            capsys):
    cloud_path = tmp_path / "solids.bin"
    write_binary(mapgen_mod.solid_cloud_near(20_000), cloud_path)
    retained, summaries = [], []
    for name, extra in (("with", ("--mesh-out", "hulls.obj")), ("without", ())):
        out_dir = tmp_path / name
        code, out, _ = run_cli(
            capsys, "--out-dir", str(out_dir),
            "downsample", "--cloud", str(cloud_path),
            "--domain", "0,0,0:20,20,20", "--depth", "5",
            "--method", "convex", *extra)
        assert code == 0
        retained.append(hashlib.sha256(
            (out_dir / "retained.xyz").read_bytes()).hexdigest())
        summaries.append(json.loads(out))
    assert retained[0] == retained[1]
    assert not (tmp_path / "without" / "hulls.obj").exists()
    assert summaries[0]["mesh_seconds"] > 0.0
    assert summaries[1]["mesh_seconds"] == 0.0


def test_cli_downsample_convex_golden_through_the_vector_branch(
        tmp_path, capsys, monkeypatch):
    # Leaves of a depth-3 tree are large enough that conflict batches of
    # 4,096 point-face products and more take the array branch of
    # _assign_conflicts, which depth 5 never reaches.
    products = []
    assign = geometry_mod._assign_conflicts

    def counted(pts, rows, planes, cand):
        products.append(len(planes) * len(cand))
        return assign(pts, rows, planes, cand)

    monkeypatch.setattr(geometry_mod, "_assign_conflicts", counted)
    assert downsample_digests(tmp_path, capsys, 3) == {
        "retained.xyz":
            "f97e8288771aaf2567009294f34eccfbfc1e69aafeba54138b3f6e8095aa70a9",
        "hulls.obj":
            "dd4cb933ad650348c340955d53b97733d3075ef78a758a92bfa7f1388a5e3929",
    }
    assert max(products) >= 4096


def test_cli_downsample_keeps_hull_vertices_of_a_cloud_too_wide_to_hull(
        tmp_path, capsys):
    # Spread 2e200 is over the 3-D hull bound, so every hull of the leaf is
    # refused and convexify_leaf keeps all of its points.  Qhull fails at
    # that scale too; the hull vertices come from the unscaled cloud.
    from scipy.spatial import ConvexHull
    unit = np.random.default_rng(66).uniform(-1.0, 1.0, (40, 3))
    pts = 1e200 * unit
    cloud_path = tmp_path / "wide.xyz"
    write_xyz(PointCloud(pts), cloud_path)
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "downsample", "--cloud", str(cloud_path), "--method", "convex",
        "--depth", "0", "--domain=-1e200,-1e200,-1e200:1e200,1e200,1e200")
    assert code == 0
    kept = {tuple(p) for p in read_xyz(tmp_path / "retained.xyz").points}
    assert {tuple(pts[i]) for i in ConvexHull(unit).vertices} <= kept
    assert json.loads(out)["retained_points"] == 40


def test_cli_downsample_voxel(tmp_path, capsys):
    rng = np.random.default_rng(3)
    cloud_path = tmp_path / "pts.xyz"
    write_xyz(PointCloud(rng.uniform(0, 10, size=(400, 3))), cloud_path)
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "downsample", "--cloud", str(cloud_path),
        "--method", "voxel", "--voxel-size", "2.0")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "voxel"
    assert 0 < report["retained_points"] < 400


def test_cli_plan_fixed(tmp_path, capsys):
    cloud_path = tmp_path / "pts.xyz"
    write_xyz(PointCloud(np.array([[8.5, 3.5]])), cloud_path)
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "plan", "--cloud", str(cloud_path), "--domain", "0,0:16,16",
        "--mode", "fixed", "--cell", "1.0",
        "--start", "0.5,0.5", "--goal", "15.5,15.5")
    assert code == 0
    report = json.loads(out)
    assert report["cost"] == pytest.approx(15 * math.sqrt(2.0))
    doc = json.loads((tmp_path / "path.json").read_text())
    assert doc["cells"][0] == [0, 0] and doc["cells"][-1] == [15, 15]
    assert (tmp_path / "path.pgm").exists()


@pytest.mark.parametrize("mode_args, digests", [
    (("--mode", "fixed", "--cell", "1.0"), {
        "path.json":
            "5e9084963093beed1cdcc10c8ab71622d93f4cff8b817c7dcc45221ca60f644e",
        "path.pgm":
            "87067b7aaf298a8fe66561d2e70edb17fa7558b0f8b8b927fe05a48bc54c221e",
    }),
    (("--mode", "adaptive", "--depth", "6"), {
        "path.json":
            "982a613806e915a69874266670391298ef4ff50b6bcdb5dfaf157036c6ac1bff",
        "path.pgm":
            "8cdeb1158e17441c3bbd29036b09da03a5ea2eae3e56452178d30626d90247e9",
    }),
], ids=["fixed", "adaptive"])
def test_cli_plan_writes_golden_artifacts(tmp_path, capsys, mode_args,
                                          digests):
    # Digests of the files written by the cell-by-cell JPS scan on a seeded
    # noise map; any change to a search decision or tie-break changes them.
    code, _, _ = run_cli(
        capsys, "--seed", "7", "--out-dir", str(tmp_path),
        "plan", "--perlin", "--domain", "0,0:64,48", *mode_args,
        "--start", "1.5,1.5", "--goal", "62.5,46.5")
    assert code == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_cli_plan_adaptive_uses_refinement(tmp_path, capsys):
    cloud = wall_file(tmp_path, 0.5, gap=(8.0, 10.0))
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "plan", "--cloud", cloud, "--domain", "0,0:16,16",
        "--mode", "adaptive", "--depth", "2", "--max-rounds", "2",
        "--start", "2,8", "--goal", "14,8")
    assert code == 0
    assert json.loads(out)["rounds_used"] == 1


def test_cli_plan_no_route_exits_4(tmp_path, capsys):
    cloud = wall_file(tmp_path, 0.05)
    code, out, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "plan", "--cloud", cloud, "--domain", "0,0:16,16",
        "--mode", "adaptive", "--depth", "2", "--max-rounds", "2",
        "--start", "2,8", "--goal", "14,8")
    assert code == 4
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "no_path_at_max_depth"


def test_cli_plan_occupied_endpoint_exits_3(tmp_path, capsys):
    side = np.arange(0.025, 1.0, 0.05)
    blob = np.array([(x, y) for x in side for y in side])
    cloud_path = tmp_path / "blob.xyz"
    write_xyz(PointCloud(blob), cloud_path)
    code, _, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "plan", "--cloud", str(cloud_path), "--domain", "0,0:16,16",
        "--mode", "adaptive", "--depth", "2", "--max-rounds", "2",
        "--start", "0.5,0.5", "--goal", "14,14")
    assert code == 3
    assert json.loads(err)["error"] == "start_or_goal_occupied"


def test_cli_plan_start_on_an_occupied_leafs_face_exits_3(tmp_path, capsys):
    # The start is the cloud's one point, on the faces of leaf (7, 7); the
    # fixed grid's floor rule would put it in the free cell (6, 6).
    cloud_path = tmp_path / "one.xyz"
    p = "0.26249999999999996"
    cloud_path.write_text(f"{p} {p} 0\n")
    code, out, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "plan", "--cloud", str(cloud_path), "--domain", "0,0:0.3,0.3",
        "--depth", "3", "--max-rounds", "0",
        "--start", f"{p},{p}", "--goal", "0.299,0.001")
    assert code == 3
    assert out == ""
    assert one_error_line(err)["error"] == "start_or_goal_occupied"


def test_cli_plan_fixed_occupied_start_exits_5(tmp_path, capsys):
    cloud_path = tmp_path / "pts.xyz"
    write_xyz(PointCloud(np.array([[0.5, 0.5]])), cloud_path)
    code, _, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "plan", "--cloud", str(cloud_path), "--domain", "0,0:8,8",
        "--mode", "fixed", "--cell", "1.0",
        "--start", "0.5,0.5", "--goal", "7.5,7.5")
    assert code == 5
    assert json.loads(err)["error"] == "start_occupied"


def test_cli_plan_fixed_start_on_an_occupied_cells_face_exits_5(tmp_path,
                                                                 capsys):
    # The start is the cloud's one point, on cell (3, 3)'s low faces
    # 3 * 0.7.  (3 * 0.7) / 0.7 rounds below 3, so rasterize_fixed marks
    # cell (2, 2), and the start must be placed there too.
    p = 3 * 0.7
    assert p == 2.0999999999999996 and math.floor(p / 0.7) == 2
    cloud_path = tmp_path / "one.xyz"
    write_xyz(PointCloud(np.array([[p, p]])), cloud_path)
    code, out, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "plan", "--cloud", str(cloud_path), "--domain", "0,0:7,7",
        "--mode", "fixed", "--cell", "0.7",
        "--start", f"{p!r},{p!r}", "--goal", "6.5,6.5")
    assert code == 5
    assert out == ""
    assert one_error_line(err)["error"] == "start_occupied"


@pytest.mark.parametrize("mode_args", [
    ("--mode", "adaptive", "--depth", "10"),
    ("--mode", "fixed", "--cell", "0.001"),
], ids=["adaptive", "fixed"])
def test_cli_plan_on_a_3d_cloud_exits_5_before_rasterizing(tmp_path, capsys,
                                                          mode_args):
    # Either raster would be over the 2^28-cell budget (exit 2), so exit 5
    # shows that the dimension is refused first.
    cloud_path = tmp_path / "pts.xyz"
    write_xyz(PointCloud(np.array([[1.0, 1.0, 1.0], [7.0, 6.0, 5.0]])),
              cloud_path)
    code, out, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "plan", "--cloud", str(cloud_path), "--domain", "0,0,0:8,8,8",
        *mode_args, "--start", "0.5,0.5,0.5", "--goal", "7.5,7.5,7.5")
    assert code == 5
    assert out == ""
    assert json.loads(err)["error"] == "map_not_2d"


@pytest.mark.parametrize("mode", ["adaptive", "fixed"])
@pytest.mark.parametrize("start, goal, row", [
    pytest.param("-1,4", "7,7", 0, id="start"),
    pytest.param("1,1", "7,8.5", 1, id="goal"),
    # 3 m cells cover 9 m of the 8 m domain: inside the fixed grid only.
    pytest.param("8.5,8.5", "1,1", 0, id="overhang"),
])
def test_cli_plan_point_outside_domain_exits_5(tmp_path, capsys, mode, start,
                                               goal, row):
    cloud_path = tmp_path / "pts.xyz"
    write_xyz(PointCloud(np.array([[4.0, 4.0]])), cloud_path)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "--out-dir", str(out_dir),
        "plan", "--cloud", str(cloud_path), "--domain", "0,0:8,8",
        "--mode", mode, "--depth", "2", "--cell", "3", "--save-cloud", "c.xyz",
        f"--start={start}", "--goal", goal)
    assert code == 5
    assert out == ""
    assert f"(input row {row})" in one_error_line(err)["message"]
    assert os.listdir(out_dir) == []


def test_cli_malformed_cloud_exits_2_naming_line(tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("1.0 2.0 0.0\n1.0 oops 0.0\n")
    code, _, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "build", "--cloud", str(bad), "--domain", "0,0:8,8", "--depth", "2")
    assert code == 2
    assert ":2:" in json.loads(err)["message"]


def one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


def test_cli_non_finite_xyz_exits_2_naming_row(tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("1 2 0\nnan 3 0\n")
    code, _, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "build", "--cloud", str(bad), "--depth", "2")
    assert code == 2
    payload = one_error_line(err)
    assert payload["error"] == "cloudparseerror"
    assert "row 2" in payload["message"]


def test_cli_non_finite_binary_exits_2_naming_row(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes((3).to_bytes(8, "little") + np.array(
        [1.0, 2.0, 0.0, 3.0, 4.0, 0.0, 5.0, np.inf, 0.0], "<f8").tobytes())
    code, _, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "build", "--cloud", str(bad), "--depth", "2")
    assert code == 2
    payload = one_error_line(err)
    assert payload["error"] == "cloudparseerror"
    assert "row 3" in payload["message"]


def test_cli_negative_depth_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "build", "--perlin", "--domain", "0,0:8,8", "--depth", "-1")
    assert code == 2
    assert one_error_line(err)["error"] == "invalidspec"


def test_cli_depth_above_cap_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "build", "--scene-points", "2000", "--depth", "17")
    assert code == 2
    assert out == ""
    assert one_error_line(err)["error"] == "invalidspec"
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "build", "--perlin", "--domain", "0,0:8,8", "--depth", "16")
    assert code == 0
    assert json.loads(out)["depth"] == 16


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_workers_below_one_exits_2(tmp_path, capsys, workers):
    code, out, err = run_cli(
        capsys, "--workers", workers, "--out-dir", str(tmp_path),
        "build", "--perlin", "--domain", "0,0:8,8", "--depth", "2")
    assert code == 2
    assert out == ""
    payload = one_error_line(err)
    assert payload["error"] == "invalidspec"
    assert "--workers" in payload["message"]


def test_cli_workers_default_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)),
                        raising=False)
    args = cli_mod.build_parser().parse_args(["bench"])
    assert args.workers == pool_mod.usable_cpus() == 5


def solid_pair_argv(tmp_path, out_dir):
    """A convex downsample of the 20k solid pair at depth 5: 35 leaves, so
    3 chunks of 16 and a pool at two workers."""
    cloud_path = tmp_path / "solids.bin"
    write_binary(mapgen_mod.solid_cloud_near(20_000), cloud_path)
    return ["--out-dir", str(out_dir), "downsample", "--cloud",
            str(cloud_path), "--domain", "0,0,0:20,20,20", "--depth", "5",
            "--method", "convex", "--mesh-out", "hulls.obj"]


class CountingPool(pool_mod.ProcessPoolExecutor):
    """A real process pool that records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


def test_cli_downsample_default_workers_write_the_same_files(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(CountingPool, "sizes", [])
    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", CountingPool)
    blobs = []
    for extra in ([], ["--workers", "1"]):
        out_dir = tmp_path / f"out{len(extra)}"
        code, _, err = run_cli(capsys, *extra,
                               *solid_pair_argv(tmp_path, out_dir))
        assert code == 0, err
        blobs.append([(out_dir / name).read_bytes()
                      for name in ("retained.xyz", "hulls.obj")])
    assert CountingPool.sizes == [2]
    assert blobs[0] == blobs[1]


def exit_in_worker(payload):
    """A leaf job whose process ends abruptly, as an OOM kill would end it."""
    os._exit(3)


def test_cli_dead_worker_ends_in_one_json_line(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
    monkeypatch.setattr(downsample_mod, "_leaf_job", exit_in_worker)
    code, out, err = run_cli(capsys, "--workers", "2",
                             *solid_pair_argv(tmp_path, tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert one_error_line(err)["error"] == "worker_failed"


PLAN_2D = ("plan", "--perlin", "--domain", "0,0:40,30", "--goal", "30,20")


@pytest.mark.parametrize("argv, code", [
    (PLAN_2D + ("--depth", "5", "--start", "1,1,1"), 5),
    (PLAN_2D + ("--mode", "fixed", "--cell", "1", "--start", "1,1,1"), 5),
    (("rasterize", "--perlin", "--domain", "0,0:40,30", "--mode", "fixed",
      "--cell", "abc"), 2),
    (PLAN_2D + ("--mode", "fixed", "--cell", "0", "--start", "1,1"), 2),
    (PLAN_2D + ("--mode", "fixed", "--cell", "nan", "--start", "1,1"), 2),
    (("rasterize", "--perlin", "--domain", "0,0:40,30", "--mode", "fixed",
      "--cell", "1,1,1"), 2),
    (("build", "--perlin", "--domain", "0,0:40,nan", "--depth", "3"), 2),
    (("build", "--perlin", "--domain", "0,0:-40,30", "--depth", "3"), 2),
    (PLAN_2D + ("--depth", "5", "--start", "1,1", "--max-rounds", "-1"), 2),
    # Library refusals of caller values: a zero-width domain, a flat cloud
    # bounding one, a domain of the wrong dimension, overflowing midpoints.
    (("build", "--cloud", "f.xyz", "--dim", "2", "--domain", "0,0:0,10",
      "--depth", "3"), 2),
    (("build", "--cloud", "flat.xyz", "--depth", "3"), 2),
    (("plan", "--cloud", "flat.xyz", "--depth", "3", "--start", "1,5",
      "--goal", "6,5"), 2),
    (("downsample", "--cloud", "flat.xyz", "--method", "convex",
      "--depth", "3"), 2),
    (("build", "--cloud", "f.xyz", "--dim", "2", "--domain", "0,0,0:5,5,5",
      "--depth", "3"), 2),
    (("rasterize", "--cloud", "f.xyz", "--dim", "2", "--mode", "fixed",
      "--domain", "0,0,0:5,5,5", "--cell", "1"), 2),
    (("build", "--cloud", "f.xyz", "--dim", "2",
      "--domain=-1e308,0:1e308,10", "--depth", "3"), 2),
    # Usage errors.
    (PLAN_2D + ("--mode", "fixed", "--cell", "abc", "--start", "1,1"), 2),
    (PLAN_2D + ("--depth", "x", "--start", "1,1"), 2),
    (("--seed", "q", "build", "--perlin", "--domain", "0,0:8,8",
      "--depth", "2"), 2),
    (("build", "--perlin", "--domain", "0,0:8,8", "--depth", "2",
      "--no-such-flag"), 2),
    # Unreadable inputs, and an out-dir that cannot be made.
    (("build", "--cloud", "missing.xyz", "--depth", "2"), 2),
    (("bench", "--config", "missing.cfg"), 2),
    (("--out-dir", "/dev/null/x", "build", "--perlin", "--domain", "0,0:8,8",
      "--depth", "2"), 1),
    # A scene target that is not a positive point count.
    (("build", "--scene-points", "-5", "--depth", "3"), 2),
    (("build", "--scene-points", "0", "--depth", "3"), 2),
    # A calibration target below one point.
    (("calibrate-perlin", "--domain", "0,0:40,30", "--target", "0"), 2),
    (("calibrate-perlin", "--domain", "0,0:40,30", "--target", "-5"), 2),
    # An empty cloud read at a dimension its domain does not have.
    (("build", "--cloud", "empty.xyz", "--dim", "3", "--domain", "0,0:5,5",
      "--depth", "3"), 2),
    (("rasterize", "--cloud", "empty.xyz", "--dim", "3", "--mode", "fixed",
      "--domain", "0,0:5,5", "--cell", "1"), 2),
    # Non-finite values: an endpoint, a voxel size, a noise threshold.
    (("plan", "--perlin", "--domain", "0,0:40,30", "--goal", "8,2",
      "--mode", "fixed", "--cell", "1", "--start", "nan,nan"), 5),
    (("downsample", "--cloud", "f.xyz", "--method", "voxel",
      "--voxel-size", "inf"), 2),
    (("build", "--perlin", "--domain", "0,0:8,8", "--depth", "2",
      "--threshold", "nan"), 2),
    (("bench", "--config", "nan.cfg"), 2),
    # A non-finite endpoint in adaptive mode too, and a start on the fixed
    # grid's overhang past the domain.
    (PLAN_2D + ("--depth", "5", "--start", "nan,nan"), 5),
    (("plan", "--perlin", "--domain", "0,0:10,10", "--mode", "fixed",
      "--cell", "3", "--start", "11,11", "--goal", "1,1"), 5),
])
def test_cli_bad_values_end_in_one_json_line(tmp_path, capsys, monkeypatch,
                                             argv, code):
    monkeypatch.chdir(tmp_path)
    write_xyz(PointCloud(np.array([[1.0, 1.0], [3.0, 4.0], [5.0, 2.0]])),
              "f.xyz")
    write_xyz(PointCloud(np.array([[1.0, 5.0], [3.0, 5.0], [6.0, 5.0]])),
              "flat.xyz")
    write_xyz(PointCloud.empty(2), "empty.xyz")
    (tmp_path / "nan.cfg").write_text("trials = 1\nnoise_threshold = nan\n")
    got, out, err = run_cli(capsys, "--out-dir", str(tmp_path), *argv)
    assert got == code
    assert out == ""
    assert "Traceback" not in err
    one_error_line(err)


@pytest.mark.parametrize("command", ["build", "downsample"])
def test_cli_flat_cloud_takes_the_dimension_of_its_domain(tmp_path, capsys,
                                                          command):
    # Every z is 0, which alone would make the file a 2-D cloud.
    cloud_path = tmp_path / "flat.xyz"
    write_xyz(PointCloud(np.array([[1.0, 1.0], [3.0, 4.0], [5.0, 2.0]])),
              cloud_path)
    code, out, err = run_cli(
        capsys, "--out-dir", str(tmp_path), command, "--cloud",
        str(cloud_path), "--domain", "0,0,0:8,8,8", "--depth", "2")
    assert code == 0, err
    if command == "build":
        assert json.loads(out)["dim"] == 3
    else:
        assert len(read_xyz(tmp_path / "retained.xyz", dim=3)) == 3


def test_cli_build_on_an_empty_cloud_reports_the_domain_dimension(tmp_path,
                                                                 capsys):
    cloud_path = tmp_path / "empty.xyz"
    cloud_path.write_text("")
    code, out, _ = run_cli(
        capsys, "--out-dir", str(tmp_path), "build", "--cloud",
        str(cloud_path), "--domain", "0,0:8,8", "--depth", "2")
    assert code == 0
    report = json.loads(out)
    assert (report["dim"], report["n_points"]) == (2, 0)


def test_cli_bench_rows_do_not_depend_on_workers(tmp_path, capsys,
                                                monkeypatch):
    # Each world runs whole in one worker, and the records come back in
    # world order, so only the wall-clock columns may differ.
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(small_config(trials=4).to_text())
    outputs = []
    for workers in ("1", "2"):
        out_dir = tmp_path / workers
        code, out, err = run_cli(
            capsys, "--workers", workers, "--out-dir", str(out_dir),
            "bench", "--config", str(cfg))
        assert code == 0, err
        outputs.append((strip_timing((out_dir / "records.csv").read_text()),
                        (out_dir / "aggregate.json").read_bytes(), out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count("\n") == 4 * 2


def test_cli_bench_endpoint_attempts_below_one_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("trials = 1\nmax_endpoint_attempts = -3\n")
    code, out, err = run_cli(capsys, "--out-dir", str(tmp_path),
                             "bench", "--config", str(cfg))
    assert code == 2
    assert out == ""
    payload = one_error_line(err)
    assert payload["error"] == "invalidspec"
    assert "max_endpoint_attempts" in payload["message"]
    assert not (tmp_path / "records.csv").exists()


def test_cli_bench_subnormal_cell_size_exits_2(tmp_path, capsys):
    # 200 m over 1e-320 m overflows to inf, so the depth is the cap, and
    # the raster budget refuses the 2^16 x 2^16 fixed grid.
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("trials = 1\ncell_sizes_m = 1e-320\n")
    code, out, err = run_cli(capsys, "--out-dir", str(tmp_path),
                             "bench", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert one_error_line(err)["error"] == "invalidspec"


def test_cli_unknown_cloud_extension_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "build", "--cloud", "pts.csv", "--depth", "2")
    assert code == 2
    assert json.loads(err)["error"] == "invalidspec"


def test_cli_global_flags_precede_subcommand(tmp_path, capsys):
    code, out, err = run_cli(capsys, "build", "--seed", "5", "--perlin",
                             "--domain", "0,0:8,8", "--depth", "2")
    assert code == 2
    assert out == ""
    assert one_error_line(err)["error"] == "invalidspec"


def test_cli_bench_default_config(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--out-dir", str(tmp_path),
                           "bench", "--write-default-config")
    assert code == 0
    assert BenchConfig.from_text(out) == BenchConfig()


def test_cli_bench_campaign_outputs(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("domain_x_m = 40\ndomain_y_m = 30\n"
                   "cell_sizes_m = 2.0\ntrials = 2\n"
                   "campaign_seed = 99\nsamples_per_meter = 2.0\n")
    out_dir = tmp_path / "run1"
    code, out, _ = run_cli(capsys, "--out-dir", str(out_dir),
                           "bench", "--config", str(cfg))
    assert code == 0
    aggregate = json.loads(out)
    assert aggregate["per_cell"]["2.0"]["trials"] == 2
    csv_text = (out_dir / "records.csv").read_text()
    assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert (out_dir / "aggregate.json").read_text() == \
        aggregate_to_json(aggregate)

    out_dir2 = tmp_path / "run2"
    code2, out2, _ = run_cli(capsys, "--format", "csv",
                             "--out-dir", str(out_dir2),
                             "bench", "--config", str(cfg))
    assert code2 == 0
    assert strip_timing(out2) == strip_timing(csv_text)


def test_cli_calibrate_perlin(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "--seed", "4", "--out-dir", str(tmp_path),
        "calibrate-perlin", "--domain", "0,0:30,30",
        "--target", "2000", "--tolerance-pct", "5")
    assert code == 0
    report = json.loads(out)
    assert abs(report["count"] - 2000) <= 0.10 * 2000
    assert report["samples_per_meter"] > 0


def test_cli_build_perlin_over_lattice_budget_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "build", "--perlin", "--domain", "0,0:1000000,1000000",
        "--depth", "3")
    assert code == 2
    assert out == ""
    payload = one_error_line(err)
    assert payload["error"] == "invalidspec"
    assert "budget" in payload["message"]


def test_cli_calibrate_perlin_stops_at_lattice_budget(tmp_path, capsys,
                                                      monkeypatch):
    # 30 m at 4 samples/m is 14,400 samples; doubling to 8/m needs 57,600,
    # over the shrunken budget, long before the target is reached.
    monkeypatch.setattr(mapgen_mod, "MAX_RASTER_CELLS", 20000)
    code, out, err = run_cli(
        capsys, "--out-dir", str(tmp_path),
        "calibrate-perlin", "--domain", "0,0:30,30", "--target", "1000000")
    assert code == 2
    assert out == ""
    assert one_error_line(err)["error"] == "invalidspec"


def test_cli_calibrate_perlin_unreachable_target_exits_2(tmp_path, capsys,
                                                         monkeypatch):
    # A threshold of 1 emits no point at any rate: the doubling reaches the
    # 4096 samples/m cap with 0 points and must stop there, with no
    # bisection and no report of success.
    rates = []

    def counting(params):
        rates.append(params.samples_per_meter)
        return mapgen_mod.gen_perlin_cloud(params)

    monkeypatch.setattr(cli_mod, "gen_perlin_cloud", counting)
    code, out, err = run_cli(
        capsys, "--out-dir", str(tmp_path), "calibrate-perlin",
        "--domain", "0,0:0.1,0.1", "--threshold", "1", "--target", "10")
    assert code == 2
    assert out == ""
    payload = one_error_line(err)
    assert payload["error"] == "invalidspec"
    assert "0 points" in payload["message"]
    assert rates == [4.0 * 2 ** k for k in range(11)]


@pytest.mark.parametrize("target", ["100", "2000", "30000"])
def test_cli_calibrate_perlin_evaluates_each_rate_once(tmp_path, capsys,
                                                       monkeypatch, target):
    # 100 points need no doubling, 2000 one and 30000 three before the
    # bisection; the rate that ends the doubling must not be counted again.
    rates = []

    def counting(params):
        rates.append(params.samples_per_meter)
        return mapgen_mod.gen_perlin_cloud(params)

    monkeypatch.setattr(cli_mod, "gen_perlin_cloud", counting)
    code, out, _ = run_cli(
        capsys, "--seed", "4", "--out-dir", str(tmp_path),
        "calibrate-perlin", "--domain", "0,0:30,30",
        "--target", target, "--tolerance-pct", "5")
    assert code == 0
    assert len(rates) == len(set(rates))
    report = json.loads(out)
    assert report["samples_per_meter"] in rates


def package_env():
    """The environment with the tested package's copy first on PYTHONPATH,
    so a subprocess imports the same octoplan as this process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
    paths = [root, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_cli_runs_as_subprocess(tmp_path):
    bad = tmp_path / "bad.xyz"
    bad.write_text("not a point\n")
    proc = subprocess.run(
        [sys.executable, "-m", "octoplan.cli", "--out-dir", str(tmp_path),
         "build", "--cloud", str(bad), "--domain", "0,0:8,8", "--depth", "2"],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "cloudparseerror"


def test_package_never_imports_scipy(tmp_path):
    # The runtime dependency is numpy alone; scipy is a test-only extra.
    script = (
        "import sys\n"
        "from octoplan.cli import main\n"
        f"code = main(['--out-dir', {str(tmp_path)!r}, 'downsample',\n"
        "             '--scene-points', '3000', '--depth', '3'])\n"
        "print(code, 'scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


# ------------------------------------------------------------------ CLI fuzz

# Values every numeric flag may meet: non-numbers, non-finite, negative,
# zero and past half the float range.
BAD_NUMBERS = ("nan", "inf", "-inf", "-1", "0", "abc", "", "1e308", "-1e308")
README_EXIT_CODES = (1, 2, 3, 4, 5)
# Every valid size the strategies draw fits this many raster cells or noise
# samples (a 256 x 256 map, 64 m at 4 samples/m), so an example allocates a
# few MB at most; a larger request, such as calibrate-perlin doubling its
# rate, is refused with exit 2 instead.
FUZZ_BUDGET = 1 << 16


def rarely(bad, valid):
    """valid, or one time in eight bad, so most runs get past parsing."""
    return st.sampled_from(range(8)).flatmap(lambda k: bad if k == 7 else valid)


def numbers(lo, hi, integer=False):
    valid = st.integers(lo, hi) if integer else st.floats(lo, hi)
    return rarely(st.sampled_from(BAD_NUMBERS), valid.map(repr))


def flag(name, values, always=False):
    given = values.map(lambda v: [f"--{name}={v}"])
    return given if always else st.one_of(st.just([]), given)


@st.composite
def corners(draw, dim):
    """A --domain text: mostly a valid box with edges under 64 m, or one
    zero-width, inverted, wrong-dimension or bad axis.  Its lower corner
    also serves as a per-axis --cell."""
    lo = [draw(st.floats(-8, 8)) for _ in range(dim)]
    hi = [v + draw(st.floats(0.5, 56)) for v in lo]
    kind = draw(rarely(st.sampled_from(("zero", "inverted", "dim", "bad")),
                       st.just("ok")))
    axis = draw(st.integers(0, dim - 1))
    if kind == "zero":
        hi[axis] = lo[axis]
    elif kind == "inverted":
        lo[axis], hi[axis] = hi[axis], lo[axis]
    elif kind == "dim":
        lo, hi = (lo[:2], hi[:2]) if dim == 3 else (lo + [0.0], hi + [1.0])
    elif kind == "bad":
        hi[axis] = draw(st.sampled_from(BAD_NUMBERS))
    return ",".join(map(str, lo)) + ":" + ",".join(map(str, hi))


def points(dim):
    coord = numbers(0.0, 64.0)
    size = rarely(st.sampled_from((dim - 1, dim + 1)), st.just(dim))
    return size.flatmap(lambda n: st.lists(coord, min_size=n, max_size=n)
                        ).map(",".join)


@st.composite
def cloud_file(draw, dim):
    """Name and bytes of a small input cloud: xyz text or binary, mostly
    well formed, sometimes with bad coordinates, rows or counts."""
    coord = rarely(st.sampled_from((math.nan, math.inf, -math.inf, 1e308,
                                    -1e308)), st.floats(0, 64))
    size = draw(rarely(st.just(0), st.integers(1, 30)))
    rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                         min_size=size, max_size=size))
    rows = [r + [0.0] * (3 - dim) for r in rows]
    name = draw(rarely(st.sampled_from(("missing.xyz", "c.csv")),
                       st.sampled_from(("c.xyz", "c.bin"))))
    if name.endswith(".bin"):
        count = len(rows) + draw(rarely(st.sampled_from((1, -1)), st.just(0)))
        body = np.asarray(rows, dtype="<f8").tobytes()
        return name, max(count, 0).to_bytes(8, "little") + body
    text = "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in rows)
    junk = draw(rarely(st.sampled_from((b"1 2\n", b"a b c\n", b"\xff\n")),
                       st.just(b"")))
    return name, text.encode() + junk


@st.composite
def cloud_args(draw):
    """Files to write and argv of one cloud-reading command."""
    dim = draw(st.sampled_from((2, 3)))
    files = {}
    source = draw(rarely(st.just("none"),
                         st.sampled_from(("cloud", "perlin", "scene"))))
    argv = []
    if source == "cloud":
        name, data = draw(cloud_file(dim))
        if name != "missing.xyz":
            files[name] = data
        argv += ["--cloud", name] + draw(flag("dim", rarely(
            st.just("4"), st.sampled_from(("2", "3")))))
    elif source == "perlin":
        argv += ["--perlin"]
        argv += draw(flag("frequency", numbers(0.01, 0.5)))
        argv += draw(flag("octaves", numbers(-1, 6, integer=True)))
        argv += draw(flag("persistence", numbers(0.1, 1.0)))
        argv += draw(flag("threshold", numbers(-1.0, 1.0)))
        argv += draw(flag("spm", numbers(0.1, 4.0)))
    elif source == "scene":
        dim = 3
        argv += [f"--scene-points={draw(numbers(-5, 5000, integer=True))}"]
    argv += draw(flag("domain", corners(dim), always=source == "perlin"))
    depth = rarely(st.just("17"), numbers(-2, 8, integer=True))
    argv += draw(rarely(st.just([]), st.one_of(
        flag("depth", depth, always=True),
        flag("epsilon-max-m", numbers(0.1, 8.0), always=True))))
    return dim, files, argv


@st.composite
def fuzz_case(draw):
    """Files to write and the whole argv of one octoplan run."""
    argv = draw(flag("seed", numbers(0, 99, integer=True)))
    # Always given: without the flag a run would start one worker per CPU.
    argv += draw(flag("workers", rarely(st.sampled_from(("0", "-1", "x")),
                                        st.just("1")), always=True))
    command = draw(st.sampled_from(("build", "rasterize", "plan",
                                    "downsample", "calibrate-perlin",
                                    "bench")))
    files = {}
    if command == "calibrate-perlin":
        argv += [command] + draw(flag("domain", corners(2), always=True))
        argv += draw(flag("target", numbers(-1, 5000, integer=True)))
        argv += draw(flag("tolerance-pct", numbers(0.5, 20.0)))
        argv += draw(flag("threshold", numbers(-1.0, 1.0)))
    elif command == "bench":
        argv += [command]
        if draw(st.booleans()):
            lines = [f"domain_x_m = {draw(numbers(8.0, 64.0))}",
                     f"domain_y_m = {draw(numbers(8.0, 64.0))}",
                     f"cell_sizes_m = {draw(numbers(1.0, 8.0))}",
                     f"samples_per_meter = {draw(numbers(0.5, 4.0))}",
                     "junk"]
            lines = draw(st.lists(st.sampled_from(lines), unique=True))
            lines.append(f"trials = {draw(numbers(0, 2, integer=True))}")
            files["b.cfg"] = "\n".join(lines).encode()
            argv += ["--config", "b.cfg"]
        else:
            argv += draw(st.sampled_from(([], ["--config", "missing.cfg"])))
        argv += draw(flag("trials", numbers(-1, 2, integer=True)))
        argv += draw(st.sampled_from(([], ["--write-default-config"])))
    else:
        dim, files, cloud = draw(cloud_args())
        argv += [command] + cloud
        if command in ("rasterize", "plan"):
            argv += draw(flag("mode", rarely(st.just("x"), st.sampled_from(
                ("fixed", "adaptive")))))
            argv += draw(flag("cell", st.one_of(
                numbers(0.25, 8.0), corners(dim).map(
                    lambda c: c.split(":")[0]))))
        if command == "plan":
            argv += draw(flag("start", points(dim), always=True))
            argv += draw(flag("goal", points(dim), always=True))
            argv += draw(flag("max-rounds", numbers(-1, 2, integer=True)))
        if command == "downsample":
            argv += draw(flag("method", rarely(st.just("x"), st.sampled_from(
                ("convex", "voxel")))))
            argv += draw(flag("voxel-size", numbers(0.05, 8.0)))
            argv += draw(flag("voxel-target-fraction", numbers(0.01, 1.0)))
    argv += draw(rarely(st.just(["--no-such-flag"]), st.just([])))
    return files, argv


@settings(max_examples=150, deadline=None)
@given(fuzz_case())
def test_cli_fuzz_ends_in_success_or_one_json_error_line(case):
    files, argv = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setattr(gridmap_mod, "MAX_RASTER_CELLS", FUZZ_BUDGET)
        mp.setattr(mapgen_mod, "MAX_RASTER_CELLS", FUZZ_BUDGET)
        for name, data in files.items():
            with open(name, "wb") as fh:
                fh.write(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--out-dir", "out"] + argv)
    if code == 0:
        return
    assert code in README_EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    payload = one_error_line(err.getvalue())
    assert set(payload) == {"error", "message"}

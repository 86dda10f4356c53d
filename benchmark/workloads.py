"""The three workloads: set-up, one pass of measured work, output checks.

A pass is a fixed piece of work decided in set-up, so every pass of a run,
and every commit measured with the same seed, does the same work. The
runner repeats passes until the run's time is used up.

Each workload lists two sets of wrappers for the span recorder:
``probes`` are installed on every pass and give the benchmark the calls it
times and the outputs it checks; ``layers`` are added on traced passes
only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import octoplan.bench as bench_mod
import octoplan.cli as cli_mod
import octoplan.cloudio as cloudio_mod
import octoplan.downsample as downsample_mod
import octoplan.gridmap as gridmap_mod
import octoplan.mapgen as mapgen_mod
import octoplan.planner as planner_mod
import octoplan.tree as tree_mod
from octoplan.errors import NoPathAtMaxDepth, StartOrGoalOccupied

from oracles import (csv_digest, label_free_4, rows_subset,
                     support_mismatches, unit_directions)
from refclock import now

# Outcomes the package documents as answers rather than errors.
COMPLETED_ERRORS = (NoPathAtMaxDepth, StartOrGoalOccupied)


def density_factor(seed: int, stream: int, spread: float) -> float:
    """Seeded sampling-density multiplier in [1 - spread, 1 + spread]."""
    rng = np.random.default_rng([seed, stream])
    return 1.0 + spread * float(rng.uniform(-1.0, 1.0))


def snapshot(grid) -> tuple:
    """The parts of a grid a path check needs, without its leaf boxes."""
    return grid.dims, grid.cell_size, grid.origin, grid.occupancy


def as_grid(snap) -> gridmap_mod.UniformGridMap:
    dims, cell, origin, occ = snap
    return gridmap_mod.UniformGridMap(dims, cell, origin, occ)


def path_problem(snap, path) -> str | None:
    try:
        planner_mod.validate_path(as_grid(snap), path)
    except AssertionError as exc:
        return f"invalid path: {exc}"
    return None


def dijkstra_problem(snap, path) -> str | None:
    grid = as_grid(snap)
    ref = planner_mod.dijkstra_plan(
        grid, planner_mod.PlanRequest(path.nodes[0], path.nodes[-1]))
    if ref is None or abs(ref.cost - path.cost) > 1e-9:
        return (f"path cost {path.cost!r} != dijkstra "
                f"{None if ref is None else ref.cost!r}")
    return None


def report_exception(where: str) -> str:
    traceback.print_exc()
    return f"{where}: undocumented exception"


def median_entry(samples: list) -> tuple:
    """(median, unit, sample count) of a list of latencies."""
    value = statistics.median(samples) if samples else float("nan")
    return value, "s", len(samples)


@dataclass
class PassResult:
    """One pass. Times are work seconds until the runner rescales them."""

    wall: float
    ops: int
    op_times: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    capture: object = None
    tracer: object = None
    kind: str = "untraced"
    raw_wall: float = 0.0
    scale: float = 1.0

    def fail(self, op: int, message: str) -> None:
        self.failed.add(op)
        if len(self.problems) < 20:
            self.problems.append(f"op {op}: {message}")


def _points_count(result, args, kwargs):
    return {"points": len(result)}


def _build_count(result, args, kwargs):
    # After build, OctoTree.leaves lists exactly the occupied leaves.
    return {"points": len(args[0]), "leaves": len(result.leaves)}


def _jps_count(result, args, kwargs):
    return {"ok": 1} if result is not None else {"fail": 1}


def _raster_count(result, args, kwargs):
    return {"cells": int(np.prod(result.dims))}


def _rounds_count(result, args, kwargs):
    return {"rounds_used": result.rounds_used}


def _hull_count(result, args, kwargs):
    return {"points": len(args[0])}


def _read_count(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _write_count(result, args, kwargs):
    return {"bytes": os.path.getsize(args[1])}


PLANNER_LAYERS = [
    (planner_mod, "rasterize_adaptive", "gridmap.rasterize_adaptive",
     _raster_count),
    (planner_mod, "jps_plan", "planner.jps_plan", _jps_count),
    (planner_mod, "dynamic_partition", "tree.dynamic_partition", None),
]


class Workload:
    """Defaults for a workload that needs no probes and no extra report."""

    def probes(self, cap) -> list:
        return []

    def extra(self) -> dict:
        return {}


# ------------------------------------------------------------ campaign


@dataclass
class CampaignCapture:
    records: list = field(default_factory=list)
    fixed: list = field(default_factory=list)
    adaptive: list = field(default_factory=list)


class Campaign(Workload):
    """bench.run_campaign over the first worlds of the default campaign.

    The worlds are the default campaign's own and do not vary with the
    seed: any change to a world changes which endpoint pairs are drawn, and
    with them how many cells end in an exhaustive failed search, which
    moved worlds/s by 17% across seeds. The seed picks the trial-cells that
    are cross-checked against Dijkstra.
    """

    name = "campaign"
    worlds = 7

    def __init__(self, seed: int, workdir: str):
        self.config = replace(bench_mod.BenchConfig(), trials=self.worlds)
        self.cells = self.worlds * len(self.config.cell_sizes_m)
        rng = np.random.default_rng([seed, 0])
        self.dijkstra_cells = set(
            rng.choice(self.cells, size=self.cells // 3, replace=False).tolist())
        self.digests = []
        self.first_records = None

    def setup(self):
        # A one-world campaign on a small domain loads every code path the
        # measured passes use.
        warm = replace(self.config, trials=1, domain_x_m=40.0,
                       domain_y_m=30.0)
        bench_mod.run_campaign(warm)
        return self.config

    def probes(self, cap: CampaignCapture):
        def cell(result, args, kwargs):
            cap.records.append(result)

        def fixed(result, args, kwargs):
            if result is not None:
                cap.fixed.append((len(cap.records), snapshot(args[0]), result))
            return _jps_count(result, args, kwargs)

        def adaptive(result, args, kwargs):
            cap.adaptive.append((len(cap.records), snapshot(result.grid),
                                 result.path))
            return _rounds_count(result, args, kwargs)

        return [
            (bench_mod, "run_trial_cell", "bench.run_trial_cell", cell),
            (bench_mod, "jps_plan", "planner.jps_plan", fixed),
            (bench_mod, "plan_with_refinement",
             "planner.plan_with_refinement", adaptive),
        ]

    def layers(self):
        return [
            (bench_mod, "gen_perlin_cloud", "mapgen.gen_perlin_cloud",
             _points_count),
            (bench_mod, "build_tree", "tree.build", _build_count),
            (bench_mod, "rasterize_fixed", "gridmap.rasterize_fixed", None),
        ] + PLANNER_LAYERS

    def new_capture(self):
        return CampaignCapture()

    def run_pass(self, config, cap, tracer) -> PassResult:
        result = PassResult(wall=0.0, ops=self.cells, capture=cap)
        t0 = now()
        try:
            bench_mod.run_campaign(config)
        except Exception:
            result.problems.append(report_exception("run_campaign"))
        result.wall = now() - t0
        for span in tracer.spans:
            if span.name == "bench.run_trial_cell":
                result.op_times.append(span.duration)
            elif span.name == "planner.plan_with_refinement":
                key = "plan_fail" if span.error else "plan_ok"
                result.samples.setdefault(key, []).append(span.duration)
        return result

    def check(self, result: PassResult, first: bool) -> None:
        cap = result.capture
        for op in range(len(cap.records), self.cells):
            result.fail(op, "trial-cell did not complete")
        for op, snap, path in cap.fixed + cap.adaptive:
            problem = path_problem(snap, path)
            if problem:
                result.fail(op, problem)
        if first:
            for op, snap, path in cap.adaptive:
                if op in self.dijkstra_cells:
                    problem = dijkstra_problem(snap, path)
                    if problem:
                        result.fail(op, problem)
        digest = csv_digest(bench_mod.records_to_csv(cap.records),
                            bench_mod.TIMING_COLUMNS)
        if self.digests and digest != self.digests[0]:
            for op in range(self.cells):
                result.fail(op, "campaign CSV differs from the first pass")
        self.digests.append(digest)
        if self.first_records is None:
            self.first_records = cap.records
        result.capture = None

    def report(self, untraced: list) -> dict:
        ok = [t for p in untraced for t in p.samples.get("plan_ok", [])]
        bad = [t for p in untraced for t in p.samples.get("plan_fail", [])]
        records = self.first_records or []
        successes = sum(bool(r.adaptive_success) for r in records)
        return {
            "campaign_worlds_per_s": (self.work_per_s(untraced), "1/s",
                                      len(untraced)),
            "adaptive_success_rate": (successes / max(1, len(records)),
                                      "ratio", len(records)),
            "plan_ok_s_p50": median_entry(ok),
            "plan_fail_s_p50": median_entry(bad),
        }

    def work_per_s(self, untraced: list) -> float:
        return self.worlds / statistics.median(p.wall for p in untraced)

    def extra(self) -> dict:
        return {"csv_digest": self.digests[0] if self.digests else None}


# ------------------------------------------------------------ plan_queries


class PlanQueries(Workload):
    """A long-lived planner answering far-apart, connected queries."""

    name = "plan_queries"
    world_seeds = (1001, 1002, 1003)
    queries = 20
    depth = 8
    # Straight-line separation of a pair, as a share of the domain diagonal.
    # A narrow band keeps the search effort per pass close across seeds.
    separation = (0.6, 0.7)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        base = bench_mod.BenchConfig()
        self.domain = base.domain
        self.params = dict(
            domain=self.domain, frequency=base.noise_frequency_per_m,
            octaves=base.noise_octaves, persistence=base.noise_persistence,
            threshold=base.noise_threshold,
            samples_per_meter=base.samples_per_meter
            * density_factor(seed, 1, 0.01))
        self.ops = len(self.world_seeds) * self.queries
        self.costs = None

    def setup(self):
        worlds = []
        diag = float(np.linalg.norm(self.domain.edges))
        for w, world_seed in enumerate(self.world_seeds):
            cloud = mapgen_mod.gen_perlin_cloud(
                mapgen_mod.PerlinParams(seed=world_seed, **self.params))
            grid = gridmap_mod.rasterize_adaptive(
                tree_mod.build(cloud, self.domain, self.depth))
            labels = label_free_4(grid.occupancy)
            largest = np.bincount(labels[labels >= 0]).argmax()
            # Candidate cells come from one stream for every seed and are
            # kept where both ends lie in the largest free component, so
            # the queries change only where the seed's raster does. Pairs
            # drawn per seed spread the median query time by 0.12 across
            # ten seeds, most of it the draw.
            rng = np.random.default_rng([3, w])
            pairs = []
            for _ in range(1000 * self.queries):
                a, b = (tuple(rng.integers(0, grid.dims)) for _ in range(2))
                if labels[a] != largest or labels[b] != largest:
                    continue
                pa = grid.cell_center(a)
                pb = grid.cell_center(b)
                lo, hi = self.separation
                if lo * diag <= np.linalg.norm(pa - pb) <= hi * diag:
                    pairs.append((pa, pb))
                    if len(pairs) == self.queries:
                        break
            else:
                raise RuntimeError(f"world {w}: too few far-apart pairs")
            worlds.append((cloud, pairs))
        return worlds

    def layers(self):
        return [(tree_mod, "build", "tree.build", _build_count),
                (planner_mod, "plan_with_refinement",
                 "planner.plan_with_refinement", _rounds_count)
                ] + PLANNER_LAYERS

    def new_capture(self):
        return []

    def run_pass(self, worlds, answers, tracer) -> PassResult:
        result = PassResult(wall=0.0, ops=self.ops, capture=answers)
        t0 = now()
        for cloud, pairs in worlds:
            tree = tree_mod.build(cloud, self.domain, self.depth)
            for start, goal in pairs:
                t = now()
                try:
                    answer = planner_mod.plan_with_refinement(
                        tree, start, goal, max_rounds=2)
                except COMPLETED_ERRORS as exc:
                    answer = exc
                except Exception:
                    answer = report_exception("plan_with_refinement")
                result.op_times.append(now() - t)
                if isinstance(answer, planner_mod.RefinementResult):
                    # Keep what the checks need, not the grid's leaf boxes.
                    answer = (snapshot(answer.grid), answer.path,
                              answer.rounds_used)
                answers.append((answer, tree.depth))
                if tree.depth != self.depth:
                    tree = tree_mod.build(cloud, self.domain, self.depth)
        result.wall = now() - t0
        result.samples["plan_ok"] = [
            dt for dt, (answer, _) in zip(result.op_times, answers)
            if isinstance(answer, tuple)]
        return result

    def check(self, result: PassResult, first: bool) -> None:
        costs = []
        for op, (answer, depth) in enumerate(result.capture):
            if depth != self.depth:
                result.fail(op, f"query changed tree depth to {depth}")
            if not isinstance(answer, tuple):
                # Both ends lie in one component of the round-0 raster, so
                # even a documented planning error is a wrong answer here.
                result.fail(op, answer if isinstance(answer, str)
                            else f"no route: {answer!r}")
                costs.append(None)
                continue
            snap, path, rounds = answer
            costs.append(path.cost)
            problem = path_problem(snap, path)
            if rounds:
                problem = f"needed {rounds} refinement rounds"
            if problem is None and first and op % self.queries == 0:
                problem = dijkstra_problem(snap, path)
            if problem:
                result.fail(op, problem)
        if self.costs is None:
            self.costs = costs
        for op, (a, b) in enumerate(zip(costs, self.costs)):
            if a != b:
                result.fail(op, f"path cost {a!r} differs from first pass {b!r}")
        result.capture = None

    def report(self, untraced: list) -> dict:
        ok = [t for p in untraced for t in p.samples.get("plan_ok", [])]
        out = {
            "queries_per_s": (self.work_per_s(untraced), "1/s",
                              len(untraced) * self.ops),
            "plan_ok_s_p50": median_entry(ok),
        }
        # A tail percentile needs at least ten samples beyond it.
        if len(ok) >= 100:
            out["plan_ok_s_p90"] = (statistics.quantiles(ok, n=10)[-1], "s",
                                    len(ok))
        return out

    def work_per_s(self, untraced: list) -> float:
        return self.ops / statistics.median(p.wall for p in untraced)


# ------------------------------------------------------------ downsample


class Downsample(Workload):
    """`octoplan downsample --method convex` on the solid pair, in-process."""

    name = "downsample"
    target_points = 300_000
    depth = 7

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.cloud_path = os.path.join(workdir, "solids.bin")
        self.target = round(self.target_points
                            * density_factor(seed, 2, 0.02))
        self.points = None
        self.retained_digest = None
        self.retention = None

    def setup(self):
        cloud = mapgen_mod.solid_cloud_near(self.target)
        cloudio_mod.write_binary(cloud, self.cloud_path)
        self.points = cloud.points
        return self.cloud_path

    def argv(self, path):
        domain = mapgen_mod.solid_domain()
        box = (",".join(repr(float(v)) for v in domain.min) + ":"
               + ",".join(repr(float(v)) for v in domain.max))
        return ["--out-dir", self.workdir, "downsample", "--cloud", path,
                "--domain", box, "--depth", str(self.depth),
                "--method", "convex", "--mesh-out", "hulls.obj"]

    def layers(self):
        return [
            (cli_mod, "main", "cli.main", None),
            (cli_mod, "read_binary", "cloudio.read_binary", _read_count),
            (cli_mod, "write_xyz", "cloudio.write_xyz", _write_count),
            (cli_mod, "build_tree", "tree.build", _build_count),
            (cli_mod, "downsample_tree", "downsample.downsample_tree", None),
            (downsample_mod, "occupied_leaf_nodes",
             "tree.occupied_leaf_nodes", None),
            (downsample_mod, "convexify_leaf", "downsample.convexify_leaf",
             None),
            (downsample_mod, "quickhull", "geometry.quickhull", _hull_count),
            (cli_mod, "export_mesh", "downsample.export_mesh", None),
        ]

    def new_capture(self):
        return {}

    def run_pass(self, path, cap, tracer) -> PassResult:
        result = PassResult(wall=0.0, ops=1, capture=cap)
        out = io.StringIO()
        t0 = now()
        try:
            with contextlib.redirect_stdout(out):
                code = cli_mod.main(self.argv(path))
        except Exception:
            code = report_exception("cli.main")
        result.wall = now() - t0
        result.op_times.append(result.wall)
        result.capture.update(code=code, stdout=out.getvalue())
        return result

    def check(self, result: PassResult, first: bool) -> None:
        cap = result.capture
        result.capture = None
        if cap["code"] != 0:
            result.fail(0, f"cli exit {cap['code']!r}")
            return
        try:
            summary = json.loads(cap["stdout"].strip().splitlines()[-1])
        except (ValueError, IndexError):
            result.fail(0, "no JSON summary on stdout")
            return
        with open(os.path.join(self.workdir, "retained.xyz"), "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        if not os.path.getsize(os.path.join(self.workdir, "hulls.obj")):
            result.fail(0, "empty mesh file")
        if summary.get("input_points") != len(self.points):
            result.fail(0, f"input_points {summary.get('input_points')!r}")
        if self.retained_digest is not None:
            # Later invocations must repeat the first, fully checked output.
            if digest != self.retained_digest:
                result.fail(0, "retained points differ from the first run")
            return
        kept = np.loadtxt(io.BytesIO(raw), ndmin=2)
        rate = len(kept) / len(self.points)
        if summary.get("retained_points") != len(kept) or \
                abs(summary.get("retention_rate", -1.0) - rate) > 1e-12:
            result.fail(0, "summary does not match the retained file")
        if not rows_subset(kept, self.points):
            result.fail(0, "retained rows are not a subset of the input")
        rng = np.random.default_rng([self.seed, 4])
        bad = support_mismatches(kept, self.points, unit_directions(rng, 256))
        if bad:
            result.fail(0, f"support value differs in {bad} of 256 directions")
        self.retained_digest = digest
        self.retention = rate

    def report(self, untraced: list) -> dict:
        return {
            "downsample_points_per_s": (self.work_per_s(untraced), "pts/s",
                                        len(untraced)),
            "retention_rate": (self.retention, "ratio", 1),
        }

    def work_per_s(self, untraced: list) -> float:
        return len(self.points) / statistics.median(p.wall for p in untraced)


WORKLOADS = {w.name: w for w in (Campaign, PlanQueries, Downsample)}


# ------------------------------------------------------------ per layer

# (metric, unit, span it is read from). A metric whose span saw no call on
# a traced pass is reported as idle.
PER_LAYER = [
    ("mapgen.perlin_s", "s", "mapgen.gen_perlin_cloud"),
    ("mapgen.points", "count", "mapgen.gen_perlin_cloud"),
    ("tree.build_s", "s", "tree.build"),
    ("tree.build_points", "count", "tree.build"),
    ("tree.occupied_leaves", "count", "tree.build"),
    ("tree.partition_s", "s", "tree.dynamic_partition"),
    ("tree.partition_calls", "count", "tree.dynamic_partition"),
    ("gridmap.rasterize_adaptive_s", "s", "gridmap.rasterize_adaptive"),
    ("gridmap.rasterize_adaptive_calls", "count",
     "gridmap.rasterize_adaptive"),
    ("gridmap.raster_cells", "count", "gridmap.rasterize_adaptive"),
    ("gridmap.rasterize_fixed_s", "s", "gridmap.rasterize_fixed"),
    ("planner.jps_ok_s", "s", "planner.jps_plan"),
    ("planner.jps_ok_calls", "count", "planner.jps_plan"),
    ("planner.jps_fail_s", "s", "planner.jps_plan"),
    ("planner.jps_fail_calls", "count", "planner.jps_plan"),
    ("planner.refine_rounds", "count", "tree.dynamic_partition"),
    ("planner.refine_useful_ratio", "ratio", "tree.dynamic_partition"),
    ("geometry.quickhull_s", "s", "geometry.quickhull"),
    ("geometry.quickhull_calls", "count", "geometry.quickhull"),
    ("geometry.quickhull_points", "count", "geometry.quickhull"),
    ("downsample.convexify_self_s", "s", "downsample.convexify_leaf"),
    ("downsample.leaves", "count", "downsample.convexify_leaf"),
    ("downsample.export_mesh_s", "s", "downsample.export_mesh"),
    ("cloudio.read_s", "s", "cloudio.read_binary"),
    ("cloudio.write_s", "s", "cloudio.write_xyz"),
    ("cloudio.bytes_read", "bytes", "cloudio.read_binary"),
    ("cloudio.bytes_written", "bytes", "cloudio.write_xyz"),
    ("bench.self_s", "s", "bench.run_trial_cell"),
    ("cli.self_s", "s", "cli.main"),
]


def layer_metrics(tracer) -> tuple[dict, list]:
    """Per-layer totals of one traced pass, and the metrics left idle."""
    spans = tracer.spans
    self_t = tracer.self_times()
    dur = {}
    own = {}
    calls = {}
    counters = {}
    for span, st in zip(spans, self_t):
        dur[span.name] = dur.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + st
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counters.items():
            ckey = (span.name, key)
            counters[ckey] = counters.get(ckey, 0) + value

    def total(name, key):
        return counters.get((name, key), 0)

    jps = [s for s in spans if s.name == "planner.jps_plan" and not s.error]
    refine = sum(1 for s in spans if s.name == "tree.dynamic_partition"
                 and s.parent is not None
                 and spans[s.parent].name == "planner.plan_with_refinement")
    useful = sum(1 for s in spans if s.name == "planner.plan_with_refinement"
                 and s.counters.get("rounds_used", 0) > 0)
    values = {
        "mapgen.perlin_s": dur.get("mapgen.gen_perlin_cloud", 0.0),
        "mapgen.points": total("mapgen.gen_perlin_cloud", "points"),
        "tree.build_s": dur.get("tree.build", 0.0),
        "tree.build_points": total("tree.build", "points"),
        "tree.occupied_leaves": total("tree.build", "leaves"),
        "tree.partition_s": dur.get("tree.dynamic_partition", 0.0),
        "tree.partition_calls": calls.get("tree.dynamic_partition", 0),
        "gridmap.rasterize_adaptive_s":
            dur.get("gridmap.rasterize_adaptive", 0.0),
        "gridmap.rasterize_adaptive_calls":
            calls.get("gridmap.rasterize_adaptive", 0),
        "gridmap.raster_cells": total("gridmap.rasterize_adaptive", "cells"),
        "gridmap.rasterize_fixed_s": dur.get("gridmap.rasterize_fixed", 0.0),
        "planner.jps_ok_s": sum((s.duration for s in jps
                                 if "ok" in s.counters), 0.0),
        "planner.jps_ok_calls": sum(1 for s in jps if "ok" in s.counters),
        "planner.jps_fail_s": sum((s.duration for s in jps
                                   if "fail" in s.counters), 0.0),
        "planner.jps_fail_calls": sum(1 for s in jps if "fail" in s.counters),
        "planner.refine_rounds": refine,
        "planner.refine_useful_ratio": useful / refine if refine else 0.0,
        "geometry.quickhull_s": dur.get("geometry.quickhull", 0.0),
        "geometry.quickhull_calls": calls.get("geometry.quickhull", 0),
        "geometry.quickhull_points": total("geometry.quickhull", "points"),
        "downsample.convexify_self_s":
            own.get("downsample.convexify_leaf", 0.0),
        "downsample.leaves": calls.get("downsample.convexify_leaf", 0),
        "downsample.export_mesh_s": dur.get("downsample.export_mesh", 0.0),
        "cloudio.read_s": dur.get("cloudio.read_binary", 0.0),
        "cloudio.write_s": dur.get("cloudio.write_xyz", 0.0),
        "cloudio.bytes_read": total("cloudio.read_binary", "bytes"),
        "cloudio.bytes_written": total("cloudio.write_xyz", "bytes"),
        "bench.self_s": own.get("bench.run_trial_cell", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    }
    idle = [name for name, _, span in PER_LAYER if span not in calls]
    if refine == 0 and "planner.refine_useful_ratio" not in idle:
        idle.append("planner.refine_useful_ratio")
    return values, idle

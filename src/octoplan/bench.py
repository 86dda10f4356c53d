"""Fixed-versus-adaptive planning campaigns over generated noise worlds.

A campaign runs `trials` independent worlds. Each world is one noise cloud;
for every requested nominal cell size the world is mapped two ways at
matched dimensions and planned over:

* the subdivision depth is the smallest D with 2^D cells of at most the
  nominal size along the longest domain edge;
* the fixed baseline grid uses per-axis cells of edge_i / 2^D, so both
  maps share dims, origin, and cell geometry;
* the fixed grid gets a single jump-point search; the adaptive tree gets
  the search plus occupied-leaf refinement retries.

Start and goal are drawn uniformly from free cells until they are at least
`min_separation_fraction` of the domain diagonal apart; if no draw within
`max_endpoint_attempts` satisfies that, the farthest pair seen is used.

CSV rows keep wall-clock columns last so byte-level determinism checks can
strip them by position; the aggregate JSON contains no timing at all.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from functools import partial
from time import perf_counter

import numpy as np

from .errors import InvalidSpec, PlanningError, require_int, require_real
from .geometry import Aabb
from .gridmap import rasterize_fixed
from .mapgen import PerlinParams, derive_seed, gen_perlin_cloud
from .planner import (PlanRequest, jps_plan, plan_with_refinement, refined,
                      release_map_tables)
from .pool import ordered_map
from .tree import McrSpec, compute_depth
from .tree import build as build_tree


@dataclass(frozen=True)
class BenchConfig:
    domain_x_m: float = 200.0
    domain_y_m: float = 150.0
    cell_sizes_m: tuple = (2.6, 3.0, 3.4)
    trials: int = 200
    campaign_seed: int = 20260815
    noise_frequency_per_m: float = 0.03
    noise_octaves: int = 4
    noise_persistence: float = 0.5
    noise_threshold: float = 0.1
    samples_per_meter: float = 4.0
    epsilon_max_m: float = 1.3
    range_multiplier_k: float = 2.0
    min_separation_fraction: float = 0.8
    max_endpoint_attempts: int = 1000
    refinement_rounds: int = 2

    def __post_init__(self):
        for name, least in (("trials", 1), ("refinement_rounds", 0),
                            ("max_endpoint_attempts", 1),
                            ("campaign_seed", None)):
            object.__setattr__(self, name,
                               require_int(name, getattr(self, name), least))
        for f in fields(self):
            if f.type in ("float", float):
                object.__setattr__(self, f.name,
                                   require_real(f.name, getattr(self, f.name)))
        try:
            sizes = tuple(require_real("cell_sizes_m", v)
                          for v in self.cell_sizes_m)
        except TypeError:
            raise InvalidSpec(f"cell_sizes_m must be a sequence of sizes, "
                              f"got {self.cell_sizes_m!r}") from None
        object.__setattr__(self, "cell_sizes_m", sizes)
        if not self.cell_sizes_m:
            raise InvalidSpec("cell_sizes_m must list at least one size")
        if not all(math.isfinite(v) and v > 0 for v in
                   (*self.cell_sizes_m, self.domain_x_m, self.domain_y_m)):
            raise InvalidSpec("cell sizes and domain edges must be positive "
                              "and finite")
        if not 0 < self.min_separation_fraction < 1:
            raise InvalidSpec("min_separation_fraction must be in (0, 1)")
        # Validates the sensing-range pair even though the nominal cell
        # sizes drive the benchmark depths directly, and the noise settings
        # before any world is drawn.
        McrSpec(self.epsilon_max_m, self.range_multiplier_k)
        self.noise_params(self.campaign_seed)

    @property
    def domain(self) -> Aabb:
        return Aabb(np.zeros(2), np.asarray([self.domain_x_m, self.domain_y_m]))

    def noise_params(self, seed: int) -> PerlinParams:
        """The noise field of the world drawn from seed."""
        return PerlinParams(
            seed=seed, domain=self.domain,
            frequency=self.noise_frequency_per_m, octaves=self.noise_octaves,
            persistence=self.noise_persistence,
            threshold=self.noise_threshold,
            samples_per_meter=self.samples_per_meter)

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(repr(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BenchConfig":
        known = {f.name: f for f in fields(cls)}
        values = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidSpec(f"config line {line_no}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in known:
                raise InvalidSpec(f"config line {line_no}: unknown key {key!r}")
            try:
                if key == "cell_sizes_m":
                    values[key] = tuple(float(v) for v in val.split(","))
                elif known[key].type in ("int", int):
                    values[key] = int(val)
                else:
                    values[key] = float(val)
            except ValueError:
                raise InvalidSpec(
                    f"config line {line_no}: bad value {val!r} for {key}") from None
        return cls(**values)


@dataclass
class TrialRecord:
    """One campaign CSV row, by default one with nothing drawn or planned;
    the field order is the column order, and the last TIMING_COLUMNS
    fields are wall-clock seconds."""

    trial_index: int
    cell_size_m: float
    effective_cell_m: float
    trial_seed: int
    depth: int
    n_points: int
    start_x_m: float = math.nan
    start_y_m: float = math.nan
    goal_x_m: float = math.nan
    goal_y_m: float = math.nan
    endpoint_fallback: bool = False
    fixed_success: bool = False
    adaptive_success: bool = False
    fixed_length_m: float = math.nan
    adaptive_length_m: float = math.nan
    adaptive_rounds: int = 0
    build_seconds: float = 0.0
    fixed_plan_seconds: float = 0.0
    adaptive_plan_seconds: float = 0.0

    def to_row(self) -> list:
        out = []
        for name in CSV_COLUMNS:
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                value = int(value)
            elif isinstance(value, (float, np.floating)):
                value = "" if math.isnan(value) else repr(float(value))
            out.append(value)
        return out


CSV_COLUMNS = [f.name for f in fields(TrialRecord)]

TIMING_COLUMNS = 3


def _draw_endpoints(grid, rng, min_dist, attempts):
    """The first of `attempts` pairs of distinct free cells whose centres
    are min_dist apart, else the first farthest pair: (start, goal,
    fallback), or None without such a pair.  Every pair comes from one
    draw; the generator is the caller's own and is not read afterwards.
    Distances are sqrt(dx*dx + dy*dy), elementwise, so no decision
    depends on how a BLAS kernel orders a dot product."""
    free = np.argwhere(~grid.occupancy)
    if len(free) < 2:
        return None
    pairs = rng.integers(0, len(free), size=(attempts, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if not len(pairs):
        return None
    # Each axis's cell centres, origin + (index + 0.5) * cell as
    # cell_center computes them, gathered per drawn cell.
    centres = [o + (np.arange(n) + 0.5) * c
               for o, c, n in zip(grid.origin, grid.cell_size, grid.dims)]
    dx, dy = (c[free[pairs[:, 0], a]] - c[free[pairs[:, 1], a]]
              for a, c in enumerate(centres))
    dist = np.sqrt(dx * dx + dy * dy)
    hits = np.flatnonzero(dist >= min_dist)
    # argmax keeps the first of equal distances.
    k = hits[0] if len(hits) else np.argmax(dist)
    return tuple(free[pairs[k, 0]]), tuple(free[pairs[k, 1]]), not len(hits)


def _world_maps(cloud, domain, depth, config, maps):
    """(tree, fixed grid, seconds) at depth from maps, the world's dict of
    both by depth, making what is missing: the world's one build runs at
    the shallowest depth of its cell sizes, and a deeper depth walks the
    refined() chain of the next shallower tree, which refinement shares, so
    each depth is partitioned once.  seconds is the build and partition
    time spent here: 0.0 when maps held the depth, next to none when a
    refinement made its tree."""
    seconds = 0.0
    if not maps:
        base = min(compute_depth(float(domain.edges.max()), c)
                   for c in config.cell_sizes_m)
        t0 = perf_counter()
        tree = build_tree(cloud, domain, base)
        seconds = perf_counter() - t0
        maps[base] = tree, rasterize_fixed(cloud, domain,
                                           domain.edges / 2.0 ** base)
    if depth not in maps:
        t0 = perf_counter()
        tree = maps[max(d for d in maps if d < depth)][0]
        while tree.depth < depth:
            tree = refined(tree)
        seconds += perf_counter() - t0
        maps[depth] = tree, rasterize_fixed(cloud, domain,
                                            domain.edges / 2.0 ** depth)
    return *maps[depth], seconds


def run_trial_cell(cloud, domain, cell, trial_index, trial_seed, cell_index,
                   config, maps) -> TrialRecord:
    """Bench one (world, nominal cell size) pair.

    maps is the world's dict of trees and fixed grids by depth, shared by
    its cells (_world_maps); build_seconds is the tree time this cell
    spent, 0.0 where its depth's tree already existed.  Refinement shares
    the world's refined trees and leaves the held tree as made."""
    longest = float(domain.edges.max())
    depth = compute_depth(longest, cell)
    tree, fixed_grid, build_seconds = _world_maps(cloud, domain, depth,
                                                  config, maps)

    record = TrialRecord(
        trial_index=trial_index, cell_size_m=cell,
        effective_cell_m=longest / 2.0 ** depth, trial_seed=trial_seed,
        depth=depth, n_points=len(cloud), build_seconds=build_seconds)

    rng = np.random.default_rng(derive_seed(trial_seed, cell_index))
    ex, ey = (float(e) for e in domain.edges)
    min_dist = config.min_separation_fraction * math.sqrt(ex * ex + ey * ey)
    drawn = _draw_endpoints(fixed_grid, rng, min_dist,
                            config.max_endpoint_attempts)
    if drawn is None:
        return record
    start_cell, goal_cell, record.endpoint_fallback = drawn
    start_pt = fixed_grid.cell_center(start_cell)
    goal_pt = fixed_grid.cell_center(goal_cell)
    record.start_x_m, record.start_y_m = float(start_pt[0]), float(start_pt[1])
    record.goal_x_m, record.goal_y_m = float(goal_pt[0]), float(goal_pt[1])

    t0 = perf_counter()
    fixed_path = jps_plan(fixed_grid, PlanRequest(start_cell, goal_cell))
    record.fixed_plan_seconds = perf_counter() - t0
    if fixed_path is not None:
        record.fixed_success = True
        record.fixed_length_m = fixed_path.metric_length(fixed_grid)

    try:
        outcome = plan_with_refinement(
            tree, start_pt, goal_pt, max_rounds=config.refinement_rounds)
        record.adaptive_success = True
        record.adaptive_length_m = outcome.path.metric_length(outcome.grid)
        record.adaptive_rounds = outcome.rounds_used
        record.adaptive_plan_seconds = outcome.plan_seconds
    except PlanningError as exc:
        record.adaptive_rounds = getattr(exc, "rounds_attempted", 0)
        record.adaptive_plan_seconds = getattr(exc, "plan_seconds", 0.0)
    return record


def _run_world(config: BenchConfig, trial: int) -> list:
    """World `trial`'s records, one per cell size.  Its cells share its
    trees and fixed rasters (_world_maps); the planner's map tables are
    released at the end, not held through the next world's noise."""
    domain = config.domain
    trial_seed = derive_seed(config.campaign_seed, trial)
    maps = {}
    cloud = gen_perlin_cloud(config.noise_params(trial_seed))
    records = [run_trial_cell(cloud, domain, cell, trial, trial_seed,
                              cell_index, config, maps)
               for cell_index, cell in enumerate(config.cell_sizes_m)]
    release_map_tables()
    return records


def run_campaign(config: BenchConfig, workers: int = 1) -> tuple[list, dict]:
    """Run every (trial, cell size) pair, worlds in at most `workers`
    processes; returns (records, aggregate), the same at every count."""
    worlds = ordered_map(partial(_run_world, config), range(config.trials),
                         workers, 1)
    records = [record for world in worlds for record in world]
    return records, aggregate_records(config, records)


def aggregate_records(config: BenchConfig, records: list) -> dict:
    per_cell = {}
    for cell in config.cell_sizes_m:
        rows = [r for r in records if r.cell_size_m == cell]
        joint = [r for r in rows if r.fixed_success and r.adaptive_success]
        entry = {
            "depth": rows[0].depth if rows else None,
            "effective_cell_m": rows[0].effective_cell_m if rows else None,
            "trials": len(rows),
            "fixed_successes": sum(r.fixed_success for r in rows),
            "adaptive_successes": sum(r.adaptive_success for r in rows),
            "joint_successes": len(joint),
            "fixed_only_successes": sum(
                r.fixed_success and not r.adaptive_success for r in rows),
            "adaptive_only_successes": sum(
                r.adaptive_success and not r.fixed_success for r in rows),
        }
        if joint:
            mean_fixed = sum(r.fixed_length_m for r in joint) / len(joint)
            mean_adaptive = sum(r.adaptive_length_m for r in joint) / len(joint)
            entry["mean_fixed_length_m"] = mean_fixed
            entry["mean_adaptive_length_m"] = mean_adaptive
            entry["length_improvement_pct"] = (
                (mean_fixed - mean_adaptive) / mean_fixed * 100.0)
        per_cell[repr(cell)] = entry
    return {
        "config": {f.name: (list(v) if isinstance(
            (v := getattr(config, f.name)), tuple) else v)
            for f in fields(config)},
        "per_cell": per_cell,
    }


def records_to_csv(records: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.to_row())
    return buf.getvalue()


def aggregate_to_json(aggregate: dict) -> str:
    return json.dumps(aggregate, indent=2, sort_keys=True) + "\n"


def write_outputs(out_dir, records: list, aggregate: dict) -> None:
    import os
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "records.csv"), "w") as fh:
        fh.write(records_to_csv(records))
    with open(os.path.join(out_dir, "aggregate.json"), "w") as fh:
        fh.write(aggregate_to_json(aggregate))

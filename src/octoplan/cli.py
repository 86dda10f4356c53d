"""Command-line front end.

Subcommands: build, downsample, rasterize, plan, bench, calibrate-perlin.
Every error, usage errors included, prints one JSON line to stderr and
maps to an exit code: 2 unreadable input (usage, parse or spec problems,
an unreadable --cloud or --config), 3 occupied endpoints after refinement,
4 no route at the deepest attempted map, 5 unusable plan request, 1 an
--out-dir that cannot be made or written, or anything else package-specific.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from . import bench as bench_mod
from .cloudio import read_binary, read_xyz, write_binary, write_xyz
from .downsample import (calibrate_voxel_size, downsample_tree, export_mesh,
                         metrics_csv, voxel_filter)
from .errors import (CloudParseError, InvalidRequest, InvalidSpec,
                     NoPathAtMaxDepth, OctoplanError, PointOutOfDomain,
                     StartOrGoalOccupied, require_int)
from .geometry import Aabb, PointCloud, aabb_of, require_inside
from .gridmap import (grid_to_json, grid_to_pgm, rasterize_adaptive,
                      rasterize_fixed)
from .mapgen import PerlinParams, gen_perlin_cloud, scene_cloud
from .planner import (PlanRequest, jps_plan, path_to_json,
                      plan_with_refinement, require_2d)
from .pool import usable_cpus
from .tree import DEFAULT_DEPTH_CAP, McrSpec, compute_depth
from .tree import build as build_tree


def _parse_domain(text: str) -> Aabb:
    try:
        lo_s, hi_s = text.split(":")
        lo = [float(v) for v in lo_s.split(",")]
        hi = [float(v) for v in hi_s.split(",")]
    except ValueError:
        raise InvalidSpec(f"domain must look like x0,y0:x1,y1, got {text!r}") from None
    return Aabb(np.asarray(lo), np.asarray(hi))


def _parse_floats(text: str, name: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in text.split(",")])
    except ValueError:
        raise InvalidSpec(f"{name} must be comma-separated floats, got {text!r}") from None


def _parse_point(text: str, name: str, dim: int) -> np.ndarray:
    point = _parse_floats(text, name)
    if len(point) != dim:
        raise InvalidRequest("wrong_dimensionality", f"{name} has {len(point)}"
                             f" coordinates, the map has {dim}")
    return point


@contextmanager
def _reading(path: str):
    """An input file that cannot be opened or decoded is unreadable input."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpec(f"cannot read {path!r}: {exc}") from None


def _read_cloud(path: str, dim=None) -> PointCloud:
    with _reading(path):
        if path.endswith(".bin"):
            return read_binary(path, dim=dim)
        if path.endswith(".xyz"):
            return read_xyz(path, dim=dim)
    raise InvalidSpec(f"cloud files must end in .xyz or .bin, got {path!r}")


def _write_cloud(cloud: PointCloud, path: str) -> None:
    if path.endswith(".bin"):
        write_binary(cloud, path)
    elif path.endswith(".xyz"):
        write_xyz(cloud, path)
    else:
        raise InvalidSpec(f"cloud files must end in .xyz or .bin, got {path!r}")


def _perlin_params(args, domain: Aabb, spm: float) -> PerlinParams:
    return PerlinParams(
        seed=args.seed, domain=domain, frequency=args.frequency,
        octaves=args.octaves, persistence=args.persistence,
        threshold=args.threshold, samples_per_meter=spm)


def _load_cloud_args(args) -> tuple[PointCloud, Aabb]:
    domain = _parse_domain(args.domain) if args.domain else None
    if args.cloud:
        cloud = _read_cloud(args.cloud, dim=args.dim or domain and domain.dim)
    elif args.perlin:
        if domain is None:
            raise InvalidSpec("--perlin needs --domain")
        cloud = gen_perlin_cloud(_perlin_params(args, domain, args.spm))
    elif args.scene_points is not None:
        cloud = scene_cloud(args.scene_points, seed=args.seed)
    else:
        raise InvalidSpec("provide --cloud, --perlin, or --scene-points")
    if domain is None:
        domain = aabb_of(cloud)
    return cloud, domain


def _resolve_depth(args, domain: Aabb) -> int:
    if args.depth is not None:
        return args.depth
    if args.epsilon_max_m is not None:
        mcr = McrSpec(args.epsilon_max_m, args.range_k)
        return compute_depth(float(domain.edges.max()), mcr.k * mcr.edge)
    raise InvalidSpec("provide --depth or --epsilon-max-m")


def _add_cloud_args(sub):
    sub.add_argument("--cloud", help="input cloud file (.xyz or .bin)")
    sub.add_argument("--dim", type=int, choices=(2, 3),
                     help="cloud dimension on read (default: the --domain's)")
    sub.add_argument("--perlin", action="store_true",
                     help="generate a noise cloud instead of reading one")
    sub.add_argument("--scene-points", type=int,
                     help="generate the 3-D demo scene near this point count")
    sub.add_argument("--domain", help="domain box as x0,y0:x1,y1")
    _add_noise_args(sub)
    sub.add_argument("--spm", type=float,
                     default=PerlinParams.samples_per_meter,
                     help="noise lattice samples per metre")
    sub.add_argument("--save-cloud",
                     help="also write the input cloud to this file in out-dir")


def _add_noise_args(sub):
    sub.add_argument("--frequency", type=float, default=PerlinParams.frequency)
    sub.add_argument("--octaves", type=int, default=PerlinParams.octaves)
    sub.add_argument("--persistence", type=float,
                     default=PerlinParams.persistence)
    sub.add_argument("--threshold", type=float, default=PerlinParams.threshold)


def _add_mode_args(sub):
    sub.add_argument("--mode", choices=("fixed", "adaptive"), default="adaptive")
    sub.add_argument("--cell", help="fixed-mode cell size, scalar or per-axis list")


def _fixed_grid(args, cloud, domain):
    if args.cell is None:
        raise InvalidSpec("fixed mode needs --cell")
    return rasterize_fixed(cloud, domain, _parse_floats(args.cell, "--cell"))


def _add_depth_args(sub):
    sub.add_argument("--depth", type=int, metavar=f"0..{DEFAULT_DEPTH_CAP}",
                     choices=range(DEFAULT_DEPTH_CAP + 1))
    sub.add_argument("--epsilon-max-m", type=float,
                     help="sensing error bound; minimum cell edge is twice this")
    sub.add_argument("--range-k", type=float, default=2.0,
                     help="sensing range multiplier used with --epsilon-max-m")


def _maybe_save_cloud(args, cloud):
    if args.save_cloud:
        _write_cloud(cloud, os.path.join(args.out_dir, args.save_cloud))


def _cmd_build(args) -> int:
    cloud, domain = _load_cloud_args(args)
    depth = _resolve_depth(args, domain)
    _maybe_save_cloud(args, cloud)
    t0 = perf_counter()
    tree = build_tree(cloud, domain, depth)
    elapsed = perf_counter() - t0
    print(json.dumps({
        "n_points": len(cloud), "dim": cloud.dim, "depth": depth,
        "occupied_leaves": len(tree.codes), "build_seconds": elapsed,
    }, sort_keys=True))
    return 0


def _cmd_downsample(args) -> int:
    cloud, domain = _load_cloud_args(args)
    _maybe_save_cloud(args, cloud)
    if args.method == "convex":
        depth = _resolve_depth(args, domain)
        tree = build_tree(cloud, domain, depth)
        result = downsample_tree(tree, workers=args.workers,
                                 mesh=bool(args.mesh_out))
        retained = result.retained
        if args.mesh_out:
            export_mesh(result.per_leaf_meshes,
                        os.path.join(args.out_dir, args.mesh_out))
        rate, elapsed = result.retention_rate, result.elapsed_seconds
        summary = {
            "method": "convex",
            "input_points": len(cloud),
            "retained_points": len(retained),
            "retention_rate": rate,
            "eliminate_seconds": result.eliminate_seconds,
            "mesh_seconds": result.mesh_seconds,
        }
    else:
        t0 = perf_counter()
        if args.voxel_size is not None:
            size = args.voxel_size
        elif args.voxel_target_fraction is not None:
            if not 0 < args.voxel_target_fraction <= 1:
                raise InvalidSpec("--voxel-target-fraction must be in (0, 1],"
                                  f" got {args.voxel_target_fraction}")
            target = max(1, round(args.voxel_target_fraction * len(cloud)))
            size, _ = calibrate_voxel_size(cloud, target)
        else:
            raise InvalidSpec(
                "voxel method needs --voxel-size or --voxel-target-fraction")
        retained = voxel_filter(cloud, size)
        elapsed = perf_counter() - t0
        rate = len(retained) / len(cloud)
        summary = {
            "method": "voxel",
            "voxel_size_m": size,
            "input_points": len(cloud),
            "retained_points": len(retained),
            "retention_rate": rate,
            "elapsed_seconds": elapsed,
        }
    _write_cloud(retained, os.path.join(args.out_dir, args.retained_name))
    with open(os.path.join(args.out_dir, "metrics.csv"), "w") as fh:
        fh.write(metrics_csv(len(cloud), len(retained), rate, elapsed))
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_rasterize(args) -> int:
    cloud, domain = _load_cloud_args(args)
    _maybe_save_cloud(args, cloud)
    if args.mode == "fixed":
        grid = _fixed_grid(args, cloud, domain)
    else:
        depth = _resolve_depth(args, domain)
        tree = build_tree(cloud, domain, depth)
        grid = rasterize_adaptive(tree)
    with open(os.path.join(args.out_dir, "grid.json"), "w") as fh:
        fh.write(grid_to_json(grid))
    if grid.dim == 2:
        with open(os.path.join(args.out_dir, "grid.pgm"), "w") as fh:
            fh.write(grid_to_pgm(grid))
    print(json.dumps({
        "dims": list(grid.dims), "occupied": grid.occupied_count,
        "free": int(np.prod(grid.dims)) - grid.occupied_count,
    }, sort_keys=True))
    return 0


def _cmd_plan(args) -> int:
    cloud, domain = _load_cloud_args(args)
    require_2d(domain.dim)
    start = _parse_point(args.start, "--start", domain.dim)
    goal = _parse_point(args.goal, "--goal", domain.dim)
    require_inside(np.array([start, goal]), domain)
    _maybe_save_cloud(args, cloud)
    report = {"mode": args.mode}
    if args.mode == "fixed":
        t0 = perf_counter()
        grid = _fixed_grid(args, cloud, domain)
        report["build_seconds"] = perf_counter() - t0
        t0 = perf_counter()
        s, t = zip(*(grid.axis_cells(a, v).tolist()
                     for a, v in enumerate(zip(start, goal))))
        path = jps_plan(grid, PlanRequest(s, t))
        report["plan_seconds"] = perf_counter() - t0
        if path is None:
            raise NoPathAtMaxDepth("no route on the fixed grid", grid=grid)
    else:
        depth = _resolve_depth(args, domain)
        t0 = perf_counter()
        tree = build_tree(cloud, domain, depth)
        report["build_seconds"] = perf_counter() - t0
        outcome = plan_with_refinement(tree, start, goal,
                                       max_rounds=args.max_rounds)
        path, grid = outcome.path, outcome.grid
        report["plan_seconds"] = outcome.plan_seconds
        report["rounds_used"] = outcome.rounds_used
    doc = path_to_json(path, grid)
    with open(os.path.join(args.out_dir, "path.json"), "w") as fh:
        fh.write(doc + "\n")
    if grid.dim == 2:
        with open(os.path.join(args.out_dir, "path.pgm"), "w") as fh:
            fh.write(grid_to_pgm(grid, path_cells=path.nodes))
    report["cost"] = path.cost
    report["metric_length_m"] = path.metric_length(grid)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_bench(args) -> int:
    if args.write_default_config:
        sys.stdout.write(bench_mod.BenchConfig().to_text())
        return 0
    if args.config:
        with _reading(args.config), open(args.config) as fh:
            config = bench_mod.BenchConfig.from_text(fh.read())
    else:
        config = bench_mod.BenchConfig()
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.campaign_seed is not None:
        overrides["campaign_seed"] = args.campaign_seed
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
    records, aggregate = bench_mod.run_campaign(config, workers=args.workers)
    bench_mod.write_outputs(args.out_dir, records, aggregate)
    if args.format == "csv":
        sys.stdout.write(bench_mod.records_to_csv(records))
    else:
        sys.stdout.write(bench_mod.aggregate_to_json(aggregate))
    return 0


def _cmd_calibrate_perlin(args) -> int:
    domain = _parse_domain(args.domain)
    require_int("--target", args.target, 1)
    if not 0 <= args.tolerance_pct <= 100:
        raise InvalidSpec("--tolerance-pct must be in [0, 100],"
                          f" got {args.tolerance_pct}")

    def count_at(spm: float) -> int:
        return len(gen_perlin_cloud(_perlin_params(args, domain, spm)))

    lo, hi = 0.05, 4.0
    count = count_at(hi)
    while count < args.target and hi < 4096:
        lo = hi
        hi *= 2.0
        count = count_at(hi)
    if count < args.target:
        raise InvalidSpec(
            f"target {args.target} is out of reach: {count} points at the "
            f"{hi:g} samples_per_meter cap")
    best = (hi, count)
    tol = max(1, int(args.target * args.tolerance_pct / 100.0))
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        count = count_at(mid)
        if abs(count - args.target) < abs(best[1] - args.target):
            best = (mid, count)
        if abs(count - args.target) <= tol:
            best = (mid, count)
            break
        if count < args.target:
            lo = mid
        else:
            hi = mid
    print(json.dumps({
        "samples_per_meter": best[0], "count": best[1],
        "target": args.target,
    }, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, subcommands' too, as InvalidSpec."""

    def error(self, message):
        raise InvalidSpec(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="octoplan",
        description="Adaptive subdivision maps, downsampling, and planning.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=usable_cpus())
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="build a subdivision tree and report stats")
    _add_cloud_args(p)
    _add_depth_args(p)
    p.set_defaults(func=_cmd_build)

    p = subs.add_parser("downsample", help="structure-aware cloud reduction")
    _add_cloud_args(p)
    _add_depth_args(p)
    p.add_argument("--method", choices=("convex", "voxel"), default="convex")
    p.add_argument("--voxel-size", type=float)
    p.add_argument("--voxel-target-fraction", type=float,
                   help="calibrate the voxel size for this retained fraction")
    p.add_argument("--retained-name", default="retained.xyz")
    p.add_argument("--mesh-out", help="write leaf hulls to this OBJ file")
    p.set_defaults(func=_cmd_downsample)

    p = subs.add_parser("rasterize", help="produce an occupancy grid")
    _add_cloud_args(p)
    _add_depth_args(p)
    _add_mode_args(p)
    p.set_defaults(func=_cmd_rasterize)

    p = subs.add_parser("plan", help="plan a route between metric points")
    _add_cloud_args(p)
    _add_depth_args(p)
    _add_mode_args(p)
    p.add_argument("--start", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--max-rounds", type=int, default=2)
    p.set_defaults(func=_cmd_plan)

    p = subs.add_parser("bench", help="fixed-versus-adaptive planning campaign")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--trials", type=int)
    p.add_argument("--campaign-seed", type=int)
    p.add_argument("--write-default-config", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = subs.add_parser("calibrate-perlin",
                        help="find samples_per_meter for a target point count")
    p.add_argument("--domain", required=True)
    p.add_argument("--target", type=int, default=1200000)
    p.add_argument("--tolerance-pct", type=float, default=1.0)
    _add_noise_args(p)
    p.set_defaults(func=_cmd_calibrate_perlin)
    return parser


_EXIT_CODES = (
    (StartOrGoalOccupied, 3),
    (NoPathAtMaxDepth, 4),
    (InvalidRequest, 5),
    (PointOutOfDomain, 5),
    (CloudParseError, 2),
    (InvalidSpec, 2),
    (OctoplanError, 1),
    (OSError, 1),  # reads raise InvalidSpec, so this is the --out-dir
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        require_int("--workers", args.workers, 1)
        os.makedirs(args.out_dir, exist_ok=True)
        return args.func(args)
    except (OctoplanError, OSError) as exc:
        payload = {"error": getattr(exc, "code", type(exc).__name__.lower()),
                   "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return next(code for klass, code in _EXIT_CODES
                    if isinstance(exc, klass))


if __name__ == "__main__":
    sys.exit(main())

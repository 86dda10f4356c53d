"""Adaptive subdivision maps for point clouds: build, downsample,
rasterize, and plan over them."""

from .bench import BenchConfig, TrialRecord, run_campaign
from .cloudio import read_binary, read_xyz, write_binary, write_xyz
from .downsample import (DownsampleResult, calibrate_voxel_size,
                         convexify_leaf, downsample_tree, export_mesh,
                         voxel_filter)
from .errors import (CloudParseError, DegenerateInput, DepthCapExceeded,
                     EmptyInput, InvalidRequest, InvalidSpec,
                     NoPathAtMaxDepth, OctoplanError, PlanningError,
                     PointOutOfDomain, StartOrGoalOccupied)
from .geometry import (Aabb, ConvexHull, PointCloud, aabb_of, contains,
                       quickhull, strictly_inside)
from .gridmap import (UniformGridMap, gap_preserved, grid_to_json,
                      grid_to_pgm, rasterize_adaptive, rasterize_fixed,
                      rle_encode)
from .mapgen import (PerlinParams, gen_perlin_cloud, gen_solid_cloud,
                     multi_octave_noise, scene_cloud, solid_cloud_near,
                     solid_domain)
from .planner import (GridPath, PlanRequest, RefinementResult, dijkstra_plan,
                      jps_plan, path_to_json, plan_with_refinement,
                      validate_path)
from .tree import (LeafRecord, McrSpec, OctoTree, build, compute_depth,
                   dynamic_partition, occupied_leaves)

__all__ = [
    "Aabb", "BenchConfig", "CloudParseError", "ConvexHull",
    "DegenerateInput", "DepthCapExceeded", "DownsampleResult", "EmptyInput",
    "GridPath", "InvalidRequest", "InvalidSpec", "LeafRecord", "McrSpec",
    "NoPathAtMaxDepth", "OctoTree", "OctoplanError", "PerlinParams",
    "PlanRequest", "PlanningError", "PointCloud", "PointOutOfDomain",
    "RefinementResult", "StartOrGoalOccupied", "TrialRecord",
    "UniformGridMap", "aabb_of", "build", "calibrate_voxel_size",
    "compute_depth", "contains", "convexify_leaf", "dijkstra_plan",
    "downsample_tree", "dynamic_partition", "export_mesh", "gap_preserved",
    "gen_perlin_cloud", "gen_solid_cloud", "grid_to_json", "grid_to_pgm",
    "jps_plan", "multi_octave_noise", "occupied_leaves", "path_to_json",
    "plan_with_refinement", "quickhull", "rasterize_adaptive",
    "rasterize_fixed", "read_binary", "read_xyz", "rle_encode",
    "run_campaign", "scene_cloud", "solid_cloud_near", "solid_domain",
    "strictly_inside", "validate_path", "voxel_filter", "write_binary",
    "write_xyz",
]

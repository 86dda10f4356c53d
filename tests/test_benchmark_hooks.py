"""The benchmark's hooks into the package.

benchmark/workloads.py wraps package functions by (module, attribute),
reads members of the package's objects (OctoTree.leaves, a grid's fields,
a RefinementResult) and calls further package names by module attribute.
Deleting or renaming any of these breaks `benchmark/run.py`, which no other
test runs.
"""
import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from octoplan.bench import BenchConfig, run_campaign
from octoplan.geometry import Aabb, PointCloud
from octoplan.gridmap import UniformGridMap
from octoplan.planner import plan_with_refinement
from octoplan.tree import build

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def benchmark_module(name):
    sys.path.insert(0, str(BENCHMARK))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCHMARK))


@pytest.fixture(scope="module")
def workloads():
    return benchmark_module("workloads")


@pytest.fixture(scope="module")
def spans():
    return benchmark_module("spans")


def test_every_wrapped_call_site_exists(workloads, tmp_path):
    cloud = PointCloud(np.array([[1.0, 1.0], [6.0, 3.0], [6.2, 3.1]]))
    domain = Aabb(np.zeros(2), np.array([8.0, 4.0]))
    tree = build(cloud, domain, 3)
    assert len(tree.leaves) == 2
    builds = 0
    for name, cls in workloads.WORKLOADS.items():
        # Constructing a workload only reads settings; setup() does the
        # work and is not called here.
        workload = cls(1, str(tmp_path))
        hooks = workload.probes(workload.new_capture()) + workload.layers()
        assert hooks, name
        for module, attr, span, count in hooks:
            assert callable(getattr(module, attr, None)), \
                f"{name}: {module.__name__}.{attr}"
            if span == "tree.build":
                builds += 1
                assert count(tree, (cloud, domain, 3), {}) == \
                    {"points": 3, "leaves": 2}
    assert builds >= 1


def test_traced_campaign_sees_every_partition(workloads, spans):
    # 3.0, 6.0 and 2.0 m are depths 4, 3 and 5 on the 40 m edge: each world
    # builds depth 3 and partitions it to 4 and then 5.  With no refinement
    # those are all the partitions, and the planner's wrapped
    # dynamic_partition must see them.
    config = BenchConfig(domain_x_m=40.0, domain_y_m=30.0,
                         cell_sizes_m=(3.0, 6.0, 2.0), trials=3,
                         refinement_rounds=0)
    tracer = spans.Tracer()
    for entry in workloads.PLANNER_LAYERS:
        tracer.wrap(*entry)
    try:
        run_campaign(config)
    finally:
        tracer.restore()
    assert sum(s.name == "tree.dynamic_partition"
               for s in tracer.spans) == 2 * config.trials


def test_every_package_name_the_workloads_read_exists():
    # workloads.py reaches the package by module attribute
    # (planner_mod.validate_path, mapgen_mod.solid_domain, ...) outside the
    # wrapped call sites, so a moved name would first fail in
    # benchmark/run.py.  Walk its source and look every such name up.
    tree = ast.parse((BENCHMARK / "workloads.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({alias.asname or alias.name: alias.name
                            for alias in node.names
                            if alias.name.startswith("octoplan")})
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("octoplan"):
            read.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            read.add((modules[node.value.id], node.attr))
    assert {"octoplan.planner", "octoplan.mapgen", "octoplan.bench",
            "octoplan.tree"} <= {module for module, _ in read}
    missing = sorted(f"{module}.{name}" for module, name in read
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []


def test_every_member_the_workloads_read_exists(workloads):
    # workloads.py also reads members of the package's objects, which the
    # walk above cannot see: a grid's dims, cell_size, origin and occupancy
    # (snapshot), the UniformGridMap constructor (as_grid), cell_center
    # (query endpoints), OctoTree.leaves (build counts) and a
    # RefinementResult's grid, path and rounds_used (campaign probes).
    cloud = PointCloud(np.array([[1.0, 1.0], [6.0, 3.0]]))
    domain = Aabb(np.zeros(2), np.array([8.0, 4.0]))
    tree = build(cloud, domain, 3)
    assert len(tree.leaves) == 2
    result = plan_with_refinement(tree, (0.5, 0.25), (7.5, 3.75),
                                  max_rounds=0)
    assert result.rounds_used == 0
    snap = workloads.snapshot(result.grid)
    assert workloads.path_problem(snap, result.path) is None
    assert workloads.dijkstra_problem(snap, result.path) is None
    grid = workloads.as_grid(snap)
    assert isinstance(grid, UniformGridMap)
    assert grid.cell_center((0, 0)).tolist() == [0.5, 0.25]

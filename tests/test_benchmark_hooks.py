"""The benchmark's hooks into the package.

benchmark/workloads.py wraps package functions by (module, attribute) and
reads OctoTree.leaves to count a build's leaves. Deleting or renaming any
of these breaks `benchmark/run.py --trace 1`, which no other test runs.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from octoplan.geometry import Aabb, PointCloud
from octoplan.tree import build

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARK))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARK))
    return workloads


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

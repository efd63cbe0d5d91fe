"""Tests for the public API of the forestloc package."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import forestloc

SRC_DIR = Path(forestloc.__file__).resolve().parent


def test_all_names_resolve_once():
    names = forestloc.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(forestloc, name)]
    assert missing == []


def test_public_names_pinned():
    """The exact public API; a name leaves or joins it only on purpose."""
    assert len(forestloc.__all__) == 38
    assert set(forestloc.__all__) == {
        "BenchmarkConfig",
        "BenchmarkDetail",
        "BenchmarkRow",
        "DTGraph",
        "DegeneratePointSetError",
        "EmptyCloudError",
        "Forest",
        "ForestLocError",
        "ForestSpec",
        "InfeasibleForestError",
        "InsufficientMatchesError",
        "LocalizationResult",
        "MatchParams",
        "NoOverlapError",
        "PipelineResult",
        "RigidTransform2D",
        "SimulatedScan",
        "TriangleDescriptor",
        "TrunkExtractionParams",
        "TrunkMap",
        "aggregate_scans",
        "cluster_trunk_points",
        "dissimilarity",
        "extract_trunk_map",
        "generate_forest",
        "load_graph",
        "load_xyz",
        "localize",
        "normalize_angle",
        "run_benchmark",
        "run_pipeline",
        "save_graph",
        "save_xyz",
        "select_trunk_points",
        "simulate_scan",
        "triangle_descriptors",
        "triangulate",
        "write_benchmark_csv",
    }


def test_import_leaves_out_the_optimizer():
    """Importing forestloc loads no optimizer: the library uses none of scipy.optimize."""
    code = "import sys, forestloc; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, with the line of each import.

    A name counts as read when it appears as a bare name, as the root of
    an attribute chain, or as a string in ``__all__`` (a re-export).
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_scan_flags_a_stray_name():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["field (line 1)"]
    assert unused_imports("import numpy as np\n\nnp.zeros(1)\n") == []
    assert unused_imports("from .a import b\n\n__all__ = ['b']\n") == []


def test_no_unused_imports_in_library():
    """Every name a module of the package imports is read in that module."""
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC_DIR.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_benchmark_surface(tmp_path):
    """The library surface the benchmark (perfbench/run.py, workloads.py) reads.

    The benchmark's own tests never build its map or trace a query, so a
    change that breaks what it reads would otherwise first show as a
    failed benchmark run.
    """
    forest = forestloc.generate_forest(
        forestloc.ForestSpec(area=(100.0, 100.0), density=350.0, seed=1)
    )
    g_map = forestloc.triangulate(forest.to_trunk_map())
    assert g_map.n_vertices == len(forest.positions)
    assert len(g_map.interior_stars) == len(g_map.star_features) > 0
    no_stars = forestloc.triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert len(no_stars.interior_stars) == len(no_stars.star_features) == 0

    path = tmp_path / "map.csv"
    forestloc.save_graph(g_map, path)
    back = forestloc.load_graph(path)
    np.testing.assert_array_equal(back.points, g_map.points)
    np.testing.assert_array_equal(back.star_features, g_map.star_features)

    truth = forestloc.RigidTransform2D(0.3, np.array([50.0, 50.0]))
    step = np.array([math.cos(truth.theta), math.sin(truth.theta)])
    scans = [
        forestloc.simulate_scan(
            forest, forestloc.RigidTransform2D(truth.theta, truth.t - k * step), seed=[1, k]
        )
        for k in range(2)
    ]
    cloud = forestloc.aggregate_scans(scans)
    params = forestloc.TrunkExtractionParams(probe_tolerance=0.25)
    keep = forestloc.select_trunk_points(cloud, params)
    clusters = forestloc.cluster_trunk_points(cloud[keep][:, :2], params)
    assert len(clusters) >= 10
    for cluster in clusters:
        assert np.shape(cluster.centroid) == (2,) and cluster.size >= 1
    trunk_map = forestloc.TrunkMap(
        positions=np.array([c.centroid for c in clusters]),
        support=np.array([c.size for c in clusters], dtype=np.intp),
    )
    g_loc = forestloc.triangulate(trunk_map)
    assert g_loc.n_vertices == len(clusters)
    result = forestloc.localize(g_loc, g_map)
    assert {"stars", "matching", "verification"} <= result.elapsed.keys()
    assert 0 < result.match_count <= len(g_loc.interior_stars)
    assert result.candidate_count >= result.match_count
    assert np.hypot(*(result.pose.t - truth.t)) < 0.5

    piped = forestloc.run_pipeline(cloud, g_map, params)
    assert piped.localization.pose.theta == result.pose.theta
    np.testing.assert_array_equal(piped.localization.pose.t, result.pose.t)
    np.testing.assert_array_equal(piped.trunk_map.positions, trunk_map.positions)

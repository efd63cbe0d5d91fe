"""Tests for the public API of the forestloc package."""

import os
import subprocess
import sys

import forestloc


def test_all_names_resolve_once():
    names = forestloc.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(forestloc, name)]
    assert missing == []


def test_public_names_pinned():
    """The exact public API; a name leaves or joins it only on purpose."""
    assert len(forestloc.__all__) == 40
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
        "TriangleStar",
        "TrunkCluster",
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

"""Landmark-based localization in forests from lidar trunk triangulations."""

from .dtgraph import (
    DTGraph,
    TriangleDescriptor,
    TriangleStar,
    load_graph,
    save_graph,
    triangle_descriptors,
    triangulate,
)
from .errors import (
    DegeneratePointSetError,
    EmptyCloudError,
    ForestLocError,
    InfeasibleForestError,
    InsufficientMatchesError,
    NoOverlapError,
)
from .geometry import RigidTransform2D, load_xyz, normalize_angle, save_xyz
from .matching import (
    LocalizationResult,
    MatchParams,
    dissimilarity,
    localize,
)
from .pipeline import (
    BenchmarkConfig,
    BenchmarkDetail,
    BenchmarkRow,
    PipelineResult,
    run_benchmark,
    run_pipeline,
    write_benchmark_csv,
)
from .simulator import (
    Forest,
    ForestSpec,
    SimulatedScan,
    aggregate_scans,
    generate_forest,
    simulate_scan,
)
from .trunks import (
    TrunkCluster,
    TrunkExtractionParams,
    TrunkMap,
    cluster_trunk_points,
    extract_trunk_map,
    select_trunk_points,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "BenchmarkDetail",
    "BenchmarkRow",
    "DegeneratePointSetError",
    "DTGraph",
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
]

"""End-to-end pipeline (cloud -> trunks -> graph -> pose) and the benchmark.

The benchmark mirrors the frames-aggregation experiment: simulate sites
in a synthetic stand, aggregate 1..k consecutive scans per site, run the
full pipeline against the ground-truth global graph, and tabulate
success rates and error statistics per frame count.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .dtgraph import DTGraph, triangulate
from .errors import ForestLocError
from .geometry import RigidTransform2D, _as_count, normalize_angle
from .matching import LocalizationResult, localize
from .simulator import (
    ForestSpec,
    _check_noise,
    aggregate_scans,
    generate_forest,
    simulate_scan,
)
from .trunks import TrunkExtractionParams, TrunkMap, extract_trunk_map


@dataclass(frozen=True)
class PipelineResult:
    localization: LocalizationResult
    trunk_map: TrunkMap
    timings: dict


def run_pipeline(
    cloud,
    graph_map: DTGraph,
    extraction: TrunkExtractionParams | None = None,
) -> PipelineResult:
    """Extract trunks, triangulate, and localize; stage timings recorded.

    Errors carry a ``stage`` attribute naming the stage that raised.
    """
    timings = {}
    stage = "extract"
    try:
        t0 = time.perf_counter()
        trunk_map = extract_trunk_map(cloud, extraction)
        timings["extract"] = time.perf_counter() - t0
        stage = "triangulate"
        t0 = time.perf_counter()
        graph_local = triangulate(trunk_map)
        timings["triangulate"] = time.perf_counter() - t0
        stage = "localize"
        t0 = time.perf_counter()
        result = localize(graph_local, graph_map)
        timings["localize"] = time.perf_counter() - t0
    except ForestLocError as exc:
        exc.stage = stage
        raise
    timings["total"] = sum(timings.values())
    return PipelineResult(
        localization=result,
        trunk_map=trunk_map,
        timings=timings,
    )


# The benchmark's fixed setup: extraction settings, site placement, and
# the success bounds a pose must meet.
BENCHMARK_EXTRACTION = TrunkExtractionParams(probe_tolerance=0.25)
SITE_MARGIN = 35.0  # keep sites this far from the stand edge, meters
FRAME_SPACING = 1.0  # meters between consecutive scan poses
SUCCESS_TRANSLATION = 0.5  # meters
SUCCESS_ROTATION_DEG = 2.23


@dataclass(frozen=True)
class BenchmarkConfig:
    frames_list: tuple = (1, 3, 5, 10)
    sites: int = 100
    seed: int = 0
    area: tuple = (250.0, 250.0)
    density: float = 350.0
    noise: float = 0.03  # range noise sigma, meters

    def __post_init__(self):
        frames = tuple(_as_count(f, "frame count") for f in self.frames_list)
        if len(frames) == 0:
            raise ValueError("frames_list must not be empty")
        if any(f < 1 for f in frames):
            raise ValueError("frame counts must be positive")
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("frames_list must be strictly ascending")
        if _as_count(self.sites, "sites") < 1:
            raise ValueError("sites must be positive")
        _check_noise(self.noise)
        object.__setattr__(self, "frames_list", frames)


@dataclass(frozen=True)
class BenchmarkRow:
    frames: int
    avg_trunks: float
    avg_matched_triangles: float
    success_rate: float
    trans_err_mean: float
    trans_err_std: float
    rot_err_mean: float
    rot_err_max: float
    t_localmap: float
    t_match: float


@dataclass(frozen=True)
class BenchmarkDetail:
    frames: int
    site: int
    n_trunks: int
    matches: int
    success: bool
    trans_err: float  # nan when localization raised
    rot_err: float
    t_localmap: float
    t_match: float


def _simulate_site(forest, site_pose, n_frames, spacing, noise, seed):
    """Scans spacing meters apart along site_pose's heading; scan k gets seed + k."""
    scans = []
    heading = site_pose.theta
    for k in range(n_frames):
        offset = np.array(
            [math.cos(heading), math.sin(heading)]
        ) * (spacing * k)
        pose = RigidTransform2D(heading, site_pose.t + offset)
        scans.append(simulate_scan(forest, pose, noise, seed=seed + k))
    return scans


def run_benchmark(config: BenchmarkConfig):
    """Run the frames-aggregation benchmark and return (rows, details).

    write_benchmark_csv writes them out.  Fixed seeds give identical
    output apart from the timing columns.
    """
    forest = generate_forest(
        ForestSpec(area=config.area, density=config.density, seed=config.seed)
    )
    graph_map = triangulate(forest.to_trunk_map())
    graph_map.star_features  # build the offline star table and index once, outside the timings
    graph_map.star_index
    rng = np.random.default_rng(config.seed + 1)
    w, h = config.area
    m = SITE_MARGIN
    sites = [
        RigidTransform2D(
            rng.uniform(-math.pi, math.pi),
            np.array([rng.uniform(m, w - m), rng.uniform(m, h - m)]),
        )
        for _ in range(config.sites)
    ]
    max_frames = max(config.frames_list)
    details = []
    for site_id, site_pose in enumerate(sites):
        scans = _simulate_site(
            forest,
            site_pose,
            max_frames,
            FRAME_SPACING,
            config.noise,
            seed=config.seed + 1000 * site_id,
        )
        for frames in config.frames_list:
            cloud = aggregate_scans(scans[:frames])
            t0 = time.perf_counter()
            n_trunks, matches = 0, 0
            success, trans_err, rot_err = False, float("nan"), float("nan")
            t_localmap = t_match = 0.0
            try:
                trunk_map = extract_trunk_map(cloud, BENCHMARK_EXTRACTION)
                n_trunks = len(trunk_map)
                graph_local = triangulate(trunk_map)
                t_localmap = time.perf_counter() - t0
                t0 = time.perf_counter()
                result = localize(graph_local, graph_map)
                t_match = time.perf_counter() - t0
                matches = result.match_count
                truth = scans[0].true_pose
                trans_err = float(np.linalg.norm(result.pose.t - truth.t))
                rot_err = abs(
                    math.degrees(normalize_angle(result.pose.theta - truth.theta))
                )
                success = (
                    trans_err < SUCCESS_TRANSLATION
                    and rot_err < SUCCESS_ROTATION_DEG
                )
            except ForestLocError:
                if t_localmap == 0.0:
                    t_localmap = time.perf_counter() - t0
                else:
                    t_match = time.perf_counter() - t0
            details.append(
                BenchmarkDetail(
                    frames=frames,
                    site=site_id,
                    n_trunks=n_trunks,
                    matches=matches,
                    success=success,
                    trans_err=trans_err,
                    rot_err=rot_err,
                    t_localmap=t_localmap,
                    t_match=t_match,
                )
            )
    details.sort(key=lambda d: (d.frames, d.site))
    rows = []
    for frames in config.frames_list:
        sub = [d for d in details if d.frames == frames]
        succ = [d for d in sub if d.success]
        terr = np.array([d.trans_err for d in succ])
        rerr = np.array([d.rot_err for d in succ])
        rows.append(
            BenchmarkRow(
                frames=frames,
                avg_trunks=float(np.mean([d.n_trunks for d in sub])),
                avg_matched_triangles=float(np.mean([d.matches for d in sub])),
                success_rate=len(succ) / len(sub),
                trans_err_mean=float(terr.mean()) if len(succ) else float("nan"),
                trans_err_std=float(terr.std()) if len(succ) else float("nan"),
                rot_err_mean=float(rerr.mean()) if len(succ) else float("nan"),
                rot_err_max=float(rerr.max()) if len(succ) else float("nan"),
                t_localmap=float(np.mean([d.t_localmap for d in sub])),
                t_match=float(np.mean([d.t_match for d in sub])),
            )
        )
    return rows, details


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.6f}"
    return str(value)


RESULTS_HEADER = ",".join(f.name for f in fields(BenchmarkRow))
DETAIL_HEADER = ",".join(f.name for f in fields(BenchmarkDetail))


def write_benchmark_csv(rows, details, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, records in (
        ("results.csv", RESULTS_HEADER, rows),
        ("detail.csv", DETAIL_HEADER, details),
    ):
        with open(out / name, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for record in records:
                fh.write(",".join(_fmt(v) for v in astuple(record)) + "\n")

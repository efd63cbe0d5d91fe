"""Tests for forestloc.pipeline — end-to-end runs and the benchmark harness."""

import math

import numpy as np
import pytest

from forestloc.dtgraph import triangulate
from forestloc.errors import NoOverlapError
from forestloc.geometry import RigidTransform2D, normalize_angle
from forestloc.pipeline import (
    SUCCESS_ROTATION_DEG,
    SUCCESS_TRANSLATION,
    BenchmarkConfig,
    run_benchmark,
    run_pipeline,
    write_benchmark_csv,
)
from forestloc.simulator import ForestSpec, aggregate_scans, generate_forest, simulate_scan
from forestloc.trunks import TrunkExtractionParams, extract_trunk_map


RESULTS_HEADER = (
    "frames,avg_trunks,avg_matched_triangles,success_rate,trans_err_mean,"
    "trans_err_std,rot_err_mean,rot_err_max,t_localmap,t_match"
)
DETAIL_HEADER = "frames,site,n_trunks,matches,success,trans_err,rot_err,t_localmap,t_match"


def scene(seed=0, heading=0.3, origin=(50.0, 50.0), frames=5):
    forest = generate_forest(ForestSpec(area=(100.0, 100.0), density=350.0, seed=seed))
    g_map = triangulate(forest.to_trunk_map())
    pose = RigidTransform2D(heading, np.asarray(origin, dtype=float))
    step = np.array([math.cos(heading), math.sin(heading)])
    scans = [
        simulate_scan(forest, RigidTransform2D(heading, pose.t + k * step), seed=seed + k)
        for k in range(frames)
    ]
    return forest, g_map, pose, aggregate_scans(scans)


def test_run_pipeline_known_pose():
    _, g_map, pose, cloud = scene(seed=1)
    result = run_pipeline(cloud, g_map, extraction=TrunkExtractionParams(probe_tolerance=0.25))
    assert result.trunk_map is not None and len(result.trunk_map) >= 10
    est = result.localization.pose
    assert np.hypot(*(est.t - pose.t)) < 0.5
    assert abs(normalize_angle(est.theta - pose.theta)) < math.radians(2.23)


def test_run_pipeline_identity_pose():
    """A map built from the local cloud itself localizes to the identity."""
    _, _, _, cloud = scene(seed=2)
    params = TrunkExtractionParams(probe_tolerance=0.25)
    g_self = triangulate(extract_trunk_map(cloud, params))
    result = run_pipeline(cloud, g_self, extraction=params)
    assert np.abs(result.localization.pose.t).max() < 1e-6
    assert abs(result.localization.pose.theta) < 1e-6


def test_run_pipeline_stage_timings():
    _, g_map, _, cloud = scene(seed=3, frames=3)
    result = run_pipeline(cloud, g_map, extraction=TrunkExtractionParams(probe_tolerance=0.25))
    assert set(result.timings) >= {"extract", "triangulate", "localize", "total"}
    assert result.timings["total"] >= result.timings["extract"]


def test_run_pipeline_no_overlap_stage():
    _, _, _, cloud = scene(seed=4, frames=3)
    rng = np.random.default_rng(5)
    tiny = triangulate(rng.uniform(0.0, 2.0, (25, 2)))
    with pytest.raises(NoOverlapError, match="no overlap") as ei:
        run_pipeline(cloud, tiny, extraction=TrunkExtractionParams(probe_tolerance=0.25))
    assert getattr(ei.value, "stage", None) == "localize"


def test_benchmark_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(frames_list=())
    with pytest.raises(ValueError):
        BenchmarkConfig(frames_list=(3, 1))
    for repeated in ((1, 1), (1, 3, 3)):
        with pytest.raises(ValueError, match="strictly ascending"):
            BenchmarkConfig(frames_list=repeated)
    with pytest.raises(ValueError):
        BenchmarkConfig(frames_list=(0, 2))
    with pytest.raises(ValueError):
        BenchmarkConfig(sites=0)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"frames_list": (1.9, 2.5)}, "frame count must be an integer"),
        ({"frames_list": (1, 3.0)}, "frame count must be an integer"),
        ({"sites": 1.5}, "sites must be an integer"),
        ({"sites": 2.0}, "sites must be an integer"),
    ],
    ids=["frames_list", "frames_list-whole-float", "sites", "sites-whole-float"],
)
def test_benchmark_config_rejects_fractional_counts(settings, message):
    with pytest.raises(ValueError, match=message):
        BenchmarkConfig(**settings)


@pytest.mark.parametrize("noise", [math.nan, math.inf, -0.01])
def test_benchmark_config_rejects_bad_noise(noise):
    with pytest.raises(ValueError, match="noise must be finite and non-negative"):
        BenchmarkConfig(noise=noise)


@pytest.fixture(scope="module")
def bench():
    cfg = BenchmarkConfig(frames_list=(1, 5), sites=5, seed=0, area=(150.0, 150.0))
    rows, details = run_benchmark(cfg)
    return cfg, rows, details


def test_benchmark_trend(bench):
    """Aggregating more frames never lowers the success rate."""
    _, rows, details = bench
    assert [r.frames for r in rows] == [1, 5]
    assert rows[1].success_rate >= rows[0].success_rate
    assert rows[1].avg_matched_triangles > rows[0].avg_matched_triangles
    assert rows[1].avg_trunks > rows[0].avg_trunks
    assert len(details) == 10
    assert [(d.frames, d.site) for d in details] == sorted(
        (d.frames, d.site) for d in details
    )


def test_benchmark_rows_within_bounds(bench):
    _, rows, details = bench
    for r in rows:
        assert 0.0 <= r.success_rate <= 1.0
        assert r.avg_trunks > 0
        succ = [d for d in details if d.frames == r.frames and d.success]
        if succ:
            assert r.trans_err_mean >= 0.0 and r.rot_err_mean >= 0.0
            assert r.rot_err_max >= r.rot_err_mean - 1e-12
        else:
            assert math.isnan(r.trans_err_mean)


def test_benchmark_detail_errors_match_success(bench):
    _, _, details = bench
    for d in details:
        if d.success:
            assert d.trans_err < SUCCESS_TRANSLATION
            assert d.rot_err < SUCCESS_ROTATION_DEG
        assert d.n_trunks >= 0 and d.matches >= 0


def test_benchmark_csv_files(bench, tmp_path):
    _, rows, details = bench
    write_benchmark_csv(rows, details, tmp_path)
    results = (tmp_path / "results.csv").read_text().splitlines()
    detail = (tmp_path / "detail.csv").read_text().splitlines()
    assert results[0] == RESULTS_HEADER
    assert detail[0] == DETAIL_HEADER
    assert len(results) == 1 + len(rows)
    assert len(detail) == 1 + len(details)
    for line in results[1:]:
        assert len(line.split(",")) == len(RESULTS_HEADER.split(","))
    for line in detail[1:]:
        assert len(line.split(",")) == len(DETAIL_HEADER.split(","))


def strip_timing_columns(csv_text, header):
    cols = header.split(",")
    keep = [i for i, c in enumerate(cols) if not c.startswith("t_")]
    out = []
    for line in csv_text.splitlines():
        parts = line.split(",")
        out.append(",".join(parts[i] for i in keep))
    return "\n".join(out)


def test_benchmark_deterministic(tmp_path):
    """Identical seeds give identical CSVs apart from wall-clock columns."""
    cfg = BenchmarkConfig(frames_list=(1, 3), sites=2, seed=4, area=(150.0, 150.0))
    write_benchmark_csv(*run_benchmark(cfg), tmp_path / "a")
    write_benchmark_csv(*run_benchmark(cfg), tmp_path / "b")
    for name, header in (("results.csv", RESULTS_HEADER), ("detail.csv", DETAIL_HEADER)):
        a = strip_timing_columns((tmp_path / "a" / name).read_text(), header)
        b = strip_timing_columns((tmp_path / "b" / name).read_text(), header)
        assert a == b


def test_benchmark_noise_free_succeeds():
    cfg = BenchmarkConfig(
        frames_list=(5,),
        sites=3,
        seed=1,
        area=(150.0, 150.0),
        noise=0.0,
    )
    rows, _ = run_benchmark(cfg)
    assert rows[0].success_rate == 1.0

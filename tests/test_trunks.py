"""Tests for forestloc.trunks — probe selection, clustering, landmark maps."""

import numpy as np
import pytest

from forestloc.errors import EmptyCloudError
from forestloc.geometry import RigidTransform2D
from forestloc.simulator import ForestSpec, aggregate_scans, generate_forest, simulate_scan
from forestloc.trunks import (
    TrunkExtractionParams,
    TrunkMap,
    cluster_trunk_points,
    extract_trunk_map,
    select_trunk_points,
)


def make_cylinder(cx, cy, radius=0.15, height=4.0, n=500, seed=0):
    """Lidar-like points scattered on a vertical cylinder surface."""
    rng = np.random.default_rng(seed)
    az = rng.uniform(0, 2 * np.pi, n)
    z = rng.uniform(0, height, n)
    return np.column_stack(
        [cx + radius * np.cos(az), cy + radius * np.sin(az), z]
    )


def probe_oracle(cloud, params):
    """Direct evaluation of the probe test by a linear scan of the cloud."""
    keep = []
    for i, p in enumerate(cloud):
        probe = p + [0.0, 0.0, params.probe_height]
        d = np.sqrt(((cloud - probe) ** 2).sum(axis=1)).min()
        if d <= params.probe_tolerance:
            keep.append(i)
    return keep


def test_params_validation():
    with pytest.raises(ValueError):
        TrunkExtractionParams(probe_height=-1.0)
    with pytest.raises(ValueError):
        TrunkExtractionParams(probe_tolerance=0.0)
    with pytest.raises(ValueError):
        TrunkExtractionParams(probe_height=0.1, probe_tolerance=0.2)
    with pytest.raises(ValueError):
        TrunkExtractionParams(min_cluster_size=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["probe_height", "probe_tolerance", "cluster_tolerance"])
def test_params_reject_non_finite_lengths(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        TrunkExtractionParams(**{name: value})


def test_vertical_line_keeps_low_points():
    """Points on a 0.5 m ladder keep z <= 1 with a 2 m probe."""
    cloud = np.array([[0.0, 0.0, z] for z in np.arange(0.0, 3.01, 0.5)])
    idx = select_trunk_points(cloud, TrunkExtractionParams())
    kept_z = sorted(cloud[idx][:, 2])
    assert kept_z == [0.0, 0.5, 1.0]


def test_single_isolated_point():
    cloud = np.array([[3.0, -2.0, 0.7]])
    assert len(select_trunk_points(cloud, TrunkExtractionParams())) == 0


def test_horizontal_plane_rejected():
    g = np.arange(0.0, 3.0, 0.1)
    cloud = np.array([[x, y, 0.0] for x in g for y in g])
    assert len(select_trunk_points(cloud, TrunkExtractionParams())) == 0


def test_empty_cloud_rejected():
    with pytest.raises(EmptyCloudError, match="empty input cloud"):
        select_trunk_points(np.zeros((0, 3)), TrunkExtractionParams())


def test_subset_property():
    cloud = make_cylinder(0.0, 0.0, n=300, seed=1)
    idx = select_trunk_points(cloud, TrunkExtractionParams())
    assert np.all(np.asarray(idx) < len(cloud))
    assert len(set(map(int, idx))) == len(idx)


def test_probe_property_exhaustive():
    """Kept exactly when the probe's nearest neighbor is within tolerance."""
    rng = np.random.default_rng(2)
    cloud = np.vstack(
        [
            make_cylinder(0.0, 0.0, n=200, seed=3),
            rng.uniform(-5, 5, (200, 3)) * [1, 1, 0.2],
        ]
    )
    params = TrunkExtractionParams()
    got = sorted(map(int, select_trunk_points(cloud, params)))
    assert got == probe_oracle(cloud, params)


def test_probe_keeps_point_at_exact_tolerance():
    """A probe exactly probe_tolerance from a point keeps it (<=, not <)."""
    cloud = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.25]])
    params = TrunkExtractionParams(probe_tolerance=0.25)
    assert probe_oracle(cloud, params) == [0]
    assert list(map(int, select_trunk_points(cloud, params))) == [0]


def test_cluster_two_groups():
    rng = np.random.default_rng(4)
    a = rng.uniform(-0.15, 0.15, (50, 2))
    b = rng.uniform(-0.15, 0.15, (50, 2)) + [10.0, 0.0]
    pts = np.vstack([a, b])
    clusters = cluster_trunk_points(pts, TrunkExtractionParams())
    assert len(clusters) == 2
    sizes = sorted(c.size for c in clusters)
    assert sizes == [50, 50]


def test_cluster_below_min_size():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.1, 0.1, (10, 2))
    assert cluster_trunk_points(pts, TrunkExtractionParams()) == []


def test_cluster_empty_input():
    assert cluster_trunk_points(np.zeros((0, 2)), TrunkExtractionParams()) == []


CLOUD_PARAMS = TrunkExtractionParams(probe_tolerance=0.25)


def three_scan_cloud():
    """Three simulated scans 1 m apart in a 60 m stand, aggregated."""
    forest = generate_forest(ForestSpec(area=(60.0, 60.0), density=350.0, seed=3))
    scans = [
        simulate_scan(forest, RigidTransform2D(0.2, np.array([28.0 + k, 30.0])), seed=[3, k])
        for k in range(3)
    ]
    return aggregate_scans(scans)


def single_linkage_oracle(pts, params):
    """(centroids, sizes) by breadth-first search over all pairs, O(n^2).

    Points within cluster_tolerance (by np.hypot) are linked; groups are
    numbered by their lowest member, and each centroid is the mean of its
    members in ascending index order.
    """
    label = np.full(len(pts), -1)
    groups = []
    for start in range(len(pts)):
        if label[start] >= 0:
            continue
        label[start] = len(groups)
        members, frontier = [start], [start]
        while frontier:
            d = np.hypot(*(pts - pts[frontier.pop()]).T)
            near = np.flatnonzero((d <= params.cluster_tolerance) & (label < 0))
            label[near] = len(groups)
            members.extend(near)
            frontier.extend(near)
        groups.append(np.sort(members))
    kept = [g for g in groups if len(g) >= params.min_cluster_size]
    centroids = np.array([pts[g].mean(axis=0) for g in kept]).reshape(-1, 2)
    return centroids, np.array([len(g) for g in kept])


def oracle_inputs():
    """(name, (N, 2) points) instances for the clustering oracle."""
    rng = np.random.default_rng(6)
    # groups on both sides of the default size cut of 30, in shuffled order
    sizes = [40, 12, 30, 3, 50, 29, 1]
    centers = rng.uniform(0, 50, (len(sizes), 2))
    groups = np.vstack([c + rng.uniform(-0.2, 0.2, (k, 2)) for c, k in zip(centers, sizes)])
    yield "random groups", groups[rng.permutation(len(groups))]
    # two interleaved chains with links of exactly cluster_tolerance (0.5 m),
    # 0.5 m + 2**-30 apart, so each chain is one cluster
    steps = 0.5 * np.arange(35.0)
    chain_a = np.column_stack([steps, np.zeros(35)])
    chain_b = np.column_stack([steps, np.full(35, 0.5 + 2.0**-30)])
    yield "exact-tolerance chains", np.stack([chain_a, chain_b], axis=1).reshape(-1, 2)
    # exact duplicates: copies of group points, and an isolated duplicate pair
    copies = groups[rng.choice(len(groups), 25, replace=False)]
    yield "duplicates", np.vstack([groups, copies, [[80.0, 80.0], [80.0, 80.0]]])
    cloud = three_scan_cloud()
    keep = select_trunk_points(cloud, CLOUD_PARAMS)
    yield "3-scan cloud", cloud[keep][:, :2]


@pytest.mark.parametrize("min_cluster_size", [1, 30])
def test_clusters_match_oracle(min_cluster_size):
    """Order, sizes and centroids equal the all-pairs oracle, bit for bit."""
    params = TrunkExtractionParams(probe_tolerance=0.25, min_cluster_size=min_cluster_size)
    for name, pts in oracle_inputs():
        want_centroids, want_sizes = single_linkage_oracle(pts, params)
        assert len(want_sizes) >= 2, name
        clusters = cluster_trunk_points(pts, params)
        got_centroids = np.array([c.centroid for c in clusters]).reshape(-1, 2)
        np.testing.assert_array_equal([c.size for c in clusters], want_sizes, err_msg=name)
        np.testing.assert_array_equal(got_centroids, want_centroids, err_msg=name)
        if min_cluster_size == 1:
            assert sum(want_sizes) == len(pts), name


def test_extract_matches_oracle():
    """extract_trunk_map's landmarks are the oracle's clusters of the kept points."""
    cloud = three_scan_cloud()
    tm = extract_trunk_map(cloud, CLOUD_PARAMS)
    keep = select_trunk_points(cloud, CLOUD_PARAMS)
    want_centroids, want_sizes = single_linkage_oracle(cloud[keep][:, :2], CLOUD_PARAMS)
    assert len(tm) >= 10
    np.testing.assert_array_equal(tm.positions, want_centroids)
    np.testing.assert_array_equal(tm.support, want_sizes)


def test_cluster_chain_connectivity():
    """A chain of points linked under tolerance forms one cluster."""
    pts = np.column_stack([np.arange(0, 20) * 0.4, np.zeros(20)])
    clusters = cluster_trunk_points(pts, TrunkExtractionParams(min_cluster_size=5))
    assert len(clusters) == 1
    assert clusters[0].size == 20
    # stretch one link beyond tolerance and the chain splits
    pts2 = pts.copy()
    pts2[10:, 0] += 0.3
    clusters2 = cluster_trunk_points(pts2, TrunkExtractionParams(min_cluster_size=5))
    assert len(clusters2) == 2


def test_centroid_is_mean():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.3, 0.3, (60, 2)) + [5.0, 5.0]
    clusters = cluster_trunk_points(pts, TrunkExtractionParams())
    assert len(clusters) == 1
    np.testing.assert_allclose(clusters[0].centroid, pts.mean(axis=0), atol=1e-9)


def test_extract_single_cylinder():
    cloud = make_cylinder(10.0, 20.0, seed=8)
    tm = extract_trunk_map(cloud, TrunkExtractionParams())
    assert len(tm) == 1
    assert np.hypot(*(tm.positions[0] - [10.0, 20.0])) < 0.05


def test_extract_two_cylinders():
    cloud = np.vstack([make_cylinder(0.0, 0.0, seed=9), make_cylinder(8.0, 0.0, seed=10)])
    tm = extract_trunk_map(cloud, TrunkExtractionParams())
    assert len(tm) == 2
    d0 = np.hypot(*(tm.positions - [0.0, 0.0]).T).min()
    d1 = np.hypot(*(tm.positions - [8.0, 0.0]).T).min()
    assert d0 < 0.05 and d1 < 0.05


def test_extract_ground_only():
    g = np.arange(0.0, 10.0, 0.1)
    cloud = np.array([[x, y, 0.0] for x in g for y in g])
    tm = extract_trunk_map(cloud, TrunkExtractionParams())
    assert len(tm) == 0


def test_extract_support_counts():
    cloud = make_cylinder(0.0, 0.0, seed=11)
    params = TrunkExtractionParams()
    tm = extract_trunk_map(cloud, params)
    kept = select_trunk_points(cloud, params)
    assert tm.support[0] == len(kept)


def test_extract_deterministic():
    cloud = np.vstack([make_cylinder(0.0, 0.0, seed=12), make_cylinder(6.0, 3.0, seed=13)])
    a = extract_trunk_map(cloud, TrunkExtractionParams())
    b = extract_trunk_map(cloud, TrunkExtractionParams())
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.support, b.support)


def test_trunk_map_csv_round_trip(tmp_path):
    cloud = np.vstack([make_cylinder(0.0, 0.0, seed=14), make_cylinder(8.0, 1.0, seed=15)])
    tm = extract_trunk_map(cloud, TrunkExtractionParams())
    path = tmp_path / "trunks.csv"
    tm.save_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "id,x,y,support"
    back = TrunkMap.load_csv(path)
    assert len(back) == len(tm)
    np.testing.assert_array_equal(back.positions, tm.positions)
    np.testing.assert_array_equal(back.support, tm.support)

    # subnormal, largest and signed-zero coordinates come back bit for bit,
    # and CRLF ends, blank lines and a missing last line end read the same
    positions = np.array([[5e-324, -0.0], [1.7976931348623157e308, -5e-324], [0.1, -2.5]])
    tm = TrunkMap(positions=positions, support=np.array([1, 40, 7]))
    tm.save_csv(path)
    text = path.read_text()
    lines = text.splitlines()
    variants = [
        text,
        text.replace("\n", "\r\n"),
        text.rstrip("\n"),
        "\n".join(lines[:2] + ["", "  "] + lines[2:]) + "\n",
    ]
    for variant in variants:
        path.write_bytes(variant.encode())
        back = TrunkMap.load_csv(path)
        assert back.positions.tobytes() == tm.positions.tobytes()
        assert back.support.dtype == tm.support.dtype
        np.testing.assert_array_equal(back.support, tm.support)

    # an empty map writes its header alone and reads back empty
    TrunkMap(positions=np.zeros((0, 2)), support=np.zeros(0, dtype=np.intp)).save_csv(path)
    assert path.read_text() == "id,x,y,support\n"
    for text in ("id,x,y,support\n", "id,x,y,support", "id,x,y,support\r\n\r\n"):
        path.write_bytes(text.encode())
        back = TrunkMap.load_csv(path)
        assert back.positions.shape == (0, 2) and back.support.shape == (0,)

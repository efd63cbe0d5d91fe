"""Tests for forestloc.simulator — forests, ray casting, scan aggregation."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from forestloc.errors import InfeasibleForestError
from forestloc.geometry import RigidTransform2D
from forestloc.simulator import (
    ANGULAR_RESOLUTION,
    HORIZONTAL_FOV,
    MAX_RANGE,
    MIN_SPACING,
    MOUNT_HEIGHT,
    Forest,
    ForestSpec,
    _first_hits,
    aggregate_scans,
    generate_forest,
    simulate_scan,
)

DRIVE_STAND = ForestSpec(area=(250.0, 250.0), density=352.0, seed=2)  # 2,200 trunks
BENCHMARK_STAND = ForestSpec(area=(250.0, 250.0), density=350.0, seed=0)  # BenchmarkConfig()


def one_tree(x, y, radius=0.2, area=(40.0, 40.0)):
    return Forest(
        positions=np.array([[x, y]], dtype=float),
        radii=np.array([radius]),
        area=area,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        ForestSpec(density=0.0)
    with pytest.raises(ValueError):
        ForestSpec(area=(0.0, 100.0))


@pytest.mark.parametrize("side", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_area(side):
    with pytest.raises(ValueError, match="area sides must be finite and positive"):
        ForestSpec(area=(100.0, side))
    with pytest.raises(ValueError, match="area sides must be finite and positive"):
        ForestSpec(area=(side, 100.0))


@pytest.mark.parametrize("density", [math.inf, math.nan, -1.0])
def test_spec_rejects_non_finite_density(density):
    with pytest.raises(ValueError, match="density must be finite and positive"):
        ForestSpec(density=density)


@pytest.mark.parametrize("area, density", [((1e200, 1e200), 350.0), ((1e300, 1.0), 1e300)])
def test_spec_rejects_overflowing_tree_count(area, density):
    """Finite sides and density whose tree count overflows are rejected."""
    with pytest.raises(ValueError, match="tree count must be finite"):
        ForestSpec(area=area, density=density)


def test_forest_density_and_spacing():
    spec = ForestSpec(area=(100.0, 100.0), density=500.0, seed=42)
    forest = generate_forest(spec)
    assert 450 <= len(forest) <= 550
    d = np.sqrt(((forest.positions[:, None] - forest.positions[None]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    assert d.min() >= MIN_SPACING
    assert (forest.positions >= 0).all()
    assert (forest.positions[:, 0] <= 100.0).all()
    assert (forest.positions[:, 1] <= 100.0).all()


def test_forest_deterministic():
    spec = ForestSpec(area=(80.0, 60.0), density=300.0, seed=7)
    a = generate_forest(spec)
    b = generate_forest(spec)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.radii, b.radii)


def test_forest_seed_changes_layout():
    a = generate_forest(ForestSpec(area=(80.0, 60.0), density=300.0, seed=1))
    b = generate_forest(ForestSpec(area=(80.0, 60.0), density=300.0, seed=2))
    assert a.positions.shape != b.positions.shape or not np.array_equal(
        a.positions, b.positions
    )


def test_forest_impossible_packing():
    with pytest.raises(InfeasibleForestError, match="infeasible forest"):
        generate_forest(ForestSpec(area=(10.0, 10.0), density=50_000.0))


def test_forest_radii_positive():
    forest = generate_forest(ForestSpec(area=(60.0, 60.0), density=400.0, seed=3))
    assert (forest.radii >= 0.03).all()


def test_scan_single_tree_surface():
    """Noise-free returns sit on the cylinder surface, bearing at the tree."""
    forest = one_tree(5.0, 0.0)
    pose = RigidTransform2D(0.0, np.array([0.0, 0.0]))
    scan = simulate_scan(forest, pose, noise=0.0)
    trunk = scan.cloud[scan.cloud[:, 2] > 0.01]
    assert len(trunk) > 50
    r = np.hypot(trunk[:, 0] - 5.0, trunk[:, 1])
    assert np.abs(r - 0.2).max() < 1e-6
    bearings = np.degrees(np.arctan2(trunk[:, 1], trunk[:, 0]))
    half_angle = math.degrees(math.asin(0.2 / 5.0))
    assert np.abs(bearings).max() <= half_angle + 1e-9
    assert scan.visible_trunk_ids == {0}


def test_scan_analytic_first_hit():
    """Every trunk return's horizontal range is the closed-form ray-circle hit."""
    d, r = 5.0, 0.2
    forest = one_tree(d, 0.0, radius=r)
    pose = RigidTransform2D(0.0, np.array([0.0, 0.0]))
    scan = simulate_scan(forest, pose, noise=0.0)
    trunk = scan.cloud[scan.cloud[:, 2] > 0.01]
    assert len(trunk) > 100
    phi = np.arctan2(trunk[:, 1], trunk[:, 0])
    expected = d * np.cos(phi) - np.sqrt(r**2 - (d * np.sin(phi)) ** 2)
    measured = np.hypot(trunk[:, 0], trunk[:, 1])
    np.testing.assert_allclose(measured, expected, rtol=0, atol=1e-9)


def test_scan_occlusion():
    forest = Forest(
        positions=np.array([[5.0, 0.0], [9.0, 0.0]]),
        radii=np.array([0.3, 0.3]),
        area=(40.0, 40.0),
    )
    pose = RigidTransform2D(0.0, np.array([0.0, 0.0]))
    scan = simulate_scan(forest, pose, noise=0.0)
    assert scan.visible_trunk_ids == {0}


def test_scan_occlusion_segment_property():
    """No cylinder intersects the open sensor-to-point segment."""
    forest = Forest(
        positions=np.array([[6.0, 1.0], [10.0, -2.0], [8.0, 4.0]]),
        radii=np.array([0.25, 0.3, 0.2]),
        area=(40.0, 40.0),
    )
    pose = RigidTransform2D(0.3, np.array([1.0, 0.5]))
    scan = simulate_scan(forest, pose, noise=0.0)
    world = pose.apply(scan.cloud[:, :2])
    for cx, cy, r in zip(*forest.positions.T, forest.radii):
        # distance from each segment (sensor -> point) to the cylinder axis
        a = pose.t
        for b in world:
            ab = b - a
            L2 = ab @ ab
            s = np.clip(((cx, cy) - a) @ ab / L2, 0.0, 1.0)
            closest = a + s * ab
            d = np.hypot(closest[0] - cx, closest[1] - cy)
            assert d >= r - 1e-6


def test_scan_empty_forest_ground_only():
    empty = Forest(positions=np.zeros((0, 2)), radii=np.zeros(0), area=(40.0, 40.0))
    pose = RigidTransform2D(0.0, np.array([20.0, 20.0]))
    scan = simulate_scan(empty, pose, noise=0.0)
    assert len(scan.cloud) > 0
    assert np.abs(scan.cloud[:, 2]).max() < 1e-9
    assert scan.visible_trunk_ids == set()


def test_scan_bearing_within_fov():
    forest = generate_forest(ForestSpec(area=(60.0, 60.0), density=400.0, seed=4))
    pose = RigidTransform2D(1.1, np.array([30.0, 30.0]))
    scan = simulate_scan(forest, pose, seed=1)
    bearings = np.degrees(np.arctan2(scan.cloud[:, 1], scan.cloud[:, 0]))
    assert np.abs(bearings).max() <= 105.0 + 1e-9
    rho = np.linalg.norm(scan.cloud - [0, 0, MOUNT_HEIGHT], axis=1)
    assert rho.max() <= MAX_RANGE + 1e-9


def test_scan_deterministic():
    forest = generate_forest(ForestSpec(area=(60.0, 60.0), density=400.0, seed=5))
    pose = RigidTransform2D(-0.4, np.array([25.0, 30.0]))
    a = simulate_scan(forest, pose, seed=9)
    b = simulate_scan(forest, pose, seed=9)
    np.testing.assert_array_equal(a.cloud, b.cloud)
    assert a.visible_trunk_ids == b.visible_trunk_ids


def test_scan_channel_major_ordering():
    """Points arrive channel by channel, each channel in azimuth order."""
    forest = one_tree(6.0, 0.0, radius=0.3)
    pose = RigidTransform2D(0.0, np.array([0.0, 0.0]))
    scan = simulate_scan(forest, pose, noise=0.0)
    elev = np.arctan2(
        scan.cloud[:, 2] - MOUNT_HEIGHT, np.hypot(scan.cloud[:, 0], scan.cloud[:, 1])
    )
    # elevation never decreases across the emitted order
    assert (np.diff(np.round(elev, 9)) >= -1e-9).all()


def test_range_filter_with_noise():
    forest = generate_forest(ForestSpec(area=(60.0, 60.0), density=300.0, seed=6))
    pose = RigidTransform2D(0.0, np.array([30.0, 30.0]))
    scan = simulate_scan(forest, pose, noise=0.5, seed=10)  # exaggerated noise
    rho = np.linalg.norm(scan.cloud - [0, 0, MOUNT_HEIGHT], axis=1)
    assert rho.max() <= MAX_RANGE + 1e-9
    assert rho.min() > 0.0


@pytest.mark.parametrize("noise", [math.nan, math.inf, -0.01])
def test_scan_rejects_bad_noise(noise):
    forest = one_tree(5.0, 0.0)
    pose = RigidTransform2D(0.0, np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="noise must be finite and non-negative"):
        simulate_scan(forest, pose, noise=noise)


def test_aggregate_single_scan_verbatim():
    forest = generate_forest(ForestSpec(area=(60.0, 60.0), density=300.0, seed=7))
    pose = RigidTransform2D(0.2, np.array([30.0, 30.0]))
    scan = simulate_scan(forest, pose, seed=11)
    agg = aggregate_scans([scan])
    np.testing.assert_array_equal(agg, scan.cloud)


def test_aggregate_two_scans_surfaces_coincide():
    """The same trunk appears at the same place from two poses."""
    forest = one_tree(10.0, 10.0, radius=0.25, area=(30.0, 30.0))
    p1 = RigidTransform2D(0.0, np.array([5.0, 10.0]))
    p2 = RigidTransform2D(0.5, np.array([6.0, 9.0]))
    s1 = simulate_scan(forest, p1, noise=0.0)
    s2 = simulate_scan(forest, p2, noise=0.0)
    agg = aggregate_scans([s1, s2])
    trunk = agg[agg[:, 2] > 0.01]
    world = p1.apply(trunk[:, :2])
    r = np.hypot(world[:, 0] - 10.0, world[:, 1] - 10.0)
    assert np.abs(r - 0.25).max() < 1e-6


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_scans([])


def test_aggregate_visibility_union():
    """Ten scans along a path see strictly more trunks than any one scan."""
    forest = generate_forest(ForestSpec(area=(100.0, 100.0), density=350.0, seed=8))
    scans = []
    for k in range(10):
        pose = RigidTransform2D(0.4, np.array([40.0, 40.0]) + k * np.array(
            [math.cos(0.4), math.sin(0.4)]
        ))
        scans.append(simulate_scan(forest, pose, seed=20 + k))
    union = set().union(*(s.visible_trunk_ids for s in scans))
    for s in scans:
        assert s.visible_trunk_ids <= union
    assert len(union) > max(len(s.visible_trunk_ids) for s in scans)


def test_to_trunk_map():
    forest = generate_forest(ForestSpec(area=(50.0, 50.0), density=300.0, seed=9))
    tm = forest.to_trunk_map()
    assert len(tm) == len(forest)
    np.testing.assert_array_equal(tm.positions, forest.positions)


def fan_azimuths():
    """The sensor-frame azimuths simulate_scan casts, in scan order."""
    res = math.radians(ANGULAR_RESOLUTION)
    half = math.radians(HORIZONTAL_FOV) / 2.0
    n_az = int(round(math.radians(HORIZONTAL_FOV) / res))
    return -half + (np.arange(n_az) + 0.5) * res


def dense_first_hits(forest, pose, az):
    """Oracle: every azimuth against every trunk in range, first hit by argmin."""
    n_az = len(az)
    s2d = np.full(n_az, np.inf)
    hit_tree = np.full(n_az, -1, dtype=np.intp)
    if len(forest) > 0:
        rel = forest.positions - pose.t
        near = np.flatnonzero(
            (rel**2).sum(axis=1) <= (MAX_RANGE + forest.radii.max()) ** 2
        )
        if len(near) > 0:
            rel = rel[near]
            world_az = pose.theta + az
            dirs = np.column_stack([np.cos(world_az), np.sin(world_az)])
            b = dirs @ rel.T  # (n_az, n_near) projection onto each ray
            c0 = (rel**2).sum(axis=1) - forest.radii[near] ** 2
            disc = b * b - c0[None, :]
            s = b - np.sqrt(np.maximum(disc, 0.0))
            s[(disc < 0.0) | (s <= 0.0)] = np.inf
            first = np.argmin(s, axis=1)
            rows = np.arange(n_az)
            s2d = s[rows, first]
            hit_tree = np.where(np.isfinite(s2d), near[first], -1)
    return s2d, hit_tree


def assert_same_hits(forest, pose):
    """_first_hits agrees with the dense oracle; returns its (range, trunk)."""
    az = fan_azimuths()
    s_ref, tree_ref = dense_first_hits(forest, pose, az)
    s, tree = _first_hits(forest, pose, az)
    np.testing.assert_array_equal(tree, tree_ref)
    np.testing.assert_array_equal(np.isfinite(s), np.isfinite(s_ref))
    hit = np.isfinite(s_ref)
    np.testing.assert_allclose(s[hit], s_ref[hit], rtol=0, atol=1e-9)
    return s, tree


@pytest.mark.parametrize("spec", [DRIVE_STAND, BENCHMARK_STAND], ids=["drive", "benchmark"])
def test_first_hits_match_dense_prepass(spec):
    """On 100 poses over each 250 m stand, every azimuth hits the oracle's trunk."""
    forest = generate_forest(spec)
    rng = np.random.default_rng(19)
    hits = 0
    for _ in range(100):
        pose = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-20.0, 270.0, 2))
        s, _ = assert_same_hits(forest, pose)
        hits += np.isfinite(s).sum()
    assert hits > 40_000  # most rays meet a trunk


def test_first_hits_sensor_inside_trunk():
    """The enclosing trunk is never hit; the trunks around it are."""
    forest = Forest(
        positions=np.array([[5.0, 0.0], [0.1, 0.0], [-3.0, 4.0]]),
        radii=np.array([0.3, 0.5, 0.3]),
        area=(20.0, 20.0),
    )
    for theta in (0.0, 2.0, math.pi):
        _, tree = assert_same_hits(forest, RigidTransform2D(theta, np.zeros(2)))
        assert 1 not in tree
    _, tree = assert_same_hits(forest, RigidTransform2D(0.0, np.zeros(2)))
    assert 0 in tree
    # the sensor on the axis, where the bearing is undefined
    _, tree = assert_same_hits(forest, RigidTransform2D(0.0, np.array([0.1, 0.0])))
    assert 1 not in tree and 0 in tree


def test_first_hits_trunk_straddling_fan_edge():
    """A trunk on the +-105 degree edge is hit by the outermost rays only."""
    edge = math.radians(HORIZONTAL_FOV) / 2.0
    for sign in (1.0, -1.0):
        forest = one_tree(5.0 * math.cos(sign * edge), 5.0 * math.sin(sign * edge), 0.3)
        _, tree = assert_same_hits(forest, RigidTransform2D(0.0, np.zeros(2)))
        hit = np.flatnonzero(tree == 0)
        assert len(hit) > 5
        assert (hit[-1] == len(tree) - 1) if sign > 0 else (hit[0] == 0)


def test_first_hits_across_the_seam():
    """Windows that cross +-pi, in the sensor frame and in the world frame."""
    # a trunk just behind the sensor: its window wraps past +-pi and
    # reaches the outermost rays on both sides of the fan
    forest = one_tree(-0.31, 0.0, 0.3)
    _, tree = assert_same_hits(forest, RigidTransform2D(0.0, np.zeros(2)))
    assert tree[0] == 0 and tree[-1] == 0
    assert (tree[5:-5] == -1).all()
    # heading and world bearing on opposite sides of the seam, trunk ahead
    forest = one_tree(5.0 * math.cos(-3.0), 5.0 * math.sin(-3.0), 0.3)
    _, tree = assert_same_hits(forest, RigidTransform2D(3.0, np.zeros(2)))
    assert (tree == 0).sum() > 5
    # a trunk straight behind is out of the fan
    forest = one_tree(-5.0, 0.0, 0.3)
    _, tree = assert_same_hits(forest, RigidTransform2D(0.0, np.zeros(2)))
    assert (tree == -1).all()


def test_first_hits_equal_range_tie_takes_lower_index():
    """Two coincident trunks tie on every ray; the lower index wins."""
    forest = Forest(
        positions=np.array([[0.0, 8.0], [6.0, 0.0], [6.0, 0.0]]),
        radii=np.array([0.3, 0.25, 0.25]),
        area=(20.0, 20.0),
    )
    _, tree = assert_same_hits(forest, RigidTransform2D(0.0, np.zeros(2)))
    assert (tree == 1).sum() > 5
    assert 2 not in tree


def test_first_hits_at_max_range():
    """A trunk centred at MAX_RANGE + r is in range; one farther out is not."""
    r = 0.25
    forest = one_tree(MAX_RANGE + r, 0.0, r, area=(300.0, 300.0))
    s, tree = assert_same_hits(forest, RigidTransform2D(0.0, np.zeros(2)))
    assert (tree == 0).any()
    assert MAX_RANGE - 1e-9 <= s[tree == 0].min() < MAX_RANGE + 0.1
    forest = one_tree(MAX_RANGE + r + 0.01, 0.0, r, area=(300.0, 300.0))
    _, tree = assert_same_hits(forest, RigidTransform2D(0.0, np.zeros(2)))
    assert (tree == -1).all()


def test_first_hits_nothing_to_hit():
    """An empty stand and a stand with no trunk in range both miss everywhere."""
    empty = Forest(positions=np.zeros((0, 2)), radii=np.zeros(0), area=(40.0, 40.0))
    far = one_tree(150.0, 150.0, 0.3, area=(200.0, 200.0))
    for forest in (empty, far):
        s, tree = assert_same_hits(forest, RigidTransform2D(0.4, np.array([10.0, 10.0])))
        assert (tree == -1).all() and np.isinf(s).all()


def test_first_hits_tangent_ray():
    """A ray that grazes a trunk hits it at the tangent point; its neighbours miss."""
    az = fan_azimuths()
    k = 400
    pose = RigidTransform2D(-az[k], np.zeros(2))  # ray k points along world +x
    forest = one_tree(5.0, 0.25, 0.25)  # tangent to the x axis at (5, 0)
    s, tree = assert_same_hits(forest, pose)
    assert tree[k] == 0 and s[k] == 5.0
    assert tree[k + 1] == -1 or tree[k - 1] == -1


def test_visible_ids_are_trunks_with_returns():
    """Noise-free, a trunk is visible exactly when the cloud holds a return on it."""
    forest = generate_forest(DRIVE_STAND)
    tree = cKDTree(forest.positions)
    for k, theta in enumerate((0.3, 2.5, -1.9)):
        pose = RigidTransform2D(theta, np.array([60.0 + 40.0 * k, 125.0]))
        scan = simulate_scan(forest, pose, noise=0.0)
        trunk = scan.cloud[scan.cloud[:, 2] > 1e-6]
        dist, nearest = tree.query(pose.apply(trunk[:, :2]))
        assert np.abs(dist - forest.radii[nearest]).max() < 1e-6
        assert scan.visible_trunk_ids == frozenset(nearest.tolist())
        assert all(type(i) is int for i in scan.visible_trunk_ids)


def test_scan_memory_peak():
    """One scan of the 2,200-trunk stand allocates under 8 MB at its peak."""
    forest = generate_forest(DRIVE_STAND)
    pose = RigidTransform2D(math.pi / 2.0, np.array([185.0, 125.0]))
    simulate_scan(forest, pose)
    tracemalloc.start()
    try:
        simulate_scan(forest, pose)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20

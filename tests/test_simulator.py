"""Tests for forestloc.simulator — forests, ray casting, scan aggregation."""

import math

import numpy as np
import pytest

from forestloc.errors import InfeasibleForestError
from forestloc.geometry import RigidTransform2D
from forestloc.simulator import (
    MAX_RANGE,
    MIN_SPACING,
    MOUNT_HEIGHT,
    Forest,
    ForestSpec,
    aggregate_scans,
    generate_forest,
    simulate_scan,
)


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

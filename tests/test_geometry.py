"""Tests for forestloc.geometry — transforms, xyz files."""

import math

import numpy as np
import pytest

from forestloc.geometry import RigidTransform2D, load_xyz, normalize_angle, save_xyz


def test_normalize_angle_range():
    for theta in [-10.0, -math.pi, 0.0, math.pi, 3.5, 12.0, 2 * math.pi]:
        r = normalize_angle(theta)
        assert -math.pi < r <= math.pi
        assert math.isclose(math.cos(r), math.cos(theta), abs_tol=1e-12)
        assert math.isclose(math.sin(r), math.sin(theta), abs_tol=1e-12)


def test_normalize_angle_keeps_pi():
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi


def test_apply_identity():
    T = RigidTransform2D(0.0, np.zeros(2))
    out = T.apply(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [[3.0, 4.0]])


def test_apply_quarter_turn():
    T = RigidTransform2D(math.pi / 2, np.zeros(2))
    out = T.apply(np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)


def test_apply_quarter_turn_with_translation():
    T = RigidTransform2D(math.pi / 2, np.array([1.0, 1.0]))
    out = T.apply(np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(out, [[1.0, 2.0]], atol=1e-12)


def test_apply_matches_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        theta = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(-10, 10, 2)
        p = rng.uniform(-10, 10, 2)
        T = RigidTransform2D(theta, t)
        expected = [
            math.cos(theta) * p[0] - math.sin(theta) * p[1] + t[0],
            math.sin(theta) * p[0] + math.cos(theta) * p[1] + t[1],
        ]
        np.testing.assert_allclose(T.apply(p[None])[0], expected, atol=1e-12)


def test_invert_identity():
    T = RigidTransform2D(0.0, np.zeros(2))
    inv = T.inverse()
    assert inv.theta == 0.0
    np.testing.assert_allclose(inv.t, [0.0, 0.0])


def test_invert_round_trip():
    T = RigidTransform2D(math.pi / 2, np.array([1.0, 0.0]))
    p = np.array([[2.5, -1.5]])
    np.testing.assert_allclose(T.inverse().apply(T.apply(p)), p, atol=1e-12)


def test_invert_round_trip_random():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-50, 50, (10, 2))
    for _ in range(100):
        T = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-100, 100, 2))
        back = T.inverse().apply(T.apply(pts))
        assert np.abs(back - pts).max() < 1e-9


def test_compose_is_sequential_application():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-20, 20, (5, 2))
    A = RigidTransform2D(0.7, np.array([1.0, -2.0]))
    B = RigidTransform2D(-1.3, np.array([4.0, 0.5]))
    C = A.compose(B)
    np.testing.assert_allclose(C.apply(pts), A.apply(B.apply(pts)), atol=1e-12)


def test_compose_associative():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-20, 20, (5, 2))
    A, B, C = (
        RigidTransform2D(rng.uniform(-3, 3), rng.uniform(-10, 10, 2)) for _ in range(3)
    )
    left = A.compose(B).compose(C)
    right = A.compose(B.compose(C))
    assert abs(normalize_angle(left.theta - right.theta)) < 1e-12
    np.testing.assert_allclose(left.t, right.t, atol=1e-9)
    np.testing.assert_allclose(left.apply(pts), right.apply(pts), atol=1e-9)


def test_isometry():
    """Pairwise distances preserved to 1e-9 relative."""
    rng = np.random.default_rng(4)
    pts = rng.uniform(-100, 100, (40, 2))
    for _ in range(20):
        T = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-100, 100, 2))
        out = T.apply(pts)
        d0 = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        d1 = np.sqrt(((out[:, None] - out[None]) ** 2).sum(-1))
        mask = d0 > 0
        assert np.abs(d1[mask] - d0[mask]).max() <= 1e-9 * d0[mask].max()


def test_theta_normalized_after_compose():
    A = RigidTransform2D(3.0, np.zeros(2))
    B = RigidTransform2D(3.0, np.zeros(2))
    C = A.compose(B)
    assert -math.pi < C.theta <= math.pi


def test_xyz_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    cloud = rng.uniform(-100, 100, (123, 3)).round(6)
    path = tmp_path / "cloud.xyz"
    save_xyz(path, cloud, comment="unit test cloud")
    back = load_xyz(path)
    np.testing.assert_allclose(back, cloud, atol=1e-6)


def test_xyz_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header\n1 2 3\n\n  4\t5  6\n# trailing\n")
    cloud = load_xyz(path)
    np.testing.assert_allclose(cloud, [[1, 2, 3], [4, 5, 6]])


def test_xyz_bad_line_rejected(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2\n")
    with pytest.raises(ValueError):
        load_xyz(path)

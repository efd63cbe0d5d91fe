"""Tests for forestloc.geometry — transforms, xyz files."""

import math

import numpy as np
import pytest

from forestloc.dtgraph import DTGraph, triangulate
from forestloc.geometry import TWO_PI, RigidTransform2D, load_xyz, normalize_angle, save_xyz
from forestloc.simulator import Forest, SimulatedScan
from forestloc.trunks import TrunkMap


def test_normalize_angle_range():
    for theta in [-10.0, -math.pi, 0.0, math.pi, 3.5, 12.0, 2 * math.pi]:
        r = normalize_angle(theta)
        assert -math.pi < r <= math.pi
        assert math.isclose(math.cos(r), math.cos(theta), abs_tol=1e-12)
        assert math.isclose(math.sin(r), math.sin(theta), abs_tol=1e-12)


def test_normalize_angle_keeps_pi():
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi


def wrap_one(theta):
    """Reference: Python's float remainder, then one turn off above pi."""
    r = theta % TWO_PI
    return r - TWO_PI if r > math.pi else r


def test_normalize_angle_array_matches_scalar():
    """The array form wraps each angle to the scalar form's bits."""
    special = [math.pi, -math.pi, 0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324]
    special += [k * TWO_PI for k in range(-4, 5)] + [math.nextafter(math.pi, 4.0)]
    angles = np.concatenate([special, np.random.default_rng(3).uniform(-50.0, 50.0, 10_000)])
    wrapped = normalize_angle(angles)
    assert isinstance(wrapped, np.ndarray) and wrapped.shape == angles.shape
    scalars = [normalize_angle(a) for a in angles.tolist()]
    assert all(type(r) is float for r in scalars)
    expected = np.array([wrap_one(a) for a in angles.tolist()])
    for got in (wrapped, np.array(scalars)):
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert math.copysign(1.0, normalize_angle(-0.0)) == 1.0  # fmod's sign rule
    assert type(normalize_angle(np.float64(7.0))) is float


def test_records_keep_their_own_arrays():
    """Changing a caller's arrays after construction leaves each record as built."""
    pts = np.random.default_rng(8).uniform(0.0, 50.0, (30, 2))
    t = np.array([1.0, 2.0])
    radii, support, cloud = np.full(30, 0.2), np.arange(30), pts.repeat(2, axis=1)[:, :3]
    graph = triangulate(pts)
    parts = {name: np.array(getattr(graph, name)) for name in
             ("points", "triangles", "neighbors", "areas", "sq_perimeters")}
    records = {
        "pose": (RigidTransform2D(0.5, t), ["t"]),
        "forest": (Forest(positions=pts, radii=radii), ["positions", "radii"]),
        "scan": (SimulatedScan(cloud, RigidTransform2D(0.0, t), frozenset()), ["cloud"]),
        "trunks": (TrunkMap(positions=pts, support=support), ["positions", "support"]),
        "graph": (DTGraph(hull_vertices=graph.hull_vertices, **parts), list(parts)),
        "triangulated": (graph, ["points"]),
    }
    before = {key: [np.array(getattr(rec, f)) for f in fields]
              for key, (rec, fields) in records.items()}
    for arr in (pts, t, radii, support, cloud, *parts.values()):
        arr[...] = np.nan if arr.dtype.kind == "f" else -7
    for key, (rec, fields) in records.items():
        for field, was in zip(fields, before[key]):
            arr = getattr(rec, field)
            np.testing.assert_array_equal(arr, was, err_msg=f"{key}.{field}")
            assert not arr.flags.writeable, f"{key}.{field}"
            with pytest.raises(ValueError):
                arr[0] = 0
    assert np.isfinite(records["pose"][0].t).all()


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


def test_xyz_exact_text(tmp_path):
    """Six decimals per coordinate, one row per line, the comment as a '# ' line."""
    cloud = [[-0.0, 1e20, 2.5e-7], [-2.5e-7, 0.1234567, -3.0], [1.0, -1e-9, 12345.6789]]
    rows = (
        "-0.000000 100000000000000000000.000000 0.000000\n"
        "-0.000000 0.123457 -3.000000\n"
        "1.000000 -0.000000 12345.678900\n"
    )
    path = tmp_path / "c.xyz"
    save_xyz(path, cloud, comment="site 0")
    assert path.read_bytes() == ("# site 0\n" + rows).encode()
    save_xyz(path, cloud)
    assert path.read_bytes() == rows.encode()
    save_xyz(path, np.zeros((0, 3)), comment="empty")
    assert path.read_bytes() == b"# empty\n"
    empty = load_xyz(path)
    assert empty.shape == (0, 3) and empty.dtype == np.float64


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

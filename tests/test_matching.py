"""Tests for forestloc.matching — candidates, correspondence, transforms, localize."""

import math
from collections import Counter
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

import forestloc.matching
from forestloc.dtgraph import (
    TriangleDescriptor,
    load_graph,
    triangle_descriptors,
    triangulate,
)
from forestloc.errors import (
    DegeneratePointSetError,
    ForestLocError,
    InsufficientMatchesError,
    NoOverlapError,
)
from forestloc.geometry import TWO_PI, RigidTransform2D, normalize_angle
from forestloc.matching import (
    _EDGE_TIE_TOLERANCE,
    _IRLS_MAX_ITER,
    _KNN_HITS,
    _MAX_CANDIDATES_PER_STAR,
    MatchParams,
    _candidates,
    _fit,
    _index_hits,
    _pair_and_fit,
    _residual,
    _unique_pairs,
    _verify,
    dissimilarity,
    localize,
)
from forestloc.simulator import ForestSpec, generate_forest
from forestloc.trunks import TrunkMap
from reference_matcher import MATCH_ARRAYS, brute_force_match_oracle

UNIT_L = (2.0 + math.sqrt(2.0)) ** 2


def make_graph(seed, n=80, extent=80.0):
    rng = np.random.default_rng(seed)
    return triangulate(rng.uniform(0, extent, (n, 2)))


def as_complex(v):
    """(..., 2) rows as complex numbers x + iy, the form the matching kernels take."""
    return v[..., 0] + 1j * v[..., 1]


def star_row(graph, vertex_ids):
    """The star_table row whose center triangle uses these vertex ids, or None."""
    want = set(vertex_ids)
    for row, center in enumerate(graph.star_table.vertices[:, :3].tolist()):
        if set(center) == want:
            return row
    return None


def pair_one(ids_local, ids_global, points_local, points_global):
    """_pair_and_fit on one candidate, two star_table vertex rows:
    (paired ids, theta, t, residual, ambiguous)."""
    rows = (np.array([ids_local]), np.array([ids_global]))
    return tuple(column[0] for column in _pair_and_fit(*rows, points_local, points_global))


def fit_one(ids_local, ids_global, points_local, points_global):
    """_fit on one row of paired vertex ids: (theta, t, residual)."""
    zl, zg = as_complex(points_local[list(ids_local)]), as_complex(points_global[list(ids_global)])
    return tuple(column[0] for column in _fit(zl[None], zg[None]))


def test_params_validation():
    assert [f.name for f in fields(MatchParams)] == ["feature_tolerance", "min_matches"]
    with pytest.raises(ValueError):
        MatchParams(feature_tolerance=0.0)
    with pytest.raises(ValueError):
        MatchParams(feature_tolerance=float("nan"))
    with pytest.raises(ValueError):
        MatchParams(min_matches=0)


def test_dissimilarity_identity():
    d = TriangleDescriptor(2.5, 40.0)
    assert dissimilarity(d, d) == 0.0


def test_dissimilarity_hand_value():
    t1 = TriangleDescriptor(0.5, UNIT_L)
    t2 = TriangleDescriptor(2.0, 4 * UNIT_L)
    expected = 1.5 + 3 * UNIT_L
    assert math.isclose(dissimilarity(t1, t2), expected, rel_tol=1e-12)
    assert math.isclose(dissimilarity(t1, t2), 36.47056274847714, rel_tol=1e-12)


def test_dissimilarity_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a = TriangleDescriptor(*rng.uniform(0.1, 100, 2))
        b = TriangleDescriptor(*rng.uniform(0.1, 100, 2))
        assert dissimilarity(a, b) == dissimilarity(b, a)
        assert dissimilarity(a, b) >= 0.0


def test_dissimilarity_rigid_invariance():
    from forestloc.dtgraph import triangle_descriptors

    rng = np.random.default_rng(1)
    for _ in range(200):
        tri = rng.uniform(-20, 20, (3, 2))
        u, w = tri[1] - tri[0], tri[2] - tri[0]
        if abs(u[0] * w[1] - u[1] * w[0]) < 1e-2:
            continue
        T = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-50, 50, 2))
        a1, l1 = triangle_descriptors(tri[None])
        a2, l2 = triangle_descriptors(T.apply(tri)[None])
        d = dissimilarity(
            TriangleDescriptor(a1[0], l1[0]), TriangleDescriptor(a2[0], l2[0])
        )
        assert d <= 1e-9 * max(a1[0], l1[0])


def candidate_rows(graph_local, row, graph, params=MatchParams()):
    """The star_table rows of graph that pass the candidate test for
    graph_local's star_table row row, in candidate order."""
    lrow, mrow = _candidates(graph_local, graph, params.feature_tolerance)
    return mrow[lrow == row].tolist()


def test_candidates_identity_first():
    g = make_graph(2)
    target = len(g.star_features) // 2
    assert candidate_rows(g, target, g)[0] == target


def test_candidates_scaled_star_excluded():
    g = make_graph(3)
    g2 = triangulate(g.points * math.sqrt(2.0))  # doubles every A and l
    scaled = star_row(g2, g.star_table.vertices[0, :3])
    assert scaled is not None
    assert 0 not in candidate_rows(g2, scaled, g)


def test_candidates_tolerance_bound():
    """Every candidate is componentwise within the relative tolerance."""
    g = make_graph(4, n=150)
    features = g.star_features
    params = MatchParams(feature_tolerance=0.05)
    for row, f in enumerate(features[:10]):
        for c in candidate_rows(g, row, g, params):
            assert (np.abs(features[c] - f) <= 0.05 * f + 1e-12).all()


def test_candidates_capped_and_sorted():
    g = make_graph(5, n=200)
    features = g.star_features
    params = MatchParams(feature_tolerance=0.8)
    cands = candidate_rows(g, 0, g, params)
    assert len(cands) == _MAX_CANDIDATES_PER_STAR
    devs = np.abs((features[cands] - features[0]) / features[0]).sum(axis=1)
    assert devs.tolist() == sorted(devs)


def test_candidates_perturbed_original_found():
    """Original star stays a candidate after sigma=5cm landmark noise."""
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 120, (60, 2))  # ~8-15 m spacing keeps triangles large
    g = triangulate(pts)
    found = 0
    for seed in range(100):
        noise_rng = np.random.default_rng(1000 + seed)
        noisy = triangulate(pts + noise_rng.normal(0, 0.05, pts.shape))
        row = star_row(noisy, g.star_table.vertices[0, :3])
        if row is None:
            continue  # noise flipped the triangulation here
        if 0 in candidate_rows(noisy, row, g):
            found += 1
    assert found >= 95


def test_correspond_translation():
    g = make_graph(8)
    ids = g.star_table.vertices[0]
    pts2 = g.points + [10.0, 0.0]
    paired, _, _, residual, ambiguous = pair_one(ids, ids, g.points, pts2)
    assert paired.tolist() == ids.tolist()
    assert residual < np.inf and not ambiguous


def test_correspond_rotation():
    g = make_graph(9)
    ids = g.star_table.vertices[1]
    T = RigidTransform2D(math.pi / 2, np.zeros(2))
    paired, _, _, residual, ambiguous = pair_one(ids, ids, g.points, T.apply(g.points))
    assert paired.tolist() == ids.tolist()
    assert residual < np.inf and not ambiguous
    # matched center-edge lengths preserved
    m = dict(zip(ids.tolist(), paired.tolist()))
    for i, j in ((0, 1), (1, 2), (2, 0)):
        a, b = ids[i], ids[j]
        la = np.linalg.norm(g.points[a] - g.points[b])
        lb = np.linalg.norm(T.apply(g.points)[m[a]] - T.apply(g.points)[m[b]])
        assert abs(la - lb) <= 1e-9


def test_correspond_mirror_never_rigid():
    """A star never pairs rigidly with its mirror image, re-triangulated.

    The mirror's triangles are CCW again, so its stars pass the candidate
    test with equal features; only a reflection could fit them, and the
    pairing is a rotation of the corner order.  A rigidly moved copy of
    the same stars fits exactly.
    """
    g = make_graph(10)
    T = RigidTransform2D(0.7, np.array([5.0, -3.0]))
    moved = triangulate(T.apply(g.points))
    mirrored = triangulate(g.points * [-1.0, 1.0])
    checked = 0
    for ids, f in zip(g.star_table.vertices, g.star_features):
        twin = star_row(mirrored, ids[:3])
        same = star_row(moved, ids[:3])
        if twin is None or same is None:
            continue
        assert np.allclose(mirrored.star_features[twin], f, rtol=1e-9)
        twin_ids = mirrored.star_table.vertices[twin]
        _, _, _, residual, ambiguous = pair_one(ids, twin_ids, g.points, mirrored.points)
        assert residual > 0.1 and not ambiguous
        same_ids = moved.star_table.vertices[same]
        _, _, _, residual, ambiguous = pair_one(ids, same_ids, g.points, moved.points)
        assert residual < 1e-9 and not ambiguous
        checked += 1
    assert checked >= 20


def test_estimate_identity():
    g = make_graph(11)
    ids = g.star_table.vertices[0]
    theta, t, residual = fit_one(ids, ids, g.points, g.points.copy())
    assert abs(theta) < 1e-12
    np.testing.assert_allclose(t, [0.0, 0.0], atol=1e-12)
    assert residual < 1e-9


def test_estimate_rotation_about_centroid():
    """30 degrees about the star centroid plus (5, -2) is recovered exactly."""
    g = make_graph(12)
    ids = g.star_table.vertices[2]
    centroid = g.points[ids].mean(axis=0)
    theta = math.radians(30.0)
    R = RigidTransform2D(theta, np.zeros(2))
    pts2 = g.points.copy()
    pts2 = R.apply(g.points - centroid) + centroid + [5.0, -2.0]
    found, t, residual = fit_one(ids, ids, g.points, pts2)
    assert abs(normalize_angle(found - theta)) < 1e-6
    fitted = RigidTransform2D(found, t)
    np.testing.assert_allclose(fitted.apply(g.points[ids]), pts2[ids], atol=1e-6)
    assert residual < 1e-6


@pytest.mark.filterwarnings("error")
def test_unfittable_pair_has_infinite_residual():
    """A pairing with no usable centered vector has no fit: residual inf.

    Every vertex of the map side sits on one point, so each centered map
    vector is zero and no rotation candidate is left.
    """
    g = make_graph(13)
    ids = g.star_table.vertices[0]
    collapsed = np.tile(g.points[:1], (g.n_vertices, 1))
    assert fit_one(ids, ids, g.points, collapsed)[2] == math.inf
    _, _, _, residual, ambiguous = pair_one(ids, ids, g.points, collapsed)
    assert residual == math.inf and not ambiguous


def triangular_lattice(n=12, spacing=4.0):
    """An n x n triangular lattice: every center edge ties with every other."""
    return spacing * np.array(
        [[i + 0.5 * (j % 2), j * math.sqrt(3.0) / 2.0] for i in range(n) for j in range(n)]
    )


def test_lattice_rotations_tie():
    """Equilateral stars tie on every rotation and fail closed.

    Paired with itself, a star whose apexes are as symmetric as its center
    has several rotations with equal residuals: ambiguous.  A window of the
    lattice finds candidates, but every one of them is ambiguous, so no
    star matches.
    """
    pts = triangular_lattice()
    g = triangulate(pts)
    rows = g.star_table.vertices
    assert len(rows) == 206
    _, _, _, residual, ambiguous = _pair_and_fit(rows, rows, g.points, g.points)
    assert (residual < np.inf).all()
    assert ambiguous.sum() == 194
    # the lattice re-indexed: its vertex v is the original vertex perm[v]
    perm = np.random.default_rng(0).permutation(len(pts))
    g2 = triangulate(pts[perm])
    twin_rows = {frozenset(perm[v[:3]]): v for v in g2.star_table.vertices}
    rows = rows[~ambiguous]
    twins = np.array([twin_rows[frozenset(v[:3].tolist())] for v in rows])
    # of the tied rotations, the one that fits wins, whichever it is
    paired, _, _, residual, ambiguous = _pair_and_fit(rows, twins, g.points, g2.points)
    assert (residual < np.inf).all() and not ambiguous.any()
    np.testing.assert_array_equal(perm[paired], rows)
    window = pts[np.hypot(*(pts - pts.mean(axis=0)).T) <= 12.0]
    with pytest.raises(InsufficientMatchesError) as ei:
        localize(triangulate(window), g)
    assert ei.value.match_count == 0


def pair_and_fit_reference(local_ids, global_ids, points_local, points_global):
    """_pair_and_fit's outputs, one candidate row and one rotation at a time.

    Every rotation of the corner order is fitted by _fit on a row of its
    own; rotations whose center-edge pairs are not tied with the best
    length difference then count as unfitted.
    """
    out = []
    for lids, gids in zip(local_ids.tolist(), global_ids.tolist()):
        corners = [[1, 2], [2, 0], [0, 1]]  # the edge opposite corner j
        le = [np.linalg.norm(np.subtract(*points_local[[lids[a] for a in e]])) for e in corners]
        ge = [np.linalg.norm(np.subtract(*points_global[[gids[a] for a in e]])) for e in corners]
        diff = {(j, k): abs(le[j] - ge[k]) for j in range(3) for k in range(3)}
        best = min(diff.values())
        tied = {(k - j) % 3 for (j, k), d in diff.items() if d <= best + _EDGE_TIE_TOLERANCE}
        fits = []
        for o in range(3):
            paired = [gids[(c + o) % 3 + apex] for apex in (0, 3) for c in range(3)]
            theta, t, residual = fit_one(lids, paired, points_local, points_global)
            theta = normalize_angle(float(theta))
            if residual == math.inf:
                theta, t = math.nan, np.full(2, math.nan)
            fits.append((residual if o in tied else math.inf, o, paired, theta, t))
        ranked = sorted(fits, key=lambda fit: fit[:2])
        ambiguous = len(tied) > 1 and ranked[1][0] - ranked[0][0] <= 1e-6
        out.append((ranked[0][2], ranked[0][3], ranked[0][4], ranked[0][0], ambiguous))
    return [np.array(column) for column in zip(*out)]


def lattice_candidate_rows():
    """Lattice stars paired with themselves, their re-indexed twins and shifted rows."""
    pts = triangular_lattice()
    perm = np.random.default_rng(0).permutation(len(pts))
    g, g2 = triangulate(pts), triangulate(pts[perm])
    rows = g.star_table.vertices
    twin_rows = {frozenset(perm[v[:3]]): v for v in g2.star_table.vertices}
    twins = np.array([twin_rows[frozenset(v[:3].tolist())] for v in rows])
    return [
        (rows, rows, g.points, g.points),
        (rows, twins, g.points, g2.points),
        (rows, np.roll(rows, 5, axis=0), g.points, g.points),
    ]


def noisy_candidate_rows():
    out = []
    for seed in (40, 41):
        g_map, g_loc, _ = make_instance(seed, n=400, extent=120.0, window=80.0, noise=0.03)
        lrow, mrow = _candidates(g_loc, g_map, 0.3)  # true and false matches
        vertices = (g_loc.star_table.vertices[lrow], g_map.star_table.vertices[mrow])
        out.append((*vertices, g_loc.points, g_map.points))
    return out


@pytest.mark.parametrize(
    "cases, min_ambiguous",
    [
        pytest.param(noisy_candidate_rows, 0, id="noisy"),
        pytest.param(lattice_candidate_rows, 100, id="lattice"),
    ],
)
def test_pair_and_fit_matches_per_rotation_fits(cases, min_ambiguous):
    """Fitting only the tied rotations gives what fitting all three gives."""
    ambiguous = fitted = 0
    for local_ids, global_ids, points_local, points_global in cases():
        got = _pair_and_fit(local_ids, global_ids, points_local, points_global)
        want = pair_and_fit_reference(local_ids, global_ids, points_local, points_global)
        paired, theta, t, residual, flags = got
        np.testing.assert_array_equal(paired, want[0])
        np.testing.assert_array_equal([normalize_angle(float(a)) for a in theta], want[1])
        np.testing.assert_array_equal(t, want[2])
        np.testing.assert_array_equal(residual, want[3])
        np.testing.assert_array_equal(flags, want[4])
        ambiguous += int(flags.sum())
        fitted += len(flags)
    assert fitted >= 100
    assert ambiguous >= min_ambiguous


def rotation_fit_error(u, w, angles):
    """Summed |R(angle) u_i - w_i| per row of centered pairings, for (N, M) angles."""
    c, s = np.cos(angles)[..., None], np.sin(angles)[..., None]
    rx = u[:, None, :, 0] * c - u[:, None, :, 1] * s - w[:, None, :, 0]
    ry = u[:, None, :, 0] * s + u[:, None, :, 1] * c - w[:, None, :, 1]
    return np.hypot(rx, ry).sum(axis=2)


def test_fit_takes_best_candidate_rotation():
    """_fit turns by the candidate angle of least rotation-fit error.

    Each of 100 noisy 6-vertex pairings has 6 candidate angles, one per
    vertex.  The chosen angle fits no worse than any of them, and a dense
    scan of all angles (4,096 steps, then 2,001 around the best) finds
    that the chosen angles lie within 2% of the best rotation in sum; the
    second-best candidates lie 3% above it.  The translation maps the
    rotated local centroid onto the global one, and the residual is the
    summed pair distance.
    """
    rng = np.random.default_rng(9)
    vl = rng.uniform(-6.0, 6.0, (100, 6, 2))
    poses = [RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-50, 50, 2)) for _ in vl]
    vg = np.array([pose.apply(v) for pose, v in zip(poses, vl)])
    vg += rng.normal(0.0, 0.05, vg.shape)
    theta, t, residual = _fit(as_complex(vl), as_complex(vg))
    cl, cg = vl.mean(axis=1, keepdims=True), vg.mean(axis=1, keepdims=True)
    u, w = vl - cl, vg - cg
    error = rotation_fit_error(u, w, theta[:, None])[:, 0]
    candidates = np.arctan2(u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0], (u * w).sum(axis=2))
    assert (error <= rotation_fit_error(u, w, candidates).min(axis=1) * (1 + 1e-12)).all()
    steps = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    coarse = steps[np.argmin(rotation_fit_error(u, w, np.tile(steps, (len(vl), 1))), axis=1)]
    fine = coarse[:, None] + np.linspace(-2e-3, 2e-3, 2001)
    scan = rotation_fit_error(u, w, fine).min(axis=1)
    assert (error >= scan * (1 - 1e-9)).all()
    assert error.sum() <= 1.02 * scan.sum()
    rotated = np.array([RigidTransform2D(a, np.zeros(2)).apply(c) for a, c in zip(theta, cl)])
    np.testing.assert_allclose(t, cg[:, 0] - rotated[:, 0], rtol=0, atol=1e-9)
    moved = np.array([RigidTransform2D(a, b).apply(v) for a, b, v in zip(theta, t, vl)])
    np.testing.assert_allclose(residual, np.hypot(*(moved - vg).T).sum(axis=0), rtol=1e-12)


def rotate(theta, v):
    """Rows of v turned by the matrix [[c, -s], [s, c]], one row at a time."""
    c, s = math.cos(theta), math.sin(theta)
    rotation = np.array([[c, -s], [s, c]])
    return np.array([rotation @ p for p in v])


def test_residual_pair_distances_by_rotation_matrix():
    """_residual's pair distances and weighted sums equal an explicit loop, pose by pose.

    Poses given as (S, 1) arrays give the same sums, bit for bit, as one
    call per pose; _verify scores its seeds that way.
    """
    rng = np.random.default_rng(21)
    vl, vg = rng.uniform(-80.0, 80.0, (2, 40, 2))
    m = rng.integers(1, 6, 40)
    zl, zg = as_complex(vl), as_complex(vg)
    poses = np.column_stack(
        [rng.uniform(-2 * math.pi, 2 * math.pi, 25), rng.uniform(-100.0, 100.0, (25, 2))]
    )
    for theta, x, y in poses:
        want = np.hypot(*(rotate(theta, vl) + (x, y) - vg).T)
        got = _residual((theta, x, y), zl[:, None], zg[:, None])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert math.isclose(_residual((theta, x, y), zl, zg, m), want @ m, rel_tol=1e-12)
    one_call = _residual(poses.T[:, :, None], zl, zg, m)
    assert one_call.tobytes() == np.array([_residual(p, zl, zg, m) for p in poses]).tobytes()


def weighted_lsq_scan(vl, vg, w, angles):
    """Per angle, min over t of sum w_i |R vl_i + t - vg_i|^2: the t that maps
    the weighted local centroid onto the weighted global one."""
    cl, cg = w @ vl / w.sum(), w @ vg / w.sum()
    u, v = vl - cl, vg - cg
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    rx = u[:, 0] * c - u[:, 1] * s - v[:, 0]
    ry = u[:, 0] * s + u[:, 1] * c - v[:, 1]
    return (rx * rx + ry * ry) @ w


def test_irls_step_is_weighted_procrustes(monkeypatch):
    """One IRLS step from a seed solves the weighted least squares problem
    with weights m_i / d_i, d_i the pair distances under the seed.

    A dense scan of the angle (65,536 steps, then 4,001 around the best)
    finds no lower weighted sum, and the translation maps the weighted
    local centroid onto the global one.
    """
    rng = np.random.default_rng(22)
    vl = rng.uniform(-20.0, 20.0, (30, 2))
    vg = rotate(2.5, vl) + (40.0, -15.0) + rng.normal(0.0, 0.5, vl.shape)
    m = rng.integers(1, 5, 30)
    seed = np.array([[2.3, 38.0, -13.0]])
    w = m / np.hypot(*(rotate(2.3, vl) + seed[0, 1:] - vg).T)
    monkeypatch.setattr(forestloc.matching, "_IRLS_MAX_ITER", 1)
    theta, x, y, residual, steps = _verify(as_complex(vl), as_complex(vg), m, seed)
    assert steps == 1 and theta != 2.3
    assert residual < np.hypot(*(rotate(2.3, vl) + seed[0, 1:] - vg).T) @ m
    got = ((rotate(theta, vl) + (x, y) - vg) ** 2).sum(axis=1) @ w
    coarse = np.linspace(-math.pi, math.pi, 65536, endpoint=False)
    best = coarse[np.argmin(weighted_lsq_scan(vl, vg, w, coarse))]
    fine = best + np.linspace(-2e-4, 2e-4, 4001)
    scan = weighted_lsq_scan(vl, vg, w, fine)
    assert got <= scan.min() * (1 + 1e-12)
    assert abs(normalize_angle(theta - fine[np.argmin(scan)])) <= 1e-7
    cl, cg = w @ vl / w.sum(), w @ vg / w.sum()
    np.testing.assert_allclose((x, y), cg - rotate(theta, cl[None])[0], rtol=0, atol=1e-9)


def test_verification_residual_matches_definition():
    g = make_graph(14)
    ids = g.star_table.vertices[0]
    pts2 = g.points + [1.0, 0.0]
    identity = (0.0, 0.0, 0.0)  # leaves a 1 m gap per vertex
    r = _residual(identity, *_unique_pairs(ids, ids, g.points, pts2))
    assert math.isclose(r, 6.0, rel_tol=1e-12)
    # the same six pairs held by two matches count twice
    r = _residual(identity, *_unique_pairs(np.tile(ids, 2), np.tile(ids, 2), g.points, pts2))
    assert math.isclose(r, 12.0, rel_tol=1e-12)


def make_instance(seed, n=60, extent=70.0, window=35.0, noise=0.0):
    """Map graph plus a transformed (optionally noisy) window of it."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, extent, (n, 2))
    g_map = triangulate(pts)
    lo = rng.uniform(0, extent - window, 2)
    mask = ((pts >= lo) & (pts <= lo + window)).all(axis=1)
    if mask.sum() < 12:
        return make_instance(seed + 10_000, n, extent, window, noise)
    theta = rng.uniform(-math.pi, math.pi)
    t = rng.uniform(-100, 100, 2)
    T = RigidTransform2D(theta, t)
    local = T.inverse().apply(pts[mask])
    if noise:
        local = local + rng.normal(0, noise, local.shape)
    try:
        g_loc = triangulate(local)
    except Exception:
        return make_instance(seed + 10_000, n, extent, window, noise)
    if len(g_loc.star_features) == 0:
        return make_instance(seed + 10_000, n, extent, window, noise)
    return g_map, g_loc, T


def test_localize_self_subregion():
    """Verbatim subregion of the map localizes to the identity."""
    rng = np.random.default_rng(15)
    pts = rng.uniform(0, 60, (90, 2))
    g_map = triangulate(pts)
    mask = ((pts >= 15) & (pts <= 45)).all(axis=1)
    assert mask.sum() >= 15
    g_loc = triangulate(pts[mask])
    res = localize(g_loc, g_map)
    assert abs(res.pose.theta) < 1e-6
    assert np.abs(res.pose.t).max() < 1e-6
    assert res.match_count >= 1


def test_localize_known_transform():
    """theta*=47 deg, t*=(31.2, -8.7) recovered from a noise-free window."""
    rng = np.random.default_rng(16)
    pts = rng.uniform(0, 80, (70, 2))
    g_map = triangulate(pts)
    mask = ((pts >= 20) & (pts <= 60)).all(axis=1)
    T = RigidTransform2D(math.radians(47.0), np.array([31.2, -8.7]))
    g_loc = triangulate(T.inverse().apply(pts[mask]))
    res = localize(g_loc, g_map)
    assert np.hypot(*(res.pose.t - T.t)) < 0.01
    assert abs(normalize_angle(res.pose.theta - T.theta)) < math.radians(0.1)


def test_localize_stateless():
    g_map, g_loc, _ = make_instance(17)
    r1 = localize(g_loc, g_map)
    r2 = localize(g_loc, g_map)
    assert r1.pose.theta == r2.pose.theta
    np.testing.assert_array_equal(r1.pose.t, r2.pose.t)
    assert r1.residual == r2.residual
    assert r1.match_count == r2.match_count


def test_localize_argmin_contract():
    """Final residual never exceeds any accepted candidate transform's."""
    g_map, g_loc, _ = make_instance(19, noise=0.03)
    res = localize(g_loc, g_map)
    ids = pair_ids(g_loc, res)
    for theta, t in zip(res.thetas, res.translations):
        alt = stacked_residual(RigidTransform2D(theta, t), ids, g_loc.points, g_map.points)
        assert res.residual <= alt + 1e-9


@pytest.mark.parametrize("noise", [0.0, 0.03])
def test_accepted_fits_match_single_pair_path(noise):
    """localize's batched fits equal one-row _pair_and_fit calls, bit for bit."""
    checked = 0
    for seed in (40, 41, 42, 43):
        g_map, g_loc, _ = make_instance(seed, n=120, extent=90.0, window=50.0, noise=noise)
        res = localize(g_loc, g_map)
        rows = zip(*(getattr(res, name) for name in MATCH_ARRAYS), strict=True)
        for lrow, mrow, paired, theta, t, residual in rows:
            ids = (g_loc.star_table.vertices[lrow], g_map.star_table.vertices[mrow])
            one = pair_one(*ids, g_loc.points, g_map.points)
            for got, want in zip(one, (paired, theta, t, residual, False)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            checked += 1
    assert checked >= 40


def pair_ids(graph_local, res):
    """(local ids, map ids) of every vertex pair of res's matches, in match
    order, duplicates included."""
    return graph_local.star_table.vertices[res.local_rows].ravel(), res.paired.ravel()


def pair_counts(ids):
    """How often each (local id, map id) vertex pair occurs in ids, by a plain count."""
    return Counter(zip(*(side.tolist() for side in ids)))


def unique_pairs_oracle(ids, points_local, points_map):
    """The distinct vertex pairs of ids in (local id, map id) order: complex (zl, zg, m)."""
    counts = pair_counts(ids)
    ids = sorted(counts)
    m = np.array([counts[p] for p in ids])
    zl = as_complex(points_local[[i for i, _ in ids]])
    return zl, as_complex(points_map[[j for _, j in ids]]), m


def verify_start_oracle(zl, zg, m, seeds):
    """The seed verification starts from, by a plain loop: (residual, beta, x, y)."""
    return min((_residual(seed, zl, zg, m),) + tuple(seed) for seed in seeds)


def test_verify_seed_rule(monkeypatch):
    """The lowest (residual, beta, x, y) seed starts the solve, in any seed order."""
    g_map, g_loc, _ = make_instance(40, n=120, extent=90.0, window=50.0, noise=0.03)
    res = localize(g_loc, g_map)
    zl, zg, m = unique_pairs_oracle(pair_ids(g_loc, res), g_loc.points, g_map.points)
    assert m.max() > 1
    seeds = np.column_stack([res.thetas % TWO_PI, res.translations])
    start = verify_start_oracle(zl, zg, m, seeds)
    first = np.flatnonzero((seeds == start[1:]).all(axis=1))[0]
    rng = np.random.default_rng(3)
    orders = [
        seeds,
        seeds[rng.permutation(len(seeds))],
        np.vstack([seeds, seeds[[first]]])[rng.permutation(len(seeds) + 1)],
    ]
    solved = {np.array(_verify(zl, zg, m, s)).tobytes() for s in orders}
    assert len(solved) == 1
    monkeypatch.setattr(forestloc.matching, "_IRLS_MAX_ITER", 0)  # the start, unsolved
    for s in orders:
        beta, x, y, residual, steps = _verify(zl, zg, m, s)
        assert np.array([residual, beta, x, y]).tobytes() == np.array(start).tobytes()
        assert steps == 0
    # every rotation of a local point at the origin leaves it 5 m from (3, 4)
    tied = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    one = (np.zeros(1, dtype=complex), np.array([3.0 + 4.0j]))
    assert _verify(*one, np.array([1]), tied) == (1.0, 0.0, 0.0, 5.0, 0)
    assert _verify(*one, np.array([3]), tied) == (1.0, 0.0, 0.0, 15.0, 0)


def test_localize_edge_lengths_preserved():
    """Accepted noise-free matches preserve all star edge lengths."""
    g_map, g_loc, _ = make_instance(20)
    res = localize(g_loc, g_map)
    assert res.match_count >= 1
    for lrow, paired in zip(res.local_rows, res.paired):
        m = dict(zip(g_loc.star_table.vertices[lrow].tolist(), paired.tolist()))
        center = g_loc.star_table.centers[lrow]
        for t in [center, *g_loc.neighbors[center]]:
            tri = g_loc.triangles[t]
            for i in range(3):
                a, b = int(tri[i]), int(tri[(i + 1) % 3])
                if a not in m or b not in m:
                    continue
                la = np.linalg.norm(g_loc.points[a] - g_loc.points[b])
                lg = np.linalg.norm(g_map.points[m[a]] - g_map.points[m[b]])
                assert abs(la - lg) <= 1e-6


def test_localize_min_matches_gate():
    g_map, g_loc, _ = make_instance(21)
    with pytest.raises(InsufficientMatchesError, match="insufficient matches") as ei:
        localize(g_loc, g_map, MatchParams(min_matches=10_000))
    assert ei.value.match_count >= 1


def test_localize_no_overlap():
    g_map, g_loc, _ = make_instance(22)
    rng = np.random.default_rng(23)
    far = triangulate(rng.uniform(0, 8, (25, 2)))  # tiny triangles, nothing similar
    with pytest.raises(NoOverlapError, match="no overlap"):
        localize(g_loc, far)


def test_localize_timings_present():
    g_map, g_loc, _ = make_instance(24)
    res = localize(g_loc, g_map)
    assert set(res.elapsed) == {"stars", "matching", "verification", "total"}
    assert all(v >= 0.0 for v in res.elapsed.values())


def test_oracle_identical_graphs():
    g = make_graph(25, n=40, extent=50.0)
    out = brute_force_match_oracle(g, g)
    assert out.residual < 1e-9
    assert abs(out.pose.theta) < 1e-9
    np.testing.assert_allclose(out.pose.t, [0.0, 0.0], atol=1e-9)


def test_oracle_known_transform():
    rng = np.random.default_rng(26)
    pts = rng.uniform(0, 50, (35, 2))
    g_map = triangulate(pts)
    T = RigidTransform2D(0.9, np.array([12.0, -4.0]))
    g_loc = triangulate(T.inverse().apply(pts))
    out = brute_force_match_oracle(g_loc, g_map)
    assert abs(normalize_angle(out.pose.theta - T.theta)) < 1e-6
    np.testing.assert_allclose(out.pose.t, T.t, atol=1e-6)


def test_pipeline_matches_oracle():
    """localize() agrees with the exhaustive oracle on small instances."""
    checked = 0
    seed = 0
    while checked < 8:
        seed += 1
        try:
            g_map, g_loc, _ = make_instance(
                300 + seed, n=45, extent=60.0, window=35.0
            )
        except RecursionError:
            continue
        try:
            res = localize(g_loc, g_map)
            orc = brute_force_match_oracle(g_loc, g_map)
        except NoOverlapError:
            continue
        assert abs(res.residual - orc.residual) <= 1e-6
        for name in MATCH_ARRAYS:
            assert np.array_equal(getattr(res, name), getattr(orc, name))
        checked += 1


def test_pipeline_matches_oracle_with_rival_stars():
    """localize() picks the oracle's star match when a second one competes.

    The map also holds a copy of the window 100 m away with 2 cm noise, so
    most matched local stars have an exact and a noisy candidate, and the
    accept rule has to pick the one of least residual.
    """
    contested = 0
    for seed in range(301, 309):
        g_map, g_loc, T = make_instance(seed, n=45, extent=60.0, window=35.0)
        rng = np.random.default_rng(seed)
        rival = T.apply(g_loc.points) + [100.0, 0.0] + rng.normal(0, 0.02, g_loc.points.shape)
        g_map = triangulate(np.vstack([g_map.points, rival]))
        res = localize(g_loc, g_map)
        orc = brute_force_match_oracle(g_loc, g_map)
        assert abs(res.residual - orc.residual) <= 1e-6
        for name in MATCH_ARRAYS:
            assert np.array_equal(getattr(res, name), getattr(orc, name))
        lrow, _ = _candidates(g_loc, g_map, MatchParams().feature_tolerance)
        contested += int((np.bincount(lrow)[res.local_rows] > 1).sum())
    assert contested >= 8


def linear_scan_candidates(g_loc, g_map, params):
    """Per local star in order, its candidate map-star centers, by a full scan.

    A map star passes when every feature's relative deviation from the
    local star's is within tolerance; passing stars are ordered by summed
    deviation, then table index, and capped.
    """
    table = g_map.star_features
    out = []
    for ls in g_loc.interior_stars:
        rel = np.abs(table - ls.features) / ls.features
        passing = [
            i for i in range(len(table)) if all(r <= params.feature_tolerance for r in rel[i])
        ]
        passing.sort(key=lambda i: (rel[i].sum(), i))
        out.append(
            [g_map.interior_stars[i].center for i in passing[:_MAX_CANDIDATES_PER_STAR]]
        )
    return out


def localize_recording_candidates(monkeypatch, g_loc, g_map, params):
    """localize's outcome plus, per local star, the candidate centers it tried.

    The candidate step runs once over all local stars and returns their
    candidates in star order; every candidate it returns is paired and
    fitted.  The outcome is the result, or the type of the ForestLocError
    raised.
    """
    calls = []
    real = forestloc.matching._candidates

    def spy(*args, **kwargs):
        pairs = real(*args, **kwargs)
        calls.append(pairs)
        return pairs

    with monkeypatch.context() as patch:
        patch.setattr(forestloc.matching, "_candidates", spy)
        try:
            outcome = localize(g_loc, g_map, params)
        except ForestLocError as exc:
            outcome = type(exc)
    assert len(calls) == 1
    lrow, mrow = calls[0]
    assert (np.diff(lrow) >= 0).all()
    n_local = len(g_loc.star_table.centers)
    assert ((lrow >= 0) & (lrow < n_local)).all()
    centers = g_map.star_table.centers
    return outcome, [centers[mrow[lrow == row]].tolist() for row in range(n_local)]


def make_grid_instance(seed, stand=0, n=12, spacing=4.0, noise=0.02, half=None):
    """A jittered plantation grid, natural trees beside it, and a noisy moved window.

    The grid is n x n trees at spacing (m) with 2 cm jitter; stand trees
    fill a square of the grid's size east of it.  The window spans the
    grid's inner rows, and with a stand it reaches from the grid's middle
    into the stand; given half (m), it is the square of that half-width
    around the grid's centre.
    """
    rng = np.random.default_rng(seed)
    ij = np.stack(np.meshgrid(np.arange(n), np.arange(n)), axis=-1).reshape(-1, 2)
    side = spacing * (n - 1)
    pts = np.vstack(
        [
            spacing * ij + rng.normal(0.0, 0.02, ij.shape),
            rng.uniform([side + spacing, 0.0], [2.0 * side, side], (stand, 2)),
        ]
    )
    lo = np.array([side / 2.0 if stand else spacing, spacing])
    hi = np.array([1.5 * side if stand else side - spacing, side - spacing])
    if half is not None:
        lo, hi = side / 2.0 - half, side / 2.0 + half
    window = pts[((pts >= lo) & (pts <= hi)).all(axis=1)]
    T = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-100, 100, 2))
    local = T.inverse().apply(window) + rng.normal(0.0, noise, window.shape)
    return triangulate(pts), triangulate(local), T


SMALL_INSTANCES = [partial(make_instance, seed, noise=0.02) for seed in (31, 32, 33)]
# 239 local and 637 map stars
WITH_WIDE_WINDOW = SMALL_INSTANCES + [
    partial(make_instance, 31, n=400, extent=120.0, window=80.0, noise=0.02)
]
# 79 local and 2,186 map stars: the star index has 32 leaves of up to 128 stars
LARGE_MAP = [partial(make_instance, 35, n=1200, extent=200.0, window=50.0, noise=0.02)]
# 89 local and 203 map stars; most local stars pass more than _KNN_HITS
# map stars
GRID = [partial(make_grid_instance, 1)]
# 111 local and 401 map stars: grid stars pass more than _KNN_HITS map
# stars, stand stars fewer
GRID_AND_STAND = [partial(make_grid_instance, 1, stand=120)]
# 147 local and 6,970 map stars: a window of a 60 x 60 plantation, where
# nearly every local star passes thousands of map stars
PLANTATION = [partial(make_grid_instance, 3, n=60, half=22.0)]


def test_grid_instances_overflow_nearest_hits():
    """The grid instances hold local stars with more passing map stars than
    the first star-index pass returns, and the mixed one also holds stars
    with fewer."""
    cases = ((GRID[0], 0.9, 1.0), (GRID_AND_STAND[0], 0.2, 0.8), (PLANTATION[0], 0.95, 1.0))
    for make, low, high in cases:
        g_map, g_loc, _ = make()
        table = g_map.star_features
        passing = [(np.abs(table - f) / f <= 0.05).all(axis=1).sum() for f in g_loc.star_features]
        assert low <= np.mean(np.array(passing) > _KNN_HITS) <= high


@pytest.mark.parametrize(
    "tolerance, instances",
    [
        pytest.param(
            0.05, WITH_WIDE_WINDOW + LARGE_MAP + GRID + GRID_AND_STAND + PLANTATION, id="0.05"
        ),
        pytest.param(0.2, LARGE_MAP + GRID + GRID_AND_STAND, id="0.2"),
        pytest.param(0.3, WITH_WIDE_WINDOW + LARGE_MAP + GRID + GRID_AND_STAND, id="0.3"),
        pytest.param(0.5, GRID + GRID_AND_STAND, id="0.5"),
        pytest.param(0.8, SMALL_INSTANCES + GRID, id="0.8"),
        pytest.param(1.0, SMALL_INSTANCES, id="1.0"),
        pytest.param(1.5, WITH_WIDE_WINDOW + GRID, id="1.5"),
    ],
)
def test_candidates_match_linear_scan(monkeypatch, tolerance, instances):
    """The star index finds exactly the candidates a full scan finds.

    Its blocks hold each (local row, map row) pair at most once, and all
    of a local star's hits in one block.
    """
    params = MatchParams(feature_tolerance=tolerance)
    for make in instances:
        g_map, g_loc, _ = make()
        _, got = localize_recording_candidates(monkeypatch, g_loc, g_map, params)
        assert got == linear_scan_candidates(g_loc, g_map, params)
        blocks = list(_index_hits(g_loc, g_map, tolerance))
        stars = np.concatenate([np.unique(lrow) for lrow, _ in blocks])
        assert len(stars) == len(np.unique(stars))
        keys = np.concatenate([lrow * len(g_map.star_features) + mrow for lrow, mrow in blocks])
        assert len(keys) == len(np.unique(keys))


@pytest.mark.parametrize("tolerance", [0.05, 1.5])
def test_maps_with_few_stars(monkeypatch, tolerance):
    """A map without interior stars has no overlap; one with fewer stars
    than the first star-index pass returns still matches a full scan."""
    params = MatchParams(feature_tolerance=tolerance)
    rng = np.random.default_rng(36)
    g_loc = make_graph(36)
    for n in (4, 8, 12):
        angles = np.sort(rng.uniform(0.0, TWO_PI, n))
        # convex position: every triangle has a hull edge, so no star is interior
        g_map = triangulate(np.column_stack([30.0 * np.cos(angles), 20.0 * np.sin(angles)]))
        assert len(g_map.interior_stars) == 0
        with pytest.raises(NoOverlapError, match="no overlap"):
            localize(g_loc, g_map, params)
        with pytest.raises(NoOverlapError, match="no overlap"):
            localize(g_map, g_loc, params)
    sizes = []
    for n in (18, 22, 26):
        pts = rng.uniform(0.0, 40.0, (n, 2))
        g_map = triangulate(pts)
        T = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-50, 50, 2))
        g_loc = triangulate(T.apply(pts) + rng.normal(0.0, 0.01, pts.shape))
        _, got = localize_recording_candidates(monkeypatch, g_loc, g_map, params)
        assert got == linear_scan_candidates(g_loc, g_map, params)
        assert any(got)
        sizes.append(len(g_map.interior_stars))
    assert 0 < min(sizes) and max(sizes) < _KNN_HITS


def test_candidate_at_exact_tolerance_kept(monkeypatch):
    """A map star deviating by exactly the tolerance is still a candidate.

    The map is the local landmarks shrunk by 0.9996, so every map feature
    lies below its local partner; the tolerance is set to the pair's
    largest relative deviation, as the matcher computes it.
    """
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 40, (30, 2))
    g_loc = triangulate(pts)
    g_map = triangulate(pts * 0.9996)
    np.testing.assert_array_equal(g_map.triangles, g_loc.triangles)
    assert len(g_loc.interior_stars) >= 5
    for k, (ls, gs) in enumerate(zip(g_loc.interior_stars, g_map.interior_stars)):
        assert gs.center == ls.center
        tolerance = float((np.abs(gs.features - ls.features) / ls.features).max())
        params = MatchParams(feature_tolerance=tolerance)
        _, got = localize_recording_candidates(monkeypatch, g_loc, g_map, params)
        assert gs.center in got[k]


def save_with_flat_triangle(graph, path):
    """Write graph's landmarks as a map file after moving one star's center corner.

    The corner lands on another one, so the file holds a duplicate vertex
    and the star's center triangle would have exactly zero area.
    """
    star = graph.interior_stars[len(graph.interior_stars) // 2]
    a, _, c = star.center_vertices
    pts = graph.points.copy()
    pts[c] = pts[a]
    areas, _ = triangle_descriptors(pts[graph.triangles])
    assert (areas == 0).any()
    TrunkMap(positions=pts, support=np.ones(len(pts), dtype=np.intp)).save_csv(path)


@pytest.mark.parametrize("tolerance", [0.05, 1.0])
def test_zero_area_triangle_in_loaded_graphs(monkeypatch, tmp_path, tolerance):
    """A map file with a duplicate vertex fails to triangulate on load.

    Neither the map nor the local graph can bring zero features into the
    search; the intact graphs still match a full scan and the true pose.
    """
    params = MatchParams(feature_tolerance=tolerance)
    g_map, g_loc, truth = make_instance(34, n=150, extent=80.0, window=50.0)
    for graph, name in ((g_map, "map.csv"), (g_loc, "local.csv")):
        save_with_flat_triangle(graph, tmp_path / name)
        with pytest.raises(DegeneratePointSetError, match="degenerate point set"):
            load_graph(tmp_path / name)
    outcome, got = localize_recording_candidates(monkeypatch, g_loc, g_map, params)
    assert got == linear_scan_candidates(g_loc, g_map, params)
    assert np.hypot(*(outcome.pose.t - truth.t)) < 1e-6
    assert abs(normalize_angle(outcome.pose.theta - truth.theta)) < 1e-9


NOISY_INSTANCES = [
    partial(make_instance, seed, n=120, extent=90.0, window=50.0, noise=0.03) for seed in (40, 41)
]


def test_median_seed_per_component(monkeypatch):
    """The median seed verification scores is the per-component median of the accepted fits."""
    seeds = []
    real = forestloc.matching._verify

    def recording(zl, zg, m, s):
        seeds.append(s)
        return real(zl, zg, m, s)

    monkeypatch.setattr(forestloc.matching, "_verify", recording)
    for make in NOISY_INSTANCES + GRID:
        g_map, g_loc = make()[:2]
        res = localize(g_loc, g_map)
        thetas, ts = res.thetas, res.translations
        offsets = [normalize_angle(a - thetas[0]) for a in thetas]
        want = (
            (thetas[0] + np.median(offsets)) % TWO_PI,
            np.median(ts[:, 0]),
            np.median(ts[:, 1]),
        )
        assert seeds[-1][-1].tobytes() == np.array(want).tobytes()


def stacked_residual(pose, ids, points_local, points_map):
    """Summed pair distance under pose over every vertex pair of ids = (local ids,
    map ids), duplicates included."""
    li, gi = ids
    return float(np.hypot(*(pose.apply(points_local[li]) - points_map[gi]).T).sum())


@pytest.mark.parametrize(
    "make",
    [partial(make_instance, seed, n=120, extent=90.0, window=50.0, noise=0.03) for seed in (40, 41)]
    + [partial(make_instance, 33, noise=0.02)]
    + GRID,
)
def test_residual_sums_stacked_pairs(make):
    """The reported residual is the sum over every accepted match's vertex pairs.

    Verification sums each distinct pair once with its multiplicity; that
    equals summing the stacked pairs, shared ones once per match.
    """
    g_map, g_loc, _ = make()
    res = localize(g_loc, g_map)
    ids = pair_ids(g_loc, res)
    counts = pair_counts(ids)
    assert sum(counts.values()) > len(counts)
    want = stacked_residual(res.pose, ids, g_loc.points, g_map.points)
    assert math.isclose(res.residual, want, rel_tol=1e-12)
    zl, zg, m = _unique_pairs(*ids, g_loc.points, g_map.points)
    got = _residual((res.pose.theta, *res.pose.t), zl, zg, m)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_residual_across_the_angle_seam():
    """A pose at the -pi/pi seam gives the stacked residual under every
    representation of its angle, with accepted matches on both sides of it."""
    rng = np.random.default_rng(24)
    pts = rng.uniform(0.0, 90.0, (120, 2))
    window = pts[np.hypot(*(pts - 45.0).T) < 30.0]
    truth = RigidTransform2D(math.pi - 2e-4, np.array([12.0, -7.0]))
    local = truth.inverse().apply(window) + rng.normal(0.0, 0.03, window.shape)
    g_map, g_loc = triangulate(pts), triangulate(local)
    res = localize(g_loc, g_map)
    assert (res.thetas > 3.0).any() and (res.thetas < -3.0).any()
    assert abs(normalize_angle(res.pose.theta - truth.theta)) < 1e-2
    ids = pair_ids(g_loc, res)
    want = stacked_residual(res.pose, ids, g_loc.points, g_map.points)
    assert math.isclose(res.residual, want, rel_tol=1e-12)
    zl, zg, m = _unique_pairs(*ids, g_loc.points, g_map.points)
    for theta in res.pose.theta + np.array([-TWO_PI, 0.0, TWO_PI]):
        got = _residual((theta, *res.pose.t), zl, zg, m)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_local_vertex_with_two_map_partners_stays_two_pairs():
    """A local vertex paired with different map vertices by two accepted matches
    gives two weighted pairs; pairs are merged only when both ids agree."""
    g_map, g_loc, _ = GRID[0]()
    res = localize(g_loc, g_map)
    ids = pair_ids(g_loc, res)
    counts = pair_counts(ids)
    partners = Counter(i for i, _ in counts)
    assert max(partners.values()) > 1
    got = _unique_pairs(*ids, g_loc.points, g_map.points)
    for a, b in zip(got, unique_pairs_oracle(ids, g_loc.points, g_map.points), strict=True):
        np.testing.assert_array_equal(a, b)
    assert len(got[2]) == len(counts) > len(partners)
    want = stacked_residual(res.pose, ids, g_loc.points, g_map.points)
    assert math.isclose(res.residual, want, rel_tol=1e-12)


def noisy_recovery_instance(seed):
    """Trial seed of the acceptance noisy-recovery test: (map graph, local graph).

    32-40 trunks nearest a random site of a 140 x 120 m stand, moved by a
    random pose and given 5 cm of noise.
    """
    pts = generate_forest(
        ForestSpec(area=(140.0, 120.0), density=200.0, seed=seed % 40)
    ).to_trunk_map().positions
    rng = np.random.default_rng(10_000 + seed)
    c = rng.uniform([35.0, 35.0], [105.0, 85.0])
    k = int(rng.integers(32, 41))
    idx = np.argsort(np.linalg.norm(pts - c, axis=1))[:k]
    theta = rng.uniform(-math.pi, math.pi)
    mag, direction = rng.uniform(0.0, 100.0), rng.uniform(-math.pi, math.pi)
    T = RigidTransform2D(theta, mag * np.array([math.cos(direction), math.sin(direction)]))
    local = T.inverse().apply(pts[idx]) + rng.normal(0.0, 0.05, (k, 2))
    return triangulate(pts), triangulate(local)


def test_irls_stops_before_its_cap():
    """No verification solve on noisy instances runs into _IRLS_MAX_ITER.

    The result reports the steps its solve took.  Trial 46 of the noisy
    recovery test takes the most steps of its 200 (653), and trial 93 the
    next most (390).
    """
    steps = []
    instances = [partial(noisy_recovery_instance, seed) for seed in (18, 46, 93, 112, 121, 161)]
    instances += [
        partial(make_instance, seed, n=120, extent=90.0, window=50.0, noise=0.03)
        for seed in range(40, 46)
    ]
    for make in instances:
        g_map, g_loc = make()[:2]
        steps.append(localize(g_loc, g_map).irls_steps)
    assert 0 < min(steps) and max(steps) < _IRLS_MAX_ITER
    assert max(steps) >= 300  # the slow trials are among them

"""Tests for forestloc.matching — candidates, correspondence, transforms, localize."""

import json
import math

import numpy as np
import pytest

import forestloc.matching
from forestloc.dtgraph import (
    TriangleDescriptor,
    load_graph,
    select_interior_stars,
    triangle_descriptors,
    triangulate,
)
from forestloc.errors import (
    ForestLocError,
    InsufficientMatchesError,
    NoOverlapError,
    SizeCapError,
)
from forestloc.geometry import RigidTransform2D, normalize_angle
from forestloc.matching import (
    MatchParams,
    _assemble_pairing,
    brute_force_match_oracle,
    correspond_vertices,
    dissimilarity,
    estimate_transform,
    find_candidate_stars,
    localize,
    orientation_consistency,
    verification_residual,
)

UNIT_L = (2.0 + math.sqrt(2.0)) ** 2


def make_graph(seed, n=80, extent=80.0):
    rng = np.random.default_rng(seed)
    return triangulate(rng.uniform(0, extent, (n, 2)))


def star_by_center_ids(graph, vertex_ids):
    """Find the interior star whose center triangle uses these vertex ids."""
    want = set(vertex_ids)
    for s in select_interior_stars(graph):
        if set(s.center_vertices) == want:
            return s
    return None


def test_params_validation():
    with pytest.raises(ValueError):
        MatchParams(feature_tolerance=0.0)
    with pytest.raises(ValueError):
        MatchParams(max_candidates_per_star=0)
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


def test_candidates_identity_first():
    g = make_graph(2)
    stars = select_interior_stars(g)
    target = stars[len(stars) // 2]
    cands = find_candidate_stars(target, stars)
    assert cands[0].center == target.center


def test_candidates_scaled_star_excluded():
    g = make_graph(3)
    g2 = triangulate(g.points * math.sqrt(2.0))  # doubles every A and l
    s = select_interior_stars(g)[0]
    scaled = star_by_center_ids(g2, s.center_vertices)
    assert scaled is not None
    cands = find_candidate_stars(scaled, select_interior_stars(g))
    assert all(c.center != s.center for c in cands)


def test_candidates_tolerance_bound():
    """Every candidate is componentwise within the relative tolerance."""
    g = make_graph(4, n=150)
    stars = select_interior_stars(g)
    params = MatchParams(feature_tolerance=0.05, max_candidates_per_star=32)
    for s in stars[:10]:
        for c in find_candidate_stars(s, stars, params):
            assert (np.abs(c.features - s.features) <= 0.05 * s.features + 1e-12).all()


def test_candidates_capped_and_sorted():
    g = make_graph(5, n=200)
    stars = select_interior_stars(g)
    params = MatchParams(feature_tolerance=0.8, max_candidates_per_star=4)
    s = stars[0]
    cands = find_candidate_stars(s, stars, params)
    assert len(cands) <= 4
    devs = [np.abs((c.features - s.features) / s.features).sum() for c in cands]
    assert devs == sorted(devs)


def test_candidates_perturbed_original_found():
    """Original star stays a candidate after sigma=5cm landmark noise."""
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 120, (60, 2))  # ~8-15 m spacing keeps triangles large
    g = make_graph_from = triangulate(pts)
    stars = select_interior_stars(g)
    target = stars[0]
    found = 0
    for seed in range(100):
        noise_rng = np.random.default_rng(1000 + seed)
        noisy = triangulate(pts + noise_rng.normal(0, 0.05, pts.shape))
        s2 = star_by_center_ids(noisy, target.center_vertices)
        if s2 is None:
            continue  # noise flipped the triangulation here
        cands = find_candidate_stars(s2, stars)
        if any(c.center == target.center for c in cands):
            found += 1
    assert found >= 95


def test_orientation_sign_quarter_turn():
    """sign(Pa.b) for a=(1,0), b=(0,1) is +1 with P the quarter turn."""
    P = np.array([[0.0, -1.0], [1.0, 0.0]])
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert np.sign(P @ a @ b) == 1.0


def test_orientation_rigid_invariance_and_reflection():
    rng = np.random.default_rng(7)
    for _ in range(300):
        tri1 = rng.uniform(-10, 10, (3, 2))
        tri2 = rng.uniform(-10, 10, (3, 2))
        a = orientation_consistency(*tri1, *tri2)
        T = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-30, 30, 2))
        a_moved = orientation_consistency(*T.apply(tri1), *tri2)
        assert math.isclose(a, a_moved, rel_tol=1e-9, abs_tol=1e-9)
        mirrored = tri2 * [-1.0, 1.0]
        a_flip = orientation_consistency(*tri1, *mirrored)
        assert math.isclose(a, -a_flip, rel_tol=1e-9, abs_tol=1e-9)


def test_correspond_translation():
    g = make_graph(8)
    s = select_interior_stars(g)[0]
    pts2 = g.points + [10.0, 0.0]
    corr = correspond_vertices(s, s, g.points, pts2)
    assert corr.mapping() == {v: v for v in s.vertex_ids()}


def test_correspond_rotation():
    g = make_graph(9)
    s = select_interior_stars(g)[1]
    T = RigidTransform2D(math.pi / 2, np.zeros(2))
    corr = correspond_vertices(s, s, g.points, T.apply(g.points))
    assert corr.mapping() == {v: v for v in s.vertex_ids()}
    # matched center-edge lengths preserved
    for i, j in ((0, 1), (1, 2), (2, 0)):
        a, b = s.center_vertices[i], s.center_vertices[j]
        la = np.linalg.norm(g.points[a] - g.points[b])
        m = corr.mapping()
        lb = np.linalg.norm(T.apply(g.points)[m[a]] - T.apply(g.points)[m[b]])
        assert abs(la - lb) <= 1e-9


def test_correspond_mirror_swaps():
    """Reflection makes the side test negative and swaps the second pairing."""
    g = make_graph(10)
    s = select_interior_stars(g)[0]
    mirrored = g.points * [-1.0, 1.0]
    straight = g.points + [5.0, 5.0]
    lv = s.center_vertices
    for j in range(3):
        same = _assemble_pairing(s, s, g.points, straight, j, j).mapping()
        swapped = _assemble_pairing(s, s, g.points, mirrored, j, j).mapping()
        a = orientation_consistency(
            g.points[lv[j]],
            g.points[lv[(j + 1) % 3]],
            g.points[lv[(j + 2) % 3]],
            mirrored[lv[j]],
            mirrored[lv[(j + 1) % 3]],
            mirrored[lv[(j + 2) % 3]],
        )
        assert a < 0
        # anchor corner j keeps its partner, the other two cross over
        assert same[lv[j]] == lv[j] and swapped[lv[j]] == lv[j]
        assert same[lv[(j + 1) % 3]] == lv[(j + 1) % 3]
        assert swapped[lv[(j + 1) % 3]] == lv[(j + 2) % 3]
        assert swapped[lv[(j + 2) % 3]] == lv[(j + 1) % 3]


def test_estimate_identity():
    g = make_graph(11)
    s = select_interior_stars(g)[0]
    corr = correspond_vertices(s, s, g.points, g.points.copy())
    est = estimate_transform(corr, g.points, g.points.copy())
    assert abs(est.transform.theta) < 1e-12
    np.testing.assert_allclose(est.transform.t, [0.0, 0.0], atol=1e-12)
    assert est.residual < 1e-9


def test_estimate_rotation_about_centroid():
    """30 degrees about the star centroid plus (5, -2) is recovered exactly."""
    g = make_graph(12)
    s = select_interior_stars(g)[2]
    ids = list(s.vertex_ids())
    centroid = g.points[ids].mean(axis=0)
    theta = math.radians(30.0)
    R = RigidTransform2D(theta, np.zeros(2))
    pts2 = g.points.copy()
    pts2 = R.apply(g.points - centroid) + centroid + [5.0, -2.0]
    corr = correspond_vertices(s, s, g.points, pts2)
    est = estimate_transform(corr, g.points, pts2)
    assert abs(normalize_angle(est.transform.theta - theta)) < 1e-6
    np.testing.assert_allclose(est.transform.apply(g.points[ids]), pts2[ids], atol=1e-6)
    assert est.residual < 1e-6


def test_estimate_candidate_angles_count():
    g = make_graph(13)
    s = select_interior_stars(g)[0]
    corr = correspond_vertices(s, s, g.points, g.points + [3.0, 4.0])
    est = estimate_transform(corr, g.points, g.points + [3.0, 4.0])
    assert 1 <= len(est.candidate_angles) <= 6


def test_verification_residual_matches_definition():
    g = make_graph(14)
    s = select_interior_stars(g)[0]
    pts2 = g.points + [1.0, 0.0]
    corr = correspond_vertices(s, s, g.points, pts2)
    T = RigidTransform2D(0.0, np.zeros(2))  # leaves a 1 m gap per vertex
    r = verification_residual(T, [corr], g.points, pts2)
    assert math.isclose(r, 6.0, rel_tol=1e-12)
    r2 = verification_residual(T, [corr], g.points, pts2, squared_residual=True)
    assert math.isclose(r2, 6.0, rel_tol=1e-12)


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
    if not select_interior_stars(g_loc):
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
    for corr in res.correspondences:
        alt = verification_residual(
            corr.transform, res.correspondences, g_loc.points, g_map.points
        )
        assert res.residual <= alt + 1e-9


def test_localize_edge_lengths_preserved():
    """Accepted noise-free matches preserve all star edge lengths."""
    g_map, g_loc, _ = make_instance(20)
    res = localize(g_loc, g_map)
    assert res.match_count >= 1
    for corr in res.correspondences:
        m = corr.mapping()
        tris = [corr.star_local.center, *corr.star_local.neighbors]
        for t in tris:
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


def test_oracle_size_cap():
    g_small = make_graph(27, n=30, extent=40.0)
    g_big = make_graph(28, n=60, extent=60.0)
    with pytest.raises(SizeCapError, match="size cap exceeded"):
        brute_force_match_oracle(g_small, g_big)


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
        got = sorted((c.star_local.center, c.star_global.center) for c in res.correspondences)
        want = sorted((c.star_local.center, c.star_global.center) for c in orc.correspondences)
        assert got == want
        checked += 1


def test_pipeline_matches_oracle_squared_residual():
    """The squared-residual path of localize() also agrees with the oracle.

    Landmark noise keeps the optimal residual away from zero, so the
    comparison checks the least-squares pose rather than an exact fit.
    """
    params = MatchParams(squared_residual=True)
    checked = 0
    seed = 0
    while checked < 8:
        seed += 1
        try:
            g_map, g_loc, _ = make_instance(
                300 + seed, n=45, extent=60.0, window=35.0, noise=0.03
            )
        except RecursionError:
            continue
        try:
            res = localize(g_loc, g_map, params)
            orc = brute_force_match_oracle(g_loc, g_map, params)
        except NoOverlapError:
            continue
        assert abs(res.residual - orc.residual) <= 1e-6
        got = sorted((c.star_local.center, c.star_global.center) for c in res.correspondences)
        want = sorted((c.star_local.center, c.star_global.center) for c in orc.correspondences)
        assert got == want
        checked += 1


def linear_scan_candidates(g_loc, g_map, params):
    """Per local star in order, its candidate map-star centers, by a full scan.

    A map star passes when every feature's relative deviation from the
    local star's is within tolerance; passing stars are ordered by summed
    deviation, then table index, and capped.
    """
    table = g_map.star_features
    out = []
    for ls in g_loc.interior_stars:
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(table - ls.features) / ls.features
        passing = [
            i for i in range(len(table)) if all(r <= params.feature_tolerance for r in rel[i])
        ]
        passing.sort(key=lambda i: (rel[i].sum(), i))
        out.append(
            [g_map.interior_stars[i].center for i in passing[: params.max_candidates_per_star]]
        )
    return out


def localize_recording_candidates(monkeypatch, g_loc, g_map, params):
    """localize's outcome plus, per local star, the candidate centers it tried.

    The outcome is the result, or the type of the ForestLocError raised.
    """
    tried = {ls.center: [] for ls in g_loc.interior_stars}
    real = forestloc.matching.correspond_vertices

    def spy(star_local, star_global, *args, **kwargs):
        tried[star_local.center].append(star_global.center)
        return real(star_local, star_global, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(forestloc.matching, "correspond_vertices", spy)
        try:
            outcome = localize(g_loc, g_map, params)
        except ForestLocError as exc:
            outcome = type(exc)
    return outcome, [tried[ls.center] for ls in g_loc.interior_stars]


@pytest.mark.parametrize("tolerance", [0.05, 0.8, 1.0, 1.5])
def test_candidates_match_linear_scan(monkeypatch, tolerance):
    """The star index finds exactly the candidates a full scan finds."""
    params = MatchParams(feature_tolerance=tolerance)
    for seed in (31, 32, 33):
        g_map, g_loc, _ = make_instance(seed, noise=0.02)
        _, got = localize_recording_candidates(monkeypatch, g_loc, g_map, params)
        assert got == linear_scan_candidates(g_loc, g_map, params)


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
    """Write graph in save_graph's layout after moving one star's center corner.

    The corner lands on another one, so the star's center triangle has
    exactly zero area; load_graph reads such a file back.
    """
    star = graph.interior_stars[len(graph.interior_stars) // 2]
    a, _, c = star.center_vertices
    pts = graph.points.copy()
    pts[c] = pts[a]
    areas, sq_per = triangle_descriptors(pts[graph.triangles])
    data = {
        "vertices": [[i, float(x), float(y)] for i, (x, y) in enumerate(pts)],
        "triangles": [[i, *map(int, t)] for i, t in enumerate(graph.triangles)],
        "descriptors": [[i, float(x), float(y)] for i, (x, y) in enumerate(zip(areas, sq_per))],
    }
    path.write_text(json.dumps(data))
    return load_graph(path)


@pytest.mark.parametrize("tolerance", [0.05, 1.0])
def test_zero_area_triangle_in_loaded_graphs(monkeypatch, tmp_path, tolerance):
    """Zero features from a loaded graph neither break nor change the search."""
    params = MatchParams(feature_tolerance=tolerance)
    g_map, g_loc, truth = make_instance(34, n=150, extent=80.0, window=50.0)
    flat_map = save_with_flat_triangle(g_map, tmp_path / "map.json")
    flat_loc = save_with_flat_triangle(g_loc, tmp_path / "local.json")
    assert (flat_map.star_features == 0).any() and (flat_loc.star_features == 0).any()
    for local, global_ in ((g_loc, flat_map), (flat_loc, g_map)):
        outcome, got = localize_recording_candidates(monkeypatch, local, global_, params)
        assert got == linear_scan_candidates(local, global_, params)
        assert np.hypot(*(outcome.pose.t - truth.t)) < 1e-6
        assert abs(normalize_angle(outcome.pose.theta - truth.theta)) < 1e-9

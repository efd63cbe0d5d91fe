"""Acceptance suite: one test per headline property, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The suite exercises exactness, noise budgets, the frames
aggregation trend, oracle equivalence, triangulation validity,
dissimilarity invariants, timing budgets, and extraction accuracy.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
from scipy.spatial import cKDTree

from forestloc.dtgraph import TriangleDescriptor, triangulate
from forestloc.errors import ForestLocError
from forestloc.geometry import RigidTransform2D, normalize_angle
from forestloc.matching import dissimilarity, localize
from forestloc.pipeline import BenchmarkConfig, run_benchmark
from forestloc.simulator import ForestSpec, aggregate_scans, generate_forest, simulate_scan
from forestloc.trunks import TrunkExtractionParams, extract_trunk_map
from reference_matcher import MATCH_ARRAYS, brute_force_match_oracle


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def random_pose(rng) -> RigidTransform2D:
    theta = rng.uniform(-math.pi, math.pi)
    mag = rng.uniform(0.0, 100.0)
    direction = rng.uniform(-math.pi, math.pi)
    t = mag * np.array([math.cos(direction), math.sin(direction)])
    return RigidTransform2D(theta, t)


def test_self_localization_exact():
    """Verbatim subregions of the map localize to the identity pose."""
    forest = generate_forest(ForestSpec(area=(120.0, 120.0), density=350.0, seed=100))
    pts = forest.to_trunk_map().positions
    g_map = triangulate(pts)
    g_map.star_features
    rng = np.random.default_rng(101)
    worst_t = worst_r = 0.0
    done = 0
    t_start = time.perf_counter()
    while done < 100:
        c = rng.uniform([25.0, 25.0], [95.0, 95.0])
        window = pts[np.linalg.norm(pts - c, axis=1) < 20.0]
        if len(window) < 15:
            continue
        g_loc = triangulate(window)
        if len(g_loc.star_features) == 0:
            continue
        res = localize(g_loc, g_map)
        worst_t = max(worst_t, float(np.abs(res.pose.t).max()))
        worst_r = max(worst_r, abs(res.pose.theta))
        done += 1
    elapsed = time.perf_counter() - t_start
    ok = worst_t < 1e-6 and worst_r < 1e-6 and elapsed < 10.0
    report(
        "self-localization exactness",
        ok,
        f"100/100 subregions, worst {worst_t:.2e} m / {worst_r:.2e} rad, {elapsed:.1f} s",
    )


def test_known_transform_recovery_noise_free():
    """Random rigid transforms of 25-trunk windows are recovered exactly."""
    forest = generate_forest(ForestSpec(area=(100.0, 86.0), density=350.0, seed=0))
    pts = forest.to_trunk_map().positions
    assert abs(len(pts) - 300) <= 5
    g_map = triangulate(pts)
    g_map.star_features
    hits = 0
    worst_t = worst_r = 0.0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        c = rng.uniform([20.0, 20.0], [80.0, 66.0])
        idx = np.argsort(np.linalg.norm(pts - c, axis=1))[:25]
        T = random_pose(rng)
        g_loc = triangulate(T.inverse().apply(pts[idx]))
        res = localize(g_loc, g_map)
        terr = float(np.linalg.norm(res.pose.t - T.t))
        rerr = abs(normalize_angle(res.pose.theta - T.theta))
        worst_t = max(worst_t, terr)
        worst_r = max(worst_r, rerr)
        hits += terr < 0.01 and rerr < math.radians(0.1)
    report(
        "noise-free transform recovery",
        hits == 100,
        f"{hits}/100 within 0.01 m / 0.1 deg (worst {worst_t:.2e} m, "
        f"{math.degrees(worst_r):.2e} deg)",
    )


def test_noisy_recovery_error_budget():
    """5 cm landmark noise stays inside the translation/rotation budget."""
    graphs = {}
    terrs, rerrs = [], []
    hard_fails = 0
    for seed in range(200):
        fseed = seed % 40
        if fseed not in graphs:
            forest = generate_forest(
                ForestSpec(area=(140.0, 120.0), density=200.0, seed=fseed)
            )
            pts = forest.to_trunk_map().positions
            g = triangulate(pts)
            g.star_features
            graphs[fseed] = (pts, g)
        pts, g_map = graphs[fseed]
        rng = np.random.default_rng(10_000 + seed)
        c = rng.uniform([35.0, 35.0], [105.0, 85.0])
        k = int(rng.integers(32, 41))
        idx = np.argsort(np.linalg.norm(pts - c, axis=1))[:k]
        T = random_pose(rng)
        local = T.inverse().apply(pts[idx]) + rng.normal(0.0, 0.05, (k, 2))
        try:
            res = localize(triangulate(local), g_map)
        except ForestLocError:
            hard_fails += 1
            continue
        terrs.append(float(np.linalg.norm(res.pose.t - T.t)))
        rerrs.append(abs(math.degrees(normalize_angle(res.pose.theta - T.theta))))
    terrs = np.array(terrs)
    rmse = float(np.sqrt(np.mean(terrs**2))) if len(terrs) else float("inf")
    std = float(terrs.std()) if len(terrs) else float("inf")
    rot_max = max(rerrs) if rerrs else float("inf")
    ok = hard_fails == 0 and rmse <= 0.2 and std <= 0.15 and rot_max <= 2.5
    report(
        "noisy recovery budget",
        ok,
        f"200 trials: rmse={rmse:.3f} m (<=0.2), std={std:.3f} m (<=0.15), "
        f"rot max={rot_max:.2f} deg (<=2.5), failures={hard_fails}",
    )


def test_frames_aggregation_trend():
    """Success rate and matched triangles climb with aggregated frames."""
    rows, _ = run_benchmark(BenchmarkConfig())
    rates = [r.success_rate for r in rows]
    matched = [r.avg_matched_triangles for r in rows]
    ok = (
        all(b >= a for a, b in zip(rates, rates[1:]))
        and rates[-1] >= 0.95
        and rates[0] < rates[-1]
        and all(b > a for a, b in zip(matched, matched[1:]))
    )
    report(
        "frames aggregation trend",
        ok,
        "success " + "/".join(f"{r:.2f}" for r in rates)
        + ", matched " + "/".join(f"{m:.1f}" for m in matched)
        + " over frames 1/3/5/10",
    )


def make_instance(seed, n=45, extent=60.0, window=35.0):
    """Small map graph plus a rigidly transformed window of it."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, extent, (n, 2))
    g_map = triangulate(pts)
    lo = rng.uniform(0, extent - window, 2)
    mask = ((pts >= lo) & (pts <= lo + window)).all(axis=1)
    if mask.sum() < 12:
        return None
    T = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-100, 100, 2))
    g_loc = triangulate(T.inverse().apply(pts[mask]))
    if len(g_loc.star_features) == 0:
        return None
    return g_map, g_loc


def test_matches_reference_matcher():
    """localize() agrees with the exhaustive matcher on small instances: the
    residual within 1e-6 and every match array equal."""
    checked = 0
    agree = 0
    seed = 0
    while checked < 50 and seed < 2000:
        seed += 1
        inst = make_instance(500 + seed)
        if inst is None:
            continue
        g_map, g_loc = inst
        try:
            res = localize(g_loc, g_map)
            orc = brute_force_match_oracle(g_loc, g_map)
        except ForestLocError:
            continue
        checked += 1
        same = all(np.array_equal(getattr(res, k), getattr(orc, k)) for k in MATCH_ARRAYS)
        agree += abs(res.residual - orc.residual) <= 1e-6 and same
    ok = checked == 50 and agree == 50
    report(
        "reference matcher equivalence",
        ok,
        f"{agree}/{checked} instances: residual within 1e-6, same correspondence set",
    )


def circumcircles(graph):
    """Circumcenters (T, 2) and squared circumradii (T,) of graph's triangles."""
    pts = graph.points
    tri = graph.triangles
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    d = 2.0 * (
        a[:, 0] * (b[:, 1] - c[:, 1])
        + b[:, 0] * (c[:, 1] - a[:, 1])
        + c[:, 0] * (a[:, 1] - b[:, 1])
    )
    a2 = (a * a).sum(1)
    b2 = (b * b).sum(1)
    c2 = (c * c).sum(1)
    ux = (a2 * (b[:, 1] - c[:, 1]) + b2 * (c[:, 1] - a[:, 1]) + c2 * (a[:, 1] - b[:, 1])) / d
    uy = (a2 * (c[:, 0] - b[:, 0]) + b2 * (a[:, 0] - c[:, 0]) + c2 * (b[:, 0] - a[:, 0])) / d
    r2 = (a[:, 0] - ux) ** 2 + (a[:, 1] - uy) ** 2
    return np.column_stack([ux, uy]), r2


def circumcircle_violations_scan(graph, rel_tol=1e-9) -> int:
    """O(T*V) count of vertices strictly inside some circumcircle."""
    pts = graph.points
    tri = graph.triangles
    centers, r2 = circumcircles(graph)
    total = 0
    for lo in range(0, len(tri), 512):
        hi = min(lo + 512, len(tri))
        d2 = ((pts[None, :, :] - centers[lo:hi, None, :]) ** 2).sum(-1)
        d2[np.arange(hi - lo)[:, None], tri[lo:hi]] = np.inf
        total += int((d2 < r2[lo:hi, None] * (1.0 - rel_tol)).sum())
    return total


def circumcircle_violations(graph, rel_tol=1e-9) -> int:
    """The count of circumcircle_violations_scan, checking only nearby vertices.

    A vertex that passes the strict test lies within the circumradius, so
    a kd-tree ball padded far beyond rounding holds every such vertex; the
    test itself is the scan's, on the same arithmetic.
    """
    pts = graph.points
    centers, r2 = circumcircles(graph)
    hits = cKDTree(pts).query_ball_point(centers, np.sqrt(r2) * (1.0 + 1e-6))
    tri = np.repeat(np.arange(len(centers)), [len(h) for h in hits])
    vertex = np.concatenate(hits).astype(np.intp)
    own = (graph.triangles[tri] == vertex[:, None]).any(axis=1)
    d2 = ((pts[vertex] - centers[tri]) ** 2).sum(-1)
    return int(((d2 < r2[tri] * (1.0 - rel_tol)) & ~own).sum())


def flip_one_edge(graph):
    """graph's points and triangles with one interior edge of a convex quad flipped."""
    p, tri = graph.points, graph.triangles

    def side(x, y, z):
        (ux, uy), (vx, vy) = p[y] - p[x], p[z] - p[x]
        return np.sign(ux * vy - uy * vx)

    for t, k in zip(*np.nonzero(graph.neighbors >= 0)):
        a, b = np.delete(tri[t], k)
        c = tri[t, k]
        u = graph.neighbors[t, k]
        d = next(v for v in tri[u] if v not in (a, b))
        if side(c, d, a) * side(c, d, b) < 0:  # a and b on either side of cd
            flipped = tri.copy()
            flipped[t], flipped[u] = (c, a, d), (c, d, b)
            return SimpleNamespace(points=p, triangles=flipped)
    raise AssertionError("no interior edge of a convex quad")


def test_circumcircle_oracles_agree():
    """The kd-tree count equals the O(T*V) scan, on Delaunay sets and with
    one edge flipped: each end of the old edge then lies inside the
    circumcircle of the new triangle without it."""
    rng = np.random.default_rng(601)
    for n in (10, 300, 2500):
        graph = triangulate(rng.uniform(0.0, 1000.0, (n, 2)))
        assert circumcircle_violations(graph) == circumcircle_violations_scan(graph) == 0
        flipped = flip_one_edge(graph)
        assert circumcircle_violations(flipped) == circumcircle_violations_scan(flipped) >= 2


def test_triangulation_circumcircle_property():
    """No vertex falls strictly inside any triangle's circumcircle."""
    rng = np.random.default_rng(600)
    violations = 0
    n_points = 0
    for _ in range(1000):
        n = int(rng.integers(10, 2501))
        n_points += n
        graph = triangulate(rng.uniform(0.0, 1000.0, (n, 2)))
        violations += circumcircle_violations(graph)
    report(
        "circumcircle validity",
        violations == 0,
        f"{violations} violations across 1000 sets ({n_points} points) at 1e-9",
    )


def random_triangle(rng):
    while True:
        tri = rng.uniform(-50.0, 50.0, (3, 2))
        twice_area = abs(
            (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
            - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0])
        )
        if twice_area > 1e-3:
            return tri


def lib_descriptor(tri_pts) -> TriangleDescriptor:
    return triangulate(tri_pts).descriptor(0)


def test_dissimilarity_invariants():
    """Pseudometric axioms plus rigid invariance of the descriptors."""
    rng = np.random.default_rng(700)
    prev = [lib_descriptor(random_triangle(rng)) for _ in range(2)]
    bad = 0
    for _ in range(10_000):
        tri = random_triangle(rng)
        d1 = lib_descriptor(tri)
        dy, dz = prev
        scale = 1.0 + d1.area + d1.sq_perimeter
        T = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-100, 100, 2))
        d1t = lib_descriptor(T.apply(tri))
        ok = (
            dissimilarity(d1, d1) == 0.0
            and dissimilarity(d1, dy) == dissimilarity(dy, d1)
            and dissimilarity(d1, dy) >= 0.0
            and dissimilarity(d1, dz)
            <= dissimilarity(d1, dy) + dissimilarity(dy, dz) + 1e-12 * scale
            and dissimilarity(d1, d1t) <= 1e-9 * scale
        )
        bad += not ok
        prev = [d1, dy]
    report(
        "dissimilarity invariants",
        bad == 0,
        f"{10_000 - bad}/10000 samples satisfy the axioms and rigid invariance",
    )


def test_localization_timing_budget():
    """Matching a 2,200-trunk map fits the per-query latency budget."""
    forest = generate_forest(ForestSpec(area=(250.0, 250.0), density=352.0, seed=2))
    assert len(forest) == 2200
    g_map = triangulate(forest.to_trunk_map())
    g_map.star_features
    heading = 0.3
    origin = np.array([125.0, 125.0])
    step = np.array([math.cos(heading), math.sin(heading)])
    scans = [
        simulate_scan(forest, RigidTransform2D(heading, origin + k * step), seed=2 + k)
        for k in range(10)
    ]
    params = TrunkExtractionParams(probe_tolerance=0.25)
    budgets = {}
    for label, cloud, limit in (
        ("single-frame", scans[0].cloud, 0.1),
        ("10-frame", aggregate_scans(scans), 0.6),
    ):
        g_loc = triangulate(extract_trunk_map(cloud, params))
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            res = localize(g_loc, g_map)
            best = min(best, time.perf_counter() - t0)
        assert res.match_count >= 1
        budgets[label] = (best, limit)
    ok = all(best <= limit for best, limit in budgets.values())
    report(
        "localization latency",
        ok,
        ", ".join(f"{k} {v[0]*1000:.0f} ms (limit {v[1]*1000:.0f} ms)" for k, v in budgets.items()),
    )


def test_cylinder_extraction_accuracy():
    """Extraction recovers cylinder axes; bare ground yields nothing."""
    hits = 0
    for batch in range(10):
        rng = np.random.default_rng(900 + batch)
        centers = [(8.0 + 8.0 * i, 8.0 + 8.0 * j) for i in range(10) for j in range(10)]
        clouds = []
        for cx, cy in centers:
            ang = rng.uniform(0.0, 2.0 * math.pi, 500)
            z = rng.uniform(0.0, 4.0, 500)
            clouds.append(
                np.column_stack([cx + 0.15 * np.cos(ang), cy + 0.15 * np.sin(ang), z])
            )
        tm = extract_trunk_map(np.vstack(clouds))
        for cx, cy in centers:
            if len(tm) and np.linalg.norm(tm.positions - [cx, cy], axis=1).min() <= 0.05:
                hits += 1
    rng = np.random.default_rng(950)
    xy = rng.uniform(0.0, 50.0, (20_000, 2))
    flat = extract_trunk_map(np.column_stack([xy, np.zeros(len(xy))]))
    wavy = extract_trunk_map(
        np.column_stack([xy, 0.1 * np.sin(xy[:, 0]) * np.sin(xy[:, 1])])
    )
    ok = hits >= 990 and len(flat) == 0 and len(wavy) == 0
    report(
        "cylinder extraction accuracy",
        ok,
        f"{hits}/1000 axes within 5 cm, ground-only landmarks: {len(flat)} flat, {len(wavy)} wavy",
    )

"""Tests for forestloc.dtgraph — triangulation, descriptors, stars, graph files."""

import math
import re

import numpy as np
import pytest

from forestloc.dtgraph import (
    DTGraph,
    load_graph,
    save_graph,
    triangle_descriptors,
    triangulate,
)
from forestloc.errors import DegeneratePointSetError
from forestloc.geometry import RigidTransform2D

UNIT_RIGHT_SQ_PERIMETER = (2.0 + math.sqrt(2.0)) ** 2  # 11.65685424949238


def circumcircle(a, b, c):
    """Center and squared radius of the circle through three points."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return np.array([ux, uy]), r2


def assert_empty_circumcircles(graph, rel_tol=1e-9):
    """O(T*V) check: no vertex strictly inside any triangle's circumcircle."""
    pts = graph.points
    for tri in graph.triangles:
        center, r2 = circumcircle(*pts[tri])
        d2 = ((pts - center) ** 2).sum(axis=1)
        inside = d2 < r2 * (1.0 - rel_tol)
        inside[tri] = False
        assert not inside.any()


def edge_count(graph):
    """Distinct undirected edges over every triangle's three sides."""
    return len({frozenset((t[k], t[k - 1])) for t in graph.triangles.tolist() for k in range(3)})


def enumerate_stars_oracle(graph):
    """Brute-force star selection: 3 neighbors, all 6 vertices off-hull, distinct."""
    out = []
    for t in range(graph.n_triangles):
        nbs = graph.neighbors[t]
        if (nbs < 0).any():
            continue
        verts = set(map(int, graph.triangles[t]))
        for nb in nbs:
            verts.update(map(int, graph.triangles[nb]))
        if len(verts) != 6:
            continue
        if verts & graph.hull_vertices:
            continue
        out.append(t)
    return sorted(out)


def test_three_points():
    g = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert g.n_triangles == 1
    assert g.hull_vertices == {0, 1, 2}
    assert (g.neighbors[0] == -1).all()


def test_unit_square():
    g = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert g.n_triangles == 2
    # the two triangles share exactly one edge
    shared = set(map(int, g.triangles[0])) & set(map(int, g.triangles[1]))
    assert len(shared) == 2
    assert edge_count(g) == 5
    assert_empty_circumcircles(g)


def test_triangles_ccw():
    rng = np.random.default_rng(0)
    g = triangulate(rng.uniform(0, 50, (60, 2)))
    p = g.points[g.triangles]
    area2 = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    assert (area2 > 0).all()


def test_adjacency_symmetric():
    rng = np.random.default_rng(1)
    g = triangulate(rng.uniform(0, 50, (80, 2)))
    for t in range(g.n_triangles):
        for nb in g.neighbors[t]:
            if nb >= 0:
                assert t in g.neighbors[nb]


def test_neighbors_share_edges():
    rng = np.random.default_rng(2)
    g = triangulate(rng.uniform(0, 50, (50, 2)))
    for t in range(g.n_triangles):
        for k in range(3):
            nb = g.neighbors[t, k]
            if nb < 0:
                continue
            # neighbor opposite vertex k shares the other two vertices
            edge = set(map(int, g.triangles[t])) - {int(g.triangles[t, k])}
            assert edge <= set(map(int, g.triangles[nb]))


def test_circumcircle_oracle_200_points():
    rng = np.random.default_rng(3)
    g = triangulate(rng.uniform(0, 100, (200, 2)))
    assert_empty_circumcircles(g)


def test_degenerate_too_few():
    with pytest.raises(DegeneratePointSetError, match="degenerate point set"):
        triangulate(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_degenerate_collinear():
    pts = np.column_stack([np.arange(5.0), np.arange(5.0) * 2.0])
    with pytest.raises(DegeneratePointSetError, match="degenerate point set"):
        triangulate(pts)


def test_degenerate_duplicates():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegeneratePointSetError, match="degenerate point set"):
        triangulate(pts)
    # a duplicate pair far apart in input order, and 0.0 / -0.0 as one coordinate
    rng = np.random.default_rng(6)
    far = rng.uniform(0, 50, (40, 2))
    far[-1] = far[0]
    signed = np.array([[0.0, 3.0], [5.0, 0.0], [4.0, 4.0], [-0.0, 3.0]])
    # a near duplicate 1e-13 m from landmark 10: Qhull leaves it out of every triangle
    rng = np.random.default_rng(0)
    near = rng.uniform(0, 50, (60, 2))
    near = np.vstack([near, near[10] + 1e-13])
    for pts in (far, signed, near):
        with pytest.raises(DegeneratePointSetError, match="degenerate point set"):
            triangulate(pts)
        triangulate(pts[:-1])


def test_euler_formula():
    """V - E + T = 1 for a triangulated convex region."""
    rng = np.random.default_rng(4)
    for n in (10, 50, 200):
        g = triangulate(rng.uniform(0, 30, (n, 2)))
        assert g.n_vertices - edge_count(g) + g.n_triangles == 1


def test_hull_area_tiling():
    """Triangle areas sum to the hull polygon area."""
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 40, (120, 2))
    g = triangulate(pts)
    assert math.isclose(g.areas.sum(), ConvexHull(pts).volume, rel_tol=1e-9)


def test_descriptor_hand_values():
    g = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    d = g.descriptor(0)
    assert math.isclose(d.area, 0.5)
    assert math.isclose(d.sq_perimeter, UNIT_RIGHT_SQ_PERIMETER, rel_tol=1e-12)


def test_descriptor_scaled():
    g = triangulate(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    d = g.descriptor(0)
    assert math.isclose(d.area, 2.0)
    assert math.isclose(d.sq_perimeter, 4.0 * UNIT_RIGHT_SQ_PERIMETER, rel_tol=1e-12)


def test_descriptor_unknown_id():
    g = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="unknown triangle id"):
        g.descriptor(5)


def test_descriptor_rigid_invariance():
    rng = np.random.default_rng(6)
    for _ in range(200):
        tri = rng.uniform(-20, 20, (3, 2))
        u, w = tri[1] - tri[0], tri[2] - tri[0]
        if abs(u[0] * w[1] - u[1] * w[0]) < 1e-3:
            continue
        T = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(-50, 50, 2))
        a1, l1 = triangle_descriptors(tri[None])
        a2, l2 = triangle_descriptors(T.apply(tri)[None])
        assert abs(a2[0] - a1[0]) <= 1e-9 * a1[0]
        assert abs(l2[0] - l1[0]) <= 1e-9 * l1[0]


def test_descriptor_vertex_order_invariance():
    """Descriptors are identical bit-for-bit under vertex permutation."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        tri = rng.uniform(-20, 20, (3, 2))
        base = triangle_descriptors(tri[None])
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            a, l = triangle_descriptors(tri[list(perm)][None])
            assert a[0] == base[0][0] and l[0] == base[1][0]


def test_isoperimetric_invariant():
    rng = np.random.default_rng(8)
    g = triangulate(rng.uniform(0, 50, (150, 2)))
    assert (g.sq_perimeters >= 12.0 * math.sqrt(3.0) * g.areas * (1 - 1e-12)).all()


def test_single_triangle_no_stars():
    g = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert g.star_table.centers.shape == (0,)
    assert g.star_table.vertices.shape == (0, 6)
    assert g.star_features.shape == (0, 8)


def test_grid_3x3_stars_match_oracle():
    pts = np.array([[float(i), float(j)] for i in range(3) for j in range(3)])
    g = triangulate(pts)
    got = sorted(g.star_table.centers.tolist())
    assert got == enumerate_stars_oracle(g)


def test_grid_4x4_stars_match_oracle():
    pts = np.array([[float(i), float(j)] for i in range(4) for j in range(4)])
    g = triangulate(pts)
    centers = g.star_table.centers
    assert len(centers) > 0
    assert sorted(centers.tolist()) == enumerate_stars_oracle(g)


def test_random_graph_star_predicates():
    """Exhaustive check: 3 neighbors and zero hull vertices per star."""
    rng = np.random.default_rng(9)
    g = triangulate(rng.uniform(0, 80, (200, 2)))
    table = g.star_table
    assert sorted(table.centers.tolist()) == enumerate_stars_oracle(g)
    for center, ids in zip(table.centers, table.vertices.tolist(), strict=True):
        assert (g.neighbors[center] >= 0).all()
        assert not (set(ids) & g.hull_vertices)
        assert len(set(ids)) == 6


def test_star_features_layout():
    """features = [A0,l0,A1,l1,A2,l2,A3,l3] with neighbors in canonical order."""
    rng = np.random.default_rng(10)
    g = triangulate(rng.uniform(0, 60, (120, 2)))
    table = g.star_table
    assert len(table.centers) >= 20
    for center, feats in zip(table.centers.tolist(), table.features.tolist(), strict=True):
        d0 = g.descriptor(center)
        assert feats[:2] == [d0.area, d0.sq_perimeter]
        around = [g.descriptor(nb) for nb in g.neighbors[center].tolist()]
        want = sorted((d.area, d.sq_perimeter) for d in around)
        assert list(zip(feats[2::2], feats[3::2])) == want


def test_canonical_order_input_permutation():
    """Permuting landmark input order leaves star features unchanged."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 60, (80, 2))
    perm = rng.permutation(len(pts))
    g1 = triangulate(pts)
    g2 = triangulate(pts[perm])

    def features_by_center(g):
        table = {}
        for ids, feats in zip(g.star_table.vertices[:, :3], g.star_features, strict=True):
            key = tuple(sorted(map(tuple, g.points[ids].tolist())))
            table[key] = tuple(feats)
        return table

    t1, t2 = features_by_center(g1), features_by_center(g2)
    assert set(t1) == set(t2)
    for key in t1:
        np.testing.assert_allclose(t1[key], t2[key], rtol=1e-12)


def test_apex_vertices():
    """Rows are in pairing order: the center's corners, then for each corner k
    the vertex of the neighbor across from it that lies outside the center."""
    rng = np.random.default_rng(12)
    g = triangulate(rng.uniform(0, 60, (100, 2)))
    table = g.star_table
    assert len(table.centers) > 0
    for center, ids in zip(table.centers.tolist(), table.vertices.tolist(), strict=True):
        assert ids[:3] == g.triangles[center].tolist()
        center_set = set(ids[:3])
        for k, nb in enumerate(g.neighbors[center].tolist()):
            nb_set = set(g.triangles[nb].tolist())
            assert nb_set - center_set == {ids[3 + k]}


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    g = triangulate(rng.uniform(0, 50, (70, 2)))
    path = tmp_path / "graph.csv"
    save_graph(g, path)
    back = load_graph(path)
    for name in ("points", "triangles", "neighbors", "areas", "sq_perimeters", "star_features"):
        np.testing.assert_array_equal(getattr(back, name), getattr(g, name))
    assert back.hull_vertices == g.hull_vertices


def test_save_byte_deterministic(tmp_path):
    rng = np.random.default_rng(14)
    g = triangulate(rng.uniform(0, 50, (40, 2)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_graph(g, p1)
    save_graph(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_malformed(tmp_path):
    rng = np.random.default_rng(16)
    path = tmp_path / "map.csv"
    save_graph(triangulate(rng.uniform(0, 50, (80, 2))), path)
    lines = path.read_text().splitlines()
    head, row, tail = lines[:4], lines[4], lines[5:]
    assert row.startswith("3,")
    cases = [
        (["id,x,y"] + lines[1:], "bad.csv: unexpected header 'id,x,y'"),
        (head + ["3,1.0,2.0"] + tail, "bad.csv:5: expected 4 fields"),
        (head + tail, "bad.csv:5: expected id 3, got '4'"),
        (head + ["3,nan,2.0,1"] + tail, "bad.csv:5: non-finite coordinate"),
    ]
    for edited, message in cases:
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(edited) + "\n")
        with pytest.raises(ValueError, match=message):
            load_graph(bad)


@pytest.mark.parametrize("text", ["5", "null", "[]", '"vertices"'])
def test_load_rejects_non_object(tmp_path, text):
    """A file holding a bare JSON value is not a map file: its first line is no header."""
    path = tmp_path / "scalar.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"scalar.json: unexpected header {text!r}")):
        load_graph(path)

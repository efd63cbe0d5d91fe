"""Tests for forestloc.dtgraph — triangulation, descriptors, stars, graph files."""

import json
import math

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
    for pts in (far, signed):
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
    assert g.interior_stars == ()


def test_grid_3x3_stars_match_oracle():
    pts = np.array([[float(i), float(j)] for i in range(3) for j in range(3)])
    g = triangulate(pts)
    got = sorted(s.center for s in g.interior_stars)
    assert got == enumerate_stars_oracle(g)


def test_grid_4x4_stars_match_oracle():
    pts = np.array([[float(i), float(j)] for i in range(4) for j in range(4)])
    g = triangulate(pts)
    stars = g.interior_stars
    assert len(stars) > 0
    assert sorted(s.center for s in stars) == enumerate_stars_oracle(g)


def test_random_graph_star_predicates():
    """Exhaustive check: 3 neighbors and zero hull vertices per star."""
    rng = np.random.default_rng(9)
    g = triangulate(rng.uniform(0, 80, (200, 2)))
    stars = g.interior_stars
    assert sorted(s.center for s in stars) == enumerate_stars_oracle(g)
    for s, ids in zip(stars, g.star_table.vertices.tolist(), strict=True):
        assert (g.neighbors[s.center] >= 0).all()
        assert not (set(ids) & g.hull_vertices)
        assert len(set(ids)) == 6


def test_star_features_layout():
    """features = [A0,l0,A1,l1,A2,l2,A3,l3] with neighbors in canonical order."""
    rng = np.random.default_rng(10)
    g = triangulate(rng.uniform(0, 60, (120, 2)))
    for s in g.interior_stars[:20]:
        d0 = g.descriptor(s.center)
        assert s.features[0] == d0.area and s.features[1] == d0.sq_perimeter
        keys = []
        for i, nb in enumerate(s.neighbors):
            d = g.descriptor(nb)
            assert s.features[2 + 2 * i] == d.area
            assert s.features[3 + 2 * i] == d.sq_perimeter
            keys.append((d.area, d.sq_perimeter))
        assert keys == sorted(keys)


def test_canonical_order_input_permutation():
    """Permuting landmark input order leaves star features unchanged."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 60, (80, 2))
    perm = rng.permutation(len(pts))
    g1 = triangulate(pts)
    g2 = triangulate(pts[perm])

    def star_table(g):
        table = {}
        for s in g.interior_stars:
            key = tuple(sorted(map(tuple, g.points[list(s.center_vertices)])))
            table[key] = tuple(s.features)
        return table

    t1, t2 = star_table(g1), star_table(g2)
    assert set(t1) == set(t2)
    for key in t1:
        np.testing.assert_allclose(t1[key], t2[key], rtol=1e-12)


def test_apex_vertices():
    """Each apex is the neighbor's vertex not shared with the center."""
    rng = np.random.default_rng(12)
    g = triangulate(rng.uniform(0, 60, (100, 2)))
    for s in g.interior_stars:
        center_set = set(map(int, g.triangles[s.center]))
        for nb, apex in zip(s.neighbors, s.apex_vertices):
            nb_set = set(map(int, g.triangles[nb]))
            assert nb_set - center_set == {apex}


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    g = triangulate(rng.uniform(0, 50, (70, 2)))
    path = tmp_path / "graph.json"
    save_graph(g, path)
    back = load_graph(path)
    np.testing.assert_array_equal(back.points, g.points)
    np.testing.assert_array_equal(back.triangles, g.triangles)
    np.testing.assert_array_equal(back.areas, g.areas)
    assert back.hull_vertices == g.hull_vertices


def test_save_byte_deterministic(tmp_path):
    rng = np.random.default_rng(14)
    g = triangulate(rng.uniform(0, 50, (40, 2)))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(g, p1)
    save_graph(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[0, 0.0, 0.0]]}')
    with pytest.raises(ValueError):
        load_graph(path)
    # a row one entry short, in each table of an otherwise intact file
    rng = np.random.default_rng(16)
    save_graph(triangulate(rng.uniform(0, 50, (80, 2))), path)
    intact = json.loads(path.read_text())
    for key in ("vertices", "triangles", "descriptors"):
        data = json.loads(json.dumps(intact))
        data[key][3] = data[key][3][:-1]
        short = tmp_path / f"short_{key}.json"
        short.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"short_{key}.json: {key} rows must be lists"):
            load_graph(short)
    # descriptor rows that all claim id 7
    data = json.loads(json.dumps(intact))
    for row in data["descriptors"]:
        row[0] = 7
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="descriptors ids not contiguous"):
        load_graph(path)
    # descriptors that are not finite, all of them or one
    for value in ("NaN", "Infinity", "-Infinity"):
        for rows in (slice(None), slice(5, 6)):
            data = json.loads(json.dumps(intact))
            for row in data["descriptors"][rows]:
                row[1] = row[2] = value
            path.write_text(json.dumps(data).replace(f'"{value}"', value))
            with pytest.raises(ValueError, match="stored descriptors disagree"):
                load_graph(path)


@pytest.mark.parametrize("text", ["5", "null", "[]", '"vertices"'])
def test_load_rejects_non_object(tmp_path, text):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="scalar.json: top-level value must be an object"):
        load_graph(path)


@pytest.mark.parametrize("vertex_id", [0.9, 1.0, "0", None])
def test_load_rejects_non_integer_triangle_id(tmp_path, vertex_id):
    """A triangle vertex id that is not an integer is rejected, not truncated."""
    rng = np.random.default_rng(16)
    path = tmp_path / "graph.json"
    save_graph(triangulate(rng.uniform(0, 50, (80, 2))), path)
    data = json.loads(path.read_text())
    data["triangles"][3][1] = vertex_id
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="graph.json: triangle vertex ids must be integers"):
        load_graph(path)


def write_graph_file(path, points, triangles):
    """Write points and triangles in save_graph's layout, descriptors true to both."""
    areas, sq_per = triangle_descriptors(points[triangles])
    data = {
        "vertices": [[i, float(x), float(y)] for i, (x, y) in enumerate(points)],
        "triangles": [[i, *map(int, t)] for i, t in enumerate(triangles)],
        "descriptors": [[i, float(a), float(l)] for i, (a, l) in enumerate(zip(areas, sq_per))],
    }
    path.write_text(json.dumps(data))


def test_load_rejects_flipped_edge(tmp_path):
    """Flipping one interior edge leaves a valid, non-Delaunay triangulation."""
    rng = np.random.default_rng(15)
    g = triangulate(rng.uniform(0, 50, (60, 2)))
    tris = g.triangles.copy()
    for t, k in zip(*np.nonzero(g.neighbors >= 0)):
        nb = g.neighbors[t, k]
        c, a, b = (tris[t, (k + j) % 3] for j in range(3))
        (d,) = set(map(int, tris[nb])) - {a, b}
        flipped = np.array([[c, a, d], [c, d, b]])
        p = g.points[flipped]
        cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 2, 0] - p[:, 0, 0]
        ) * (p[:, 1, 1] - p[:, 0, 1])
        if (cross > 0).all():  # convex quad: both new triangles are CCW
            break
    tris[[t, nb]] = flipped
    path = tmp_path / "flipped.json"
    write_graph_file(path, g.points, tris)
    with pytest.raises(ValueError, match="not the Delaunay triangulation"):
        load_graph(path)


def test_load_rejects_dropped_triangle(tmp_path):
    rng = np.random.default_rng(16)
    g = triangulate(rng.uniform(0, 50, (60, 2)))
    path = tmp_path / "dropped.json"
    write_graph_file(path, g.points, np.delete(g.triangles, g.n_triangles // 2, axis=0))
    with pytest.raises(ValueError, match="not the Delaunay triangulation"):
        load_graph(path)


def test_load_ignores_triangle_row_order_and_rotation(tmp_path):
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 50, (60, 2))
    g = triangulate(pts)
    tris = g.triangles[rng.permutation(g.n_triangles)]
    shifts = rng.integers(0, 3, len(tris))
    tris = np.array([np.roll(row, s) for row, s in zip(tris, shifts)])
    assert (shifts > 0).any()
    path = tmp_path / "shuffled.json"
    write_graph_file(path, pts, tris)
    back = load_graph(path)
    for name in ("points", "triangles", "neighbors", "areas", "sq_perimeters", "star_features"):
        np.testing.assert_array_equal(getattr(back, name), getattr(g, name))
    assert back.hull_vertices == g.hull_vertices

"""Delaunay triangulation graphs over 2D trunk landmarks.

The graph couples the triangulation (vertices, CCW triangles, shared-edge
adjacency, convex-hull membership) with a per-triangle shape descriptor
(area, squared perimeter) and the derived "triangle stars" used by the
matcher: a center triangle together with its three edge-adjacent
neighbors, summarized as an 8-component feature vector.  The stars are
held as one StarTable of aligned arrays; TriangleStar records are made
from its rows on demand.  A kd-tree over the logs of the feature
vectors lets the matcher find similar stars without scanning the table.

Descriptors are computed from each triangle's coordinates sorted
lexicographically, so they come out bitwise identical no matter how the
triangulation happened to order the simplex, and identical feature
vectors arise from permuted inputs over the same landmarks.

triangulate is the only constructor of a DTGraph.  A graph file is read
back by triangulating its vertices again and checking the stored
triangles and descriptors against that rebuild.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from .errors import DegeneratePointSetError
from .geometry import as_points2

_STAR_INDEX_LEAF_SIZE = 128  # stars per star-index leaf; see DTGraph.star_index


def _canonical_coords(coords: np.ndarray) -> np.ndarray:
    """Sort each triangle's 3 vertex rows lexicographically by (x, y)."""
    order = np.lexsort((coords[:, :, 1], coords[:, :, 0]), axis=1)
    return np.take_along_axis(coords, order[:, :, None], axis=1)


def triangle_descriptors(coords) -> tuple[np.ndarray, np.ndarray]:
    """(areas, squared perimeters) for a (T, 3, 2) stack of triangles.

    Vertex order within each triangle does not affect the result, down to
    the last bit: arithmetic runs on lexicographically sorted coordinates.
    """
    coords = np.asarray(coords, dtype=float).reshape(-1, 3, 2)
    coords = _canonical_coords(coords)
    a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    areas = 0.5 * np.abs(cross)
    per = (
        np.linalg.norm(b - a, axis=1)
        + np.linalg.norm(c - b, axis=1)
        + np.linalg.norm(a - c, axis=1)
    )
    return areas, per * per


def log_star_features(features) -> np.ndarray:
    """Natural log of star feature vectors, the star index's coordinates.

    Relative deviation becomes distance: |g - f| <= tol * f puts log g
    within -log1p(-tol) of log f.  Every feature is positive and finite,
    because triangulate rejects a graph with any other descriptor.
    """
    return np.log(np.asarray(features, dtype=float))


@dataclass(frozen=True)
class TriangleDescriptor:
    """Rigid-invariant triangle shape: area and squared perimeter (m^2 both)."""

    area: float
    sq_perimeter: float


@dataclass(frozen=True)
class TriangleStar:
    """A center triangle plus its 3 edge-adjacent neighbors.

    The neighbor order is canonical (ascending area, then squared
    perimeter, then the id of the center vertex opposite the neighbor) so
    that feature vectors depend on geometry only.  ``opposite_corners[j]``
    gives the position in ``center_vertices`` across from ``neighbors[j]``,
    and ``apex_vertices[j]`` is the one vertex of that neighbor outside the
    center triangle.
    """

    center: int
    neighbors: tuple
    features: np.ndarray  # (8,) [A0, l0, A1, l1, A2, l2, A3, l3]
    center_vertices: tuple
    apex_vertices: tuple
    opposite_corners: tuple

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float).reshape(8)
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)


class StarTable(NamedTuple):
    """The interior stars of a graph, one row per star.

    ``vertices`` rows are in pairing order: the center triangle's three
    CCW corners, then the apexes opposite corners 0, 1 and 2.
    ``opposite_corners`` rows give the corners in canonical neighbor order,
    the order of the neighbor columns of ``features``.
    """

    centers: np.ndarray  # (S,) center triangle ids
    vertices: np.ndarray  # (S, 6)
    opposite_corners: np.ndarray  # (S, 3)
    features: np.ndarray  # (S, 8)


@dataclass(frozen=True, eq=False)
class DTGraph:
    """Immutable Delaunay triangulation with cached shape data.

    ``triangles`` rows are CCW vertex ids.  ``neighbors[t, k]`` is the
    triangle sharing the edge opposite vertex k of triangle t, or -1 at
    the boundary.  ``hull_vertices`` holds the ids of the convex hull's
    extreme points (collinear boundary points are not extreme).
    """

    points: np.ndarray
    triangles: np.ndarray
    neighbors: np.ndarray
    areas: np.ndarray
    sq_perimeters: np.ndarray
    hull_vertices: frozenset

    def __post_init__(self):
        for name in ("points", "triangles", "neighbors", "areas", "sq_perimeters"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def descriptor(self, t: int) -> TriangleDescriptor:
        if not 0 <= t < self.n_triangles:
            raise ValueError(f"unknown triangle id {t}")
        return TriangleDescriptor(float(self.areas[t]), float(self.sq_perimeters[t]))

    @cached_property
    def star_table(self) -> StarTable:
        """The interior stars as aligned arrays, built in one pass.

        A triangle yields a star when it has 3 neighbors, none of its own
        or its neighbors' apex vertices lies on the hull, and the 6 star
        vertices are distinct (a degree-3 interior vertex can fold two
        neighbors onto a shared apex, which leaves no 6-vertex pairing).
        """
        tri, nb = self.triangles, self.neighbors
        on_hull = np.zeros(self.n_vertices, dtype=bool)
        on_hull[list(self.hull_vertices)] = True
        cand = np.flatnonzero((nb >= 0).all(axis=1) & ~on_hull[tri].any(axis=1))
        # apex of the neighbor opposite corner k: its vertex sum minus the shared edge
        apex = tri[nb[cand]].sum(axis=2) - tri[cand].sum(axis=1, keepdims=True) + tri[cand]
        good = ~on_hull[apex].any(axis=1)
        good &= (apex[:, 0] != apex[:, 1]) & (apex[:, 1] != apex[:, 2])
        good &= apex[:, 0] != apex[:, 2]
        centers = cand[good]
        around = nb[centers]
        order = np.lexsort(
            (tri[centers], self.sq_perimeters[around], self.areas[around]), axis=1
        )
        around = np.take_along_axis(around, order, axis=1)
        features = np.empty((len(centers), 8))
        features[:, 0] = self.areas[centers]
        features[:, 1] = self.sq_perimeters[centers]
        features[:, 2::2] = self.areas[around]
        features[:, 3::2] = self.sq_perimeters[around]
        table = StarTable(centers, np.hstack([tri[centers], apex[good]]), order, features)
        for arr in table:
            arr.flags.writeable = False
        return table

    @property
    def star_features(self) -> np.ndarray:
        """(S, 8) feature matrix of star_table, one row per star_table row."""
        return self.star_table.features

    def star(self, row: int) -> TriangleStar:
        """The record of star_table row ``row``."""
        table = self.star_table
        center, order = int(table.centers[row]), table.opposite_corners[row]
        vertices = table.vertices[row].tolist()
        return TriangleStar(
            center=center,
            neighbors=tuple(self.neighbors[center, order].tolist()),
            features=table.features[row],
            center_vertices=tuple(vertices[:3]),
            apex_vertices=tuple(vertices[3 + k] for k in order.tolist()),
            opposite_corners=tuple(order.tolist()),
        )

    @cached_property
    def interior_stars(self) -> tuple:
        """One TriangleStar record per star_table row."""
        return tuple(self.star(row) for row in range(len(self.star_table.centers)))

    @cached_property
    def star_index(self) -> cKDTree:
        """kd-tree over log_star_features(star_features), rows aligned.

        Leaves hold _STAR_INDEX_LEAF_SIZE (128) stars, not cKDTree's 16.
        In 8-D a tree with 16-star leaves is deep, and the matcher's ball
        queries spend their time walking its nodes.  On an 8,750-trunk map
        (2-core VM, 175-trunk windows) the candidate search at tolerance
        0.3, where most local stars need a ball query, took 120 ms per
        window at 16, 84 at 64 and 73 at 128.  At 0.05 one k-nearest query
        serves every local star, and leaf size matters less: 0.7-0.9 ms at
        16 and 0.9-1.2 ms at 128, one-tenth of a query.
        """
        return cKDTree(log_star_features(self.star_features), leafsize=_STAR_INDEX_LEAF_SIZE)


def triangulate(landmarks) -> DTGraph:
    """Delaunay-triangulate a TrunkMap or (N, 2) coordinate array.

    Raises DegeneratePointSetError for fewer than 3 points, coincident
    points, an all-collinear set, or a triangle whose area is not positive
    or whose squared perimeter is not finite.
    """
    pts = getattr(landmarks, "positions", landmarks)
    pts = as_points2(pts)
    if len(pts) < 3:
        raise DegeneratePointSetError("degenerate point set")
    # equal rows are adjacent once sorted; == counts 0.0 and -0.0 as equal
    ordered = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        raise DegeneratePointSetError("degenerate point set")
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise DegeneratePointSetError("degenerate point set") from exc
    simplices = np.array(tri.simplices, dtype=np.intp)
    neighbors = np.array(tri.neighbors, dtype=np.intp)
    if len(simplices) == 0:
        raise DegeneratePointSetError("degenerate point set")
    coords = pts[simplices]
    cross = (coords[:, 1, 0] - coords[:, 0, 0]) * (coords[:, 2, 1] - coords[:, 0, 1]) - (
        coords[:, 1, 1] - coords[:, 0, 1]
    ) * (coords[:, 2, 0] - coords[:, 0, 0])
    flip = cross < 0
    # swapping two vertices flips orientation; neighbor columns track their vertices
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    neighbors[flip] = neighbors[flip][:, [0, 2, 1]]
    areas, sq_per = triangle_descriptors(pts[simplices])
    if not ((areas > 0.0).all() and np.isfinite(sq_per).all()):
        raise DegeneratePointSetError("degenerate point set")
    hull = ConvexHull(pts)
    return DTGraph(
        points=pts.copy(),
        triangles=simplices,
        neighbors=neighbors,
        areas=areas,
        sq_perimeters=sq_per,
        hull_vertices=frozenset(int(v) for v in hull.vertices),
    )


def save_graph(graph: DTGraph, path) -> None:
    """Write the graph as JSON with stable ordering and float formatting.

    Top-level keys: "vertices" [[id, x, y]], "triangles" [[id, v0, v1, v2]],
    "descriptors" [[id, A, l]].  Floats use repr (shortest round-trip), so
    equal graphs produce byte-identical files.
    """
    parts = ["{\n  \"vertices\": [\n"]
    parts.append(
        ",\n".join(
            f"    [{i}, {float(x)!r}, {float(y)!r}]"
            for i, (x, y) in enumerate(graph.points)
        )
    )
    parts.append("\n  ],\n  \"triangles\": [\n")
    parts.append(
        ",\n".join(
            f"    [{i}, {int(a)}, {int(b)}, {int(c)}]"
            for i, (a, b, c) in enumerate(graph.triangles)
        )
    )
    parts.append("\n  ],\n  \"descriptors\": [\n")
    parts.append(
        ",\n".join(
            f"    [{i}, {float(a)!r}, {float(l)!r}]"
            for i, (a, l) in enumerate(zip(graph.areas, graph.sq_perimeters))
        )
    )
    parts.append("\n  ]\n}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def load_graph(path) -> DTGraph:
    """Read a graph written by save_graph, checked against a rebuild.

    The vertices are triangulated afresh, so a file meets the same
    invariants as a graph built in memory.  The stored triangles must be
    the rebuild's as a set of vertex triples (row order and the rotation
    of a row do not matter), and each stored descriptor must agree with
    the rebuilt one to 1e-6 relative; otherwise ValueError.  The file must
    hold one object, the row ids of every table must run 0, 1, 2, ... in
    file order, and triangle vertex ids must be integers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level value must be an object")
    for key, width in (("vertices", 3), ("triangles", 4), ("descriptors", 3)):
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
        if not isinstance(data[key], list) or not all(
            isinstance(row, list) and len(row) == width for row in data[key]
        ):
            raise ValueError(f"{path}: {key} rows must be lists of {width} entries")
        if [row[0] for row in data[key]] != list(range(len(data[key]))):
            raise ValueError(f"{path}: {key} ids not contiguous from 0")
    pts = as_points2([row[1:] for row in data["vertices"]])
    simplices = np.array([row[1:] for row in data["triangles"]]).reshape(-1, 3)
    if len(simplices) and simplices.dtype.kind not in "iu":
        raise ValueError(f"{path}: triangle vertex ids must be integers")
    if len(simplices) == 0 or simplices.min() < 0 or simplices.max() >= len(pts):
        raise ValueError(f"{path}: triangle vertex id out of range")
    stored = np.array([row[1:] for row in data["descriptors"]], dtype=float).reshape(
        -1, 2
    )
    if len(stored) != len(simplices):
        raise ValueError(f"{path}: descriptor count does not match triangles")
    graph = triangulate(pts)
    # rows of sorted vertex triples, in lexicographic order on both sides
    stored_tris = np.sort(simplices, axis=1)
    built_tris = np.sort(graph.triangles, axis=1)
    stored_order = np.lexsort(stored_tris.T[::-1])
    built_order = np.lexsort(built_tris.T[::-1])
    if not np.array_equal(stored_tris[stored_order], built_tris[built_order]):
        raise ValueError(f"{path}: triangles are not the Delaunay triangulation of the vertices")
    stored = stored[stored_order]
    fresh = np.column_stack([graph.areas, graph.sq_perimeters])[built_order]
    # written so that a NaN or infinite stored value fails it
    if not np.all(np.abs(stored - fresh) <= 1e-6 * np.maximum(np.abs(fresh), 1.0)):
        raise ValueError(f"{path}: stored descriptors disagree with geometry")
    return graph

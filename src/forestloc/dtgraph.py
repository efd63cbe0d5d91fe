"""Delaunay triangulation graphs over 2D trunk landmarks.

The graph couples the triangulation (vertices, CCW triangles, shared-edge
adjacency, convex-hull membership) with a per-triangle shape descriptor
(area, squared perimeter) and the derived "triangle stars" used by the
matcher: a center triangle together with its three edge-adjacent
neighbors, summarized as an 8-component feature vector.  A kd-tree over
the logs of those vectors lets the matcher find similar stars without
scanning the whole table.

Descriptors are computed from each triangle's coordinates sorted
lexicographically, so they come out bitwise identical no matter how the
triangulation happened to order the simplex, and identical feature
vectors arise from permuted inputs over the same landmarks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from .errors import DegeneratePointSetError
from .geometry import as_points2

# |log| of a positive finite double is below 745, so this is farther from
# any of them than a finite Chebyshev radius (-log1p(-tol) < 37 for tol < 1).
_FAR_LOG = 1500.0


def _canonical_coords(coords: np.ndarray) -> np.ndarray:
    """Sort each triangle's 3 vertex rows lexicographically by (x, y)."""
    order = np.argsort(coords[:, :, 1], axis=1, kind="stable")
    coords = np.take_along_axis(coords, order[:, :, None], axis=1)
    order = np.argsort(coords[:, :, 0], axis=1, kind="stable")
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
    """Natural log of star feature vectors, made finite for a kd-tree.

    Relative deviation becomes distance: |g - f| <= tol * f puts log g
    within -log1p(-tol) of log f.  A zero feature (a zero-area triangle
    in a loaded graph) maps to -_FAR_LOG and an overflowed or NaN one to
    +_FAR_LOG; neither passes a relative tolerance below 1 against a
    positive finite feature, and both lie beyond any radius for one.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.asarray(features, dtype=float))
    return np.nan_to_num(logs, nan=_FAR_LOG, posinf=_FAR_LOG, neginf=-_FAR_LOG)


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

    def vertex_ids(self) -> tuple:
        """The 6 star vertices: center triangle's 3, then the 3 apexes."""
        return self.center_vertices + self.apex_vertices

    def descriptor(self) -> TriangleDescriptor:
        return TriangleDescriptor(float(self.features[0]), float(self.features[1]))


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

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique undirected edges as a sorted (E, 2) id array."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e = np.sort(e, axis=1)
        return np.unique(e, axis=0)

    def descriptor(self, t: int) -> TriangleDescriptor:
        if not 0 <= t < self.n_triangles:
            raise ValueError(f"unknown triangle id {t}")
        return TriangleDescriptor(float(self.areas[t]), float(self.sq_perimeters[t]))

    @cached_property
    def interior_stars(self) -> tuple:
        """Stars whose 6 vertices all avoid the convex hull.

        A triangle yields a star when it has 3 neighbors, none of its own
        or its neighbors' apex vertices lies on the hull, and the 6 star
        vertices are distinct (a degree-3 interior vertex can fold two
        neighbors onto a shared apex, which leaves no 6-vertex pairing).
        """
        tri = self.triangles
        nb = self.neighbors
        if len(tri) == 0:
            return ()
        on_hull = np.zeros(self.n_vertices, dtype=bool)
        on_hull[list(self.hull_vertices)] = True
        cand = (nb >= 0).all(axis=1) & ~on_hull[tri].any(axis=1)
        cand = np.flatnonzero(cand)
        if len(cand) == 0:
            return ()
        # apex of the neighbor opposite corner k: its vertex sum minus the shared edge
        apex = (
            tri[nb[cand]].sum(axis=2)
            - tri[cand].sum(axis=1, keepdims=True)
            + tri[cand]
        )
        good = ~on_hull[apex].any(axis=1)
        good &= (apex[:, 0] != apex[:, 1]) & (apex[:, 1] != apex[:, 2])
        good &= apex[:, 0] != apex[:, 2]
        stars = []
        for t, apexes in zip(cand[good], apex[good]):
            verts = tri[t]
            order = sorted(
                range(3),
                key=lambda k: (
                    self.areas[nb[t, k]],
                    self.sq_perimeters[nb[t, k]],
                    int(verts[k]),
                ),
            )
            features = np.empty(8)
            features[0] = self.areas[t]
            features[1] = self.sq_perimeters[t]
            for j, k in enumerate(order):
                features[2 + 2 * j] = self.areas[nb[t, k]]
                features[3 + 2 * j] = self.sq_perimeters[nb[t, k]]
            stars.append(
                TriangleStar(
                    center=int(t),
                    neighbors=tuple(int(nb[t, k]) for k in order),
                    features=features,
                    center_vertices=tuple(int(v) for v in verts),
                    apex_vertices=tuple(int(apexes[k]) for k in order),
                    opposite_corners=tuple(order),
                )
            )
        return tuple(stars)

    @cached_property
    def star_features(self) -> np.ndarray:
        """(S, 8) feature matrix aligned with interior_stars."""
        if not self.interior_stars:
            return np.zeros((0, 8))
        return np.vstack([s.features for s in self.interior_stars])

    @cached_property
    def star_index(self) -> cKDTree:
        """kd-tree over log_star_features(star_features), rows aligned."""
        return cKDTree(log_star_features(self.star_features))


def triangulate(landmarks) -> DTGraph:
    """Delaunay-triangulate a TrunkMap or (N, 2) coordinate array.

    Raises DegeneratePointSetError for fewer than 3 points, coincident
    points, or an all-collinear set.
    """
    pts = getattr(landmarks, "positions", landmarks)
    pts = as_points2(pts)
    if len(pts) < 3:
        raise DegeneratePointSetError("degenerate point set")
    if len(np.unique(pts, axis=0)) != len(pts):
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
    if not (areas > 0.0).all():
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


def select_interior_stars(graph: DTGraph) -> tuple:
    return graph.interior_stars


def _adjacency_from_triangles(triangles: np.ndarray) -> np.ndarray:
    nb = np.full(triangles.shape, -1, dtype=np.intp)
    seen = {}
    for t, verts in enumerate(triangles):
        for k in range(3):
            a, b = int(verts[(k + 1) % 3]), int(verts[(k + 2) % 3])
            edge = (a, b) if a < b else (b, a)
            other = seen.pop(edge, None)
            if other is None:
                seen[edge] = (t, k)
            else:
                t2, k2 = other
                nb[t, k] = t2
                nb[t2, k2] = t
    return nb


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
    """Read a graph written by save_graph and rebuild derived structure."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    for key in ("vertices", "triangles", "descriptors"):
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
    verts = data["vertices"]
    if [row[0] for row in verts] != list(range(len(verts))):
        raise ValueError(f"{path}: vertex ids not contiguous from 0")
    pts = as_points2([[row[1], row[2]] for row in verts])
    tris = data["triangles"]
    if [row[0] for row in tris] != list(range(len(tris))):
        raise ValueError(f"{path}: triangle ids not contiguous from 0")
    simplices = np.array([row[1:] for row in tris], dtype=np.intp).reshape(-1, 3)
    if len(simplices) == 0 or simplices.min() < 0 or simplices.max() >= len(pts):
        raise ValueError(f"{path}: triangle vertex id out of range")
    coords = pts[simplices]
    cross = (coords[:, 1, 0] - coords[:, 0, 0]) * (coords[:, 2, 1] - coords[:, 0, 1]) - (
        coords[:, 1, 1] - coords[:, 0, 1]
    ) * (coords[:, 2, 0] - coords[:, 0, 0])
    flip = cross < 0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    areas, sq_per = triangle_descriptors(pts[simplices])
    stored = np.array([row[1:] for row in data["descriptors"]], dtype=float).reshape(
        -1, 2
    )
    if len(stored) != len(simplices):
        raise ValueError(f"{path}: descriptor count does not match triangles")
    scale = np.maximum(np.abs(stored), 1.0)
    fresh = np.column_stack([areas, sq_per])
    if np.any(np.abs(stored - fresh) > 1e-6 * scale):
        raise ValueError(f"{path}: stored descriptors disagree with geometry")
    return DTGraph(
        points=pts,
        triangles=simplices,
        neighbors=_adjacency_from_triangles(simplices),
        areas=areas,
        sq_perimeters=sq_per,
        hull_vertices=frozenset(int(v) for v in ConvexHull(pts).vertices),
    )

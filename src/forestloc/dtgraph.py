"""Delaunay triangulation graphs over 2D trunk landmarks.

The graph couples the triangulation (vertices, CCW triangles, shared-edge
adjacency, convex-hull membership) with a per-triangle shape descriptor
(area, squared perimeter) and the derived "triangle stars" used by the
matcher: a center triangle together with its three edge-adjacent
neighbors, summarized as an 8-component feature vector.  The stars are
held as one StarTable of aligned arrays, one row per star.  A kd-tree
over the logs of the feature vectors lets the matcher find similar stars
without scanning the table.

Descriptors are computed from each triangle's coordinates sorted
lexicographically, so they come out bitwise identical no matter how the
triangulation happened to order the simplex, and identical feature
vectors arise from permuted inputs over the same landmarks.

triangulate is the only constructor of a DTGraph.  A map file is a
landmark CSV, and reading it triangulates the landmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from .errors import DegeneratePointSetError
from .geometry import as_points2
from .trunks import TrunkMap

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


class StarTable(NamedTuple):
    """The interior stars of a graph, one row per star.

    ``vertices`` rows are in pairing order: the center triangle's three
    CCW corners, then the apexes opposite corners 0, 1 and 2.
    ``features`` rows are [A0, l0, A1, l1, A2, l2, A3, l3]: the center's
    (area, squared perimeter), then its neighbors' in canonical order,
    by area, then squared perimeter.  Neighbors tied on both write the
    same four values, so no further key is needed.
    """

    centers: np.ndarray  # (S,) center triangle ids
    vertices: np.ndarray  # (S, 6)
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
        tsum = tri.sum(axis=1)
        apex = tsum[nb[cand]] - tsum[cand][:, None] + tri[cand]
        good = ~on_hull[apex].any(axis=1)
        good &= (apex[:, 0] != apex[:, 1]) & (apex[:, 1] != apex[:, 2])
        good &= apex[:, 0] != apex[:, 2]
        centers = cand[good]
        around = nb[centers]
        order = np.lexsort((self.sq_perimeters[around], self.areas[around]), axis=1)
        around = np.take_along_axis(around, order, axis=1)
        features = np.empty((len(centers), 8))
        features[:, 0] = self.areas[centers]
        features[:, 1] = self.sq_perimeters[centers]
        features[:, 2::2] = self.areas[around]
        features[:, 3::2] = self.sq_perimeters[around]
        table = StarTable(centers, np.hstack([tri[centers], apex[good]]), features)
        for arr in table:
            arr.flags.writeable = False
        return table

    @property
    def star_features(self) -> np.ndarray:
        """(S, 8) feature matrix of star_table, one row per star_table row."""
        return self.star_table.features

    @property
    def interior_stars(self) -> np.ndarray:
        """(S,) star_table.centers, read-only.  Kept for perfbench, whose set_up
        and _localize_traced count stars as len(graph.interior_stars)."""
        return self.star_table.centers

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

    Raises DegeneratePointSetError for fewer than 3 points, an
    all-collinear set, a landmark Qhull leaves out of every triangle (an
    exact or near duplicate of another), or a triangle whose area is not
    positive or whose squared perimeter is not finite.
    """
    pts = getattr(landmarks, "positions", landmarks)
    pts = as_points2(pts)
    if len(pts) < 3:
        raise DegeneratePointSetError("degenerate point set")
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise DegeneratePointSetError("degenerate point set") from exc
    simplices = np.array(tri.simplices, dtype=np.intp)
    neighbors = np.array(tri.neighbors, dtype=np.intp)
    if not np.bincount(simplices.ravel(), minlength=len(pts)).all():
        raise DegeneratePointSetError("degenerate point set")
    coords = pts[simplices]
    cross = (coords[:, 1, 0] - coords[:, 0, 0]) * (coords[:, 2, 1] - coords[:, 0, 1]) - (
        coords[:, 1, 1] - coords[:, 0, 1]
    ) * (coords[:, 2, 0] - coords[:, 0, 0])
    flip = cross < 0
    # swapping two vertices flips orientation; neighbor columns track their vertices
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    neighbors[flip] = neighbors[flip][:, [0, 2, 1]]
    # descriptors sort each triangle's corners, so the flip cannot change them
    areas, sq_per = triangle_descriptors(coords)
    if not ((areas > 0.0).all() and np.isfinite(sq_per).all()):
        raise DegeneratePointSetError("degenerate point set")
    # every extreme point ends a boundary edge, the edge opposite a -1 neighbor
    t, k = np.nonzero(neighbors == -1)
    boundary = np.unique(simplices[t[:, None], (k[:, None] + [1, 2]) % 3])
    hull = boundary[ConvexHull(pts[boundary]).vertices]
    return DTGraph(
        points=pts.copy(),
        triangles=simplices,
        neighbors=neighbors,
        areas=areas,
        sq_perimeters=sq_per,
        hull_vertices=frozenset(hull.tolist()),
    )


def save_graph(graph: DTGraph, path) -> None:
    """Write the graph's vertices as a landmark CSV (TrunkMap.save_csv), support 1.

    A Delaunay graph is a function of its vertices, so they are all a map
    file holds.  Floats round-trip exactly, so load_graph gives back the
    same graph, and equal graphs give byte-identical files.
    """
    support = np.ones(graph.n_vertices, dtype=np.intp)
    TrunkMap(positions=graph.points, support=support).save_csv(path)


def load_graph(path) -> DTGraph:
    """triangulate(TrunkMap.load_csv(path)): a map file meets the in-memory invariants."""
    return triangulate(TrunkMap.load_csv(path))

"""Trunk landmark extraction from 3D lidar clouds.

A lidar return belongs to a trunk when the cloud also has geometry directly
above it: probing straight up from a ground-level hit lands inside the same
trunk, while probing up from ground or low vegetation lands in empty space.
Surviving points are grouped into per-tree clusters by proximity and each
cluster is reduced to a 2D centroid landmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import EmptyCloudError
from .geometry import as_cloud, as_points2


@dataclass(frozen=True)
class TrunkExtractionParams:
    """Tuning knobs for the probe test and the clustering pass.

    probe_height: how far above each point the vertical probe sits (m).
    probe_tolerance: max distance from probe to its nearest cloud point (m).
    cluster_tolerance: max gap between points of one cluster (m, single link).
    min_cluster_size: clusters with fewer points are dropped as clutter.
    """

    probe_height: float = 2.0
    probe_tolerance: float = 0.2
    cluster_tolerance: float = 0.5
    min_cluster_size: int = 30

    def __post_init__(self):
        for name in ("probe_height", "probe_tolerance", "cluster_tolerance"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.probe_tolerance >= self.probe_height:
            raise ValueError("probe_tolerance must be smaller than probe_height")
        if self.min_cluster_size < 1:
            raise ValueError("min_cluster_size must be at least 1")


@dataclass(frozen=True)
class TrunkCluster:
    centroid: np.ndarray  # (2,) mean of member x, y
    size: int
    member_indices: np.ndarray  # indices into the trunk-candidate subset, ascending

    def __post_init__(self):
        c = np.asarray(self.centroid, dtype=float).reshape(2)
        c.flags.writeable = False
        m = np.asarray(self.member_indices, dtype=np.intp)
        m.flags.writeable = False
        object.__setattr__(self, "centroid", c)
        object.__setattr__(self, "member_indices", m)


@dataclass(frozen=True)
class TrunkMap:
    """2D trunk landmarks with per-landmark support (cluster point count)."""

    positions: np.ndarray  # (M, 2)
    support: np.ndarray  # (M,) int

    def __post_init__(self):
        pos = as_points2(self.positions)
        sup = np.asarray(self.support, dtype=np.intp).reshape(len(pos))
        pos = pos.copy()
        pos.flags.writeable = False
        sup = sup.copy()
        sup.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "support", sup)

    def __len__(self) -> int:
        return len(self.positions)

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,x,y,support\n")
            for i, ((x, y), s) in enumerate(zip(self.positions, self.support)):
                fh.write(f"{i},{x:.6f},{y:.6f},{int(s)}\n")

    @classmethod
    def load_csv(cls, path) -> "TrunkMap":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "id,x,y,support":
                raise ValueError(f"{path}: unexpected header {header!r}")
            xs, ys, sups = [], [], []
            for lineno, line in enumerate(fh, start=2):
                text = line.strip()
                if not text:
                    continue
                parts = text.split(",")
                if len(parts) != 4:
                    raise ValueError(f"{path}:{lineno}: expected 4 fields")
                xs.append(float(parts[1]))
                ys.append(float(parts[2]))
                sups.append(int(parts[3]))
        positions = np.column_stack([xs, ys]) if xs else np.zeros((0, 2))
        return cls(positions=positions, support=np.array(sups, dtype=np.intp))


def select_trunk_points(cloud, params: TrunkExtractionParams | None = None) -> np.ndarray:
    """Indices of cloud points whose vertical probe lands near other geometry.

    For each point p the probe sits at p + (0, 0, probe_height); p survives
    when the cloud's nearest point to the probe is within probe_tolerance.
    Returned indices are ascending.
    """
    params = params or TrunkExtractionParams()
    pts = as_cloud(cloud)
    if len(pts) == 0:
        raise EmptyCloudError("empty input cloud")
    probes = pts + np.array([0.0, 0.0, params.probe_height])
    tree = cKDTree(pts)
    dists, _ = tree.query(probes, workers=-1)
    return np.flatnonzero(dists <= params.probe_tolerance)


def cluster_trunk_points(
    points2, params: TrunkExtractionParams | None = None
) -> list[TrunkCluster]:
    """Single-linkage clusters of 2D points at cluster_tolerance.

    Two points share a cluster when a chain of hops, each at most
    cluster_tolerance long, connects them.  Clusters smaller than
    min_cluster_size are discarded.  Output is ordered by each cluster's
    lowest member index, so equal inputs give identical cluster lists.
    """
    params = params or TrunkExtractionParams()
    pts = as_points2(points2)
    n = len(pts)
    if n == 0:
        return []
    tree = cKDTree(pts)
    pairs = tree.query_pairs(params.cluster_tolerance, output_type="ndarray")
    if len(pairs) == 0:
        adj = coo_matrix((n, n))
    else:
        ones = np.ones(len(pairs))
        adj = coo_matrix((ones, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    n_comp, labels = connected_components(adj, directed=False)

    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(n_comp + 1))
    clusters = []
    for c in range(n_comp):
        members = order[bounds[c] : bounds[c + 1]]
        if len(members) < params.min_cluster_size:
            continue
        members = np.sort(members)
        clusters.append(
            TrunkCluster(
                centroid=pts[members].mean(axis=0),
                size=len(members),
                member_indices=members,
            )
        )
    clusters.sort(key=lambda cl: int(cl.member_indices[0]))
    return clusters


def extract_trunk_map(cloud, params: TrunkExtractionParams | None = None) -> TrunkMap:
    """Full extraction: probe test, clustering, centroid landmarks."""
    params = params or TrunkExtractionParams()
    pts = as_cloud(cloud)
    keep = select_trunk_points(pts, params)
    clusters = cluster_trunk_points(pts[keep][:, :2], params)
    if not clusters:
        return TrunkMap(positions=np.zeros((0, 2)), support=np.zeros(0, dtype=np.intp))
    positions = np.array([c.centroid for c in clusters])
    support = np.array([c.size for c in clusters], dtype=np.intp)
    return TrunkMap(positions=positions, support=support)

"""Trunk landmark extraction from 3D lidar clouds.

A lidar return belongs to a trunk when the cloud also has geometry directly
above it: probing straight up from a ground-level hit lands inside the same
trunk, while probing up from ground or low vegetation lands in empty space.
Surviving points are grouped into per-tree clusters by proximity.  The
clusters stay one label per point: np.bincount over the labels gives each
cluster's size and 2D centroid, the landmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import EmptyCloudError
from .geometry import _as_count, as_points, frozen


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
        if _as_count(self.min_cluster_size, "min_cluster_size") < 1:
            raise ValueError("min_cluster_size must be at least 1")


class TrunkCluster(NamedTuple):
    """One row of the cluster arrays as a record: what cluster_trunk_points returns."""

    centroid: np.ndarray  # (2,) mean of member x, y
    size: int


_CSV_HEADER = "id,x,y,support"
# One landmark row.  The id stays text, so "03" or "+3" is not read as 3.
_CSV_ROW = np.dtype([("id", "U20"), ("x", np.float64), ("y", np.float64), ("support", np.int64)])


@dataclass(frozen=True)
class TrunkMap:
    """2D trunk landmarks with per-landmark support (cluster point count)."""

    positions: np.ndarray  # (M, 2)
    support: np.ndarray  # (M,) int

    def __post_init__(self):
        pos = frozen(as_points(self.positions, 2), float, (-1, 2))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "support", frozen(self.support, np.intp, len(pos)))

    def __len__(self) -> int:
        return len(self.positions)

    def save_csv(self, path) -> None:
        """Write "id,x,y,support" rows; floats in shortest round-trip form."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_CSV_HEADER + "\n")
            for i, ((x, y), s) in enumerate(zip(self.positions, self.support)):
                fh.write(f"{i},{float(x)!r},{float(y)!r},{int(s)}\n")

    @classmethod
    def load_csv(cls, path) -> "TrunkMap":
        """Read a file written by save_csv.

        Row ids must run 0, 1, 2, ... in file order, since a landmark's id
        is its row in positions.  Blank lines are skipped, and each line is
        stripped of surrounding whitespace.  The rows are parsed and checked
        as arrays; a bad header, row, id or coordinate raises ValueError
        naming the path and the first bad line.
        """
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != _CSV_HEADER:
                raise ValueError(f"{path}: unexpected header {header!r}")
            lines = list(map(str.strip, fh.read().split("\n")))
        rows = _parse_rows(lines)
        if rows is None or not _rows_ok(rows).all():
            raise _first_bad_line(path, lines)
        positions = np.column_stack([rows["x"], rows["y"]])
        return cls(positions=positions, support=rows["support"])


def _parse_rows(lines) -> np.ndarray | None:
    """The non-empty lines as _CSV_ROW records, or None when a line does not
    have 4 comma-separated fields, a number does not parse or a NUL appears
    (the text dtype would drop one that ends an id)."""
    if not any(lines):
        return np.empty(0, dtype=_CSV_ROW)
    if "\x00" in "".join(lines):
        return None
    try:
        return np.loadtxt(lines, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None


def _rows_ok(rows, first_id: int = 0) -> np.ndarray:
    """Per row: its id is str(first_id + row) and its x and y are finite."""
    ids = np.arange(first_id, first_id + len(rows)).astype(_CSV_ROW["id"])
    return (rows["id"] == ids) & np.isfinite(rows["x"]) & np.isfinite(rows["y"])


def _first_bad_line(path, lines) -> ValueError:
    """The error for the first line that _parse_rows or _rows_ok rejects.

    Checks run line by line in the order fields, id, numbers, finiteness,
    so a line with several faults is named for the first.
    """
    row = 0
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 4:
            return ValueError(f"{path}:{lineno}: expected 4 fields")
        if fields[0] != str(row):
            return ValueError(f"{path}:{lineno}: expected id {row}, got {fields[0]!r}")
        parsed = _parse_rows([line])
        if parsed is None:
            return ValueError(f"{path}:{lineno}: {_number_error(fields[1:])}")
        if not _rows_ok(parsed, row)[0]:
            return ValueError(f"{path}:{lineno}: non-finite coordinate")
        row += 1
    return ValueError(f"{path}: unreadable rows")


def _number_error(fields) -> str:
    """Python's message for the first of x, y, support that float or int rejects."""
    for text, convert in zip(fields, (float, float, int)):
        try:
            convert(text)
        except ValueError as exc:
            return str(exc)
    return f"could not convert {','.join(fields)!r} to x, y and support"


def select_trunk_points(cloud, params: TrunkExtractionParams | None = None) -> np.ndarray:
    """Indices of cloud points whose vertical probe lands near other geometry.

    For each point p the probe sits at p + (0, 0, probe_height); p survives
    when the cloud's nearest point to the probe is within probe_tolerance.
    Returned indices are ascending.
    """
    params = params or TrunkExtractionParams()
    pts = as_points(cloud, 3)
    if len(pts) == 0:
        raise EmptyCloudError("empty input cloud")
    probes = pts + np.array([0.0, 0.0, params.probe_height])
    tree = cKDTree(pts)
    dists, _ = tree.query(probes, workers=-1)
    return np.flatnonzero(dists <= params.probe_tolerance)


def _cluster_landmarks(points2, params: TrunkExtractionParams) -> tuple[np.ndarray, np.ndarray]:
    """(centroids (M, 2), sizes (M,)) of the single-linkage clusters of 2D points.

    Two points share a cluster when a chain of hops, each at most
    cluster_tolerance long, connects them.  Clusters smaller than
    min_cluster_size are dropped.  Rows come in label order, and
    connected_components numbers components by their lowest point index,
    so rows are ordered by each cluster's lowest member index.  A centroid
    is the mean of its members' x and y, summed in point order.

    An aggregated 10-scan cloud holds millions of linked pairs (7.7M on the
    heaviest of the benchmark's first drive-10f queries), so each
    pair-sized buffer is freed as soon as the next one exists.  The int64
    pairs (16 B a pair) go once their int32 rows and columns (8 B) do, and
    the COO matrix (16 B), which shares those, once its CSR form (12 B)
    does; connected_components then adds the transpose (12 B).  The peak
    is the COO and its CSR during tocsr, 28 B a pair; kept alive together,
    the buffers would reach 56 B.
    """
    pts = as_points(points2, 2)
    n = len(pts)
    pairs = cKDTree(pts).query_pairs(params.cluster_tolerance, output_type="ndarray")
    ij = np.ascontiguousarray(pairs.T, dtype=np.int32 if n < 2**31 else np.int64)
    del pairs
    adj = coo_matrix((np.ones(ij.shape[1]), (ij[0], ij[1])), shape=(n, n))
    del ij
    adj = adj.tocsr()
    _, labels = connected_components(adj, directed=False)
    sizes = np.bincount(labels)
    sums = np.column_stack([np.bincount(labels, weights=pts[:, k]) for k in (0, 1)])
    keep = sizes >= params.min_cluster_size
    return sums[keep] / sizes[keep, None], sizes[keep]


def cluster_trunk_points(
    points2, params: TrunkExtractionParams | None = None
) -> list[TrunkCluster]:
    """_cluster_landmarks rows as TrunkCluster records, in the same order.

    Kept because perfbench/workloads.py (run_traced) times clustering on
    its own and reads each record's .centroid and .size.
    """
    centroids, sizes = _cluster_landmarks(points2, params or TrunkExtractionParams())
    return [TrunkCluster(c, int(s)) for c, s in zip(centroids, sizes)]


def extract_trunk_map(cloud, params: TrunkExtractionParams | None = None) -> TrunkMap:
    """Full extraction: probe test, clustering, one centroid landmark per cluster row."""
    params = params or TrunkExtractionParams()
    pts = as_points(cloud, 3)
    keep = select_trunk_points(pts, params)
    positions, support = _cluster_landmarks(pts[keep][:, :2], params)
    return TrunkMap(positions=positions, support=support)

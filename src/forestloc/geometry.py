"""Planar rigid transforms, point-set coercion, and point-cloud text I/O.

Points are plain float arrays: shape (3,) / (N, 3) in 3D, (2,) / (N, 2) in
the plane.  Coordinates are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = theta % TWO_PI
    if r > math.pi:
        r -= TWO_PI
    return r


def as_points2(points) -> np.ndarray:
    """Coerce to a float (N, 2) array, rejecting NaN/inf coordinates."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (N, 2) planar points, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coordinate in point set")
    return arr


def as_cloud(points) -> np.ndarray:
    """Coerce to a float (N, 3) array, rejecting NaN/inf coordinates."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coordinate in point cloud")
    return arr


@dataclass(frozen=True, eq=False)
class RigidTransform2D:
    """Rotation by ``theta`` (radians, CCW) followed by a translation ``t``.

    ``theta`` is normalized to (-pi, pi] on construction and after every
    composition, so poses compare unambiguously.
    """

    theta: float
    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(2)
        if not (math.isfinite(self.theta) and np.isfinite(t).all()):
            raise ValueError("non-finite transform parameters")
        t.flags.writeable = False
        object.__setattr__(self, "theta", normalize_angle(float(self.theta)))
        object.__setattr__(self, "t", t)

    def rotation(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def apply(self, points) -> np.ndarray:
        """Map one point (2,) or many points (N, 2) through the transform."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation().T + self.t

    def compose(self, other: "RigidTransform2D") -> "RigidTransform2D":
        """Return the transform applying ``other`` first, then ``self``."""
        return RigidTransform2D(
            self.theta + other.theta, self.rotation() @ other.t + self.t
        )

    def inverse(self) -> "RigidTransform2D":
        c, s = math.cos(self.theta), math.sin(self.theta)
        rt = np.array([[c, s], [-s, c]])
        return RigidTransform2D(-self.theta, -(rt @ self.t))


def load_xyz(path) -> np.ndarray:
    """Read a plain-text cloud: one "x y z" line per point, '#' comments ignored."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            rows.append([float(p) for p in parts])
    return as_cloud(np.array(rows, dtype=float).reshape(-1, 3))


def save_xyz(path, cloud, comment: str | None = None) -> None:
    """Write a cloud in the plain-text "x y z" format read by :func:`load_xyz`."""
    pts = as_cloud(cloud)
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for x, y, z in pts:
            fh.write(f"{x:.6f} {y:.6f} {z:.6f}\n")

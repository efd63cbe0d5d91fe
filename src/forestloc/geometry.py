"""Planar rigid transforms, point-set coercion, and point-cloud text I/O.

Points are plain float arrays: shape (3,) / (N, 3) in 3D, (2,) / (N, 2) in
the plane.  Coordinates are meters.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(theta):
    """Wrap angles to (-pi, pi]: a float for a scalar, an array elementwise."""
    r = np.mod(theta, TWO_PI)
    r = np.where(r > math.pi, r - TWO_PI, r)
    return r if np.ndim(theta) else float(r)


def frozen(values, dtype, shape) -> np.ndarray:
    """A read-only copy of ``values`` cast to ``dtype`` and reshaped to ``shape``.

    Records hold these, so no array their caller keeps can change them.
    """
    arr = np.asarray(values, dtype=dtype).reshape(shape).copy()
    arr.flags.writeable = False
    return arr


def as_points(points, dim: int) -> np.ndarray:
    """Coerce to a float (N, dim) array, rejecting NaN/inf coordinates."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected (N, {dim}) points, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coordinate in point set")
    return arr


def _as_count(value, name: str) -> int:
    """``value`` as an int; ValueError unless ``operator.index`` takes it (no floats)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class RigidTransform2D:
    """Rotation by ``theta`` (radians, CCW) followed by a translation ``t``.

    ``theta`` is normalized to (-pi, pi] on construction and after every
    composition, so poses compare unambiguously.
    """

    theta: float
    t: np.ndarray

    def __post_init__(self):
        t = frozen(self.t, float, 2)
        if not (math.isfinite(self.theta) and np.isfinite(t).all()):
            raise ValueError("non-finite transform parameters")
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
    return as_points(np.array(rows, dtype=float).reshape(-1, 3), 3)


def save_xyz(path, cloud, comment: str | None = None) -> None:
    """Write a cloud in the plain-text "x y z" format read by :func:`load_xyz`."""
    np.savetxt(path, as_points(cloud, 3), fmt="%.6f", header=comment or "", encoding="utf-8")

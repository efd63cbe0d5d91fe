"""Synthetic forest stands and a vertical-cylinder lidar model.

Trees are infinite vertical cylinders on flat ground at z=0.  A scan
casts one horizontal ray fan (first cylinder hit wins) and expands it
across the elevation channels; rays aimed below the horizon return a
ground point when the ground plane is closer than any trunk.  Points
come out in the sensor frame: origin on the ground under the sensor,
x axis along the heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleForestError
from .geometry import TWO_PI, RigidTransform2D, _as_count, frozen
from .trunks import TrunkMap


# The stand: trunks at least MIN_SPACING apart, diameters ~ N(DBH_MEAN, DBH_STD).
MIN_SPACING = 1.5  # meters, center to center
# The placement grid: a cell of side MIN_SPACING / sqrt(2) holds at most one tree.
_CELL = MIN_SPACING / math.sqrt(2.0)
_MAX_CELLS = 10**7  # about 11 km^2 of stand
DBH_MEAN = 0.3  # trunk diameter, meters
DBH_STD = 0.08

# The scanner geometry; simulate_scan takes only the range noise sigma.
CHANNELS = 16
VERTICAL_FOV = 30.0  # degrees, full span, centered on the horizon
HORIZONTAL_FOV = 210.0  # degrees, centered on the heading
MAX_RANGE = 100.0  # meters
ANGULAR_RESOLUTION = 0.2  # degrees between azimuth steps
MOUNT_HEIGHT = 1.5  # meters

# Angular margin (radians) added to each trunk's azimuth window in
# _first_hits: a ray this far outside asin(r/d) misses by a gap far larger
# than the rounding of the ray-circle test, so no hit is ever skipped.
_WINDOW_PAD = 1e-6


def _check_noise(noise) -> None:
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")


@dataclass(frozen=True)
class ForestSpec:
    area: tuple = (200.0, 200.0)  # width, height in meters
    density: float = 350.0  # trees per hectare
    seed: int = 0

    def __post_init__(self):
        w, h = self.area
        if not all(math.isfinite(v) and v > 0 for v in (w, h)):
            raise ValueError(f"area sides must be finite and positive, got {self.area}")
        if not (math.isfinite(self.density) and self.density > 0):
            raise ValueError(f"density must be finite and positive, got {self.density}")
        if not math.isfinite(self.density * w * h / 10000.0):
            raise ValueError(f"tree count must be finite, got {self.density}/ha on {self.area}")
        if (int(w / _CELL) + 1) * (int(h / _CELL) + 1) > _MAX_CELLS:
            raise ValueError(f"stand {self.area} needs over {_MAX_CELLS} placement cells")
        _as_count(self.seed, "seed")


@dataclass(frozen=True)
class Forest:
    positions: np.ndarray  # (n, 2) trunk centers
    radii: np.ndarray  # (n,)

    def __post_init__(self):
        pos = frozen(self.positions, float, (-1, 2))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "radii", frozen(self.radii, float, len(pos)))

    def __len__(self) -> int:
        return len(self.positions)

    def to_trunk_map(self) -> TrunkMap:
        return TrunkMap(
            positions=self.positions,
            support=np.ones(len(self.positions), dtype=np.intp),
        )


def generate_forest(spec: ForestSpec) -> Forest:
    """Dart-throwing Poisson-disc sampling at the requested density.

    Deterministic for a fixed seed.  Raises InfeasibleForestError when
    the density cannot be packed at MIN_SPACING (fewer than 90% of the
    target placed within the attempt budget), before any dart when the
    grid has fewer cells than that.  A dart is tested against the trees
    in the 5x5 cells around its own, the only cells within MIN_SPACING.
    """
    rng = np.random.default_rng(spec.seed)
    w, h = spec.area
    target = int(round(spec.density * w * h / 10000.0))
    nx, ny = int(w / _CELL) + 1, int(h / _CELL) + 1
    if math.ceil(0.9 * target) > nx * ny:
        raise InfeasibleForestError(
            f"infeasible forest: {target} trees at spacing {MIN_SPACING} "
            f"exceed the {nx * ny} grid cells"
        )
    grid = np.full((nx, ny), -1, dtype=np.intp)
    placed = np.empty((target, 2))
    count = 0
    s2 = MIN_SPACING * MIN_SPACING
    for _ in range(200 * target):
        x = rng.uniform(0.0, w)
        y = rng.uniform(0.0, h)
        ix, iy = int(x / _CELL), int(y / _CELL)
        for j in grid[max(ix - 2, 0) : ix + 3, max(iy - 2, 0) : iy + 3].ravel().tolist():
            if j >= 0:
                dx, dy = placed[j, 0] - x, placed[j, 1] - y
                if dx * dx + dy * dy < s2:
                    break
        else:
            placed[count] = (x, y)
            grid[ix, iy] = count
            count += 1
            if count == target:
                break
    if count < math.ceil(0.9 * target):
        raise InfeasibleForestError(
            f"infeasible forest: placed {count} of {target} trees "
            f"at spacing {MIN_SPACING}"
        )
    radii = np.clip(rng.normal(DBH_MEAN, DBH_STD, count), 0.06, None) / 2.0
    return Forest(positions=placed[:count], radii=radii)


@dataclass(frozen=True)
class SimulatedScan:
    cloud: np.ndarray  # (P, 3) sensor-frame points
    true_pose: RigidTransform2D
    visible_trunk_ids: frozenset

    def __post_init__(self):
        object.__setattr__(self, "cloud", frozen(self.cloud, float, (-1, 3)))


def _first_hits(forest: Forest, pose: RigidTransform2D, az: np.ndarray):
    """Horizontal range and trunk index of each azimuth's first hit.

    A trunk at distance d with radius r can only be hit by rays within
    asin(r/d) of its bearing; with the sensor inside it, asin(1) = pi/2
    still holds every ray that points toward its center, and no other
    ray can hit (the hit distance b - sqrt(disc) needs a positive
    projection b).  Each window is padded by _WINDOW_PAD, far above the
    rounding of the ray test, and a ray-circle test decides on the
    (ray, trunk) pairs it lists.  A ray with no hit gets range inf and
    index -1; on a tie the lower trunk index wins.
    """
    n_az = len(az)
    rel = forest.positions - pose.t
    d2 = (rel**2).sum(axis=1)
    near = np.flatnonzero(d2 <= (MAX_RANGE + forest.radii.max(initial=0.0)) ** 2)
    rel, d2, radii = rel[near], d2[near], forest.radii[near]
    d = np.sqrt(d2)
    ratio = np.divide(radii, d, out=np.ones_like(d), where=d > radii)
    half_width = np.arcsin(ratio) + _WINDOW_PAD
    # the sensor-frame bearing lies in [-2pi, 2pi); it and its copies a turn
    # either way cover the fan, and windows at most pi/2 + pad wide on each
    # side of centers a turn apart never list the same ray
    bearing = np.arctan2(rel[:, 1], rel[:, 0]) - pose.theta
    res = math.radians(ANGULAR_RESOLUTION)  # ray k sits at az[0] + k * res
    centers = bearing + TWO_PI * np.array([[-1.0], [0.0], [1.0]])  # (3, n_near)
    lo = np.ceil((centers - half_width - az[0]) / res).ravel()
    hi = np.floor((centers + half_width - az[0]) / res).ravel()
    lo = np.clip(lo, 0, n_az).astype(np.intp)
    hi = np.clip(hi, -1, n_az - 1).astype(np.intp)
    count = np.maximum(hi - lo + 1, 0)
    tree = np.repeat(np.tile(np.arange(len(near)), 3), count)
    starts = np.repeat(np.cumsum(count) - count, count)
    ray = np.repeat(lo, count) + np.arange(len(tree)) - starts

    world_az = pose.theta + az
    b = np.cos(world_az)[ray] * rel[tree, 0] + np.sin(world_az)[ray] * rel[tree, 1]
    disc = b * b - (d2 - radii**2)[tree]
    s = b - np.sqrt(np.maximum(disc, 0.0))
    hit = (disc >= 0.0) & (s > 0.0)
    ray, tree, s = ray[hit], tree[hit], s[hit]
    order = np.lexsort((tree, s, ray))
    rays, first = np.unique(ray[order], return_index=True)
    s2d = np.full(n_az, np.inf)
    hit_tree = np.full(n_az, -1, dtype=np.intp)
    s2d[rays] = s[order[first]]
    hit_tree[rays] = near[tree[order[first]]]
    return s2d, hit_tree


def simulate_scan(
    forest: Forest,
    pose: RigidTransform2D,
    noise: float = 0.03,
    seed: int = 0,
) -> SimulatedScan:
    """One scan from ``pose`` with range noise sigma ``noise`` (m).

    Rows are ordered channel-major, azimuth-minor.
    """
    _check_noise(noise)
    rng = np.random.default_rng(seed)
    res = math.radians(ANGULAR_RESOLUTION)
    half = math.radians(HORIZONTAL_FOV) / 2.0
    n_az = int(round(math.radians(HORIZONTAL_FOV) / res))
    az = -half + (np.arange(n_az) + 0.5) * res  # sensor-frame azimuths
    elevations = np.radians(
        np.linspace(-VERTICAL_FOV / 2.0, VERTICAL_FOV / 2.0, CHANNELS)
    )
    # one row per channel: its cosine and the horizontal range to the
    # ground, inf for channels at or above the horizon
    cos_e = np.array([[math.cos(e)] for e in elevations])
    s_ground = np.array([[MOUNT_HEIGHT / -math.tan(e) if e < 0 else math.inf] for e in elevations])
    rho_ground = s_ground / cos_e

    s2d, hit_tree = _first_hits(forest, pose, az)
    rho_trunk = s2d / cos_e  # (channel, azimuth)
    take_trunk = (s2d < s_ground) & (rho_trunk <= MAX_RANGE)
    # the ground plane occludes any trunk surface farther along the ray
    take_ground = (s_ground <= s2d) & (rho_ground <= MAX_RANGE)
    ch, az_idx = np.nonzero(take_trunk | take_ground)  # channel-major, azimuth-minor
    rho = np.where(take_ground[ch, az_idx], rho_ground[ch, 0], rho_trunk[ch, az_idx])
    rho = rho + rng.normal(0.0, noise, len(rho))
    keep = (rho > 0.0) & (rho <= MAX_RANGE)
    az_idx, elevs, rho = az_idx[keep], elevations[ch[keep]], rho[keep]
    horiz = rho * np.cos(elevs)
    cloud = np.column_stack(
        [
            horiz * np.cos(az[az_idx]),
            horiz * np.sin(az[az_idx]),
            MOUNT_HEIGHT + rho * np.sin(elevs),
        ]
    )
    return SimulatedScan(
        cloud=cloud,
        true_pose=pose,
        visible_trunk_ids=frozenset(np.unique(hit_tree[take_trunk.any(axis=0)]).tolist()),
    )


def aggregate_scans(scans) -> np.ndarray:
    """Concatenate scans in the first scan's frame using true poses."""
    scans = list(scans)
    if not scans:
        raise ValueError("aggregate_scans needs at least one scan")
    base_inv = scans[0].true_pose.inverse()
    parts = [scans[0].cloud]
    for scan in scans[1:]:
        xy = base_inv.compose(scan.true_pose).apply(scan.cloud[:, :2])
        parts.append(np.column_stack([xy, scan.cloud[:, 2]]))
    return np.vstack(parts)

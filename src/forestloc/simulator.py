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
from .geometry import RigidTransform2D
from .trunks import TrunkMap


@dataclass(frozen=True)
class ForestSpec:
    area: tuple = (200.0, 200.0)  # width, height in meters
    density: float = 350.0  # trees per hectare
    min_spacing: float = 1.5  # minimum center-to-center distance
    dbh_mean: float = 0.3  # trunk diameter, meters
    dbh_std: float = 0.08
    seed: int = 0

    def __post_init__(self):
        w, h = self.area
        if w <= 0 or h <= 0:
            raise ValueError("area sides must be positive")
        if self.density <= 0:
            raise ValueError("density must be positive")
        if self.min_spacing <= 0:
            raise ValueError("min_spacing must be positive")
        if self.dbh_mean <= 0 or self.dbh_std < 0:
            raise ValueError("dbh parameters invalid")


@dataclass(frozen=True)
class Forest:
    positions: np.ndarray  # (n, 2) trunk centers
    radii: np.ndarray  # (n,)
    area: tuple

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 2)
        rad = np.asarray(self.radii, dtype=float).reshape(len(pos))
        pos.flags.writeable = False
        rad.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "radii", rad)

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
    the density cannot be packed at min_spacing (fewer than 90% of the
    target placed within the attempt budget).
    """
    rng = np.random.default_rng(spec.seed)
    w, h = spec.area
    target = int(round(spec.density * w * h / 10000.0))
    if target == 0:
        return Forest(positions=np.zeros((0, 2)), radii=np.zeros(0), area=spec.area)
    cell = spec.min_spacing / math.sqrt(2.0)
    nx, ny = int(w / cell) + 1, int(h / cell) + 1
    grid = np.full((nx, ny), -1, dtype=np.intp)
    placed = np.empty((target, 2))
    count = 0
    budget = 200 * target
    s2 = spec.min_spacing * spec.min_spacing
    for _ in range(budget):
        x = rng.uniform(0.0, w)
        y = rng.uniform(0.0, h)
        ix, iy = int(x / cell), int(y / cell)
        ok = True
        for gx in range(max(ix - 2, 0), min(ix + 3, nx)):
            for gy in range(max(iy - 2, 0), min(iy + 3, ny)):
                j = grid[gx, gy]
                if j >= 0:
                    dx = placed[j, 0] - x
                    dy = placed[j, 1] - y
                    if dx * dx + dy * dy < s2:
                        ok = False
                        break
            if not ok:
                break
        if not ok:
            continue
        placed[count] = (x, y)
        grid[ix, iy] = count
        count += 1
        if count == target:
            break
    if count < math.ceil(0.9 * target):
        raise InfeasibleForestError(
            f"infeasible forest: placed {count} of {target} trees "
            f"at spacing {spec.min_spacing}"
        )
    radii = np.clip(rng.normal(spec.dbh_mean, spec.dbh_std, count), 0.06, None) / 2.0
    return Forest(positions=placed[:count].copy(), radii=radii, area=spec.area)


@dataclass(frozen=True)
class ScannerSpec:
    channels: int = 16
    vertical_fov: float = 30.0  # degrees, full span, centered on the horizon
    horizontal_fov: float = 210.0  # degrees, centered on the heading
    max_range: float = 100.0
    range_noise_sigma: float = 0.03
    angular_resolution: float = 0.2  # degrees between azimuth steps
    mount_height: float = 1.5

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be at least 1")
        if not 0 < self.horizontal_fov <= 360.0:
            raise ValueError("horizontal_fov must be in (0, 360]")
        if self.vertical_fov <= 0 or self.max_range <= 0:
            raise ValueError("vertical_fov and max_range must be positive")
        if self.angular_resolution <= 0 or self.mount_height <= 0:
            raise ValueError("angular_resolution and mount_height must be positive")
        if self.range_noise_sigma < 0:
            raise ValueError("range_noise_sigma must be non-negative")


@dataclass(frozen=True)
class SimulatedScan:
    cloud: np.ndarray  # (P, 3) sensor-frame points
    true_pose: RigidTransform2D
    visible_trunk_ids: frozenset

    def __post_init__(self):
        c = np.asarray(self.cloud, dtype=float).reshape(-1, 3)
        c.flags.writeable = False
        object.__setattr__(self, "cloud", c)


def simulate_scan(
    forest: Forest,
    pose: RigidTransform2D,
    scanner: ScannerSpec | None = None,
    seed: int = 0,
) -> SimulatedScan:
    """One scan from ``pose``; rows ordered channel-major, azimuth-minor."""
    scanner = scanner or ScannerSpec()
    rng = np.random.default_rng(seed)
    res = math.radians(scanner.angular_resolution)
    half = math.radians(scanner.horizontal_fov) / 2.0
    n_az = int(round(math.radians(scanner.horizontal_fov) / res))
    az = -half + (np.arange(n_az) + 0.5) * res  # sensor-frame azimuths
    elevations = np.radians(
        np.linspace(-scanner.vertical_fov / 2.0, scanner.vertical_fov / 2.0, scanner.channels)
    )

    # horizontal prepass: first cylinder hit along each azimuth
    s2d = np.full(n_az, np.inf)
    hit_tree = np.full(n_az, -1, dtype=np.intp)
    if len(forest) > 0:
        rel = forest.positions - pose.t
        near = np.flatnonzero(
            (rel**2).sum(axis=1) <= (scanner.max_range + forest.radii.max()) ** 2
        )
        if len(near) > 0:
            rel = rel[near]
            world_az = pose.theta + az
            dirs = np.column_stack([np.cos(world_az), np.sin(world_az)])
            b = dirs @ rel.T  # (n_az, n_near) projection onto each ray
            c0 = (rel**2).sum(axis=1) - forest.radii[near] ** 2
            disc = b * b - c0[None, :]
            s = b - np.sqrt(np.maximum(disc, 0.0))
            s[(disc < 0.0) | (s <= 0.0)] = np.inf
            first = np.argmin(s, axis=1)
            rows = np.arange(n_az)
            s2d = s[rows, first]
            hit_tree = np.where(np.isfinite(s2d), near[first], -1)

    trunk_hit = np.isfinite(s2d)
    az_parts, elev_parts, rho_parts = [], [], []
    visible = set()
    for elev in elevations:
        cos_e = math.cos(elev)
        rho_trunk = s2d / cos_e
        if elev < 0.0:
            s_ground = scanner.mount_height / -math.tan(elev)
            rho_ground = s_ground / cos_e
            ground_ok = rho_ground <= scanner.max_range
        else:
            s_ground, rho_ground, ground_ok = np.inf, np.inf, False
        take_trunk = trunk_hit & (s2d < s_ground) & (rho_trunk <= scanner.max_range)
        # the ground plane occludes any trunk surface farther along the ray
        take_ground = (s_ground <= s2d) if ground_ok else np.zeros(n_az, dtype=bool)
        idx = np.flatnonzero(take_trunk | take_ground)
        if len(idx) == 0:
            continue
        is_ground = take_ground[idx]
        visible.update(int(v) for v in hit_tree[idx[~is_ground]])
        az_parts.append(idx)
        elev_parts.append(np.full(len(idx), elev))
        rho_parts.append(np.where(is_ground, rho_ground, rho_trunk[idx]))

    az_idx = np.concatenate(az_parts) if az_parts else np.zeros(0, np.intp)
    elevs = np.concatenate(elev_parts) if elev_parts else np.zeros(0)
    rho = np.concatenate(rho_parts) if rho_parts else np.zeros(0)
    if scanner.range_noise_sigma > 0 and len(rho):
        rho = rho + rng.normal(0.0, scanner.range_noise_sigma, len(rho))
    keep = (rho > 0.0) & (rho <= scanner.max_range)
    az_idx, elevs, rho = az_idx[keep], elevs[keep], rho[keep]
    horiz = rho * np.cos(elevs)
    cloud = np.column_stack(
        [
            horiz * np.cos(az[az_idx]),
            horiz * np.sin(az[az_idx]),
            scanner.mount_height + rho * np.sin(elevs),
        ]
    )
    return SimulatedScan(
        cloud=cloud, true_pose=pose, visible_trunk_ids=frozenset(visible)
    )


def aggregate_scans(scans) -> np.ndarray:
    """Concatenate scans in the first scan's frame using true poses."""
    scans = list(scans)
    if not scans:
        raise ValueError("aggregate_scans needs at least one scan")
    base_inv = scans[0].true_pose.inverse()
    parts = []
    for i, scan in enumerate(scans):
        if i == 0:
            parts.append(np.array(scan.cloud))
            continue
        rel = base_inv.compose(scan.true_pose)
        xy = rel.apply(scan.cloud[:, :2])
        parts.append(np.column_stack([xy, scan.cloud[:, 2]]))
    return np.vstack(parts)

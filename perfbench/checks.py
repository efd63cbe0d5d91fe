"""Ground-truth checks on the program's answers.

Everything here is computed from the simulator's truth, apart from the
program: the bounds are fixed in this file, not read from forestloc.
"""

from __future__ import annotations

import math

import numpy as np

# The success bounds of the frames-aggregation benchmark (BenchmarkConfig).
TRANS_BOUND_M = 0.5
ROT_BOUND_DEG = 2.23
# A landmark is the centroid of points that passed the probe test: trunk
# surface, and ground returns whose probe lands on the trunk, so within the
# probe tolerance (0.25 m) of the bark; 0.05 m more covers the 3 cm range
# noise.  Trunks stand at least 1.5 m apart, so the nearest axis is unique.
LANDMARK_MARGIN_M = 0.30


def pose_error(pose, truth) -> tuple[float, float]:
    """(translation error in metres, rotation error in degrees)."""
    trans = float(np.hypot(*(np.asarray(pose.t) - truth.t)))
    dtheta = math.remainder(pose.theta - truth.theta, 2.0 * math.pi)
    return trans, abs(math.degrees(dtheta))


def pose_ok(pose, truth) -> bool:
    trans, rot = pose_error(pose, truth)
    return trans < TRANS_BOUND_M and rot < ROT_BOUND_DEG


def landmarks_ok(local_positions, truth, trunk_tree, radii) -> bool:
    """Each landmark lies within its radius plus the margin of a distinct trunk axis.

    ``local_positions`` are in the query's frame; ``truth`` carries them
    into the stand, whose trunk axes ``trunk_tree`` indexes.
    """
    world = truth.apply(np.asarray(local_positions, dtype=float).reshape(-1, 2))
    if len(world) == 0:
        return False
    dist, idx = trunk_tree.query(world)
    inside = dist <= radii[idx] + LANDMARK_MARGIN_M
    return bool(inside.all()) and len(np.unique(idx)) == len(idx)

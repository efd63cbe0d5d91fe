"""Seeded corruption sweep: natural-stand windows with missed and spurious landmarks.

A harvester's scans miss trunks and pick up stumps and bushes; the
simulated stands have neither.  Each query here takes the WINDOW trunks
nearest a random site of an 8,750-trunk stand, drops a share of them,
scatters as many spurious landmarks uniformly over the window's disc,
moves the set into a random frame and adds 5 cm of noise.  Every query
ends in one of three ways: a pose within the success bounds, a typed
ForestLocError, or a silent wrong pose.
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.spatial import cKDTree

from forestloc.dtgraph import triangulate
from forestloc.errors import ForestLocError
from forestloc.geometry import RigidTransform2D, normalize_angle
from forestloc.matching import localize
from forestloc.pipeline import SUCCESS_ROTATION_DEG, SUCCESS_TRANSLATION
from forestloc.simulator import ForestSpec, generate_forest

STAND = ForestSpec(area=(500.0, 500.0), density=350.0, seed=401)
WINDOW = 175  # trunks nearest the site: a disc of ~40 m radius
SITE_MARGIN = 50.0  # keeps each window wholly inside the stand
NOISE = 0.05  # meters
WINDOWS_PER_LEVEL = 300

# share missed (and as many spurious) -> (least successes, most silent
# wrong poses) of WINDOWS_PER_LEVEL windows: the counts the sweep gave when
# it was added.  A matcher change may better them, never worsen them.
LEVELS = {0.0: (300, 0), 0.2: (300, 0), 0.3: (274, 18)}


@pytest.fixture(scope="module")
def stand():
    positions = generate_forest(STAND).to_trunk_map().positions
    graph = triangulate(positions)
    graph.star_index  # built once here, not inside the first query
    return positions, cKDTree(positions), graph


def corrupted_window(rng, positions, tree, share):
    """A site pose and the local landmarks seen from it, corrupted by share."""
    site = RigidTransform2D(
        rng.uniform(-math.pi, math.pi),
        rng.uniform(SITE_MARGIN, np.array(STAND.area) - SITE_MARGIN),
    )
    dist, ids = tree.query(site.t, k=WINDOW)
    n = round(share * WINDOW)
    kept = positions[rng.choice(ids, WINDOW - n, replace=False)]
    r = dist[-1] * np.sqrt(rng.random(n))
    phi = rng.uniform(-math.pi, math.pi, n)
    spurious = site.t + np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    local = site.inverse().apply(np.vstack([kept, spurious]))
    return site, local + rng.normal(0.0, NOISE, local.shape)


def sweep(positions, tree, graph_map, share, windows):
    """Counter of outcomes ("success", "typed error", "silent wrong") at one level."""
    rng = np.random.default_rng(round(100 * share))
    outcomes = Counter()
    for _ in range(windows):
        site, local = corrupted_window(rng, positions, tree, share)
        try:
            pose = localize(triangulate(local), graph_map).pose
        except ForestLocError:
            outcomes["typed error"] += 1
            continue
        trans = float(np.hypot(*(pose.t - site.t)))
        rot = abs(math.degrees(normalize_angle(pose.theta - site.theta)))
        ok = trans < SUCCESS_TRANSLATION and rot < SUCCESS_ROTATION_DEG
        outcomes["success" if ok else "silent wrong"] += 1
    return outcomes


@pytest.mark.parametrize("share", sorted(LEVELS))
def test_corruption_sweep(stand, share):
    """No fewer successes and no more silent wrong poses than the recorded counts."""
    least_success, most_wrong = LEVELS[share]
    outcomes = sweep(*stand, share, WINDOWS_PER_LEVEL)
    assert outcomes["success"] >= least_success, outcomes
    assert outcomes["silent wrong"] <= most_wrong, outcomes

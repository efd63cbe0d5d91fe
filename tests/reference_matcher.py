"""The exhaustive reference matcher the matching tests check localize against.

Not a test module: the test files import it by name.  It scores every
(local star, global star, center-corner bijection) triple with the
library's rigid fit and polishes its own real-valued objective by
Nelder-Mead, so it shares only the fit kernels with localize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
from scipy.optimize import minimize

from forestloc.dtgraph import DTGraph
from forestloc.errors import NoOverlapError
from forestloc.geometry import RigidTransform2D
from forestloc.matching import MatchParams, _complex, _fit

# The six aligned arrays that hold a result's matches, one row per matched local star.
MATCH_ARRAYS = ("local_rows", "map_rows", "paired", "thetas", "translations", "residuals")


@dataclass(frozen=True)
class OracleResult:
    """brute_force_match_oracle's pose and residual, with its matches as
    the same six arrays as a LocalizationResult."""

    pose: RigidTransform2D
    residual: float
    local_rows: np.ndarray = field(repr=False, compare=False)
    map_rows: np.ndarray = field(repr=False, compare=False)
    paired: np.ndarray = field(repr=False, compare=False)
    thetas: np.ndarray = field(repr=False, compare=False)
    translations: np.ndarray = field(repr=False, compare=False)
    residuals: np.ndarray = field(repr=False, compare=False)


def brute_force_match_oracle(
    graph_local: DTGraph, graph_map: DTGraph, params: MatchParams | None = None
) -> OracleResult:
    """Exhaustive reference matcher for small graphs.

    Scores every (local star, global star, center-corner bijection)
    triple with the shared rigid fit (_fit, all six bijections of a pair
    in one call; a bijection with no fit is skipped), keeps the per-star
    best by (residual, global center, bijection) among tolerance-passing
    global stars, and polishes the joint objective by Nelder-Mead from
    every candidate transform.  The matches come back as localize's
    arrays, one row per matched local star, in star order.
    """
    params = params or MatchParams()
    perms = np.array(list(permutations(range(3))))
    columns = np.hstack([perms, perms + 3])  # row p: corners, then apexes, permuted by p
    local, table = graph_local.star_table, graph_map.star_table
    accepted = []
    for lrow, (local_ids, f) in enumerate(zip(local.vertices, local.features)):
        zl = np.tile(_complex(graph_local.points[local_ids]), (len(perms), 1))
        passing = ~(np.abs(table.features - f) / f > params.feature_tolerance).any(axis=1)
        best = None
        for mrow in np.flatnonzero(passing).tolist():
            global_ids = table.vertices[mrow][columns]
            theta, t, residual = _fit(zl, _complex(graph_map.points[global_ids]))
            for pi in np.flatnonzero(residual < np.inf).tolist():
                key = (float(residual[pi]), int(table.centers[mrow]), pi)
                if best is None or key < best[0]:
                    best = (key, (lrow, mrow, global_ids[pi], theta[pi], t[pi], residual[pi]))
        if best is not None:
            accepted.append(best[1])
    if not accepted:
        raise NoOverlapError("no overlap")
    local_rows, map_rows, paired, thetas, translations, residuals = map(np.array, zip(*accepted))
    vl = graph_local.points[local.vertices[local_rows].ravel()]
    vg = graph_map.points[paired.ravel()]

    def objective(p):
        cb, sb = math.cos(p[0]), math.sin(p[0])
        rx = vl[:, 0] * cb - vl[:, 1] * sb + p[1] - vg[:, 0]
        ry = vl[:, 0] * sb + vl[:, 1] * cb + p[2] - vg[:, 1]
        return float(np.sqrt(rx * rx + ry * ry).sum())

    seeds = np.column_stack([thetas, translations])
    seeds = np.vstack([seeds, np.median(seeds, axis=0)])
    best = None
    for seed in seeds.tolist():
        direct = (objective(seed), *seed)
        if best is None or direct < best:
            best = direct
        result = minimize(
            objective,
            x0=np.array(seed),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000, "maxfev": 4000},
        )
        refined = (float(result.fun), float(result.x[0]), float(result.x[1]), float(result.x[2]))
        if refined < best:
            best = refined
    return OracleResult(
        pose=RigidTransform2D(best[1], np.array([best[2], best[3]])),
        residual=best[0],
        local_rows=local_rows,
        map_rows=map_rows,
        paired=paired,
        thetas=thetas,
        translations=translations,
        residuals=residuals,
    )

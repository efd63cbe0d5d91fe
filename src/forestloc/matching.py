"""Matching a local triangulation against the global map.

The pipeline per local star: find global stars with componentwise-similar
feature vectors (the map's log-feature kd-tree narrows the search, an
exact relative-tolerance test decides), pair up the 6 star vertices
(most-similar center edge, then an orientation side test, then neighbor
apexes via the shared edges), and fit a rigid transform per candidate
from the centered-vector rotation candidates.  Verification then scores
every surviving candidate transform (plus their componentwise median) on
the summed pair residual of all matched vertices and polishes the best
one by iteratively reweighted least squares, each step a closed-form
weighted Procrustes fit.  The returned transform maps local coordinates
into the global frame.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import permutations

import numpy as np
from scipy.optimize import minimize

from .dtgraph import DTGraph, TriangleDescriptor, TriangleStar, log_star_features
from .errors import (
    AmbiguousCorrespondenceError,
    DegenerateStarError,
    InsufficientMatchesError,
    NoOverlapError,
    SizeCapError,
)
from .geometry import RigidTransform2D, normalize_angle

_IRLS_RTOL = 1e-12  # stop once a step lowers the residual by less than this fraction
_IRLS_MAX_ITER = 2000  # safety bound only; convergence ends the loop in practice
_IRLS_MIN_DIST = 1e-12  # meters: floor under 1/d so exact pairs keep a finite weight
# Star-index search pad: relative on the tolerance and absolute on the
# log-space radius, far above the rounding of either test.
_INDEX_PAD = 1e-9
_INDEX_CHUNK = 64  # local stars per index query: bounds the live hit lists


@dataclass(frozen=True)
class MatchParams:
    """Tunables for candidate search and geometric verification.

    feature_tolerance: max per-component relative deviation of an 8-vector.
    max_candidates_per_star: cap per local star, by ascending deviation.
    min_matches: fewer accepted star matches than this is an error.
    squared_residual: sum squared pair distances instead of unsquared;
        verification then is a least-squares fit, solved in closed form.
    edge_tie_tolerance: center-edge pairings within this of the best
        length difference count as ambiguous and are all evaluated.
    """

    feature_tolerance: float = 0.05
    max_candidates_per_star: int = 8
    min_matches: int = 1
    squared_residual: bool = False
    edge_tie_tolerance: float = 1e-6

    def __post_init__(self):
        if self.feature_tolerance <= 0:
            raise ValueError("feature_tolerance must be positive")
        if self.max_candidates_per_star < 1:
            raise ValueError("max_candidates_per_star must be at least 1")
        if self.min_matches < 1:
            raise ValueError("min_matches must be at least 1")
        if self.edge_tie_tolerance < 0:
            raise ValueError("edge_tie_tolerance must be non-negative")


@dataclass(frozen=True)
class Correspondence:
    """A matched star pair with its 6-vertex bijection.

    local_vertices[i] pairs with global_vertices[i]; the first three are
    the center triangles' corners, the last three the neighbor apexes.
    candidate_angles, transform, and residual are filled by
    estimate_transform.
    """

    star_local: TriangleStar
    star_global: TriangleStar
    local_vertices: tuple
    global_vertices: tuple
    candidate_angles: np.ndarray | None = None
    transform: RigidTransform2D | None = None
    residual: float | None = None

    def mapping(self) -> dict:
        return dict(zip(self.local_vertices, self.global_vertices))


@dataclass(frozen=True)
class LocalizationResult:
    pose: RigidTransform2D
    residual: float
    match_count: int
    candidate_count: int
    elapsed: dict
    correspondences: tuple


@dataclass(frozen=True)
class OracleResult:
    correspondences: tuple
    pose: RigidTransform2D
    residual: float


def dissimilarity(d1: TriangleDescriptor, d2: TriangleDescriptor) -> float:
    """|A2 - A1| + |l2 - l1|: zero iff equal shape, symmetric, rigid-invariant."""
    return abs(d2.area - d1.area) + abs(d2.sq_perimeter - d1.sq_perimeter)


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def orientation_consistency(a, b, c, m, n, h) -> float:
    """Product of the two triangles' orientation cross products.

    Positive when (a, b, c) and (m, n, h) wind the same way: the third
    vertices then sit on the same side of their respective first edges.
    Rigid motions of either triangle preserve the sign; reflecting one
    flips it.
    """
    a, b, c = (np.asarray(p, dtype=float) for p in (a, b, c))
    m, n, h = (np.asarray(p, dtype=float) for p in (m, n, h))
    return _cross2(a - c, b - c) * _cross2(m - h, n - h)


def _candidate_indices(
    features: np.ndarray, global_features: np.ndarray, params: MatchParams, rows=None
):
    """Indices of tolerance-passing global stars, by ascending total deviation.

    Only the given rows of global_features are tested; all rows by default.
    Ties in deviation go to the lower index.
    """
    if rows is None:
        rows = np.arange(len(global_features))
    if len(rows) == 0:
        return []
    rel = np.abs(global_features[rows] - features) / features
    ok = (rel <= params.feature_tolerance).all(axis=1)
    if not ok.any():
        return []
    idx = rows[ok]
    dev = rel[ok].sum(axis=1)
    order = np.lexsort((idx, dev))
    return list(idx[order[: params.max_candidates_per_star]])


def _index_hits(graph_map: DTGraph, local_features: np.ndarray, tolerance: float):
    """Per local star in turn, the map-star rows the star index cannot rule out.

    For tol < 1, |g - f| <= tol * f puts every log feature of g within
    -log1p(-tol) of f's (the wider side of the band).  The tolerance and
    the radius are both padded by _INDEX_PAD, so a star the exact test
    keeps is always a hit.  From tolerance 1 on the band has no lower
    end, and every map star is a hit.
    """
    padded = tolerance * (1.0 + _INDEX_PAD)
    if not padded < 1.0:
        every = np.arange(len(graph_map.star_features))
        for _ in range(len(local_features)):
            yield every
        return
    radius = _INDEX_PAD - math.log1p(-padded)
    logs = log_star_features(local_features)
    for start in range(0, len(logs), _INDEX_CHUNK):
        chunk = logs[start : start + _INDEX_CHUNK]
        for hits in graph_map.star_index.query_ball_point(chunk, radius, p=np.inf):
            yield np.array(hits, dtype=np.intp)


def find_candidate_stars(local_star: TriangleStar, global_stars, params: MatchParams | None = None):
    """Global stars whose features match componentwise within tolerance."""
    params = params or MatchParams()
    global_stars = tuple(global_stars)
    feats = (
        np.vstack([s.features for s in global_stars])
        if global_stars
        else np.zeros((0, 8))
    )
    idx = _candidate_indices(local_star.features, feats, params)
    return [global_stars[i] for i in idx]


def _assemble_pairing(
    star_local: TriangleStar,
    star_global: TriangleStar,
    points_local: np.ndarray,
    points_global: np.ndarray,
    j: int,
    k: int,
) -> Correspondence:
    """Build the full 6-vertex pairing from one center-edge pairing.

    Corner j of the local center triangle pairs with corner k of the
    global one.  The side test (sign of the orientation product) settles
    which of the two remaining corner pairings is geometrically
    consistent, and the neighbor apexes follow the already-paired shared
    edges.
    """
    lv = star_local.center_vertices
    gv = star_global.center_vertices
    pa = points_local[lv[j]]
    pb = points_local[lv[(j + 1) % 3]]
    pc = points_local[lv[(j + 2) % 3]]
    pm = points_global[gv[k]]
    pn = points_global[gv[(k + 1) % 3]]
    ph = points_global[gv[(k + 2) % 3]]
    sigma = {j: k}
    if orientation_consistency(pa, pb, pc, pm, pn, ph) >= 0.0:
        sigma[(j + 1) % 3] = (k + 1) % 3
        sigma[(j + 2) % 3] = (k + 2) % 3
    else:
        sigma[(j + 1) % 3] = (k + 2) % 3
        sigma[(j + 2) % 3] = (k + 1) % 3
    apex_local = dict(zip(star_local.opposite_corners, star_local.apex_vertices))
    apex_global = dict(zip(star_global.opposite_corners, star_global.apex_vertices))
    local_ids = tuple(lv) + tuple(apex_local[c] for c in range(3))
    global_ids = tuple(gv[sigma[c]] for c in range(3)) + tuple(
        apex_global[sigma[c]] for c in range(3)
    )
    return Correspondence(
        star_local=star_local,
        star_global=star_global,
        local_vertices=local_ids,
        global_vertices=global_ids,
    )


def correspond_vertices(
    star_local: TriangleStar,
    star_global: TriangleStar,
    points_local: np.ndarray,
    points_global: np.ndarray,
    params: MatchParams | None = None,
) -> Correspondence:
    """Pair the 6 star vertices; the transform fields stay unfilled.

    Center-edge pairings tied within edge_tie_tolerance of the most
    similar length difference are all expanded to full pairings and
    scored by post-transform residual; a residual tie within 1e-6 raises
    "ambiguous correspondence".
    """
    params = params or MatchParams()
    lv = star_local.center_vertices
    gv = star_global.center_vertices
    pl = points_local[list(lv)]
    pg = points_global[list(gv)]
    # edge opposite corner j runs between the other two corners
    le = np.array([np.linalg.norm(pl[(j + 1) % 3] - pl[(j + 2) % 3]) for j in range(3)])
    ge = np.array([np.linalg.norm(pg[(k + 1) % 3] - pg[(k + 2) % 3]) for k in range(3)])
    diff = np.abs(le[:, None] - ge[None, :])
    best = diff.min()
    seeds = [(j, k) for j in range(3) for k in range(3) if diff[j, k] <= best + params.edge_tie_tolerance]
    pairings = {}
    for j, k in seeds:
        corr = _assemble_pairing(star_local, star_global, points_local, points_global, j, k)
        pairings.setdefault((corr.local_vertices, corr.global_vertices), corr)
    candidates = list(pairings.values())
    if len(candidates) == 1:
        return candidates[0]
    scored = []
    for corr in candidates:
        try:
            est = estimate_transform(corr, points_local, points_global)
        except DegenerateStarError:
            continue
        scored.append((est.residual, corr))
    if not scored:
        raise DegenerateStarError("degenerate star geometry")
    scored.sort(key=lambda item: item[0])
    if len(scored) > 1 and scored[1][0] - scored[0][0] <= 1e-6:
        raise AmbiguousCorrespondenceError("ambiguous correspondence")
    return scored[0][1]


def estimate_transform(
    corr: Correspondence,
    points_local: np.ndarray,
    points_global: np.ndarray,
    squared_residual: bool = False,
) -> Correspondence:
    """Fit the rigid transform implied by a 6-vertex pairing.

    Candidate rotations are the angles turning each centered local vertex
    onto its centered partner; the one with the least summed rotation-fit
    error wins.  Vertices whose centered vector on either side is shorter
    than 1e-9 m contribute no candidate.  The translation then maps the
    rotated local centroid onto the global one.  Returns a copy of corr
    with candidate_angles, transform, and residual filled.
    """
    vl = points_local[list(corr.local_vertices)]
    vg = points_global[list(corr.global_vertices)]
    cl = vl.mean(axis=0)
    cg = vg.mean(axis=0)
    u = vl - cl
    w = vg - cg
    nu = np.linalg.norm(u, axis=1)
    nw = np.linalg.norm(w, axis=1)
    valid = (nu >= 1e-9) & (nw >= 1e-9)
    if not valid.any():
        raise DegenerateStarError("degenerate star geometry")
    uu, ww = u[valid], w[valid]
    betas = np.arctan2(
        uu[:, 0] * ww[:, 1] - uu[:, 1] * ww[:, 0], (uu * ww).sum(axis=1)
    )
    cos_b, sin_b = np.cos(betas), np.sin(betas)
    rx = u[:, 0][None, :] * cos_b[:, None] - u[:, 1][None, :] * sin_b[:, None]
    ry = u[:, 0][None, :] * sin_b[:, None] + u[:, 1][None, :] * cos_b[:, None]
    fit = np.hypot(rx - w[:, 0][None, :], ry - w[:, 1][None, :]).sum(axis=1)
    order = np.lexsort((betas, fit))
    theta = float(betas[order[0]])
    c, s = math.cos(theta), math.sin(theta)
    t = cg - np.array([c * cl[0] - s * cl[1], s * cl[0] + c * cl[1]])
    transform = RigidTransform2D(theta, t)
    moved = transform.apply(vl)
    dists = np.linalg.norm(moved - vg, axis=1)
    residual = float((dists**2).sum() if squared_residual else dists.sum())
    return replace(
        corr, candidate_angles=betas, transform=transform, residual=residual
    )


def verification_residual(
    transform: RigidTransform2D,
    correspondences,
    points_local: np.ndarray,
    points_global: np.ndarray,
    squared_residual: bool = False,
) -> float:
    """Summed pair distance over every matched vertex pair."""
    vl, vg = _stack_pairs(correspondences, points_local, points_global)
    moved = transform.apply(vl)
    d = np.linalg.norm(moved - vg, axis=1)
    return float((d**2).sum() if squared_residual else d.sum())


def _stack_pairs(correspondences, points_local, points_global):
    li = [i for corr in correspondences for i in corr.local_vertices]
    gi = [i for corr in correspondences for i in corr.global_vertices]
    return points_local[li], points_global[gi]


def _mad_filter(correspondences):
    """Drop transform outliers beyond 3 MADs of the componentwise medians.

    Angles are compared as offsets from the lowest-residual candidate's
    angle so a cluster straddling the -pi/pi seam stays intact.  The
    filter only applies when at least 4 candidates survive it.
    """
    if len(correspondences) < 4:
        return list(correspondences)
    ref = min(correspondences, key=lambda c: c.residual).transform.theta
    delta = np.array(
        [normalize_angle(c.transform.theta - ref) for c in correspondences]
    )
    tx = np.array([c.transform.t[0] for c in correspondences])
    ty = np.array([c.transform.t[1] for c in correspondences])
    keep = np.ones(len(correspondences), dtype=bool)
    for comp in (delta, tx, ty):
        med = np.median(comp)
        mad = np.median(np.abs(comp - med))
        keep &= np.abs(comp - med) <= 3.0 * mad + 1e-6
    if keep.sum() >= 4:
        return [c for c, k in zip(correspondences, keep) if k]
    return list(correspondences)


def _pair_distances(theta, x, y, vl, vg) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    rx = vl[:, 0] * c - vl[:, 1] * s + x - vg[:, 0]
    ry = vl[:, 0] * s + vl[:, 1] * c + y - vg[:, 1]
    return np.hypot(rx, ry)


def _weighted_procrustes(vl, vg, w):
    """Rigid (theta, x, y) minimizing sum w_i |R vl_i + t - vg_i|^2 (closed form)."""
    w = w / w.sum()
    cl = w @ vl
    cg = w @ vg
    u = vl - cl
    v = vg - cg
    theta = math.atan2(
        float(w @ (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])), float(w @ (u * v).sum(axis=1))
    )
    c, s = math.cos(theta), math.sin(theta)
    return theta, float(cg[0] - (c * cl[0] - s * cl[1])), float(cg[1] - (s * cl[0] + c * cl[1]))


def _verify(vl, vg, seeds, squared):
    """Minimize the summed pair residual, starting from the best seed.

    Every seed (beta, x, y) is scored directly; the lowest by
    (residual, beta, x, y) starts the solve, so seed order cannot change
    the result.  The squared objective is a least-squares fit, solved
    exactly by one uniform-weight Procrustes step.  The unsquared one is
    minimized by Weiszfeld-style iteratively reweighted least squares:
    each step is a Procrustes fit with weights 1/d_i from the current pair
    distances, which never raises the summed distance (Weiszfeld 1937).
    The loop stops once a step lowers the residual by less than
    _IRLS_RTOL of its value.  The refined pose replaces the best seed only
    if its residual is lower.  Returns (beta, x, y, residual).
    """

    def score(beta, x, y):
        d = _pair_distances(beta, x, y, vl, vg)
        return float((d * d).sum() if squared else d.sum())

    best = min((score(*seed),) + tuple(seed) for seed in seeds)
    if squared:
        pose = _weighted_procrustes(vl, vg, np.ones(len(vl)))
        refined = (score(*pose),) + pose
    else:
        refined = best
        d = _pair_distances(*best[1:], vl, vg)
        for _ in range(_IRLS_MAX_ITER):
            pose = _weighted_procrustes(vl, vg, 1.0 / np.maximum(d, _IRLS_MIN_DIST))
            d = _pair_distances(*pose, vl, vg)
            step = (float(d.sum()),) + pose
            converged = refined[0] - step[0] <= _IRLS_RTOL * refined[0]
            refined = min(refined, step)
            if converged:
                break
    if refined[0] < best[0]:
        best = refined
    return best[1], best[2], best[3], best[0]


def _accepted_correspondences(graph_local, graph_map, params):
    """Per local star, the lowest-residual tolerance-passing candidate."""
    global_stars = graph_map.interior_stars
    feats = graph_map.star_features
    hits = _index_hits(graph_map, graph_local.star_features, params.feature_tolerance)
    accepted = []
    candidate_count = 0
    for ls, rows in zip(graph_local.interior_stars, hits):
        idx = _candidate_indices(ls.features, feats, params, rows)
        candidate_count += len(idx)
        best = None
        for i in idx:
            gs = global_stars[i]
            try:
                corr = correspond_vertices(
                    ls, gs, graph_local.points, graph_map.points, params
                )
                est = estimate_transform(
                    corr, graph_local.points, graph_map.points, params.squared_residual
                )
            except (AmbiguousCorrespondenceError, DegenerateStarError):
                continue
            key = (est.residual, gs.center)
            if best is None or key < best[0]:
                best = (key, est)
        if best is not None:
            accepted.append(best[1])
    return accepted, candidate_count


def localize(
    graph_local: DTGraph,
    graph_map: DTGraph,
    params: MatchParams | None = None,
) -> LocalizationResult:
    """Estimate the rigid transform taking local coordinates to map coordinates.

    Raises NoOverlapError when no local star finds any feature candidate,
    and InsufficientMatchesError when fewer than min_matches stars match.
    """
    params = params or MatchParams()
    t_start = time.perf_counter()
    graph_map.star_features  # build the offline side first so timings split cleanly
    graph_map.star_index
    graph_local.star_features
    t_stars = time.perf_counter()
    accepted, candidate_count = _accepted_correspondences(graph_local, graph_map, params)
    if candidate_count == 0:
        raise NoOverlapError("no overlap")
    if len(accepted) < params.min_matches:
        raise InsufficientMatchesError("insufficient matches", match_count=len(accepted))
    t_match = time.perf_counter()
    kept = _mad_filter(accepted)
    thetas = np.array([c.transform.theta for c in kept])
    txs = np.array([c.transform.t[0] for c in kept])
    tys = np.array([c.transform.t[1] for c in kept])
    vl, vg = _stack_pairs(kept, graph_local.points, graph_map.points)
    seeds = [
        (float(np.mod(c.transform.theta, 2.0 * math.pi)), float(c.transform.t[0]), float(c.transform.t[1]))
        for c in kept
    ]
    ref = thetas[0]
    deltas = np.array([normalize_angle(t - ref) for t in thetas])
    seeds.append(
        (
            float(np.mod(ref + np.median(deltas), 2.0 * math.pi)),
            float(np.median(txs)),
            float(np.median(tys)),
        )
    )
    beta, x, y, residual = _verify(vl, vg, seeds, params.squared_residual)
    t_verify = time.perf_counter()
    pose = RigidTransform2D(beta, np.array([x, y]))
    return LocalizationResult(
        pose=pose,
        residual=residual,
        match_count=len(accepted),
        candidate_count=candidate_count,
        elapsed={
            "stars": t_stars - t_start,
            "matching": t_match - t_stars,
            "verification": t_verify - t_match,
            "total": t_verify - t_start,
        },
        correspondences=tuple(accepted),
    )


def brute_force_match_oracle(
    graph_local: DTGraph, graph_map: DTGraph, params: MatchParams | None = None
) -> OracleResult:
    """Exhaustive reference matcher for small graphs (test oracle).

    Scores every (local star, global star, center-corner bijection)
    triple with the shared transform estimator, keeps the per-star best
    among tolerance-passing global stars, and polishes the joint
    objective by Nelder-Mead from every candidate transform.
    """
    params = params or MatchParams()
    if graph_local.n_vertices > 50 or graph_map.n_vertices > 50:
        raise SizeCapError("size cap exceeded")
    global_stars = graph_map.interior_stars
    accepted = []
    for ls in graph_local.interior_stars:
        best = None
        for gi, gs in enumerate(global_stars):
            rel = np.abs(gs.features - ls.features) / ls.features
            if (rel > params.feature_tolerance).any():
                continue
            apex_local = dict(zip(ls.opposite_corners, ls.apex_vertices))
            apex_global = dict(zip(gs.opposite_corners, gs.apex_vertices))
            for pi, perm in enumerate(permutations(range(3))):
                local_ids = tuple(ls.center_vertices) + tuple(
                    apex_local[c] for c in range(3)
                )
                global_ids = tuple(gs.center_vertices[perm[c]] for c in range(3)) + tuple(
                    apex_global[perm[c]] for c in range(3)
                )
                corr = Correspondence(
                    star_local=ls,
                    star_global=gs,
                    local_vertices=local_ids,
                    global_vertices=global_ids,
                )
                try:
                    est = estimate_transform(
                        corr, graph_local.points, graph_map.points, params.squared_residual
                    )
                except DegenerateStarError:
                    continue
                key = (est.residual, gs.center, pi)
                if best is None or key < best[0]:
                    best = (key, est)
        if best is not None:
            accepted.append(best[1])
    if not accepted:
        raise NoOverlapError("no overlap")
    vl, vg = _stack_pairs(accepted, graph_local.points, graph_map.points)
    squared = params.squared_residual

    def objective(p):
        cb, sb = math.cos(p[0]), math.sin(p[0])
        rx = vl[:, 0] * cb - vl[:, 1] * sb + p[1] - vg[:, 0]
        ry = vl[:, 0] * sb + vl[:, 1] * cb + p[2] - vg[:, 1]
        d2 = rx * rx + ry * ry
        return float(d2.sum() if squared else np.sqrt(d2).sum())

    seeds = [
        (c.transform.theta, float(c.transform.t[0]), float(c.transform.t[1]))
        for c in accepted
    ]
    seeds.append(
        (
            float(np.median([s[0] for s in seeds])),
            float(np.median([s[1] for s in seeds])),
            float(np.median([s[2] for s in seeds])),
        )
    )
    best = None
    for seed in seeds:
        direct = (objective(seed),) + tuple(seed)
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
    pose = RigidTransform2D(best[1], np.array([best[2], best[3]]))
    return OracleResult(
        correspondences=tuple(accepted), pose=pose, residual=best[0]
    )

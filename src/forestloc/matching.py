"""Matching a local triangulation against the global map.

The pipeline per local star: find global stars with componentwise-similar
feature vectors (the map's log-feature kd-tree narrows the search, in one
bounded k-nearest query for all local stars plus a ball query for each
star with more hits than it returns, and an exact relative-tolerance
test decides), pair up the 6 star vertices (the most-similar center
edge fixes a rotation of the CCW corner order, and the neighbor apexes
follow the shared edges), and fit a rigid transform per candidate and
tied rotation from the centered-vector rotation candidates.  One call
pairs and fits every candidate, and matches are rows of aligned arrays from
the star tables through verification and into the result, one row per
matched local star; the exhaustive reference matcher in
tests/reference_matcher.py returns the same arrays.
Verification scores every accepted match's transform (plus their
componentwise median) on the summed pair residual of all matched
vertices in one call and polishes the best one by iteratively
reweighted least squares, each step a closed-form weighted Procrustes
fit whose weights shrink with a pair's distance, so outlying matches
pull little.  A vertex pair shared by several matches is summed once,
weighted by how many of them hold it, which is the sum over every
match's pairs.  The returned transform maps local coordinates into the
global frame.  The fit and verification kernels take gathered vertex
rows as complex numbers z = x + iy (graph points stay (N, 2) floats): a
pose (theta, x, y) moves z to z e^(i theta) + (x + iy), and a pair
distance is an abs.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dtgraph import DTGraph, TriangleDescriptor, log_star_features
from .errors import InsufficientMatchesError, NoOverlapError
from .geometry import TWO_PI, RigidTransform2D, _as_count, normalize_angle

_IRLS_RTOL = 1e-12  # stop once a step lowers the residual by less than this fraction
_IRLS_MAX_ITER = 2000  # safety bound only; convergence ends the loop in practice
_IRLS_MIN_DIST = 1e-12  # meters: floor under 1/d so exact pairs keep a finite weight
# Star-index search pad: relative on the tolerance and absolute on the
# log-space radius, far above the rounding of either test.
_INDEX_PAD = 1e-9
_KNN_HITS = 16  # neighbours the first star-index pass finds per local star
_MAX_CANDIDATES_PER_STAR = 8  # cap per local star, by ascending deviation
# Center-edge pairings within this (m) of the best length difference count
# as tied and are all evaluated.
_EDGE_TIE_TOLERANCE = 1e-6
# Row o gathers a star's 6 vertex columns in rotation o of the corner order:
# corner c goes to (c + o) % 3, and the apex opposite it with it.
_ROTATIONS = np.array([[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4]])


@dataclass(frozen=True)
class MatchParams:
    """The matcher's two settings.

    feature_tolerance: max per-component relative deviation of an 8-vector.
    min_matches: fewer accepted star matches than this is an error.
    """

    feature_tolerance: float = 0.05
    min_matches: int = 1

    def __post_init__(self):
        if not self.feature_tolerance > 0:
            raise ValueError("feature_tolerance must be positive")
        if _as_count(self.min_matches, "min_matches") < 1:
            raise ValueError("min_matches must be at least 1")


@dataclass(frozen=True)
class LocalizationResult:
    """The pose of the local frame in the map frame, and how it was found.

    residual: summed pair distance under pose, over the vertex pairs of
        the accepted matches; each distinct (local, map) vertex pair
        counts once per match holding it, and is summed once with that
        multiplicity.
    candidate_count: tolerance-passing (local, map) star pairs tried.
    irls_steps: reweighting steps the verification solve took; it stops
        at _IRLS_MAX_ITER (2,000) if it has not converged by then.
    elapsed: seconds per stage, keyed "stars", "matching", "verification",
        and "total".

    The accepted matches, one per matched local star (match_count of
    them, in star order), are aligned arrays:
    local_rows and map_rows index the two graphs' star tables, paired
    holds the map vertex ids paired with the local star's vertices (the
    local graph's star_table.vertices row), and thetas, translations and
    residuals the pair's own rigid fit (see _fit).
    """

    pose: RigidTransform2D
    residual: float
    match_count: int
    candidate_count: int
    irls_steps: int
    elapsed: dict
    local_rows: np.ndarray = field(repr=False, compare=False)
    map_rows: np.ndarray = field(repr=False, compare=False)
    paired: np.ndarray = field(repr=False, compare=False)  # (match_count, 6)
    thetas: np.ndarray = field(repr=False, compare=False)
    translations: np.ndarray = field(repr=False, compare=False)  # (match_count, 2)
    residuals: np.ndarray = field(repr=False, compare=False)


def dissimilarity(d1: TriangleDescriptor, d2: TriangleDescriptor) -> float:
    """|A2 - A1| + |l2 - l1|: zero iff equal shape, symmetric, rigid-invariant."""
    return abs(d2.area - d1.area) + abs(d2.sq_perimeter - d1.sq_perimeter)


def _index_hits(graph_local: DTGraph, graph_map: DTGraph, tolerance: float):
    """Blocks of (local row, map row) arrays that hold every passing pair once.

    For tol < 1, |g - f| <= tol * f puts every log feature of g within
    -log1p(-tol) of f's (the wider side of the band), so padded by
    _INDEX_PAD the star index finds every passing star; at tolerance >= 1
    the radius is infinite.  One bounded _KNN_HITS-nearest query covers
    all local stars; a star whose last neighbour is within the radius may
    have more, and each such star gets a ball query of its own.  A local
    star's hits all lie in one block.
    """
    n_map = len(graph_map.star_features)
    if n_map == 0:
        return
    padded = tolerance * (1.0 + _INDEX_PAD)
    radius = _INDEX_PAD - math.log1p(-padded) if padded < 1.0 else math.inf
    keys = log_star_features(graph_local.star_features)
    k = min(_KNN_HITS, n_map)
    _, nearest = graph_map.star_index.query(
        keys, k=k, p=np.inf, distance_upper_bound=np.nextafter(radius, np.inf)
    )
    nearest = nearest.reshape(len(keys), k)
    hit = nearest < n_map
    overflow = np.flatnonzero(hit[:, -1])
    hit[overflow] = False
    lrow, col = np.nonzero(hit)
    yield lrow, nearest[lrow, col]
    for row in overflow.tolist():
        hits = graph_map.star_index.query_ball_point(keys[row], radius, p=np.inf)
        yield np.full(len(hits), row), np.array(hits, dtype=np.intp)


def _candidates(graph_local: DTGraph, graph_map: DTGraph, tolerance: float):
    """Every candidate (local star row, map star row) pair, as a (2, K) array.

    A map star passes when no feature deviates from the local star's by
    more than tolerance times the local value; each local star keeps its
    _MAX_CANDIDATES_PER_STAR passing stars of least summed deviation, ties
    to the lower row, in local row order.  The star index narrows the
    search (see _index_hits) and the exact test decides.
    """
    local, table = graph_local.star_features, graph_map.star_features
    pairs = [np.zeros((2, 0), dtype=np.intp)]
    for lrow, mrow in _index_hits(graph_local, graph_map, tolerance):
        f = local[lrow]
        rel = np.abs(table[mrow] - f) / f
        ok = np.flatnonzero((rel <= tolerance).all(axis=1))
        ok = ok[np.lexsort((mrow[ok], rel[ok].sum(axis=1), lrow[ok]))]
        rank = np.arange(len(ok)) - np.searchsorted(lrow[ok], lrow[ok])
        ok = ok[rank < _MAX_CANDIDATES_PER_STAR]
        pairs.append(np.stack([lrow[ok], mrow[ok]]))
    pairs = np.hstack(pairs)
    return pairs[:, np.argsort(pairs[0], kind="stable")]


def _complex(points: np.ndarray) -> np.ndarray:
    """(..., 2) float rows as complex numbers x + iy (a view where they are contiguous)."""
    return np.ascontiguousarray(points, dtype=np.float64).view(np.complex128)[..., 0]


def _fit(zl: np.ndarray, zg: np.ndarray):
    """Rigid fits of N paired vertex rows: (thetas, translations, residuals).

    zl[n, i] pairs with zg[n, i], both complex.  Per row, candidate
    rotations are the angles turning each centered local vertex onto its
    centered partner; the one with the least summed rotation-fit error
    wins, ties to the lower angle.  Vertices whose centered vector on
    either side is shorter than 1e-9 m contribute no candidate, and a row
    left with none gets residual inf.  The translation maps the rotated
    local centroid onto the global one.  Thetas come back wrapped to
    (-pi, pi], as a RigidTransform2D holds them.
    """
    cl, cg = zl.mean(axis=1), zg.mean(axis=1)
    u, w = zl - cl[:, None], zg - cg[:, None]
    valid = (np.abs(u) >= 1e-9) & (np.abs(w) >= 1e-9)
    betas = np.angle(u.conj() * w)
    # fit[n, i]: row n's centered pairs, the local side turned by betas[n, i]
    fit = np.abs(u[:, None] * np.exp(1j * betas)[..., None] - w[:, None]).sum(axis=2)
    fit[~valid] = np.inf
    order = np.lexsort((betas, fit), axis=1)
    found = np.take_along_axis(betas, order[:, :1], axis=1)[:, 0]
    t = cg - cl * np.exp(1j * found)
    theta = normalize_angle(found)
    residual = _residual((theta[:, None], t.real[:, None], t.imag[:, None]), zl, zg)
    residual[~valid.any(axis=1)] = np.inf
    return theta, np.column_stack([t.real, t.imag]), residual


def _pair_and_fit(local_ids, global_ids, points_local, points_global):
    """Pair and fit K candidate star pairs, given as (K, 6) vertex id rows.

    Rows are in pairing order (three CCW center corners, then the apexes
    opposite corners 0, 1 and 2).  Local corner j pairs with global corner
    k for the center-edge pair (j, k) of most similar length, which fixes
    the rotation (k - j) % 3 of the corner order; the apexes follow their
    corners.  Both center triangles are CCW, so rotations are the only
    pairings that are not reflections.  Center-edge pairs tied within
    _EDGE_TIE_TOLERANCE of the best length difference add their rotations.
    Only those rotations are fitted.  One rotation is taken as is; of
    several, the lowest fit residual wins, and a tie within 1e-6 makes the
    pair ambiguous.

    Returns (paired global ids (K, 6), thetas, translations, residuals,
    ambiguous flags); a residual of inf marks a pair with no fit, whose
    theta and translation mean nothing.
    """
    zl = _complex(points_local[local_ids])
    zg = _complex(points_global[global_ids])
    # the edge opposite corner j runs between the other two corners
    le = np.abs(zl[:, [1, 2, 0]] - zl[:, [2, 0, 1]])
    ge = np.abs(zg[:, [1, 2, 0]] - zg[:, [2, 0, 1]])
    diff = np.abs(le[:, :, None] - ge[:, None, :])
    tied = diff <= diff.min(axis=(1, 2), keepdims=True) + _EDGE_TIE_TOLERANCE
    # rotation o holds the center-edge pairs (j, (j + o) % 3)
    rotations = tied[:, np.arange(3), _ROTATIONS[:, :3]].any(axis=2)
    paired = global_ids[:, _ROTATIONS]
    k = len(local_ids)
    cand, rot = np.nonzero(rotations)
    theta, t = np.full((k, 3), np.nan), np.full((k, 3, 2), np.nan)
    residual = np.full((k, 3), np.inf)
    theta[cand, rot], t[cand, rot], residual[cand, rot] = _fit(
        zl[cand], zg[cand[:, None], _ROTATIONS[rot]]
    )
    ranked = np.sort(residual, axis=1)
    # a pair with no finite fit has no gap to tie (inf - inf would be NaN)
    gap = np.full(k, np.inf)
    np.subtract(ranked[:, 1], ranked[:, 0], out=gap, where=np.isfinite(ranked[:, 0]))
    ambiguous = (rotations.sum(axis=1) > 1) & (gap <= 1e-6)
    pick = np.argmin(residual, axis=1)
    rows = np.arange(k)
    return paired[rows, pick], theta[rows, pick], t[rows, pick], ranked[:, 0], ambiguous


def _unique_pairs(local_ids, global_ids, points_local, points_global):
    """The distinct (local id, global id) pairs as complex (zl, zg, multiplicities).

    Pair i of the inputs pairs local_ids[i] with global_ids[i]; each
    distinct pair comes back once, in (local id, global id) order, with
    the number of times it occurs.  A local vertex paired with two global
    vertices stays two pairs.  Summing m times the pair distance over
    them equals summing the distance over the input pairs.
    """
    n_global = len(points_global)
    keys = local_ids.astype(np.int64) * n_global + global_ids
    keys, m = np.unique(keys, return_counts=True)
    return _complex(points_local[keys // n_global]), _complex(points_global[keys % n_global]), m


def _residual(pose, zl, zg, m=1):
    """Summed pair distance |zl e^(i theta) + (x + iy) - zg| under pose = (theta, x, y).

    zl[i] pairs with zg[i], both complex, and counts m[i] times.  Poses
    broadcast: theta, x and y of shape (S, 1) give S sums.
    """
    theta, x, y = pose
    return (np.abs(zl * np.exp(1j * theta) + (x + 1j * y) - zg) * m).sum(axis=-1)


def _verify(zl, zg, m, seeds):
    """Minimize the summed pair residual, starting from the best seed.

    zl[i] pairs with zg[i], both complex, and counts m[i] times (see
    _unique_pairs).  Every seed (beta, x, y), a row of seeds, is scored by
    _residual in one broadcast call; the lowest by (residual, beta, x, y)
    starts the solve, so seed order cannot change the result.  The solve
    is Weiszfeld-style iteratively reweighted least squares: each step is
    a Procrustes fit with weights w_i = m_i/d_i from the current pair
    distances, which never raises the residual (Weiszfeld 1937).  With u
    and v the pairs centered on their means, one weighted sum over the
    rows [conj(u) v, u, v, 1] gives the fit: its rotation is the angle of
    sum w conj(u) v - conj(sum w u) sum w v / sum w.  The loop stops once a
    step lowers the residual by less than _IRLS_RTOL of its value, and its
    pose replaces the best seed only if its residual is lower.  Returns
    (beta, x, y, residual, IRLS steps taken).
    """
    scores = _residual(seeds.T[:, :, None], zl, zg, m)
    first = np.lexsort((seeds[:, 2], seeds[:, 1], seeds[:, 0], scores))[0]
    best = (float(scores[first]), *seeds[first])
    refined = best
    d = _residual(seeds[first], zl[:, None], zg[:, None])  # the seed's pair distances
    m = m.astype(np.float64)
    cl, cg = complex(zl.mean()), complex(zg.mean())
    u, v = zl - cl, zg - cg
    moments = np.stack([u.conj() * v, u, v, np.ones_like(u)], axis=1).view(np.float64)
    steps = 0
    while steps < _IRLS_MAX_ITER:
        steps += 1
        w = m / np.maximum(d, _IRLS_MIN_DIST)
        uv, su, sv, sw = (w @ moments).view(np.complex128).tolist()
        r = uv - su.conjugate() * sv / sw.real
        theta = math.atan2(r.imag, r.real)
        turn = cmath.exp(1j * theta)
        t = cg + sv / sw.real - (cl + su / sw.real) * turn
        d = np.abs(zl * turn + t - zg)
        step = (float(d @ m), theta, t.real, t.imag)
        converged = refined[0] - step[0] <= _IRLS_RTOL * refined[0]
        refined = min(refined, step)
        if converged:
            break
    if refined[0] < best[0]:
        best = refined
    return best[1], best[2], best[3], best[0], steps


def localize(
    graph_local: DTGraph,
    graph_map: DTGraph,
    params: MatchParams | None = None,
) -> LocalizationResult:
    """Estimate the rigid transform taking local coordinates to map coordinates.

    Each local star accepts its candidate fit of lowest (residual, map
    center) that is neither ambiguous nor unfittable.  Raises
    NoOverlapError when no local star finds any feature candidate, and
    InsufficientMatchesError when fewer than min_matches stars match.
    """
    params = params or MatchParams()
    t_start = time.perf_counter()
    graph_map.star_features  # build the offline side first so timings split cleanly
    graph_map.star_index
    graph_local.star_features
    t_stars = time.perf_counter()
    local, table = graph_local.star_table, graph_map.star_table
    lrow, mrow = _candidates(graph_local, graph_map, params.feature_tolerance)
    if len(lrow) == 0:
        raise NoOverlapError("no overlap")
    paired, theta, t, residual, ambiguous = _pair_and_fit(
        local.vertices[lrow], table.vertices[mrow], graph_local.points, graph_map.points
    )
    ok = np.flatnonzero(~ambiguous & (residual < np.inf))
    ok = ok[np.lexsort((table.centers[mrow[ok]], residual[ok], lrow[ok]))]
    _, first = np.unique(lrow[ok], return_index=True)
    accepted = ok[first]  # candidate rows, one per matched local star, in star order
    if len(accepted) < params.min_matches:
        raise InsufficientMatchesError("insufficient matches", match_count=len(accepted))
    t_match = time.perf_counter()
    seeds = np.column_stack([theta[accepted], t[accepted]])
    offsets = normalize_angle(seeds[:, 0] - seeds[0, 0])
    median = np.median(np.column_stack([offsets, seeds[:, 1:]]), axis=0)
    seeds = np.vstack([seeds, median + [seeds[0, 0], 0.0, 0.0]])
    seeds[:, 0] = np.mod(seeds[:, 0], TWO_PI)
    pair_ids = (local.vertices[lrow[accepted]].ravel(), paired[accepted].ravel())
    zl, zg, m = _unique_pairs(*pair_ids, graph_local.points, graph_map.points)
    beta, x, y, residual_sum, steps = _verify(zl, zg, m, seeds)
    t_verify = time.perf_counter()
    return LocalizationResult(
        pose=RigidTransform2D(beta, np.array([x, y])),
        residual=residual_sum,
        match_count=len(accepted),
        candidate_count=len(lrow),
        irls_steps=steps,
        elapsed={
            "stars": t_stars - t_start,
            "matching": t_match - t_stars,
            "verification": t_verify - t_match,
            "total": t_verify - t_start,
        },
        local_rows=lrow[accepted],
        map_rows=mrow[accepted],
        paired=paired[accepted],
        thetas=theta[accepted],
        translations=t[accepted],
        residuals=residual[accepted],
    )


"""Seeded inputs for the forestloc benchmark workloads.

Every input is a function of the workload seed and the query index, so
one seed always yields the same scans, landmark windows and poses.
Input generation is never inside a timed span: it stands in for the
sensor, not for the program under test.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from forestloc import (
    ForestSpec,
    RigidTransform2D,
    TrunkExtractionParams,
    TrunkMap,
    aggregate_scans,
    cluster_trunk_points,
    generate_forest,
    load_graph,
    localize,
    run_pipeline,
    save_graph,
    select_trunk_points,
    simulate_scan,
    triangulate,
)

# The stand of the acceptance latency test: 2,200 trunks.
DRIVE_STAND = ForestSpec(area=(250.0, 250.0), density=352.0, seed=2)
# The extraction settings of the program's own frames-aggregation benchmark.
DRIVE_EXTRACTION = TrunkExtractionParams(probe_tolerance=0.25)
ROUTE_STEP_M = 1.0  # one scan per metre driven
ROUTE_RADIUS_M = 60.0  # counter-clockwise circle around the stand centre

LANDMARK_AREA = (500.0, 500.0)  # 8,750 trunks at 350 per hectare
LANDMARK_DENSITY = 350.0
LANDMARK_WINDOW = 175  # trunks nearest the site: a disc of ~40 m radius
LANDMARK_SITE_MARGIN_M = 50.0  # keeps each window wholly inside the stand
LANDMARK_NOISE_M = 0.05


@dataclass(frozen=True)
class Query:
    """One localization request and the simulator's answer to it.

    ``cloud`` holds an aggregated lidar cloud (drive workloads) and
    ``landmarks`` a local landmark set (landmark workload); the other is
    None.  ``truth`` maps the query's local frame into the map frame.
    """

    qid: int
    truth: RigidTransform2D
    cloud: np.ndarray | None = None
    landmarks: np.ndarray | None = None
    gen_s: float = 0.0  # wall time spent generating this query's input


def _localize_traced(graph_local, graph_map, qid, tracer, counts):
    """Local star table and localize, each in its own span."""
    with tracer.span("dtgraph.local_stars", qid):
        graph_local.star_features
    with tracer.span("matching.localize", qid) as parent:
        start = time.perf_counter()
        result = localize(graph_local, graph_map)
    n_stars = len(graph_local.interior_stars)
    counts["trunks.landmarks"] = graph_local.n_vertices
    counts["dtgraph.local_stars"] = n_stars
    counts["matching.candidates"] = result.candidate_count
    counts["matching.matches"] = result.match_count
    counts["matching.match_ratio"] = result.match_count / max(n_stars, 1)
    # localize times its own stages; they become child spans of its call
    stages = result.elapsed
    if all(k in stages for k in ("stars", "matching", "verification")):
        search = start + stages["stars"]
        verify = search + stages["matching"]
        tracer.add("matching.search", search, verify, qid, parent)
        tracer.add("matching.verify", verify, verify + stages["verification"], qid, parent)
    return result.pose


class DriveWorkload:
    """A vehicle drives a circle through the stand, one scan per metre.

    Query k aggregates scans k .. k+frames-1 in the newest scan's frame,
    so each query simulates one new scan.  The route is the same for
    every seed: the cost of a query depends strongly on how close the
    route passes to trunks, and a run holds only ~12 10-frame queries, so
    a route drawn per seed made run medians differ by up to 2x.  The seed
    draws the range noise of every scan.
    """

    map_step = "map_triangulate"

    def __init__(self, frames: int, seed: int):
        self.frames = frames
        self.seed = seed
        self.forest = generate_forest(DRIVE_STAND)
        self.trunk_tree = cKDTree(self.forest.positions)

    def route_pose(self, k: int) -> RigidTransform2D:
        w, h = DRIVE_STAND.area
        phi = k * ROUTE_STEP_M / ROUTE_RADIUS_M
        position = np.array([w / 2.0, h / 2.0]) + ROUTE_RADIUS_M * np.array(
            [math.cos(phi), math.sin(phi)]
        )
        return RigidTransform2D(phi + math.pi / 2.0, position)

    def scan(self, k: int):
        return simulate_scan(self.forest, self.route_pose(k), seed=[self.seed, k])

    def build_map(self):
        """The map set-up users pay once: triangulate the stand's trunks."""
        return triangulate(self.forest.to_trunk_map())

    def run(self, graph_map, query):
        """The query through the public entry point: (pose, landmarks)."""
        result = run_pipeline(query.cloud, graph_map, DRIVE_EXTRACTION)
        return result.localization.pose, result.trunk_map.positions

    def run_traced(self, graph_map, query, tracer):
        """The same query one layer call at a time: (pose, landmarks, counts).

        Mirrors extract_trunk_map and run_pipeline so that the answer
        must equal the one from ``run``.
        """
        qid, cloud = query.qid, query.cloud
        with tracer.span("pipeline.query", qid):
            with tracer.span("trunks.probe", qid):
                keep = select_trunk_points(cloud, DRIVE_EXTRACTION)
            with tracer.span("trunks.cluster", qid):
                clusters = cluster_trunk_points(cloud[keep][:, :2], DRIVE_EXTRACTION)
                trunk_map = TrunkMap(
                    positions=np.array([c.centroid for c in clusters]).reshape(-1, 2),
                    support=np.array([c.size for c in clusters], dtype=np.intp),
                )
            with tracer.span("dtgraph.local_triangulate", qid):
                graph = triangulate(trunk_map)
            counts = {"trunks.points": len(cloud), "trunks.probe_kept": len(keep)}
            pose = _localize_traced(graph, graph_map, qid, tracer, counts)
        return pose, trunk_map.positions, counts

    def queries(self):
        window = []
        for qid in itertools.count():
            t0 = time.perf_counter()
            while len(window) < self.frames:
                window.append(self.scan(qid + len(window)))
            cloud = aggregate_scans(window[::-1])
            gen_s = time.perf_counter() - t0
            yield Query(qid, window[-1].true_pose, cloud=cloud, gen_s=gen_s)
            window.pop(0)


class LandmarkWorkload:
    """Windows of true trunks around random sites in an 8,750-trunk map.

    The map is written with ``save_graph`` when the inputs are made and
    read back with ``load_graph`` as the timed set-up.  Each query holds
    the LANDMARK_WINDOW trunks nearest a random site, in a frame centred on
    the site with a random heading, each moved by Gaussian noise.  A fixed
    count rather than a fixed radius keeps the work per query steadier.
    """

    map_step = "map_load"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.forest = generate_forest(
            ForestSpec(area=LANDMARK_AREA, density=LANDMARK_DENSITY, seed=seed)
        )
        self.map_path = workdir / f"landmarks-8k-map-{seed}.json"
        save_graph(triangulate(self.forest.to_trunk_map()), self.map_path)
        self.trunk_tree = cKDTree(self.forest.positions)

    def build_map(self):
        """The map set-up users pay once: read the stored graph."""
        return load_graph(self.map_path)

    def run(self, graph_map, query):
        """Triangulate the landmarks and localize: (pose, None)."""
        return localize(triangulate(query.landmarks), graph_map).pose, None

    def run_traced(self, graph_map, query, tracer):
        """The same query one layer call at a time: (pose, None, counts)."""
        qid = query.qid
        with tracer.span("pipeline.query", qid):
            with tracer.span("dtgraph.local_triangulate", qid):
                graph = triangulate(query.landmarks)
            counts = {"trunks.points": 0, "trunks.probe_kept": 0}
            pose = _localize_traced(graph, graph_map, qid, tracer, counts)
        return pose, None, counts

    def queries(self):
        rng = np.random.default_rng([self.seed, 1])
        lo = LANDMARK_SITE_MARGIN_M
        hi = np.array(LANDMARK_AREA) - lo
        for qid in itertools.count():
            t0 = time.perf_counter()
            site = RigidTransform2D(rng.uniform(-math.pi, math.pi), rng.uniform(lo, hi))
            _, ids = self.trunk_tree.query(site.t, k=LANDMARK_WINDOW)
            ids = np.sort(ids)
            local = site.inverse().apply(self.forest.positions[ids])
            local = local + rng.normal(0.0, LANDMARK_NOISE_M, local.shape)
            gen_s = time.perf_counter() - t0
            yield Query(qid, site, landmarks=local, gen_s=gen_s)


# name -> factory(seed, workdir)
WORKLOADS = {
    "drive-10f": lambda seed, workdir: DriveWorkload(10, seed),
    "drive-3f": lambda seed, workdir: DriveWorkload(3, seed),
    "landmarks-8k": LandmarkWorkload,
}

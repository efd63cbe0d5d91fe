"""The forestloc benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload drive-10f --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory and nowhere else.  The map is set up several times
and the median set-up time reported.  Queries then run one at a
time, each checked against the simulator's truth, until the next one
would end past ``--seconds``.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics.  With ``--trace 1`` each query runs twice, once
through the public entry point and once layer by layer with spans kept
in memory; the last line carries the per-layer metrics and the spans
are written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"  # metric names and units
OUT_DIR = BENCH_DIR / "out"
SETUP_MIN_REPEATS = 5  # set-up repeats at least this often and for at least
SETUP_MIN_SECONDS = 2.0  # this long, so its median spans the machine's jitter
# Peak memory is read after this many queries, so that it does not depend
# on how many queries fit in the run.
PEAK_QUERIES = 8
# The spans that tile a traced query.  A workload that skips one reports it
# as 0 s; localize's own stages are reported only when it times them.
LAYER_SPANS = (
    "trunks.probe",
    "trunks.cluster",
    "dtgraph.local_triangulate",
    "dtgraph.local_stars",
    "matching.localize",
)
LOCALIZE_STAGES = ("matching.search", "matching.verify")


def import_program():
    """Put the checkout's sources first on the path; fail if there are none."""
    package = SRC_DIR / "forestloc"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no forestloc package at {package}")
    sys.path.insert(0, str(SRC_DIR))
    import forestloc

    if Path(forestloc.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported forestloc from {forestloc.__file__}, not {package}")


class Tracer:
    """Spans kept in memory: name, start, end, parent span and query id."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self._open = []

    def add(self, name, start, end, qid=None, parent=None):
        if parent is None and self._open:
            parent = self._open[-1]
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start - self.origin,
                "end": end - self.origin,
                "parent": parent,
                "query": qid,
            }
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name, qid=None):
        """Time the body; spans opened inside it get this one as parent."""
        sid = self.add(name, time.perf_counter(), math.nan, qid)
        self._open.append(sid)
        try:
            yield sid
        finally:
            self._open.pop()
            self.spans[sid]["end"] = time.perf_counter() - self.origin

    def durations(self, qid) -> dict:
        return {
            s["name"]: s["end"] - s["start"] for s in self.spans if s["query"] == qid
        }

    def write(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh)


def set_up(workload, tracer):
    """Build the map repeatedly; return it with the median set-up timings."""
    build_s, stars_s = [], []
    while len(build_s) < SETUP_MIN_REPEATS or sum(build_s) + sum(stars_s) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        graph = workload.build_map()
        t1 = time.perf_counter()
        graph.star_features  # the star table users pay once per map
        t2 = time.perf_counter()
        build_s.append(t1 - t0)
        stars_s.append(t2 - t1)
        if tracer is not None:
            parent = tracer.add("pipeline.setup", t0, t2)
            tracer.add(f"dtgraph.{workload.map_step}", t0, t1, parent=parent)
            tracer.add("dtgraph.map_stars", t1, t2, parent=parent)
    total = [b + s for b, s in zip(build_s, stars_s)]
    layers = {
        "dtgraph.map_triangulate_s": 0.0,
        "dtgraph.map_load_s": 0.0,
        f"dtgraph.{workload.map_step}_s": statistics.median(build_s),
        "dtgraph.map_stars_s": statistics.median(stars_s),
        "dtgraph.map_stars": len(graph.interior_stars),
    }
    return graph, statistics.median(total), layers


def same_answer(a, b) -> bool:
    """Equal poses and equal landmark sets, bit for bit."""
    (pose_a, lm_a), (pose_b, lm_b) = a, b
    if pose_a.theta != pose_b.theta or not np.array_equal(pose_a.t, pose_b.t):
        return False
    if lm_a is None or lm_b is None:
        return lm_a is None and lm_b is None
    return np.array_equal(lm_a, lm_b)


def measure(workload, graph_map, seconds, tracer):
    """Run queries until the next would end past ``seconds``; check each one."""
    from forestloc import ForestLocError

    stats = {"attempted": 0, "failed": 0, "wrong": 0, "wall_s": 0.0, "peak_rss_mb": None}
    times, errors, layer_rows = [], [], []
    queries = workload.queries()
    start = time.perf_counter()
    last = 0.0
    while stats["attempted"] == 0 or time.perf_counter() - start + last <= seconds:
        t_iter = time.perf_counter()
        query = next(queries)
        if tracer is not None:
            tracer.add("simulator.scan", t_iter, t_iter + query.gen_s, query.qid)
        stats["attempted"] += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                pose, landmarks = workload.run(graph_map, query)
                elapsed, row = time.perf_counter() - t0, {}
            else:
                pose, landmarks, elapsed, row = traced_pair(workload, graph_map, query, tracer)
        except ForestLocError as exc:
            stats["failed"] += 1
            print(f"perfbench: query {query.qid} raised {exc!r}", file=sys.stderr)
        else:
            ok = row.pop("same_answer", True) and checks.pose_ok(pose, query.truth)
            if landmarks is not None:
                ok = ok and checks.landmarks_ok(
                    landmarks, query.truth, workload.trunk_tree, workload.forest.radii
                )
            if ok:
                times.append(elapsed)
                errors.append(checks.pose_error(pose, query.truth))
                row["simulator.scan_s"] = query.gen_s
                layer_rows.append(row)
            else:
                stats["failed"] += 1
                stats["wrong"] += 1
                print(f"perfbench: query {query.qid} failed its checks", file=sys.stderr)
        stats["wall_s"] += time.perf_counter() - t0
        if stats["attempted"] == PEAK_QUERIES:
            stats["peak_rss_mb"] = peak_rss_mb()
        last = time.perf_counter() - t_iter
    if stats["peak_rss_mb"] is None:
        stats["peak_rss_mb"] = peak_rss_mb()
    return stats, times, errors, layer_rows


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_pair(workload, graph_map, query, tracer):
    """Untraced and traced runs of one query, which goes first alternating.

    Returns the untraced answer and time, and one row of per-layer
    values for the query.
    """
    order = (True, False) if query.qid % 2 else (False, True)
    for traced in order:
        t0 = time.perf_counter()
        if traced:
            pose_t, lm_t, counts = workload.run_traced(graph_map, query, tracer)
            traced_s = time.perf_counter() - t0
        else:
            pose, landmarks = workload.run(graph_map, query)
            plain_s = time.perf_counter() - t0
    spans = tracer.durations(query.qid)
    row = {f"{name}_s": spans.get(name, 0.0) for name in LAYER_SPANS[:4]}
    row.update({f"{name}_s": spans[name] for name in LOCALIZE_STAGES if name in spans})
    row.update(counts)
    row["trace.overhead_s"] = traced_s - plain_s
    row["trace.covered_s"] = sum(spans.get(name, 0.0) for name in LAYER_SPANS)
    row["trace.plain_s"] = plain_s
    row["same_answer"] = same_answer((pose, landmarks), (pose_t, lm_t))
    return pose, landmarks, plain_s, row


def end_to_end(setup_s, times, errors, stats) -> dict:
    return {
        "setup_s": setup_s,
        "query_s": statistics.median(times),
        "queries_per_s": len(times) / stats["wall_s"],
        "trans_rmse_m": math.sqrt(statistics.fmean(t * t for t, _ in errors)),
        "rot_rmse_deg": math.sqrt(statistics.fmean(r * r for _, r in errors)),
        "peak_rss_mb": stats["peak_rss_mb"],
    }


def per_layer(setup_layers, rows) -> dict:
    """Per-query medians of every value all rows carry, plus the set-up layers."""
    names = set.intersection(*(set(row) for row in rows))
    return {**{n: statistics.median(row[n] for row in rows) for n in names}, **setup_layers}


def as_metrics(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    units = {m["name"]: m["unit"] for m in json.loads(SPEC_PATH.read_text())[kind]}
    missing = [name for name in units if name not in values]
    if missing:
        print(f"perfbench: missing metrics {missing}", file=sys.stderr)
    return {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        graph_map, setup_s, setup_layers = set_up(workload, tracer)
        stats, times, errors, rows = measure(workload, graph_map, args.seconds, tracer)
    completed = len(times)
    if tracer is None:
        metrics = as_metrics(end_to_end(setup_s, times, errors, stats) if completed else {}, "end_to_end")
    else:
        metrics = as_metrics(per_layer(setup_layers, rows) if completed else {}, "per_layer")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, workload=args.workload, seed=args.seed)
        if completed:
            gap = statistics.median(r["trace.covered_s"] - r["trace.plain_s"] for r in rows)
            print(
                f"perfbench: per query, layer spans minus the untraced time is {gap:.6f} s "
                f"(median) against trace.overhead_s {metrics['trace.overhead_s']['value']:.6f} s; "
                f"spans in {trace_path}",
                file=sys.stderr,
            )
    result = {
        "correct": stats["wrong"] == 0 and completed > 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: extract, localize, simulate, benchmark."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .dtgraph import load_graph, triangulate
from .errors import ForestLocError, InsufficientMatchesError, NoOverlapError
from .geometry import RigidTransform2D, load_xyz, save_xyz
from .matching import MatchParams, localize
from .pipeline import BenchmarkConfig, _simulate_site, run_benchmark, write_benchmark_csv
from .simulator import ForestSpec, _check_noise, aggregate_scans, generate_forest
from .trunks import TrunkExtractionParams, extract_trunk_map

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INSUFFICIENT_MATCHES = 2
EXIT_NO_OVERLAP = 3


def _parse_area(text: str):
    try:
        w, h = text.lower().split("x")
        return float(w), float(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestloc",
        description="Forest localization by matching trunk triangulations.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--quiet", action="store_true", help="suppress progress text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="segment trunk landmarks from a point cloud")
    p.add_argument("--input", required=True, help="input cloud (.xyz text)")
    p.add_argument("--output", required=True, help="output landmarks (.csv)")
    p.add_argument("--th", type=float, default=2.0, help="vertical probe offset, m")
    p.add_argument("--dth", type=float, default=0.2, help="probe distance threshold, m")
    p.add_argument("--cluster-tol", type=float, default=0.5, help="cluster link distance, m")
    p.add_argument("--min-cluster", type=int, default=30, help="minimum cluster size")

    p = sub.add_parser("localize", help="match a local map against a global map")
    p.add_argument("--map", required=True, help="global map (.csv landmarks or .xyz cloud)")
    p.add_argument("--local", required=True, help="local map (.csv landmarks or .xyz cloud)")
    p.add_argument("--tolerance", type=float, default=0.05, help="feature tolerance")
    p.add_argument("--min-matches", type=int, default=1, help="required star matches")

    p = sub.add_parser("simulate", help="generate a forest and per-site scan clouds")
    p.add_argument("--area", type=_parse_area, default=(200.0, 200.0), help="WIDTHxHEIGHT, m")
    p.add_argument("--density", type=float, default=350.0, help="trees per hectare")
    p.add_argument("--path", required=True, help="poses csv (x,y,theta_deg rows)")
    p.add_argument("--frames-per-site", type=int, default=10)
    p.add_argument("--spacing", type=float, default=1.0, help="pose spacing, m")
    p.add_argument("--noise", type=float, default=0.03, help="range noise sigma, m")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("benchmark", help="frames-aggregation benchmark on synthetic data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sites", type=int, default=100)
    p.add_argument("--frames", default="1,3,5,10", help="comma-separated frame counts")
    p.add_argument("--area", type=_parse_area, default=(250.0, 250.0))
    p.add_argument("--density", type=float, default=350.0)
    p.add_argument("--noise", type=float, default=0.03)
    return parser


def _cmd_extract(args) -> int:
    cloud = load_xyz(args.input)
    params = TrunkExtractionParams(
        probe_height=args.th,
        probe_tolerance=args.dth,
        cluster_tolerance=args.cluster_tol,
        min_cluster_size=args.min_cluster,
    )
    trunk_map = extract_trunk_map(cloud, params)
    trunk_map.save_csv(args.output)
    if args.json:
        print(json.dumps({"landmarks": len(trunk_map), "output": args.output}))
    elif not args.quiet:
        print(f"extracted {len(trunk_map)} landmarks from {len(cloud)} points -> {args.output}")
    return EXIT_OK


def _load_map(path_text: str):
    """The graph of a landmark .csv, or of the trunks extracted from any other file as .xyz."""
    path = Path(path_text)
    if path.suffix == ".csv":
        return load_graph(path)
    return triangulate(extract_trunk_map(load_xyz(path)))


def _cmd_localize(args) -> int:
    graph_map = _load_map(args.map)
    graph_local = _load_map(args.local)
    params = MatchParams(feature_tolerance=args.tolerance, min_matches=args.min_matches)
    result = localize(graph_local, graph_map, params)
    payload = {
        "pose": {
            "x": result.pose.t[0],
            "y": result.pose.t[1],
            "theta_deg": math.degrees(result.pose.theta),
        },
        "residual_m": result.residual,
        "matches": result.match_count,
        "candidates": result.candidate_count,
        "irls_steps": result.irls_steps,
        "timings": result.elapsed,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        pose = payload["pose"]
        print(f"pose: x={pose['x']:.6f} y={pose['y']:.6f} theta_deg={pose['theta_deg']:.6f}")
        print(f"residual_m: {result.residual:.6f}")
        print(f"matches: {result.match_count}")
        print(f"candidates: {result.candidate_count}")
        print(f"irls_steps: {result.irls_steps}")
        print(
            "timings: "
            + " ".join(f"{k}={v:.4f}s" for k, v in result.elapsed.items())
        )
    return EXIT_OK


def _read_poses(path):
    poses = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#") or text.lower().startswith("x,"):
                continue
            parts = text.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}: expected x,y,theta_deg rows")
            x, y, deg = (float(p) for p in parts)
            poses.append(RigidTransform2D(math.radians(deg), np.array([x, y])))
    if not poses:
        raise ValueError(f"{path}: no poses found")
    return poses


def _cmd_simulate(args) -> int:
    # check every argument and build the stand before writing any file
    if args.frames_per_site < 1:
        raise ValueError("--frames-per-site must be at least 1")
    if not math.isfinite(args.spacing):
        raise ValueError("--spacing must be finite")
    _check_noise(args.noise)
    spec = ForestSpec(area=args.area, density=args.density, seed=args.seed)
    poses = _read_poses(args.path)
    forest = generate_forest(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    forest.to_trunk_map().save_csv(out / "trunks.csv")
    with open(out / "poses.csv", "w", encoding="utf-8") as fh:
        fh.write("site_id,x,y,theta_deg\n")
        for site_id, pose in enumerate(poses):
            scans = _simulate_site(
                forest,
                pose,
                args.frames_per_site,
                args.spacing,
                args.noise,
                seed=args.seed + 1000 * site_id,
            )
            cloud = aggregate_scans(scans)
            save_xyz(out / f"site_{site_id:03d}.xyz", cloud, comment=f"site {site_id}")
            fh.write(
                f"{site_id},{pose.t[0]:.6f},{pose.t[1]:.6f},{math.degrees(pose.theta):.6f}\n"
            )
    if args.json:
        print(json.dumps({"trees": len(forest), "sites": len(poses), "out": str(out)}))
    elif not args.quiet:
        print(f"simulated {len(poses)} sites in a {len(forest)}-tree stand -> {out}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    frames = tuple(int(f) for f in args.frames.split(","))
    config = BenchmarkConfig(
        frames_list=frames,
        sites=args.sites,
        seed=args.seed,
        area=args.area,
        density=args.density,
        noise=args.noise,
    )
    rows, details = run_benchmark(config)
    write_benchmark_csv(rows, details, args.out)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "frames": r.frames,
                        "avg_trunks": r.avg_trunks,
                        "avg_matched_triangles": r.avg_matched_triangles,
                        "success_rate": r.success_rate,
                    }
                    for r in rows
                ]
            )
        )
    elif not args.quiet:
        print("frames  avg_trunks  avg_matches  success_rate")
        for r in rows:
            print(
                f"{r.frames:>6}  {r.avg_trunks:>10.2f}  {r.avg_matched_triangles:>11.2f}"
                f"  {r.success_rate:>12.2%}"
            )
    return EXIT_OK


_COMMANDS = {
    "extract": _cmd_extract,
    "localize": _cmd_localize,
    "simulate": _cmd_simulate,
    "benchmark": _cmd_benchmark,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InsufficientMatchesError as exc:
        print(f"error: {exc} (matches={exc.match_count})", file=sys.stderr)
        return EXIT_INSUFFICIENT_MATCHES
    except NoOverlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_OVERLAP
    except (ForestLocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

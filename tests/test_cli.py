"""CLI tests driving forestloc.cli.main() directly."""

import json
import math

import numpy as np
import pytest

from forestloc.cli import (
    EXIT_ERROR,
    EXIT_INSUFFICIENT_MATCHES,
    EXIT_NO_OVERLAP,
    EXIT_OK,
    main,
)
from forestloc.dtgraph import load_graph, save_graph, triangulate
from forestloc.geometry import RigidTransform2D, save_xyz
from forestloc.simulator import (
    ForestSpec,
    aggregate_scans,
    generate_forest,
    simulate_scan,
)
from forestloc.trunks import TrunkMap


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """Map graph, local landmark files, and a scan cloud sharing one stand."""
    base = tmp_path_factory.mktemp("cliscene")
    forest = generate_forest(ForestSpec(area=(100.0, 100.0), density=350.0, seed=7))
    trunk_map = forest.to_trunk_map()
    g_map = triangulate(trunk_map)
    save_graph(g_map, base / "map.json")

    pose = RigidTransform2D(0.35, np.array([52.0, 48.0]))
    near = trunk_map.positions[
        np.linalg.norm(trunk_map.positions - pose.t, axis=1) < 22.0
    ]
    local_xy = pose.inverse().apply(near)
    local_map = TrunkMap(positions=local_xy, support=np.full(len(local_xy), 1, dtype=np.intp))
    local_map.save_csv(base / "local.csv")
    save_graph(triangulate(local_map), base / "local.json")

    heading = pose.theta
    step = np.array([math.cos(heading), math.sin(heading)])
    scans = [
        simulate_scan(forest, RigidTransform2D(heading, pose.t + k * step), seed=7 + k)
        for k in range(5)
    ]
    save_xyz(base / "site.xyz", aggregate_scans(scans))

    rng = np.random.default_rng(9)
    save_graph(triangulate(rng.uniform(0.0, 2.0, (25, 2))), base / "tiny.json")
    return base, pose


def cylinder_cloud(path):
    rng = np.random.default_rng(3)
    clouds = []
    for cx, cy in ((5.0, 5.0), (15.0, 5.0)):
        ang = rng.uniform(0, 2 * math.pi, 600)
        z = rng.uniform(0.0, 4.0, 600)
        clouds.append(
            np.column_stack([cx + 0.15 * np.cos(ang), cy + 0.15 * np.sin(ang), z])
        )
    ground = np.column_stack(
        [rng.uniform(0, 20, 400), rng.uniform(0, 10, 400), np.zeros(400)]
    )
    save_xyz(path, np.vstack(clouds + [ground]))


def test_extract(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.xyz"
    out = tmp_path / "trunks.csv"
    cylinder_cloud(cloud_path)
    code = main(["extract", "--input", str(cloud_path), "--output", str(out)])
    assert code == EXIT_OK
    assert "extracted 2 landmarks" in capsys.readouterr().out
    loaded = TrunkMap.load_csv(out)
    assert len(loaded) == 2
    got = loaded.positions[np.argsort(loaded.positions[:, 0])]
    assert np.allclose(got, [[5.0, 5.0], [15.0, 5.0]], atol=0.05)


def test_extract_json(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.xyz"
    cylinder_cloud(cloud_path)
    code = main(
        ["--json", "extract", "--input", str(cloud_path), "--output", str(tmp_path / "t.csv")]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["landmarks"] == 2


def test_extract_quiet(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.xyz"
    cylinder_cloud(cloud_path)
    code = main(
        ["--quiet", "extract", "--input", str(cloud_path), "--output", str(tmp_path / "t.csv")]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""


def test_extract_missing_input(tmp_path, capsys):
    code = main(
        ["extract", "--input", str(tmp_path / "nope.xyz"), "--output", str(tmp_path / "t.csv")]
    )
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--dth", "nan", "probe_tolerance"),
        ("--cluster-tol", "nan", "cluster_tolerance"),
        ("--th", "inf", "probe_height"),
    ],
)
def test_extract_rejects_non_finite_lengths(tmp_path, capsys, flag, value, name):
    cloud_path = tmp_path / "cloud.xyz"
    out = tmp_path / "t.csv"
    cylinder_cloud(cloud_path)
    code = main(["extract", "--input", str(cloud_path), "--output", str(out), flag, value])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {name} must be finite and positive\n"
    assert not out.exists()


def test_triangulate(scene, tmp_path, capsys):
    base, _ = scene
    out = tmp_path / "local_graph.json"
    code = main(["--json", "triangulate", "--input", str(base / "local.csv"), "--output", str(out)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    graph = load_graph(out)
    assert payload["vertices"] == graph.n_vertices
    assert payload["triangles"] == graph.n_triangles > 0


def test_triangulate_degenerate_exit1(tmp_path, capsys):
    src = tmp_path / "line.csv"
    pts = np.column_stack([np.arange(5.0), np.arange(5.0)])
    TrunkMap(positions=pts, support=np.full(5, 1, dtype=np.intp)).save_csv(src)
    code = main(["triangulate", "--input", str(src), "--output", str(tmp_path / "g.json")])
    assert code == EXIT_ERROR
    assert "degenerate" in capsys.readouterr().err


def localize_payload(capsys, argv):
    code = main(["--json"] + argv)
    return code, json.loads(capsys.readouterr().out)


def test_localize_from_graph(scene, capsys):
    base, pose = scene
    code, payload = localize_payload(
        capsys,
        ["localize", "--map", str(base / "map.json"), "--local", str(base / "local.json")],
    )
    assert code == EXIT_OK
    assert set(payload) == {"pose", "residual_m", "matches", "candidates", "irls_steps", "timings"}
    assert abs(payload["pose"]["x"] - pose.t[0]) < 1e-3
    assert abs(payload["pose"]["y"] - pose.t[1]) < 1e-3
    assert abs(payload["pose"]["theta_deg"] - math.degrees(pose.theta)) < 0.01
    assert payload["matches"] >= 1
    assert payload["irls_steps"] >= 0
    assert set(payload["timings"]) == {"stars", "matching", "verification", "total"}


def test_localize_from_csv(scene, capsys):
    base, pose = scene
    code, payload = localize_payload(
        capsys,
        ["localize", "--map", str(base / "map.json"), "--local", str(base / "local.csv")],
    )
    assert code == EXIT_OK
    assert abs(payload["pose"]["x"] - pose.t[0]) < 1e-3


def test_localize_from_cloud(scene, capsys):
    base, pose = scene
    code, payload = localize_payload(
        capsys,
        ["localize", "--map", str(base / "map.json"), "--local", str(base / "site.xyz")],
    )
    assert code == EXIT_OK
    assert abs(payload["pose"]["x"] - pose.t[0]) < 1.0
    assert abs(payload["pose"]["y"] - pose.t[1]) < 1.0


def test_localize_text_output(scene, capsys):
    base, _ = scene
    code = main(
        ["localize", "--map", str(base / "map.json"), "--local", str(base / "local.json")]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("pose: x=")
    assert "residual_m:" in out and "matches:" in out and "irls_steps:" in out


def test_localize_insufficient_matches(scene, capsys):
    base, _ = scene
    code = main(
        [
            "localize",
            "--map", str(base / "map.json"),
            "--local", str(base / "local.json"),
            "--min-matches", "100000",
        ]
    )
    assert code == EXIT_INSUFFICIENT_MATCHES
    err = capsys.readouterr().err
    assert "insufficient matches" in err and "matches=" in err


def test_localize_no_overlap(scene, capsys):
    base, _ = scene
    code = main(
        ["localize", "--map", str(base / "tiny.json"), "--local", str(base / "local.json")]
    )
    assert code == EXIT_NO_OVERLAP
    assert "no overlap" in capsys.readouterr().err


def test_localize_nan_tolerance_rejected(scene, capsys):
    base, _ = scene
    code = main(
        [
            "localize",
            "--map", str(base / "map.json"),
            "--local", str(base / "local.json"),
            "--tolerance", "nan",
        ]
    )
    assert code == EXIT_ERROR
    assert "feature_tolerance must be positive" in capsys.readouterr().err


def test_localize_short_map_row_rejected(scene, tmp_path, capsys):
    base, _ = scene
    data = json.loads((base / "map.json").read_text())
    data["vertices"][3] = [3, 1.0]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(data))
    code = main(["localize", "--map", str(short), "--local", str(base / "local.json")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {short}: vertices rows")


def with_fractional_triangle_id(data):
    data["triangles"][0][1] = 0.9
    return data


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: 5, "top-level value must be an object"),
        (lambda data: None, "top-level value must be an object"),
        (with_fractional_triangle_id, "triangle vertex ids must be integers"),
    ],
    ids=["number", "null", "fractional-id"],
)
def test_localize_malformed_map_rejected(scene, tmp_path, capsys, edit, message):
    base, _ = scene
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads((base / "map.json").read_text()))))
    code = main(["localize", "--map", str(bad), "--local", str(base / "local.json")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")


def test_bad_area_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--area", "huge", "--path", "p.csv", "--out", str(tmp_path)])


def test_simulate(tmp_path, capsys):
    path_csv = tmp_path / "route.csv"
    path_csv.write_text(
        "# survey route\nx,y,theta_deg\n30.0,30.0,0.0\n35.0,30.0,90.0\n"
    )
    out = tmp_path / "sim"
    code = main(
        [
            "--seed", "11",
            "simulate",
            "--area", "60x60",
            "--density", "200",
            "--path", str(path_csv),
            "--frames-per-site", "2",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert (out / "trunks.csv").exists()
    assert len((out / "site_000.xyz").read_text().splitlines()) > 100
    forest = generate_forest(ForestSpec(area=(60.0, 60.0), density=200.0, seed=11))
    # site 0: heading 0, scans 1 m apart, scan k seeded with --seed + k
    scan_poses = [RigidTransform2D(0.0, np.array([30.0 + k, 30.0])) for k in range(2)]
    scans = [simulate_scan(forest, p, noise=0.03, seed=11 + k) for k, p in enumerate(scan_poses)]
    save_xyz(tmp_path / "expected.xyz", aggregate_scans(scans), comment="site 0")
    assert (out / "site_000.xyz").read_bytes() == (tmp_path / "expected.xyz").read_bytes()
    assert (out / "site_001.xyz").exists()
    poses = (out / "poses.csv").read_text().splitlines()
    assert poses[0] == "site_id,x,y,theta_deg"
    assert poses[1].startswith("0,30.000000,30.000000,")
    assert len(poses) == 3
    assert "simulated 2 sites" in capsys.readouterr().out


def test_simulate_bad_pose_row(tmp_path, capsys):
    path_csv = tmp_path / "route.csv"
    path_csv.write_text("1.0,2.0\n")
    code = main(
        ["simulate", "--path", str(path_csv), "--out", str(tmp_path / "sim")]
    )
    assert code == EXIT_ERROR
    assert "expected x,y,theta_deg rows" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--frames-per-site", "0"], "--frames-per-site must be at least 1"),
        (["--noise", "nan"], "noise must be finite and non-negative"),
        (["--noise", "inf"], "noise must be finite and non-negative"),
        (["--spacing", "nan"], "--spacing must be finite"),
        (["--area", "100xinf"], "area sides must be finite and positive"),
        (["--density", "inf"], "density must be finite and positive"),
        (["--density", "nan"], "density must be finite and positive"),
        (["--area", "1e200x1e200"], "tree count must be finite"),
    ],
)
def test_simulate_rejects_bad_arguments_before_writing(tmp_path, capsys, args, message):
    path_csv = tmp_path / "route.csv"
    path_csv.write_text("30.0,30.0,0.0\n")
    out = tmp_path / "sim"
    out.mkdir()
    code = main(["simulate", "--path", str(path_csv), "--out", str(out)] + args)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert list(out.iterdir()) == []


def test_benchmark(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(
        [
            "--json",
            "benchmark",
            "--out", str(out),
            "--sites", "2",
            "--frames", "1,3",
            "--area", "120x120",
        ]
    )
    assert code == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [r["frames"] for r in rows] == [1, 3]
    assert all(0.0 <= r["success_rate"] <= 1.0 for r in rows)
    assert (out / "results.csv").exists()
    assert (out / "detail.csv").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--area", "100xinf"], "area sides must be finite and positive"),
        (["--density", "inf"], "density must be finite and positive"),
        (["--density", "nan"], "density must be finite and positive"),
        (["--noise", "nan"], "noise must be finite and non-negative"),
        (["--area", "1e200x1e200"], "tree count must be finite"),
    ],
)
def test_benchmark_rejects_non_finite_settings(tmp_path, capsys, args, message):
    out = tmp_path / "bench"
    code = main(["benchmark", "--out", str(out), "--sites", "1", "--frames", "1"] + args)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_benchmark_bad_frames(tmp_path, capsys):
    for frames in ("3,1", "1,1"):
        out = tmp_path / frames
        code = main(["benchmark", "--out", str(out), "--sites", "1", "--frames", frames])
        assert code == EXIT_ERROR
        assert "ascending" in capsys.readouterr().err
        assert not out.exists()

"""Tests of the benchmark itself: its checks catch wrong answers, and its inputs repeat.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import numpy as np
import pytest

import run

run.import_program()

from forestloc import RigidTransform2D  # noqa: E402
from workloads import DriveWorkload, LandmarkWorkload  # noqa: E402


@pytest.fixture(scope="module")
def drive():
    workload = DriveWorkload(3, seed=7)
    return workload, workload.build_map()


def measure_one(workload, graph_map):
    stats, times, errors, _ = run.measure(workload, graph_map, 1e-9, None)
    assert stats["attempted"] == 1
    return stats


def test_true_answers_pass(drive):
    workload, graph_map = drive
    stats = measure_one(workload, graph_map)
    assert stats["failed"] == 0 and stats["wrong"] == 0


def test_pose_shifted_by_one_metre_fails(drive):
    workload, graph_map = drive
    plain = workload.run

    def shifted(graph, query):
        pose, landmarks = plain(graph, query)
        return RigidTransform2D(pose.theta, pose.t + [1.0, 0.0]), landmarks

    workload.run = shifted
    try:
        stats = measure_one(workload, graph_map)
    finally:
        del workload.run
    assert stats["failed"] == 1 and stats["wrong"] == 1


def test_landmark_moved_off_its_trunk_fails(drive):
    workload, graph_map = drive
    plain = workload.run

    def moved(graph, query):
        pose, landmarks = plain(graph, query)
        landmarks = landmarks.copy()
        landmarks[0] += [0.0, 1.0]
        return pose, landmarks

    workload.run = moved
    try:
        stats = measure_one(workload, graph_map)
    finally:
        del workload.run
    assert stats["failed"] == 1 and stats["wrong"] == 1


def first_queries(workload, n=3):
    queries = workload.queries()
    return [next(queries) for _ in range(n)]


def same_queries(a, b) -> bool:
    return all(
        qa.truth.theta == qb.truth.theta
        and np.array_equal(qa.truth.t, qb.truth.t)
        and np.array_equal(
            qa.cloud if qa.cloud is not None else qa.landmarks,
            qb.cloud if qb.cloud is not None else qb.landmarks,
        )
        for qa, qb in zip(a, b)
    )


def test_same_seed_same_drive_inputs():
    a = first_queries(DriveWorkload(3, seed=11))
    b = first_queries(DriveWorkload(3, seed=11))
    c = first_queries(DriveWorkload(3, seed=12))
    assert same_queries(a, b)
    assert not same_queries(a, c)


def test_same_seed_same_landmark_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    wa = LandmarkWorkload(11, tmp_path / "a")
    wb = LandmarkWorkload(11, tmp_path / "b")
    assert wa.map_path.read_bytes() == wb.map_path.read_bytes()
    assert same_queries(first_queries(wa), first_queries(wb))
    assert not same_queries(first_queries(wa), first_queries(LandmarkWorkload(12, tmp_path)))

"""Array-backed task paths: bit-for-bit agreement with the per-sample
builders of tests/oracles.py, and no per-sample Pose objects on the plan
and optimizer paths."""

import numpy as np
import pytest

from cuspidal_kit import fileio, ik, optimizer, scenarios
from cuspidal_kit.ik import IKConfig, solve_ik_along_path
from cuspidal_kit.kinematics import Pose, forward_kinematics, rotation_to_quat
from cuspidal_kit.optimizer import (ReducedParams, WorkpiecePose, random_feasible_start,
                                    reduced_to_pose, transform_toolpath)
from cuspidal_kit.planner import TaskPath, plan_path

from oracles import (per_sample_circle, per_sample_path, per_sample_segment, per_sample_transform,
                     per_sample_unreachable_penalty)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_path_is(path: TaskPath, poses, dlambda, closed):
    _same_bits(path.positions, [p.position for p in poses])
    _same_bits(path.rotations, [p.rotation for p in poses])
    assert (path.dlambda, path.closed) == (dlambda, closed)


def _doc(rng, frame: str, n: int, oriented) -> dict:
    """A path document through random points spaced about 0.1 apart;
    oriented[k] gives sample k an unnormalized random quaternion."""
    p = np.cumsum(rng.normal(scale=0.06, size=(n, 3)), axis=0) + [2.0, 0.3, -0.1]
    samples = []
    for k in range(n):
        entry = {"p": p[k].tolist()}
        if oriented[k]:
            entry["q_wxyz"] = (rng.normal(size=4) * rng.uniform(0.01, 30.0)).tolist()
        samples.append(entry)
    dlambda = float(np.mean(np.linalg.norm(np.diff(p, axis=0), axis=1)))
    return {"frame": frame, "closed": False, "dlambda": dlambda, "samples": samples}


class TestLoaders:
    @pytest.mark.parametrize("orientation", ["none", "all", "some"])
    def test_match_per_sample_poses(self, orientation):
        rng = np.random.default_rng(5)
        n = 300
        oriented = {"none": np.zeros(n, bool), "all": np.ones(n, bool),
                    "some": rng.uniform(size=n) < 0.5}[orientation]
        for frame, load in (("base", fileio.task_path_from_doc),
                            ("workpiece", fileio.toolpath_from_doc)):
            doc = _doc(rng, frame, n, oriented)
            poses, dlambda, _, closed = per_sample_path(doc)
            _assert_path_is(load(doc), poses, dlambda, closed)

    @pytest.mark.parametrize("mode", ["fixed", "tangent-following"])
    def test_helix_documents(self, mode):
        doc = fileio.generate_helix(samples=64, orientation_mode=mode)
        poses, dlambda, _, closed = per_sample_path(doc)
        _assert_path_is(fileio.toolpath_from_doc(doc), poses, dlambda, closed)

    def test_fixture_documents(self):
        for make in (scenarios.infeasible_line_path, scenarios.infeasible_line_control_path,
                     scenarios.cusp_loop_path, scenarios.control_loop_path):
            path = make()
            doc = fileio.path_to_doc(path.poses, path.dlambda, "base", path.closed)
            poses, dlambda, _, closed = per_sample_path(doc)
            _assert_path_is(fileio.task_path_from_doc(doc), poses, dlambda, closed)


class TestFixtures:
    @pytest.mark.parametrize("samples", [2, 7, 101, 201])
    def test_segments(self, samples):
        a, b = scenarios.INFEASIBLE_LINE
        off = scenarios.INFEASIBLE_LINE_CONTROL_OFFSET
        for path, ends in ((scenarios.infeasible_line_path(samples), (a, b)),
                           (scenarios.infeasible_line_control_path(samples), (a + off, b + off))):
            pts = per_sample_segment(*ends, samples)
            L = float(np.linalg.norm(ends[1] - ends[0]))
            _assert_path_is(path, [Pose(np.eye(3), p) for p in pts], L / (samples - 1), False)

    @pytest.mark.parametrize("samples", [3, 41, 201])
    def test_loops(self, samples):
        for make, spec in ((scenarios.cusp_loop_path, scenarios.CUSP_LOOP),
                           (scenarios.control_loop_path, scenarios.CONTROL_LOOP)):
            pts = per_sample_circle(spec["center"], spec["radius"], samples)
            dlambda = 2.0 * np.pi * spec["radius"] / (samples - 1)
            _assert_path_is(make(samples), [Pose(np.eye(3), p) for p in pts], dlambda, True)


class TestTransformToolpath:
    @pytest.mark.parametrize("mode", ["fixed", "tangent-following"])
    def test_matches_per_sample_placement(self, mode):
        tp = fileio.toolpath_from_doc(fileio.generate_helix(samples=90, orientation_mode=mode))
        rng = np.random.default_rng(11)
        placements = [WorkpiecePose(rng.normal(size=4), rng.normal(size=3)) for _ in range(4)]
        placements += [reduced_to_pose(ReducedParams(rng.uniform(-0.6, 0.6, 2),
                                                     rng.normal(size=3))) for _ in range(4)]
        for wp in placements:
            _assert_path_is(transform_toolpath(wp, tp), per_sample_transform(wp, tp.poses),
                            tp.dlambda, tp.closed)

    def test_unreachable_penalty_sums_in_sample_order(self, r3):
        tp = fileio.toolpath_from_doc(fileio.generate_helix(samples=90))
        radii = optimizer.workspace_radii(r3)
        for p in ([50.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, -1.0, 0.5]):
            task = transform_toolpath(WorkpiecePose(np.array([1.0, 0.2, -0.1, 0.0]),
                                                    np.array(p)), tp)
            want = per_sample_unreachable_penalty(radii, task.poses)
            assert optimizer._unreachable_penalty(r3, task) == want


def _assert_same_sets(got, want):
    assert [len(s.solutions) for s in got] == [len(s.solutions) for s in want]
    for a, b in zip(got, want):
        for x, y in zip(a.solutions, b.solutions):
            _same_bits(x.q, y.q)
            assert (x.residual, x.det_j, x.approximate) == (y.residual, y.det_j, y.approximate)
            assert type(x.residual) is float and type(x.approximate) is bool


class TestIKEntry:
    @pytest.mark.parametrize("chunk_targets,threads", [(None, 1), (7, 1), (7, 2)])
    def test_3r_path_matches_pose_list(self, r3, monkeypatch, chunk_targets, threads):
        path = scenarios.cusp_loop_path(61)
        want = solve_ik_along_path(r3, path.poses)
        if chunk_targets is not None:
            monkeypatch.setattr(ik, "_CHUNK_ROWS", 4 * chunk_targets)
        _assert_same_sets(solve_ik_along_path(r3, path, IKConfig(threads=threads)), want)

    @pytest.mark.parametrize("chunk_targets,threads", [(None, 1), (3, 2)])
    def test_6r_rotated_path_matches_pose_list(self, r6, monkeypatch, chunk_targets, threads):
        rng = np.random.default_rng(2)
        poses = [forward_kinematics(r6, q) for q in rng.uniform(-np.pi, np.pi, (9, 6))]
        path = TaskPath.from_poses(poses, dlambda=0.1)
        want = solve_ik_along_path(r6, poses)
        if chunk_targets is not None:
            monkeypatch.setattr(ik, "_CHUNK_ROWS", 8 * chunk_targets)
        _assert_same_sets(solve_ik_along_path(r6, path, IKConfig(threads=threads)), want)


@pytest.fixture()
def pose_count(monkeypatch):
    """A list that gains one entry per Pose constructed while it is alive."""
    built = []
    post_init = Pose.__post_init__

    def counting(self):
        built.append(None)
        post_init(self)

    monkeypatch.setattr(Pose, "__post_init__", counting)
    return built


class TestNoPerSamplePoses:
    def test_plan_on_a_loaded_path(self, r3, pose_count):
        path = scenarios.control_loop_path(41)
        doc = fileio.path_to_doc(path.poses, path.dlambda, "base", True)
        for entry in doc["samples"]:
            entry["q_wxyz"] = rotation_to_quat(np.eye(3)).tolist()
        del pose_count[:]
        loaded = fileio.task_path_from_doc(doc)
        assert plan_path(r3, loaded).feasible
        assert pose_count == []

    def test_objective(self, r3, pose_count):
        tp = fileio.toolpath_from_doc(fileio.generate_helix(samples=12))
        ik_cfg = IKConfig(seeds_per_joint=6)
        x, _, _ = random_feasible_start(r3, tp, np.random.default_rng(0), ik_cfg=ik_cfg)
        far = ReducedParams(np.zeros(2), np.array([50.0, 0.0, 0.0]))
        del pose_count[:]
        assert optimizer.objective(r3, tp, x, ik_cfg=ik_cfg) < optimizer.INFEASIBLE_SENTINEL
        assert optimizer.objective(r3, tp, far, ik_cfg=ik_cfg) > optimizer.INFEASIBLE_SENTINEL
        assert pose_count == []


class TestTaskPathArrays:
    def test_arrays_are_read_only_copies(self):
        positions = np.array([[1.0, 0.0, 0.0], [1.1, 0.0, 0.0]])
        rotations = np.stack([np.eye(3)] * 2)
        path = TaskPath(positions, rotations, dlambda=0.1)
        positions[0, 0] = 9.0
        assert path.positions[0, 0] == 1.0
        with pytest.raises(ValueError):
            path.positions[0, 0] = 2.0
        with pytest.raises(ValueError):
            path.rotations[0, 0, 0] = 2.0

    def test_poses_are_derived(self):
        path = scenarios.cusp_loop_path(5)
        assert len(path.poses) == path.K + 1 == 5
        _same_bits([p.position for p in path.poses], path.positions)

    @pytest.mark.parametrize("positions,rotations", [
        (np.zeros((3, 2)), np.zeros((3, 3, 3))),
        (np.zeros((3, 3)), np.zeros((2, 3, 3))),
        (np.zeros(3), np.zeros((1, 3, 3))),
    ])
    def test_shapes_checked(self, positions, rotations):
        with pytest.raises(ValueError, match="positions must be"):
            TaskPath(positions, rotations, dlambda=0.1)

    def test_non_finite_sample_named(self):
        positions = np.zeros((4, 3))
        positions[2, 1] = np.inf
        with pytest.raises(ValueError, match="sample 2"):
            TaskPath(positions, np.broadcast_to(np.eye(3), (4, 3, 3)), dlambda=0.1)

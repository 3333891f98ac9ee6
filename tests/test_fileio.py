import json

import numpy as np
import numpy.testing as nt
import pytest

from cuspidal_kit import fileio, scenarios
from cuspidal_kit.kinematics import Pose, RobotModel
from cuspidal_kit.scenarios import canonical_3r, three_parallel_6r


class TestRobotDocs:
    def test_round_trip(self, tmp_path):
        for robot in (canonical_3r(), three_parallel_6r()):
            doc = fileio.robot_to_doc(robot)
            path = tmp_path / "robot.json"
            fileio.save_json(doc, path)
            loaded = fileio.robot_from_doc(fileio.load_json(path))
            assert loaded.dof == robot.dof
            nt.assert_array_equal(loaded.axes, robot.axes)
            nt.assert_array_equal(loaded.offsets, robot.offsets)
            nt.assert_array_equal(loaded.tool_offset, robot.tool_offset)
            assert loaded.name == robot.name

    def test_limits_round_trip(self, tmp_path):
        robot = RobotModel(axes=np.eye(3), offsets=np.eye(3), tool_offset=[0.1, 0, 0],
                           joint_limits=[[-1, 1], [-2, 2], [-3, 3]], name="lim")
        doc = fileio.robot_to_doc(robot)
        loaded = fileio.robot_from_doc(doc)
        nt.assert_array_equal(loaded.joint_limits, robot.joint_limits)

    def test_normalizes_axes_with_warning(self, capsys):
        doc = {"name": "x", "dof": 1, "axes": [[0.0, 0.0, 1.0 + 5e-5]],
               "offsets": [[0, 0, 0]], "tool_offset": [1, 0, 0]}
        robot = fileio.robot_from_doc(doc)
        assert capsys.readouterr().err == ("normalizing joint axes off unit length "
                                           "by up to 5.00e-05\n")
        nt.assert_allclose(np.linalg.norm(robot.axes[0]), 1.0)

    def test_missing_name_is_empty(self):
        doc = fileio.robot_to_doc(RobotModel(axes=np.eye(3), offsets=np.eye(3),
                                             tool_offset=[0.1, 0, 0], name="gone"))
        del doc["name"]
        assert fileio.robot_from_doc(doc).name == ""

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            fileio.robot_from_doc({"dof": 3})


class TestPathDocs:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        poses = []
        for _ in range(4):
            q = rng.normal(size=4)
            from cuspidal_kit.kinematics import quat_to_rotation
            poses.append(Pose(quat_to_rotation(q), rng.normal(size=3)))
        # dlambda is the mean spacing, which the reader checks it against
        positions = np.array([pose.position for pose in poses])
        dlambda = float(np.mean(np.linalg.norm(np.diff(positions, axis=0), axis=1)))
        doc = fileio.path_to_doc(poses, dlambda, "base", False)
        path = tmp_path / "path.json"
        fileio.save_json(doc, path)
        again = fileio.load_json(path)
        assert again == json.loads(fileio.dump_json(doc))
        loaded = fileio.task_path_from_doc(again)
        assert (loaded.dlambda, loaded.closed) == (dlambda, False)
        for a, p, R in zip(poses, loaded.positions, loaded.rotations, strict=True):
            nt.assert_allclose(a.position, p, atol=1e-16)
            nt.assert_allclose(a.rotation, R, atol=1e-12)

    def test_frame_mismatch(self):
        doc = fileio.path_to_doc([Pose(np.eye(3), np.zeros(3))] * 2, 0.1, "workpiece", False)
        with pytest.raises(ValueError):
            fileio.task_path_from_doc(doc)
        with pytest.raises(ValueError):
            doc_base = dict(doc, frame="base")
            fileio.toolpath_from_doc(doc_base)

    def test_orientation_optional(self):
        doc = {"frame": "base", "closed": False, "dlambda": 0.1,
               "samples": [{"p": [1, 0, 0]}, {"p": [1.1, 0, 0]}]}
        task = fileio.task_path_from_doc(doc)
        nt.assert_array_equal(task.poses[0].rotation, np.eye(3))

    def test_builtin_paths_pass_spacing_check(self):
        for make in (scenarios.infeasible_line_path, scenarios.infeasible_line_control_path,
                     scenarios.cusp_loop_path, scenarios.control_loop_path):
            path = make()
            fileio.task_path_from_doc(fileio.path_to_doc(path.poses, path.dlambda, "base",
                                                         path.closed))
        for mode in ("fixed", "tangent-following"):
            fileio.toolpath_from_doc(fileio.generate_helix(samples=8, orientation_mode=mode))


class TestHelix:
    def test_default_fixture(self):
        doc = fileio.generate_helix()
        assert len(doc["samples"]) == 500
        assert doc["frame"] == "workpiece"
        tp = fileio.toolpath_from_doc(doc)
        # equally spaced in arc length
        P = np.stack([p.position for p in tp.poses])
        steps = np.linalg.norm(np.diff(P, axis=0), axis=1)
        nt.assert_allclose(steps, steps[0], rtol=1e-6)

    def test_flat_circle_closes(self):
        doc = fileio.generate_helix(radius=0.4, pitch=0.0, turns=1.0, samples=100)
        assert doc["closed"] is True
        p0 = np.asarray(doc["samples"][0]["p"])
        pK = np.asarray(doc["samples"][-1]["p"])
        nt.assert_array_equal(p0, pK)

    def test_zero_radius_is_vertical_segment(self):
        doc = fileio.generate_helix(radius=0.0, pitch=0.5, turns=1.0, samples=10)
        P = np.stack([np.asarray(s["p"]) for s in doc["samples"]])
        nt.assert_allclose(P[:, :2], 0.0, atol=1e-15)
        assert P[-1, 2] > P[0, 2]

    def test_tangent_mode_needs_radius(self):
        with pytest.raises(ValueError):
            fileio.generate_helix(radius=0.0, orientation_mode="tangent-following")

    def test_tangent_mode_orientations_are_rotations(self):
        doc = fileio.generate_helix(samples=12, orientation_mode="tangent-following")
        tp = fileio.toolpath_from_doc(doc)
        from cuspidal_kit.kinematics import is_rotation
        assert all(is_rotation(p.rotation, tol=1e-9) for p in tp.poses)

    @pytest.mark.parametrize("kwargs", [{"radius": np.nan}, {"pitch": np.inf},
                                        {"turns": -np.inf}, {"turns": -1.0}])
    def test_bad_numbers_rejected(self, kwargs):
        with pytest.raises(ValueError):
            fileio.generate_helix(samples=5, **kwargs)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            fileio.generate_helix(samples=1)


class TestJson:
    def test_numpy_values_convert_like_python_ones(self):
        doc = {"a": np.array([[1.5, -0.0], [np.pi, 1e-300]]), "b": np.float32(0.1),
               "c": [np.int64(3), np.bool_(True), (np.float64(2.0), None)],
               "d": np.array([True, False]), "e": np.arange(3), "f": np.array(7.25)}
        plain = {"a": [[1.5, -0.0], [np.pi, 1e-300]], "b": float(np.float32(0.1)),
                 "c": [3, True, [2.0, None]], "d": [True, False], "e": [0, 1, 2], "f": 7.25}
        assert fileio.dump_json(doc) == json.dumps(plain, sort_keys=True, indent=2)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_documents_match_plain_json(self, seed):
        rng = np.random.default_rng(seed)

        def leaf():
            x = float(rng.normal() * 10.0 ** rng.integers(-300, 300))
            k = int(rng.integers(-2 ** 62, 2 ** 62))
            b = bool(rng.integers(2))
            leaves = [(x, x), (-0.0, -0.0), (0.0, 0.0), (k, k), (b, b), (None, None),
                      (np.float64(x), x), (np.float32(x / 1e290), float(np.float32(x / 1e290))),
                      (np.int64(k), k), (np.int32(k % 1000), k % 1000), (np.bool_(b), b),
                      (f"s{k}", f"s{k}"), (np.array([x, -0.0]), [x, -0.0]),
                      (np.arange(3), [0, 1, 2]),
                      (np.array([[x, -0.0, 1e-300], [0.5, x, -x]]), [[x, -0.0, 1e-300], [0.5, x, -x]]),
                      (np.array([[k, 0], [-1, 7]]), [[k, 0], [-1, 7]]),
                      (np.zeros((0, 3)), []), (np.zeros((2, 0), dtype=int), [[], []]),
                      ([k, x, 0.5, -3], [k, x, 0.5, -3]), ([b, not b], [b, not b]),
                      ([np.float64(x), np.float64(-0.0)], [x, -0.0])]
            return leaves[rng.integers(len(leaves))]

        def node(depth):
            kind = rng.integers(4) if depth < 4 else 3
            if kind == 3:
                return leaf()
            items = [node(depth + 1) for _ in range(rng.integers(4))]
            if kind == 0:
                return [v for v, _ in items], [p for _, p in items]
            if kind == 1:
                return tuple(v for v, _ in items), [p for _, p in items]
            keys = [f"k{rng.integers(100)}" for _ in items]
            return ({k: v for k, (v, _) in zip(keys, items)},
                    {k: p for k, (_, p) in zip(keys, items)})

        for _ in range(20):
            doc, plain = node(0)
            assert fileio.dump_json(doc) == json.dumps(plain, indent=2, sort_keys=True)
            with pytest.raises(ValueError):
                fileio.dump_json({"a": [doc, (np.float64(np.nan),)]})
            with pytest.raises(ValueError):
                fileio.dump_json({"a": [doc, np.array([[1.0, 2.0], [np.nan, 3.0]])]})

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError):
            fileio.dump_json({"a": {1, 2}})


class TestCsv:
    def test_seventeen_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=20).tolist()
        path = tmp_path / "x.csv"
        fileio.write_csv(path, ["a"], [[v] for v in values])
        lines = path.read_text().strip().split("\n")[1:]
        for txt, v in zip(lines, values):
            assert float(txt) == v

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_json_dump_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            fileio.dump_json({"a": [1.0, np.float64(value)]})

    def test_json_dump_deterministic(self):
        doc = {"b": np.float64(1.0 / 3.0), "a": np.arange(3), "c": {"y": True, "x": None}}
        assert fileio.dump_json(doc) == fileio.dump_json(doc)
        assert '"a"' in fileio.dump_json(doc)

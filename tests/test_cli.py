import argparse
import json
import warnings

import numpy as np
import pytest

from cuspidal_kit import cli, fileio, ik
from cuspidal_kit.cli import main
from cuspidal_kit.kinematics import Pose, forward_kinematics, jacobian
from cuspidal_kit.scenarios import canonical_3r, control_loop_path

from conftest import coaxial_6r, count_calls, degenerate_3r_arms, eight_solution_loop


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse rejects unknown flags by exiting
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def const_path_file(tmp_path):
    r3 = canonical_3r()
    pose = forward_kinematics(r3, np.array([0.3, -0.7, 1.1]))
    doc = fileio.path_to_doc([pose] * 5, 0.1, "base", False, with_orientation=False)
    p = tmp_path / "const.json"
    fileio.save_json(doc, p)
    return str(p)


class TestIdentify:
    def test_canonical_proven(self, capsys):
        code, out, _ = run(capsys, "identify", "--robot", "3r-canonical",
                           "--seed", "0", "--max-poses", "50")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "proven_cuspidal"
        assert "witness" in doc

    def test_three_parallel_proven(self, capsys):
        code, out, _ = run(capsys, "identify", "--robot", "3parallel-cuspidal",
                           "--seed", "0", "--max-poses", "2")
        assert code == 0
        assert json.loads(out)["status"] == "proven_cuspidal"

    def test_elbow_undetermined(self, capsys):
        code, out, _ = run(capsys, "identify", "--robot", "3r-elbow",
                           "--seed", "0", "--max-poses", "10")
        assert code == 3
        assert json.loads(out)["status"] == "undetermined"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "identify", "--robot", "no-such-robot.json")
        assert code == 2
        assert "error" in err

    def test_deterministic_output(self, capsys):
        args = ("identify", "--robot", "3r-canonical", "--seed", "5", "--max-poses", "20")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_too_few_samples_exits_2(self, capsys, samples):
        # checked up front, not only once a pose yields a same-sign pair
        code, out, err = run(capsys, "identify", "--robot", "3r-canonical", "--max-poses", "1",
                             "--samples", samples, "--ik-seeds", "6")
        assert code == 2
        assert out == ""
        assert any(line.startswith("error:") and "samples" in line for line in err.splitlines())


class TestPlan:
    def test_constant_path(self, capsys, const_path_file):
        code, out, _ = run(capsys, "plan", "--robot", "3r-canonical",
                           "--path", const_path_file, "--ik-seeds", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["joint_path"]["cost"] == 0.0

    def test_infeasible_fixture(self, capsys):
        code, out, err = run(capsys, "plan", "--robot", "3r-canonical",
                             "--path", "3r-infeasible-line", "--ik-seeds", "10")
        assert code == 4
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert min(doc["layer_counts"]) > 0
        # reachability from S is lost for good: the span always ends at K
        first, last = doc["infeasible_span"]
        assert last == len(doc["layer_counts"]) - 1 and first <= last
        assert f"infeasible: no route from S reaches layer {first} of 0..{last};" in err

    @pytest.mark.parametrize("command", ["plan", "optimize"])
    def test_skip_depth_option_is_gone(self, capsys, command):
        # plans visit every sample, so there is no depth to set
        source = "--path" if command == "plan" else "--toolpath"
        code, out, err = run(capsys, command, "--robot", "3r-canonical", source,
                             "3r-infeasible-line", "--skip-depth", "2")
        assert code == 2
        assert out == ""
        assert "--skip-depth" in err

    def test_closed_path_reports_repeatability(self, capsys):
        code, out, err = run(capsys, "plan", "--robot", "3r-canonical",
                             "--path", "3r-control-loop", "--ik-seeds", "8")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert "repeatability" in doc
        assert doc["repeatability"]["regular_solutions"] == [0, 1]
        assert "cycles_truncated" not in doc["repeatability"]

    def test_truncated_cycle_list_is_flagged(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        fileio.save_json(fileio.path_to_doc(eight_solution_loop().poses, 1.0, "base", True),
                         path)
        code, out, err = run(capsys, "plan", "--robot", "3parallel-cuspidal",
                             "--path", str(path), "--eps0", "1e9")
        assert code == 0
        rep = json.loads(out)["repeatability"]
        assert rep["cycles_truncated"] is True and len(rep["cycles"]) == 10_000
        assert err == ("repeatability: only the first 10000 solution-change cycles "
                       "are listed; more exist\n")

    def test_closed_loop_starting_on_a_fold(self, capsys, tmp_path):
        # a 40-sample circle of radius 0.01 whose first sample sits 4e-10 to
        # one side of a fold and whose last sits 4e-10 to the other: solved
        # on their own, the ends would have 2 and 1 IK solutions
        r3 = canonical_3r()
        q_f = np.array([-1.0698271771715926, 1.8122509915502087, -0.42971647186939443])
        U = np.linalg.svd(jacobian(r3, q_f))[0]
        n = U[:, -1] * np.sign(U[2, -1])
        np.testing.assert_allclose(n, [0.4698190142931701, 0.009424963553112821,
                                       0.882712446876454], atol=1e-9)
        t = np.cross(n, [0.0, 0.0, 1.0])
        t /= np.linalg.norm(t)
        p_f = forward_kinematics(r3, q_f).position
        a = 2.0 * np.pi * np.arange(41) / 40
        pts = p_f + 0.01 * n + 0.01 * (-np.cos(a)[:, None] * n + np.sin(a)[:, None] * t)
        pts[0], pts[40] = p_f + 4e-10 * n, p_f - 4e-10 * n
        path = tmp_path / "fold_loop.json"
        fileio.save_json({"frame": "base", "closed": True, "dlambda": 2.0 * np.pi * 0.01 / 40,
                          "samples": [{"p": p} for p in pts.tolist()]}, path)
        code, out, err = run(capsys, "plan", "--robot", "3r-canonical", "--path", str(path))
        assert code == 4 and err.startswith("infeasible:")
        doc = json.loads(out)
        assert doc["layer_counts"][-1] == doc["layer_counts"][0]
        M = doc["layer_counts"][0]
        assert np.shape(doc["repeatability"]["connectivity"]) == (M, M)

    def test_csv_output(self, capsys, const_path_file, tmp_path):
        csv = tmp_path / "jp.csv"
        code, _, _ = run(capsys, "plan", "--robot", "3r-canonical",
                         "--path", const_path_file, "--ik-seeds", "10",
                         "--csv", str(csv))
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "lambda,q1,q2,q3,det_j"
        assert len(lines) == 6

    def test_unwritable_csv_exits_2(self, capsys, const_path_file, tmp_path):
        csv = tmp_path / "missing" / "jp.csv"
        code, out, err = run(capsys, "plan", "--robot", "3r-canonical",
                             "--path", const_path_file, "--csv", str(csv))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(csv) in err
        assert "Traceback" not in err

    def test_long_constant_path(self, capsys, tmp_path):
        # 1200 identical samples: the two solutions give two equal-cost
        # chains, and the tie-break compares their full vertex sequences
        pose = forward_kinematics(canonical_3r(), np.array([0.3, -0.7, 1.1]))
        path = tmp_path / "long.json"
        fileio.save_json(fileio.path_to_doc([pose] * 1200, 0.1, "base", False,
                                            with_orientation=False), path)
        code, out, _ = run(capsys, "plan", "--robot", "3r-canonical", "--path", str(path),
                           "--ik-seeds", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["joint_path"]["cost"] == 0.0
        assert len(doc["joint_path"]["q"]) == 1200

    def test_declared_joint_limits_enforced(self, capsys, tmp_path):
        # q3 in [-3, 0.5] rules out the solution near q3 = 1.1 along an
        # 11-sample vertical segment; the other branch stays inside
        r3 = canonical_3r()
        robot_doc = fileio.robot_to_doc(r3)
        robot_doc["joint_limits"] = [[-np.pi, np.pi], [-np.pi, np.pi], [-3.0, 0.5]]
        p0 = forward_kinematics(r3, np.array([0.3, -0.7, 1.1])).position
        poses = [Pose(np.eye(3), p0 + [0.0, 0.0, 0.001 * k]) for k in range(11)]
        robot, path = tmp_path / "robot.json", tmp_path / "path.json"
        fileio.save_json(robot_doc, robot)
        fileio.save_json(fileio.path_to_doc(poses, 0.001, "base", False,
                                            with_orientation=False), path)
        code, out, _ = run(capsys, "plan", "--robot", str(robot), "--path", str(path),
                           "--ik-seeds", "8")
        assert code == 0
        q = np.array(json.loads(out)["joint_path"]["q"])
        limits = np.array(robot_doc["joint_limits"])
        assert q.shape == (11, 3)
        assert np.all(q >= limits[:, 0]) and np.all(q <= limits[:, 1])

    def test_closed_path_with_orientations(self, capsys, tmp_path):
        # every sample carries the same orientation, so the endpoints are
        # identical; the closed-path check must read a zero gap
        path = control_loop_path(41)
        doc = fileio.path_to_doc(path.poses, path.dlambda, "base", True)
        for entry in doc["samples"]:
            entry["q_wxyz"] = [0.4456, 0.4684, 0.8762, 0.2565]
        f = tmp_path / "loop.json"
        fileio.save_json(doc, f)
        code, out, _ = run(capsys, "plan", "--robot", "3r-canonical", "--path", str(f),
                           "--ik-seeds", "6")
        assert code == 0
        assert json.loads(out)["closed"] is True

    def test_bad_path_file(self, capsys, tmp_path):
        # each file is refused before any IK runs, by the field that is wrong
        const = {"frame": "base", "dlambda": 0.1, "samples": [{"p": [3.0, 0.0, -0.5]}] * 3}
        cases = [({}, "frame"),
                 ({**const, "closed": "false"}, "closed"),
                 ({**const, "samples": [{"p": [3.0, 0.0]}] * 3}, "position p"),
                 ({**const, "samples": [{"p": [3.0, 0.0, -0.5, 1.0]}] * 3}, "position p"),
                 ({**const, "samples": [{"p": [3.0, 0.0, -0.5], "q_wxyz": [1.0, 0.0, 0.0]}] * 3},
                  "q_wxyz")]
        cases += [({**const, "samples": [{"p": [3.0, 0.0, -0.5], "q_wxyz": q}] * 3}, "q_wxyz")
                  for q in ([0.0, 0.0, 0.0, 0.0], [float("nan"), 0.0, 0.0, 0.0])]
        cases += [({**const, "samples": samples}, "samples must be a list")
                  for samples in ({"0": {"p": [3.0, 0.0, -0.5]}}, 5, None)]
        bad = tmp_path / "bad.json"
        for doc, field in cases:
            bad.write_text(json.dumps(doc))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, "plan", "--robot", "3r-canonical",
                                     "--path", str(bad), "--ik-seeds", "4")
            assert code == 2
            assert out == ""
            assert any(line.startswith("error:") and field in line for line in err.splitlines())
            assert "RuntimeWarning" not in err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("name", [5, None, ["a"]], ids=["number", "null", "list"])
    def test_robot_name_not_a_string(self, capsys, tmp_path, const_path_file, name):
        robot = tmp_path / "robot.json"
        robot.write_text(json.dumps({**fileio.robot_to_doc(canonical_3r()), "name": name}))
        code, out, err = run(capsys, "plan", "--robot", str(robot), "--path", const_path_file,
                             "--ik-seeds", "4")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: robot file {str(robot)!r}: name must be a string, "
                                    f"got {name!r}"]

    @pytest.mark.parametrize("bad,named", [
        ({1: {"p": [3.0, 0.0]}}, "sample 1: position p"),
        ({0: {"p": [3.0, 0.0]}, 1: {"p": [3.0, 0.0]}, 2: {"p": [3.0, 0.0]}},
         "sample 0: position p"),
        ({2: {"p": [3.0, float("inf"), -0.5]}}, "sample 2"),
        ({1: {"p": [3.0, 0.0, -0.5], "q_wxyz": [0.0, 0.0, 0.0, 0.0]}}, "sample 1: quaternion"),
        (None, "at least 2 samples, got 1"),
    ], ids=["ragged-p", "two-entry-p", "non-finite", "zero-q", "one-sample"])
    def test_bad_sample_is_named(self, capsys, tmp_path, bad, named):
        samples = [{"p": [3.0, 0.0, -0.5]} for _ in range(3)]
        if bad is None:
            samples = samples[:1]
        else:
            for k, entry in bad.items():
                samples[k] = entry
        f = tmp_path / "bad-sample.json"
        f.write_text(json.dumps({"frame": "base", "dlambda": 0.1, "samples": samples}))
        code, out, err = run(capsys, "plan", "--robot", "3r-canonical", "--path", str(f),
                             "--ik-seeds", "4")
        assert code == 2
        assert out == ""
        assert any(line.startswith("error:") and str(f) in line and named in line
                   for line in err.splitlines()), err
        assert "inhomogeneous" not in err


class TestNonFiniteInput:
    @pytest.mark.parametrize("command,bad", [("plan", "axis"), ("identify", "axis"),
                                             ("plan", "dlambda"), ("plan", "sample")])
    def test_exits_2(self, capsys, tmp_path, const_path_file, command, bad):
        robot_doc = fileio.robot_to_doc(canonical_3r())
        path_doc = fileio.load_json(const_path_file)
        if bad == "axis":
            robot_doc["axes"][1][0] = float("nan")
        elif bad == "dlambda":
            path_doc["dlambda"] = float("nan")
        else:
            path_doc["samples"][2]["p"][0] = float("nan")
        # plain json writes the NaN that the strict fileio writer refuses
        robot, path = tmp_path / "robot.json", tmp_path / "path.json"
        robot.write_text(json.dumps(robot_doc))
        path.write_text(json.dumps(path_doc))
        argv = [command, "--robot", str(robot), "--ik-seeds", "6"]
        if command == "plan":
            argv += ["--path", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert any(line.startswith("error:") for line in err.splitlines())


class TestNonNumericInput:
    # numbers written as JSON strings, booleans or nulls are refused, not cast
    @pytest.mark.parametrize("command,edit,named", [
        ("plan", lambda r, p: p.update(dlambda="0.01"), "dlambda"),
        ("plan", lambda r, p: p.update(dlambda=True), "dlambda"),
        ("plan", lambda r, p: p["samples"][1].update(p=["3.0", "0.0", "-0.5"]),
         "sample 1: position p"),
        ("plan", lambda r, p: p["samples"][0].update(p=[3.0, None, -0.5]),
         "sample 0: position p"),
        ("plan", lambda r, p: p["samples"][2].update(q_wxyz=["1", "0", "0", "0"]),
         "sample 2: quaternion q_wxyz"),
        ("plan", lambda r, p: p["samples"][2].update(q_wxyz=[True, False, False, False]),
         "sample 2: quaternion q_wxyz"),
        ("identify", lambda r, p: r.update(axes=[["0", "0", "1"]] * 3), "axes"),
        ("plan", lambda r, p: r["offsets"][1].__setitem__(0, "1.0"), "offsets"),
        ("identify", lambda r, p: r.update(tool_offset=[str(v) for v in r["tool_offset"]]),
         "tool_offset"),
        # a boolean among numbers, which numpy would cast to 0 or 1
        ("plan", lambda r, p: p.update(samples=[{"p": [1.5, True, 0.3]}, {"p": [1.5, 1.0, 0.4]}]),
         "sample 0: position p"),
        ("plan", lambda r, p: p["samples"][2].update(q_wxyz=[1.0, False, 0.0, 0.0]),
         "sample 2: quaternion q_wxyz"),
        ("identify", lambda r, p: r["axes"][1].__setitem__(0, False), "axes"),
        ("plan", lambda r, p: r["tool_offset"].__setitem__(2, True), "tool_offset"),
    ], ids=["dlambda-string", "dlambda-bool", "p-strings", "p-null", "q-strings", "q-bools",
            "axes-strings", "offsets-string", "tool-strings", "p-mixed-bool", "q-mixed-bool",
            "axes-mixed-bool", "tool-mixed-bool"])
    def test_exits_2(self, capsys, tmp_path, command, edit, named):
        robot_doc = fileio.robot_to_doc(canonical_3r())
        path_doc = {"frame": "base", "dlambda": 0.1,
                    "samples": [{"p": [3.0, 0.0, -0.5]} for _ in range(3)]}
        edit(robot_doc, path_doc)
        robot, path = tmp_path / "robot.json", tmp_path / "path.json"
        robot.write_text(json.dumps(robot_doc))
        path.write_text(json.dumps(path_doc))
        argv = [command, "--robot", str(robot)]
        if command == "plan":
            argv += ["--path", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert any(line.startswith("error:") and named in line
                   for line in err.splitlines()), err

    # documents that are not JSON objects, and a boolean dof, which Python
    # would count as 1
    @pytest.mark.parametrize("command,kind,doc,named", [
        ("plan", "robot", "name dof axes offsets tool_offset", "must be a JSON object"),
        ("plan", "robot", ["dof"], "must be a JSON object"),
        ("identify", "robot", {"dof": True, "axes": [[0.0, 0.0, 1.0]], "offsets": [[0.0] * 3],
                               "tool_offset": [1.0, 0.0, 0.0]}, "dof must be an integer"),
        ("plan", "path", "frame dlambda samples", "must be a JSON object"),
        ("optimize", "toolpath", ["frame", "dlambda", "samples"], "must be a JSON object"),
    ], ids=["robot-string", "robot-list", "dof-bool", "path-string", "toolpath-list"])
    def test_non_object_exits_2(self, capsys, tmp_path, command, kind, doc, named):
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps(doc))
        argv = [command, "--robot", str(bad) if kind == "robot" else "3r-canonical"]
        if command == "plan":
            argv += ["--path", str(bad) if kind == "path" else "3r-infeasible-line"]
        if command == "optimize":
            argv += ["--toolpath", str(bad)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert any(line.startswith(f"error: {kind} file {str(bad)!r}") and named in line
                   for line in err.splitlines()), err


class TestNonFiniteOptions:
    @pytest.mark.parametrize("argv", [
        ["plan", "--robot", "3r-canonical", "--path", "3r-infeasible-line", "--ik-seeds", "4",
         "--eps0", "inf"],
        ["plan", "--robot", "3r-canonical", "--path", "3r-infeasible-line-control",
         "--ik-seeds", "4", "--eps0", "nan"],
        ["map", "--robot", "3r-canonical", "--rho-range", "nan", "1", "--z-range", "0", "1",
         "--grid", "2", "2"],
        ["map", "--robot", "3r-canonical", "--rho-range", "0", "1", "--z-range", "0", "inf",
         "--grid", "2", "2"],
        ["map", "--robot", "3r-canonical", "--rho-range", "0", "1", "--z-range", "0", "1",
         "--grid", "0", "2"],
        ["helix", "--turns", "-1", "--samples", "5"],
        ["helix", "--radius", "nan", "--samples", "5"],
        ["helix", "--pitch", "inf", "--samples", "5"],
        ["optimize", "--robot", "3r-canonical", "--toolpath", "3r-helix", "--max-evals", "0"],
        ["optimize", "--robot", "3r-canonical", "--toolpath", "3r-helix", "--max-evals", "-5"],
        ["helix", "--radius", "0", "--pitch", "0", "--turns", "1", "--samples", "3"],
    ])
    def test_bad_numbers_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert any(line.startswith("error:") for line in err.splitlines())

    def test_non_finite_output_exits_2(self, capsys, monkeypatch):
        # stdout is strict JSON: a NaN that slips through fails loudly
        helix = fileio.generate_helix(samples=5)
        helix["dlambda"] = float("nan")
        monkeypatch.setattr(fileio, "generate_helix", lambda **kwargs: helix)
        code, out, err = run(capsys, "helix", "--samples", "5")
        assert code == 2
        assert out == ""
        assert any(line.startswith("error:") for line in err.splitlines())


class TestSeedCount:
    @pytest.mark.parametrize("command", ["plan", "identify", "map"])
    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_non_positive_exits_2(self, capsys, const_path_file, command, seeds):
        argv = {"plan": ["--path", const_path_file],
                "identify": ["--max-poses", "1"],
                "map": ["--rho-range", "0", "1", "--z-range", "0", "1", "--grid", "2", "2"]}
        code, out, err = run(capsys, command, "--robot", "3r-canonical", "--ik-seeds", seeds,
                             *argv[command])
        assert code == 2
        assert out == ""
        assert any(line.startswith("error:") and "seeds_per_joint" in line
                   for line in err.splitlines())


class TestDlambdaSpacing:
    @pytest.mark.parametrize("command,frame,dlambda", [("plan", "base", 5.0),
                                                       ("plan", "base", 1e-4),
                                                       ("optimize", "workpiece", 5.0)])
    def test_mismatch_exits_2(self, capsys, tmp_path, command, frame, dlambda):
        # 11 samples 0.001 apart: a dlambda off by more than 2x either way
        # would scale eps and the reported rms by the same factor
        r3 = canonical_3r()
        p0 = forward_kinematics(r3, np.array([0.3, -0.7, 1.1])).position
        poses = [Pose(np.eye(3), p0 + [0.0, 0.0, 0.001 * k]) for k in range(11)]
        path = tmp_path / "path.json"
        fileio.save_json(fileio.path_to_doc(poses, dlambda, frame, False), path)
        flag = "--path" if command == "plan" else "--toolpath"
        code, out, err = run(capsys, command, "--robot", "3r-canonical", flag, str(path),
                             "--ik-seeds", "6")
        assert code == 2
        assert out == ""
        assert any(line.startswith("error:") and "dlambda" in line for line in err.splitlines())


class TestOverflowingInput:
    # finite inputs whose float value, or a value derived from them, overflows
    @pytest.mark.parametrize("command,dlambda,extra,named", [
        ("plan", 10 ** 400, [], "error: path file"),
        ("optimize", 10 ** 400, [], "error: toolpath file"),
        ("plan", 2.0, ["--eps0", "1e308"], "eps0"),
    ], ids=["plan-huge-int-dlambda", "optimize-huge-int-dlambda", "plan-eps0"])
    def test_path_input_exits_2(self, capsys, tmp_path, command, dlambda, extra, named):
        # 11 samples at one point, so dlambda is not held to a sample spacing
        pose = forward_kinematics(canonical_3r(), np.array([0.3, -0.7, 1.1]))
        frame, flag = ("base", "--path") if command == "plan" else ("workpiece", "--toolpath")
        doc = fileio.path_to_doc([pose] * 11, 2.0, frame, False)
        doc["dlambda"] = dlambda
        path = tmp_path / "path.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--robot", "3r-canonical", flag, str(path),
                             "--ik-seeds", "4", *extra)
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error:") and named in line and "dlambda" in line, err

    @pytest.mark.parametrize("dlambda,code,want", [
        (0.1, 2, "error: path file '{}': dlambda 0.1 disagrees with the mean sample "
                 "spacing 1e+200 by more than 2x"),
        (1e200, 4, "infeasible:"),
    ], ids=["spacing-check", "unreachable"])
    def test_samples_far_apart(self, capsys, tmp_path, dlambda, code, want):
        # samples 1e200 apart: their spacing is finite though its square is
        # not, and no IK start survives that far away; numpy must not warn
        doc = {"frame": "base", "dlambda": dlambda,
               "samples": [{"p": [k * 1e200, 0.0, 0.0]} for k in range(3)]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        got, out, err = run(capsys, "plan", "--robot", "3r-canonical", "--path", str(path))
        assert got == code
        (line,) = err.splitlines()
        assert line.startswith(want.format(path)), err

    def test_map_far_window(self, capsys):
        code, out, err = run(capsys, "map", "--robot", "3r-canonical", "--rho-range", "0",
                             "1e200", "--z-range", "-3", "3", "--grid", "3", "3")
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == ["-3,0,0,0", "0,0,0,0", "3,0,0,0"]

    def test_helix_exits_2(self, capsys):
        # pitch * turns overflows, and numpy must not warn on the way
        code, out, err = run(capsys, "helix", "--samples", "3", "--pitch", "1e308",
                             "--turns", "2")
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error:") and "pitch" in line, err


class TestOptimize:
    def test_small_helix(self, capsys, tmp_path):
        helix = tmp_path / "helix.json"
        fileio.save_json(fileio.generate_helix(samples=40), helix)
        code, out, _ = run(capsys, "optimize", "--robot", "3r-canonical",
                           "--toolpath", str(helix), "--starts", "2", "--seed", "0",
                           "--ik-seeds", "8", "--max-evals", "12")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["starts"]) == 2
        assert doc["starts"][0]["is_best"] is True
        hist = doc["starts"][0]["history"]
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_unreachable_toolpath(self, capsys, tmp_path):
        far = [Pose(np.eye(3), np.array([30.0 + k, 0.0, 0.0])) for k in range(3)]
        doc = fileio.path_to_doc(far, 1.0, "workpiece", False)
        p = tmp_path / "far.json"
        fileio.save_json(doc, p)
        code, _, err = run(capsys, "optimize", "--robot", "3r-canonical",
                           "--toolpath", str(p), "--starts", "1", "--ik-seeds", "6")
        assert code == 5
        assert "error" in err

    def test_first_joint_off_base_z_exits_2(self, capsys, tmp_path):
        # the five-parameter placement drops rotation about the base z axis,
        # which is lossless only when joint 1 turns freely about it
        off_axis = fileio.robot_to_doc(canonical_3r())
        off_axis["axes"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        limited = fileio.robot_to_doc(canonical_3r())
        limited["joint_limits"] = [[-0.5, 0.5], [-4.0, 4.0], [-4.0, 4.0]]
        helix = tmp_path / "helix.json"
        fileio.save_json(fileio.generate_helix(samples=12), helix)
        for robot_doc, message in ((off_axis, "first joint axis"), (limited, "joint 1 limits")):
            robot = tmp_path / "robot.json"
            fileio.save_json(robot_doc, robot)
            code, out, err = run(capsys, "optimize", "--robot", str(robot), "--toolpath",
                                 str(helix), "--starts", "1", "--max-evals", "6",
                                 "--ik-seeds", "3")
            assert code == 2
            assert out == ""
            assert any(line.startswith("error:") and message in line
                       for line in err.splitlines())

    def test_deterministic(self, capsys, tmp_path):
        helix = tmp_path / "helix.json"
        fileio.save_json(fileio.generate_helix(samples=30), helix)
        args = ("optimize", "--robot", "3r-canonical", "--toolpath", str(helix),
                "--starts", "1", "--seed", "1", "--ik-seeds", "8", "--max-evals", "8")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestDegenerateArm:
    @pytest.mark.parametrize("command", ["identify", "plan", "map", "optimize"])
    @pytest.mark.parametrize("arm", degenerate_3r_arms(), ids=lambda arm: arm.name)
    def test_exits_2(self, capsys, tmp_path, command, arm):
        # det J vanishes everywhere: no target has isolated IK solutions
        robot = tmp_path / "robot.json"
        fileio.save_json(fileio.robot_to_doc(arm), robot)
        argv = {"identify": ["--max-poses", "1"],
                "plan": ["--path", "3r-infeasible-line"],
                "map": ["--rho-range", "0", "1", "--z-range", "0", "1", "--grid", "2", "2"],
                "optimize": ["--toolpath", "3r-helix", "--starts", "1", "--max-evals", "1"]}
        code, out, err = run(capsys, command, "--robot", str(robot), *argv[command])
        assert code == 2
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors
        # optimize refuses an arm whose joint 1 is off the base z axis
        # before it runs any IK
        if command != "optimize" or arm.axes[0][2] == 1.0:
            assert "no isolated IK solutions" in errors[0]


    def test_coaxial_6r_exits_2(self, capsys, tmp_path):
        # joints 1 and 2 turn as one; the seed grid used to return non-isolated
        # points as exact solutions and exit 3 undetermined
        robot = tmp_path / "robot.json"
        fileio.save_json(fileio.robot_to_doc(coaxial_6r()), robot)
        code, out, err = run(capsys, "identify", "--robot", str(robot), "--max-poses", "2",
                             "--ik-seeds", "4")
        assert code == 2
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors and "no isolated IK solutions" in errors[0]


class TestMap:
    def test_small_grid_has_all_regions(self, capsys, tmp_path):
        out_csv = tmp_path / "map.csv"
        code, out, _ = run(capsys, "map", "--robot", "3r-canonical",
                           "--rho-range", "0", "5", "--z-range", "-3", "3",
                           "--grid", "12", "12", "--ik-seeds", "8",
                           "--out", str(out_csv))
        assert code == 0
        text = out_csv.read_text()
        assert out == text
        rows = text.strip().split("\n")[1:]
        cells = [int(v) for row in rows for v in row.split(",")[1:]]
        assert {0, 2, 4} <= set(cells)

    def test_degenerate_grid(self, capsys):
        code, out, _ = run(capsys, "map", "--robot", "3r-canonical",
                           "--rho-range", "2", "2", "--z-range", "0", "0",
                           "--grid", "1", "1", "--ik-seeds", "8")
        assert code == 0

    def test_unreachable_window_all_zero(self, capsys):
        code, out, _ = run(capsys, "map", "--robot", "3r-canonical",
                           "--rho-range", "50", "51", "--z-range", "0", "1",
                           "--grid", "2", "2", "--ik-seeds", "6")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        cells = [int(v) for row in rows for v in row.split(",")[1:]]
        assert set(cells) == {0}

    def test_threads_reach_the_ik(self, capsys, monkeypatch):
        # five targets of four closed-form rows per chunk split the 48
        # targets into ten chunks, so two threads really solve side by side;
        # the CSV must not change
        seen = []
        solve = ik._solve

        def spy(robot, Tpos, Trot, cfg):
            seen.append(cfg.threads)
            return solve(robot, Tpos, Trot, cfg)

        monkeypatch.setattr(ik, "_solve", spy)
        chunks = count_calls(monkeypatch, ik, "_refine_population")
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 5 * 4)
        argv = ["map", "--robot", "3r-canonical", "--rho-range", "0", "5",
                "--z-range", "-3", "3", "--grid", "8", "6", "--ik-seeds", "6"]
        outs = []
        for threads in ("1", "2"):
            code, out, _ = run(capsys, *argv, "--threads", threads)
            assert code == 0
            outs.append(out)
        assert seen == [1, 2]
        assert len(chunks) == 2 * 10
        assert outs[0] == outs[1]

    def test_rejects_6r(self, capsys):
        code, _, err = run(capsys, "map", "--robot", "3parallel-cuspidal",
                           "--rho-range", "0", "1", "--z-range", "0", "1",
                           "--grid", "2", "2")
        assert code == 2


class TestHelixCommand:
    def test_writes_path_file(self, capsys, tmp_path):
        out = tmp_path / "helix.json"
        code, stdout, _ = run(capsys, "helix", "--samples", "50", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["samples"]) == 50
        assert json.loads(stdout) == doc

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "helix.json"
        code, out, err = run(capsys, "helix", "--samples", "5", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(target) in err
        assert "Traceback" not in err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # in-process callers run main once per command line; they share one
    # parser, whose building adds the subcommands once
    built, add = [], argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda self, **kw: built.append(None) or add(self, **kw))
    cli.build_parser.cache_clear()
    for samples in ("5", "6"):
        code, out, _ = run(capsys, "helix", "--samples", samples)
        assert code == 0 and len(json.loads(out)["samples"]) == int(samples)
    assert len(built) == 1


class TestThreadsEnv:
    # the environment variable that once overrode --threads
    VAR = "CUSPIDAL_KIT_THREADS"

    def test_env_is_ignored(self, capsys, const_path_file, monkeypatch):
        # --threads is the one way to set the thread count: VAR in the
        # environment changes nothing
        argv = ["plan", "--robot", "3r-canonical", "--path", const_path_file, "--ik-seeds", "6"]
        monkeypatch.delenv(self.VAR, raising=False)
        code, want, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setenv(self.VAR, "0")
        code, got, _ = run(capsys, *argv)
        assert code == 0 and got == want

    @pytest.mark.parametrize("command,threads,env", [("plan", "0", None), ("plan", "-4", None),
                                                     ("map", "0", None), ("plan", "0", "2"),
                                                     ("identify", "0", None),
                                                     ("optimize", "0", None),
                                                     ("helix", "2", None)])
    def test_below_one_exits_2(self, capsys, const_path_file, monkeypatch, command, threads, env):
        # helix runs no IK, so it has no --threads flag to accept; a valid
        # VAR (env) does not rescue a bad flag
        if env is not None:
            monkeypatch.setenv(self.VAR, env)
        ik_flags = ["--robot", "3r-canonical", "--ik-seeds", "6"]
        argv = {"plan": [*ik_flags, "--path", const_path_file],
                "map": [*ik_flags, "--rho-range", "0", "1", "--z-range", "0", "1",
                        "--grid", "2", "2"],
                "identify": [*ik_flags, "--max-poses", "1"],
                "optimize": [*ik_flags, "--toolpath", "3r-helix", "--max-evals", "1"],
                "helix": ["--samples", "5"]}
        code, out, err = run(capsys, command, *argv[command], "--threads", threads)
        assert code == 2
        assert out == ""
        # argparse prefixes its own errors with the program name
        prefix = "cuspidal-kit: error:" if command == "helix" else "error:"
        assert any(line.startswith(prefix) and "THREADS" in line.upper() and threads in line
                   for line in err.splitlines())

import gc
import json
import weakref

import numpy as np
import numpy.testing as nt
import pytest

from conftest import count_calls
from cuspidal_kit import cli, fileio, optimizer, planner, scenarios
from cuspidal_kit import ik as ik_module
from cuspidal_kit.ik import IKConfig
from cuspidal_kit.kinematics import (
    Pose,
    RobotModel,
    forward_kinematics,
    quat_to_rotation,
    rot_about_axis,
    rot_z,
    rotation_to_quat,
)
from cuspidal_kit.optimizer import (
    INFEASIBLE_SENTINEL,
    ReducedParams,
    StartExhaustionError,
    WorkpiecePose,
    decompose_rz_rxy,
    nelder_mead,
    objective,
    optimize_workpiece_pose,
    price_placements,
    random_feasible_start,
    reduced_to_pose,
    transform_toolpath,
)
from cuspidal_kit.planner import PlannerConfig, TaskPath, plan_path
from cuspidal_kit.scenarios import canonical_3r
from oracles import disk_start_pose, pointwise_nelder_mead


def _random_rotation(rng):
    q = rng.normal(size=4)
    return quat_to_rotation(q / np.linalg.norm(q))


def _toolpath(points, dlambda=0.05):
    return TaskPath.from_poses([Pose(np.eye(3), np.asarray(p, float)) for p in points],
                               dlambda=dlambda)


def _stacked(f):
    """f of one point as the stack-to-values callable nelder_mead takes."""
    return lambda X: [f(x) for x in X]


def _rosen(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)


def _plateau(x):
    v = float(np.sum(x ** 2))
    return 1e9 if v > 1.0 else v


def _staircase(x):
    # flat steps make contraction fail, so most iterations shrink
    return float(np.floor(10.0 * np.sum(x ** 2)))


@pytest.fixture(scope="module")
def helix_tp():
    return fileio.toolpath_from_doc(fileio.generate_helix(samples=120))


class TestTransformToolpath:
    def test_identity(self):
        tp = _toolpath([[0.1, 0, 0], [0.2, 0, 0]])
        out = transform_toolpath(WorkpiecePose([1.0, 0.0, 0.0, 0.0], np.zeros(3)), tp)
        for a, b in zip(tp.poses, out.poses):
            nt.assert_array_equal(a.position, b.position)
            nt.assert_array_equal(a.rotation, b.rotation)

    def test_pure_translation(self):
        tp = _toolpath([[0.1, 0, 0], [0.2, 0, 0]])
        d = np.array([1.0, -2.0, 0.5])
        out = transform_toolpath(WorkpiecePose(np.array([1.0, 0, 0, 0]), d), tp)
        for a, b in zip(tp.poses, out.poses):
            nt.assert_allclose(b.position, a.position + d)
            nt.assert_array_equal(a.rotation, b.rotation)

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(20)
        tp = TaskPath.from_poses(
            [Pose(_random_rotation(rng), rng.normal(size=3)) for _ in range(5)], dlambda=0.1)
        q = rng.normal(size=4)
        wp = WorkpiecePose(q, rng.normal(size=3))
        T = np.eye(4)
        T[:3, :3] = wp.rotation
        T[:3, 3] = wp.p
        out = transform_toolpath(wp, tp)
        for a, b in zip(tp.poses, out.poses):
            Ta = np.eye(4)
            Ta[:3, :3], Ta[:3, 3] = a.rotation, a.position
            Tb = T @ Ta
            nt.assert_allclose(b.rotation, Tb[:3, :3], atol=1e-12)
            nt.assert_allclose(b.position, Tb[:3, 3], atol=1e-12)

    def test_equivariance_under_composition(self):
        rng = np.random.default_rng(21)
        tp = TaskPath.from_poses(
            [Pose(_random_rotation(rng), rng.normal(size=3)) for _ in range(4)], dlambda=0.1)
        Ra, Rb = _random_rotation(rng), _random_rotation(rng)
        pa, pb = rng.normal(size=3), rng.normal(size=3)
        ab = WorkpiecePose(rotation_to_quat(Ra @ Rb), pa + Ra @ pb)
        once = transform_toolpath(ab, tp)
        twice = transform_toolpath(WorkpiecePose(rotation_to_quat(Ra), pa),
                                   transform_toolpath(WorkpiecePose(rotation_to_quat(Rb), pb), tp))
        for a, b in zip(once.poses, twice.poses):
            nt.assert_allclose(a.rotation, b.rotation, atol=1e-12)
            nt.assert_allclose(a.position, b.position, atol=1e-12)


class TestReducedParams:
    def test_identity(self):
        wp = reduced_to_pose(ReducedParams(np.zeros(2), np.zeros(3)))
        nt.assert_array_equal(wp.quat, [1.0, 0, 0, 0])
        nt.assert_array_equal(wp.p, np.zeros(3))

    def test_quarter_turn_about_x(self):
        wp = reduced_to_pose(ReducedParams(np.array([np.pi / 2, 0.0]), np.zeros(3)))
        nt.assert_allclose(wp.rotation, rot_about_axis([1, 0, 0], np.pi / 2), atol=1e-12)

    def test_translation_pre_rotates(self):
        x = ReducedParams(np.array([np.sin(np.pi / 4), 0.0]), np.array([0.0, 1.0, 0.0]))
        wp = reduced_to_pose(x)
        nt.assert_allclose(wp.p, wp.rotation @ x.p, atol=1e-15)

    @pytest.mark.parametrize("v,axis,angle", [
        ([0.0, 0.0], [1.0, 0.0, 0.0], 0.0),
        ([-0.6 * np.pi, 0.8 * np.pi], [-0.6, 0.8, 0.0], np.pi),
        ([30.0, -40.0], [0.6, -0.8, 0.0], 50.0),
        ([5e-324, -5e-324], [1.0, 0.0, 0.0], 0.0),
    ], ids=["zero", "half-turn", "norm-50", "subnormal"])
    def test_every_tilt_is_a_rotation(self, capsys, v, axis, angle):
        # v is a rotation vector: no region of the plane is invalid
        wp = reduced_to_pose(ReducedParams(np.array(v), np.zeros(3)))
        R = wp.rotation
        nt.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)
        assert wp.quat[3] == 0.0
        nt.assert_allclose(R, rot_about_axis(axis, angle), atol=1e-12)
        assert capsys.readouterr().err == ""

    def test_roundtrip_array(self):
        x = ReducedParams(np.array([0.1, -0.2]), np.array([1.0, 2.0, 3.0]))
        y = ReducedParams.from_array(x.as_array())
        nt.assert_array_equal(x.v, y.v)
        nt.assert_array_equal(x.p, y.p)


class TestDecompose:
    def test_identity(self):
        theta, R_xy = decompose_rz_rxy(np.eye(3))
        assert theta == 0.0
        nt.assert_array_equal(R_xy, np.eye(3))

    def test_pure_z_rotation(self):
        theta, R_xy = decompose_rz_rxy(rot_z(0.7))
        assert theta == pytest.approx(0.7)
        nt.assert_allclose(R_xy, np.eye(3), atol=1e-12)

    def test_random_round_trips(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            R = _random_rotation(rng)
            theta, R_xy = decompose_rz_rxy(R)
            nt.assert_allclose(rot_z(theta) @ R_xy, R, atol=1e-12)
            q = rotation_to_quat(R_xy)
            assert abs(q[3]) < 1e-12


class TestNelderMead:
    def test_convex_bowl(self):
        a = np.array([1.0, -2.0, 0.5])
        x, fx, hist = nelder_mead(_stacked(lambda x: float(np.sum((x - a) ** 2))), np.zeros(3))
        nt.assert_allclose(x, a, atol=1e-6)

    def test_rosenbrock(self):
        x, fx, hist = nelder_mead(_stacked(_rosen), np.array([-1.2, 1.0]), max_evals=2000)
        nt.assert_allclose(x, [1.0, 1.0], atol=1e-4)
        assert len(hist) <= 2000

    @pytest.mark.parametrize("max_evals", [0, -5])
    def test_budget_below_one_rejected(self, max_evals):
        with pytest.raises(ValueError, match="max_evals must be >= 1"):
            nelder_mead(_stacked(lambda x: float(x @ x)), np.ones(2), max_evals=max_evals)

    def test_initial_simplex_ignores_budget(self):
        _, _, hist = nelder_mead(_stacked(lambda x: float(x @ x)), np.ones(5), max_evals=1)
        assert len(hist) == 6

    def test_budget_overshoot_is_at_most_n_plus_1(self):
        # the budget is checked once per iteration, and one iteration can
        # price a reflection, a contraction and the n points of a shrink
        x0 = np.array([1.0, -1.0, 0.5, 0.3, -0.7])
        over = [len(nelder_mead(_stacked(_staircase), x0, max_evals)[2]) - max_evals
                for max_evals in range(1, 200)]
        assert max(over) == x0.size + 1

    def test_history_non_increasing_on_plateau(self):
        _, _, hist = nelder_mead(_stacked(_plateau), np.array([2.0, 2.0]), max_evals=200)
        assert np.all(np.diff(hist) <= 0)

    @pytest.mark.parametrize("f,x0,max_evals", [
        (_rosen, [-1.2, 1.0], 2000),
        (_plateau, [2.0, 2.0], 200),
        (_staircase, [1.0, -1.0, 0.5], 300),
        (lambda x: float(x @ x), np.ones(5), 1),
    ], ids=["rosenbrock", "plateau", "shrink-steps", "max-evals-1"])
    @pytest.mark.parametrize("known_f0", [False, True])
    def test_matches_pointwise_oracle(self, f, x0, max_evals, known_f0):
        x0 = np.asarray(x0, dtype=float)
        stacks = []

        def batched(X):
            stacks.append(len(X))
            return [f(x) for x in X]

        x, fx, hist = nelder_mead(batched, x0, max_evals, f0=f(x0) if known_f0 else None)
        want_x, want_f, want_hist = pointwise_nelder_mead(f, x0, max_evals)
        assert x.tobytes() == want_x.tobytes()
        assert fx == want_f and hist == want_hist
        # the initial simplex is one stack; a shrink step's n points are one
        n = x0.size
        assert stacks[0] == (n if known_f0 else n + 1)
        assert sum(stacks) + known_f0 == len(hist)
        assert set(stacks[1:]) <= {1, n}
        if f is _staircase:
            assert stacks[1:].count(n) > 5


class TestObjective:
    def test_constant_toolpath_costs_zero(self, r3):
        tp = _toolpath([[0.5, 0.1, 0.2]] * 4)
        x = ReducedParams(np.zeros(2), np.array([1.5, 0.0, 0.3]))
        val = objective(r3, tp, x, ik_cfg=IKConfig(seeds_per_joint=10))
        assert val == 0.0

    def test_matches_plan_cost(self, r3):
        tp = _toolpath([[0.4, 0.0, 0.0], [0.45, 0.0, 0.02], [0.5, 0.0, 0.04]])
        x = ReducedParams(np.array([0.05, -0.1]), np.array([2.0, 0.2, 0.1]))
        ik = IKConfig(seeds_per_joint=10)
        val = objective(r3, tp, x, ik_cfg=ik)
        res = plan_path(r3, transform_toolpath(reduced_to_pose(x), tp), ik_cfg=ik)
        assert res.feasible
        assert val == res.path.weight

    def test_unreachable_hits_sentinel(self, r3):
        tp = _toolpath([[0.0, 0, 0], [0.1, 0, 0]])
        x = ReducedParams(np.zeros(2), np.array([50.0, 0.0, 0.0]))
        val = objective(r3, tp, x, ik_cfg=IKConfig(seeds_per_joint=6))
        assert val >= INFEASIBLE_SENTINEL

    def test_quaternion_scale_invariance(self, r3):
        tp = _toolpath([[0.4, 0, 0], [0.5, 0, 0.05]])
        rng = np.random.default_rng(23)
        wp = WorkpiecePose(rng.normal(size=4), np.array([1.8, 0.3, 0.2]))
        ik = IKConfig(seeds_per_joint=10)
        base = price_placements(r3, tp, [wp], ik_cfg=ik)[0][0]
        for lam in (0.5, 2.0, 1.31):
            scaled = WorkpiecePose(lam * wp.quat, wp.p.copy())
            assert abs(price_placements(r3, tp, [scaled], ik_cfg=ik)[0][0] - base) <= 1e-12

    def test_z_rotation_null_space(self, r3):
        # valid because the canonical arm has h1 = e_z and p_01 along z
        tp = _toolpath([[0.4, 0, 0], [0.45, 0.05, 0.03], [0.5, 0.1, 0.06]])
        rng = np.random.default_rng(24)
        ik = IKConfig(seeds_per_joint=12)
        wp = WorkpiecePose(rng.normal(size=4), np.array([1.8, 0.4, 0.1]))
        base = price_placements(r3, tp, [wp], ik_cfg=ik)[0][0]
        assert base < INFEASIBLE_SENTINEL
        for alpha in (0.9, -2.2):
            Rz = rot_z(alpha)
            rotated = WorkpiecePose(rotation_to_quat(Rz @ wp.rotation), Rz @ wp.p)
            assert abs(price_placements(r3, tp, [rotated], ik_cfg=ik)[0][0] - base) < 1e-9


class TestPricePlacements:
    # one batch mixes feasible placements with an unreachable one
    @pytest.mark.parametrize("robot,helix,threads", [
        ("3r-canonical", {}, 1),
        ("3r-canonical", {"pitch": 0.0, "turns": 1.0}, 1),
        ("3parallel-cuspidal", {"orientation_mode": "tangent-following"}, 1),
        ("3r-canonical", {}, 2),
    ], ids=["helix", "closed-helix", "6r-tangent-helix", "threads-2"])
    def test_batch_equals_standalone(self, monkeypatch, robot, helix, threads):
        if threads > 1:
            # chunks of 7 targets, so the batch is split across the threads
            monkeypatch.setattr(ik_module, "_CHUNK_ROWS", 28)
        robot = scenarios.ROBOTS[robot]()
        tp = fileio.toolpath_from_doc(fileio.generate_helix(samples=30, **helix))
        ik = IKConfig(seeds_per_joint=6, threads=threads)
        xs = [random_feasible_start(robot, tp, np.random.default_rng(s), ik_cfg=ik)[0]
              for s in range(3)]
        xs.insert(1, ReducedParams(np.zeros(2), np.array([50.0, 0.0, 0.0])))
        poses = [reduced_to_pose(x) for x in xs]
        priced = price_placements(robot, tp, poses, ik_cfg=ik)
        assert len(priced) == 4 and priced[1][0] > INFEASIBLE_SENTINEL
        for x, wp, (val, res) in zip(xs, poses, priced):
            assert val == objective(robot, tp, x, ik_cfg=ik)
            alone = plan_path(robot, transform_toolpath(wp, tp), ik_cfg=ik)
            assert res.feasible == alone.feasible
            assert res.infeasible_span == alone.infeasible_span
            nt.assert_array_equal(res.graph.Q, alone.graph.Q)
            if alone.feasible:
                assert val == alone.path.weight
                assert res.path.rms == alone.path.rms
                assert res.path.vertex_indices == alone.path.vertex_indices
                assert res.path.q.tobytes() == alone.path.q.tobytes()
                assert res.path.det_j.tobytes() == alone.path.det_j.tobytes()

    def test_each_placement_priced_once(self, monkeypatch, tmp_path, capsys):
        # the benchmark's optimize shape: a 30-sample helix, one start, 20
        # evaluations, a start found on the first draw
        helix = tmp_path / "helix.json"
        fileio.save_json(fileio.generate_helix(samples=30), helix)
        placed = count_calls(monkeypatch, optimizer, "transform_toolpath")
        solves = count_calls(monkeypatch, planner, "solve_ik_along_path")
        code = cli.main(["optimize", "--robot", "3r-canonical", "--toolpath", str(helix),
                         "--starts", "1", "--seed", "0", "--max-evals", "20",
                         "--ik-seeds", "6", "--threads", "1"])
        assert code == 0
        [start] = json.loads(capsys.readouterr().out)["starts"]
        assert start["n_evals"] == 20
        # 1 start check, 1 stack of 5 simplex points, 14 single steps
        assert len(placed) == 20
        assert len(solves) == 16


class TestRandomStart:
    def test_constant_reachable_toolpath(self, r3):
        tp = _toolpath([[0.3, 0.0, 0.1]] * 3)
        rng = np.random.default_rng(25)
        x, _, _ = random_feasible_start(r3, tp, rng, ik_cfg=IKConfig(seeds_per_joint=8))
        assert objective(r3, tp, x, ik_cfg=IKConfig(seeds_per_joint=8)) < INFEASIBLE_SENTINEL

    def test_draws_keep_their_disk_placement(self, r3, monkeypatch):
        # the tilt angle 2 arcsin(r) puts each draw where the quaternion-disk
        # tilt did, from the same random numbers
        priced = []
        monkeypatch.setattr(optimizer, "price_placements",
                            lambda robot, tp, poses, *cfg: priced.extend(poses) or [(0.0, None)])
        tp = _toolpath([[0.3, 0.0, 0.1]] * 2)
        r_max = optimizer.workspace_radii(r3)[1]
        for seed in range(200):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            random_feasible_start(r3, tp, rng)
            quat, p = disk_start_pose(replay, r_max)
            nt.assert_allclose(priced[-1].quat, quat, rtol=0.0, atol=1e-12)
            nt.assert_allclose(priced[-1].p, p, rtol=0.0, atol=1e-12)
            assert rng.uniform() == replay.uniform()
        assert len(priced) == 200

    def test_oversized_toolpath_exhausts(self, r3):
        tp = _toolpath([[0.0, 0, 0], [20.0, 0, 0]], dlambda=10.0)
        rng = np.random.default_rng(26)
        with pytest.raises(StartExhaustionError) as info:
            random_feasible_start(r3, tp, rng, ik_cfg=IKConfig(seeds_per_joint=6))
        assert info.value.attempts == 100


class TestOptimize:
    def test_budget_checked_before_any_placement_is_priced(self, monkeypatch, capsys,
                                                           helix_tp):
        plans = count_calls(monkeypatch, optimizer, "plan_path")
        code = cli.main(["optimize", "--robot", "3r-canonical", "--toolpath", "3r-helix",
                         "--max-evals", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: max_evals must be >= 1\n"
        with pytest.raises(ValueError, match="max_evals must be >= 1"):
            optimize_workpiece_pose(canonical_3r(), helix_tp, max_evals=0)
        assert plans == []

    def test_two_starts_on_helix(self, r3, helix_tp):
        ik = IKConfig(seeds_per_joint=8)
        results = optimize_workpiece_pose(
            r3, helix_tp, n_starts=2, seed=0,
            max_evals=30,
            planner_cfg=PlannerConfig(), ik_cfg=ik)
        assert len(results) == 2
        assert results[0].is_best and not results[1].is_best
        assert results[0].final_cost <= results[1].final_cost
        for r in results:
            hist = np.asarray(r.history)
            assert np.all(np.diff(hist) <= 0)
            assert r.final_cost <= r.initial_cost
            assert r.final_rms < r.initial_rms
        # two basins: distinct optimized placements
        assert np.linalg.norm(results[0].pose.p - results[1].pose.p) > 0.05

    def test_unbounded_first_joint_still_optimizes(self, r3):
        # only a finite joint-1 limit breaks the z-rotation null space; strict
        # JSON cannot write an infinite bound, so this arm exists only in code
        limited = RobotModel(r3.axes, r3.offsets, r3.tool_offset,
                             joint_limits=[[-np.inf, np.inf], [-np.pi, np.pi], [-3.0, 0.5]])
        tp = fileio.toolpath_from_doc(fileio.generate_helix(samples=30))
        results = optimize_workpiece_pose(limited, tp, n_starts=1, seed=0,
                                          max_evals=6,
                                          ik_cfg=IKConfig(seeds_per_joint=8))
        assert len(results) == 1 and results[0].final_cost < INFEASIBLE_SENTINEL

    def test_deterministic_for_fixed_seed(self, r3):
        tp = fileio.toolpath_from_doc(fileio.generate_helix(samples=60))
        ik = IKConfig(seeds_per_joint=8)
        kw = dict(n_starts=1, seed=3, max_evals=12,
                  planner_cfg=PlannerConfig(), ik_cfg=ik)
        a = optimize_workpiece_pose(r3, tp, **kw)[0]
        b = optimize_workpiece_pose(r3, tp, **kw)[0]
        assert a.final_cost == b.final_cost
        nt.assert_array_equal(a.x.as_array(), b.x.as_array())
        assert a.history == b.history

    def test_optimized_robot_is_freed(self):
        robot = canonical_3r()
        tp = fileio.toolpath_from_doc(fileio.generate_helix(samples=12))
        results = optimize_workpiece_pose(robot, tp, n_starts=1, seed=0,
                                          max_evals=4)
        assert results[0].final_cost < INFEASIBLE_SENTINEL
        freed = weakref.ref(robot)
        del robot
        gc.collect()
        assert freed() is None

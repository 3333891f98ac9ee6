"""Acceptance suite: the ten exit criteria, one test each.

Each test prints a PASS/FAIL line (visible with -s or in captured output)
and enforces the stated tolerances and runtime bounds. Planning-heavy
criteria use the documented path-planning IK density (a coarser seed grid
than the single-pose default; the two are cross-validated on straight-path
fixtures in the module tests), which is what makes the planner fast enough
to sit inside the optimization loop.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from cuspidal_kit.cuspidality import (
    identify_cuspidal,
    nonsingular_pair_check,
    validate_witness,
)
from cuspidal_kit import fileio
from cuspidal_kit.ik import IKConfig, solve_all_ik
from cuspidal_kit.kinematics import (
    Pose,
    forward_kinematics,
    geodesic_distance,
    jacobian,
    quat_to_rotation,
    rot_z,
    rotation_to_quat,
    wrap_to_pi,
)
from cuspidal_kit.optimizer import (
    INFEASIBLE_SENTINEL,
    WorkpiecePose,
    decompose_rz_rxy,
    optimize_workpiece_pose,
    price_placements,
)
from cuspidal_kit.planner import (
    PlannerConfig,
    TaskPath,
    analyze_repeatability,
    build_plan_graph,
    plan_path,
    shortest_joint_path,
)
from cuspidal_kit.scenarios import (
    THREE_PARALLEL_WITNESS,
    canonical_3r,
    control_loop_path,
    cusp_loop_path,
    elbow_3r,
    infeasible_line_control_path,
    infeasible_line_path,
    three_parallel_6r,
)

from conftest import random_6r
from oracles import DenseGridIKOracle, brute_force_shortest
from test_planner import _layers, _const_path

# seed-grid density used for path planning and optimization runs
PLAN_IK = IKConfig(seeds_per_joint=10)
FAST_PLAN_IK = IKConfig(seeds_per_joint=8)


@contextmanager
def criterion(n: int, label: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {label}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {n}: {label} ({elapsed:.1f} s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {n} exceeded its {budget:.0f} s budget"


def fd_jacobian(robot, q, h=1e-6):
    n = robot.dof
    m = 3 if n == 3 else 6
    J = np.zeros((m, n))
    R0 = forward_kinematics(robot, q).rotation
    for i in range(n):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        Pp, Pm = forward_kinematics(robot, qp), forward_kinematics(robot, qm)
        J[:3, i] = (Pp.position - Pm.position) / (2 * h)
        if m == 6:
            dR = (Pp.rotation - Pm.rotation) / (2 * h) @ R0.T
            J[3:, i] = [dR[2, 1], dR[0, 2], dR[1, 0]]
    return J


def test_criterion_1_jacobian_correctness():
    with criterion(1, "analytic Jacobian matches finite differences on 200 random pairs",
                   budget=5.0):
        rng = np.random.default_rng(100)
        robots = [canonical_3r(), three_parallel_6r(), random_6r(rng)]
        shares = [70, 70, 60]
        worst = 0.0
        for robot, n_cases in zip(robots, shares):
            for _ in range(n_cases):
                q = rng.uniform(-np.pi, np.pi, robot.dof)
                Ja = jacobian(robot, q)
                Jf = fd_jacobian(robot, q)
                scale = max(1.0, np.max(np.abs(Ja)))
                worst = max(worst, np.max(np.abs(Ja - Jf)) / scale)
        assert worst < 1e-6


def test_criterion_2_three_parallel_witness():
    with criterion(2, "three-parallel-axes witness pair validates", budget=1.0):
        robot = three_parallel_6r()
        q_a, q_b = THREE_PARALLEL_WITNESS
        pa, pb = forward_kinematics(robot, q_a), forward_kinematics(robot, q_b)
        assert np.linalg.norm(pa.position - pb.position) < 2e-3
        assert geodesic_distance(pa.rotation, pb.rotation) < 2e-3
        ok, min_det = nonsingular_pair_check(robot, q_a, q_b, samples=1000, pose_tol=2e-3)
        assert ok and min_det > 0.0


def test_criterion_3_identification():
    with criterion(3, "canonical 3R proven cuspidal, elbow undetermined", budget=60.0):
        r3 = canonical_3r()
        verdict = identify_cuspidal(r3, rng_seed=0, max_poses=50)
        assert verdict.proven and verdict.poses_tried <= 50
        assert validate_witness(r3, verdict.witness)
        elbow = elbow_3r()
        neg = identify_cuspidal(elbow, rng_seed=0, max_poses=200)
        assert neg.status == "undetermined" and neg.poses_tried == 200


def test_criterion_4_ik_completeness():
    with criterion(4, "all-solutions IK matches the dense-grid oracle on 50 targets",
                   budget=120.0):
        r3 = canonical_3r()
        oracle = DenseGridIKOracle(r3, n_grid=180)
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 50:
            q = rng.uniform(-np.pi, np.pi, 3)
            pose = forward_kinematics(r3, q)
            ss = solve_all_ik(r3, pose)
            if not ss.solutions or any(abs(s.det_j) <= 0.4 for s in ss.solutions):
                continue  # keep clear of solution-count region boundaries
            assert len(ss.solutions) in (2, 4)
            expected = oracle.solve(pose.position)
            assert len(expected) == len(ss.solutions)
            for q_exp in expected:
                assert any(np.max(np.abs(wrap_to_pi(s.q - q_exp))) < 1e-6
                           for s in ss.solutions)
            checked += 1


def test_criterion_5_planner_oracle_equivalence():
    with criterion(5, "graph shortest path equals brute force on 100 instances",
                   budget=10.0):
        r3 = canonical_3r()
        rng = np.random.default_rng(42)
        for _ in range(100):
            K = int(rng.integers(2, 10))
            layer_sets = [[rng.uniform(-np.pi, np.pi, 3) for _ in range(rng.integers(1, 8))]
                          for _ in range(K + 1)]
            dets = [[float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.1, 2.0))
                     for _ in qs] for qs in layer_sets]
            layers = _layers(layer_sets, dets)
            dl = float(rng.uniform(0.05, 0.5))
            path = _const_path(K + 1, dlambda=dl)
            cfg = PlannerConfig(eps0=float(rng.uniform(5, 60)) / dl,
                                nonsingular_only=bool(rng.random() < 0.5))
            g = build_plan_graph(layers, path, cfg, robot=r3)
            jp = shortest_joint_path(g)
            expected, route = brute_force_shortest(g)
            if jp is None:
                assert np.isinf(expected)
            else:
                assert jp.weight == expected
                # the route visits every layer once: entry k is (k, vertex)
                assert list(enumerate(jp.vertex_indices)) == list(route)
                assert len(route) == K + 1


def test_criterion_6_infeasible_line_detection():
    with criterion(6, "infeasible line detected with all layers nonempty; control feasible",
                   budget=10.0):
        r3 = canonical_3r()
        res = plan_path(r3, infeasible_line_path(101), ik_cfg=PLAN_IK)
        # S connects to every initial IK solution, so infeasibility covers
        # every choice of start
        assert not res.feasible
        assert min(res.graph.layer_counts) > 0
        control = plan_path(r3, infeasible_line_control_path(101), ik_cfg=PLAN_IK)
        assert control.feasible


def _smooth_segment(samples: int) -> TaskPath:
    K = samples - 1
    poses = [Pose(np.eye(3), np.array([3.0, 0.0, -0.5 + k / K])) for k in range(samples)]
    return TaskPath.from_poses(poses, dlambda=1.0 / K)


def test_criterion_7_metric_convergence():
    with criterion(7, "metric converges under sampling refinement (K=500 vs K=1000)"):
        r3 = canonical_3r()
        c500 = plan_path(r3, _smooth_segment(501), ik_cfg=FAST_PLAN_IK).path.cost
        c1000 = plan_path(r3, _smooth_segment(1001), ik_cfg=FAST_PLAN_IK).path.cost
        assert abs(c1000 - c500) / c500 < 0.01


def test_criterion_8_repeatability():
    with criterion(8, "cusp loop: nonrepeatable nonsingular change; control loop regular",
                   budget=30.0):
        r3 = canonical_3r()
        cfg = PlannerConfig(nonsingular_only=True)
        rep = analyze_repeatability(r3, cusp_loop_path(201), cfg, PLAN_IK)
        M = rep.connectivity.shape[0]
        changes = [(m, l) for m in range(M) for l in range(M)
                   if m != l and rep.connectivity[m, l]]
        assert changes, "expected a nonsingular change of solution around the cusp"
        # at least one change has no way back: following it once strands the robot
        assert any(not rep.connectivity[l, m] for m, l in changes)
        on_cycle = {v for cyc in rep.cycles for v in cyc}
        assert any(m not in on_cycle and l not in on_cycle for m, l in changes)
        control = analyze_repeatability(r3, control_loop_path(201), cfg, PLAN_IK)
        assert control.connectivity.shape == (2, 2)
        assert control.regular_solutions == [0, 1]


def test_criterion_9_optimizer_properties():
    with criterion(9, "workpiece optimization properties on the bundled helix",
                   budget=300.0):
        r3 = canonical_3r()
        tp = fileio.toolpath_from_doc(fileio.generate_helix())
        ik_cfg = replace(FAST_PLAN_IK, threads=2)
        results = optimize_workpiece_pose(
            r3, tp, n_starts=2, seed=0,
            max_evals=40,
            planner_cfg=PlannerConfig(), ik_cfg=ik_cfg)
        assert len(results) == 2
        for r in results:
            hist = np.asarray(r.history)
            assert np.all(np.diff(hist) <= 0)           # (a) monotone best-so-far
            assert r.final_cost <= r.initial_cost
            assert r.final_rms < r.initial_rms          # (b) strict improvement

        # (c) objective invariances at a feasible placement
        wp = results[0].pose
        base = price_placements(r3, tp, [wp], ik_cfg=ik_cfg)[0][0]
        assert base < INFEASIBLE_SENTINEL
        for lam in (0.5, 2.0, 1.31):
            scaled = WorkpiecePose(lam * wp.quat, wp.p.copy())
            val = price_placements(r3, tp, [scaled], ik_cfg=ik_cfg)[0][0]
            assert abs(val - base) <= 1e-12
        for alpha in (0.9, -2.2):
            Rz = rot_z(alpha)
            rotated = WorkpiecePose(rotation_to_quat(Rz @ wp.rotation), Rz @ wp.p)
            val = price_placements(r3, tp, [rotated], ik_cfg=ik_cfg)[0][0]
            assert abs(val - base) < 1e-9

        # (d) z/xy decomposition round-trips
        rng = np.random.default_rng(102)
        for _ in range(10_000):
            q = rng.normal(size=4)
            R = quat_to_rotation(q / np.linalg.norm(q))
            theta, R_xy = decompose_rz_rxy(R)
            assert np.max(np.abs(rot_z(theta) @ R_xy - R)) < 1e-12
            assert abs(rotation_to_quat(R_xy)[3]) < 1e-12


def test_criterion_10_desk_scale_performance():
    with criterion(10, "500-sample end-to-end plan inside the optimizer budget"):
        r3 = canonical_3r()
        path = _smooth_segment(500)
        t0 = time.perf_counter()
        res = plan_path(r3, path, ik_cfg=FAST_PLAN_IK)
        elapsed = time.perf_counter() - t0
        assert res.feasible
        assert elapsed < 10.0

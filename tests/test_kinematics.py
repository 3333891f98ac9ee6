import numpy as np
import numpy.testing as nt
import pytest

from cuspidal_kit.ik import IKConfig, solve_ik_along_path
from cuspidal_kit.kinematics import (
    Pose,
    RobotModel,
    det_j_batch,
    fk_batch,
    fk_jacobian_batch,
    forward_kinematics,
    jacobian,
    jacobian_determinant,
    manipulability,
    to_cylindrical,
    wrap_to_pi,
)
from cuspidal_kit.scenarios import THREE_PARALLEL_WITNESS

from oracles import finite_difference_jacobian
from conftest import random_6r


def _singular_config(robot):
    """Bisect a det(J) sign flip to the singular locus."""
    qa = np.array([0.2, 0.1, 0.05])
    qb = np.array([0.2, np.pi / 2, 0.05])
    da = jacobian_determinant(robot, qa)
    assert da * jacobian_determinant(robot, qb) < 0
    for _ in range(100):
        qm = 0.5 * (qa + qb)
        dm = jacobian_determinant(robot, qm)
        if np.sign(dm) == np.sign(da):
            qa, da = qm, dm
        else:
            qb = qm
    return 0.5 * (qa + qb)


class TestForwardKinematics:
    def test_zero_configuration(self, r3):
        nt.assert_allclose(forward_kinematics(r3, [0, 0, 0]).position, [4.5, 1.0, 0.0], atol=1e-15)

    def test_base_rotation(self, r3):
        nt.assert_allclose(forward_kinematics(r3, [np.pi / 2, 0, 0]).position,
                           [-1.0, 4.5, 0.0], atol=1e-14)

    def test_elbow_rotation(self, r3):
        nt.assert_allclose(forward_kinematics(r3, [0, np.pi / 2, 0]).position,
                           [1.0, 1.0, -3.5], atol=1e-14)

    def test_dimension_mismatch(self, r3):
        with pytest.raises(ValueError):
            forward_kinematics(r3, [0.0, 0.0])

    def test_full_turn_identical(self, r3):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = rng.uniform(-np.pi, np.pi, 3)
            a = forward_kinematics(r3, q)
            b = forward_kinematics(r3, q + np.array([2 * np.pi, 0, 0]))
            nt.assert_allclose(a.position, b.position, atol=1e-12)
            nt.assert_allclose(a.rotation, b.rotation, atol=1e-12)


class TestJacobian:
    def test_zero_config_columns(self, r3):
        J = jacobian(r3, [0, 0, 0])
        nt.assert_allclose(J[:, 0], [-1.0, 4.5, 0.0], atol=1e-15)
        nt.assert_allclose(J[:, 2], [0.0, 1.5, 0.0], atol=1e-15)

    def test_finite_difference_consistency(self, r3, r6):
        rng = np.random.default_rng(1)
        rand6 = random_6r(rng)
        worst = 0.0
        for robot in (r3, r6, rand6):
            for _ in range(20):
                q = rng.uniform(-np.pi, np.pi, robot.dof)
                Ja = jacobian(robot, q)
                Jf = finite_difference_jacobian(robot, q)
                scale = max(1.0, np.max(np.abs(Ja)))
                worst = max(worst, np.max(np.abs(Ja - Jf)) / scale)
        assert worst < 1e-6

    def test_rank_oracle_agreement(self, r3):
        # singular iff the finite-difference Jacobian loses rank
        qs = [np.array([0.0, np.pi / 2, 0.0]), np.array([0.3, -0.7, 1.1]),
              np.array([0.0, 0.0, 0.0])]
        for q in qs:
            det = jacobian_determinant(r3, q)
            sigma_min = np.linalg.svd(finite_difference_jacobian(r3, q), compute_uv=False)[-1]
            assert (abs(det) < 1e-9) == (sigma_min < 1e-6)

    def test_det_zero_on_singular_locus(self, r3):
        q = _singular_config(r3)
        assert abs(jacobian_determinant(r3, q)) < 1e-9

    def test_witness_pair_same_sign(self, r6):
        qa, qb = THREE_PARALLEL_WITNESS
        assert np.sign(jacobian_determinant(r6, qa)) == np.sign(jacobian_determinant(r6, qb))

    def test_redundant_robot_rejected(self):
        rng = np.random.default_rng(2)
        axes = rng.normal(size=(4, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        r4 = RobotModel(axes=axes, offsets=rng.normal(size=(4, 3)), tool_offset=[0.1, 0, 0])
        with pytest.raises(ValueError):
            jacobian_determinant(r4, np.zeros(4))

    def test_det_continuity_along_interpolation(self, r3):
        rng = np.random.default_rng(3)
        qa, qb = rng.uniform(-np.pi, np.pi, 3), rng.uniform(-np.pi, np.pi, 3)
        ts = np.linspace(0, 1, 1000)
        seg = qa[None, :] + ts[:, None] * (qb - qa)[None, :]
        d = det_j_batch(r3, seg)
        scale = np.max(np.abs(d))
        for i in range(1, len(d) - 2):
            local = 0.5 * (abs(d[i] - d[i - 1]) + abs(d[i + 2] - d[i + 1]))
            assert abs(d[i + 1] - d[i]) < 10.0 * local + 1e-9 * scale


def _random_arm(rng, dof) -> RobotModel:
    axes = rng.normal(size=(dof, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return RobotModel(axes=axes, offsets=rng.normal(size=(dof, 3)) * 0.4,
                      tool_offset=rng.normal(size=3) * 0.2, name=f"random-{dof}dof")


class TestFkJacobianKernel:
    @pytest.fixture(params=["3r", "6r", "7dof"])
    def robot(self, request, r3, r6):
        return {"3r": r3, "6r": r6, "7dof": _random_arm(np.random.default_rng(7), 7)}[request.param]

    def test_rows_independent_of_batch(self, robot):
        rng = np.random.default_rng(8)
        Q = rng.uniform(-np.pi, np.pi, (257, robot.dof))
        Q[:3] = np.array([0.0, np.pi, -np.pi])[:, None]
        Q = Q[rng.permutation(Q.shape[0])]
        R, p, J = fk_jacobian_batch(robot, Q)
        assert R.shape == (257, 3, 3) and p.shape == (257, 3)
        assert J.shape == (257, 3 if robot.dof == 3 else 6, robot.dof)
        for i in range(Q.shape[0]):
            for batched, alone in zip((R, p, J), fk_jacobian_batch(robot, Q[i:i + 1])):
                nt.assert_array_equal(batched[i], alone[0])
        Rf, pf = fk_batch(robot, Q)
        nt.assert_allclose(R, Rf, rtol=0, atol=1e-12)
        nt.assert_allclose(p, pf, rtol=0, atol=1e-12)

    def test_ik_det_j_is_the_kernel_det(self, r3, r6):
        for robot, seeds in ((r3, 6), (r6, 4)):
            rng = np.random.default_rng(9)
            targets = [forward_kinematics(robot, rng.uniform(-np.pi, np.pi, robot.dof))
                       for _ in range(3)]
            sets = solve_ik_along_path(robot, targets, IKConfig(seeds_per_joint=seeds))
            sols = [s for ss in sets for s in ss.solutions]
            assert sols
            for s in sols:
                assert s.det_j == det_j_batch(robot, s.q[None, :])[0]


class TestManipulability:
    def test_identity_weight_equals_abs_det(self, r3):
        q = np.array([0.4, -0.9, 1.3])
        nt.assert_allclose(manipulability(r3, q), abs(jacobian_determinant(r3, q)), rtol=1e-12)

    def test_zero_at_singularity(self, r3):
        assert manipulability(r3, _singular_config(r3)) < 1e-9

    def test_random_spd_weight_matches_direct(self, r3, r6):
        rng = np.random.default_rng(4)
        for robot in (r3, r6):
            for _ in range(5):
                q = rng.uniform(-np.pi, np.pi, robot.dof)
                A = rng.normal(size=(robot.dof, robot.dof))
                W = A @ A.T + robot.dof * np.eye(robot.dof)
                J = jacobian(robot, q)
                expected = np.sqrt(np.prod(np.linalg.eigvalsh(J @ W @ J.T)))
                nt.assert_allclose(manipulability(robot, q, W), expected, rtol=1e-9)

    def test_non_spd_rejected(self, r3):
        with pytest.raises(ValueError):
            manipulability(r3, np.zeros(3), -np.eye(3))
        with pytest.raises(ValueError):
            W = np.eye(3)
            W[0, 1] = 0.5
            manipulability(r3, np.zeros(3), W)


class TestWrapToPi:
    def test_examples(self):
        nt.assert_allclose(wrap_to_pi(3 * np.pi / 2), -np.pi / 2)
        nt.assert_allclose(wrap_to_pi(-3 * np.pi / 2), np.pi / 2)
        assert wrap_to_pi(0.0) == 0.0
        assert wrap_to_pi(np.pi) == np.pi
        assert wrap_to_pi(-np.pi) == np.pi

    def test_range_congruence_idempotence(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-40, 40, 5000)
        w = wrap_to_pi(x)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        # congruent to the input mod 2*pi
        dist = np.abs(np.mod(w - x + np.pi, 2 * np.pi) - np.pi)
        assert np.max(dist) < 1e-9
        nt.assert_array_equal(wrap_to_pi(w), w)

    def test_odd_except_boundary(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-40, 40, 2000)
        w = wrap_to_pi(x)
        interior = np.abs(w) < np.pi - 1e-9
        nt.assert_allclose(wrap_to_pi(-x)[interior], -w[interior], atol=1e-12)


class TestCylindrical:
    def test_examples(self):
        c = to_cylindrical([1.0, 1.0, 0.0])
        nt.assert_allclose([c.rho, c.phi, c.z], [np.sqrt(2), np.pi / 4, 0.0])
        c = to_cylindrical([0.0, 0.0, 5.0])
        assert (c.rho, c.phi, c.z) == (0.0, 0.0, 5.0)
        c = to_cylindrical([-1.0, 0.0, 2.0])
        nt.assert_allclose([c.rho, c.phi, c.z], [1.0, np.pi, 2.0])


class TestRobotModel:
    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            RobotModel(axes=[[0, 0, 2.0]], offsets=[[0, 0, 0]], tool_offset=[1, 0, 0])

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            RobotModel(axes=[[0, 0, 1.0]], offsets=[[0, 0, 0]], tool_offset=[1, 0, 0],
                       joint_limits=[[1.0, -1.0]])

    @pytest.mark.parametrize("field,value", [
        ("axes", [[0, 0, np.nan]]), ("offsets", [[0, np.inf, 0]]),
        ("tool_offset", [np.nan, 0, 0]), ("joint_limits", [[np.nan, 1.0]])])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(axes=[[0, 0, 1.0]], offsets=[[0, 0, 0]], tool_offset=[1, 0, 0])
        kwargs[field] = value
        with pytest.raises(ValueError):
            RobotModel(**kwargs)

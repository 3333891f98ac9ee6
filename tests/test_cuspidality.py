import numpy as np
import numpy.testing as nt
import pytest

from cuspidal_kit.cuspidality import (
    identify_cuspidal,
    nonsingular_pair_check,
    validate_witness,
)
from cuspidal_kit.ik import solve_all_ik
from cuspidal_kit.kinematics import forward_kinematics, jacobian_determinant
from cuspidal_kit.scenarios import THREE_PARALLEL_WITNESS


class TestPairCheck:
    def test_three_parallel_witness(self, r6):
        qa, qb = THREE_PARALLEL_WITNESS
        ok, min_det = nonsingular_pair_check(r6, qa, qb, samples=1000, pose_tol=2e-3)
        assert ok and min_det > 0.05

    def test_degenerate_pair(self, r3):
        q = np.array([0.4, -0.8, 1.2])
        ok, min_det = nonsingular_pair_check(r3, q, q)
        assert ok
        assert min_det == pytest.approx(abs(jacobian_determinant(r3, q)), rel=1e-12)

    def test_opposite_aspect_pair_fails(self, r3):
        # a 2-solution-region target: its two solutions straddle a fold,
        # so the straight segment must cross det(J) = 0
        pose = forward_kinematics(r3, np.array([0.3, -0.7, 1.1]))
        sols = solve_all_ik(r3, pose).solutions
        assert len(sols) == 2
        assert np.sign(sols[0].det_j) != np.sign(sols[1].det_j)
        ok, _ = nonsingular_pair_check(r3, sols[0].q, sols[1].q)
        assert not ok

    def test_pose_mismatch_raises(self, r3):
        with pytest.raises(ValueError):
            nonsingular_pair_check(r3, np.zeros(3), np.array([0.5, 0.5, 0.5]))

    def test_grazing_segment_rejected(self, elbow):
        # same-sign pair of the elbow arm: the segment touches det = 0
        # tangentially, which dense sampling alone would miss
        pose = forward_kinematics(elbow, np.array([0.86055566, -1.44647274, -2.88414841]))
        sols = [s for s in solve_all_ik(elbow, pose).solutions if not s.approximate]
        same = [(a, b) for a in sols for b in sols
                if a is not b and np.sign(a.det_j) == np.sign(b.det_j)]
        assert same
        for a, b in same:
            ok, _ = nonsingular_pair_check(elbow, a.q, b.q)
            assert not ok


class TestIdentify:
    def test_canonical_3r_proven(self, r3):
        verdict = identify_cuspidal(r3, rng_seed=0, max_poses=50)
        assert verdict.proven
        assert verdict.poses_tried <= 50
        assert validate_witness(r3, verdict.witness)

    def test_witness_revalidates_at_higher_density(self, r3):
        verdict = identify_cuspidal(r3, rng_seed=1, max_poses=50)
        assert verdict.proven
        assert validate_witness(r3, verdict.witness)
        w = verdict.witness
        assert w.min_abs_det_j > 0

    def test_elbow_undetermined(self, elbow):
        verdict = identify_cuspidal(elbow, rng_seed=0, max_poses=200)
        assert not verdict.proven
        assert verdict.status == "undetermined"
        assert verdict.poses_tried == 200

    def test_three_parallel_proven(self, r6):
        verdict = identify_cuspidal(r6, rng_seed=0, max_poses=200)
        assert verdict.proven
        assert validate_witness(r6, verdict.witness)

    def test_determinism(self, r3):
        a = identify_cuspidal(r3, rng_seed=7, max_poses=20)
        b = identify_cuspidal(r3, rng_seed=7, max_poses=20)
        assert a.status == b.status
        assert a.poses_tried == b.poses_tried and a.pairs_tested == b.pairs_tested
        if a.witness is not None:
            nt.assert_array_equal(a.witness.q_a, b.witness.q_a)
            nt.assert_array_equal(a.witness.q_b, b.witness.q_b)

    def test_max_poses_validation(self, r3):
        with pytest.raises(ValueError):
            identify_cuspidal(r3, max_poses=0)

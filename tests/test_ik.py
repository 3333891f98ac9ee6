import numpy as np
import numpy.testing as nt
import pytest

from cuspidal_kit import ik
from cuspidal_kit.ik import (
    IKConfig,
    refine_solution,
    solution_count_map,
    solve_all_ik,
    solve_ik_along_path,
)
from cuspidal_kit.kinematics import (
    Pose,
    fk_batch,
    forward_kinematics,
    wrap_to_pi,
)
from cuspidal_kit.scenarios import cusp_loop_path

from oracles import DenseGridIKOracle

# outermost reach of the canonical arm, used to build boundary targets
_R3_MAX_REACH_Q = np.array([1.242451, 0.0, 0.321751])


@pytest.fixture(scope="module")
def oracle(r3):
    return DenseGridIKOracle(r3, n_grid=180)


def _contains(solutions, q, tol=1e-8):
    return any(np.max(np.abs(wrap_to_pi(s.q - q))) < tol for s in solutions)


def _assert_identical(a, b):
    """Bitwise equality of two IKSolutionSets, solution order included."""
    assert a.count == b.count
    for sa, sb in zip(a.solutions, b.solutions):
        nt.assert_array_equal(sa.q, sb.q)
        assert (sa.residual, sa.det_j, sa.approximate) == (sb.residual, sb.det_j, sb.approximate)


def _random_targets(robot, seed, count):
    rng = np.random.default_rng(seed)
    return [forward_kinematics(robot, rng.uniform(-np.pi, np.pi, robot.dof)) for _ in range(count)]


def _assert_batch_matches_single(robot, targets, cfg=None):
    batched = solve_ik_along_path(robot, targets, cfg)
    for target, bset in zip(targets, batched):
        assert bset.count > 0
        _assert_identical(solve_all_ik(robot, target, cfg), bset)


def margin_targets(robot, rng, count, det_margin=0.4):
    """Random reachable targets whose solutions all sit away from the
    singular locus (so the solution count is locally stable)."""
    targets = []
    while len(targets) < count:
        q = rng.uniform(-np.pi, np.pi, robot.dof)
        pose = forward_kinematics(robot, q)
        ss = solve_all_ik(robot, pose)
        if ss.count and all(abs(s.det_j) > det_margin for s in ss.solutions):
            targets.append((pose, ss))
    return targets


class TestRoundTrip:
    def test_simple_round_trip(self, r3):
        q = np.array([0.3, -0.7, 1.1])
        ss = solve_all_ik(r3, forward_kinematics(r3, q))
        assert _contains(ss.solutions, q)

    def test_zero_configuration(self, r3):
        ss = solve_all_ik(r3, Pose(np.eye(3), np.array([4.5, 1.0, 0.0])))
        assert _contains(ss.solutions, np.zeros(3))

    def test_many_random_round_trips(self, r3):
        rng = np.random.default_rng(10)
        qs = rng.uniform(-np.pi, np.pi, size=(500, 3))
        targets = [forward_kinematics(r3, q) for q in qs]
        sets = solve_ik_along_path(r3, targets)
        for q, ss in zip(qs, sets):
            assert _contains(ss.solutions, q)
            hit = min(ss.solutions, key=lambda s: np.max(np.abs(wrap_to_pi(s.q - q))))
            assert hit.residual < 1e-8

    def test_round_trip_6r(self, r6):
        rng = np.random.default_rng(11)
        for _ in range(3):
            q = rng.uniform(-np.pi, np.pi, 6)
            ss = solve_all_ik(r6, forward_kinematics(r6, q))
            assert _contains(ss.solutions, q, tol=1e-6)


class TestRefine:
    def test_fixed_point(self, r3):
        q = np.array([0.5, -1.2, 0.7])
        sol = refine_solution(r3, forward_kinematics(r3, q), q)
        assert sol is not None and not sol.approximate
        nt.assert_allclose(sol.q, q, atol=1e-10)

    def test_perturbation_basin(self, r3):
        rng = np.random.default_rng(12)
        for _ in range(10):
            q = rng.uniform(-np.pi, np.pi, 3)
            target = forward_kinematics(r3, q)
            sol = refine_solution(r3, target, q + rng.uniform(-0.05, 0.05, 3))
            assert sol is not None and sol.residual < 1e-8
            nt.assert_allclose(wrap_to_pi(sol.q - q), np.zeros(3), atol=1e-6)

    def test_boundary_approximate(self, r3):
        p_star = fk_batch(r3, _R3_MAX_REACH_Q[None, :])[1][0]
        r_max = np.linalg.norm(p_star)
        target = Pose(np.eye(3), p_star * (1.0 + 0.001 / r_max))
        cfg = IKConfig(approx_tol=1.5e-3)
        sol = refine_solution(r3, target, _R3_MAX_REACH_Q, cfg)
        assert sol is not None and sol.approximate
        assert sol.residual == pytest.approx(1e-3, rel=0.3)
        ss = solve_all_ik(r3, target, cfg)
        assert ss.count >= 1 and all(s.approximate for s in ss.solutions)

    def test_unreachable_far_target(self, r3):
        target = Pose(np.eye(3), np.array([100.0, 0.0, 0.0]))
        assert refine_solution(r3, target, np.zeros(3)) is None
        assert solve_all_ik(r3, target).count == 0


class TestEnumeration:
    def test_counts_and_oracle_match(self, r3, oracle):
        rng = np.random.default_rng(13)
        for pose, ss in margin_targets(r3, rng, 12):
            assert ss.count in (2, 4)
            expected = oracle.solve(pose.position)
            assert len(expected) == ss.count
            for q_exp in expected:
                assert _contains(ss.solutions, q_exp, tol=1e-6)

    def test_dedup_soundness(self, r3):
        rng = np.random.default_rng(14)
        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 3)
            sols = solve_all_ik(r3, forward_kinematics(r3, q)).solutions
            for i in range(len(sols)):
                for j in range(i + 1, len(sols)):
                    assert np.max(np.abs(wrap_to_pi(sols[i].q - sols[j].q))) > 1e-4

    def test_determinism(self, r3):
        pose = forward_kinematics(r3, np.array([0.8, -0.4, 2.0]))
        a = solve_all_ik(r3, pose)
        b = solve_all_ik(r3, pose)
        assert a.count == b.count
        for sa, sb in zip(a.solutions, b.solutions):
            nt.assert_array_equal(sa.q, sb.q)
            assert sa.residual == sb.residual and sa.det_j == sb.det_j

    def test_path_batching_matches_single(self, r3):
        _assert_batch_matches_single(r3, _random_targets(r3, 15, 40))

    def test_small_chunks_match_single(self, r3, monkeypatch):
        # three targets per chunk, the last chunk short: every chunk but the
        # first holds sample ids that do not start at 0
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 3 * IKConfig().resolve_seeds(3) ** 3)
        _assert_batch_matches_single(r3, _random_targets(r3, 15, 40))

    def test_path_batching_matches_single_cusp_loop(self, r3):
        # coalescing is gated on each target's own live-row count, so a
        # target coalesces in a batch exactly when it would alone
        _assert_batch_matches_single(r3, cusp_loop_path().poses, IKConfig(seeds_per_joint=6))

    def test_path_batching_matches_single_6r(self, r6):
        _assert_batch_matches_single(r6, _random_targets(r6, 17, 3), IKConfig(seeds_per_joint=5))

    def test_threads_identical(self, r3):
        rng = np.random.default_rng(16)
        targets = [forward_kinematics(r3, rng.uniform(-np.pi, np.pi, 3)) for _ in range(30)]
        a = solve_ik_along_path(r3, targets, threads=1)
        b = solve_ik_along_path(r3, targets, threads=2)
        for sa, sb in zip(a, b):
            assert sa.count == sb.count
            for x, y in zip(sa.solutions, sb.solutions):
                nt.assert_array_equal(x.q, y.q)

    def test_threads_identical_6r(self, r6, monkeypatch):
        # one pose per chunk, so two threads refine different chunks at once
        cfg = IKConfig(seeds_per_joint=5)
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 5 ** 6)
        targets = _random_targets(r6, 17, 3)
        a = solve_ik_along_path(r6, targets, cfg, threads=1)
        b = solve_ik_along_path(r6, targets, cfg, threads=2)
        for sa, sb in zip(a, b):
            assert sa.count > 0
            _assert_identical(sa, sb)


class TestSolutionCountMap:
    def test_four_region_inside_two_annulus(self, r3):
        cfg = IKConfig(seeds_per_joint=10)
        counts = solution_count_map(r3, (1.0, 3.4), (-2.2, 2.0), (26, 34), cfg)
        assert np.any(counts == 4)
        # every 4-cell is strictly inside: the window rim is all 2s or 0s
        rim = np.concatenate([counts[0], counts[-1], counts[:, 0], counts[:, -1]])
        assert not np.any(rim == 4)
        assert np.any(rim == 2)

    def test_unreachable_cell(self, r3):
        counts = solution_count_map(r3, (100.0, 101.0), (0.0, 1.0), (2, 2))
        assert np.all(counts == 0)

    def test_degenerate_single_cell(self, r3):
        counts = solution_count_map(r3, (2.0, 2.0), (0.0, 0.0), (1, 1),
                                    IKConfig(seeds_per_joint=10))
        assert counts.shape == (1, 1) and counts[0, 0] in (2, 4)

    def test_rejects_6r(self, r6):
        with pytest.raises(ValueError):
            solution_count_map(r6, (0.0, 1.0), (0.0, 1.0), (2, 2))

    def test_counts_change_only_across_singular_locus(self, r3):
        # adjacent equal-count cells pair up solution-wise with matching
        # det signs: no singular crossing between them
        cfg = IKConfig(seeds_per_joint=10)
        rhos = np.linspace(1.3, 2.2, 10)
        z = 0.1
        sets = [solve_all_ik(r3, Pose(np.eye(3), np.array([rho, 0.0, z])),
                             IKConfig(seeds_per_joint=10, include_approximate=False))
                for rho in rhos]
        for a, b in zip(sets[:-1], sets[1:]):
            if a.count != b.count:
                continue
            used = set()
            for sa in a.solutions:
                dists = [np.max(np.abs(wrap_to_pi(sa.q - sb.q))) for sb in b.solutions]
                j = int(np.argmin(dists))
                assert j not in used
                used.add(j)
                assert np.sign(sa.det_j) == np.sign(b.solutions[j].det_j)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IKConfig(exact_tol=1e-2, approx_tol=1e-3)
        with pytest.raises(ValueError):
            IKConfig(exact_tol=-1.0)
        for seeds in (0, -2):
            with pytest.raises(ValueError):
                IKConfig(seeds_per_joint=seeds)

    def test_seed_defaults(self):
        cfg = IKConfig()
        assert cfg.resolve_seeds(3) == 24
        assert cfg.resolve_seeds(6) == 8
        assert IKConfig(seeds_per_joint=5).resolve_seeds(3) == 5

    def test_exclude_approximate(self, r3):
        p_star = fk_batch(r3, _R3_MAX_REACH_Q[None, :])[1][0]
        target = Pose(np.eye(3), p_star * (1.0 + 0.0005 / np.linalg.norm(p_star)))
        with_approx = solve_all_ik(r3, target)
        without = solve_all_ik(r3, target, IKConfig(include_approximate=False))
        assert with_approx.count >= 1
        assert without.count == 0

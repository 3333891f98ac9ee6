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
    RobotModel,
    fk_batch,
    forward_kinematics,
    jacobian_determinant,
    wrap_to_pi,
)
from cuspidal_kit.scenarios import (
    control_loop_path,
    cusp_loop_path,
    infeasible_line_control_path,
    infeasible_line_path,
)

from oracles import DenseGridIKOracle, greedy_dedup

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


def _random_flood(rng, dof):
    """Candidate rows of a few targets for the dedup: chains stepping near
    the exact and the approximate radius, some across the +-pi wrap, exact
    and approximate rows mixed, some target ids left empty, rows shuffled."""
    Q, seed, approx, sample = [], [], [], []
    for target in range(int(rng.integers(1, 6))):
        if rng.random() < 0.2:
            continue
        rows = []
        for _ in range(int(rng.integers(1, 4))):
            q = rng.uniform(-np.pi, np.pi, dof)
            if rng.random() < 0.3:
                q[rng.integers(dof)] = np.pi - rng.uniform(0.0, 0.1)
            step = rng.choice([ik._DEDUP_TOL, ik._APPROX_DEDUP]) * rng.uniform(0.9, 1.1, dof)
            step *= rng.random(dof) < 0.5
            for _ in range(int(rng.integers(1, 8))):
                rows.append(wrap_to_pi(q))
                q = q + step * rng.choice([-1.0, 1.0], dof) * rng.uniform(0.5, 1.1)
        Q += rows
        seed += list(rng.permutation(3 * len(rows))[:len(rows)])
        approx += list(rng.random(len(rows)) < 0.4)
        sample += [target] * len(rows)
    perm = rng.permutation(len(Q))
    return (np.array(Q).reshape(-1, dof)[perm], np.array(seed, dtype=int)[perm],
            np.array(approx, dtype=bool)[perm], np.array(sample, dtype=int)[perm])


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

    @pytest.mark.parametrize("Q,expected", [
        # exact rows 1.5e-4 apart in q1 are two solutions; rows 0.2e-4 apart
        # are one, kept at the lower seed
        ([[0.6e-4, 0.5, -1.0], [-0.9e-4, 0.5, -1.0], [0.5, 0.2e-4, 1.0], [0.5, 0.4e-4, 1.0]],
         [0, 1, 2]),
        # a chain: row 1 lies within 1e-4 of row 0 and goes, row 2 lies
        # 1.04e-4 from row 0 and stays, though it is 0.08e-4 from row 1
        ([[0.0, 0.5, -1.0], [0.96e-4, 0.5, -1.0], [1.04e-4, 0.5, -1.0]], [0, 2]),
    ], ids=["pairs", "chain"])
    def test_dedup_cases(self, Q, expected):
        n = len(Q)
        kept = ik._dedup(np.array(Q), np.arange(n), np.zeros(n, dtype=bool), np.zeros(n, dtype=int))
        nt.assert_array_equal(kept, expected)

    def test_dedup_matches_greedy_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            Q, seed, approx, sample = _random_flood(rng, int(rng.choice([3, 6])))
            nt.assert_array_equal(
                ik._dedup(Q, seed, approx, sample),
                greedy_dedup(Q, seed, approx, sample, ik._DEDUP_TOL, ik._APPROX_DEDUP))

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
        a = solve_ik_along_path(r3, targets, IKConfig(threads=1))
        b = solve_ik_along_path(r3, targets, IKConfig(threads=2))
        for sa, sb in zip(a, b):
            assert sa.count == sb.count
            for x, y in zip(sa.solutions, sb.solutions):
                nt.assert_array_equal(x.q, y.q)

    def test_threads_identical_6r(self, r6, monkeypatch):
        # one pose per chunk, so two threads refine different chunks at once
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 5 ** 6)
        targets = _random_targets(r6, 17, 3)
        a = solve_ik_along_path(r6, targets, IKConfig(seeds_per_joint=5, threads=1))
        b = solve_ik_along_path(r6, targets, IKConfig(seeds_per_joint=5, threads=2))
        for sa, sb in zip(a, b):
            assert sa.count > 0
            _assert_identical(sa, sb)


class TestCoalescing:
    _Q = np.array([2.0, -1.0, 1.5])

    def test_identical_rows_merge_onto_lowest_seed(self, r3):
        # 100 rows of one target from one start share every cell, so only the
        # first, seed 7, survives coalescing; without it all 100 are banked
        pose = forward_kinematics(r3, self._Q)
        n = 100
        _, _, seed, _, _, _ = ik._refine_population(
            r3, pose.position[:, None], pose.rotation[:, :, None], np.zeros((n, 3)),
            np.zeros(n, dtype=int), np.arange(7, 7 + n), IKConfig())
        assert seed.tolist() == [7]

    def test_copies_of_one_target_never_merge(self, r3):
        # two targets whose rows share every cell still coalesce apart
        pose = forward_kinematics(r3, self._Q)
        cfg = IKConfig(seeds_per_joint=6)
        single = solve_all_ik(r3, pose, cfg)
        assert single.count > 0
        for s in solve_ik_along_path(r3, [pose, pose], cfg):
            _assert_identical(single, s)


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

    @pytest.mark.parametrize("rho_range,z_range,grid", [((np.nan, 1.0), (0.0, 1.0), (2, 2)),
                                                        ((0.0, 1.0), (-np.inf, 1.0), (2, 2)),
                                                        ((0.0, 1.0), (0.0, 1.0), (0, 2)),
                                                        ((0.0, 1.0), (0.0, 1.0), (2, -1))])
    def test_bad_window_rejected(self, r3, rho_range, z_range, grid):
        with pytest.raises(ValueError):
            solution_count_map(r3, rho_range, z_range, grid)

    def test_counts_change_only_across_singular_locus(self, r3):
        # adjacent equal-count cells pair up solution-wise with matching
        # det signs: no singular crossing between them
        cfg = IKConfig(seeds_per_joint=10)
        rhos = np.linspace(1.3, 2.2, 10)
        z = 0.1
        sets = [[s for s in solve_all_ik(r3, Pose(np.eye(3), np.array([rho, 0.0, z])),
                                         cfg).solutions if not s.approximate]
                for rho in rhos]
        for a, b in zip(sets[:-1], sets[1:]):
            if len(a) != len(b):
                continue
            used = set()
            for sa in a:
                dists = [np.max(np.abs(wrap_to_pi(sa.q - sb.q))) for sb in b]
                j = int(np.argmin(dists))
                assert j not in used
                used.add(j)
                assert np.sign(sa.det_j) == np.sign(b[j].det_j)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IKConfig(exact_tol=1e-2, approx_tol=1e-3)
        with pytest.raises(ValueError):
            IKConfig(exact_tol=-1.0)
        for seeds in (0, -2):
            with pytest.raises(ValueError):
                IKConfig(seeds_per_joint=seeds)
        for threads in (0, -1):
            with pytest.raises(ValueError):
                IKConfig(threads=threads)
        # a NaN tolerance slips past every comparison and an infinite one
        # banks any stall as a solution
        for tols in ({"exact_tol": np.nan}, {"approx_tol": np.nan}, {"approx_tol": np.inf},
                     {"exact_tol": -np.inf}, {"exact_tol": np.nan, "approx_tol": np.nan}):
            with pytest.raises(ValueError):
                IKConfig(**tols)

    def test_seed_defaults(self):
        cfg = IKConfig()
        assert cfg.resolve_seeds(3) == 24
        assert cfg.resolve_seeds(6) == 8
        assert IKConfig(seeds_per_joint=5).resolve_seeds(3) == 5

    def test_exclude_approximate(self, r3):
        p_star = fk_batch(r3, _R3_MAX_REACH_Q[None, :])[1][0]
        target = Pose(np.eye(3), p_star * (1.0 + 0.0005 / np.linalg.norm(p_star)))
        # just beyond reach only boundary local minima remain; the map counts
        # exact solutions, so its cell at this target's (rho, z) reads 0
        sols = solve_all_ik(r3, target).solutions
        assert len(sols) >= 1
        assert all(s.approximate for s in sols)
        rho, z = np.hypot(*target.position[:2]), target.position[2]
        assert solution_count_map(r3, (rho, rho), (z, z), (1, 1))[0, 0] == 0


def random_3r(rng) -> RobotModel:
    axes = rng.normal(size=(3, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return RobotModel(axes=axes, offsets=rng.normal(size=(3, 3)),
                      tool_offset=rng.normal(size=3), name="random-3r")


def _gap(a, b) -> float:
    return float(np.max(np.abs(wrap_to_pi(a - b))))


def _split(ss):
    return ([s.q for s in ss.solutions if not s.approximate],
            [s.q for s in ss.solutions if s.approximate])


def _assert_same_sets(got, want):
    """Per target: equal exact and approximate counts, every exact root
    within 1e-9 of one of the other set, every approximate solution within
    the approximate dedup radius."""
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        (ea, xa), (eb, xb) = _split(a), _split(b)
        assert (len(ea), len(xa)) == (len(eb), len(xb)), k
        for mine, theirs in ((ea, eb), (eb, ea)):
            for q in mine:
                assert min(_gap(q, p) for p in theirs) <= 1e-9, k
        for mine, theirs in ((xa, xb), (xb, xa)):
            for q in mine:
                assert min(_gap(q, p) for p in theirs) <= ik._APPROX_DEDUP, k


@pytest.fixture
def multi_start(monkeypatch):
    """solve_ik_along_path with the closed form switched off: the LM seed
    flood at a given density."""
    def solve(robot, targets, seeds):
        with monkeypatch.context() as m:
            m.setattr(ik, "_reduce_3r", lambda robot: None)
            return solve_ik_along_path(robot, targets, IKConfig(seeds_per_joint=seeds))
    return solve


class TestClosedForm3R:
    def test_branches(self, r3, elbow, r6):
        assert ik._reduce_3r(r3).minv is not None
        assert ik._reduce_3r(elbow).null is not None
        assert ik._reduce_3r(r6) is None
        # joint 3 cannot move the tool point: theta3 has no isolated values
        still = RobotModel(axes=np.eye(3), offsets=np.eye(3), tool_offset=[0.0, 0.0, 0.7])
        assert ik._reduce_3r(still) is None

    def test_random_arms_match_multi_start(self, multi_start):
        # near a fold the seed flood banks iterates that stop short of the
        # root: a residual under 1e-8 is reached about 1e-4 rad from a
        # double root, and at |det J| = 1.6e-3 its root was 8e-8 off where
        # the closed form's was exact; so where some |det J| < 1e-2 the sets
        # are only compared by coverage
        rng = np.random.default_rng(41)
        near_fold = 0
        for _ in range(100):
            robot = random_3r(rng)
            target = _random_targets(robot, int(rng.integers(1 << 30)), 1)
            got, want = solve_ik_along_path(robot, target), multi_start(robot, target, 24)
            dets = [abs(s.det_j) for ss in (got[0], want[0]) for s in ss.solutions]
            if min(dets) >= 1e-2:
                _assert_same_sets(got, want)
                continue
            near_fold += 1
            qa, qb = [s.q for s in got[0].solutions], [s.q for s in want[0].solutions]
            for mine, theirs in ((qa, qb), (qb, qa)):
                for q in mine:
                    assert min(_gap(q, p) for p in theirs) <= 1e-3
        assert near_fold <= 5

    def test_elbow_matches_multi_start(self, elbow, multi_start):
        targets = _random_targets(elbow, 42, 50)
        got = solve_ik_along_path(elbow, targets)
        _assert_same_sets(got, multi_start(elbow, targets, 24))
        assert all(ss.count > 0 for ss in got)

    @pytest.mark.parametrize("seeds", [6, 24])
    def test_fixtures_match_multi_start(self, r3, multi_start, seeds):
        for path in (infeasible_line_path(), infeasible_line_control_path(),
                     infeasible_line_control_path(500), cusp_loop_path(), control_loop_path()):
            _assert_same_sets(solve_ik_along_path(r3, path.poses),
                              multi_start(r3, path.poses, seeds))

    def test_root_at_theta3_pi(self, r3):
        # the t^4 coefficient of the quartic in tan(theta3 / 2) vanishes
        for q in ([0.3, -0.7, np.pi], [0.0, 0.0, np.pi]):
            q = np.array(q)
            ss = solve_all_ik(r3, forward_kinematics(r3, q))
            assert _contains(ss.solutions, q, tol=1e-12)

    def test_fold_double_root_is_one_solution(self, r3):
        # bisect det J = 0 along theta3: the quartic has a double root there
        def det(t):
            return jacobian_determinant(r3, np.array([0.2, 0.5, t]))
        lo, hi = 0.2, 0.4
        assert det(lo) * det(hi) < 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if det(mid) * det(lo) > 0.0 else (lo, mid)
        q = np.array([0.2, 0.5, 0.5 * (lo + hi)])
        sols = solve_all_ik(r3, forward_kinematics(r3, q)).solutions
        near = [s for s in sols if _gap(s.q, q) < 1e-2]
        assert len(near) == 1 and not near[0].approximate
        assert _gap(near[0].q, q) < 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_target_has_no_solutions(self, r3, elbow):
        # |x|^2 overflows or is NaN: no roots, and no LAPACK error for the
        # other targets of the batch
        targets = [Pose(np.eye(3), p) for p in ([1e200, 0.0, 0.0], [np.inf, 0.0, 0.0],
                                                [np.nan, 0.0, 0.0], [1.0, 0.0, 1.5])]
        for robot in (r3, elbow):
            sets = solve_ik_along_path(robot, targets)
            assert [ss.count for ss in sets[:3]] == [0, 0, 0] and sets[3].count > 0

    def test_shuffled_batch_matches_single(self, r3, monkeypatch):
        rng = np.random.default_rng(43)
        p_star = fk_batch(r3, _R3_MAX_REACH_Q[None, :])[1][0]
        beyond = [Pose(np.eye(3), p_star * (1.0 + d / np.linalg.norm(p_star)))
                  for d in (5e-4, 1e-3, 1.0)]
        targets = (cusp_loop_path().poses + infeasible_line_path(50).poses[:50]
                   + _random_targets(r3, 44, 3) + beyond)
        assert len(targets) == 257
        targets = [targets[i] for i in rng.permutation(len(targets))]
        single = [solve_all_ik(r3, t) for t in targets]
        assert any(ss.count == 0 for ss in single)
        assert any(s.approximate for ss in single for s in ss.solutions)
        for a, b in zip(single, solve_ik_along_path(r3, targets)):
            _assert_identical(a, b)
        # seven targets per chunk, refined two chunks at a time
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 7 * 4)
        for a, b in zip(single, solve_ik_along_path(r3, targets, IKConfig(threads=2))):
            _assert_identical(a, b)

import gc
import weakref

import numpy as np
import numpy.testing as nt
import pytest

from cuspidal_kit import fileio, ik
from cuspidal_kit.ik import (
    IKConfig,
    solution_count_map,
    solve_all_ik,
    solve_ik_along_path,
)
from cuspidal_kit.kinematics import (
    Pose,
    RobotModel,
    det_j_batch,
    fk_batch,
    fk_jacobian_batch,
    forward_kinematics,
    jacobian_determinant,
    rot_about_axis,
    wrap_to_pi,
)
from cuspidal_kit.optimizer import random_feasible_start, reduced_to_pose, transform_toolpath
from cuspidal_kit.scenarios import (
    canonical_3r,
    control_loop_path,
    cusp_loop_path,
    infeasible_line_control_path,
    infeasible_line_path,
    three_parallel_6r,
)

from conftest import coaxial_6r, count_calls, degenerate_3r_arms, random_3r, random_6r
from oracles import (DenseGridIKOracle, entrywise_lm_step, entrywise_orientation_error,
                     every_pair_start, greedy_dedup, seed_flood)

# outermost reach of the canonical arm, used to build boundary targets
_R3_MAX_REACH_Q = np.array([1.242451, 0.0, 0.321751])


@pytest.fixture(scope="module")
def oracle(r3):
    return DenseGridIKOracle(r3, n_grid=180)


@pytest.fixture(scope="module")
def flood_6r():
    # a 6R arm without the closed form's structure: it starts from the seed
    # grid, so the batching, threading and coalescing tests of that grid run
    # on it
    robot = random_6r(np.random.default_rng(6))
    assert ik._reduce_6r(robot) is None
    return robot


def _contains(solutions, q, tol=1e-8):
    return any(np.max(np.abs(wrap_to_pi(s.q - q))) < tol for s in solutions)


def _assert_identical(a, b):
    """Bitwise equality of two IKSolutionSets, solution order included."""
    assert len(a.solutions) == len(b.solutions)
    for sa, sb in zip(a.solutions, b.solutions):
        nt.assert_array_equal(sa.q, sb.q)
        assert (sa.residual, sa.det_j, sa.approximate) == (sb.residual, sb.det_j, sb.approximate)


def _random_targets(robot, seed, count):
    rng = np.random.default_rng(seed)
    return [forward_kinematics(robot, rng.uniform(-np.pi, np.pi, robot.dof)) for _ in range(count)]


def _solve_counting_chunks(robot, targets, cfg=None):
    """solve_ik_along_path, and how many chunks it refined: one
    _refine_population call each."""
    with pytest.MonkeyPatch.context() as m:
        calls = count_calls(m, ik, "_refine_population")
        return solve_ik_along_path(robot, targets, cfg), len(calls)


def _assert_batch_matches_single(robot, targets, cfg=None) -> int:
    """Returns how many chunks the batched solve refined."""
    batched, chunks = _solve_counting_chunks(robot, targets, cfg)
    for target, bset in zip(targets, batched):
        assert bset.solutions
        _assert_identical(solve_all_ik(robot, target, cfg), bset)
    return chunks


def margin_targets(robot, rng, count, det_margin=0.4):
    """Random reachable targets whose solutions all sit away from the
    singular locus (so the solution count is locally stable)."""
    targets = []
    while len(targets) < count:
        q = rng.uniform(-np.pi, np.pi, robot.dof)
        pose = forward_kinematics(robot, q)
        ss = solve_all_ik(robot, pose)
        if ss.solutions and all(abs(s.det_j) > det_margin for s in ss.solutions):
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
    def test_boundary_approximate(self, r3):
        # 0.5 mm past the outermost reach, the boundary minimum's residual
        # (5.0e-4) sits inside the shipped approximate tolerance
        p_star = fk_batch(r3, _R3_MAX_REACH_Q[None, :])[1][0]
        r_max = np.linalg.norm(p_star)
        target = Pose(np.eye(3), p_star * (1.0 + 0.0005 / r_max))
        ss = solve_all_ik(r3, target)
        assert ss.solutions and all(s.approximate for s in ss.solutions)
        assert all(s.residual == pytest.approx(5e-4, rel=0.01) for s in ss.solutions)

    def test_unreachable_far_target(self, r3):
        target = Pose(np.eye(3), np.array([100.0, 0.0, 0.0]))
        assert solve_all_ik(r3, target).solutions == []

    def test_overflowing_seed_grid_target_has_no_solutions(self):
        # |p|^2 of the first target overflows: the seed grid drops it before
        # the LM, as the closed forms do, so its residual raises no numpy
        # overflow warning (the suite turns warnings into errors), and the
        # other targets of the batch keep their solutions
        robot = random_6r(np.random.default_rng(3))
        assert ik._reduce_6r(robot) is None
        far = Pose(np.eye(3), np.array([1e160, 0.0, 0.0]))
        cfg = IKConfig(seeds_per_joint=2)
        assert solve_all_ik(robot, far, cfg).solutions == []
        good = forward_kinematics(robot, np.array([0.3, -0.5, 1.0, 0.2, -1.2, 0.7]))
        sets = solve_ik_along_path(robot, [far, Pose(np.eye(3), [np.nan, 0.0, 0.0]), good], cfg)
        assert [ss.solutions for ss in sets[:2]] == [[], []]
        _assert_identical(sets[2], solve_all_ik(robot, good, cfg))
        assert sets[2].solutions

    def test_non_finite_trial_is_rejected(self, r3, monkeypatch):
        # a NaN step is reverted and retried stiffer like a worse one. At the
        # first target, far from every fold and with no complex-pair start,
        # the row banks the root it started at and the solve ends after that
        # one step; 0.5 mm past the outermost reach the row is a complex
        # pair's start, and its retries still reach the boundary minimum
        p_star = fk_batch(r3, _R3_MAX_REACH_Q[None, :])[1][0]
        beyond = Pose(np.eye(3), p_star * (1.0 + 0.0005 / np.linalg.norm(p_star)))
        step, calls = ik._lm_step, []

        def nan_in_first_row_once(J, e, lam):
            dq = step(J, e, lam)
            if not calls:
                dq[:, 0] = np.nan
            calls.append(None)
            return dq

        for target, steps in ((forward_kinematics(r3, np.array([0.3, -0.7, 1.1])), 1),
                              (beyond, ik._POLISH_ITERS - 1)):
            want = solve_all_ik(r3, target)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(ik, "_lm_step", nan_in_first_row_once)
                got = solve_all_ik(r3, target)
            assert len(calls) == steps and want.solutions
            _assert_same_sets([got], [want])


class TestEnumeration:
    def test_counts_and_oracle_match(self, r3, oracle):
        rng = np.random.default_rng(13)
        for pose, ss in margin_targets(r3, rng, 12):
            assert len(ss.solutions) in (2, 4)
            expected = oracle.solve(pose.position)
            assert len(expected) == len(ss.solutions)
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
        assert len(a.solutions) == len(b.solutions)
        for sa, sb in zip(a.solutions, b.solutions):
            nt.assert_array_equal(sa.q, sb.q)
            assert sa.residual == sb.residual and sa.det_j == sb.det_j

    def test_path_batching_matches_single(self, r3):
        _assert_batch_matches_single(r3, _random_targets(r3, 15, 40))

    def test_small_chunks_match_single(self, r3, monkeypatch):
        # three targets of four closed-form rows per chunk, the last chunk
        # short: every chunk but the first holds sample ids that do not
        # start at 0
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 3 * 4)
        assert _assert_batch_matches_single(r3, _random_targets(r3, 15, 40)) == 14

    def test_path_batching_matches_single_cusp_loop(self, r3):
        # at most four closed-form rows per target never reach the live-row
        # count that starts coalescing; batches that coalesce are covered in
        # TestCoalescing
        _assert_batch_matches_single(r3, cusp_loop_path().poses)

    def test_path_batching_matches_single_6r(self, flood_6r, monkeypatch):
        keys = count_calls(monkeypatch, ik, "_cell_key")
        _assert_batch_matches_single(flood_6r, _random_targets(flood_6r, 17, 3),
                                     IKConfig(seeds_per_joint=5))
        assert keys

    def test_threads_identical(self, r3, monkeypatch):
        # three targets per chunk, so two threads refine different chunks at once
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 3 * 4)
        rng = np.random.default_rng(16)
        targets = [forward_kinematics(r3, rng.uniform(-np.pi, np.pi, 3)) for _ in range(30)]
        a, _ = _solve_counting_chunks(r3, targets, IKConfig(threads=1))
        b, chunks = _solve_counting_chunks(r3, targets, IKConfig(threads=2))
        assert chunks == 10
        for sa, sb in zip(a, b):
            _assert_identical(sa, sb)

    def test_threads_identical_6r(self, flood_6r, monkeypatch):
        # one pose per chunk, so two threads refine different chunks at once
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 5 ** 6)
        targets = _random_targets(flood_6r, 17, 3)
        a = solve_ik_along_path(flood_6r, targets, IKConfig(seeds_per_joint=5, threads=1))
        b, chunks = _solve_counting_chunks(flood_6r, targets,
                                           IKConfig(seeds_per_joint=5, threads=2))
        assert chunks == 3
        for sa, sb in zip(a, b):
            assert sa.solutions
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
            np.zeros(n, dtype=int), np.arange(7, 7 + n))
        assert seed.tolist() == [7]

    def test_copies_of_one_target_never_merge(self, flood_6r, monkeypatch):
        # two targets whose rows share every cell still coalesce apart
        keys = count_calls(monkeypatch, ik, "_cell_key")
        pose = _random_targets(flood_6r, 17, 1)[0]
        cfg = IKConfig(seeds_per_joint=5)
        single = solve_all_ik(flood_6r, pose, cfg)
        assert single.solutions and keys
        for s in solve_ik_along_path(flood_6r, [pose, pose], cfg):
            _assert_identical(single, s)

    def test_coalescing_keeps_every_exact_root_6r(self, flood_6r, monkeypatch):
        # merging a cell onto its lowest seed must not lose a root: the exact
        # sets equal those of the flood with coalescing switched off
        targets = _random_targets(flood_6r, 5, 3)
        cfg = IKConfig(seeds_per_joint=5)
        with pytest.MonkeyPatch.context() as m:
            keys = count_calls(m, ik, "_cell_key")
            merged = solve_ik_along_path(flood_6r, targets, cfg)
        assert keys
        monkeypatch.setattr(ik, "_COALESCE_START_ITER", ik._MAX_REFINE_ITERS)
        unmerged = solve_ik_along_path(flood_6r, targets, cfg)
        for a, b in zip(merged, unmerged):
            ea, eb = _split(a)[0], _split(b)[0]
            assert len(ea) == len(eb) > 0
            for mine, theirs in ((ea, eb), (eb, ea)):
                for q in mine:
                    assert min(_gap(q, p) for p in theirs) <= 1e-9


def _kernel_jacobians(robot, rng, N, layout):
    """(m, n, N) Jacobians at random joint vectors, some at q2 = q3 = 0:
    the kernel's buffer as _refine_population hands it to _lm_step, or a
    transposed, non-contiguous view of a row-major copy."""
    Q = rng.uniform(-np.pi, np.pi, size=(N, robot.dof))
    Q[::3, 1:3] = 0.0
    J = fk_jacobian_batch(robot, Q)[2]
    if layout == "transposed":
        J = np.ascontiguousarray(J)
    J = J.transpose(1, 2, 0)
    assert N == 1 or J.flags.c_contiguous == (layout == "kernel")
    return J


def _rotations(rng, N):
    """Joint-major stack (3, 3, N) of random rotations."""
    Qr, _ = np.linalg.qr(rng.normal(size=(N, 3, 3)))
    Qr *= np.sign(np.linalg.det(Qr))[:, None, None]
    return np.ascontiguousarray(Qr.transpose(1, 2, 0))


class TestLMStep:
    """The whole-matrix LM step and orientation error against the
    entry-by-entry oracles, bit for bit."""

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("layout", ["kernel", "transposed"])
    @pytest.mark.parametrize("N", [1, 8, 2000])
    @pytest.mark.parametrize("dof", [3, 6])
    def test_matches_entrywise(self, r3, r6, dof, N, layout, block, monkeypatch):
        if block:
            # several normal-equation blocks, the last one short
            monkeypatch.setattr(ik, "_STEP_BLOCK", block)
        rng = np.random.default_rng(100 * dof + N)
        J = _kernel_jacobians(r3 if dof == 3 else r6, rng, N, layout)
        e = rng.normal(size=(J.shape[0], N))
        for lam in np.geomspace(1e-4, 1e8, 13):
            lams = np.full(N, lam)
            assert np.array_equal(ik._lm_step(J, e, lams), entrywise_lm_step(J, e, lams))
        lams = 10.0 ** rng.uniform(-4.0, 8.0, size=N)
        assert np.array_equal(ik._lm_step(J, e, lams), entrywise_lm_step(J, e, lams))

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("layout", ["kernel", "transposed"])
    @pytest.mark.parametrize("dof", [3, 6])
    def test_batch_row_matches_row_alone(self, r3, r6, dof, layout, block, monkeypatch):
        if block:
            monkeypatch.setattr(ik, "_STEP_BLOCK", block)
        rng = np.random.default_rng(7 + dof)
        J = _kernel_jacobians(r3 if dof == 3 else r6, rng, 40, layout)
        e = rng.normal(size=(J.shape[0], 40))
        lam = np.geomspace(1e-4, 1e8, 40)
        batch = ik._lm_step(J, e, lam)
        for i in range(40):
            alone = ik._lm_step(J[..., i:i + 1], e[:, i:i + 1], lam[i:i + 1])
            assert np.array_equal(alone[:, 0], batch[:, i])

    def test_orientation_error_matches_entrywise(self):
        rng = np.random.default_rng(24)
        T = _rotations(rng, 500)
        R = _rotations(rng, 500)
        # near-antipodal pairs: T R^T turns by pi - delta about a random axis
        axis = rng.normal(size=(3, 6))
        axis /= np.linalg.norm(axis, axis=0)
        delta = np.array([0.0, 1e-12, 1e-9, 1e-8, 5e-8, 1e-6])
        K = np.zeros((3, 3, 6))
        K[0, 1], K[0, 2], K[1, 2] = -axis[2], axis[1], -axis[0]
        K = K - K.transpose(1, 0, 2)
        KK = np.einsum("ijn,jkn->ikn", K, K)
        turn = np.eye(3)[..., None] + np.sin(np.pi - delta) * K + (1.0 + np.cos(delta)) * KK
        R[..., :6] = np.einsum("jin,jkn->ikn", turn, T[..., :6])
        got = ik._orientation_error(T, R)
        want = entrywise_orientation_error(T, R)
        assert np.array_equal(got, want)
        # the rotation-vector's flipped-axis branch sees these rows
        vee = 0.5 * np.stack([got[2, 1] - got[1, 2], got[0, 2] - got[2, 0], got[1, 0] - got[0, 1]])
        trace = got[0, 0] + got[1, 1] + got[2, 2]
        assert np.sum((np.linalg.norm(vee, axis=0) <= 1e-7) & (trace < 1.0)) >= 4
        nt.assert_allclose(np.linalg.norm(ik._rotvec_batch(got)[:, :6], axis=0),
                           np.pi - delta, atol=1e-6)


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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_standalone_solves(self, r3, monkeypatch, threads):
        # the window spans the z axis, unreachable corners, the four-solution
        # region and the cells on both sides of its folds
        rho_range, z_range, grid = (0.0, 4.0), (-3.0, 3.0), (17, 13)
        rhos, zs = np.linspace(*rho_range, grid[0]), np.linspace(*z_range, grid[1])
        expected = np.array([[sum(not s.approximate for s in solve_all_ik(
            r3, Pose(np.eye(3), np.array([rho, 0.0, z]))).solutions) for z in zs]
            for rho in rhos])
        vertical = {frozenset(p) for p in zip(expected[:-1].ravel(), expected[1:].ravel())}
        across = {frozenset(p) for p in zip(expected[:, :-1].ravel(), expected[:, 1:].ravel())}
        assert {frozenset((0, 2)), frozenset((2, 4))} <= vertical | across

        def refuse(*args, **kwargs):
            raise AssertionError("the count map builds no Pose or IKSolution")

        monkeypatch.setattr(ik, "IKSolution", refuse)
        monkeypatch.setattr(ik, "Pose", refuse)
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 7 * 4)
        chunks = count_calls(monkeypatch, ik, "_refine_population")
        counts = solution_count_map(r3, rho_range, z_range, grid, IKConfig(threads=threads))
        assert len(chunks) == int(np.ceil(grid[0] * grid[1] / 7))
        nt.assert_array_equal(counts, expected)

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
        for seeds in (0, -2):
            with pytest.raises(ValueError):
                IKConfig(seeds_per_joint=seeds)
        for threads in (0, -1):
            with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
                IKConfig(threads=threads)

    def test_seed_defaults(self):
        # the seed grid is a 6R setting; 3R arms are solved in closed form
        assert IKConfig().resolve_seeds(6) == 8
        assert IKConfig(seeds_per_joint=5).resolve_seeds(6) == 5

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


class TestClosedForm3R:
    def test_branches(self, r3, elbow):
        assert ik._reduce_3r(r3).minv is not None
        assert ik._reduce_3r(elbow).null is not None
        rng = np.random.default_rng(40)
        for robot in degenerate_3r_arms():
            # no isolated solutions anywhere: det J vanishes on every q
            dets = det_j_batch(robot, rng.uniform(-np.pi, np.pi, (1000, 3)))
            assert np.abs(dets).max() <= 1e-15
            with pytest.raises(ValueError, match="no isolated IK solutions"):
                ik._reduce_3r(robot)
            with pytest.raises(ValueError, match="no isolated IK solutions"):
                solve_all_ik(robot, forward_kinematics(robot, np.zeros(3)))

    def test_refusal_names_each_robot_of_one_geometry(self):
        still = degenerate_3r_arms()[0]
        for name in ("still-a", "still-b"):
            arm = RobotModel(still.axes, still.offsets, still.tool_offset, name=name)
            with pytest.raises(ValueError, match=f"robot '{name}' has no isolated"):
                solve_all_ik(arm, forward_kinematics(arm, np.zeros(3)))

    def test_random_arms_reduce(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            ik._reduce_3r(random_3r(rng))

    def test_random_arms_match_multi_start(self):
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
            got, want = solve_ik_along_path(robot, target), seed_flood(robot, target, 24)
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

    def test_elbow_matches_multi_start(self, elbow):
        targets = _random_targets(elbow, 42, 50)
        got = solve_ik_along_path(elbow, targets)
        _assert_same_sets(got, seed_flood(elbow, targets, 24))
        assert all(ss.solutions for ss in got)

    @pytest.mark.parametrize("seeds", [6, 24])
    def test_fixtures_match_multi_start(self, r3, seeds):
        for path in (infeasible_line_path(), infeasible_line_control_path(),
                     infeasible_line_control_path(500), cusp_loop_path(), control_loop_path()):
            _assert_same_sets(solve_ik_along_path(r3, path.poses),
                              seed_flood(r3, path.poses, seeds))

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

    def test_near_fold_twins_are_one_solution(self, r3):
        # the quartic's real roots sit at theta3 = 0.3084 and 0.3083249,
        # 7.5e-5 apart, so dedup keeps one; a complex-pair start polished
        # for the full 100-iteration budget banked a second "exact" point at
        # theta3 = 0.308444 (residual 2.7e-9, det J of the other sign)
        q = np.array([0.2, 0.5, 0.3084])
        target = forward_kinematics(r3, q)
        Q, keep = ik._algebraic_starts(ik._reduce_3r(r3), (target.position - r3.offsets[0])[:, None])
        roots = sorted(t for t in Q[0, keep[0], 2] if abs(t - 0.3084) < 1e-3)
        nt.assert_allclose(roots, [0.3083249, 0.3084], atol=1e-7)
        near = [s for s in solve_all_ik(r3, target).solutions if _gap(s.q, q) < 1e-2]
        assert len(near) == 1 and not near[0].approximate
        assert near[0].residual < 1e-14 and _gap(near[0].q, q) < 1e-4

    def test_starts_that_are_not_roots_get_only_a_polish(self, r3, monkeypatch):
        # at the full LM budget the complex-pair starts of these paths wander
        # for 20 and 22 iterations and reach no root the algebra did not give
        # (32 on the cusp loop before the starts of targets far from every
        # fold were dropped)
        paths = (infeasible_line_path(), cusp_loop_path())
        calls = count_calls(monkeypatch, ik, "fk_jacobian_batch")
        polished = []
        for path in paths:
            calls.clear()
            polished.append(solve_ik_along_path(r3, path.poses))
            assert len(calls) == ik._POLISH_ITERS
        monkeypatch.setattr(ik, "_POLISH_ITERS", ik._MAX_REFINE_ITERS)
        for path, sets, full_calls in zip(paths, polished, (20, 22)):
            calls.clear()
            _assert_same_sets(sets, solve_ik_along_path(r3, path.poses))
            assert len(calls) == full_calls

    def test_non_finite_target_has_no_solutions(self, r3, elbow):
        # the quartic's terms or |x|^2 overflow, or x is NaN: no roots, no
        # LAPACK error for the other targets of the batch, and no numpy
        # warning (the suite turns warnings into errors)
        targets = [Pose(np.eye(3), p) for p in ([1e78, 0.0, 0.0], [1e200, 0.0, 0.0],
                                                [np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0],
                                                [1.0, 0.0, 1.5])]
        for robot in (r3, elbow):
            sets = solve_ik_along_path(robot, targets)
            assert [ss.solutions for ss in sets[:4]] == [[]] * 4 and sets[4].solutions

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
        assert any(not ss.solutions for ss in single)
        assert any(s.approximate for ss in single for s in ss.solutions)
        for a, b in zip(single, solve_ik_along_path(r3, targets)):
            _assert_identical(a, b)
        # seven targets per chunk, refined two chunks at a time
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 7 * 4)
        for a, b in zip(single, solve_ik_along_path(r3, targets, IKConfig(threads=2))):
            _assert_identical(a, b)


def random_parallel_6r(rng):
    """A random 6R arm with h2 = h3 = h4, the closed form's class."""
    arm = random_6r(rng)
    axes = arm.axes.copy()
    axes[2] = axes[3] = axes[1]
    return RobotModel(axes=axes, offsets=arm.offsets, tool_offset=arm.tool_offset,
                      name="random-parallel-6r")


def _assert_same_exact(got, want, near_fold=1e-2):
    """Per target: equal exact counts, every exact root within 1e-9 of one of
    the other set, or within 1e-6 where some solution of either set has
    |det J| < near_fold: there LM's roots stop short of the algebra's. Returns
    how many targets were near a fold."""
    folds = 0
    for k, (a, b) in enumerate(zip(got, want)):
        ea, eb = _split(a)[0], _split(b)[0]
        assert len(ea) == len(eb), k
        near = min((abs(s.det_j) for ss in (a, b) for s in ss.solutions),
                   default=np.inf) < near_fold
        folds += near
        for mine, theirs in ((ea, eb), (eb, ea)):
            for q in mine:
                assert min(_gap(q, p) for p in theirs) <= (1e-6 if near else 1e-9), k
    return folds


def _det_j_zeros(robot, Q):
    """Joint vectors where det J changes sign between neighbours along the
    rows of Q (n, samples, dof), bisected to the last bit."""
    det = det_j_batch(robot, Q.reshape(-1, robot.dof)).reshape(Q.shape[:2])
    c, i = np.nonzero(det[:, :-1] * det[:, 1:] < 0.0)
    lo, hi, det_lo = Q[c, i], Q[c, i + 1], det[c, i]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        det_mid = det_j_batch(robot, mid)
        left = det_mid * det_lo > 0.0
        lo = np.where(left[:, None], mid, lo)
        hi = np.where(left[:, None], hi, mid)
        det_lo = np.where(left, det_mid, det_lo)
    return 0.5 * (lo + hi)


def _fold_targets(robot, rng, configs=20, per=8):
    """Targets up to 0.999 APPROX_TOL, half of them exactly that far, from
    critical values of a 3R arm in random directions: the FK of joint
    vectors where det J = 0, found by bisecting det J along theta2 with
    theta1 and theta3 random."""
    grid = np.linspace(-np.pi, np.pi, 65)
    q = np.repeat(rng.uniform(-np.pi, np.pi, (configs, 1, 3)), grid.size, axis=1)
    q[..., 1] = grid
    y = fk_batch(robot, np.repeat(_det_j_zeros(robot, q), per, axis=0))[1]
    u = rng.normal(size=y.shape)
    dist = 0.999 * ik.APPROX_TOL * np.where(rng.random(len(y)) < 0.5, 1.0, rng.random(len(y)))
    return y + u * (dist / np.linalg.norm(u, axis=1))[:, None]


def _axis_targets(robot, rng, count=200):
    """Targets up to 0.999 APPROX_TOL from joint 1's axis, where every
    reachable point is a critical value (rho = 0)."""
    h1 = robot.axes[0]
    n = np.cross(h1, rng.normal(size=(count, 3)))
    n *= (0.999 * ik.APPROX_TOL * rng.random(count) / np.linalg.norm(n, axis=1))[:, None]
    return robot.offsets[0] + rng.uniform(-3.0, 3.0, (count, 1)) * h1 + n


def _fold_measure_3r(red, x, v, dv):
    """F = |M^-1 e|^2 - v U v and F' over the columns of v (3, m) and its
    derivative dv of targets x = p - o1 (n, 3), and |M^-1 e| at v = (1, 0,
    0), from _reduce_3r's definitions."""
    e0 = np.stack([0.5 * (x * x).sum(axis=1), x @ red.h1]) + red.E[:, :1]
    w = (red.minv @ e0)[:, :, None] + (red.minv @ red.E[:, 1:] @ v[1:])[:, None, :]
    dw = (red.minv @ red.E @ dv)[:, None, :]
    F = (w * w).sum(axis=0) - np.einsum("it,ij,jt->t", v, red.U, v)
    dF = 2.0 * ((w * dw).sum(axis=0) - np.einsum("it,ij,jt->t", v, red.U, dv))
    return F, dF, np.linalg.norm(red.minv @ e0, axis=0)


def _assert_matches_every_start_rule(robot, targets, dropped=()):
    """Per target: equal exact counts, each exact root within 1e-9 of the
    every-start rule's, or within 1e-6 near a fold (|det J| < 1e-2, as in
    _assert_same_exact) or where the rule's root has the larger residual:
    a start that is not a root can reach the root within the budget and
    rank ahead of the root's own start by seed, yet it banks up to
    EXACT_TOL short (1.4e-9 rad at |det J| = 5 on 3r-canonical). Every
    approximate solution bit for bit, except at the indices in dropped,
    whose starts that are not roots the solve dropped: there the solve has
    none. Returns the solve's sets and the rule's approximate solutions at
    dropped targets."""
    got, want = solve_ik_along_path(robot, targets), every_pair_start(robot, targets)
    gone = []
    for k, (a, b) in enumerate(zip(got, want)):
        (ea, xa), (eb, xb) = (([s for s in ss.solutions if s.approximate == flag]
                               for flag in (False, True)) for ss in (a, b))
        assert len(ea) == len(eb), k
        pairs = ([(s, min(eb, key=lambda t: _gap(s.q, t.q))) for s in ea]
                 + [(min(ea, key=lambda s: _gap(s.q, t.q)), t) for t in eb])
        for s, t in pairs:
            loose = min(abs(s.det_j), abs(t.det_j)) < 1e-2 or t.residual > s.residual
            assert _gap(s.q, t.q) <= (1e-6 if loose else 1e-9), k
        if k in dropped:
            assert not xa, k
            gone += xb
            continue
        assert len(xa) == len(xb), k
        for sa, sb in zip(xa, xb):
            nt.assert_array_equal(sa.q, sb.q)
            assert (sa.residual, sa.det_j) == (sb.residual, sb.det_j), k
    return got, gone


class TestFoldTest:
    """Complex-pair starts of the 3R quartic are refined only where the
    target may lie within APPROX_TOL of a critical value (ik._near_fold);
    the every-pair rule refines them all."""

    def test_targets_near_a_fold_keep_their_complex_starts(self, monkeypatch):
        near_fold, seen = ik._near_fold, []

        def spy(red, x, *rest):
            seen.append(near_fold(red, x, *rest))
            return seen[-1]

        monkeypatch.setattr(ik, "_near_fold", spy)
        rng = np.random.default_rng(49)
        counts = np.zeros(2, dtype=int)
        arms = 0
        while arms < 40:
            robot = random_3r(rng)
            red = ik._reduce_3r(robot)
            if red.minv is None:
                continue
            arms += 1
            for kind, P in enumerate((_fold_targets(robot, rng), _axis_targets(robot, rng))):
                seen.clear()
                ik._algebraic_starts(red, (P - robot.offsets[0]).T)
                assert all(near.all() for near in seen)
                counts[kind] += sum(near.size for near in seen)
        # targets with a complex pair: near folds, and on joint 1's axis
        assert counts[0] > 5000 and counts[1] > 500

    def test_bounds_hold(self):
        # targets of random quartic-branch arms moved by exactly r: on a
        # theta3 grid, F = |M^-1 e|^2 - v U v and F' move by no more than
        # the unmoved target's t0 and t1 (ik._fold_bounds)
        rng = np.random.default_rng(54)
        theta = np.linspace(-np.pi, np.pi, 64, endpoint=False)
        v = np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta)])
        dv = np.stack([np.zeros_like(theta), -np.sin(theta), np.cos(theta)])
        arms = 0
        while arms < 20:
            robot = random_3r(rng)
            red = ik._reduce_3r(robot)
            if red.minv is None:
                continue
            arms += 1
            x = np.array([t.position for t in _random_targets(robot, arms, 100)]) - robot.offsets[0]
            u = rng.normal(size=x.shape)
            moved = x + u * (ik.APPROX_TOL / np.linalg.norm(u, axis=1))[:, None]
            (F, dF, a), (F2, dF2, _) = (_fold_measure_3r(red, y, v, dv) for y in (x, moved))
            t0, t1 = ik._fold_bounds(red, (x * x).sum(axis=1), a)
            assert (np.abs(F2 - F) <= t0[:, None]).all()
            assert (np.abs(dF2 - dF) <= t1[:, None]).all()

    def test_far_from_every_fold_a_solve_takes_two_kernel_calls(self, r3, monkeypatch):
        # the 30-sample helix at the start placement of optimize --seed 0:
        # the fold test rules out every target, so no complex-pair start
        # runs and the roots bank on the second pass, where the every-pair
        # rule polishes for the whole budget; what it banks beyond the roots
        # are budget-end points beside them, which dedup drops
        tp = fileio.toolpath_from_doc(fileio.generate_helix(samples=30))
        x0, _, _ = random_feasible_start(r3, tp, np.random.default_rng(
            np.random.SeedSequence(0).spawn(1)[0]))
        poses = transform_toolpath(reduced_to_pose(x0), tp).poses
        calls = count_calls(monkeypatch, ik, "fk_jacobian_batch")
        got = solve_ik_along_path(r3, poses)
        assert len(calls) == 2
        calls.clear()
        want = every_pair_start(r3, poses)
        assert len(calls) == ik._POLISH_ITERS
        assert _assert_same_exact(got, want) == 0
        assert not any(s.approximate for ss in got + want for s in ss.solutions)

    def test_random_arms_match_every_pair_rule(self):
        rng = np.random.default_rng(52)
        arms = 0
        while arms < 40:
            robot = random_3r(rng)
            if ik._reduce_3r(robot).minv is None:
                continue
            arms += 1
            _assert_matches_every_start_rule(
                robot, _random_targets(robot, int(rng.integers(1 << 30)), 200))

    def test_fixtures_match_every_pair_rule(self, r3):
        _assert_matches_every_start_rule(r3, _random_targets(r3, 53, 200))
        approximate = {}
        for name, path in (("line", infeasible_line_path()),
                           ("control", infeasible_line_control_path()),
                           ("control-500", infeasible_line_control_path(500)),
                           ("cusp-loop", cusp_loop_path()), ("control-loop", control_loop_path())):
            sets = _assert_matches_every_start_rule(r3, path.poses)[0]
            approximate[name] = [k for k, ss in enumerate(sets)
                                 if any(s.approximate for s in ss.solutions)]
        # the genuine boundary minima: bit-identical under both rules above
        assert approximate["cusp-loop"][0] == 2
        assert 98 in approximate["control"] and 489 in approximate["control-500"]

    def test_beyond_the_reach_matches_every_pair_rule(self, r3):
        p_star = fk_batch(r3, _R3_MAX_REACH_Q[None, :])[1][0]
        beyond = [Pose(np.eye(3), p_star * (1.0 + d / np.linalg.norm(p_star)))
                  for d in (5e-4, 1e-3, 1.0)]
        sets = _assert_matches_every_start_rule(r3, beyond)[0]
        assert [len(ss.solutions) for ss in sets] == [1, 0, 0]


def _segments(rng, count, dof=6, samples=65):
    """Joint vectors (count, samples, dof) along random joint-space segments."""
    a, b = rng.uniform(-np.pi, np.pi, (2, count, 1, dof))
    return a + np.linspace(0.0, 1.0, samples)[:, None] * (b - a)


def _critical_measures(robot, Q):
    """Scale-free measures of the three critical kinds at joint vectors Q
    (n, 6) of an arm with h2 = h3 = h4 = a, each 0 on its kind: the fold's
    |c.c'| / |c'| at the pose FK(q), with c = (cos q5, sin q5) = A^-1 (a.R1^T
    w0 - k0, a.R1^T R h6 - k1) and c' its derivative in q1 at that pose; the
    elbow's 1 - |u23.R3 u34| / (|u23| |u34|), u23 and u34 p23 and p34 normal
    to a; and the wrist's |a x R5 h6|."""
    h1, a, _, _, h5, h6 = robot.axes
    o1, _, p23, p34, _, p56 = robot.offsets
    A = np.array([[a @ p56 - (h5 @ p56) * (a @ h5), a @ np.cross(h5, p56)],
                  [a @ h6 - (h5 @ h6) * (a @ h5), a @ np.cross(h5, h6)]])
    R, p = fk_batch(robot, Q)
    # d/dq1 of a.R1^T x is (h1 x R1 a).x
    lever = np.cross(h1, [rot_about_axis(h1, q) @ a for q in Q[:, 0]])
    dc = np.linalg.solve(A, np.stack([(lever * (p - R @ robot.tool_offset - o1)).sum(axis=1),
                                      (lever * (R @ h6)).sum(axis=1)]))
    fold = np.abs(np.cos(Q[:, 4]) * dc[0] + np.sin(Q[:, 4]) * dc[1]) / np.hypot(*dc)
    u23, u34 = p23 - (a @ p23) * a, p34 - (a @ p34) * a
    elbow = 1.0 - (np.abs([u23 @ rot_about_axis(a, q) @ u34 for q in Q[:, 2]])
                   / (np.linalg.norm(u23) * np.linalg.norm(u34)))
    wrist = np.linalg.norm(np.cross([rot_about_axis(h5, q) @ h6 for q in Q[:, 4]], a), axis=1)
    return fold, elbow, wrist


def _critical_kind(robot, Q, tol=1e-8):
    """0, 1 or 2 where Q's fold, elbow or wrist measure is within tol, -1
    where none is; a wrist first, since F' vanishes there too."""
    fold, elbow, wrist = _critical_measures(robot, Q)
    return np.select([wrist <= tol, elbow <= tol, fold <= tol], [2, 1, 0], -1)


def _moved(rng, R, p, dist):
    """Poses (R (n, 3, 3), p (n, 3)) moved by |dp| + |drot| = dist (n,) in
    random directions: a third in position, a third in rotation, a third
    split at random between them."""
    n = len(p)
    share = rng.choice([0.0, 1.0, 0.5], n)
    share = np.where(share == 0.5, rng.random(n), share) * dist
    u, w = rng.normal(size=(2, n, 3))
    P = p + u * (share / np.linalg.norm(u, axis=1))[:, None]
    turn = [rot_about_axis(w[k] / np.linalg.norm(w[k]), dist[k] - share[k]) for k in range(n)]
    return np.array(turn) @ R, P


def _start_masks(robot, R, p):
    """Which 6R closed-form starts of poses (R (n, 3, 3), p (n, 3)) are kept
    (n, 8): by the solve, by the every-start rule and by the rule that keeps
    roots only."""
    red = ik._reduce_6r(robot)
    Tpos, Trot = np.ascontiguousarray(p.T), np.ascontiguousarray(R.transpose(1, 2, 0))
    masks = [ik._algebraic_starts_6r(red, Tpos, Trot)[1]]
    with pytest.MonkeyPatch.context() as m:
        for rule in (np.ones, np.zeros):
            m.setattr(ik, "_near_critical",
                      lambda red, G, *rest, rule=rule: rule(G.shape[1], dtype=bool))
            masks.append(ik._algebraic_starts_6r(red, Tpos, Trot)[1])
    return masks


class TestClosedForm6R:
    def test_branches(self, r6, flood_6r):
        assert ik._reduce_6r(r6) is not None
        rng = np.random.default_rng(50)
        for _ in range(20):
            assert ik._reduce_6r(random_parallel_6r(rng)) is not None
        # h6 = h5 leaves the 2x2 system in (cos q5, sin q5) singular
        axes = r6.axes.copy()
        axes[5] = axes[4]
        same_wrist = RobotModel(axes=axes, offsets=r6.offsets, tool_offset=r6.tool_offset)
        for robot in (flood_6r, same_wrist):
            assert ik._reduce_6r(robot) is None

    def test_coaxial_joints_refused(self):
        robot = coaxial_6r()
        dets = det_j_batch(robot, np.random.default_rng(40).uniform(-np.pi, np.pi, (1000, 6)))
        assert np.abs(dets).max() <= 1e-15
        with pytest.raises(ValueError, match="no isolated IK solutions"):
            ik._reduce_6r(robot)
        with pytest.raises(ValueError, match="no isolated IK solutions"):
            solve_all_ik(robot, forward_kinematics(robot, np.zeros(6)), IKConfig(seeds_per_joint=4))

    def test_matches_multi_start(self, r6):
        # the exact sets equal the flood's at 5 seeds. The flood also banks
        # LM stalls 0.05 to 0.13 rad beside a near-singular exact root
        # (residual 1e-4 to 1e-3) as approximate solutions; polished from the
        # closed form's start next to them, LM converges to that root
        targets = _random_targets(r6, 5, 40)
        got, want = solve_ik_along_path(r6, targets), seed_flood(r6, targets, 5)
        assert _assert_same_exact(got, want) <= 6
        for k, (a, b) in enumerate(zip(got, want)):
            (ea, xa), (eb, xb) = _split(a), _split(b)
            for q in xa:
                assert min(_gap(q, p) for p in xb) <= ik._APPROX_DEDUP, k
            for q in xb:
                assert min(_gap(q, p) for p in xa + ea) <= 0.15, k
        # pose 5 (|det J| 4.7e-4): LM's roots stop 6.4e-8 short of the algebra's
        assert 1e-8 < max(min(_gap(q, p) for p in _split(want[5])[0])
                          for q in _split(got[5])[0]) < 1e-6

    def test_random_arms_match_multi_start(self):
        rng = np.random.default_rng(46)
        for _ in range(4):
            robot = random_parallel_6r(rng)
            targets = _random_targets(robot, int(rng.integers(1 << 30)), 4)
            got, want = solve_ik_along_path(robot, targets), seed_flood(robot, targets, 5)
            _assert_same_exact(got, want)
            assert all(ss.solutions for ss in got)

    def test_root_count_split(self, r6):
        sets = solve_ik_along_path(r6, _random_targets(r6, 5, 200))
        counts = np.bincount([len(_split(ss)[0]) for ss in sets], minlength=9)
        assert counts.tolist() == [0, 0, 81, 0, 88, 0, 23, 0, 8]

    def test_near_fold_poses_have_no_approximate_flood(self, r6):
        # at 5 seeds the seed grid returned 179 and 38 approximate solutions
        # here, whose order and last digits followed last-bit differences of
        # the LM arithmetic
        for seed, index in ((5, 91), (23, 3)):
            ss = solve_all_ik(r6, _random_targets(r6, seed, index + 1)[index],
                              IKConfig(seeds_per_joint=5))
            assert [len(part) for part in _split(ss)] == [6, 0]

    def test_non_finite_target_has_no_solutions(self, r6):
        # as for 3R, with (3, 0, 1e155) a pose whose quartic stays finite
        # though |w0|^2 overflows
        good = forward_kinematics(r6, np.array([-2.4, -0.9, 1.1, -0.8, 2.3, -1.3]))
        targets = [Pose(good.rotation, p) for p in ([3.0, 0.0, 1e155], [1e160, 0.0, 0.0],
                                                    [1e200, 0.0, 0.0], [np.inf, 0.0, 0.0],
                                                    [np.nan, 0.0, 0.0])]
        sets = solve_ik_along_path(r6, targets + [good])
        assert [ss.solutions for ss in sets[:5]] == [[]] * 5 and sets[5].solutions

    def test_starts_that_are_not_roots_get_only_a_polish(self, r6, monkeypatch):
        # the first pose identify draws from seed 313399065, whose smallest
        # measure is |F'| = 0.0145 at a root: the critical test rules it
        # far, so only its two roots run and bank on the second pass. Under
        # the every-start rule its complex-pair and SP3-miss starts run the
        # whole polish budget, and at the full LM budget they wander for 40
        # iterations and reach no root the algebra did not give
        pose = forward_kinematics(r6, np.random.default_rng(313399065).uniform(-np.pi, np.pi, 6))
        calls = count_calls(monkeypatch, ik, "fk_jacobian_batch")
        got = solve_all_ik(r6, pose)
        assert len(calls) == 2
        calls.clear()
        polished = every_pair_start(r6, [pose])[0]
        assert len(calls) == ik._POLISH_ITERS
        monkeypatch.setattr(ik, "_POLISH_ITERS", ik._MAX_REFINE_ITERS)
        calls.clear()
        full = every_pair_start(r6, [pose])[0]
        assert len(calls) == 40
        assert len(_split(got)[0]) == 2
        _assert_same_exact([got], [polished])
        _assert_same_exact([polished], [full])

    def test_ignores_seed_count(self, r6):
        target = _random_targets(r6, 5, 1)
        for seeds in (2, 5):
            _assert_identical(solve_all_ik(r6, target[0], IKConfig(seeds_per_joint=seeds)),
                              solve_all_ik(r6, target[0]))

    def test_shuffled_batch_matches_single(self, r6, monkeypatch):
        rng = np.random.default_rng(48)
        base = forward_kinematics(r6, np.array([-2.4, -0.9, 1.1, -0.8, 2.3, -1.3]))
        # the reach along this ray ends at a scale of 1.28248; past it only
        # approximate solutions remain
        beyond = [Pose(base.rotation, base.position * scale) for scale in (1.2828, 3.0)]
        targets = (_random_targets(r6, 5, 40) + _random_targets(r6, 23, 5)
                   + [Pose(base.rotation, base.position + [0.0, 0.03 * k, -0.02 * k])
                      for k in range(11)] + beyond)
        targets = [targets[i] for i in rng.permutation(len(targets))]
        single = [solve_all_ik(r6, t) for t in targets]
        assert any(not ss.solutions for ss in single)
        assert any(s.approximate for ss in single for s in ss.solutions)
        for a, b in zip(single, solve_ik_along_path(r6, targets)):
            _assert_identical(a, b)
        # seven targets per chunk, refined two chunks at a time
        monkeypatch.setattr(ik, "_CHUNK_ROWS", 7 * 8)
        batched, chunks = _solve_counting_chunks(r6, targets, IKConfig(threads=2))
        assert chunks == 9
        for a, b in zip(single, batched):
            _assert_identical(a, b)


class TestCriticalTest:
    """Starts of the 6R closed form that are not roots (complex pairs of the
    q1 quartic, SP3 misses) are refined only where the pose may lie within
    APPROX_TOL of a critical value (ik._near_critical); the every-start
    rule refines them all."""

    def test_det_j_zeros_are_folds_elbows_or_wrists(self):
        # det J of an arm with h2 = h3 = h4 vanishes only where a step of
        # the reduction degenerates; random arms have no wrist zeros, as a
        # lies outside the cone of R5 h6
        rng = np.random.default_rng(61)
        counts = []
        for robot in [three_parallel_6r()] + [random_parallel_6r(rng) for _ in range(5)]:
            kind = _critical_kind(robot, _det_j_zeros(robot, _segments(rng, 100)))
            assert (kind >= 0).all()
            counts.append(np.bincount(kind, minlength=3))
        assert (counts[0] > [60, 30, 30]).all()
        assert (np.sum(counts[1:], axis=0)[:2] > [500, 250]).all()

    def test_poses_near_a_critical_value_keep_every_start(self):
        # poses up to 0.999 APPROX_TOL, half of them exactly that far, from
        # critical values of each kind, moved in position, rotation or both
        rng = np.random.default_rng(62)
        counts = np.zeros(3, dtype=int)
        for robot in [three_parallel_6r()] + [random_parallel_6r(rng) for _ in range(5)]:
            Q = _det_j_zeros(robot, _segments(rng, 100))
            kind = np.repeat(_critical_kind(robot, Q), 4)
            R, p = fk_batch(robot, np.repeat(Q, 4, axis=0))
            dist = 0.999 * ik.APPROX_TOL * np.where(rng.random(len(p)) < 0.5, 1.0,
                                                    rng.random(len(p)))
            got, every, roots = _start_masks(robot, *_moved(rng, R, p, dist))
            assert (got == every).all()
            # the poses with a start that is not a root, which the test kept
            counts += np.bincount(kind[(every != roots).any(axis=1)], minlength=3)
        assert (counts > [2500, 1100, 150]).all()

    def test_bounds_hold(self, r6):
        # poses FK(q) moved by exactly r: at a fixed q1 on a grid, c = G v
        # and c' move by at most D and D'; at q1 = q[0], a root, the moved
        # pose's F and F' stay within t0 of 0 and t1 of the pose's F'
        # (ik._fold_bounds_6r); and from a centre within d = D / (8
        # |G[:, 1:]|) of q[0], the moved pose's wrist and elbow measures
        # stay within ik._chain_bounds of q's own
        rng = np.random.default_rng(63)
        q1 = np.linspace(-np.pi, np.pi, 64, endpoint=False)
        for robot in [r6] + [random_parallel_6r(rng) for _ in range(4)]:
            red = ik._reduce_6r(robot)
            D, D1 = red.bounds[:2]
            Q = rng.uniform(-np.pi, np.pi, (300, 6))
            R, p = fk_batch(robot, Q)
            (G, _, _, _), (G2, w0, Rh6, _) = (
                ik._pose_terms(red, np.ascontiguousarray(y.T),
                               np.ascontiguousarray(M.transpose(1, 2, 0)))
                for M, y in ((R, p), _moved(rng, R, p, np.full(len(p), ik.APPROX_TOL))))
            G, G2 = G.reshape(2, 3, -1), G2.reshape(2, 3, -1)
            for v, bound in (([np.ones_like(q1), np.cos(q1), np.sin(q1)], D),
                             ([np.zeros_like(q1), -np.sin(q1), np.cos(q1)], D1)):
                assert (np.hypot(*np.einsum("ijk,jn->ikn", G2 - G, v)) <= bound).all()
            x = Q[:, 0]
            v, dv = np.stack([np.ones_like(x), np.cos(x), np.sin(x)]), np.stack(
                [np.zeros_like(x), -np.sin(x), np.cos(x)])
            (c, dc), (c2, dc2) = (((g * v).sum(axis=1), (g * dv).sum(axis=1)) for g in (G, G2))
            nb = np.linalg.norm(G2[:, 1:].transpose(2, 0, 1), ord=2, axis=(1, 2))
            t0, t1 = ik._fold_bounds_6r(red, nb)
            assert (np.abs((c2 * c2).sum(axis=0) - 1.0) <= t0).all()
            assert (np.abs((c2 * dc2).sum(axis=0) - (c * dc).sum(axis=0)) <= 0.5 * t1).all()
            d = 0.125 * D / nb
            W, slack, v = ik._wrist_elbow(red, x + d * rng.uniform(-1.0, 1.0, len(x)),
                                          ik._chain_rows(red, G2.reshape(6, -1), w0, Rh6))
            dy, dg = ik._chain_bounds(red, W, v, d, nb, np.linalg.norm(w0, axis=0))
            _, elbow, wrist = _critical_measures(robot, Q)
            assert (np.abs(W - wrist) <= dy).all()
            assert (np.abs(slack - red.rho * elbow) <= dg).all()

    def test_matches_every_start_rule(self, r6):
        # the poses the test rules far lose only the every-start rule's
        # approximate solutions there: budget-end rows of starts that were
        # still moving when the polish ended
        rng = np.random.default_rng(64)
        base = forward_kinematics(r6, np.array([-2.4, -0.9, 1.1, -0.8, 2.3, -1.3]))
        cases = ([(r6, _random_targets(r6, 65, 200)),
                  (r6, [Pose(base.rotation, base.position * scale) for scale in (1.2828, 3.0)]),
                  (r6, [_random_targets(r6, 5, 92)[91], _random_targets(r6, 23, 4)[3]])]
                 + [(arm, _random_targets(arm, int(rng.integers(1 << 30)), 50))
                    for arm in (random_parallel_6r(rng) for _ in range(20))])
        far = gone = 0
        for robot, targets in cases:
            got, every, _ = _start_masks(robot, np.array([t.rotation for t in targets]),
                                         np.array([t.position for t in targets]))
            dropped = set(np.flatnonzero((got != every).any(axis=1)).tolist())
            far += len(dropped)
            gone += len(_assert_matches_every_start_rule(robot, targets, dropped)[1])
        assert far > 500 and gone == 0


@pytest.mark.parametrize("make", [canonical_3r, three_parallel_6r])
def test_solved_robot_is_freed(make):
    # what the IK derives from a robot is cached by geometry, and the
    # cache must not keep the robot itself alive
    robot = make()
    solve_all_ik(robot, forward_kinematics(robot, np.full(robot.dof, 0.3)))
    freed = weakref.ref(robot)
    del robot
    gc.collect()
    assert freed() is None

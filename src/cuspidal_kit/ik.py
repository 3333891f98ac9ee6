"""Enumeration of all isolated IK solutions by multi-start refinement.

Every pose is attacked from a regular grid of joint-space seeds; each seed
runs damped least squares until it converges, stalls at a boundary local
minimum (a continuous approximate solution), or gives up. Survivors are
deduplicated wrap-aware, exact solutions ahead of approximate ones.

The engine iterates one flat population of (target, seed) rows, so a whole
task-space path can be refined in a handful of large numpy batches; a
single-target solve is just a population with one target. Rows of
different targets never interact and every per-row operation is
elementwise, which keeps the result identical, bit for bit, however the
population is batched, chunked or threaded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kinematics import (  # noqa: F401  det_j_batch: see below
    Pose,
    RobotModel,
    det_j_batch,
    fk_jacobian_batch,
    jacobian_dets,
    wrap_to_pi,
)

# det_j_batch is not called here (a solution's det_j comes from the Jacobian
# the LM loop already holds) but stays importable from this module, because
# perfbench/tracing.py wraps ik.det_j_batch as well as ik.fk_jacobian_batch

# iterates of the same target closer than this (per joint, after wrapping)
# are assumed to share a basin and are merged onto the lowest seed index;
# completeness under this shortcut is covered by the brute-force grid oracle
_COALESCE_CELL = 0.3
_COALESCE_START_ITER = 2
# rows this close to a root (meters+radians of residual) are exempt from
# coalescing: distinct near-fold roots can sit closer than the cell size
_COALESCE_RESID_GUARD = 1e-2
_STALL_LIMIT = 4
_STALL_REL_IMPROVEMENT = 1e-3
_CHUNK_ROWS = 150_000
# boundary local minima are valley-shaped; stalled points this close (rad)
# describe the same continuous approximate solution
_APPROX_DEDUP = 0.05
_LAM_GROW = 10.0
_LAM_SHRINK = 0.3
_LAM_MAX = 1e8
# initial and minimum per-row damping
_DAMPING = 1e-4
_MAX_REFINE_ITERS = 100
# exact solutions closer than this (per joint, after wrapping) are one solution
_DEDUP_TOL = 1e-4


@dataclass
class IKConfig:
    """Knobs for the multi-start solver.

    seeds_per_joint defaults to 24 for 3-DOF arms and 8 for 6-DOF arms when
    left as None.
    """
    seeds_per_joint: int | None = None
    exact_tol: float = 1e-8
    approx_tol: float = 1e-3
    include_approximate: bool = True

    def __post_init__(self):
        if self.seeds_per_joint is not None and self.seeds_per_joint < 1:
            raise ValueError("seeds_per_joint must be >= 1")
        if self.exact_tol >= self.approx_tol:
            raise ValueError("exact_tol must be smaller than approx_tol")
        for name in ("exact_tol", "approx_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def resolve_seeds(self, dof: int) -> int:
        if self.seeds_per_joint is not None:
            return self.seeds_per_joint
        return 24 if dof == 3 else 8


@dataclass
class IKSolution:
    """One isolated joint-space preimage of a pose.

    residual sums position error (m) and orientation geodesic error (rad);
    approximate marks boundary local minima where exact IK ceases to exist.
    """
    q: np.ndarray
    residual: float
    det_j: float
    approximate: bool


@dataclass
class IKSolutionSet:
    pose: Pose
    solutions: list[IKSolution]

    @property
    def count(self) -> int:
        return len(self.solutions)

    def joint_matrix(self) -> np.ndarray:
        if not self.solutions:
            return np.empty((0, 0))
        return np.stack([s.q for s in self.solutions])


def seed_grid(dof: int, seeds_per_joint: int) -> np.ndarray:
    """Regular grid of bin-center seeds over (-pi, pi]^dof, row-major order."""
    centers = -np.pi + (np.arange(seeds_per_joint) + 0.5) * (2.0 * np.pi / seeds_per_joint)
    grids = np.meshgrid(*([centers] * dof), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _rotvec_batch(R: np.ndarray) -> np.ndarray:
    """Rotation vectors (3, N) of a joint-major stack of rotations (3, 3, N)."""
    vee = 0.5 * np.stack([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    s = np.sqrt(vee[0] ** 2 + vee[1] ** 2 + vee[2] ** 2)
    c = (R[0, 0] + R[1, 1] + R[2, 2] - 1.0) / 2.0
    theta = np.arctan2(s, c)
    small = s <= 1e-7
    factor = np.where(small, 1.0 + theta * theta / 6.0, theta / np.where(small, 1.0, s))
    out = vee * factor
    # antipodal rows: vee vanishes but theta ~ pi, recover the axis from R + I
    flipped = np.flatnonzero(small & (c < 0.0))
    for i in flipped:
        A = R[:, :, i] + np.eye(3)
        k = int(np.argmax(np.diag(A)))
        axis = A[:, k] / np.linalg.norm(A[:, k])
        if vee[:, i] @ axis < 0.0:
            axis = -axis
        out[:, i] = axis * theta[i]
    return out


def _lm_step(J: np.ndarray, e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Damped least-squares step J^T (J J^T + lam^2 I)^-1 e, entry by entry.

    J (m, n, N) and e (m, N) are joint-major. The normal-equation entries
    are sums of elementwise products, so each row gets the same bits in any
    batch; 3x3 systems are solved by their adjugate, 6x6 ones by LAPACK on
    a contiguous stack. Returns the (n, N) step.
    """
    m, n, N = J.shape
    A = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            a = J[i, 0] * J[j, 0]
            for k in range(1, n):
                a += J[i, k] * J[j, k]
            if i == j:
                a += lam * lam
            A[i][j] = A[j][i] = a
    if m == 3:
        a00, a01, a02, a11, a12, a22 = A[0][0], A[0][1], A[0][2], A[1][1], A[1][2], A[2][2]
        c00 = a11 * a22 - a12 * a12
        c01 = a12 * a02 - a01 * a22
        c02 = a01 * a12 - a11 * a02
        c11 = a00 * a22 - a02 * a02
        c12 = a01 * a02 - a00 * a12
        c22 = a00 * a11 - a01 * a01
        inv_det = 1.0 / (a00 * c00 + a01 * c01 + a02 * c02)
        y = [(c00 * e[0] + c01 * e[1] + c02 * e[2]) * inv_det,
             (c01 * e[0] + c11 * e[1] + c12 * e[2]) * inv_det,
             (c02 * e[0] + c12 * e[1] + c22 * e[2]) * inv_det]
    else:
        stack = np.empty((N, m, m))
        for i in range(m):
            for j in range(m):
                stack[:, i, j] = A[i][j]
        y = np.linalg.solve(stack, np.ascontiguousarray(e.T)[..., None])[..., 0].T
    dq = np.empty((n, N))
    for k in range(n):
        d = J[0, k] * y[0]
        for i in range(1, m):
            d += J[i, k] * y[i]
        dq[k] = d
    return dq


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _cell_key(Q, sample_of, cell: float) -> np.ndarray:
    """Mixed hash key per row from (sample id, quantized joint cell)."""
    cells = np.round(Q * (1.0 / cell)).astype(np.int64).astype(np.uint64)
    key = sample_of.astype(np.uint64)
    with np.errstate(over="ignore"):
        for j in range(Q.shape[1]):
            key = key * _MIX + cells[:, j]
    return key


def _first_of_each_key(sorted_like_keys: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct key, preserving the
    given order (input must be in the desired priority order)."""
    order = np.argsort(sorted_like_keys, kind="stable")
    uniq = np.ones(order.shape[0], dtype=bool)
    k = sorted_like_keys[order]
    uniq[1:] = k[1:] != k[:-1]
    return order[uniq]


def _refine_population(robot: RobotModel, Tpos, Trot, Q0, sample, seed, cfg: IKConfig):
    """Levenberg-Marquardt over rows of (target, seed) pairs.

    Tpos (3, S) and Trot (3, 3, S) hold one target per sample id, and every
    row is tagged with its sample id, so rows of different targets never
    interact: a target's rows evolve the same whatever else is in the
    population. Each row carries its own damping: steps that raise the
    residual are rejected and retried stiffer, which keeps boundary rows
    from being flung away by a near-singular Jacobian. All per-row state
    lives in one record, joint-major with rows along the last axis, that is
    compacted once per iteration. Returns candidate arrays
    (q, residual, seed, approximate, sample, det_j); det_j comes from the
    Jacobian at exactly that q.
    """
    m6 = robot.dof != 3
    N = Q0.shape[0]
    # per-row state; Q (n, N), e (m, N), J (m, n, N) and resid are the last
    # accepted iterate
    rows = {"seed": np.asarray(seed), "sample": np.asarray(sample),
            "lam": np.full(N, _DAMPING), "best": np.full(N, np.inf),
            "stall": np.zeros(N, dtype=np.int8), "below": np.zeros(N, dtype=bool)}
    Q = wrap_to_pi(np.ascontiguousarray(np.asarray(Q0, dtype=float).T))
    done: list[tuple] = []

    def bank(sel):
        if np.any(sel):
            r = rows["resid"][sel]
            done.append((rows["Q"][:, sel].T, r, rows["seed"][sel], r > cfg.exact_tol,
                         rows["sample"][sel],
                         jacobian_dets(rows["J"][..., sel].transpose(2, 0, 1))))

    for it in range(_MAX_REFINE_ITERS):
        R, p, J = fk_jacobian_batch(robot, Q.T)
        # the kernel's buffers, joint-major again
        p, J = p.T, J.transpose(1, 2, 0)
        target = rows["sample"]
        dp = Tpos[:, target] - p
        resid = np.sqrt(dp[0] ** 2 + dp[1] ** 2 + dp[2] ** 2)
        if m6:
            T, R = Trot[:, :, target], R.transpose(1, 2, 0)
            # orientation error T R^T
            E = np.empty_like(T)
            for a in range(3):
                for b in range(3):
                    E[a, b] = T[a, 0] * R[b, 0] + T[a, 1] * R[b, 1] + T[a, 2] * R[b, 2]
            w = _rotvec_batch(E)
            e = np.concatenate([dp, w])
            resid += np.sqrt(w[0] ** 2 + w[1] ** 2 + w[2] ** 2)
        else:
            e = dp
        bad = ~np.isfinite(resid)
        lam = rows["lam"]
        if it > 0:
            worse = (resid > rows["resid"]) | bad
            if np.any(worse):
                # reject the step: revert to the stored state, retry stiffer
                Q[:, worse] = rows["Q"][:, worse]
                e[:, worse] = rows["e"][:, worse]
                J[..., worse] = rows["J"][..., worse]
                resid[worse] = rows["resid"][worse]
                bad &= ~worse
            lam = np.where(worse, np.minimum(lam * _LAM_GROW, _LAM_MAX),
                           np.maximum(lam * _LAM_SHRINK, _DAMPING))
        below = resid <= cfg.exact_tol
        # bank a root only after a second sub-tolerance pass: the extra
        # Newton step polishes it to machine accuracy, which downstream
        # cost comparisons rely on
        converged = below & rows["below"]
        stalled = (rows["best"] - resid) < _STALL_REL_IMPROVEMENT * np.maximum(resid, 1e-12)
        stall = np.where(stalled, rows["stall"] + 1, 0).astype(np.int8)
        gave_up = (stall >= _STALL_LIMIT) & ~below & ~bad
        rows.update(Q=Q, e=e, J=J, resid=resid, lam=lam, below=below, stall=stall,
                    best=np.minimum(rows["best"], resid))
        if it == _MAX_REFINE_ITERS - 1:
            # out of budget: bank whatever is close enough
            bank(~bad & (resid <= cfg.approx_tol))
            break
        bank((converged | gave_up) & (resid <= cfg.approx_tol))
        keep = ~(converged | gave_up | bad)
        if not keep.any():
            break
        if it >= _COALESCE_START_ITER:
            # only targets with more than 64 live rows coalesce, each judged
            # on its own count; rows already homing in on a root are exempt:
            # distinct near-fold twin roots can sit closer than the cell size
            live = np.bincount(target[keep], minlength=Tpos.shape[1])[target] > 64
            free = np.flatnonzero(keep & live & (resid >= _COALESCE_RESID_GUARD))
            if free.size:
                key = _cell_key(Q[:, free].T, target[free], _COALESCE_CELL)
                rank = np.argsort(rows["seed"][free], kind="stable")
                keep[free] = False
                keep[free[rank[_first_of_each_key(key[rank])]]] = True
        if not keep.all():
            rows = {name: np.compress(keep, v, axis=-1) for name, v in rows.items()}
        Q = wrap_to_pi(rows["Q"] + _lm_step(rows["J"], rows["e"], rows["lam"]))
    if not done:
        return (np.empty((0, robot.dof)), np.empty(0), np.empty(0, dtype=int),
                np.empty(0, dtype=bool), np.empty(0, dtype=int), np.empty(0))
    return tuple(np.concatenate(parts) for parts in zip(*done))


def _dedup_sample(Q, seed, approx) -> np.ndarray:
    """Wrap-aware dedup for one target; exact beats approximate, then lowest
    seed index wins. Returns the kept row indices, exact-first by seed index.

    Approximate candidates are thinned at a coarser radius: stalls along one
    boundary valley all describe the same continuous approximate solution.
    """
    kept: list[int] = []
    for i in np.lexsort((seed, approx.astype(int))):
        radius = _APPROX_DEDUP if approx[i] else _DEDUP_TOL
        if all(np.max(np.abs(wrap_to_pi(Q[i] - Q[j]))) > radius for j in kept):
            kept.append(i)
    return np.array(kept, dtype=int)


def _solutions(Q, resid, approx, det_j, cfg) -> list[IKSolution]:
    """IKSolutions for candidate rows; approximate rows are dropped unless
    the config includes them."""
    keep = slice(None) if cfg.include_approximate else ~approx
    return [IKSolution(q=q, residual=float(r), det_j=float(d), approximate=bool(a))
            for q, r, d, a in zip(Q[keep], resid[keep], det_j[keep], approx[keep])]


def _coarse_thin(Q, resid, seed, approx, sample, det_j):
    """Pre-collapse candidate floods before the exact pairwise dedup.

    Candidates of the same target landing in the same half-dedup cell are
    certainly duplicates; keep the best-ranked (exact first, lowest seed)."""
    rank = np.lexsort((seed, approx.astype(int), sample))
    key = _cell_key(Q, sample, 2.0 * _DEDUP_TOL)
    keep = rank[_first_of_each_key(key[rank])]
    keep.sort()
    return Q[keep], resid[keep], seed[keep], approx[keep], sample[keep], det_j[keep]


def refine_solution(robot: RobotModel, target: Pose, q0, cfg: IKConfig | None = None):
    """Polish a single start; returns an IKSolution or None on no convergence."""
    cfg = cfg or IKConfig()
    q0 = robot._check_q(np.asarray(q0, dtype=float))
    zero = np.zeros(1, dtype=int)
    Q, resid, _, approx, _, det_j = _refine_population(
        robot, target.position[:, None], target.rotation[:, :, None], q0[None, :], zero, zero, cfg)
    sols = _solutions(Q, resid, approx, det_j, cfg)
    return sols[0] if sols else None


def solve_all_ik(robot: RobotModel, target: Pose, cfg: IKConfig | None = None) -> IKSolutionSet:
    """All isolated IK solutions of a pose (6R) or position (3R).

    Deterministic for a fixed config: solutions are ordered by the first
    seed that reached them, exact solutions ahead of approximate ones. An
    empty set is a valid result for unreachable targets.
    """
    return solve_ik_along_path(robot, [target], cfg)[0]


def solve_ik_along_path(robot: RobotModel, targets, cfg: IKConfig | None = None,
                        threads: int = 1) -> list[IKSolutionSet]:
    """solve_all_ik for every pose in targets, batched into one population.

    Rows of different targets never interact, so each returned set is
    identical to a standalone solve_all_ik call on that pose.
    """
    cfg = cfg or IKConfig()
    if robot.dof not in (3, 6):
        raise ValueError("all-solutions IK supports 3- and 6-DOF arms")
    targets = list(targets)
    if not targets:
        return []
    grid = seed_grid(robot.dof, cfg.resolve_seeds(robot.dof))
    n_seeds = grid.shape[0]
    per_chunk = max(1, _CHUNK_ROWS // n_seeds)
    chunks = [(lo, min(lo + per_chunk, len(targets)))
              for lo in range(0, len(targets), per_chunk)]

    Tpos = np.stack([t.position for t in targets], axis=-1)
    Trot = np.stack([t.rotation for t in targets], axis=-1)

    def run_chunk(bounds):
        lo, hi = bounds
        k = hi - lo
        Q0 = np.tile(grid, (k, 1))
        sample = np.repeat(np.arange(lo, hi), n_seeds)
        seeds = np.tile(np.arange(n_seeds), k)
        out = _refine_population(robot, Tpos, Trot, Q0, sample, seeds, cfg)
        if out[0].shape[0] > 32:
            out = _coarse_thin(*out)
        return out

    if threads > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(b) for b in chunks]

    sets = []
    for (lo, hi), (Q, resid, seed, approx, sample, det_j) in zip(chunks, results):
        for idx in range(lo, hi):
            sel = np.flatnonzero(sample == idx)
            sel = sel[_dedup_sample(Q[sel], seed[sel], approx[sel])]
            sets.append(IKSolutionSet(pose=targets[idx], solutions=_solutions(
                Q[sel], resid[sel], approx[sel], det_j[sel], cfg)))
    return sets


def solution_count_map(robot: RobotModel, rho_range, z_range, grid, cfg: IKConfig | None = None) -> np.ndarray:
    """Exact-solution counts over the phi = 0 half-plane, 3-DOF arms only.

    Returns an integer array of shape (n_rho, n_z); entry [i, j] counts the
    isolated exact IK solutions of target position (rho_i, 0, z_j).
    Unreachable cells are 0.
    """
    if robot.dof != 3:
        raise ValueError("solution count maps are defined for 3-DOF robots only")
    cfg = replace(cfg or IKConfig(), include_approximate=False)
    n_rho, n_z = grid
    rhos = np.linspace(rho_range[0], rho_range[1], n_rho)
    zs = np.linspace(z_range[0], z_range[1], n_z)
    eye = np.eye(3)
    targets = [Pose(eye, np.array([rho, 0.0, z])) for rho in rhos for z in zs]
    sets = solve_ik_along_path(robot, targets, cfg)
    counts = np.array([s.count for s in sets], dtype=int).reshape(n_rho, n_z)
    return counts

"""Independent reference implementations the tests check the library against.

Everything here deliberately avoids the library's solver internals: the
Jacobian oracle uses central differences of forward kinematics, the kernel
oracle walks the chain with its 0/1 folding on every call (the kernel
replays a tape recorded once per robot and must match it bit for bit), the IK
oracle scans a dense joint-space grid for error minima and polishes them
with a plain pseudo-inverse Newton, the shortest-path oracle explores
every start-to-finish route by depth-first search and keeps the
lexicographically smallest optimal one, the IK dedup oracle applies the
greedy radius rule one target and one row at a time, the admission oracle
re-derives the planner's edge rule pair by pair and its reachability with
the same search, the joint-limit oracle tracks turns vertex by vertex and
judges every admitted edge on its own in a plain loop, and the layerwise
planner builds and searches the graph one pair of layers at a time (the
padded planner must match it bit for bit, as the kernel must match the
walk), and the per-sample path builders make one Pose per sample of a
path file, a fixture or a placed toolpath and price its reach one pose at
a time (the array-backed TaskPath must match them bit for bit), and the
pointwise Nelder-Mead evaluates one point at a time (the library's, which
evaluates independent points as one stack, must match it bit for bit). Two
exceptions run the library's own solver: the seed flood, its LM from a
regular seed grid, the multi-start reference that the closed-form 3R IK is
checked against; and the every-pair rule, its closed-form 3R IK with every
complex pair's start refined, as it ran before the starts of targets far
from every fold were dropped. Alongside them, the entrywise LM step and
orientation error build one (N,) array per matrix entry (the library's
whole-matrix versions must match them bit for bit), and the branched
matrix-to-quaternion conversion writes one formula per dominant component
(the library's row of one symmetric matrix must match it bit for bit). The
disk start draws a random placement as the optimizer did when its tilt was
the quaternion's (x, y) part; the rotation-vector tilt must land each draw
on the same placement.
"""

import numpy as np

from cuspidal_kit import ik
from cuspidal_kit.kinematics import (Pose, RobotModel, fk_batch, forward_kinematics,
                                     quat_to_rotation, wrap_to_pi)


def finite_difference_jacobian(robot: RobotModel, q, h: float = 1e-6) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = robot.dof
    m = 3 if n == 3 else 6
    J = np.zeros((m, n))
    R0 = forward_kinematics(robot, q).rotation
    for i in range(n):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        Pp, Pm = forward_kinematics(robot, qp), forward_kinematics(robot, qm)
        J[:3, i] = (Pp.position - Pm.position) / (2.0 * h)
        if m == 6:
            dR = (Pp.rotation - Pm.rotation) / (2.0 * h) @ R0.T
            J[3:, i] = [dR[2, 1], dR[0, 2], dR[1, 0]]
    return J


def _fold_dot(a, b):
    """Sum of a[k] * b[k], left to right, folding float factors of 0 and 1."""
    acc = 0.0
    for x, y in zip(a, b):
        if x.__class__ is float:
            x, y = y, x
        if y.__class__ is float:
            if y == 0.0 or (x.__class__ is float and x == 0.0):
                continue
            t = x if y == 1.0 else x * y
        else:
            t = x * y
        acc = t if acc.__class__ is float and acc == 0.0 else acc + t
    return acc


def _fold_sub(a, b):
    return a if b.__class__ is float and b == 0.0 else a - b


def walked_fk_jacobian(robot: RobotModel, Q):
    """(R, p, J) of fk_jacobian_batch by walking the chain on every call:
    one (N,) array per matrix entry, entries that the fixed axes make
    exactly 0 or 1 kept as Python floats and folded out of the products."""
    Q = np.asarray(Q, dtype=float)
    N, n = Q.shape
    QT = np.ascontiguousarray(Q.T)
    s, c = np.sin(QT), np.cos(QT)
    K, K2 = robot._K.tolist(), robot._K2.tolist()
    R = np.eye(3).tolist()
    o = robot.offsets[0].tolist()
    origins, axes_w = [], []
    for i in range(n):
        if i > 0:
            off = robot.offsets[i].tolist()
            o = [_fold_dot((o[a], _fold_dot(R[a], off)), (1.0, 1.0)) for a in range(3)]
        h = robot.axes[i].tolist()
        axes_w.append([_fold_dot(R[a], h) for a in range(3)])
        origins.append(o)
        omc = 1.0 - c[i]
        Ri = [[_fold_dot((s[i], omc, 1.0), (K[i][a][b], K2[i][a][b], float(a == b)))
               for b in range(3)] for a in range(3)]
        R = [[_fold_dot(R[a], [Ri[k][b] for k in range(3)]) for b in range(3)]
             for a in range(3)]
    tool = robot.tool_offset.tolist()
    p = [_fold_dot((o[a], _fold_dot(R[a], tool)), (1.0, 1.0)) for a in range(3)]
    m = 3 if n == 3 else 6
    Rb, pb, Jb = np.empty((3, 3, N)), np.empty((3, N)), np.empty((m, n, N))
    for a in range(3):
        pb[a] = p[a]
        for b in range(3):
            Rb[a, b] = R[a][b]
    for i in range(n):
        z = axes_w[i]
        lever = [_fold_sub(p[a], origins[i][a]) for a in range(3)]
        for a in range(3):
            b, d = (a + 1) % 3, (a + 2) % 3
            Jb[a, i] = _fold_sub(_fold_dot((z[b],), (lever[d],)), _fold_dot((z[d],), (lever[b],)))
            if m == 6:
                Jb[3 + a, i] = z[a]
    return Rb.transpose(2, 0, 1), pb.T, Jb.transpose(2, 0, 1)


class DenseGridIKOracle:
    """Brute-force all-solutions position IK for 3-DOF arms.

    The joint torus is sampled on an n^3 grid (FK positions precomputed
    once); for a target, every 6-neighborhood local minimum of the position
    error seeds an independent Gauss-Newton polish via pseudo-inverse.
    """

    def __init__(self, robot: RobotModel, n_grid: int = 180):
        assert robot.dof == 3
        self.robot = robot
        self.n = n_grid
        axis = -np.pi + (np.arange(n_grid) + 0.5) * (2.0 * np.pi / n_grid)
        self.axis = axis
        grids = np.meshgrid(axis, axis, axis, indexing="ij")
        Q = np.stack([g.ravel() for g in grids], axis=1)
        self.positions = np.empty((Q.shape[0], 3))
        for lo in range(0, Q.shape[0], 500_000):
            hi = min(lo + 500_000, Q.shape[0])
            _, self.positions[lo:hi] = fk_batch(robot, Q[lo:hi])
        self.Q = Q

    def candidates(self, target_pos) -> np.ndarray:
        d = self.positions - np.asarray(target_pos, dtype=float)[None, :]
        err = np.sqrt(np.einsum("ij,ij->i", d, d)).reshape(self.n, self.n, self.n)
        is_min = np.ones(err.shape, dtype=bool)
        for ax in range(3):
            is_min &= err <= np.roll(err, 1, axis=ax)
            is_min &= err <= np.roll(err, -1, axis=ax)
        return self.Q[is_min.ravel()]

    def polish(self, target_pos, q0, iters: int = 60, tol: float = 1e-9):
        from cuspidal_kit.kinematics import fk_jacobian_batch
        q = np.asarray(q0, dtype=float).copy()
        t = np.asarray(target_pos, dtype=float)
        for _ in range(iters):
            _, p, J = fk_jacobian_batch(self.robot, q[None, :])
            e = t - p[0]
            if np.linalg.norm(e) < tol:
                return wrap_to_pi(q)
            step, *_ = np.linalg.lstsq(J[0], e, rcond=1e-9)
            if np.linalg.norm(step) > 0.6:
                step *= 0.6 / np.linalg.norm(step)
            q = q + step
        return None

    def solve(self, target_pos, dedup_tol: float = 1e-4) -> list[np.ndarray]:
        sols: list[np.ndarray] = []
        for q0 in self.candidates(target_pos):
            q = self.polish(target_pos, q0)
            if q is None:
                continue
            if all(np.max(np.abs(wrap_to_pi(q - s))) > dedup_tol for s in sols):
                sols.append(q)
        return sols


def seed_flood(robot: RobotModel, targets, seeds: int):
    """All-solutions IK of each target by LM from every node of a regular
    grid of `seeds` per joint, deduplicated by the library's rule; one
    IKSolutionSet per target, exact before approximate, each by seed."""
    grid = ik.seed_grid(robot.dof, seeds)
    n = grid.shape[0]
    Tpos = np.stack([t.position for t in targets], axis=-1)
    Trot = np.stack([t.rotation for t in targets], axis=-1)
    per_chunk = max(1, 150_000 // n)
    sets = []
    for lo in range(0, len(targets), per_chunk):
        k = min(per_chunk, len(targets) - lo)
        Q, resid, seed, approx, sample, det_j = ik._refine_population(
            robot, Tpos, Trot, np.tile(grid, (k, 1)), np.repeat(np.arange(lo, lo + k), n),
            np.tile(np.arange(n), k))
        keep = ik._dedup(Q, seed, approx, sample)
        for t in range(lo, lo + k):
            sets.append(ik.IKSolutionSet([
                ik.IKSolution(q=Q[i], residual=float(resid[i]), det_j=float(det_j[i]),
                              approximate=bool(approx[i]))
                for i in keep[sample[keep] == t]]))
    return sets


def every_pair_start(robot: RobotModel, targets):
    """solve_ik_along_path with every start refined under the same budget,
    whatever the target's distance to a critical value: every complex
    pair's start of the 3R quartic, and every start of the 6R closed form.
    The rule the fold tests (ik._near_fold, ik._near_critical) replaced."""
    near_fold, near_critical = ik._near_fold, ik._near_critical
    ik._near_fold = lambda red, x, *rest: np.ones(x.shape[1], dtype=bool)
    ik._near_critical = lambda red, G, *rest: np.ones(G.shape[1], dtype=bool)
    try:
        return ik.solve_ik_along_path(robot, targets)
    finally:
        ik._near_fold, ik._near_critical = near_fold, near_critical


def entrywise_lm_step(J: np.ndarray, e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Damped least-squares step J^T (J J^T + lam^2 I)^-1 e, entry by entry.

    J (m, n, N) and e (m, N) are joint-major. The normal-equation entries
    are sums of elementwise products and LAPACK solves each system of the
    contiguous stack on its own, so each row gets the same bits in any
    batch. Returns the (n, N) step.
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


def entrywise_orientation_error(T: np.ndarray, R: np.ndarray) -> np.ndarray:
    """T R^T of two joint-major stacks of rotations (3, 3, N), one (N,)
    array per matrix entry."""
    E = np.empty_like(T)
    for a in range(3):
        for b in range(3):
            E[a, b] = T[a, 0] * R[b, 0] + T[a, 1] * R[b, 1] + T[a, 2] * R[b, 2]
    return E


def branched_rotation_to_quat(R) -> np.ndarray:
    """Rotation matrix to unit quaternion (w, x, y, z), w >= 0.

    The dominant component comes from a square root; the rest divide
    off-diagonal terms by it, which keeps near-zero components accurate to
    machine precision instead of sqrt(eps).
    """
    R = np.asarray(R, dtype=float)
    t = np.array([
        1.0 + R[0, 0] + R[1, 1] + R[2, 2],
        1.0 + R[0, 0] - R[1, 1] - R[2, 2],
        1.0 - R[0, 0] + R[1, 1] - R[2, 2],
        1.0 - R[0, 0] - R[1, 1] + R[2, 2],
    ])
    k = int(np.argmax(t))
    s = 2.0 * np.sqrt(max(t[k], 0.0))
    if k == 0:
        q = np.array([s / 4.0, (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    elif k == 1:
        q = np.array([(R[2, 1] - R[1, 2]) / s, s / 4.0,
                      (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s])
    elif k == 2:
        q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s,
                      s / 4.0, (R[1, 2] + R[2, 1]) / s])
    else:
        q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s, s / 4.0])
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def greedy_dedup(Q, seed, approx, sample, exact_radius: float, approx_radius: float):
    """Kept row indices of the IK dedup rule, targets in increasing sample
    order. Per target, rows go in (exact first, seed) order; a row is kept
    unless its max-abs wrapped joint distance to a row already kept for
    that target is within its own radius."""
    kept: list[int] = []
    for t in np.unique(sample):
        rows = np.flatnonzero(sample == t)
        mine: list[int] = []
        for i in rows[np.lexsort((seed[rows], approx[rows].astype(int)))]:
            radius = approx_radius if approx[i] else exact_radius
            if all(np.max(np.abs(wrap_to_pi(Q[i] - Q[j]))) > radius for j in mine):
                mine.append(i)
        kept.extend(mine)
    return np.array(kept, dtype=int)


def brute_force_shortest(graph, s_weight=None, f_weight=None):
    """Optimal S-to-F weight and the lexicographically smallest optimal
    (layer, vertex) sequence, by exhaustive DFS over admitted edges; (inf,
    None) when F is unreachable.

    s_weight, the (M_0,) weights of the start edges, and f_weight, the
    (M_K,) weights of the finish edges, inf where absent, replace the
    graph's when given. Every route's weight is summed from its start in
    route order; a route ties the best when that sum is exactly equal.
    """
    s_weight = graph.s_weight if s_weight is None else s_weight
    f_weight = graph.f_weight if f_weight is None else f_weight
    K = len(graph.Q) - 1
    out_edges: dict = {}
    for (k, d), e in graph.edges.items():
        W = e["weight"]
        for m in range(W.shape[0]):
            for l in np.flatnonzero(np.isfinite(W[m])):
                out_edges.setdefault((k, m), []).append(((k + d, int(l)), W[m, l]))
    best = [np.inf, None]

    def dfs(v, acc, route):
        k, m = v
        total = acc + f_weight[m] if k == K else np.inf
        if total < best[0] or (total == best[0] < np.inf and route < best[1]):
            best[:] = [total, route]
        for w, wt in out_edges.get(v, ()):
            dfs(w, acc + wt, route + (w,))

    for m in np.flatnonzero(np.isfinite(s_weight)):
        dfs((0, int(m)), s_weight[m], ((0, int(m)),))
    return best[0], best[1]


def single_pass_admission(Q, det_j, dlambda: float, eps: float, nonsingular_only: bool = False):
    """Edge set, S/F terminals and first disconnected span of the planner's
    admission rule, each derived from its definition by depth-first search.

    (k, m) -> (k+1, l) is admitted when the squared wrap-aware step over
    dlambda stays under eps (and the determinant signs agree under
    nonsingular_only). S joins every layer-0 vertex and F every layer-K
    vertex. The span runs from the first layer that no route from S
    reaches to the last of the unreached layers that follow it, (K, K) when
    every layer is reached. Returns (edges, s, f, span) with edges a set of
    (k, 1, m, l).
    """
    K = len(Q) - 1

    def close_enough(k, m, l):
        step = wrap_to_pi(np.asarray(Q[k + 1][l], float) - np.asarray(Q[k][m], float))
        if float(step @ step) / dlambda >= eps:
            return False
        return not nonsingular_only or det_j[k][m] * det_j[k + 1][l] > 0

    edges = {(k, 1, m, l) for k in range(K) for m in range(len(Q[k]))
             for l in range(len(Q[k + 1])) if close_enough(k, m, l)}
    s = {(0, m) for m in range(len(Q[0]))}
    f = {(K, m) for m in range(len(Q[K]))}

    seen, stack = set(s), list(s)
    while stack:
        k, m = stack.pop()
        for w in [(kk + d, l) for (kk, d, mm, l) in edges if (kk, mm) == (k, m)]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    alive = [any((k, m) in seen for m in range(len(Q[k]))) for k in range(K + 1)]
    if all(alive):
        return edges, s, f, (K, K)
    a = alive.index(False)
    b = a
    while b + 1 <= K and not alive[b + 1]:
        b += 1
    return edges, s, f, (a, b)


def joint_limit_loop(Q, edges, s_weight, f_weight, limits):
    """Vertex-by-vertex reference for the planner's joint-limit pass, applied
    in place to the weights of a graph built without limits; returns the
    turn-tracked joint vectors.

    An S-edge head (a layer-0 vertex) takes, per joint, the 2*pi shift
    inside the limits nearest its wrapped value (the value itself when none
    fits); a vertex of a later layer extends its lowest-index admitted,
    already tracked predecessor by the wrap-minimal step. An edge goes when its tail or head lies outside the limits or the
    head's implied unwrap differs from its tracked value by more than 1e-9;
    a terminal goes when outside.
    """
    lo, hi = limits[:, 0], limits[:, 1]
    K = len(Q) - 1
    unwrapped = [np.array(q, dtype=float) for q in Q]
    tracked = [np.zeros(len(q), dtype=bool) for q in Q]
    for l in range(len(Q[0])):
        if np.isfinite(s_weight[l]):
            for i in range(len(lo)):
                fits = [Q[0][l][i] + 2 * np.pi * t for t in sorted(range(-4, 5), key=abs)
                        if lo[i] <= Q[0][l][i] + 2 * np.pi * t <= hi[i]]
                unwrapped[0][l][i] = fits[0] if fits else Q[0][l][i]
            tracked[0][l] = True
    for j in range(1, K + 1):
        for l in range(len(Q[j])):
            preds = [m for m in range(len(Q[j - 1])) if tracked[j - 1][m]
                     and (j - 1, 1) in edges
                     and np.isfinite(edges[(j - 1, 1)]["weight"][m, l])]
            if preds:
                m = preds[0]
                unwrapped[j][l] = unwrapped[j - 1][m] + wrap_to_pi(Q[j][l] - Q[j - 1][m])
                tracked[j][l] = True
    inside = [[bool(np.all((u >= lo) & (u <= hi))) for u in uj] for uj in unwrapped]
    for j in range(K + 1):
        for l in range(len(unwrapped[j])):
            if not inside[j][l]:
                if j == 0:
                    s_weight[l] = np.inf
                if j == K:
                    f_weight[l] = np.inf
    for (k, d), e in edges.items():
        W = e["weight"]
        for m in range(len(Q[k])):
            for l in np.flatnonzero(np.isfinite(W[m])):
                implied = unwrapped[k][m] + wrap_to_pi(Q[k + d][l] - Q[k][m])
                if not inside[k + d][l] or not inside[k][m] or \
                        np.max(np.abs(implied - unwrapped[k + d][l])) > 1e-9:
                    W[m, l] = np.inf
    return unwrapped


def layerwise_plan(layers, path, cfg=None, robot=None, closed_costs: bool = False):
    """The planner one layer pair at a time, the bitwise reference for the
    padded planner: per-layer solution stacks, one weight matrix per pair
    of consecutive layers with an admitted edge, the limits pass one layer
    at a time, a min-plus relaxation per pair, and the path accumulated
    step by step.

    Returns a namespace with Q, det_j, edges ({(k, 1): {"weight": (M_k,
    M_k+1)}}), s_weight, f_weight, unwrapped (None without limits), path
    (None, or vertex_indices, q, cost, weight), span (None when feasible)
    and, with closed_costs, the repeatability costs of a closed path.
    """
    from types import SimpleNamespace

    from cuspidal_kit import planner as P

    cfg = cfg or P.PlannerConfig()
    K = path.K
    sols = [layer.solutions for layer in layers]
    dof = next((ss[0].q.shape[0] for ss in sols if ss), robot.dof if robot is not None else 3)
    eps = path.dlambda * cfg.resolve_eps0(dof)
    Q = [np.stack([s.q for s in ss]) if ss else np.empty((0, dof)) for ss in sols]
    det_j = [np.array([s.det_j for s in ss]) for ss in sols]
    penalties = [P._APPROX_PENALTY * np.array([s.residual if s.approximate else 0.0
                                               for s in ss]) for ss in sols]
    sign = [np.sign(d) for d in det_j]
    edges = {}
    for k in range(K):
        d = wrap_to_pi(Q[k + 1][None] - Q[k][:, None])
        cost = np.einsum("...j,...j->...", d, d) / path.dlambda
        ok = cost < eps
        if cfg.nonsingular_only:
            ok &= (sign[k][:, None] * sign[k + 1][None, :]) > 0
        if ok.any():
            edges[(k, 1)] = {"weight": np.where(ok, cost + penalties[k + 1][None, :], np.inf)}
    s_weight = penalties[0]
    f_weight = np.zeros(Q[K].shape[0])

    unwrapped = None
    if robot is not None and robot.joint_limits is not None:
        limits = robot.joint_limits
        lo, hi = limits[:, 0], limits[:, 1]
        unwrapped = [P._start_representative(Q[0], limits)] + [q.copy() for q in Q[1:]]
        tracked = np.ones(Q[0].shape[0], dtype=bool)
        inside = []
        for j, u in enumerate(unwrapped):
            e = edges.get((j - 1, 1))
            if e is not None:
                implied = unwrapped[j - 1][:, None, :] + wrap_to_pi(Q[j][None, :, :]
                                                                     - Q[j - 1][:, None, :])
                from_tracked = np.isfinite(e["weight"]) & tracked[:, None]
                tracked = from_tracked.any(axis=0)
                heads = np.flatnonzero(tracked)
                u[heads] = implied[from_tracked.argmax(axis=0)[heads], heads]
            elif j > 0:
                tracked = np.zeros(Q[j].shape[0], dtype=bool)
            inside.append(np.all((u >= lo) & (u <= hi), axis=1))
            if j == 0:
                s_weight[~inside[0]] = np.inf
            if e is not None:
                off = np.max(np.abs(implied - u), axis=2) > 1e-9
                e["weight"][off | ~inside[j - 1][:, None] | ~inside[j]] = np.inf
        f_weight[~inside[-1]] = np.inf

    def relax(seed, tight=None, forward=True):
        graph = edges if tight is None else tight
        rows = [np.full(np.shape(seed)[:-1] + (len(q),), np.inf) for q in Q]
        rows[0 if forward else K] = np.array(seed, dtype=float)
        heads = range(1, K + 1) if forward else range(K, 0, -1)
        for j in heads:
            if (j - 1, 1) not in graph:
                continue
            W = graph[(j - 1, 1)]["weight"]
            if forward:
                np.minimum(rows[j], (rows[j - 1][..., :, None] + W).min(axis=-2), out=rows[j])
            else:
                np.minimum(rows[j - 1], (W + rows[j][..., None, :]).min(axis=-1),
                           out=rows[j - 1])
        return rows

    dist = relax(s_weight)
    best = np.min(dist[K] + f_weight, initial=np.inf)
    plan, span = None, None
    if best == np.inf:
        span = (next((k for k, r in enumerate(dist) if not np.isfinite(r).any()), K), K)
    else:
        tight = {key: {"weight": np.where(dist[k][:, None] + e["weight"] == dist[k + 1],
                                          e["weight"], np.inf)}
                 for key, e in edges.items() for k in [key[0]]}
        live = relax(np.where(dist[K] + f_weight == best, 0.0, np.inf), tight, forward=False)
        vertices = [int(np.flatnonzero(np.isfinite(live[0]))[0])]
        for k in range(K):
            step = tight[(k, 1)]["weight"][vertices[-1]]
            vertices.append(int(np.flatnonzero(np.isfinite(step) & np.isfinite(live[k + 1]))[0]))
        qs = [(Q if unwrapped is None else unwrapped)[0][vertices[0]].copy()]
        for k in range(K):
            qs.append(qs[-1] + wrap_to_pi(Q[k + 1][vertices[k + 1]] - Q[k][vertices[k]]))
        q = np.stack(qs)
        lambdas = np.arange(K + 1, dtype=float) * path.dlambda
        plan = SimpleNamespace(vertex_indices=vertices, q=q, weight=float(best),
                               cost=P.path_cost(q, lambdas))
    costs = None
    if closed_costs:
        M = Q[0].shape[0]
        costs = relax(np.where(np.eye(M, dtype=bool), 0.0, np.inf))[K]
    return SimpleNamespace(Q=Q, det_j=det_j, edges=edges, s_weight=s_weight, f_weight=f_weight,
                           unwrapped=unwrapped, path=plan, span=span, costs=costs)


def per_sample_path(doc: dict):
    """(poses, dlambda, frame, closed) of a path document, one Pose per
    sample: p as given, q_wxyz through quat_to_rotation, identity without."""
    poses = []
    for entry in doc["samples"]:
        p = np.asarray(entry["p"], dtype=float)
        if "q_wxyz" in entry:
            R = quat_to_rotation(np.asarray(entry["q_wxyz"], dtype=float))
        else:
            R = np.eye(3)
        poses.append(Pose(R, p))
    return poses, float(doc["dlambda"]), doc["frame"], doc.get("closed", False)


def per_sample_segment(a, b, samples: int) -> list[np.ndarray]:
    """Points of the straight-segment fixtures, one expression per k."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    K = samples - 1
    return [a + (b - a) * k / K for k in range(samples)]


def per_sample_circle(center, radius: float, samples: int) -> list[np.ndarray]:
    """Points of the loop fixtures in the xz plane, one expression per t;
    the last repeats the first."""
    ts = np.linspace(0.0, 2.0 * np.pi, samples)
    pts = [np.array([center[0] + radius * np.cos(t), 0.0, center[1] + radius * np.sin(t)])
           for t in ts]
    pts[-1] = pts[0].copy()
    return pts


def per_sample_transform(wp, poses) -> list[Pose]:
    """A workpiece placement applied to each pose on its own: R @ rotation
    and p + R @ position."""
    R = wp.rotation
    return [Pose(R @ s.rotation, wp.p + R @ s.position) for s in poses]


def per_sample_unreachable_penalty(radii, poses) -> float:
    """How far poses stick out of the shell r_min <= |p| <= r_max, summed
    one pose at a time."""
    r_min, r_max = radii
    dist = 0.0
    for pose in poses:
        r = float(np.linalg.norm(pose.position))
        dist += max(0.0, r - r_max) + max(0.0, r_min - r)
    return dist


def disk_start_pose(rng, r_max: float):
    """The placement of one random start draw under the tilt's earlier
    form, the (x, y) part v of a unit quaternion inside the unit disk: v
    uniform over the disk, quaternion (sqrt(1 - |v|^2), v_x, v_y, 0), and a
    translation uniform over the box [-r_max, r_max]^3 applied before the
    tilt. Returns (quat, p) in the base frame."""
    r = np.sqrt(rng.uniform())
    ang = rng.uniform(0.0, 2.0 * np.pi)
    v = np.array([r * np.cos(ang), r * np.sin(ang)])
    p = rng.uniform(np.full(3, -r_max), np.full(3, r_max))
    quat = np.array([np.sqrt(1.0 - v @ v), v[0], v[1], 0.0])
    return quat, quat_to_rotation(quat) @ p


def pointwise_nelder_mead(f, x0, max_evals):
    """Nelder-Mead with f called on one point at a time, the initial
    simplex and shrink steps included; f maps a point to its value. The
    library's nelder_mead hands the independent points of the initial
    simplex and of a shrink step to its f as one stack and must return the
    same x_best, f_best and history bit for bit."""
    from cuspidal_kit import optimizer as O
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    history: list[float] = []
    best_so_far = [np.inf]

    def ev(x):
        val = float(f(x))
        best_so_far[0] = min(best_so_far[0], val)
        history.append(best_so_far[0])
        return val

    simplex = [x0.copy()]
    fvals = [ev(x0)]
    for i in range(n):
        x = x0.copy()
        x[i] += O._NM_INITIAL_STEP
        simplex.append(x)
        fvals.append(ev(x))
    simplex = np.stack(simplex)
    fvals = np.array(fvals)

    while len(history) < max_evals:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        diameter = np.max(np.linalg.norm(simplex[1:] - simplex[0], axis=1))
        if diameter < O._NM_TOL_X and (fvals[-1] - fvals[0]) < O._NM_TOL_F:
            break
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        xr = centroid + O._NM_REFLECTION * (centroid - worst)
        fr = ev(xr)
        if fr < fvals[0]:
            xe = centroid + O._NM_EXPANSION * (xr - centroid)
            fe = ev(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + O._NM_CONTRACTION * (worst - centroid)
            fc = ev(xc)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + O._NM_SHRINK * (simplex[i] - simplex[0])
                    fvals[i] = ev(simplex[i])
    order = np.argsort(fvals, kind="stable")
    return simplex[order[0]].copy(), float(fvals[order[0]]), history

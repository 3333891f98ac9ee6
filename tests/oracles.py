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
the same search, and the
joint-limit oracle tracks turns vertex by vertex and judges every admitted
edge on its own in a plain loop. The one exception is the seed flood: the
library's own LM from a regular seed grid, the multi-start reference that
the closed-form 3R IK is checked against.
"""

import numpy as np

from cuspidal_kit import ik
from cuspidal_kit.kinematics import RobotModel, fk_batch, forward_kinematics, wrap_to_pi


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
            np.tile(np.arange(n), k), ik.IKConfig())
        keep = ik._dedup(Q, seed, approx, sample)
        for t in range(lo, lo + k):
            sets.append(ik.IKSolutionSet([
                ik.IKSolution(q=Q[i], residual=float(resid[i]), det_j=float(det_j[i]),
                              approximate=bool(approx[i]))
                for i in keep[sample[keep] == t]]))
    return sets


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


def joint_limit_loop(Q, edges, s_weight, f_weight, limits, barrier: float):
    """Vertex-by-vertex reference for the planner's joint-limit pass, applied
    in place to the weights of a graph built without limits; returns the
    turn-tracked joint vectors.

    An S-edge head (a layer-0 vertex) takes, per joint, the 2*pi shift
    inside the limits nearest its wrapped value (the value itself when none
    fits); a vertex of a later layer extends its lowest-index admitted,
    already tracked predecessor by the wrap-minimal step. Every vertex pays
    barrier * sum(1/margin_lo + 1/margin_hi) on its incoming and S weights.
    An edge goes when its tail or head lies outside the limits or the
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
        for l, u in enumerate(unwrapped[j]):
            if barrier > 0.0:
                pen = barrier * np.sum(1.0 / np.maximum(u - lo, 1e-6)
                                       + 1.0 / np.maximum(hi - u, 1e-6))
                if j == 0:
                    s_weight[l] += pen
                for (k, d), e in edges.items():
                    if k + d == j:
                        e["weight"][:, l] += pen
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

"""Independent reference implementations the tests check the library against.

Everything here deliberately avoids the library's solver internals: the
Jacobian oracle uses central differences of forward kinematics, the IK
oracle scans a dense joint-space grid for error minima and polishes them
with a plain pseudo-inverse Newton, the shortest-path oracle explores
every start-to-finish route by depth-first search, the admission oracle
re-derives the planner's multi-pass edge rule with the same search, and the
joint-limit oracle judges every admitted edge on its own in a plain loop.
"""

import numpy as np

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


def brute_force_shortest(graph) -> float:
    """Optimal S-to-F weight by exhaustive DFS over admitted edges."""
    out_edges: dict = {}
    for (k, d), e in graph.edges.items():
        W = e["weight"]
        for m in range(W.shape[0]):
            for l in np.flatnonzero(np.isfinite(W[m])):
                out_edges.setdefault((k, m), []).append(((k + d, l), W[m, l]))
    f_set = dict(graph.f_edges)
    best = [np.inf]

    def dfs(v, acc):
        if v in f_set:
            best[0] = min(best[0], acc + f_set[v])
        for w, wt in out_edges.get(v, ()):
            dfs(w, acc + wt)

    for v, w0 in graph.s_edges.items():
        dfs(v, w0)
    return best[0]


def multipass_admission(Q, det_j, dlambda: float, eps: float, skip_depth: int,
                        nonsingular_only: bool = False):
    """Edge set, S/F terminals and first disconnected span of the multi-pass
    rule, each derived from its definition by depth-first search.

    Pass d (1..skip_depth) admits (k, m) -> (k+d, l) when the squared
    wrap-aware step over the d*dlambda gap stays under eps (and the
    determinant signs agree under nonsingular_only), and, for d > 1, when no
    path over edges of the earlier passes already joins the two vertices.
    S joins every layer-0 vertex and F every layer-K vertex; after pass d,
    S also joins the layer-(d-1) vertices it cannot reach and F the
    layer-(K-d+1) vertices that cannot reach it. Returns (edges, s, f, span)
    with edges a set of (k, d, m, l).
    """
    K = len(Q) - 1
    edges: set = set()

    def successors(v, edge_set):
        k, m = v
        return [(k + d, l) for (kk, d, mm, l) in edge_set if (kk, mm) == (k, m)]

    def reachable(sources, edge_set):
        seen, stack = set(sources), list(sources)
        while stack:
            for w in successors(stack.pop(), edge_set):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def close_enough(k, d, m, l):
        step = wrap_to_pi(np.asarray(Q[k + d][l], float) - np.asarray(Q[k][m], float))
        if float(step @ step) / (d * dlambda) >= eps:
            return False
        return not nonsingular_only or det_j[k][m] * det_j[k + d][l] > 0

    s = {(0, m) for m in range(len(Q[0]))}
    f = {(K, m) for m in range(len(Q[K]))}
    for d in range(1, skip_depth + 1):
        earlier = set(edges)
        for k in range(K - d + 1):
            for m in range(len(Q[k])):
                joined = reachable([(k, m)], earlier) if d > 1 else set()
                for l in range(len(Q[k + d])):
                    if close_enough(k, d, m, l) and (k + d, l) not in joined:
                        edges.add((k, d, m, l))
        j = d - 1
        if d > 1 and j <= K - 1:
            from_s = reachable(s, edges)
            s |= {(j, m) for m in range(len(Q[j])) if (j, m) not in from_s}
            f |= {(K - j, m) for m in range(len(Q[K - j]))
                  if not reachable([(K - j, m)], edges) & f}

    from_s = reachable(s, edges)
    alive = [any((k, m) in from_s for m in range(len(Q[k]))) for k in range(K + 1)]
    if all(alive):
        return edges, s, f, (K, K)
    a = alive.index(False)
    b = a
    while b + 1 <= K and not alive[b + 1]:
        b += 1
    return edges, s, f, (a, b)


def drop_limit_violations_loop(Q, unwrapped, edges, s_edges, f_edges, limits):
    """Edge-by-edge reference for planner._drop_limit_violations: an edge
    goes when its tail or head lies outside the limits under the
    turn-tracked representative, or when the head's implied unwrap differs
    from its representative by more than 1e-9; terminals go when outside."""
    lo, hi = limits[:, 0], limits[:, 1]
    inside = [np.all((u >= lo[None, :]) & (u <= hi[None, :]), axis=1) if u.shape[0] else
              np.zeros(0, dtype=bool) for u in unwrapped]
    for (k, d), e in edges.items():
        ok = np.isfinite(e["weight"])
        for m in range(Q[k].shape[0]):
            for l in np.flatnonzero(ok[m]):
                implied = unwrapped[k][m] + wrap_to_pi(Q[k + d][l] - Q[k][m])
                if not inside[k + d][l] or not inside[k][m] or \
                        np.max(np.abs(implied - unwrapped[k + d][l])) > 1e-9:
                    e["weight"][m, l] = np.inf
    for (k, m) in list(s_edges):
        if not inside[k][m]:
            del s_edges[(k, m)]
    for (k, m) in list(f_edges):
        if not inside[k][m]:
            del f_edges[(k, m)]

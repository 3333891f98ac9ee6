"""Joint path planning over complete IK solution sets.

A discretized task-space path becomes a layered weighted DAG: one vertex
per IK solution per sample, plus start/finish pseudo-vertices. Edges join
solutions of consecutive samples when the squared wrap-aware joint step
divided by the sample spacing stays under a velocity-derived threshold;
extra passes add skip edges over layers whose solutions went missing. The
optimal joint path is the shortest S-to-F path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ik import IKConfig, IKSolutionSet, solve_ik_along_path
from .kinematics import TWO_PI, Pose, RobotModel, pose_difference, wrap_to_pi

# soft-penalty plumbing: approximate IK solutions cost their residual times
# this factor, so exact routes win whenever one exists
_APPROX_PENALTY = 1e3
_MU_FLOOR = 1e-9
_BARRIER_MARGIN = 1e-6
# per-joint default speed bound (rad per unit path parameter) behind eps0
_DEFAULT_QDOT_MAX = 4.0 * np.pi


@dataclass
class TaskPath:
    """Evenly sampled task-space path; sample k sits at lambda = k*dlambda.

    Base-frame paths are planned directly; workpiece-frame toolpaths are
    placed in the base frame by the optimizer first.
    """
    poses: list[Pose]
    dlambda: float
    closed: bool = False

    def __post_init__(self):
        if len(self.poses) < 2:
            raise ValueError("a path needs at least two samples")
        if not (np.isfinite(self.dlambda) and self.dlambda > 0):
            raise ValueError("dlambda must be finite and positive")
        if not all(np.isfinite(p.position).all() and np.isfinite(p.rotation).all()
                   for p in self.poses):
            raise ValueError("path samples must be finite")
        if self.closed:
            gap = pose_difference(self.poses[0], self.poses[-1])
            if gap > 1e-9:
                raise ValueError(f"closed path endpoints differ by {gap:.2e} > 1e-9")

    @property
    def K(self) -> int:
        return len(self.poses) - 1


@dataclass
class PlannerConfig:
    """Graph construction knobs.

    eps0 is the edge admission threshold per unit lambda; when None it
    defaults to ||qdot_max||^2 for a per-joint bound of 4*pi rad per unit
    lambda. Tuning it matters: too small disconnects genuinely continuous
    solutions, too large bridges distinct branches.
    """
    eps0: float | None = None
    skip_depth: int = 2
    nonsingular_only: bool = False
    manipulability_weight: float = 0.0
    joint_limit_barrier: float = 0.0

    def __post_init__(self):
        if self.eps0 is not None and self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if self.skip_depth < 1:
            raise ValueError("skip_depth must be >= 1")

    def resolve_eps0(self, dof: int) -> float:
        if self.eps0 is not None:
            return self.eps0
        return dof * _DEFAULT_QDOT_MAX ** 2


def edge_cost(q1, q2, dlambda: float) -> float:
    """Squared wrap-aware joint step per unit lambda."""
    if dlambda <= 0:
        raise ValueError("dlambda must be positive")
    d = wrap_to_pi(np.asarray(q2, dtype=float) - np.asarray(q1, dtype=float))
    return float(d @ d) / dlambda


def path_cost(qs, lambdas) -> float:
    """Movement metric of a discrete joint path sampled at the given lambdas."""
    qs = np.asarray(qs, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    steps = wrap_to_pi(np.diff(qs, axis=0))
    gaps = np.diff(lambdas)
    return float(np.sum(np.sum(steps * steps, axis=1) / gaps))


def build_layers(robot: RobotModel, path: TaskPath, ik_cfg: IKConfig | None = None,
                 threads: int = 1) -> list[IKSolutionSet]:
    """All IK solutions for every sample; approximate ones retained, flagged."""
    return solve_ik_along_path(robot, path.poses, ik_cfg, threads=threads)


@dataclass
class PlanGraph:
    """Layered DAG over IK solutions with start/finish pseudo-vertices."""
    dlambda: float
    eps: float
    Q: list[np.ndarray]                 # (M_k, n) wrapped joint vectors
    det_j: list[np.ndarray]
    edges: dict                         # (k, d) -> dict(weight=(M_k, M_k+d)), inf = absent
    s_edges: dict                       # (k, m) -> weight
    f_edges: dict                       # (k, m) -> weight
    # turn-tracked joint vectors when the robot declares joint limits
    unwrapped: list[np.ndarray] | None = None

    @property
    def n_layers(self) -> int:
        return len(self.Q)

    @property
    def layer_counts(self) -> list[int]:
        return [q.shape[0] for q in self.Q]

    @property
    def edge_count(self) -> int:
        interior = sum(int(np.isfinite(e["weight"]).sum()) for e in self.edges.values())
        return interior + len(self.s_edges) + len(self.f_edges)

    @property
    def depth(self) -> int:
        """Longest admitted edge, in layers."""
        return max((d for _, d in self.edges), default=1)


def _pairwise_cost(Qa: np.ndarray, Qb: np.ndarray, gap_lambda: float) -> np.ndarray:
    """Matrix of wrap-aware squared joint steps per unit lambda, (Ma, Mb)."""
    if Qa.shape[0] == 0 or Qb.shape[0] == 0:
        return np.full((Qa.shape[0], Qb.shape[0]), np.inf)
    d = wrap_to_pi(Qb[None, :, :] - Qa[:, None, :])
    return np.einsum("abj,abj->ab", d, d) / gap_lambda


def incoming(edges, j: int, depth: int) -> list[tuple[int, int]]:
    """Keys (k, d) of the admitted edges into layer j no longer than depth,
    nearest layer first."""
    return [(j - d, d) for d in range(1, min(depth, j) + 1) if (j - d, d) in edges]


def reach(edges, depth: int, rows: dict, lo: int, hi: int, forward: bool = True) -> dict:
    """Boolean reachability along admitted edges inside layers [lo, hi].

    rows maps every layer k in [lo, hi] to an (R, M_k) array of seed rows
    and is filled in place and returned: forward, row r at layer j ends up
    marking the vertices that row r's seeds reach; backward, the vertices
    from which row r's seeds are reached.
    """
    heads = range(lo + 1, hi + 1) if forward else range(hi, lo, -1)
    for j in heads:
        for (k, d) in incoming(edges, j, min(depth, j - lo)):
            src, dst = (k, j) if forward else (j, k)
            if rows[src].any():
                ok = np.isfinite(edges[(k, d)]["weight"])
                rows[dst] |= rows[src] @ (ok if forward else ok.T)
    return rows


def _terminal_rows(counts, terminals, lo: int, hi: int) -> dict:
    """One seed row per layer in [lo, hi], marking the given (k, m) terminals."""
    rows = {k: np.zeros((1, counts[k]), dtype=bool) for k in range(lo, hi + 1)}
    for (k, m) in terminals:
        if lo <= k <= hi:
            rows[k][0, m] = True
    return rows


def build_plan_graph(layers: list[IKSolutionSet], path: TaskPath, cfg: PlannerConfig | None = None,
                     robot: RobotModel | None = None) -> PlanGraph:
    """Weighted DAG over the layers.

    Pass 1 admits edges between consecutive layers whose metric stays below
    eps = dlambda * eps0; pass d admits skip edges over d-1 layers, at metric
    threshold eps on the d*dlambda gap, only between vertices not already
    connected inside that window (multi-pass rule, which also gates the
    start/finish skip connections). Vertex penalties (manipulability,
    joint-limit barrier, approximate-solution residual) ride on incoming
    edge weights so a path pays each visited vertex exactly once. When the
    robot declares joint limits, edges and terminals whose vertices leave
    them under greedy turn tracking are dropped.
    """
    cfg = cfg or PlannerConfig()
    K = path.K
    if len(layers) != K + 1:
        raise ValueError("layer count must match path samples")
    sols = [layer.solutions for layer in layers]
    dof = next((ss[0].q.shape[0] for ss in sols if ss),
               robot.dof if robot is not None else 3)
    eps = path.dlambda * cfg.resolve_eps0(dof)
    Q = [np.stack([s.q for s in ss]) if ss else np.empty((0, dof)) for ss in sols]
    det_j = [np.array([s.det_j for s in ss]) for ss in sols]

    # vertex penalties
    penalties = []
    for k in range(K + 1):
        pen = _APPROX_PENALTY * np.array([s.residual if s.approximate else 0.0
                                          for s in sols[k]])
        if cfg.manipulability_weight > 0.0:
            mu = np.abs(det_j[k])
            pen = pen + cfg.manipulability_weight * path.dlambda / np.maximum(mu, _MU_FLOOR)
        penalties.append(pen)

    sign = [np.sign(d) for d in det_j]
    edges: dict = {}
    counts = [q.shape[0] for q in Q]
    depth = cfg.skip_depth

    def admit(k: int, d: int):
        cost = _pairwise_cost(Q[k], Q[k + d], d * path.dlambda)
        ok = cost < eps
        if cfg.nonsingular_only:
            ok &= (sign[k][:, None] * sign[k + d][None, :]) > 0
        if d > 1 and ok.any():
            rows = {j: np.zeros((counts[k], counts[j]), dtype=bool) for j in range(k + 1, k + d + 1)}
            rows[k] = np.eye(counts[k], dtype=bool)
            ok &= ~reach(edges, depth, rows, k, k + d)[k + d]
        if ok.any():
            edges[(k, d)] = {"weight": np.where(ok, cost + penalties[k + d][None, :], np.inf)}

    for k in range(K):
        admit(k, 1)
    s_edges = {(0, m): float(penalties[0][m]) for m in range(Q[0].shape[0])}
    f_edges = {(K, m): 0.0 for m in range(Q[K].shape[0])}

    for d in range(2, depth + 1):
        for k in range(0, K - d + 1):
            admit(k, d)
        # start/finish skips mirror the interior pass: S reaches layer d-1,
        # F is reached from layer K-d+1, only for vertices not already wired
        j = d - 1
        if 1 <= j <= K - 1:
            from_s = reach(edges, depth, _terminal_rows(counts, s_edges, 0, j), 0, j)[j][0]
            for m in range(counts[j]):
                if not from_s[m]:
                    s_edges[(j, m)] = float(penalties[j][m])
            jf = K - j
            to_f = reach(edges, depth, _terminal_rows(counts, f_edges, jf, K), jf, K,
                         forward=False)[jf][0]
            for m in range(counts[jf]):
                if not to_f[m]:
                    f_edges[(jf, m)] = 0.0

    unwrapped = None
    if robot is not None and robot.joint_limits is not None:
        unwrapped = _assign_unwrapped(Q, edges, s_edges, depth, robot.joint_limits)
        if cfg.joint_limit_barrier > 0.0:
            lo, hi = robot.joint_limits[:, 0], robot.joint_limits[:, 1]
            for k in range(K + 1):
                if counts[k] == 0:
                    continue
                margin_lo = np.maximum(unwrapped[k] - lo[None, :], _BARRIER_MARGIN)
                margin_hi = np.maximum(hi[None, :] - unwrapped[k], _BARRIER_MARGIN)
                bar = cfg.joint_limit_barrier * path.dlambda * np.sum(
                    1.0 / margin_lo + 1.0 / margin_hi, axis=1)
                _add_head_penalty(edges, s_edges, k, bar, depth)
        _drop_limit_violations(Q, unwrapped, edges, s_edges, f_edges, robot.joint_limits)

    return PlanGraph(dlambda=path.dlambda, eps=eps, Q=Q, det_j=det_j,
                     edges=edges, s_edges=s_edges, f_edges=f_edges, unwrapped=unwrapped)


def _add_head_penalty(edges, s_edges, k: int, pen: np.ndarray, depth: int):
    for key in incoming(edges, k, depth):
        w = edges[key]["weight"]
        edges[key]["weight"] = np.where(np.isfinite(w), w + pen[None, :], np.inf)
    for m in range(pen.shape[0]):
        if (k, m) in s_edges:
            s_edges[(k, m)] += float(pen[m])


def _start_representative(q: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Per joint, the 2*pi shift of a wrapped start vertex that lies inside
    the limits, the one nearest q when several do; q itself where none does."""
    lo, hi = limits[:, 0], limits[:, 1]
    turns = np.clip(0.0, np.ceil((lo - q) / TWO_PI), np.floor((hi - q) / TWO_PI))
    shifted = q + TWO_PI * turns
    return np.where((turns != 0.0) & (shifted >= lo) & (shifted <= hi), shifted, q)


def _assign_unwrapped(Q, edges, s_edges, depth: int, limits: np.ndarray):
    """Greedy turn tracking: each start vertex takes its representative
    inside the limits (see _start_representative), every other vertex the
    unwrapped representative nearest its first admitted predecessor
    (nearest layer first, then lowest vertex index); exact +/- pi steps take
    the positive branch."""
    unwrapped = [q.copy() for q in Q]
    assigned = [np.zeros(q.shape[0], dtype=bool) for q in Q]
    for (k, m) in s_edges:
        unwrapped[k][m] = _start_representative(Q[k][m], limits)
        assigned[k][m] = True
    for j in range(len(Q)):
        for (k, d) in incoming(edges, j, depth):
            ok = np.isfinite(edges[(k, d)]["weight"])
            for m in range(Q[k].shape[0]):
                if not assigned[k][m]:
                    continue
                for l in np.flatnonzero(ok[m]):
                    if not assigned[j][l]:
                        unwrapped[j][l] = unwrapped[k][m] + wrap_to_pi(Q[j][l] - Q[k][m])
                        assigned[j][l] = True
    return unwrapped


def _drop_limit_violations(Q, unwrapped, edges, s_edges, f_edges, limits):
    """Remove edges whose tail or head would sit outside the joint limits
    under the turn-tracked representative, or whose implied unwrap of the
    head disagrees with it; then the terminals outside the limits."""
    lo, hi = limits[:, 0], limits[:, 1]
    inside = [np.all((u >= lo) & (u <= hi), axis=1) for u in unwrapped]
    for (k, d), e in edges.items():
        implied = unwrapped[k][:, None, :] + wrap_to_pi(Q[k + d][None, :, :] - Q[k][:, None, :])
        off = np.max(np.abs(implied - unwrapped[k + d][None, :, :]), axis=2) > 1e-9
        e["weight"][off | ~inside[k][:, None] | ~inside[k + d][None, :]] = np.inf
    for (k, m) in list(s_edges):
        if not inside[k][m]:
            del s_edges[(k, m)]
    for (k, m) in list(f_edges):
        if not inside[k][m]:
            del f_edges[(k, m)]


@dataclass
class JointPath:
    """Shortest continuous joint path through the graph.

    cost is the pure movement metric; weight additionally carries the soft
    penalties the search minimized. Entries sit at the layers the path
    visits (skip edges leave gaps).
    """
    lambdas: np.ndarray
    layer_indices: list[int]
    vertex_indices: list[int]
    q: np.ndarray
    cost: float
    weight: float
    dlambda: float
    total_length: float

    @property
    def rms(self) -> float:
        return float(np.sqrt(self.cost / self.total_length))


@dataclass
class PlanResult:
    path: JointPath | None
    layer_counts: list[int]
    graph: PlanGraph
    infeasible_span: tuple[int, int] | None = None

    @property
    def feasible(self) -> bool:
        return self.path is not None


class _Search:
    """Single-source DAG relaxation with lexicographic tie-breaking."""

    def __init__(self, graph: PlanGraph):
        self.g = graph

    def run(self, sources: dict):
        g = self.g
        K = g.n_layers - 1
        depth = g.depth
        dist = [np.full(q.shape[0], np.inf) for q in g.Q]
        parent = [[None] * q.shape[0] for q in g.Q]
        self._parent = parent
        self._tuples: dict = {}
        for (k, m), w in sources.items():
            if w < dist[k][m]:
                dist[k][m] = w
                parent[k][m] = "S"
        for j in range(K + 1):
            for (k, d) in incoming(g.edges, j, depth):
                W = g.edges[(k, d)]["weight"]
                for m in range(W.shape[0]):
                    dkm = dist[k][m]
                    if not np.isfinite(dkm):
                        continue
                    for l in np.flatnonzero(np.isfinite(W[m])):
                        cand = dkm + W[m, l]
                        if cand < dist[j][l] or (
                                cand == dist[j][l]
                                and self.seq((k, m)) + ((j, l),) < self.seq((j, l))):
                            dist[j][l] = cand
                            parent[j][l] = (k, m)
                            # later layers are untouched, so only this
                            # vertex's cached sequence can be stale
                            self._tuples.pop((j, l), None)
        return dist, parent

    def seq(self, v):
        """Vertex index sequence of the current best path to v."""
        # walk up to S or a cached vertex, then cache the sequences of the
        # walked vertices top-down (a loop: paths can be thousands deep)
        trail = []
        while v != "S" and v not in self._tuples:
            trail.append(v)
            k, m = v
            v = self._parent[k][m]
        tup = () if v == "S" else self._tuples[v]
        for u in reversed(trail):
            tup = tup + (u,)
            self._tuples[u] = tup
        return tup


def shortest_joint_path(graph: PlanGraph):
    """Minimum-weight S-to-F path, or None when F is unreachable.

    Exact-cost ties resolve toward the smallest (layer, vertex) sequence.
    """
    search = _Search(graph)
    dist, parent = search.run(graph.s_edges)
    best, best_v = np.inf, None
    for (k, m), w in sorted(graph.f_edges.items()):
        if not np.isfinite(dist[k][m]):
            continue
        cand = dist[k][m] + w
        if cand < best or (cand == best and search.seq((k, m)) < search.seq(best_v)):
            best, best_v = cand, (k, m)
    if best_v is None:
        return None
    chain = []
    v = best_v
    while v != "S":
        chain.append(v)
        k, m = v
        v = parent[k][m]
    chain.reverse()
    return _extract_path(graph, chain, float(best))


def _extract_path(graph: PlanGraph, chain, weight: float) -> JointPath:
    layer_idx = [k for k, _ in chain]
    vert_idx = [m for _, m in chain]
    # continuous unwrapped output: accumulate the wrap-minimal steps from
    # the first vertex, an S-edge head, starting from its turn-tracked
    # representative when the robot declares limits
    k0, m0 = chain[0]
    qs = [(graph.Q if graph.unwrapped is None else graph.unwrapped)[k0][m0].copy()]
    cost = 0.0
    for (ka, ma), (kb, mb) in zip(chain[:-1], chain[1:]):
        step = wrap_to_pi(graph.Q[kb][mb] - graph.Q[ka][ma])
        qs.append(qs[-1] + step)
        cost += float(step @ step) / ((kb - ka) * graph.dlambda)
    K = graph.n_layers - 1
    return JointPath(
        lambdas=np.array(layer_idx, dtype=float) * graph.dlambda,
        layer_indices=layer_idx,
        vertex_indices=vert_idx,
        q=np.stack(qs),
        cost=cost,
        weight=weight,
        dlambda=graph.dlambda,
        total_length=K * graph.dlambda,
    )


def _first_disconnected_span(graph: PlanGraph):
    """Layers [a, b] where forward reachability from S first dies."""
    K = graph.n_layers - 1
    rows = reach(graph.edges, graph.depth,
                 _terminal_rows(graph.layer_counts, graph.s_edges, 0, K), 0, K)
    per_layer = [bool(rows[k].any()) for k in range(K + 1)]
    if all(per_layer):
        return (K, K)
    a = per_layer.index(False)
    b = a
    while b + 1 <= K and not per_layer[b + 1]:
        b += 1
    return (a, b)


def plan_path(robot: RobotModel, path: TaskPath, cfg: PlannerConfig | None = None,
              ik_cfg: IKConfig | None = None, threads: int = 1) -> PlanResult:
    """IK layers, graph, and shortest path in one call."""
    layers = build_layers(robot, path, ik_cfg, threads=threads)
    graph = build_plan_graph(layers, path, cfg, robot=robot)
    jp = shortest_joint_path(graph)
    span = None if jp is not None else _first_disconnected_span(graph)
    return PlanResult(path=jp, layer_counts=graph.layer_counts, graph=graph,
                      infeasible_span=span)


@dataclass
class RepeatabilityReport:
    """How the IK solutions of a closed path map to each other after one cycle."""
    connectivity: np.ndarray            # (M, M) bool, start m -> end l
    costs: np.ndarray                   # (M, M) optimal weights, inf if unreachable
    regular_solutions: list[int]        # fixed points m -> m
    cycles: list[list[int]]             # index cycles of period >= 2
    end_matching: list[int]             # layer-K vertex for each layer-0 vertex


def _match_end_layers(Q0: np.ndarray, QK: np.ndarray, tol: float = 1e-3) -> list[int]:
    if Q0.shape[0] != QK.shape[0]:
        raise ValueError(
            f"closed path endpoint layers differ in solution count "
            f"({Q0.shape[0]} vs {QK.shape[0]})")
    matching = []
    used = set()
    for m in range(Q0.shape[0]):
        d = np.max(np.abs(wrap_to_pi(QK - Q0[m][None, :])), axis=1)
        l = int(np.argmin(d))
        if d[l] > tol or l in used:
            raise ValueError("endpoint solution sets do not match one-to-one")
        used.add(l)
        matching.append(l)
    return matching


def _simple_cycles(adj: np.ndarray, cap: int = 10_000) -> list[list[int]]:
    """All simple cycles of length >= 2 in a small boolean digraph."""
    M = adj.shape[0]
    cycles = []
    for s in range(M):
        stack = [(s, (s,))]
        while stack and len(cycles) < cap:
            u, trail = stack.pop()
            for v in range(s, M):
                if not adj[u, v]:
                    continue
                if v == s:
                    if len(trail) >= 2:
                        cycles.append(list(trail))
                elif v not in trail:
                    stack.append((v, trail + (v,)))
    return cycles


def analyze_repeatability(robot: RobotModel, path: TaskPath,
                          cfg: PlannerConfig | None = None,
                          ik_cfg: IKConfig | None = None,
                          threads: int = 1) -> RepeatabilityReport:
    """Start-to-end connectivity of a closed path's IK solutions.

    Fixed points of the connectivity map are regular solutions; longer
    cycles are repeatable but non-regular; solutions on no cycle cannot be
    repeated indefinitely.
    """
    if not path.closed:
        raise ValueError("repeatability analysis requires a closed path")
    layers = build_layers(robot, path, ik_cfg, threads=threads)
    graph = build_plan_graph(layers, path, cfg, robot=robot)
    K = graph.n_layers - 1
    matching = _match_end_layers(graph.Q[0], graph.Q[K])
    M = graph.Q[0].shape[0]
    search = _Search(graph)
    costs = np.full((M, M), np.inf)
    for m in range(M):
        dist, _ = search.run({(0, m): 0.0})
        for l0 in range(M):
            costs[m, l0] = dist[K][matching[l0]]
    connectivity = np.isfinite(costs)
    regular = [m for m in range(M) if connectivity[m, m]]
    cycles = _simple_cycles(connectivity & ~np.eye(M, dtype=bool))
    return RepeatabilityReport(connectivity=connectivity, costs=costs,
                               regular_solutions=regular, cycles=cycles,
                               end_matching=matching)

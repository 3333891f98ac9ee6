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
        if self.eps0 is not None and not (np.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError("eps0 must be finite and positive")
        for name in ("manipulability_weight", "joint_limit_barrier"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        if self.skip_depth < 1:
            raise ValueError("skip_depth must be >= 1")

    def resolve_eps0(self, dof: int) -> float:
        if self.eps0 is not None:
            return self.eps0
        return dof * _DEFAULT_QDOT_MAX ** 2


def _step_cost(qa, qb, gap):
    """Squared wrap-aware joint step from qa to qb per unit lambda, over the
    last axis; the one price of joint motion behind edge weights and
    path_cost."""
    d = wrap_to_pi(qb - qa)
    return np.einsum("...j,...j->...", d, d) / gap


def path_cost(qs, lambdas) -> float:
    """Movement metric of a discrete joint path sampled at the given lambdas."""
    qs = np.asarray(qs, dtype=float)
    gaps = np.diff(np.asarray(lambdas, dtype=float))
    if np.any(gaps <= 0):
        raise ValueError("lambdas must be strictly increasing")
    return float(np.sum(_step_cost(qs[:-1], qs[1:], gaps)))


def build_layers(robot: RobotModel, path: TaskPath,
                 ik_cfg: IKConfig | None = None) -> list[IKSolutionSet]:
    """All IK solutions for every sample; approximate ones retained, flagged."""
    return solve_ik_along_path(robot, path.poses, ik_cfg)


@dataclass
class PlanGraph:
    """Layered DAG over IK solutions with start/finish pseudo-vertices.

    Every edge is a weight, inf where absent: one (M_k, M_k+d) matrix per
    admitted (layer, gap) pair, and per layer one (M_k,) vector for the
    edges S -> (k, m) and one for (k, m) -> F."""
    dlambda: float
    eps: float
    Q: list[np.ndarray]                 # (M_k, n) wrapped joint vectors
    det_j: list[np.ndarray]
    edges: dict                         # (k, d) -> dict(weight=(M_k, M_k+d))
    s_weight: list[np.ndarray]          # (M_k,) per layer
    f_weight: list[np.ndarray]          # (M_k,) per layer
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
        weights = [e["weight"] for e in self.edges.values()] + self.s_weight + self.f_weight
        return sum(int(np.isfinite(w).sum()) for w in weights)

    @property
    def depth(self) -> int:
        """Longest admitted edge, in layers."""
        return max((d for _, d in self.edges), default=1)


def incoming(edges, j: int, depth: int) -> list[tuple[int, int]]:
    """Keys (k, d) of the admitted edges into layer j no longer than depth,
    nearest layer first."""
    return [(j - d, d) for d in range(1, min(depth, j) + 1) if (j - d, d) in edges]


def reach(edges, depth: int, rows: dict, lo: int, hi: int, forward: bool = True) -> dict:
    """Min-plus relaxation along admitted edges inside layers [lo, hi].

    rows maps every layer k in [lo, hi] to an (M_k,) or (R, M_k) float
    array of seed weights, inf where not reached, and is relaxed in place
    and returned: forward, row r at layer j ends up holding the least weight
    of a route from row r's seeds to each vertex, summed in route order;
    backward, the least weight from each vertex to row r's seeds. np.isfinite
    of a row is its reachability. With one row per start solution, one call
    relaxes every start of a repeatability report at once.
    """
    heads = range(lo + 1, hi + 1) if forward else range(hi, lo, -1)
    for j in heads:
        for (k, d) in incoming(edges, j, min(depth, j - lo)):
            W = edges[(k, d)]["weight"]
            if forward:
                np.minimum(rows[j], (rows[k][..., :, None] + W).min(axis=-2), out=rows[j])
            else:
                np.minimum(rows[k], (W + rows[j][..., None, :]).min(axis=-1), out=rows[k])
    return rows


def _copies(weights, layers) -> dict:
    """Copies of per-layer weight vectors, for reach to relax."""
    return {k: weights[k].copy() for k in layers}


def _vertex_rows(counts, lo: int, hi: int) -> dict:
    """Rows for reach over [lo, hi], one per layer-lo vertex, seeded there."""
    rows = {j: np.full((counts[lo], counts[j]), np.inf) for j in range(lo + 1, hi + 1)}
    rows[lo] = np.where(np.eye(counts[lo], dtype=bool), 0.0, np.inf)
    return rows


def build_plan_graph(layers: list[IKSolutionSet], path: TaskPath, cfg: PlannerConfig | None = None,
                     robot: RobotModel | None = None) -> PlanGraph:
    """Weighted DAG over the layers.

    Pass 1 admits edges between consecutive layers whose metric stays below
    eps = dlambda * eps0; pass d admits skip edges over d-1 layers, at metric
    threshold eps on the d*dlambda gap, only between vertices not already
    connected inside that window (multi-pass rule, which also gates the
    start/finish skip connections): S joins layer 0 and, after pass d, the
    layer-(d-1) vertices it cannot reach; F likewise layer K and layer K-d+1.
    Vertex penalties (manipulability, joint-limit barrier, approximate-
    solution residual) ride on incoming edge and S weights so a path pays
    each visited vertex exactly once. When the robot declares joint limits,
    edges and terminals whose vertices leave them under greedy turn
    tracking are dropped.
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
        cost = _step_cost(Q[k][:, None], Q[k + d][None], d * path.dlambda)
        ok = cost < eps
        if cfg.nonsingular_only:
            ok &= (sign[k][:, None] * sign[k + d][None, :]) > 0
        if d > 1 and ok.any():
            ok &= ~np.isfinite(reach(edges, depth, _vertex_rows(counts, k, k + d), k, k + d)[k + d])
        if ok.any():
            edges[(k, d)] = {"weight": np.where(ok, cost + penalties[k + d][None, :], np.inf)}

    for k in range(K):
        admit(k, 1)
    s_weight = [penalties[0]] + [np.full(c, np.inf) for c in counts[1:]]
    f_weight = [np.full(c, np.inf) for c in counts[:K]] + [np.zeros(counts[K])]

    for d in range(2, depth + 1):
        for k in range(0, K - d + 1):
            admit(k, d)
        # start/finish skips mirror the interior pass: S reaches layer d-1,
        # F is reached from layer K-d+1, only for vertices not already wired
        j = d - 1
        if 1 <= j <= K - 1:
            from_s = reach(edges, depth, _copies(s_weight, range(j + 1)), 0, j)[j]
            s_weight[j] = np.where(np.isfinite(from_s), np.inf, penalties[j])
            jf = K - j
            to_f = reach(edges, depth, _copies(f_weight, range(jf, K + 1)), jf, K,
                         forward=False)[jf]
            f_weight[jf] = np.where(np.isfinite(to_f), np.inf, 0.0)

    unwrapped = None
    if robot is not None and robot.joint_limits is not None:
        unwrapped = _enforce_limits(Q, edges, s_weight, f_weight, depth, robot.joint_limits,
                                    cfg.joint_limit_barrier * path.dlambda)

    return PlanGraph(dlambda=path.dlambda, eps=eps, Q=Q, det_j=det_j,
                     edges=edges, s_weight=s_weight, f_weight=f_weight, unwrapped=unwrapped)


def _start_representative(q: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Per joint, the 2*pi shift of a wrapped start vertex that lies inside
    the limits, the one nearest q when several do; q itself where none does."""
    lo, hi = limits[:, 0], limits[:, 1]
    turns = np.clip(0.0, np.ceil((lo - q) / TWO_PI), np.floor((hi - q) / TWO_PI))
    shifted = q + TWO_PI * turns
    return np.where((turns != 0.0) & (shifted >= lo) & (shifted <= hi), shifted, q)


def _enforce_limits(Q, edges, s_weight, f_weight, depth: int, limits: np.ndarray,
                    barrier: float) -> list[np.ndarray]:
    """Turn tracking, joint-limit barrier (weight times dlambda) and limit
    drops in one head-major pass, in place; returns the tracked vectors.

    At layer j, each S-edge head takes its representative inside the limits
    (see _start_representative), every other vertex the unwrapped value
    nearest its first admitted predecessor (nearest layer first, then
    lowest vertex index; exact +/- pi steps take the positive branch). The
    barrier of j's vertices joins their incoming and S weights. Then edges
    into j go whose tail or head lies outside the limits or whose implied
    unwrap of the head disagrees with its value, and so do j's terminals
    outside the limits. Each step reads only layers up to j.
    """
    lo, hi = limits[:, 0], limits[:, 1]
    unwrapped = [q.copy() for q in Q]
    assigned = [np.isfinite(w) for w in s_weight]
    inside = []
    for j, u in enumerate(unwrapped):
        for m in np.flatnonzero(assigned[j]):
            u[m] = _start_representative(Q[j][m], limits)
        keys = incoming(edges, j, depth)
        # each tail's turn-tracked value plus the wrap-minimal step to each head
        implied = {k: unwrapped[k][:, None, :] + wrap_to_pi(Q[j][None, :, :] - Q[k][:, None, :])
                   for k, _ in keys}
        for (k, d) in keys:
            tracked_tail = np.isfinite(edges[(k, d)]["weight"]) & assigned[k][:, None]
            for m, l in zip(*np.nonzero(tracked_tail)):
                if not assigned[j][l]:
                    u[l] = implied[k][m, l]
                    assigned[j][l] = True
        bar = 0.0
        if barrier > 0.0:
            bar = barrier * np.sum(1.0 / np.maximum(u - lo, _BARRIER_MARGIN)
                                   + 1.0 / np.maximum(hi - u, _BARRIER_MARGIN), axis=1)
        inside.append(np.all((u >= lo) & (u <= hi), axis=1))
        for (k, d) in keys:
            off = np.max(np.abs(implied[k] - u), axis=2) > 1e-9
            edges[(k, d)]["weight"] += bar
            edges[(k, d)]["weight"][off | ~inside[k][:, None] | ~inside[j]] = np.inf
        s_weight[j] = np.where(inside[j], s_weight[j] + bar, np.inf)
        f_weight[j][~inside[j]] = np.inf
    return unwrapped


@dataclass
class JointPath:
    """Shortest continuous joint path through the graph.

    cost is path_cost(q, lambdas), the pure movement metric; weight
    additionally carries the soft penalties the search minimized. Entries
    sit at the layers the path visits (skip edges leave gaps).
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
    graph: PlanGraph
    infeasible_span: tuple[int, int] | None = None

    @property
    def feasible(self) -> bool:
        return self.path is not None

    @property
    def layer_counts(self) -> list[int]:
        return self.graph.layer_counts


def shortest_joint_path(graph: PlanGraph):
    """Minimum-weight S-to-F path, or None when F is unreachable.

    One forward relaxation from S gives every vertex its distance. Exact-
    cost ties resolve toward the lexicographically smallest (layer, vertex)
    sequence: an edge is tight when its tail's distance plus its weight
    equals its head's distance exactly, live vertices reach an optimal F
    edge over tight edges, and the path starts at the smallest live vertex
    whose S edge is tight, then takes the smallest live tight successor
    (nearest layer first, then lowest index) until its F edge is optimal.
    """
    K = graph.n_layers - 1
    depth = graph.depth
    dist = reach(graph.edges, depth, _copies(graph.s_weight, range(K + 1)), 0, K)
    best = min(np.min(dist[k] + f, initial=np.inf) for k, f in enumerate(graph.f_weight))
    if best == np.inf:
        return None
    tight = {}
    for (k, d), e in graph.edges.items():
        W = e["weight"]
        tight[(k, d)] = {"weight": np.where(dist[k][:, None] + W == dist[k + d], W, np.inf)}
    at_f = [dist[k] + f == best for k, f in enumerate(graph.f_weight)]
    live = reach(tight, depth, {k: np.where(a, 0.0, np.inf) for k, a in enumerate(at_f)}, 0, K,
                 forward=False)
    live = [np.isfinite(live[k]) for k in range(K + 1)]
    v = next((k, int(m)) for k in range(K + 1)
             for m in np.flatnonzero(live[k] & (graph.s_weight[k] == dist[k])))
    chain = [v]
    while not at_f[v[0]][v[1]]:
        k, m = v
        v = next((k + d, int(l)) for d in range(1, min(depth, K - k) + 1) if (k, d) in tight
                 for l in np.flatnonzero(np.isfinite(tight[(k, d)]["weight"][m]) & live[k + d]))
        chain.append(v)
    return _extract_path(graph, chain, float(best))


def _extract_path(graph: PlanGraph, chain, weight: float) -> JointPath:
    layer_idx = [k for k, _ in chain]
    vert_idx = [m for _, m in chain]
    # continuous unwrapped output: accumulate the wrap-minimal steps from
    # the first vertex, an S-edge head, starting from its turn-tracked
    # representative when the robot declares limits
    k0, m0 = chain[0]
    qs = [(graph.Q if graph.unwrapped is None else graph.unwrapped)[k0][m0].copy()]
    for (ka, ma), (kb, mb) in zip(chain[:-1], chain[1:]):
        qs.append(qs[-1] + wrap_to_pi(graph.Q[kb][mb] - graph.Q[ka][ma]))
    q = np.stack(qs)
    lambdas = np.array(layer_idx, dtype=float) * graph.dlambda
    K = graph.n_layers - 1
    return JointPath(
        lambdas=lambdas,
        layer_indices=layer_idx,
        vertex_indices=vert_idx,
        q=q,
        cost=path_cost(q, lambdas),
        weight=weight,
        dlambda=graph.dlambda,
        total_length=K * graph.dlambda,
    )


def _first_disconnected_span(graph: PlanGraph):
    """Layers [a, b] where forward reachability from S first dies."""
    K = graph.n_layers - 1
    rows = reach(graph.edges, graph.depth, _copies(graph.s_weight, range(K + 1)), 0, K)
    dead = [not np.isfinite(rows[k]).any() for k in range(K + 1)] + [False]
    a = b = dead.index(True) if True in dead else K
    while dead[b + 1]:
        b += 1
    return (a, b)


def plan_path(robot: RobotModel, path: TaskPath, cfg: PlannerConfig | None = None,
              ik_cfg: IKConfig | None = None) -> PlanResult:
    """IK layers, graph, and shortest path in one call."""
    layers = build_layers(robot, path, ik_cfg)
    graph = build_plan_graph(layers, path, cfg, robot=robot)
    jp = shortest_joint_path(graph)
    span = None if jp is not None else _first_disconnected_span(graph)
    return PlanResult(path=jp, graph=graph, infeasible_span=span)


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
                          ik_cfg: IKConfig | None = None) -> RepeatabilityReport:
    """Start-to-end connectivity of a closed path's IK solutions.

    Fixed points of the connectivity map are regular solutions; longer
    cycles are repeatable but non-regular; solutions on no cycle cannot be
    repeated indefinitely.
    """
    if not path.closed:
        raise ValueError("repeatability analysis requires a closed path")
    layers = build_layers(robot, path, ik_cfg)
    graph = build_plan_graph(layers, path, cfg, robot=robot)
    K = graph.n_layers - 1
    matching = _match_end_layers(graph.Q[0], graph.Q[K])
    M = graph.Q[0].shape[0]
    costs = reach(graph.edges, graph.depth, _vertex_rows(graph.layer_counts, 0, K), 0, K)[K]
    costs = costs[:, matching]
    connectivity = np.isfinite(costs)
    regular = [m for m in range(M) if connectivity[m, m]]
    cycles = _simple_cycles(connectivity & ~np.eye(M, dtype=bool))
    return RepeatabilityReport(connectivity=connectivity, costs=costs,
                               regular_solutions=regular, cycles=cycles,
                               end_matching=matching)

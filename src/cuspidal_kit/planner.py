"""Joint path planning over complete IK solution sets.

A discretized task-space path becomes a layered weighted DAG: one vertex
per IK solution per sample, plus start/finish pseudo-vertices joined to the
first and last sample. Edges join solutions of consecutive samples only,
when the squared wrap-aware joint step divided by the sample spacing stays
under a velocity-derived threshold. The optimal joint path is the shortest
S-to-F path, so it visits every sample.
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
    nonsingular_only: bool = False
    manipulability_weight: float = 0.0
    joint_limit_barrier: float = 0.0

    def __post_init__(self):
        if self.eps0 is not None and not (np.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError("eps0 must be finite and positive")
        for name in ("manipulability_weight", "joint_limit_barrier"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and >= 0")

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

    Every edge is a weight, inf where absent: one (M_k, M_k+1) matrix per
    pair of consecutive layers with an admitted edge, one (M_0,) vector for
    the edges S -> (0, m) and one (M_K,) vector for (K, m) -> F."""
    dlambda: float
    eps: float
    Q: list[np.ndarray]                 # (M_k, n) wrapped joint vectors
    det_j: list[np.ndarray]
    edges: dict                         # (k, 1) -> dict(weight=(M_k, M_k+1))
    s_weight: np.ndarray                # (M_0,)
    f_weight: np.ndarray                # (M_K,)
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
        weights = [e["weight"] for e in self.edges.values()] + [self.s_weight, self.f_weight]
        return sum(int(np.isfinite(w).sum()) for w in weights)


def reach(edges, rows: list, forward: bool = True) -> list:
    """Min-plus relaxation along admitted edges over every layer.

    rows holds for every layer k an (M_k,) or (R, M_k) float array of seed
    weights, inf where not reached, and is relaxed in place and returned:
    forward, row r at layer j ends up holding the least weight of a route
    from row r's seeds to each vertex, summed in route order; backward, the
    least weight from each vertex to row r's seeds. np.isfinite of a row is
    its reachability. With one row per start solution, one call relaxes
    every start of a repeatability report at once.
    """
    heads = range(1, len(rows)) if forward else range(len(rows) - 1, 0, -1)
    for j in heads:
        if (j - 1, 1) not in edges:
            continue
        W = edges[(j - 1, 1)]["weight"]
        if forward:
            np.minimum(rows[j], (rows[j - 1][..., :, None] + W).min(axis=-2), out=rows[j])
        else:
            np.minimum(rows[j - 1], (W + rows[j][..., None, :]).min(axis=-1), out=rows[j - 1])
    return rows


def _seeded(counts, k: int, seed) -> list:
    """Rows for reach, inf everywhere but layer k, which holds a copy of
    seed, (M_k,) or (R, M_k)."""
    seed = np.array(seed, dtype=float)
    rows = [np.full(seed.shape[:-1] + (c,), np.inf) for c in counts]
    rows[k] = seed
    return rows


def build_plan_graph(layers: list[IKSolutionSet], path: TaskPath, cfg: PlannerConfig | None = None,
                     robot: RobotModel | None = None) -> PlanGraph:
    """Weighted DAG over the layers.

    Edges join consecutive layers whose metric stays below
    eps = dlambda * eps0 (and, under nonsingular_only, whose determinant
    signs agree); S joins every layer-0 vertex and every layer-K vertex
    joins F. Vertex penalties (manipulability, joint-limit barrier,
    approximate-solution residual) ride on incoming edge and S weights so a
    path pays each visited vertex exactly once. When the robot declares
    joint limits, edges and terminals whose vertices leave them under
    greedy turn tracking are dropped.
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
    for k in range(K):
        cost = _step_cost(Q[k][:, None], Q[k + 1][None], path.dlambda)
        ok = cost < eps
        if cfg.nonsingular_only:
            ok &= (sign[k][:, None] * sign[k + 1][None, :]) > 0
        if ok.any():
            edges[(k, 1)] = {"weight": np.where(ok, cost + penalties[k + 1][None, :], np.inf)}
    s_weight = penalties[0]
    f_weight = np.zeros(Q[K].shape[0])

    unwrapped = None
    if robot is not None and robot.joint_limits is not None:
        unwrapped = _enforce_limits(Q, edges, s_weight, f_weight, robot.joint_limits,
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


def _enforce_limits(Q, edges, s_weight, f_weight, limits: np.ndarray,
                    barrier: float) -> list[np.ndarray]:
    """Turn tracking, joint-limit barrier (weight times dlambda) and limit
    drops in one layer-by-layer pass, in place; returns the tracked vectors.

    Each layer-0 vertex, an S-edge head, takes its representative inside
    the limits (see _start_representative). A vertex of layer j > 0 takes
    the unwrapped value nearest its lowest-index tracked predecessor (exact
    +/- pi steps take the positive branch), or keeps its wrapped value when
    it has none. The barrier of j's vertices joins their incoming weights,
    and at layer 0 their S weights. Then edges into j go whose tail or head
    lies outside the limits or whose implied unwrap of the head disagrees
    with its value, and so do terminals outside the limits. Each step reads
    only layers j-1 and j.
    """
    lo, hi = limits[:, 0], limits[:, 1]
    unwrapped = [_start_representative(Q[0], limits)] + [q.copy() for q in Q[1:]]
    tracked = np.ones(Q[0].shape[0], dtype=bool)
    inside = []
    for j, u in enumerate(unwrapped):
        e = edges.get((j - 1, 1))
        if e is not None:
            # each tail's turn-tracked value plus the wrap-minimal step to each head
            implied = unwrapped[j - 1][:, None, :] + wrap_to_pi(Q[j][None, :, :]
                                                                 - Q[j - 1][:, None, :])
            from_tracked = np.isfinite(e["weight"]) & tracked[:, None]
            tracked = from_tracked.any(axis=0)
            heads = np.flatnonzero(tracked)
            u[heads] = implied[from_tracked.argmax(axis=0)[heads], heads]
        elif j > 0:
            tracked = np.zeros(Q[j].shape[0], dtype=bool)
        bar = 0.0
        if barrier > 0.0:
            bar = barrier * np.sum(1.0 / np.maximum(u - lo, _BARRIER_MARGIN)
                                   + 1.0 / np.maximum(hi - u, _BARRIER_MARGIN), axis=1)
        inside.append(np.all((u >= lo) & (u <= hi), axis=1))
        if j == 0:
            s_weight += bar
            s_weight[~inside[0]] = np.inf
        if e is not None:
            off = np.max(np.abs(implied - u), axis=2) > 1e-9
            e["weight"] += bar
            e["weight"][off | ~inside[j - 1][:, None] | ~inside[j]] = np.inf
    f_weight[~inside[-1]] = np.inf
    return unwrapped


@dataclass
class JointPath:
    """Shortest continuous joint path through the graph.

    cost is path_cost(q, lambdas), the pure movement metric; weight
    additionally carries the soft penalties the search minimized. Entry k
    sits at layer k: a path visits every layer.
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
    cost ties resolve toward the lexicographically smallest vertex
    sequence: an edge is tight when its tail's distance plus its weight
    equals its head's distance exactly, live vertices reach an optimal F
    edge over tight edges, and the path starts at the smallest live layer-0
    vertex, then takes the smallest live tight successor in each layer.
    """
    counts = graph.layer_counts
    K = len(counts) - 1
    dist = reach(graph.edges, _seeded(counts, 0, graph.s_weight))
    best = np.min(dist[K] + graph.f_weight, initial=np.inf)
    if best == np.inf:
        return None
    tight = {}
    for (k, d), e in graph.edges.items():
        W = e["weight"]
        tight[(k, d)] = {"weight": np.where(dist[k][:, None] + W == dist[k + d], W, np.inf)}
    live = reach(tight, _seeded(counts, K, np.where(dist[K] + graph.f_weight == best,
                                                    0.0, np.inf)), forward=False)
    vertices = [int(np.flatnonzero(np.isfinite(live[0]))[0])]
    for k in range(K):
        step = tight[(k, 1)]["weight"][vertices[-1]]
        vertices.append(int(np.flatnonzero(np.isfinite(step) & np.isfinite(live[k + 1]))[0]))
    return _extract_path(graph, vertices, float(best))


def _extract_path(graph: PlanGraph, vertices: list[int], weight: float) -> JointPath:
    K = graph.n_layers - 1
    # continuous unwrapped output: accumulate the wrap-minimal steps from
    # the layer-0 vertex, starting from its turn-tracked representative
    # when the robot declares limits
    qs = [(graph.Q if graph.unwrapped is None else graph.unwrapped)[0][vertices[0]].copy()]
    for k in range(K):
        qs.append(qs[-1] + wrap_to_pi(graph.Q[k + 1][vertices[k + 1]] - graph.Q[k][vertices[k]]))
    q = np.stack(qs)
    layers = list(range(K + 1))
    lambdas = np.array(layers, dtype=float) * graph.dlambda
    return JointPath(
        lambdas=lambdas,
        layer_indices=layers,
        vertex_indices=vertices,
        q=q,
        cost=path_cost(q, lambdas),
        weight=weight,
        dlambda=graph.dlambda,
        total_length=K * graph.dlambda,
    )


def _first_disconnected_span(graph: PlanGraph):
    """Layers [a, K] from the first one that no route from S reaches: edges
    join consecutive layers only, so no later layer is reached either."""
    rows = reach(graph.edges, _seeded(graph.layer_counts, 0, graph.s_weight))
    K = len(rows) - 1
    return (next((k for k, r in enumerate(rows) if not np.isfinite(r).any()), K), K)


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
    costs = reach(graph.edges, _seeded(graph.layer_counts, 0,
                                       np.where(np.eye(M, dtype=bool), 0.0, np.inf)))[K]
    costs = costs[:, matching]
    connectivity = np.isfinite(costs)
    regular = [m for m in range(M) if connectivity[m, m]]
    cycles = _simple_cycles(connectivity & ~np.eye(M, dtype=bool))
    return RepeatabilityReport(connectivity=connectivity, costs=costs,
                               regular_solutions=regular, cycles=cycles,
                               end_matching=matching)

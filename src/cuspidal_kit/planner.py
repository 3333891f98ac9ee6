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
from functools import cached_property

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
    """Layered DAG over IK solutions with start/finish pseudo-vertices, on
    arrays padded to M = the path's largest layer count.

    Layer k's counts[k] vertices are rows 0..counts[k]-1 of Q[k] and
    det_j[k]; the rows past them are padding (zeros). Every edge is a
    weight, inf where absent and at every padding slot: weight[k] is the
    (M, M) matrix from layer k to layer k+1, s_weight the (M,) vector of
    edges S -> (0, m) and f_weight the (M,) vector of edges (K, m) -> F.
    edges is derived from weight, not stored: one read-only (M_k, M_k+1)
    view per pair of layers with an admitted edge.
    """
    dlambda: float
    eps: float
    counts: np.ndarray                  # (K+1,) vertices per layer
    Q: np.ndarray                       # (K+1, M, n) wrapped joint vectors
    det_j: np.ndarray                   # (K+1, M)
    weight: np.ndarray                  # (K, M, M)
    s_weight: np.ndarray                # (M,)
    f_weight: np.ndarray                # (M,)
    # (K+1, M, n) turn-tracked joint vectors when the robot declares joint limits
    unwrapped: np.ndarray | None = None

    @property
    def layer_counts(self) -> list[int]:
        return self.counts.tolist()

    @property
    def edge_count(self) -> int:
        return sum(int(np.isfinite(w).sum()) for w in (self.weight, self.s_weight, self.f_weight))

    @property
    def edges(self) -> dict:
        """{(k, 1): {"weight": (M_k, M_k+1) read-only view of weight[k]}} for
        every pair of consecutive layers with an admitted edge."""
        c, W = self.layer_counts, self.weight.view()
        W.flags.writeable = False
        return {(k, 1): {"weight": W[k, :c[k], :c[k + 1]]}
                for k in np.flatnonzero(np.isfinite(W).any(axis=(1, 2))).tolist()}

    @cached_property
    def dist(self) -> np.ndarray:
        """(K+1, M) least weight of a route from S to each vertex, inf where
        no route reaches it; relaxed once, on first use."""
        return reach(self.weight, self.s_weight)


def reach(weight: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Min-plus relaxation forward over every layer of a padded graph.

    seed is an (M,) or (R, M) array of layer-0 weights, inf where not
    seeded. Returns (K+1,) + seed.shape: row r at layer k holds the least
    weight of a route from row r's seeds to each vertex, summed in route
    order, inf where none. With one row per start solution, one call
    relaxes every start of a repeatability report at once.
    """
    rows = np.empty((len(weight) + 1,) + np.shape(seed))
    rows[0] = seed
    for k, W in enumerate(weight):
        rows[k + 1] = (rows[k][..., :, None] + W).min(axis=-2)
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
    sols = [s for layer in layers for s in layer.solutions]
    counts = np.array([len(layer.solutions) for layer in layers])
    dof = sols[0].q.shape[0] if sols else (robot.dof if robot is not None else 3)
    eps = path.dlambda * cfg.resolve_eps0(dof)
    valid = np.arange(max(counts.max(), 1)) < counts[:, None]      # (K+1, M)
    Q = np.zeros(valid.shape + (dof,))
    Q[valid] = np.reshape([s.q for s in sols], (-1, dof))
    det_j, pen = np.zeros(valid.shape), np.zeros(valid.shape)
    det_j[valid] = [s.det_j for s in sols]
    pen[valid] = [s.residual if s.approximate else 0.0 for s in sols]

    # vertex penalties
    pen = _APPROX_PENALTY * pen
    if cfg.manipulability_weight > 0.0:
        pen = pen + cfg.manipulability_weight * path.dlambda / np.maximum(np.abs(det_j), _MU_FLOOR)

    cost = _step_cost(Q[:-1, :, None], Q[1:, None], path.dlambda)      # (K, M, M)
    ok = (cost < eps) & valid[:-1, :, None] & valid[1:, None, :]
    if cfg.nonsingular_only:
        sign = np.sign(det_j)
        ok &= sign[:-1, :, None] * sign[1:, None, :] > 0
    weight = np.where(ok, cost + pen[1:, None, :], np.inf)
    s_weight = np.where(valid[0], pen[0], np.inf)
    f_weight = np.where(valid[K], 0.0, np.inf)

    unwrapped = None
    if robot is not None and robot.joint_limits is not None:
        unwrapped = _enforce_limits(Q, valid, weight, s_weight, f_weight, robot.joint_limits,
                                    cfg.joint_limit_barrier * path.dlambda)

    return PlanGraph(dlambda=path.dlambda, eps=eps, counts=counts, Q=Q, det_j=det_j,
                     weight=weight, s_weight=s_weight, f_weight=f_weight, unwrapped=unwrapped)


def _start_representative(q: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Per joint, the 2*pi shift of a wrapped start vertex that lies inside
    the limits, the one nearest q when several do; q itself where none does."""
    lo, hi = limits[:, 0], limits[:, 1]
    turns = np.clip(0.0, np.ceil((lo - q) / TWO_PI), np.floor((hi - q) / TWO_PI))
    shifted = q + TWO_PI * turns
    return np.where((turns != 0.0) & (shifted >= lo) & (shifted <= hi), shifted, q)


def _enforce_limits(Q, valid, weight, s_weight, f_weight, limits: np.ndarray,
                    barrier: float) -> np.ndarray:
    """Turn tracking, joint-limit barrier (weight times dlambda) and limit
    drops, in place on the padded weights; returns the tracked vectors.

    Each layer-0 vertex, an S-edge head, takes its representative inside
    the limits (see _start_representative). A vertex of layer j > 0 takes
    the unwrapped value nearest its lowest-index tracked predecessor (exact
    +/- pi steps take the positive branch), or keeps its wrapped value when
    it has none; that is the one pass over layers, each reading the one
    before it. Then, over all layers at once, the barrier of each vertex
    joins its incoming weights (at layer 0 its S weight), and edges go
    whose tail or head lies outside the limits or whose implied unwrap of
    the head disagrees with its value, and so do terminals outside them.
    """
    lo, hi = limits[:, 0], limits[:, 1]
    K = len(weight)
    # wrap-minimal step from each tail m of layer k to each head l of layer k+1
    step = wrap_to_pi(Q[1:, None, :, :] - Q[:-1, :, None, :])        # (K, M, M, n)
    admitted = np.isfinite(weight)
    tracked = np.empty_like(valid)
    tracked[0] = valid[0]
    for k in range(K):
        tracked[k + 1] = tracked[k] @ admitted[k]
    pred = (admitted & tracked[:-1, :, None]).argmax(axis=1)          # (K, M)
    hop = step[np.arange(K)[:, None], pred, np.arange(valid.shape[1])]
    u = Q.copy()
    u[0] = _start_representative(Q[0], limits)
    for k in range(K):
        u[k + 1] = u[k, pred[k]] + hop[k]
    u = np.where(tracked[..., None], u, Q)
    inside = np.all((u >= lo) & (u <= hi), axis=2)
    if barrier > 0.0:
        bar = barrier * np.sum(1.0 / np.maximum(u - lo, _BARRIER_MARGIN)
                               + 1.0 / np.maximum(hi - u, _BARRIER_MARGIN), axis=2)
        s_weight += bar[0]
        weight += bar[1:, None, :]
    off = np.max(np.abs(u[:-1, :, None] + step - u[1:, None]), axis=3) > 1e-9
    weight[off | ~inside[:-1, :, None] | ~inside[1:, None, :]] = np.inf
    s_weight[~inside[0]] = np.inf
    f_weight[~inside[K]] = np.inf
    return u


@dataclass
class JointPath:
    """Shortest continuous joint path through the graph.

    A path visits every layer once: entry k of lambdas, vertex_indices, q
    (unwrapped joint vectors) and det_j belongs to layer k. cost is
    path_cost(q, lambdas), the pure movement metric; weight additionally
    carries the soft penalties the search minimized.
    """
    lambdas: np.ndarray
    vertex_indices: list[int]
    q: np.ndarray
    det_j: np.ndarray
    cost: float
    weight: float

    @property
    def rms(self) -> float:
        return float(np.sqrt(self.cost / self.lambdas[-1]))


@dataclass
class PlanResult:
    path: JointPath | None
    graph: PlanGraph
    infeasible_span: tuple[int, int] | None = None

    @property
    def feasible(self) -> bool:
        return self.path is not None


def shortest_joint_path(graph: PlanGraph):
    """Minimum-weight S-to-F path, or None when F is unreachable.

    One forward relaxation from S gives every vertex its distance. Exact-
    cost ties resolve toward the lexicographically smallest vertex
    sequence: an edge is tight when its tail's distance plus its weight
    equals its head's distance exactly, live vertices reach an optimal F
    edge over tight edges, and the path starts at the smallest live layer-0
    vertex, then takes the smallest live tight successor in each layer.
    """
    dist = graph.dist
    K = len(graph.weight)
    last = dist[K] + graph.f_weight
    best = last.min()
    if best == np.inf:
        return None
    # an unreached head (inf) may look tight, but it is never live
    tight = dist[:-1, :, None] + graph.weight == dist[1:, None, :]     # (K, M, M)
    live = np.empty(dist.shape, dtype=bool)
    live[K] = last == best
    for k in range(K - 1, -1, -1):
        live[k] = tight[k] @ live[k + 1]
    successor = (tight & live[1:, None, :]).argmax(axis=2).tolist()   # (K, M)
    vertices = [int(live[0].argmax())]
    for row in successor:
        vertices.append(row[vertices[-1]])
    return _extract_path(graph, vertices, float(best))


def _extract_path(graph: PlanGraph, vertices: list[int], weight: float) -> JointPath:
    """The JointPath through vertices[k] of each layer k; det_j is read off
    the graph once, and q is continuous: the wrap-minimal steps accumulated
    from the layer-0 vertex, starting from its turn-tracked representative
    when the robot declares limits."""
    layers = np.arange(len(vertices))
    on_path = graph.Q[layers, vertices]
    start = (graph.Q if graph.unwrapped is None else graph.unwrapped)[0, vertices[0]]
    q = np.add.accumulate(np.concatenate([start[None], wrap_to_pi(np.diff(on_path, axis=0))]))
    lambdas = layers * graph.dlambda
    return JointPath(lambdas=lambdas, vertex_indices=vertices, q=q,
                     det_j=graph.det_j[layers, vertices],
                     cost=path_cost(q, lambdas), weight=weight)


def _first_disconnected_span(graph: PlanGraph):
    """Layers [a, K] from the first one that no route from S reaches, read
    off the search's forward distances: edges join consecutive layers
    only, so no later layer is reached either."""
    dead = np.flatnonzero(~np.isfinite(graph.dist).any(axis=1))
    K = len(graph.weight)
    return (int(dead[0]) if dead.size else K, K)


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
    """How the IK solutions of a closed path map to each other after one
    cycle. Solutions are numbered by layer 0; each layer-K vertex takes the
    number of the layer-0 solution it coincides with."""
    connectivity: np.ndarray            # (M, M) bool, start m -> end l
    costs: np.ndarray                   # (M, M) optimal weights, inf if unreachable
    regular_solutions: list[int]        # fixed points m -> m
    cycles: list[list[int]]             # index cycles of period >= 2


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
    M0, MK = graph.counts[[0, -1]]
    matching = _match_end_layers(graph.Q[0, :M0], graph.Q[-1, :MK])
    starts = np.full((M0, graph.Q.shape[1]), np.inf)
    starts[range(M0), range(M0)] = 0.0
    costs = reach(graph.weight, starts)[-1][:, matching]
    connectivity = np.isfinite(costs)
    regular = [m for m in range(M0) if connectivity[m, m]]
    cycles = _simple_cycles(connectivity & ~np.eye(M0, dtype=bool))
    return RepeatabilityReport(connectivity=connectivity, costs=costs,
                               regular_solutions=regular, cycles=cycles)

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
from .kinematics import TWO_PI, Pose, RobotModel, geodesic_distance, wrap_to_pi

# approximate IK solutions cost their residual times this factor, so exact
# routes win whenever one exists
_APPROX_PENALTY = 1e3
# per-joint default speed bound (rad per unit path parameter) behind eps0
_DEFAULT_QDOT_MAX = 4.0 * np.pi
# a repeatability report lists at most this many solution-change cycles
_MAX_CYCLES = 10_000


@dataclass(frozen=True)
class TaskPath:
    """Evenly sampled task-space path; sample k sits at lambda = k*dlambda.

    positions (K+1, 3) and rotations (K+1, 3, 3) are read-only copies of
    what the caller passed, validated once as whole arrays. poses derives
    one Pose per sample for callers that want them; a caller holding a
    Pose list builds the path with from_poses. Base-frame paths are
    planned directly; workpiece-frame toolpaths are placed in the base
    frame by the optimizer first. A closed path's last sample must lie
    within 1e-9 of its first and is stored as it.
    """
    positions: np.ndarray
    rotations: np.ndarray
    dlambda: float
    closed: bool = False

    def __post_init__(self):
        P = np.array(self.positions, dtype=float)
        R = np.array(self.rotations, dtype=float)
        if P.ndim != 2 or P.shape[1:] != (3,) or R.shape != P.shape[:1] + (3, 3):
            raise ValueError(f"positions must be (K+1, 3) and rotations (K+1, 3, 3), "
                             f"got {P.shape} and {R.shape}")
        if len(P) < 2:
            raise ValueError("a path needs at least two samples")
        if not (np.isfinite(self.dlambda) and self.dlambda > 0):
            raise ValueError("dlambda must be finite and positive")
        bad = ~(np.isfinite(P).all(axis=1) & np.isfinite(R).all(axis=(1, 2)))
        if bad.any():
            raise ValueError(f"path samples must be finite; sample {int(bad.argmax())} is not")
        if self.closed:
            gap = float(np.linalg.norm(P[0] - P[-1])) + geodesic_distance(R[0], R[-1])
            if gap > 1e-9:
                raise ValueError(f"closed path endpoints differ by {gap:.2e} > 1e-9")
            # so both ends share their IK solutions, numbered alike
            P[-1], R[-1] = P[0], R[0]
        for name, v in (("positions", P), ("rotations", R)):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @classmethod
    def from_poses(cls, poses, dlambda: float, closed: bool = False) -> "TaskPath":
        """The path through a sequence of Poses, stacked once."""
        poses = list(poses)
        return cls(np.reshape([p.position for p in poses], (-1, 3)),
                   np.reshape([p.rotation for p in poses], (-1, 3, 3)), dlambda, closed)

    @property
    def K(self) -> int:
        return len(self.positions) - 1

    @property
    def poses(self) -> list[Pose]:
        """One Pose per sample, viewing the path's arrays."""
        return [Pose(R, p) for R, p in zip(self.rotations, self.positions)]


@dataclass
class PlannerConfig:
    """Graph construction knobs.

    eps0 is the edge admission threshold per unit lambda; when None it
    defaults to ||qdot_max||^2 for a per-joint bound of 4*pi rad per unit
    lambda. Tuning it matters: too small disconnects genuinely continuous
    solutions, too large bridges distinct branches. nonsingular_only
    admits only edges whose determinant signs agree.
    """
    eps0: float | None = None
    nonsingular_only: bool = False

    def __post_init__(self):
        if self.eps0 is not None and not (np.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError("eps0 must be finite and positive")

    def resolve_eps0(self, dof: int) -> float:
        if self.eps0 is not None:
            return self.eps0
        return dof * _DEFAULT_QDOT_MAX ** 2


def _step_cost(step, gap):
    """Squared wrap-minimal joint step per unit lambda, over the last axis;
    the one price of joint motion behind edge weights and path_cost."""
    return np.einsum("...j,...j->...", step, step) / gap


def path_cost(qs, lambdas) -> float:
    """Movement metric of a discrete joint path sampled at the given lambdas."""
    qs = np.asarray(qs, dtype=float)
    gaps = np.diff(np.asarray(lambdas, dtype=float))
    if np.any(gaps <= 0):
        raise ValueError("lambdas must be strictly increasing")
    return float(np.sum(_step_cost(wrap_to_pi(qs[1:] - qs[:-1]), gaps)))


def build_layers(robot: RobotModel, path: TaskPath,
                 ik_cfg: IKConfig | None = None) -> list[IKSolutionSet]:
    """All IK solutions for every sample; approximate ones retained, flagged."""
    return solve_ik_along_path(robot, path, ik_cfg)


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
                     *, robot: RobotModel) -> PlanGraph:
    """Weighted DAG over the layers.

    Edges join consecutive layers whose metric stays below
    eps = dlambda * eps0 (and, under nonsingular_only, whose determinant
    signs agree); S joins every layer-0 vertex and every layer-K vertex
    joins F. An edge weighs its joint step cost plus the approximate-
    solution penalty of its head, and an S edge the penalty of its layer-0
    vertex, so a path pays each visited vertex exactly once. When the robot
    declares joint limits, edges and terminals whose vertices leave them
    under greedy turn tracking are dropped; finite weights stay as they are.
    """
    cfg = cfg or PlannerConfig()
    K = path.K
    if len(layers) != K + 1:
        raise ValueError("layer count must match path samples")
    sols = [s for layer in layers for s in layer.solutions]
    counts = np.array([len(layer.solutions) for layer in layers])
    dof = robot.dof
    eps = path.dlambda * cfg.resolve_eps0(dof)
    valid = np.arange(max(counts.max(), 1)) < counts[:, None]      # (K+1, M)
    Q = np.zeros(valid.shape + (dof,))
    Q[valid] = np.reshape([s.q for s in sols], (-1, dof))
    det_j, pen = np.zeros(valid.shape), np.zeros(valid.shape)
    det_j[valid] = [s.det_j for s in sols]
    pen[valid] = [s.residual if s.approximate else 0.0 for s in sols]
    pen = _APPROX_PENALTY * pen

    # wrap-minimal step from each tail m of layer k to each head l of layer k+1
    step = wrap_to_pi(Q[1:, None, :, :] - Q[:-1, :, None, :])        # (K, M, M, n)
    cost = _step_cost(step, path.dlambda)                              # (K, M, M)
    ok = (cost < eps) & valid[:-1, :, None] & valid[1:, None, :]
    if cfg.nonsingular_only:
        sign = np.sign(det_j)
        ok &= sign[:-1, :, None] * sign[1:, None, :] > 0
    weight = np.where(ok, cost + pen[1:, None, :], np.inf)
    s_weight = np.where(valid[0], pen[0], np.inf)
    f_weight = np.where(valid[K], 0.0, np.inf)

    unwrapped = None
    if robot.joint_limits is not None:
        unwrapped = _enforce_limits(Q, step, valid, weight, s_weight, f_weight,
                                    robot.joint_limits)

    return PlanGraph(dlambda=path.dlambda, eps=eps, counts=counts, Q=Q, det_j=det_j,
                     weight=weight, s_weight=s_weight, f_weight=f_weight, unwrapped=unwrapped)


def _start_representative(q: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Per joint, the 2*pi shift of a wrapped start vertex that lies inside
    the limits, the one nearest q when several do; q itself where none does."""
    lo, hi = limits[:, 0], limits[:, 1]
    turns = np.clip(0.0, np.ceil((lo - q) / TWO_PI), np.floor((hi - q) / TWO_PI))
    shifted = q + TWO_PI * turns
    return np.where((turns != 0.0) & (shifted >= lo) & (shifted <= hi), shifted, q)


def _enforce_limits(Q, step, valid, weight, s_weight, f_weight,
                    limits: np.ndarray) -> np.ndarray:
    """Turn tracking and limit drops, in place on the padded weights, which
    only ever become inf; returns the tracked vectors. step is the (K, M,
    M, n) wrap-minimal step from each tail of layer k to each head of k+1.

    Each layer-0 vertex, an S-edge head, takes its representative inside
    the limits (see _start_representative). A vertex of layer j > 0 takes
    the unwrapped value nearest its lowest-index tracked predecessor (exact
    +/- pi steps take the positive branch), or keeps its wrapped value when
    it has none; that is the one pass over layers, each reading the one
    before it. Then, over all layers at once, edges go whose tail or head
    lies outside the limits or whose implied unwrap of the head disagrees
    with its value, and so do terminals outside them.
    """
    lo, hi = limits[:, 0], limits[:, 1]
    K = len(weight)
    admitted = np.isfinite(weight)
    # vertices that some admitted route from layer 0 reaches
    tracked = np.isfinite(reach(np.where(admitted, 0.0, np.inf),
                                np.where(valid[0], 0.0, np.inf)))
    pred = (admitted & tracked[:-1, :, None]).argmax(axis=1)          # (K, M)
    hop = step[np.arange(K)[:, None], pred, np.arange(valid.shape[1])]
    u = Q.copy()
    u[0] = _start_representative(Q[0], limits)
    for k in range(K):
        u[k + 1] = u[k, pred[k]] + hop[k]
    u = np.where(tracked[..., None], u, Q)
    inside = np.all((u >= lo) & (u <= hi), axis=2)
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
    path_cost(q, lambdas), the pure movement metric; weight, the length
    the search minimized, adds the approximate-solution penalties of the
    visited vertices.
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


def plan_path(robot: RobotModel, path: TaskPath | list[TaskPath],
              cfg: PlannerConfig | None = None,
              ik_cfg: IKConfig | None = None) -> PlanResult | list[PlanResult]:
    """IK layers, graph, and shortest path in one call.

    path may also be a list of TaskPaths. Their samples are then solved in
    one build_layers call, as one IK population, and the PlanResult of
    each path comes back in a list. IK rows of different targets never
    interact, so each result is the one plan_path gives that path alone;
    what the batch saves is the IK's fixed cost per call.
    """
    paths = [path] if isinstance(path, TaskPath) else list(path)
    if len(paths) == 1:
        targets = paths[0]
    else:
        # the population's targets, not a path that is planned
        targets = TaskPath(np.concatenate([p.positions for p in paths]),
                           np.concatenate([p.rotations for p in paths]), paths[0].dlambda)
    layers = build_layers(robot, targets, ik_cfg)
    results, lo = [], 0
    for p in paths:
        graph = build_plan_graph(layers[lo:lo + p.K + 1], p, cfg, robot=robot)
        jp = shortest_joint_path(graph)
        span = None if jp is not None else _first_disconnected_span(graph)
        results.append(PlanResult(path=jp, graph=graph, infeasible_span=span))
        lo += p.K + 1
    return results[0] if isinstance(path, TaskPath) else results


@dataclass
class RepeatabilityReport:
    """How the IK solutions of a closed path map to each other after one
    cycle. A closed path's last sample is its first, so layers 0 and K hold
    the same solutions in the same order, and both are numbered alike."""
    connectivity: np.ndarray            # (M, M) bool, start m -> end l
    costs: np.ndarray                   # (M, M) optimal weights, inf if unreachable
    regular_solutions: list[int]        # fixed points m -> m
    cycles: list[list[int]]             # index cycles of period >= 2, the first _MAX_CYCLES
    cycles_truncated: bool              # more than _MAX_CYCLES cycles exist


def _simple_cycles(adj: np.ndarray, cap: int) -> list[list[int]]:
    """The simple cycles of length >= 2 in a small boolean digraph, the
    first cap of them."""
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
    M0 = graph.counts[0]
    starts = np.full((M0, graph.Q.shape[1]), np.inf)
    starts[range(M0), range(M0)] = 0.0
    costs = reach(graph.weight, starts)[-1][:, :M0]
    connectivity = np.isfinite(costs)
    regular = [m for m in range(M0) if connectivity[m, m]]
    # one past the cap tells whether the list is complete
    cycles = _simple_cycles(connectivity & ~np.eye(M0, dtype=bool), _MAX_CYCLES + 1)
    return RepeatabilityReport(connectivity=connectivity, costs=costs,
                               regular_solutions=regular, cycles=cycles[:_MAX_CYCLES],
                               cycles_truncated=len(cycles) > _MAX_CYCLES)

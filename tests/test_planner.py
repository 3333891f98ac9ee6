import numpy as np
import numpy.testing as nt
import pytest

from cuspidal_kit import planner
from cuspidal_kit.ik import IKConfig, IKSolution, IKSolutionSet
from cuspidal_kit.kinematics import (Pose, RobotModel, forward_kinematics, rot_about_axis,
                                     wrap_to_pi)
from cuspidal_kit.planner import (
    PlanGraph,
    PlannerConfig,
    TaskPath,
    analyze_repeatability,
    build_layers,
    build_plan_graph,
    path_cost,
    plan_path,
    shortest_joint_path,
    _first_disconnected_span,
    _start_representative,
)
from cuspidal_kit.scenarios import (
    THREE_PARALLEL_WITNESS,
    canonical_3r,
    control_loop_path,
    cusp_loop_path,
    infeasible_line_path,
    infeasible_line_control_path,
)

from conftest import eight_solution_loop
from oracles import brute_force_shortest, joint_limit_loop, layerwise_plan, single_pass_admission


def _sol(q, det=1.0, approx=False, residual=0.0):
    return IKSolution(q=np.asarray(q, dtype=float), residual=residual,
                      det_j=det, approximate=approx)


def _layers(qsets, dets=None, approxes=None):
    out = []
    for k, qs in enumerate(qsets):
        sols = []
        for i, q in enumerate(qs):
            det = dets[k][i] if dets else 1.0
            ap = approxes[k][i] if approxes else False
            sols.append(_sol(q, det, ap))
        out.append(IKSolutionSet(sols))
    return out


def _const_path(n, dlambda=0.1, closed=False):
    pose = Pose(np.eye(3), np.zeros(3))
    return TaskPath.from_poses([pose] * n, dlambda=dlambda, closed=closed)


@pytest.fixture(scope="module")
def r6_line(r6):
    # a line whose middle layers gain extra IK solutions
    qa, _ = THREE_PARALLEL_WITNESS
    base = forward_kinematics(r6, qa)
    d = np.array([0.0, 0.3, -0.2])
    K = 10
    poses = [Pose(base.rotation, base.position + d * k / K) for k in range(K + 1)]
    path = TaskPath.from_poses(poses, dlambda=float(np.linalg.norm(d)) / K)
    return path, build_layers(r6, path)


@pytest.fixture(scope="module")
def r6_line_plan(r6, r6_line):
    return plan_path(r6, r6_line[0])


class TestPlannerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"eps0": np.inf}, {"eps0": np.nan}, {"eps0": 0.0}, {"eps0": -1.0},
        {"manipulability_weight": np.nan}, {"manipulability_weight": np.inf},
        {"manipulability_weight": -0.1}, {"joint_limit_barrier": np.nan},
        {"joint_limit_barrier": np.inf}, {"joint_limit_barrier": -0.1}])
    def test_bad_values_rejected(self, kwargs):
        # edges are priced by joint motion and approximation only: the
        # config takes no penalty weights at all
        with pytest.raises(ValueError if "eps0" in kwargs else TypeError):
            PlannerConfig(**kwargs)


class TestEdgeCost:
    # one step of path_cost is the price of one graph edge
    def test_zero_for_same_point(self):
        assert path_cost([[1, 2, 3], [1, 2, 3]], [0.0, 0.5]) == 0.0

    def test_direct_formula(self):
        assert path_cost([[0, 0, 0], [0.1, 0, 0]], [0.0, 0.01]) == pytest.approx(1.0)

    def test_wrap_shortcut(self):
        c = path_cost([[0.1, 0, 0], [0.1 + 2 * np.pi - 0.2, 0, 0]], [0.0, 0.1])
        assert c == pytest.approx(0.04 / 0.1)

    def test_nonpositive_dlambda(self):
        for lambdas in ([0.0, 0.0], [0.5, 0.1], [0.0, 0.1, 0.1]):
            with pytest.raises(ValueError):
                path_cost([[0]] * len(lambdas), lambdas)


class TestBuildLayers:
    def test_constant_pose(self, r3):
        path = _const_path(6)
        pose = forward_kinematics(r3, np.array([0.3, -0.7, 1.1]))
        path = TaskPath.from_poses([pose] * 6, dlambda=0.1)
        layers = build_layers(r3, path)
        assert len(layers) == 6
        first = layers[0]
        for layer in layers[1:]:
            assert len(layer.solutions) == len(first.solutions)
            for a, b in zip(first.solutions, layer.solutions):
                nt.assert_array_equal(a.q, b.q)

    def test_6r_line_counts_vary(self, r6_line_plan):
        counts = r6_line_plan.graph.layer_counts
        # the closed form's counts, which the seed grid at 8 per joint found too
        assert counts == [6, 6, 6, 8, 8, 4, 4, 4, 4, 4, 4]
        assert min(counts) >= 2
        assert max(counts) > counts[0] or max(counts) > counts[-1]
        assert len(set(counts)) > 1

    def test_path_exiting_workspace(self, r3):
        poses = [Pose(np.eye(3), np.array([4.0 + 0.2 * k, 0.0, 0.0])) for k in range(6)]
        path = TaskPath.from_poses(poses, dlambda=0.2)
        layers = build_layers(r3, path)
        assert any(not l.solutions or all(s.approximate for s in l.solutions) for l in layers)


class TestBuildGraph:
    def test_single_chain(self, r3):
        layers = _layers([[np.zeros(3)], [np.full(3, 0.01)]])
        path = _const_path(2)
        g = build_plan_graph(layers, path, PlannerConfig(), robot=r3)
        jp = shortest_joint_path(g)
        assert jp is not None
        assert jp.vertex_indices == [0, 0]
        assert jp.cost == pytest.approx(3 * 0.01 ** 2 / 0.1)

    def test_nonsingular_gating(self, r3):
        layers = _layers([[np.zeros(3)], [np.full(3, 0.01)]], dets=[[1.0], [-1.0]])
        path = _const_path(2)
        g = build_plan_graph(layers, path, PlannerConfig(nonsingular_only=True), robot=r3)
        assert shortest_joint_path(g) is None
        g2 = build_plan_graph(layers, path, PlannerConfig(nonsingular_only=False), robot=r3)
        assert shortest_joint_path(g2) is not None

    def test_empty_layer_is_infeasible(self, r3):
        # no edge bridges a sample without solutions
        layers = _layers([[np.zeros(3)], [], [np.full(3, 0.02)]])
        g = build_plan_graph(layers, _const_path(3), PlannerConfig(), robot=r3)
        assert g.edges == {}
        assert shortest_joint_path(g) is None
        assert _first_disconnected_span(g) == (1, 2)

    def test_unreached_layer_1_vertex_is_no_start(self, r3):
        # layer 1's only vertex is too far from layer 0 (and so is layer 2's);
        # S joins layer 0 alone, so no plan starts past the first sample
        layers = _layers([[np.zeros(3)], [np.full(3, 2.0)], [np.full(3, 2.01)]])
        g = build_plan_graph(layers, _const_path(3), PlannerConfig(), robot=r3)
        assert list(g.edges) == [(1, 1)]
        assert shortest_joint_path(g) is None
        assert _first_disconnected_span(g) == (1, 2)
        assert g.s_weight.shape == (1,) and g.f_weight.shape == (1,)

    def test_nonsingular_plan_never_hops_a_sign_change(self, r3):
        # det signs +, -, +: each consecutive step crosses det J = 0, and no
        # edge from layer 0 to layer 2 passes over the middle sample
        layers = _layers([[np.zeros(3)], [np.full(3, 0.01)], [np.full(3, 0.02)]],
                         dets=[[1.0], [-1.0], [1.0]])
        g = build_plan_graph(layers, _const_path(3), PlannerConfig(nonsingular_only=True),
                             robot=r3)
        assert g.edges == {}
        assert shortest_joint_path(g) is None
        assert _first_disconnected_span(g) == (1, 2)
        free = shortest_joint_path(build_plan_graph(layers, _const_path(3), PlannerConfig(),
                                                    robot=r3))
        assert free.vertex_indices == [0, 0, 0]

    def test_robot_is_required(self):
        # the arm sets the dof and the joint limits; no default stands in
        # for it, so a graph never silently drops the arm's limits
        layers = _layers([[np.zeros(3)], [np.full(3, 0.01)]])
        with pytest.raises(TypeError):
            build_plan_graph(layers, _const_path(2), PlannerConfig())

    def test_admission_threshold(self, r3):
        # wrap distance beyond eps never gets an edge
        layers = _layers([[np.zeros(3)], [np.full(3, 3.0)]])
        path = _const_path(2, dlambda=0.001)
        g = build_plan_graph(layers, path, PlannerConfig(eps0=1.0), robot=r3)
        assert shortest_joint_path(g) is None

    def test_wrap_edge_crosses_the_chart(self, r3):
        # solutions hugging opposite ends of (-pi, pi] connect through the
        # wrap, and the extracted path stays continuous in the unwrapped
        # representation
        layers = _layers([[np.array([3.1, 0.0, 0.0])], [np.array([-3.1, 0.0, 0.0])]])
        path = _const_path(2, dlambda=0.1)
        g = build_plan_graph(layers, path, PlannerConfig(), robot=r3)
        jp = shortest_joint_path(g)
        assert jp is not None
        assert jp.cost == pytest.approx((2 * np.pi - 6.2) ** 2 / 0.1)
        assert jp.q[1, 0] == pytest.approx(3.1 + (2 * np.pi - 6.2))

    def test_6r_line_graph_structure(self, r6_line_plan):
        # the newborn mid-path branches are not all wired to the start side
        res = r6_line_plan
        assert res.feasible
        g = res.graph
        reached = [np.isfinite(g.s_weight)]
        for W in g.weight:
            reached.append(reached[-1] @ np.isfinite(W))
        assert any(not r[:c].all() for r, c in zip(reached, g.layer_counts))

    def test_joint_limit_enforcement(self, r3):
        pose = forward_kinematics(r3, np.array([0.3, -0.7, 1.1]))
        path = TaskPath.from_poses([pose] * 4, dlambda=0.1)
        layers = build_layers(r3, path)
        assert len(layers[0].solutions) == 2
        # limits that exclude the second solution's q3
        from cuspidal_kit.kinematics import RobotModel
        limited = RobotModel(axes=r3.axes, offsets=r3.offsets, tool_offset=r3.tool_offset,
                             joint_limits=[[-np.pi, np.pi], [-np.pi, np.pi], [0.0, 2.0]],
                             name="3r-limited")
        g = build_plan_graph(layers, path, robot=limited)
        jp = shortest_joint_path(g)
        assert jp is not None
        assert np.all(jp.q[:, 2] >= 0.0) and np.all(jp.q[:, 2] <= 2.0)


def _limited(robot, joint_limits):
    return RobotModel(axes=robot.axes, offsets=robot.offsets, tool_offset=robot.tool_offset,
                      joint_limits=joint_limits, name="3r-limited")


_FREE = [-np.pi, np.pi]
# joint limits per variant; the two "-barrier" ids date from when those
# sets also carried a joint-limit barrier weight, kept so test ids stay stable
_LIMIT_VARIANTS = {
    "none": None,
    "q3": [_FREE, _FREE, [-3.0, 0.5]],
    "wide-barrier": [[-3.2, 3.2]] * 3,
    "q1": [[-1.0, 2.5], _FREE, _FREE],
    "multi-turn-barrier": [[-7.0, 7.0], [-2.0, 1.0], _FREE],
    "q2-multi-turn": [_FREE, [0.0, 2 * np.pi], _FREE],
}


@pytest.fixture(scope="module")
def fixture_layers(r3):
    cfg = IKConfig(seeds_per_joint=6)
    paths = [infeasible_line_path(), infeasible_line_control_path(), cusp_loop_path(),
             control_loop_path()]
    return [(path, build_layers(r3, path, cfg)) for path in paths]


def _per_layer(graph, padded):
    """The (M_k, ...) rows of each layer of a padded (K+1, M, ...) array."""
    return [a[:c] for a, c in zip(padded, graph.layer_counts)]


def _assert_limits_match_loop(layers, path, cfg, robot):
    """The planner's turn tracking and drops equal, bit for bit, the
    vertex-by-vertex loop applied to the graph built without limits, and
    every weight the limits keep equals the one built without them."""
    fast = build_plan_graph(layers, path, cfg, robot=robot)
    ref = build_plan_graph(layers, path, cfg, robot=canonical_3r())
    # the limits only mask: every weight they keep is the unlimited one
    for w_fast, w_ref in ((fast.weight, ref.weight), (fast.s_weight, ref.s_weight),
                          (fast.f_weight, ref.f_weight)):
        kept = np.isfinite(w_fast)
        assert np.isfinite(w_ref[kept]).all()
        nt.assert_array_equal(w_fast[kept], w_ref[kept])
    ref_edges = {key: {"weight": e["weight"].copy()} for key, e in ref.edges.items()}
    s_weight, f_weight = ref.s_weight.copy(), ref.f_weight.copy()
    if robot.joint_limits is None:
        assert fast.unwrapped is None
    else:
        unwrapped = joint_limit_loop(_per_layer(ref, ref.Q), ref_edges, s_weight, f_weight,
                                     robot.joint_limits)
        for u_fast, u_ref in zip(_per_layer(fast, fast.unwrapped), unwrapped, strict=True):
            nt.assert_array_equal(u_fast, u_ref)
    fast_edges = fast.edges
    # a pair whose every edge the limits dropped keeps no view
    assert fast_edges.keys() <= ref_edges.keys()
    for key, e in ref_edges.items():
        W = fast_edges[key]["weight"] if key in fast_edges else np.full(e["weight"].shape, np.inf)
        nt.assert_array_equal(W, e["weight"])
    nt.assert_array_equal(fast.s_weight, s_weight)
    nt.assert_array_equal(fast.f_weight, f_weight)


class TestJointLimits:
    def test_start_representative(self):
        limits = np.array([[-1.0, 1.0], [0.0, 2 * np.pi], [-10.0, 10.0], [2.0, 16.0]])
        q = np.array([2.0, -0.55, 3.0, -3.0])
        # no shift fits q1, q3 fits unshifted, q4 fits +2, +4 and +6 pi
        nt.assert_array_equal(_start_representative(q, limits),
                              [2.0, -0.55 + 2 * np.pi, 3.0, -3.0 + 2 * np.pi])

    @pytest.mark.parametrize("q2_limits", [[0.0, 2 * np.pi], [-2 * np.pi, 0.0]])
    def test_multi_turn_limits_at_start(self, r3, q2_limits):
        # every solution's wrapped q2 is negative; [0, 2 pi] admits only its
        # 2 pi shift, which the start vertex must take
        pose = forward_kinematics(r3, np.array([0.3, -0.7, 1.1]))
        robot = _limited(r3, [_FREE, q2_limits, _FREE])
        result = plan_path(robot, TaskPath.from_poses([pose] * 4, dlambda=0.1),
                           ik_cfg=IKConfig(seeds_per_joint=8))
        assert result.feasible
        lo, hi = robot.joint_limits.T
        assert np.all((result.path.q >= lo) & (result.path.q <= hi))

    @pytest.mark.parametrize("nonsingular", [False, True])
    @pytest.mark.parametrize("variant", list(_LIMIT_VARIANTS))
    def test_drop_matches_edge_loop(self, r3, fixture_layers, variant, nonsingular):
        robot = _limited(r3, _LIMIT_VARIANTS[variant])
        cfg = PlannerConfig(nonsingular_only=nonsingular)
        for path, layers in fixture_layers:
            _assert_limits_match_loop(layers, path, cfg, robot)

    def test_limits_match_loop_on_random_graphs(self, r3):
        # dense layers give heads several tracked predecessors, so the
        # lowest-index rule decides their turn
        rng = np.random.default_rng(47)
        for _ in range(150):
            K = int(rng.integers(1, 10))
            layer_sets = [[rng.uniform(-np.pi, np.pi, 3) for _ in range(rng.integers(0, 6))]
                          for _ in range(K + 1)]
            approxes = [[bool(rng.random() < 0.15) for _ in qs] for qs in layer_sets]
            dl = float(rng.uniform(0.05, 0.5))
            lo = rng.uniform(-7.0, 0.0, 3)
            robot = _limited(r3, np.stack([lo, lo + rng.uniform(1.0, 12.0, 3)], axis=1))
            cfg = PlannerConfig(eps0=float(rng.uniform(5, 60)) / dl)
            _assert_limits_match_loop(_layers(layer_sets, approxes=approxes),
                                      _const_path(K + 1, dlambda=dl), cfg, robot)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_matches_layerwise(monkeypatch, layers, path, cfg=None, robot=canonical_3r()):
    """The padded planner gives, bit for bit, what the per-layer planner
    gives: the same edges, terminals, tracked vectors, path and span, and
    for a closed path the same repeatability costs."""
    g = build_plan_graph(layers, path, cfg, robot=robot)
    ref = layerwise_plan(layers, path, cfg, robot, closed_costs=path.closed)
    assert g.layer_counts == [len(q) for q in ref.Q]
    assert all(map(_same_bits, _per_layer(g, g.Q), ref.Q))
    assert all(map(_same_bits, _per_layer(g, g.det_j), ref.det_j))
    views = g.edges
    assert views.keys() <= ref.edges.keys()
    for key, e in ref.edges.items():
        W = views[key]["weight"] if key in views else np.full(e["weight"].shape, np.inf)
        assert _same_bits(W, e["weight"]), key
    M0, MK = g.layer_counts[0], g.layer_counts[-1]
    assert _same_bits(g.s_weight[:M0], ref.s_weight) and _same_bits(g.f_weight[:MK], ref.f_weight)
    assert (ref.unwrapped is None) == (g.unwrapped is None)
    if ref.unwrapped is not None:
        assert all(map(_same_bits, _per_layer(g, g.unwrapped), ref.unwrapped))
    jp = shortest_joint_path(g)
    assert (jp is None) == (ref.path is None)
    if jp is None:
        assert _first_disconnected_span(g) == ref.span
    else:
        assert jp.vertex_indices == ref.path.vertex_indices
        assert _same_bits(jp.q, ref.path.q)
        assert _same_bits(jp.det_j, [d[m] for d, m in zip(ref.det_j, jp.vertex_indices)])
        assert _same_bits(jp.cost, ref.path.cost) and _same_bits(jp.weight, ref.path.weight)
    if path.closed:
        monkeypatch.setattr(planner, "build_layers", lambda *args, **kwargs: layers)
        rep = analyze_repeatability(robot, path, cfg)
        assert _same_bits(rep.costs, ref.costs)


def _random_plan_input(rng):
    """Ragged random layers (0 to 8 solutions, none empty in about half of
    the draws; some approximate, random det signs), a planner config, and
    joint limits for about half of them."""
    K = int(rng.integers(1, 12))
    fewest = int(rng.integers(0, 2))
    layer_sets = [[rng.uniform(-np.pi, np.pi, 3) for _ in range(rng.integers(fewest, 9))]
                  for _ in range(K + 1)]
    dets = [[float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1e-3, 2.0)) for _ in qs]
            for qs in layer_sets]
    approxes = [[bool(rng.random() < 0.15) for _ in qs] for qs in layer_sets]
    dl = float(rng.uniform(0.05, 0.5))
    cfg = PlannerConfig(eps0=float(rng.uniform(10, 400)) / dl,
                        nonsingular_only=bool(rng.random() < 0.5))
    limits = None
    if rng.random() < 0.5:
        lo = rng.uniform(-7.0, 0.0, 3)
        limits = np.stack([lo, lo + rng.uniform(1.0, 12.0, 3)], axis=1)
    layers = [IKSolutionSet([_sol(q, d, a, residual=float(rng.uniform(0, 1e-3)) if a else 0.0)
                             for q, d, a in zip(qs, ds, aps)])
              for qs, ds, aps in zip(layer_sets, dets, approxes)]
    return layers, _const_path(K + 1, dlambda=dl), cfg, limits


class TestPaddedMatchesLayerwise:
    @pytest.mark.parametrize("nonsingular", [False, True])
    @pytest.mark.parametrize("variant", list(_LIMIT_VARIANTS))
    def test_fixtures(self, r3, fixture_layers, monkeypatch, variant, nonsingular):
        cfg = PlannerConfig(nonsingular_only=nonsingular)
        for path, layers in fixture_layers:
            _assert_matches_layerwise(monkeypatch, layers, path, cfg,
                                      _limited(r3, _LIMIT_VARIANTS[variant]))

    def test_control_segment(self, r3, monkeypatch):
        path = infeasible_line_control_path(500)
        layers = build_layers(r3, path, IKConfig(seeds_per_joint=6))
        _assert_matches_layerwise(monkeypatch, layers, path)

    def test_6r_ragged_line(self, r6, r6_line, monkeypatch):
        path, layers = r6_line
        _assert_matches_layerwise(monkeypatch, layers, path, robot=r6)

    def test_random_ragged_graphs(self, r3, monkeypatch):
        rng = np.random.default_rng(50)
        for _ in range(200):
            layers, path, cfg, limits = _random_plan_input(rng)
            _assert_matches_layerwise(monkeypatch, layers, path, cfg, _limited(r3, limits))

    def test_padding_is_never_admitted_or_visited(self, r3):
        rng = np.random.default_rng(51)
        for _ in range(100):
            layers, path, cfg, limits = _random_plan_input(rng)
            g = build_plan_graph(layers, path, cfg, robot=_limited(r3, limits))
            pad = np.arange(g.Q.shape[1]) >= g.counts[:, None]
            assert np.isinf(g.s_weight[pad[0]]).all() and np.isinf(g.f_weight[pad[-1]]).all()
            assert np.isinf(g.weight[pad[:-1]]).all()
            assert np.isinf(g.weight.transpose(0, 2, 1)[pad[1:]]).all()
            jp = shortest_joint_path(g)
            if jp is not None:
                assert all(v < c for v, c in zip(jp.vertex_indices, g.layer_counts))


def _tie_heavy_graph(rng, closed=False) -> PlanGraph:
    """A random padded plan graph with weights in {0, 1, 2}: empty layers,
    edges between consecutive layers, S/F edges at the end layers. closed
    makes the last layer a copy of a nonempty first one."""
    K = int(rng.integers(1, 9))
    counts = [int(rng.integers(0, 5)) for _ in range(K + 1)]
    if closed:
        counts[0] = counts[K] = max(counts[0], 1)
    M = max(max(counts), 1)
    valid = np.arange(M) < np.array(counts)[:, None]
    Q = np.where(valid[..., None], rng.uniform(-np.pi, np.pi, (K + 1, M, 3)), 0.0)
    if closed:
        Q[K] = Q[0]

    def weights(shape, p, mask):
        W = np.where(rng.random(shape) < p, rng.integers(0, 3, shape).astype(float), np.inf)
        return np.where(mask, W, np.inf)

    return PlanGraph(dlambda=0.1, eps=1.0, counts=np.array(counts), Q=Q,
                     det_j=valid.astype(float),
                     weight=weights((K, M, M), 0.7, valid[:-1, :, None] & valid[1:, None, :]),
                     s_weight=weights(M, 0.8, valid[0]), f_weight=weights(M, 0.8, valid[K]))


def _assert_matches_oracle(g: PlanGraph):
    """The planner's path has the optimal weight and is the lexicographically
    smallest optimal (layer, vertex) sequence, with Python int indices, and
    visits every layer."""
    weight, route = brute_force_shortest(g)
    jp = shortest_joint_path(g)
    if route is None:
        assert jp is None and np.isinf(weight)
        return
    assert jp.weight == weight
    assert list(enumerate(jp.vertex_indices)) == list(route)
    assert len(route) == len(g.counts)
    assert all(type(i) is int for i in jp.vertex_indices)


class TestShortestPath:
    def test_matches_brute_force_on_random_instances(self, r3):
        rng = np.random.default_rng(42)
        for _ in range(100):
            K = int(rng.integers(2, 10))
            layer_sets = [[rng.uniform(-np.pi, np.pi, 3) for _ in range(rng.integers(1, 8))]
                          for _ in range(K + 1)]
            dets = [[float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.1, 2.0))
                     for _ in qs] for qs in layer_sets]
            approxes = [[bool(rng.random() < 0.15) for _ in qs] for qs in layer_sets]
            layers = _layers(layer_sets, dets, approxes)
            dl = float(rng.uniform(0.05, 0.5))
            path = _const_path(K + 1, dlambda=dl)
            cfg = PlannerConfig(eps0=float(rng.uniform(5, 60)) / dl,
                                nonsingular_only=bool(rng.random() < 0.5))
            g = build_plan_graph(layers, path, cfg, robot=r3)
            _assert_matches_oracle(g)

    def test_tie_rule_on_tie_heavy_graphs(self):
        # weights in {0, 1, 2} add up exactly, so many graphs have several
        # optimal routes and only the tie rule picks the returned one
        rng = np.random.default_rng(48)
        for _ in range(500):
            _assert_matches_oracle(_tie_heavy_graph(rng))

    def test_wrap_translation_invariance(self, r3):
        rng = np.random.default_rng(43)
        layer_sets = [[rng.uniform(-np.pi, np.pi, 3) for _ in range(3)] for _ in range(5)]
        path = _const_path(5, dlambda=0.2)
        cfg = PlannerConfig(eps0=200.0)
        a = shortest_joint_path(build_plan_graph(_layers(layer_sets), path, cfg, robot=r3))
        shifted = [list(qs) for qs in layer_sets]
        shifted[2] = [q + np.array([2 * np.pi, 0, 0]) for q in shifted[2]]
        b = shortest_joint_path(build_plan_graph(_layers(shifted), path, cfg, robot=r3))
        assert (a is None) == (b is None)
        if a is not None:
            assert a.cost == pytest.approx(b.cost, abs=1e-12)


def _terminals(k: int, weights) -> set:
    return {(k, int(m)) for m in np.flatnonzero(np.isfinite(weights))}


class TestAdmissionOracle:
    def test_matches_dfs_oracle_on_random_instances(self, r3):
        rng = np.random.default_rng(45)
        for _ in range(300):
            K = int(rng.integers(1, 10))
            layer_sets = [[rng.uniform(-np.pi, np.pi, 3) for _ in range(rng.integers(0, 6))]
                          for _ in range(K + 1)]
            dets = [[float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.1, 2.0))
                     for _ in qs] for qs in layer_sets]
            approxes = [[bool(rng.random() < 0.15) for _ in qs] for qs in layer_sets]
            dl = float(rng.uniform(0.05, 0.5))
            cfg = PlannerConfig(eps0=float(rng.uniform(5, 60)) / dl,
                                nonsingular_only=bool(rng.random() < 0.5))
            g = build_plan_graph(_layers(layer_sets, dets, approxes),
                                 _const_path(K + 1, dlambda=dl), cfg, robot=r3)
            edges, s, f, span = single_pass_admission(
                layer_sets, dets, dl, g.eps, cfg.nonsingular_only)
            admitted = {(k, d, int(m), int(l)) for (k, d), e in g.edges.items()
                        for m, l in np.argwhere(np.isfinite(e["weight"]))}
            assert admitted == edges
            assert _terminals(0, g.s_weight) == s
            assert _terminals(K, g.f_weight) == f
            assert _first_disconnected_span(g) == span
            jp = shortest_joint_path(g)
            if jp is not None:
                assert len(jp.vertex_indices) == K + 1


class TestPlanPath:
    def test_constant_pose(self, r3):
        pose = forward_kinematics(r3, np.array([0.3, -0.7, 1.1]))
        res = plan_path(r3, TaskPath.from_poses([pose] * 6, dlambda=0.1))
        assert res.feasible
        assert res.path.cost == 0.0
        nt.assert_allclose(np.diff(res.path.q, axis=0), 0.0, atol=1e-12)

    def test_cost_consistency(self, r3):
        poses = [Pose(np.eye(3), np.array([3.0, 0.0, -0.5 + k / 40])) for k in range(21)]
        res = plan_path(r3, TaskPath.from_poses(poses, dlambda=0.025))
        jp = res.path
        recomputed = sum(
            float(wrap_to_pi(jp.q[i + 1] - jp.q[i]) @ wrap_to_pi(jp.q[i + 1] - jp.q[i]))
            / 0.025 for i in range(20))
        assert jp.cost == pytest.approx(recomputed, abs=1e-12)
        # the rms is over the path's length, K * dlambda, bit for bit
        assert jp.rms == np.sqrt(jp.cost / (20 * 0.025))

    @pytest.mark.parametrize("fixture", [infeasible_line_control_path, cusp_loop_path,
                                         control_loop_path])
    def test_cost_is_path_cost(self, r3, fixture):
        # the reported cost is the public metric of the reported joint path
        res = plan_path(r3, fixture(), ik_cfg=IKConfig(seeds_per_joint=6))
        assert res.feasible
        assert res.path.cost == path_cost(res.path.q, res.path.lambdas)

    def test_infeasible_fixture(self, r3):
        res = plan_path(r3, infeasible_line_path(81), ik_cfg=IKConfig(seeds_per_joint=10))
        assert not res.feasible
        assert min(res.graph.layer_counts) > 0
        assert res.infeasible_span is not None

    def test_list_of_paths_equals_each_path_alone(self, r3, monkeypatch):
        # paths of different lengths, open and closed, feasible and not
        paths = [infeasible_line_control_path(41), cusp_loop_path(61),
                 infeasible_line_path(81), control_loop_path(21)]
        ik = IKConfig(seeds_per_joint=6)
        builds = []
        build = planner.build_layers
        monkeypatch.setattr(planner, "build_layers", lambda *a: builds.append(1) or build(*a))
        batch = plan_path(r3, paths, ik_cfg=ik)
        assert len(builds) == 1 and len(batch) == len(paths)
        for path, res in zip(paths, batch):
            alone = plan_path(r3, path, ik_cfg=ik)
            assert res.feasible == alone.feasible
            assert res.infeasible_span == alone.infeasible_span
            assert res.graph.Q.tobytes() == alone.graph.Q.tobytes()
            assert res.graph.weight.tobytes() == alone.graph.weight.tobytes()
            if alone.feasible:
                assert res.path.weight == alone.path.weight
                assert res.path.vertex_indices == alone.path.vertex_indices
                assert res.path.q.tobytes() == alone.path.q.tobytes()
        assert [p.feasible for p in batch] == [True, True, False, True]

    def test_span_reuses_the_search_distances(self, r3, monkeypatch):
        # the span is read off the forward distances the search relaxed
        layers = _layers([[np.zeros(3)], [np.full(3, 2.0)], [np.full(3, 2.01)]])
        calls = []
        relax = planner.reach
        monkeypatch.setattr(planner, "reach", lambda *args: calls.append(1) or relax(*args))
        monkeypatch.setattr(planner, "build_layers", lambda *args, **kwargs: layers)
        res = plan_path(r3, _const_path(3))
        assert res.infeasible_span == (1, 2) and len(calls) == 1

    def test_control_fixture_feasible(self, r3):
        res = plan_path(r3, infeasible_line_control_path(81),
                        ik_cfg=IKConfig(seeds_per_joint=10))
        assert res.feasible

    def test_nonsingular_gating_constant_sign(self, r3):
        poses = [Pose(np.eye(3), np.array([3.0, 0.0, -0.5 + k / 40])) for k in range(21)]
        res = plan_path(r3, TaskPath.from_poses(poses, dlambda=0.025),
                        PlannerConfig(nonsingular_only=True))
        assert res.feasible
        g = res.graph
        nt.assert_array_equal(res.path.det_j,
                              [g.det_j[k][m] for k, m in enumerate(res.path.vertex_indices)])
        assert len(set(np.sign(res.path.det_j))) == 1

    def test_metric_convergence_under_refinement(self, r3):
        costs = {}
        for K in (100, 200):
            poses = [Pose(np.eye(3), np.array([3.0, 0.0, -0.5 + k / K])) for k in range(K + 1)]
            res = plan_path(r3, TaskPath.from_poses(poses, dlambda=1.0 / K),
                            ik_cfg=IKConfig(seeds_per_joint=10))
            costs[K] = res.path.cost
        assert abs(costs[200] - costs[100]) / costs[100] < 0.01


class TestRepeatability:
    def test_constant_closed_path(self, r3):
        pose = forward_kinematics(r3, np.array([0.3, -0.7, 1.1]))
        rep = analyze_repeatability(r3, TaskPath.from_poses([pose] * 5, dlambda=0.1, closed=True))
        assert rep.regular_solutions == list(range(rep.connectivity.shape[0]))

    def test_cusp_loop_nonrepeatable_change(self, r3):
        rep = analyze_repeatability(r3, cusp_loop_path(151),
                                    PlannerConfig(nonsingular_only=True),
                                    IKConfig(seeds_per_joint=10))
        M = rep.connectivity.shape[0]
        changes = [(m, l) for m in range(M) for l in range(M)
                   if m != l and rep.connectivity[m, l]]
        assert changes
        on_cycle = {v for cycle in rep.cycles for v in cycle}
        assert any(m not in on_cycle and not rep.connectivity[l, m] for m, l in changes)

    def test_control_loop_all_regular(self, r3):
        rep = analyze_repeatability(r3, control_loop_path(151),
                                    PlannerConfig(nonsingular_only=True),
                                    IKConfig(seeds_per_joint=10))
        assert rep.connectivity.shape == (2, 2)
        assert rep.regular_solutions == [0, 1]
        assert not rep.cycles_truncated

    def test_truncated_cycle_list_is_flagged(self, r6):
        # at eps0 1e9 each of the 8 solutions reaches every other, and the
        # complete digraph on 8 vertices has sum_k C(8, k) (k-1)! = 16064
        # cycles of length >= 2
        rep = analyze_repeatability(r6, eight_solution_loop(), PlannerConfig(eps0=1e9))
        assert rep.connectivity.shape == (8, 8) and rep.connectivity.all()
        every = planner._simple_cycles(~np.eye(8, dtype=bool), 10**6)
        assert len(every) == 16064
        assert rep.cycles_truncated
        assert rep.cycles == every[:planner._MAX_CYCLES] and len(rep.cycles) == 10_000

    def test_costs_match_oracle_from_each_start(self, monkeypatch):
        # every start solution's distances to the last layer, against the
        # exhaustive search started from that solution alone
        rng = np.random.default_rng(49)
        monkeypatch.setattr(planner, "build_layers", lambda *args, **kwargs: None)
        for _ in range(150):
            g = _tie_heavy_graph(rng, closed=True)
            monkeypatch.setattr(planner, "build_plan_graph", lambda *args, **kwargs: g)
            rep = analyze_repeatability(None, _const_path(len(g.counts), closed=True))
            counts = g.layer_counts
            K = len(counts) - 1

            def one_hot(k, m):
                return np.where(np.arange(counts[k]) == m, 0.0, np.inf)

            expected = [[brute_force_shortest(g, one_hot(0, m), one_hot(K, l))[0]
                         for l in range(counts[K])] for m in range(counts[0])]
            nt.assert_array_equal(rep.costs, expected)
            nt.assert_array_equal(rep.connectivity, np.isfinite(expected))

    def test_requires_closed_path(self, r3):
        pose = forward_kinematics(r3, np.array([0.3, -0.7, 1.1]))
        with pytest.raises(ValueError):
            analyze_repeatability(r3, TaskPath.from_poses([pose] * 4, dlambda=0.1, closed=False))


class TestTaskPath:
    def test_closed_mismatch_rejected(self, r3):
        a = Pose(np.eye(3), np.zeros(3))
        b = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        with pytest.raises(ValueError):
            TaskPath.from_poses([a, b], dlambda=0.1, closed=True)

    def test_closed_end_is_stored_as_start(self):
        # 3e-10 in position plus 2e-10 of rotation: within the 1e-9 gap
        start = Pose(rot_about_axis([0.3, -0.5, 0.8], 0.7), np.array([1.5, 0.2, -0.4]))
        end = Pose(rot_about_axis([0.0, 0.0, 1.0], 2e-10) @ start.rotation,
                   start.position + [3e-10, 0.0, 0.0])
        mid = Pose(np.eye(3), np.array([1.6, 0.2, -0.4]))
        path = TaskPath.from_poses([start, mid, end], dlambda=0.1, closed=True)
        assert not np.array_equal(end.position, start.position)
        assert not np.array_equal(end.rotation, start.rotation)
        for stored, given in ((path.positions, start.position), (path.rotations, start.rotation)):
            assert stored[0].tobytes() == stored[-1].tobytes() == given.tobytes()

    def test_too_short(self):
        with pytest.raises(ValueError):
            TaskPath.from_poses([Pose(np.eye(3), np.zeros(3))], dlambda=0.1)

    def test_path_cost_helper(self):
        qs = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.1, 0.2, 0]])
        lam = np.array([0.0, 0.1, 0.2])
        expected = 0.1 ** 2 / 0.1 + 0.2 ** 2 / 0.1
        assert path_cost(qs, lam) == pytest.approx(expected)

    @pytest.mark.parametrize("dlambda,position", [(np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan)])
    def test_non_finite_rejected(self, dlambda, position):
        poses = [Pose(np.eye(3), np.zeros(3)), Pose(np.eye(3), np.array([position, 0.0, 0.0]))]
        with pytest.raises(ValueError):
            TaskPath.from_poses(poses, dlambda=dlambda)

"""The names and shapes the benchmark's tracer reads from the package.

perfbench/tracing.py replaces module attributes (its BOUNDARIES) by timing
wrappers and reads counts off their arguments and results:
IKSolutionSet.solutions, PlanGraph.edges[(k, d)]["weight"] (d is always 1:
edges join consecutive layers only; the planner keeps one padded weight
array, and edges is a view of it that nothing in the package reads),
layer_counts and edge_count. A rename there breaks the benchmark without
failing any other test here, so this runs the tracer on three tiny CLI
calls and on one plan whose graph counts it checks. The IK
must also reach the kernel through ik.fk_jacobian_batch, the name the
tracer wraps, or the kernel rows read 0.
"""

import sys
from pathlib import Path

import numpy as np

from cuspidal_kit import cli, fileio, planner
from cuspidal_kit.ik import IKConfig
from cuspidal_kit.kinematics import forward_kinematics
from cuspidal_kit.scenarios import canonical_3r, infeasible_line_control_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_boundaries_resolve():
    for mod, attr, _, _ in tracing.BOUNDARIES:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"


def test_traced_commands_fill_every_layer_metric(tmp_path, capsys):
    pose = forward_kinematics(canonical_3r(), np.array([0.3, -0.7, 1.1]))
    loop, helix = tmp_path / "loop.json", tmp_path / "helix.json"
    fileio.save_json(fileio.path_to_doc([pose] * 3, 0.1, "base", True,
                                        with_orientation=False), loop)
    fileio.save_json(fileio.generate_helix(samples=12), helix)
    tracer = tracing.Tracer()
    with tracer.patched():
        codes = [
            cli.main(["plan", "--robot", "3r-canonical", "--path", str(loop),
                      "--ik-seeds", "4"]),
            cli.main(["identify", "--robot", "3r-canonical", "--max-poses", "1",
                      "--ik-seeds", "4", "--samples", "20"]),
            cli.main(["optimize", "--robot", "3r-canonical", "--toolpath", str(helix),
                      "--max-evals", "6", "--ik-seeds", "3"]),
        ]
    capsys.readouterr()
    assert codes[0] == 0 and codes[1] in (0, 3) and codes[2] == 0
    metrics = tracing.layer_metrics(tracer.spans)
    expected = {name for name, _ in tracing.PER_LAYER} - {"trace.overhead_share"}
    assert set(metrics) == expected
    assert metrics["planner.vertices"] > 0
    assert metrics["ik.exact_solutions"] > 0
    assert metrics["kinematics.fkjac_rows"] > 0


def test_graph_counts_match_the_graph():
    tracer = tracing.Tracer()
    with tracer.patched():
        result = planner.plan_path(canonical_3r(), infeasible_line_control_path(41),
                                   ik_cfg=IKConfig(seeds_per_joint=6))
    (rec,) = [s for s in tracer.spans if s["name"] == "planner.build_plan_graph"]
    graph = result.graph
    assert graph.edge_count > 0
    assert rec["edges"] == graph.edge_count and rec["skip_edges"] == 0
    assert rec["vertices"] == sum(graph.layer_counts)
    # the edges view holds every edge between layers, one matrix per pair
    between = sum(int(np.isfinite(e["weight"]).sum()) for e in graph.edges.values())
    terminals = np.isfinite(graph.s_weight).sum() + np.isfinite(graph.f_weight).sum()
    assert between + terminals == graph.edge_count
    assert all(d == 1 for _, d in graph.edges)

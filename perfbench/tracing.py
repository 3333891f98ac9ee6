"""Spans at the module boundaries of cuspidal-kit, recorded from outside.

Tracing replaces, for the duration of a `with` block, the names through
which one module calls another (`planner.solve_ik_along_path`,
`ik.fk_jacobian_batch`, `cli.plan_path`, ...) by wrappers that record one
span per call: name, start, end, parent span and the id of the CLI call it
belongs to, plus a few counts read off the arguments and the result. The
program's own files are not touched; the originals are put back on exit.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from cuspidal_kit import cli, cuspidality, fileio, ik, optimizer, planner
from cuspidal_kit.ik import IKConfig
from cuspidal_kit.optimizer import INFEASIBLE_SENTINEL


def _ik_counts(args, kwargs, out) -> dict:
    robot = args[0]
    cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or IKConfig()
    sets = out if isinstance(out, list) else [out]
    exact = sum(1 for s in sets for x in s.solutions if not x.approximate)
    total = sum(len(s.solutions) for s in sets)
    return {
        "targets": len(sets),
        "seed_rows": len(sets) * cfg.resolve_seeds(robot.dof) ** robot.dof,
        "exact": exact,
        "approx": total - exact,
        "empty": sum(1 for s in sets if not s.solutions),
    }


def _rows(args, kwargs, out) -> dict:
    return {"rows": int(np.shape(args[1])[0])}


def _graph_counts(args, kwargs, graph) -> dict:
    skip = sum(int(np.isfinite(e["weight"]).sum()) for (k, d), e in graph.edges.items() if d > 1)
    return {"vertices": sum(graph.layer_counts), "edges": graph.edge_count, "skip_edges": skip}


def _verdict_counts(args, kwargs, verdict) -> dict:
    return {"poses_tried": verdict.poses_tried}


def _objective_counts(args, kwargs, value) -> dict:
    return {"feasible": int(value < INFEASIBLE_SENTINEL)}


# (module whose name is replaced, attribute, span name, counts from the call)
BOUNDARIES = [
    (cli, "plan_path", "planner.plan_path", None),
    (cli, "analyze_repeatability", "planner.analyze_repeatability", None),
    (cli, "identify_cuspidal", "cuspidality.identify_cuspidal", _verdict_counts),
    (cli, "optimize_workpiece_pose", "optimizer.optimize_workpiece_pose", None),
    (fileio, "dump_json", "fileio.dump_json", None),
    (fileio, "load_json", "fileio.load_json", None),
    (planner, "build_layers", "planner.build_layers", None),
    (planner, "solve_ik_along_path", "ik.solve_ik_along_path", _ik_counts),
    (planner, "build_plan_graph", "planner.build_plan_graph", _graph_counts),
    (planner, "shortest_joint_path", "planner.shortest_joint_path", None),
    (cuspidality, "solve_all_ik", "ik.solve_all_ik", _ik_counts),
    (cuspidality, "nonsingular_pair_check", "cuspidality.nonsingular_pair_check", None),
    (cuspidality, "det_j_batch", "kinematics.det_j_batch", _rows),
    (ik, "fk_jacobian_batch", "kinematics.fk_jacobian_batch", _rows),
    (ik, "det_j_batch", "kinematics.det_j_batch", _rows),
    (optimizer, "plan_path", "planner.plan_path", None),
    (optimizer, "objective", "optimizer.objective", _objective_counts),
    (optimizer, "random_feasible_start", "optimizer.random_feasible_start", None),
]

# the IK entry points, also tapped in untraced runs to count solutions
IK_BOUNDARIES = [b for b in BOUNDARIES if b[3] is _ik_counts]


class Tracer:
    """In-memory span recorder; `call_id` tags spans with the current CLI call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.call_id: str | None = None

    @contextmanager
    def span(self, name: str):
        """Record one span around the enclosed block; yields its record."""
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "call": self.call_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counts is not None:
                rec.update(counts(args, kwargs, out))
            return out
        return traced

    def patched(self):
        return _replaced(BOUNDARIES, self.wrap)


class SolutionTap:
    """Counts the exact IK solutions the program computes, without spans."""

    def __init__(self):
        self.exact = 0

    def wrap(self, name: str, fn, counts):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.exact += counts(args, kwargs, out)["exact"]
            return out
        return counted

    def patched(self):
        return _replaced(IK_BOUNDARIES, self.wrap)


@contextmanager
def _replaced(boundaries, wrap):
    """Replace each boundary's name by wrap(span name, original, counts)."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in boundaries]
    try:
        for (mod, attr, name, counts), (_, _, fn) in zip(boundaries, saved):
            setattr(mod, attr, wrap(name, fn, counts))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# per-layer metrics and their units, in report order
PER_LAYER = [
    ("kinematics.fkjac_rows", "count"),
    ("kinematics.fkjac_s", "s"),
    ("kinematics.fkjac_rows_per_s", "1/s"),
    ("ik.calls", "count"),
    ("ik.targets", "count"),
    ("ik.seed_rows", "count"),
    ("ik.solve_s", "s"),
    ("ik.self_s", "s"),
    ("ik.fkjac_rows_per_seed_row", "ratio"),
    ("ik.solutions_per_seed_row", "ratio"),
    ("ik.exact_solutions", "count"),
    ("ik.approx_solutions", "count"),
    ("ik.empty_targets", "count"),
    ("planner.plan_calls", "count"),
    ("planner.build_layers_calls", "count"),
    ("planner.build_layers_per_plan", "ratio"),
    ("planner.graph_s", "s"),
    ("planner.vertices", "count"),
    ("planner.edges", "count"),
    ("planner.skip_edges", "count"),
    ("planner.search_s", "s"),
    ("planner.repeat_self_s", "s"),
    ("cuspidality.poses_tried", "count"),
    ("cuspidality.pair_checks", "count"),
    ("cuspidality.pair_check_s", "s"),
    ("cuspidality.ik_share", "ratio"),
    ("optimizer.objective_calls", "count"),
    ("optimizer.start_attempts", "count"),
    ("optimizer.feasible_ratio", "ratio"),
    ("optimizer.eval_ms_p50", "ms"),
    ("optimizer.eval_ms_p75", "ms"),
    ("optimizer.self_s", "s"),
    ("cli.emit_s", "s"),
    ("fileio.load_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass (all but trace.overhead_share)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(ss, key=None):
        return float(sum(dur(s) if key is None else s.get(key, 0) for s in ss))

    def child_time(s, *names):
        return sum(dur(c) for c in children[s["id"]] if not names or c["name"] in names)

    def under(s, name):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                return True
            p = by_id[p]["parent"]
        return False

    fk = named("kinematics.fk_jacobian_batch")
    iks = named("ik.solve_ik_along_path", "ik.solve_all_ik")
    plans = named("planner.plan_path")
    graphs = named("planner.build_plan_graph")
    identifies = named("cuspidality.identify_cuspidal")
    pairs = named("cuspidality.nonsingular_pair_check")
    objectives = named("optimizer.objective")
    opts = named("optimizer.optimize_workpiece_pose")
    build_layers = named("planner.build_layers")
    eval_ms = sorted(1e3 * dur(s) for s in objectives)
    if len(eval_ms) >= 2:
        _, p50, p75 = statistics.quantiles(eval_ms, n=4, method="inclusive")
    else:
        p50 = p75 = eval_ms[0] if eval_ms else 0.0

    fk_rows, fk_s = total(fk, "rows"), total(fk)
    seed_rows = total(iks, "seed_rows")
    exact, approx = total(iks, "exact"), total(iks, "approx")
    identify_s = total(identifies)
    return {
        "kinematics.fkjac_rows": fk_rows,
        "kinematics.fkjac_s": fk_s,
        "kinematics.fkjac_rows_per_s": _ratio(fk_rows, fk_s),
        "ik.calls": float(len(iks)),
        "ik.targets": total(iks, "targets"),
        "ik.seed_rows": seed_rows,
        "ik.solve_s": total(iks),
        "ik.self_s": float(sum(dur(s) - child_time(s) for s in iks)),
        "ik.fkjac_rows_per_seed_row": _ratio(fk_rows, seed_rows),
        "ik.solutions_per_seed_row": _ratio(exact + approx, seed_rows),
        "ik.exact_solutions": exact,
        "ik.approx_solutions": approx,
        "ik.empty_targets": total(iks, "empty"),
        "planner.plan_calls": float(len(plans)),
        "planner.build_layers_calls": float(len(build_layers)),
        "planner.build_layers_per_plan": _ratio(len(build_layers), len(plans)),
        "planner.graph_s": total(graphs),
        "planner.vertices": total(graphs, "vertices"),
        "planner.edges": total(graphs, "edges"),
        "planner.skip_edges": total(graphs, "skip_edges"),
        "planner.search_s": total(named("planner.shortest_joint_path")),
        "planner.repeat_self_s": float(sum(
            dur(s) - child_time(s, "planner.build_layers")
            for s in named("planner.analyze_repeatability"))),
        "cuspidality.poses_tried": total(identifies, "poses_tried"),
        "cuspidality.pair_checks": float(len(pairs)),
        "cuspidality.pair_check_s": total(pairs),
        "cuspidality.ik_share": _ratio(
            total([s for s in iks if under(s, "cuspidality.identify_cuspidal")]), identify_s),
        "optimizer.objective_calls": float(len(objectives)),
        "optimizer.start_attempts": float(sum(
            1 for s in objectives if under(s, "optimizer.random_feasible_start"))),
        "optimizer.feasible_ratio": _ratio(total(objectives, "feasible"), len(objectives)),
        "optimizer.eval_ms_p50": p50,
        "optimizer.eval_ms_p75": p75,
        "optimizer.self_s": total(opts) - total(
            [s for s in plans if under(s, "optimizer.optimize_workpiece_pose")]),
        "cli.emit_s": total(named("fileio.dump_json")),
        "fileio.load_s": total(named("fileio.load_json")),
        "trace.spans": float(len(spans)),
    }

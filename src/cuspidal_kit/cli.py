"""Command-line interface.

Subcommands: identify (cuspidality verdict), plan (joint path for a
base-frame path), optimize (workpiece placement), map (solution-count
grid), helix (toolpath generator). Results go to stdout, as JSON or as
CSV for map, and also to the --out file when given; diagnostics to stderr.
Result files are written before stdout, so a file that cannot be written
leaves stdout empty. Exit codes: 0 ok, 2 input error (also an unwritable
output file), 3 undetermined, 4 infeasible, 5 no feasible start.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import fileio, scenarios
from .cuspidality import identify_cuspidal
from .ik import IKConfig, solution_count_map
from .optimizer import StartExhaustionError, optimize_workpiece_pose
from .planner import PlannerConfig, analyze_repeatability, plan_path

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDETERMINED = 3
EXIT_INFEASIBLE = 4
EXIT_NO_START = 5

# input kind -> (built-ins by name, what a built-in is called, file parser)
_INPUTS = {
    "robot": (scenarios.ROBOTS, "name", fileio.robot_from_doc),
    "path": ({"3r-infeasible-line": scenarios.infeasible_line_path,
              "3r-infeasible-line-control": scenarios.infeasible_line_control_path,
              "3r-cusp-loop": scenarios.cusp_loop_path,
              "3r-control-loop": scenarios.control_loop_path},
             "fixture", fileio.task_path_from_doc),
    "toolpath": ({"3r-helix": lambda: fileio.toolpath_from_doc(fileio.generate_helix())},
                 "fixture", fileio.toolpath_from_doc),
}


def _load(kind: str, source: str):
    """A built-in robot or path by name, else a JSON file of that kind; every
    failure to read or parse the file becomes a ValueError naming it."""
    builtins, builtin_word, from_doc = _INPUTS[kind]
    if source in builtins:
        return builtins[source]()
    if not os.path.exists(source):
        raise ValueError(f"{kind} {source!r}: not a built-in {builtin_word} and no such file")
    try:
        return from_doc(fileio.load_json(source))
    except (ValueError, KeyError, OSError, TypeError) as e:
        raise ValueError(f"{kind} file {source!r}: {e}") from e


def _ik_cfg(args) -> IKConfig:
    return IKConfig(seeds_per_joint=args.ik_seeds, threads=args.threads)


def _emit(text: str, out_path):
    if out_path:
        fileio.write_text(out_path, text)
    print(text)


def cmd_identify(args) -> int:
    robot = _load("robot", args.robot)
    verdict = identify_cuspidal(robot, rng_seed=args.seed, max_poses=args.max_poses,
                                samples=args.samples, cfg=_ik_cfg(args))
    doc = {
        "robot": robot.name,
        "status": verdict.status,
        "poses_tried": verdict.poses_tried,
        "pairs_tested": verdict.pairs_tested,
    }
    if verdict.witness is not None:
        w = verdict.witness
        doc["witness"] = {
            "q_a": w.q_a,
            "q_b": w.q_b,
            "pose_position": w.pose.position,
            "pose_rotation_wxyz": fileio.rotation_to_quat(w.pose.rotation),
            "min_abs_det_j": w.min_abs_det_j,
            "interp_samples": w.interp_samples,
        }
    _emit(fileio.dump_json(doc), args.out)
    return EXIT_OK if verdict.proven else EXIT_UNDETERMINED


def _joint_path_doc(jp) -> dict:
    return {
        "lambdas": jp.lambdas,
        "layers": list(range(len(jp.q))),
        "q": jp.q,
        "det_j": jp.det_j,
        "cost": jp.cost,
        "weight": jp.weight,
        "rms": jp.rms,
    }


def cmd_plan(args) -> int:
    robot = _load("robot", args.robot)
    path = _load("path", args.path)
    cfg = PlannerConfig(eps0=args.eps0, nonsingular_only=args.nonsingular)
    ik_cfg = _ik_cfg(args)
    result = plan_path(robot, path, cfg, ik_cfg)
    doc = {
        "robot": robot.name,
        "samples": path.K + 1,
        "closed": path.closed,
        "eps": result.graph.eps,
        "layer_counts": result.graph.layer_counts,
        "edges": result.graph.edge_count,
        "feasible": result.feasible,
    }
    if result.feasible:
        doc["joint_path"] = _joint_path_doc(result.path)
    else:
        doc["infeasible_span"] = list(result.infeasible_span)
        first, last = result.infeasible_span
        counts = sorted(set(result.graph.layer_counts))
        print(f"infeasible: no route from S reaches layer {first} of 0..{last}; "
              f"per-layer solution counts {counts}", file=sys.stderr)
    if path.closed:
        rep = analyze_repeatability(robot, path, cfg, ik_cfg)
        doc["repeatability"] = {
            "connectivity": rep.connectivity,
            "costs": [[(c if np.isfinite(c) else None) for c in row] for row in rep.costs],
            "regular_solutions": rep.regular_solutions,
            "cycles": rep.cycles,
        }
        if rep.cycles_truncated:
            doc["repeatability"]["cycles_truncated"] = True
            print(f"repeatability: only the first {len(rep.cycles)} solution-change cycles "
                  "are listed; more exist", file=sys.stderr)
    if args.csv and result.feasible:
        jp = result.path
        header = ["lambda"] + [f"q{i+1}" for i in range(robot.dof)] + ["det_j"]
        rows = [[lam] + list(q) + [d] for lam, q, d in zip(jp.lambdas, jp.q, jp.det_j)]
        fileio.write_csv(args.csv, header, rows)
    _emit(fileio.dump_json(doc), args.out)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def cmd_optimize(args) -> int:
    robot = _load("robot", args.robot)
    tp = _load("toolpath", args.toolpath)
    try:
        results = optimize_workpiece_pose(
            robot, tp, n_starts=args.starts, seed=args.seed, max_evals=args.max_evals,
            planner_cfg=PlannerConfig(eps0=args.eps0),
            ik_cfg=_ik_cfg(args))
    except StartExhaustionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_START
    doc = {
        "robot": robot.name,
        "toolpath_samples": tp.K + 1,
        "starts": [
            {
                "start_index": r.start_index,
                "is_best": r.is_best,
                "pose_quat_wxyz": r.pose.quat,
                "pose_p": r.pose.p,
                "reduced": r.x.as_array(),
                "initial_cost": r.initial_cost,
                "final_cost": r.final_cost,
                "initial_rms": r.initial_rms,
                "final_rms": r.final_rms,
                "n_evals": r.n_evals,
                "history": r.history,
            }
            for r in results
        ],
    }
    if args.csv:
        fileio.write_csv(args.csv, ["evaluation", "best_cost"],
                         [[i, v] for i, v in enumerate(results[0].history)])
    _emit(fileio.dump_json(doc), args.out)
    return EXIT_OK


def cmd_map(args) -> int:
    robot = _load("robot", args.robot)
    counts = solution_count_map(robot, tuple(args.rho_range), tuple(args.z_range),
                                (args.grid[0], args.grid[1]), _ik_cfg(args))
    rhos = np.linspace(args.rho_range[0], args.rho_range[1], args.grid[0])
    zs = np.linspace(args.z_range[0], args.z_range[1], args.grid[1])
    rows = [[z, *counts[:, j]] for j, z in enumerate(zs)]
    _emit(fileio.csv_text(["z\\rho", *rhos], rows), args.out)
    return EXIT_OK


def cmd_helix(args) -> int:
    doc = fileio.generate_helix(radius=args.radius, pitch=args.pitch,
                                turns=args.turns, samples=args.samples,
                                orientation_mode=args.orientation)
    _emit(fileio.dump_json(doc), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    p = argparse.ArgumentParser(prog="cuspidal-kit",
                                description="Cuspidal robot identification, path planning, and workpiece optimization")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        # the commands that run the IK; helix only writes a path file
        sp.add_argument("--ik-seeds", type=int, default=None,
                        help="seed grid density per joint of the 6R IK (default 8); "
                             "3R arms and 6R arms with joints 2-4 parallel are "
                             "solved in closed form and ignore it")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--out", default=None, help="also write the result here")

    sp = sub.add_parser("identify", help="decide whether a robot is cuspidal")
    sp.add_argument("--robot", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-poses", type=int, default=100)
    sp.add_argument("--samples", type=int, default=200)
    common(sp)
    sp.set_defaults(func=cmd_identify)

    sp = sub.add_parser("plan", help="plan a joint path for a base-frame path")
    sp.add_argument("--robot", required=True)
    sp.add_argument("--path", required=True)
    sp.add_argument("--eps0", type=float, default=None)
    sp.add_argument("--nonsingular", action="store_true")
    sp.add_argument("--csv", default=None, help="write the joint path as CSV here")
    common(sp)
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("optimize", help="optimize the workpiece placement of a toolpath")
    sp.add_argument("--robot", required=True)
    sp.add_argument("--toolpath", required=True)
    sp.add_argument("--starts", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--eps0", type=float, default=None)
    sp.add_argument("--max-evals", type=int, default=5000)
    sp.add_argument("--csv", default=None, help="write the best start's history as CSV here")
    common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("map", help="solution-count grid over the rho-z half-plane")
    sp.add_argument("--robot", required=True)
    sp.add_argument("--rho-range", type=float, nargs=2, required=True)
    sp.add_argument("--z-range", type=float, nargs=2, required=True)
    sp.add_argument("--grid", type=int, nargs=2, required=True)
    common(sp)
    sp.set_defaults(func=cmd_map)

    sp = sub.add_parser("helix", help="generate a helical workpiece toolpath")
    sp.add_argument("--radius", type=float, default=0.3)
    sp.add_argument("--pitch", type=float, default=0.2)
    sp.add_argument("--turns", type=float, default=2.0)
    sp.add_argument("--samples", type=int, default=500)
    sp.add_argument("--orientation", choices=["fixed", "tangent-following"], default="fixed")
    sp.add_argument("--out", default=None, help="also write the JSON result here")
    sp.set_defaults(func=cmd_helix)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, the CLI calls that use them,
and the checks every answer must pass.

A workload is built once per run from the benchmark seed. Building writes
the generated robot-independent inputs (path and toolpath files) into a
work directory and returns the list of `cuspidal-kit` command lines that
make up one pass, each with the exit codes it may end with and a check of
its stdout JSON.

The seed changes the inputs, never the expected answers:

- the 3R paths are rotated about the base z axis, which is the first joint
  axis of `3r-canonical`; the IK solution sets only shift in theta_1, so
  layer counts, feasibility and path weights stay the same;
- `identify` receives `--seed` values drawn from the seed.

`optimize` keeps `--seed 0` whatever the seed: its work depends on where
the random starts land (one seed's pass took 1.4x another's), and no input
transformation leaves the optimizer's trajectory unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cuspidal_kit import fileio, scenarios
from cuspidal_kit.cuspidality import Witness, validate_witness
from cuspidal_kit.ik import IKConfig
from cuspidal_kit.kinematics import (Pose, forward_kinematics, pose_difference,
                                     quat_to_rotation, rot_z)
from cuspidal_kit.optimizer import INFEASIBLE_SENTINEL, ReducedParams, objective
from cuspidal_kit.planner import PlannerConfig, path_cost

# FK of a planned joint vector must land on its path sample within this (m);
# exact IK solutions have residuals below 1e-8
_FK_TOL = 1e-6
# planned cost recomputed from the joint path, relative
_COST_RTOL = 1e-9
# the CLI's default --skip-depth: a plan may start or end one layer in
_SKIP_DEPTH = 2


@dataclass
class Call:
    """One `cuspidal-kit` invocation of a pass."""
    label: str
    argv: list[str]
    expect_exit: tuple[int, ...]
    check: Callable[[int, dict], list[str]]   # (exit code, stdout JSON) -> problems


@dataclass
class Workload:
    name: str
    item: str                                  # what items_per_s counts
    calls: list[Call]
    count_items: Callable[[list[dict]], int]   # items in one pass's answers
    plan_cost: Callable[[list[dict]], float | None]


# sizes of the full benchmark and of the toy size the smoke test runs
SIZES = {
    "full": {
        "segment_samples": 500, "line_samples": 101, "segment_ik": 6,
        "loop_samples": 201, "loop_ik": 6,
        "identify_poses": 3, "identify_ik": 5,
        "helix_samples": 30, "max_evals": 20, "optimize_ik": 6,
    },
    "toy": {
        "segment_samples": 21, "line_samples": 101, "segment_ik": 4,
        "loop_samples": 201, "loop_ik": 6,
        "identify_poses": 1, "identify_ik": 3,
        "helix_samples": 8, "max_evals": 7, "optimize_ik": 4,
    },
}


def _angle(seed: int) -> float:
    """Rotation of the 3R inputs about the base z axis."""
    return float(np.random.default_rng([seed, 1]).uniform(-np.pi, np.pi))


def _rotated(path, alpha: float, file: Path) -> list[np.ndarray]:
    """Write a fixture path rotated about the base z axis; return its points."""
    R = rot_z(alpha)
    points = [R @ pose.position for pose in path.poses]
    poses = [Pose(np.eye(3), p) for p in points]
    doc = fileio.path_to_doc(poses, path.dlambda, "base", path.closed, with_orientation=False)
    file.write_text(json.dumps(doc))
    return points


# --- answer checks ---------------------------------------------------------

def _check_joint_path(robot, points, doc) -> list[str]:
    """A feasible plan's joint path reaches its samples and costs what it says."""
    jp = doc.get("joint_path")
    if jp is None:
        return ["feasible plan without a joint_path"]
    K = len(points) - 1
    layers, q = jp["layers"], np.asarray(jp["q"], dtype=float)
    problems = []
    if len(layers) != q.shape[0] or len(layers) < 2:
        return [f"joint path has {len(layers)} layers and {q.shape[0]} joint vectors"]
    if any(b <= a for a, b in zip(layers, layers[1:])):
        problems.append("joint path layers are not increasing")
    if layers[0] > _SKIP_DEPTH - 1 or layers[-1] < K - (_SKIP_DEPTH - 1):
        problems.append(f"joint path spans layers {layers[0]}..{layers[-1]} of 0..{K}")
    worst = max(float(np.linalg.norm(forward_kinematics(robot, qk).position - points[k]))
                for k, qk in zip(layers, q))
    if worst > _FK_TOL:
        problems.append(f"joint path misses its samples by up to {worst:.2e} m")
    cost = path_cost(q, jp["lambdas"])
    if abs(cost - jp["cost"]) > _COST_RTOL * max(1.0, abs(cost)):
        problems.append(f"reported cost {jp['cost']!r} but the joint path costs {cost!r}")
    if jp["weight"] < jp["cost"] * (1.0 - _COST_RTOL):
        problems.append("path weight below its movement cost")
    return problems


def _plan_check(robot, points, feasible: bool, closed: bool = False):
    K = len(points) - 1

    def check(code: int, doc: dict) -> list[str]:
        problems = []
        if doc.get("samples") != len(points) or len(doc.get("layer_counts", ())) != len(points):
            problems.append("sample or layer count differs from the input path")
        if doc.get("closed") != closed:
            problems.append(f"closed flag {doc.get('closed')!r}, expected {closed!r}")
        if doc.get("feasible") != feasible:
            return problems + [f"feasible={doc.get('feasible')!r}, expected {feasible!r}"]
        if feasible:
            problems += _check_joint_path(robot, points, doc)
        else:
            span = doc.get("infeasible_span")
            if "joint_path" in doc:
                problems.append("infeasible plan carries a joint_path")
            if not span or not (0 < span[0] <= span[1] <= K):
                problems.append(f"infeasible span {span!r} is not inside layers 1..{K}")
        return problems

    return check


def _repeatability_problems(rep: dict | None) -> list[str]:
    """Acceptance criterion 8 on the cusp loop: some nonsingular change of
    solution has no way back, and neither of its ends lies on a cycle."""
    if rep is None:
        return ["closed path without a repeatability report"]
    conn = np.asarray(rep["connectivity"], dtype=bool)
    costs = rep["costs"]
    M = conn.shape[0]
    problems = []
    if any((costs[m][l] is not None) != bool(conn[m, l]) for m in range(M) for l in range(M)):
        problems.append("repeatability costs disagree with connectivity")
    changes = [(m, l) for m in range(M) for l in range(M) if m != l and conn[m, l]]
    if not changes:
        return problems + ["no nonsingular change of solution around the cusp"]
    if not any(not conn[l, m] for m, l in changes):
        problems.append("every change of solution can be undone")
    on_cycle = {v for cyc in rep["cycles"] for v in cyc}
    if not any(m not in on_cycle and l not in on_cycle for m, l in changes):
        problems.append("every change of solution lies on a cycle")
    return problems


def _identify_check(robot):
    def check(code: int, doc: dict) -> list[str]:
        problems = []
        if doc.get("poses_tried") != 1:
            problems.append(f"poses_tried={doc.get('poses_tried')!r}, expected 1")
        proven = doc.get("status") == "proven_cuspidal"
        if proven != (code == 0) or ("witness" in doc) != proven:
            return problems + [f"status {doc.get('status')!r}, exit {code} and witness disagree"]
        if proven:
            w = doc["witness"]
            pose = Pose(quat_to_rotation(np.asarray(w["pose_rotation_wxyz"])),
                        np.asarray(w["pose_position"], dtype=float))
            witness = Witness(pose=pose, q_a=np.asarray(w["q_a"]), q_b=np.asarray(w["q_b"]),
                              min_abs_det_j=w["min_abs_det_j"], interp_samples=w["interp_samples"])
            for q in (witness.q_a, witness.q_b):
                gap = pose_difference(forward_kinematics(robot, q), pose)
                if gap > _FK_TOL:
                    problems.append(f"witness joint vector misses the pose by {gap:.2e}")
            if not validate_witness(robot, witness):
                problems.append("witness fails validate_witness")
        return problems

    return check


def _optimize_check(robot, toolpath_file: Path, ik_seeds: int):
    tp = fileio.toolpath_from_doc(fileio.load_json(str(toolpath_file)))

    def check(code: int, doc: dict) -> list[str]:
        starts = doc.get("starts", [])
        if len(starts) != 1 or not starts[0]["is_best"]:
            return [f"expected one best start, got {len(starts)} starts"]
        r = starts[0]
        hist = r["history"]
        problems = []
        if any(b > a for a, b in zip(hist, hist[1:])):
            problems.append("optimizer history is not monotone")
        if not r["final_cost"] <= r["initial_cost"]:
            problems.append("final_cost above initial_cost")
        if r["n_evals"] != len(hist) or hist[-1] != r["final_cost"]:
            problems.append("n_evals or final_cost disagree with the history")
        if not r["final_cost"] < INFEASIBLE_SENTINEL:
            problems.append("best placement is infeasible")
        # re-price the reported placement through the library objective
        again = objective(robot, tp, ReducedParams.from_array(r["reduced"]),
                          PlannerConfig(), IKConfig(seeds_per_joint=ik_seeds))
        if again != r["final_cost"]:
            problems.append(f"re-priced placement costs {again!r}, reported {r['final_cost']!r}")
        return problems

    return check


# --- workload builders -----------------------------------------------------

def _plan_argv(path_file: Path, ik_seeds: int, *extra: str) -> list[str]:
    return ["plan", "--robot", "3r-canonical", "--path", str(path_file),
            "--ik-seeds", str(ik_seeds), "--threads", "1", *extra]


def _plan_items(answers: list[dict]) -> int:
    return sum(a["samples"] for a in answers)


def _plan_cost(answers: list[dict]) -> float:
    return sum(a["joint_path"]["weight"] for a in answers if a["feasible"])


def plan_segment(seed: int, work: Path, size: dict) -> Workload:
    robot = scenarios.canonical_3r()
    alpha = _angle(seed)
    calls = []
    for label, path, feasible, code in (
            ("control", scenarios.infeasible_line_control_path(size["segment_samples"]), True, 0),
            ("infeasible", scenarios.infeasible_line_path(size["line_samples"]), False, 4)):
        f = work / f"{label}.json"
        points = _rotated(path, alpha, f)
        calls.append(Call(label, _plan_argv(f, size["segment_ik"]), (code,),
                          _plan_check(robot, points, feasible)))
    return Workload("plan-segment-3r", "samples", calls, _plan_items, _plan_cost)


def plan_loop(seed: int, work: Path, size: dict) -> Workload:
    robot = scenarios.canonical_3r()
    f = work / "cusp-loop.json"
    points = _rotated(scenarios.cusp_loop_path(size["loop_samples"]), _angle(seed), f)
    plan_ok = _plan_check(robot, points, feasible=True, closed=True)

    def check(code: int, doc: dict) -> list[str]:
        return plan_ok(code, doc) + _repeatability_problems(doc.get("repeatability"))

    call = Call("cusp-loop", _plan_argv(f, size["loop_ik"], "--nonsingular"), (0,), check)
    return Workload("plan-loop-3r", "samples", [call], _plan_items, _plan_cost)


def identify(seed: int, work: Path, size: dict) -> Workload:
    robot = scenarios.three_parallel_6r()
    rng = np.random.default_rng([seed, 6])
    seeds = rng.choice(2**31, size=size["identify_poses"], replace=False)
    calls = [Call(f"identify-{s}",
                  ["identify", "--robot", "3parallel-cuspidal", "--seed", str(s),
                   "--max-poses", "1", "--ik-seeds", str(size["identify_ik"]),
                   "--threads", "1"],
                  (0, 3), _identify_check(robot))
             for s in seeds]
    return Workload("identify-6r", "poses", calls,
                    lambda answers: sum(a["poses_tried"] for a in answers),
                    lambda answers: None)


def optimize(seed: int, work: Path, size: dict) -> Workload:
    robot = scenarios.canonical_3r()
    f = work / "helix.json"
    f.write_text(json.dumps(fileio.generate_helix(samples=size["helix_samples"])))
    argv = ["optimize", "--robot", "3r-canonical", "--toolpath", str(f),
            "--starts", "1", "--seed", "0", "--max-evals", str(size["max_evals"]),
            "--ik-seeds", str(size["optimize_ik"]), "--threads", "1"]
    call = Call("optimize", argv, (0,), _optimize_check(robot, f, size["optimize_ik"]))
    return Workload("optimize-3r", "evaluations", [call],
                    lambda answers: answers[0]["starts"][0]["n_evals"],
                    lambda answers: answers[0]["starts"][0]["final_cost"])


BUILDERS = {
    "plan-segment-3r": plan_segment,
    "plan-loop-3r": plan_loop,
    "identify-6r": identify,
    "optimize-3r": optimize,
}


def build(name: str, seed: int, work: Path, size: str = "full") -> Workload:
    return BUILDERS[name](seed, work, SIZES[size])

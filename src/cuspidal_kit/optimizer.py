"""Workpiece placement optimization.

The toolpath lives in a workpiece frame; a rigid transform places it in the
robot base frame and the graph planner prices the placement. Rotating any
placement about the robot's first joint axis changes nothing when that
axis is the base z axis (and unconstrained), so the pose is reduced to five
parameters: a tilt whose rotation axis lies in the xy plane, encoded as its
rotation vector (v_x, v_y), plus a pre-rotation translation. Every 2-vector
is a valid tilt, so the descent needs no bounds.
Nelder-Mead descends on the planner cost from random feasible starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ik import IKConfig
from .kinematics import (
    RobotModel,
    fk_batch,
    per_robot,
    quat_to_rotation,
    rot_z,
    rotation_to_quat,
    row_norms,
)
from .planner import PlannerConfig, PlanResult, TaskPath, plan_path

INFEASIBLE_SENTINEL = 1e9
# random joint vectors behind the reachable-shell estimate
_SHELL_SAMPLES = 4096
_MAX_START_ATTEMPTS = 100
# how far joint 1 may sit off the base z axis for the reduced placement
_BASE_AXIS_TOL = 1e-12
# Nelder-Mead coefficients (the standard ones) and the initial simplex edge
_NM_REFLECTION = 1.0
_NM_EXPANSION = 2.0
_NM_CONTRACTION = 0.5
_NM_SHRINK = 0.5
_NM_INITIAL_STEP = 0.1
# termination: simplex diameter and f-spread both below these
_NM_TOL_X = 1e-6
_NM_TOL_F = 1e-9


@dataclass
class WorkpiecePose:
    """Rigid placement as quaternion (w, x, y, z) plus translation.

    The quaternion is normalized before every use, so scaling it does not
    change the transform.
    """
    quat: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.quat = np.asarray(self.quat, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.quat.shape != (4,) or self.p.shape != (3,):
            raise ValueError("quat must be a 4-vector and p a 3-vector")

    @property
    def rotation(self) -> np.ndarray:
        return quat_to_rotation(self.quat)


@dataclass
class ReducedParams:
    """Five-parameter placement: xy-plane tilt (v_x, v_y) and translation.

    v = k*theta, the rotation vector of a turn by theta about an axis k
    with k_z = 0; v = 0 is no tilt. The translation applies before the
    tilt.
    """
    v: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.v.shape != (2,) or self.p.shape != (3,):
            raise ValueError("v must be a 2-vector and p a 3-vector")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.v, self.p])

    @staticmethod
    def from_array(x) -> "ReducedParams":
        x = np.asarray(x, dtype=float)
        return ReducedParams(x[:2], x[2:])


def reduced_to_pose(x: ReducedParams) -> WorkpiecePose:
    """Expand the 5-parameter form: quaternion (cos(theta/2), sin(theta/2) k, 0)
    for the tilt v = k*theta."""
    theta = float(np.hypot(*x.v))
    # sin(theta/2) k = s v with s = sin(theta/2)/theta, which is 1/2 at theta = 0
    s = 0.5 * np.sinc(theta / (2.0 * np.pi))
    quat = np.array([np.cos(theta / 2.0), s * x.v[0], s * x.v[1], 0.0])
    R = quat_to_rotation(quat)
    return WorkpiecePose(quat=quat, p=R @ x.p)


def transform_toolpath(wp: WorkpiecePose, tp: TaskPath) -> TaskPath:
    """Place the toolpath in the base frame; sample spacing is preserved."""
    R = wp.rotation
    # R times each position as its own matrix-vector product, as R @ p
    # rounds; positions @ R.T would round as one matrix product
    positions = wp.p + np.matmul(R, tp.positions[:, :, None])[:, :, 0]
    return TaskPath(positions, R @ tp.rotations, tp.dlambda, tp.closed)


def decompose_rz_rxy(R) -> tuple[float, np.ndarray]:
    """Split R = Rz(theta_z) @ R_xy with R_xy a rotation about an xy-plane axis.

    Always succeeds: any rotation decomposes this way (z-x-z Euler argument);
    a pure z-rotation returns (its angle, identity). theta_z is twice the
    angle of R's quaternion (w, z) pair, so R_xy's quaternion has z = 0 up
    to roundoff.
    """
    R = np.asarray(R, dtype=float)
    q = rotation_to_quat(R)
    theta_z = 2.0 * np.arctan2(q[3], q[0])
    return float(theta_z), rot_z(-theta_z) @ R


@per_robot
def workspace_radii(robot: RobotModel):
    """Crude reachable-shell estimate: (min, max) tool distance from base,
    computed once per geometry."""
    rng = np.random.default_rng(0)
    Q = rng.uniform(-np.pi, np.pi, size=(_SHELL_SAMPLES, robot.dof))
    _, P = fk_batch(robot, Q)
    r = np.linalg.norm(P, axis=1)
    return float(r.min()), float(r.max())


def _unreachable_penalty(robot: RobotModel, task: TaskPath) -> float:
    r_min, r_max = workspace_radii(robot)
    r = row_norms(task.positions)
    # summed left to right, so it rounds as a running total over the samples
    return float(np.add.accumulate(np.maximum(0.0, r - r_max) + np.maximum(0.0, r_min - r))[-1])


def price_placements(robot: RobotModel, tp: TaskPath, poses: list[WorkpiecePose],
                     planner_cfg: PlannerConfig | None = None,
                     ik_cfg: IKConfig | None = None) -> list[tuple[float, PlanResult]]:
    """(value, plan) of each full placement. The value is the planner
    weight; an infeasible placement prices at the sentinel plus how far
    the path sticks out of the reachable shell. The samples of all the
    placements are solved as one IK population (one plan_path call on the
    list of placed paths), and each pair is what pricing that placement
    alone gives."""
    tasks = [transform_toolpath(wp, tp) for wp in poses]
    plans = plan_path(robot, tasks, planner_cfg, ik_cfg)
    return [(res.path.weight if res.feasible
             else INFEASIBLE_SENTINEL + _unreachable_penalty(robot, task), res)
            for task, res in zip(tasks, plans)]


def objective(robot: RobotModel, tp: TaskPath, x: ReducedParams,
              planner_cfg: PlannerConfig | None = None,
              ik_cfg: IKConfig | None = None) -> float:
    """Planner weight of a reduced placement; raises ValueError only for an
    arm the IK refuses (a 3R arm with no isolated solutions)."""
    return price_placements(robot, tp, [reduced_to_pose(x)], planner_cfg, ik_cfg)[0][0]


def nelder_mead(f, x0, max_evals: int = 5000, f0: float | None = None):
    """Plain simplex descent; returns (x_best, f_best, best-so-far history).

    f maps a (k, n) stack of points to their k values. Points that do not
    depend on one another go to f as one stack: the initial simplex (its
    n new points when f0 is given) and the n new points of a shrink step;
    reflection, expansion and contraction go one point at a time. f0 is
    f(x0) when the caller already knows it; it counts as the first
    evaluation. History gets one entry per evaluation, in the order of the
    stacks, so it is non-increasing by construction. Terminates on simplex
    diameter, f-spread, or budget; the initial simplex costs n + 1
    evaluations whatever the budget. The budget is checked at the top of
    each iteration, and one iteration can price a reflection, a contraction
    and n shrink points, so history can end up to n + 1 entries past
    max_evals.
    """
    if max_evals < 1:
        raise ValueError("max_evals must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    history: list[float] = []
    best_so_far = np.inf

    def record(vals) -> list[float]:
        nonlocal best_so_far
        vals = [float(v) for v in vals]
        for val in vals:
            best_so_far = min(best_so_far, val)
            history.append(best_so_far)
        return vals

    simplex = np.repeat(x0[None], n + 1, axis=0)
    simplex[range(1, n + 1), range(n)] += _NM_INITIAL_STEP
    if f0 is None:
        fvals = np.array(record(f(simplex)))
    else:
        fvals = np.array(record([f0]) + record(f(simplex[1:])))

    while len(history) < max_evals:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        diameter = np.max(np.linalg.norm(simplex[1:] - simplex[0], axis=1))
        # fminsearch-style joint test: both the simplex and the f-spread
        # must collapse, otherwise quadratic bowls stop an order short
        if diameter < _NM_TOL_X and (fvals[-1] - fvals[0]) < _NM_TOL_F:
            break
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        xr = centroid + _NM_REFLECTION * (centroid - worst)
        [fr] = record(f(xr[None]))
        if fr < fvals[0]:
            xe = centroid + _NM_EXPANSION * (xr - centroid)
            [fe] = record(f(xe[None]))
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + _NM_CONTRACTION * (worst - centroid)
            [fc] = record(f(xc[None]))
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + _NM_SHRINK * (simplex[1:] - simplex[0])
                fvals[1:] = record(f(simplex[1:]))
    order = np.argsort(fvals, kind="stable")
    return simplex[order[0]].copy(), float(fvals[order[0]]), history


class StartExhaustionError(RuntimeError):
    def __init__(self, attempts: int):
        super().__init__(f"no feasible workpiece placement found in {attempts} attempts")
        self.attempts = attempts


def random_feasible_start(robot: RobotModel, tp: TaskPath, rng,
                          planner_cfg: PlannerConfig | None = None,
                          ik_cfg: IKConfig | None = None
                          ) -> tuple[ReducedParams, float, PlanResult]:
    """A tilt whose quaternion (x, y) part is uniform over the unit disk
    (radius r, so the tilt angle is 2 arcsin(r)) and a translation inside
    the box around the reachable shell, drawn until the planner finds a
    feasible path, at most _MAX_START_ATTEMPTS draws; returns that
    placement with its value and plan."""
    r_max = workspace_radii(robot)[1]
    lo, hi = np.full(3, -r_max), np.full(3, r_max)
    for _ in range(_MAX_START_ATTEMPTS):
        r = np.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * np.pi)
        v = 2.0 * np.arcsin(r) * np.array([np.cos(ang), np.sin(ang)])
        p = rng.uniform(lo, hi)
        x = ReducedParams(v, p)
        [(val, res)] = price_placements(robot, tp, [reduced_to_pose(x)], planner_cfg, ik_cfg)
        if val < INFEASIBLE_SENTINEL:
            return x, val, res
    raise StartExhaustionError(_MAX_START_ATTEMPTS)


@dataclass
class OptResult:
    """One optimization start, with its descent history."""
    start_index: int
    x: ReducedParams
    pose: WorkpiecePose
    history: list[float]
    initial_cost: float
    final_cost: float
    initial_rms: float
    final_rms: float
    n_evals: int
    is_best: bool = False


def _rms(res: PlanResult) -> float:
    """rms of a plan's joint path; NaN when infeasible."""
    return res.path.rms if res.feasible else float("nan")


def optimize_workpiece_pose(robot: RobotModel, tp: TaskPath, n_starts: int = 2,
                            seed: int = 0, max_evals: int = 5000,
                            planner_cfg: PlannerConfig | None = None,
                            ik_cfg: IKConfig | None = None) -> list[OptResult]:
    """Multi-start placement optimization.

    Each start draws a feasible random placement and runs Nelder-Mead on the
    planner cost from it, for at most max_evals evaluations. Every placement
    is priced once: the start check's value is the first evaluation, and
    initial and final rms are read off the plans already made at the start
    and the best placement. Results come back sorted by final cost, best
    first (marked), deterministic for a fixed seed via independently
    spawned per-start generators. An arm whose joint 1 does not turn freely
    about the base z axis (off that axis, or with a finite limit) is
    refused: the reduced placement would lose a degree of freedom that
    matters. max_evals below 1 is refused before any placement is priced.
    """
    if max_evals < 1:
        raise ValueError("max_evals must be >= 1")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    axis, offset = robot.axes[0], robot.offsets[0]
    if (np.max(np.abs(np.abs(axis) - (0.0, 0.0, 1.0))) > _BASE_AXIS_TOL
            or np.max(np.abs(offset[:2])) > _BASE_AXIS_TOL):
        raise ValueError(
            f"the five-parameter placement needs the first joint axis on the base z axis "
            f"(axes[0] = +-(0, 0, 1), offsets[0] with zero x and y); got axes[0] = "
            f"{axis.tolist()}, offsets[0] = {offset.tolist()}")
    if robot.joint_limits is not None and np.any(np.isfinite(robot.joint_limits[0])):
        raise ValueError(
            f"the five-parameter placement needs joint 1 to turn freely about the base z "
            f"axis; got joint 1 limits {robot.joint_limits[0].tolist()}")
    streams = np.random.SeedSequence(seed).spawn(n_starts)
    results = []
    failures = 0
    for idx, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        try:
            x0, f0, plan0 = random_feasible_start(robot, tp, rng, planner_cfg=planner_cfg,
                                                  ik_cfg=ik_cfg)
        except StartExhaustionError:
            failures += 1
            continue
        # rms of every placement priced, keyed by its exact parameters
        rms = {x0.as_array().tobytes(): _rms(plan0)}

        def price(X):
            priced = price_placements(
                robot, tp, [reduced_to_pose(ReducedParams.from_array(x)) for x in X],
                planner_cfg, ik_cfg)
            rms.update((x.tobytes(), _rms(res)) for x, (_, res) in zip(X, priced))
            return [val for val, _ in priced]

        x_best, f_best, history = nelder_mead(price, x0.as_array(), max_evals, f0=f0)
        xr = ReducedParams.from_array(x_best)
        results.append(OptResult(
            start_index=idx, x=xr, pose=reduced_to_pose(xr), history=history,
            initial_cost=history[0], final_cost=f_best,
            initial_rms=_rms(plan0), final_rms=rms[x_best.tobytes()],
            n_evals=len(history)))
    if not results:
        raise StartExhaustionError(failures * _MAX_START_ATTEMPTS)
    results.sort(key=lambda r: (r.final_cost, r.start_index))
    results[0].is_best = True
    return results

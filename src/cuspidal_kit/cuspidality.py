"""Randomized cuspidality identification.

A robot is proven cuspidal by exhibiting two IK solutions of one pose
joined by a joint-space straight line on which det(J) never vanishes.
Random poses are drawn through forward kinematics (guaranteeing
reachability), all IK solutions enumerated, and every same-determinant-sign
pair tested by dense interpolation. Failure to find a witness proves
nothing, so the negative verdict is only ever "undetermined".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ik import EXACT_TOL, IKConfig, solve_all_ik
from .kinematics import Pose, RobotModel, det_j_batch, forward_kinematics, pose_difference

# |det J| below this times the segment's median |det J| counts as a
# singularity graze; scaling by the median keeps the test meaningful for
# arms with small link lengths
SINGULARITY_TOL = 1e-8
DEFAULT_POSE_TOL = 1e-6


@dataclass
class Witness:
    """A verified nonsingular change of solution."""
    pose: Pose
    q_a: np.ndarray
    q_b: np.ndarray
    min_abs_det_j: float
    interp_samples: int


@dataclass
class Verdict:
    status: str                      # "proven_cuspidal" | "undetermined"
    witness: Witness | None = None
    poses_tried: int = 0
    pairs_tested: int = 0

    @property
    def proven(self) -> bool:
        return self.status == "proven_cuspidal"


def nonsingular_pair_check(robot: RobotModel, q_a, q_b, samples: int = 200,
                           pose_tol: float = DEFAULT_POSE_TOL):
    """Does the straight joint-space segment q_a -> q_b avoid singularities?

    Each coordinate is interpolated directly (no wrapping). Returns
    (ok, min |det J| along the segment). Raises if the endpoints do not
    reach the same pose within pose_tol.
    """
    if samples < 2:
        raise ValueError("need at least 2 interpolation samples")
    q_a = robot._check_q(np.asarray(q_a, dtype=float))
    q_b = robot._check_q(np.asarray(q_b, dtype=float))
    gap = pose_difference(forward_kinematics(robot, q_a), forward_kinematics(robot, q_b),
                          position_only=robot.dof == 3)
    if gap > pose_tol:
        raise ValueError(f"endpoint poses differ by {gap:.3e} > pose_tol={pose_tol:.1e}")
    dq = q_b - q_a

    def dets_at(ts):
        return det_j_batch(robot, q_a[None, :] + ts[:, None] * dq[None, :])

    ts = np.linspace(0.0, 1.0, samples)
    dets = dets_at(ts)
    sign_constant = bool(np.all(dets > 0.0) or np.all(dets < 0.0))
    min_abs = float(np.min(np.abs(dets)))
    if sign_constant:
        # |det J| can graze zero between samples without flipping sign
        # (an even-multiplicity touch); chase interior dips down to their
        # true minima before accepting the segment
        a = np.abs(dets)
        dips = np.flatnonzero((a[1:-1] <= a[:-2]) & (a[1:-1] <= a[2:])) + 1
        for i in dips:
            lo, hi = ts[i - 1], ts[i + 1]
            for _ in range(6):
                sub = np.linspace(lo, hi, 24)
                vals = np.abs(dets_at(sub))
                j = int(np.argmin(vals))
                min_abs = min(min_abs, float(vals[j]))
                lo, hi = sub[max(j - 1, 0)], sub[min(j + 1, 23)]
    tol = SINGULARITY_TOL * float(np.median(np.abs(dets)))
    return (sign_constant and min_abs > tol), min_abs


def identify_cuspidal(robot: RobotModel, rng_seed: int = 0, max_poses: int = 100,
                      samples: int = 200, cfg: IKConfig | None = None) -> Verdict:
    """Search random reachable poses for a nonsingular change of solution.

    Draws q uniformly over (-pi, pi]^n, takes its forward kinematics as the
    test pose, enumerates all IK solutions, and line-tests every unordered
    pair with matching sign(det J). The first passing pair becomes the
    witness. Deterministic for a fixed rng_seed.
    """
    if max_poses < 1:
        raise ValueError("max_poses must be >= 1")
    if samples < 2:
        raise ValueError("need at least 2 interpolation samples")
    cfg = cfg or IKConfig()
    rng = np.random.default_rng(rng_seed)
    pairs_tested = 0
    for trial in range(max_poses):
        q = rng.uniform(-np.pi, np.pi, robot.dof)
        pose = forward_kinematics(robot, q)
        sols = [s for s in solve_all_ik(robot, pose, cfg).solutions if not s.approximate]
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                if np.sign(sols[i].det_j) != np.sign(sols[j].det_j):
                    continue
                pairs_tested += 1
                ok, min_abs = nonsingular_pair_check(
                    robot, sols[i].q, sols[j].q, samples=samples,
                    pose_tol=10.0 * EXACT_TOL)
                if ok:
                    witness = Witness(pose=pose, q_a=sols[i].q.copy(), q_b=sols[j].q.copy(),
                                      min_abs_det_j=min_abs, interp_samples=samples)
                    return Verdict(status="proven_cuspidal", witness=witness,
                                   poses_tried=trial + 1, pairs_tested=pairs_tested)
    return Verdict(status="undetermined", poses_tried=max_poses, pairs_tested=pairs_tested)


def validate_witness(robot: RobotModel, witness: Witness) -> bool:
    """Re-check a witness at ten times its interpolation density."""
    ok, _ = nonsingular_pair_check(robot, witness.q_a, witness.q_b,
                                   samples=witness.interp_samples * 10)
    return ok

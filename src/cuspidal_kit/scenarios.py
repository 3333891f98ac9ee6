"""Built-in robot models and path fixtures.

The canonical cuspidal 3R arm and the three-parallel-axes 6R arm are the
reference models used throughout the test-suite and the CLI registry. The
6R model's wrist offset is stated ambiguously in its original description
(`0.3 e_z + 0.9 e_z`, a redundant sum); of the seven plausible readings,
only `0.3 e_x + 0.9 e_z` reproduces the published witness pair q_A, q_B to
within 1e-4 in position and orientation, so that reading is used here.
"""

from __future__ import annotations

import numpy as np

from .kinematics import RobotModel
from .planner import TaskPath

_EX, _EY, _EZ = np.eye(3)

# witness joint vectors for the three-parallel-axes arm: a linear joint
# move between them keeps det(J) > 0 while both reach the same pose
THREE_PARALLEL_WITNESS = (
    np.array([-2.4000, -0.9000, 1.1000, -0.8000, 2.3000, -1.3000]),
    np.array([0.9940, -1.4391, 0.9530, 1.2368, 1.0004, 1.5942]),
)


def canonical_3r() -> RobotModel:
    """The classic cuspidal 3R arm; positions only, unit link lengths."""
    return RobotModel(
        axes=[_EZ, _EY, _EZ],
        offsets=[np.zeros(3), _EX, 2 * _EX + _EY],
        tool_offset=1.5 * _EX,
        name="3r-canonical",
    )


def three_parallel_6r() -> RobotModel:
    """Cuspidal 6R arm with three parallel (y) axes and an offset wrist."""
    return RobotModel(
        axes=[_EZ, _EY, _EY, _EY, _EX, _EY],
        offsets=[
            np.zeros(3),
            0.1 * _EX + 0.7 * _EY,
            0.7 * _EZ,
            0.7 * _EZ,
            0.7 * _EZ,
            0.3 * _EX + 0.9 * _EZ,
        ],
        tool_offset=0.5 * _EY,
        name="3parallel-cuspidal",
    )


def elbow_3r() -> RobotModel:
    """Noncuspidal elbow arm (coplanar offsets, quadratic-solvable IK)."""
    return RobotModel(
        axes=[_EZ, _EY, _EY],
        offsets=[np.zeros(3), _EZ, _EX],
        tool_offset=_EX,
        name="3r-elbow",
    )


ROBOTS = {
    "3r-canonical": canonical_3r,
    "3parallel-cuspidal": three_parallel_6r,
    "3r-elbow": elbow_3r,
}


# ---------------------------------------------------------------------------
# path fixtures for the canonical 3R arm
#
# The infeasible line was found by scanning straight Cartesian segments whose
# cylindrical trace enters the four-solution region through one fold arc and
# leaves through a different one near the region's upper-right corner: all
# four solution branches then terminate strictly inside the segment, so no
# choice of initial IK solution survives, although every sample stays
# reachable. Translating the same segment down in z restores feasibility.
# The cusp loop encircles the image cusp at (rho, z) = (1.376, 0.498), which
# swaps two same-sign IK solutions after one circuit.

INFEASIBLE_LINE = (np.array([1.603, 0.049, -0.063]),
                   np.array([2.674, 1.231, 0.633]))
INFEASIBLE_LINE_CONTROL_OFFSET = np.array([0.0, 0.0, -0.6])
CUSP_LOOP = {"center": (1.376, 0.498), "radius": 0.10}
CONTROL_LOOP = {"center": (3.6, -1.0), "radius": 0.15}


def _fixed_orientation(positions, dlambda: float, closed: bool = False) -> TaskPath:
    return TaskPath(positions, np.broadcast_to(np.eye(3), (len(positions), 3, 3)),
                    dlambda, closed)


def _segment_path(a, b, samples: int):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    K = samples - 1
    pts = a + (b - a) * np.arange(samples)[:, None] / K
    L = float(np.linalg.norm(b - a))
    return _fixed_orientation(pts, L / K)


def infeasible_line_path(samples: int = 101):
    """Straight segment with reachable samples but no continuous joint path."""
    return _segment_path(*INFEASIBLE_LINE, samples)


def infeasible_line_control_path(samples: int = 101):
    """The same segment translated away from the cusp region; feasible."""
    a, b = INFEASIBLE_LINE
    off = INFEASIBLE_LINE_CONTROL_OFFSET
    return _segment_path(a + off, b + off, samples)


def _circle_path(center, radius: float, samples: int):
    K = samples - 1
    ts = np.linspace(0.0, 2.0 * np.pi, samples)
    pts = np.stack([center[0] + radius * np.cos(ts), np.zeros(samples),
                    center[1] + radius * np.sin(ts)], axis=1)
    return _fixed_orientation(pts, 2.0 * np.pi * radius / K, closed=True)


def cusp_loop_path(samples: int = 201):
    """Closed loop around the cusp: one nonsingular solution change per lap."""
    return _circle_path(CUSP_LOOP["center"], CUSP_LOOP["radius"], samples)


def control_loop_path(samples: int = 201):
    """Closed loop deep in the two-solution region: all solutions regular."""
    return _circle_path(CONTROL_LOOP["center"], CONTROL_LOOP["radius"], samples)

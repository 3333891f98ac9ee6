"""File formats: robot and path JSON documents, result JSON, CSV emitters.

JSON keeps fixtures human-diffable; CSV carries plot matrices (joint
trajectories, determinant traces, optimization histories, solution-count
grids). All emitters are deterministic: sorted keys, repr-exact floats in
JSON, 17 significant digits in CSV.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .kinematics import Pose, RobotModel, quat_to_rotation, rotation_to_quat
from .planner import TaskPath

_AXIS_WARN_TOL = 1e-6


def to_jsonable(obj):
    """Numpy scalars and arrays, also inside dicts, lists and tuples, as
    plain Python values for json.dumps."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def write_text(path: str, text: str):
    """Write text and a newline to path; every result file goes through here."""
    with open(path, "w") as fp:
        fp.write(text + "\n")


def dump_json(doc) -> str:
    """Strict JSON text of doc; NaN or infinity raises ValueError."""
    return json.dumps(to_jsonable(doc), sort_keys=True, indent=2, allow_nan=False)


def save_json(doc, path: str):
    write_text(path, dump_json(doc))


def load_json(path: str):
    with open(path) as fp:
        return json.load(fp)


def format_sig(x) -> str:
    return f"{float(x):.17g}"


def csv_text(header, rows) -> str:
    """CSV lines of header and rows; floats by format_sig, the rest by str."""
    return "\n".join(",".join(format_sig(v) if isinstance(v, (float, np.floating))
                              else str(v) for v in row) for row in [header, *rows])


def write_csv(path: str, header: list[str], rows):
    write_text(path, csv_text(header, rows))


# --- robot documents -------------------------------------------------------

def robot_to_doc(robot: RobotModel) -> dict:
    doc = {
        "name": robot.name,
        "dof": robot.dof,
        "axes": robot.axes,
        "offsets": robot.offsets,
        "tool_offset": robot.tool_offset,
    }
    if robot.joint_limits is not None:
        doc["joint_limits"] = robot.joint_limits
    return to_jsonable(doc)


def robot_from_doc(doc: dict, warn=lambda msg: print(msg, file=sys.stderr)) -> RobotModel:
    for key in ("dof", "axes", "offsets", "tool_offset"):
        if key not in doc:
            raise ValueError(f"robot document missing {key!r}")
    axes = np.asarray(doc["axes"], dtype=float)
    if axes.ndim != 2 or axes.shape[1] != 3 or axes.shape[0] != doc["dof"]:
        raise ValueError("axes must be dof x 3")
    norms = np.linalg.norm(axes, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-length joint axis")
    if np.any(np.abs(norms - 1.0) > _AXIS_WARN_TOL):
        warn(f"normalizing joint axes off unit length by up to {np.max(np.abs(norms - 1.0)):.2e}")
    axes = axes / norms[:, None]
    return RobotModel(
        axes=axes,
        offsets=np.asarray(doc["offsets"], dtype=float),
        tool_offset=np.asarray(doc["tool_offset"], dtype=float),
        joint_limits=np.asarray(doc["joint_limits"], dtype=float) if "joint_limits" in doc else None,
        name=doc.get("name", ""),
    )


# --- path documents --------------------------------------------------------

def path_to_doc(poses: list[Pose], dlambda: float, frame: str, closed: bool,
                with_orientation: bool = True) -> dict:
    samples = []
    for pose in poses:
        entry = {"p": pose.position}
        if with_orientation:
            entry["q_wxyz"] = rotation_to_quat(pose.rotation)
        samples.append(entry)
    return to_jsonable({"frame": frame, "closed": closed,
                        "dlambda": dlambda, "samples": samples})


def poses_from_doc(doc: dict) -> tuple[list[Pose], float, str, bool]:
    for key in ("frame", "dlambda", "samples"):
        if key not in doc:
            raise ValueError(f"path document missing {key!r}")
    if doc["frame"] not in ("base", "workpiece"):
        raise ValueError("frame must be 'base' or 'workpiece'")
    if len(doc["samples"]) < 2:
        raise ValueError("path needs at least 2 samples")
    closed = doc.get("closed", False)
    if not isinstance(closed, bool):
        raise ValueError(f"closed must be true or false, got {closed!r}")
    poses = []
    for entry in doc["samples"]:
        p = np.asarray(entry["p"], dtype=float)
        if "q_wxyz" in entry:
            R = quat_to_rotation(np.asarray(entry["q_wxyz"], dtype=float))
        else:
            R = np.eye(3)
        poses.append(Pose(R, p))
    return poses, float(doc["dlambda"]), doc["frame"], closed


def _checked_spacing(path: TaskPath) -> TaskPath:
    """dlambda must match the mean step between sample positions within 2x
    either way: edge admission and the reported rms scale with it. Paths
    whose positions never move are exempt, their lambda is not a length."""
    steps = np.linalg.norm(np.diff([p.position for p in path.poses], axis=0), axis=1)
    mean = float(np.mean(steps))
    if mean > 0.0 and not 0.5 <= path.dlambda / mean <= 2.0:
        raise ValueError(f"dlambda {path.dlambda!r} disagrees with the mean sample "
                         f"spacing {mean!r} by more than 2x")
    return path


def task_path_from_doc(doc: dict) -> TaskPath:
    poses, dlambda, frame, closed = poses_from_doc(doc)
    if frame != "base":
        raise ValueError("planning expects a base-frame path; got a workpiece toolpath")
    return _checked_spacing(TaskPath(poses, dlambda=dlambda, closed=closed))


def toolpath_from_doc(doc: dict) -> TaskPath:
    poses, dlambda, frame, closed = poses_from_doc(doc)
    if frame != "workpiece":
        raise ValueError("optimization expects a workpiece-frame toolpath")
    return _checked_spacing(TaskPath(poses, dlambda=dlambda, closed=closed))


# --- helix generator -------------------------------------------------------

def generate_helix(radius: float = 0.3, pitch: float = 0.2, turns: float = 2.0,
                   samples: int = 500, orientation_mode: str = "fixed") -> dict:
    """Workpiece-frame helical toolpath document with equally spaced samples.

    Positions are (r cos t, r sin t, pitch*t/2pi); the per-sample spacing in
    lambda is the true arc length, which is constant for a helix. With
    pitch = 0 and integer turns the path closes; radius = 0 degenerates to a
    vertical segment (not allowed in tangent-following mode).
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not np.all(np.isfinite([radius, pitch, turns])):
        raise ValueError("radius, pitch and turns must be finite")
    if turns < 0:
        raise ValueError("turns must be >= 0")
    if orientation_mode not in ("fixed", "tangent-following"):
        raise ValueError("orientation_mode must be 'fixed' or 'tangent-following'")
    if orientation_mode == "tangent-following" and radius <= 0.0:
        raise ValueError("tangent-following orientation needs a positive radius")
    K = samples - 1
    t_end = 2.0 * np.pi * turns
    ts = np.linspace(0.0, t_end, samples)
    b = pitch / (2.0 * np.pi)
    arc_rate = float(np.hypot(radius, b))
    dlambda = arc_rate * t_end / K if t_end > 0 else 1.0 / K
    poses = []
    for t in ts:
        p = np.array([radius * np.cos(t), radius * np.sin(t), b * t])
        if orientation_mode == "fixed":
            R = np.eye(3)
        else:
            tangent = np.array([-radius * np.sin(t), radius * np.cos(t), b]) / arc_rate
            inward = np.array([-np.cos(t), -np.sin(t), 0.0])
            y = np.cross(tangent, inward)
            R = np.stack([inward, y, tangent], axis=1)
        poses.append(Pose(R, p))
    closed = pitch == 0.0 and float(turns) == int(turns) and turns > 0
    if closed:
        poses[-1] = Pose(poses[0].rotation.copy(), poses[0].position.copy())
    return path_to_doc(poses, dlambda, "workpiece", closed)

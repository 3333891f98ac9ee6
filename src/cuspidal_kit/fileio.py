"""File formats: robot and path JSON documents, result JSON, CSV emitters.

JSON keeps fixtures human-diffable; CSV carries plot matrices (joint
trajectories, determinant traces, optimization histories, solution-count
grids). All emitters are deterministic: sorted keys, repr-exact floats in
JSON, 17 significant digits in CSV.
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np

from .kinematics import Pose, RobotModel, rotation_to_quat, row_norms, unit_quat_matrix
from .planner import TaskPath

_AXIS_WARN_TOL = 1e-6


def write_text(path: str, text: str):
    """Write text and a newline to path; every result file goes through here."""
    with open(path, "w") as fp:
        fp.write(text + "\n")


def _plain(obj):
    """A numpy array or scalar as the plain Python value json.dumps writes."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dump_json(doc) -> str:
    """Strict JSON text of doc; NaN or infinity raises ValueError."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_plain)


def save_json(doc, path: str):
    write_text(path, dump_json(doc))


def load_json(path: str):
    with open(path) as fp:
        return json.load(fp)


def csv_text(header, rows) -> str:
    """CSV lines of header and rows; floats to 17 significant digits, the
    rest by str."""
    return "\n".join(",".join(f"{float(v):.17g}" if isinstance(v, (float, np.floating))
                              else str(v) for v in row) for row in [header, *rows])


def write_csv(path: str, header: list[str], rows):
    write_text(path, csv_text(header, rows))


# --- robot documents -------------------------------------------------------

def robot_to_doc(robot: RobotModel) -> dict:
    doc = {
        "name": robot.name,
        "dof": robot.dof,
        "axes": robot.axes.tolist(),
        "offsets": robot.offsets.tolist(),
        "tool_offset": robot.tool_offset.tolist(),
    }
    if robot.joint_limits is not None:
        doc["joint_limits"] = robot.joint_limits.tolist()
    return doc


def _as_floats(value) -> np.ndarray | None:
    """value as a float array, or None unless it is all numbers: the raw
    array's dtype is checked before the cast, so strings, booleans and nulls
    are refused rather than converted. numpy casts a boolean among numbers
    up to 0 or 1, so the entries themselves are checked for booleans too."""
    try:
        raw = np.asarray(value)
    except ValueError:
        return None
    if raw.dtype.kind not in "iuf":
        return None
    entries = [value]
    for _ in range(raw.ndim):
        entries = itertools.chain.from_iterable(entries)
    return None if bool in map(type, entries) else raw.astype(float)


def _require_object(doc, what: str):
    """Refuse a document whose JSON is not an object, before any key lookup:
    a string would answer `in` by substring and a list by membership."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object, got {type(doc).__name__}")


def _numbers(doc: dict, key: str) -> np.ndarray:
    value = _as_floats(doc[key])
    if value is None:
        raise ValueError(f"{key} must be numbers, got {doc[key]!r}")
    return value


def robot_from_doc(doc: dict) -> RobotModel:
    """The robot of a document; joint axes off unit length by more than
    _AXIS_WARN_TOL are normalized with a warning on stderr."""
    _require_object(doc, "robot")
    for key in ("dof", "axes", "offsets", "tool_offset"):
        if key not in doc:
            raise ValueError(f"robot document missing {key!r}")
    # a JSON true would otherwise count as 1
    if type(doc["dof"]) is not int:
        raise ValueError(f"dof must be an integer, got {doc['dof']!r}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    axes = _numbers(doc, "axes")
    if axes.ndim != 2 or axes.shape[1] != 3 or axes.shape[0] != doc["dof"]:
        raise ValueError("axes must be dof x 3")
    norms = np.linalg.norm(axes, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-length joint axis")
    if np.any(np.abs(norms - 1.0) > _AXIS_WARN_TOL):
        print(f"normalizing joint axes off unit length by up to "
              f"{np.max(np.abs(norms - 1.0)):.2e}", file=sys.stderr)
    axes = axes / norms[:, None]
    return RobotModel(
        axes=axes,
        offsets=_numbers(doc, "offsets"),
        tool_offset=_numbers(doc, "tool_offset"),
        joint_limits=_numbers(doc, "joint_limits") if "joint_limits" in doc else None,
        name=name,
    )


# --- path documents --------------------------------------------------------

def path_to_doc(poses: list[Pose], dlambda: float, frame: str, closed: bool,
                with_orientation: bool = True) -> dict:
    samples = []
    for pose in poses:
        entry = {"p": pose.position.tolist()}
        if with_orientation:
            entry["q_wxyz"] = rotation_to_quat(pose.rotation).tolist()
        samples.append(entry)
    return {"frame": frame, "closed": bool(closed), "dlambda": float(dlambda),
            "samples": samples}


def _sample_rows(samples, ks, key: str, width: int, what: str) -> np.ndarray:
    """samples[k][key] for k in ks as one (len(ks), width) float array; the
    first of those samples whose entry is not `width` numbers raises a
    ValueError that names it."""
    try:
        rows = _as_floats([samples[k][key] for k in ks])
    except (TypeError, KeyError):
        rows = None
    if rows is not None and rows.shape == (len(ks), width):
        return rows
    for k in ks:
        entry = samples[k]
        if not isinstance(entry, dict) or key not in entry:
            raise ValueError(f"sample {k} has no {what}")
        row = _as_floats(entry[key])
        if row is None or row.shape != (width,):
            raise ValueError(f"sample {k}: {what} must be {width} numbers, got {entry[key]!r}")
    raise ValueError(f"samples do not stack into a ({len(ks)}, {width}) {what} array")


def _path_from_doc(doc: dict, frame: str, wrong_frame: str) -> TaskPath:
    """The TaskPath of a path document, its positions and rotations each
    built in one pass; a sample without q_wxyz takes the identity rotation.
    A bad field or sample raises ValueError naming it, a frame other than
    `frame` raises wrong_frame, and dlambda must match the mean step between
    sample positions within 2x either way: edge admission and the reported
    rms scale with it. Paths whose positions never move are exempt from
    that, their lambda is not a length."""
    _require_object(doc, "path")
    for key in ("frame", "dlambda", "samples"):
        if key not in doc:
            raise ValueError(f"path document missing {key!r}")
    if doc["frame"] not in ("base", "workpiece"):
        raise ValueError("frame must be 'base' or 'workpiece'")
    samples = doc["samples"]
    if not isinstance(samples, list):
        raise ValueError(f"samples must be a list, got {samples!r}")
    n = len(samples)
    if n < 2:
        raise ValueError(f"path needs at least 2 samples, got {n}")
    if type(doc["dlambda"]) not in (int, float):
        raise ValueError(f"dlambda must be a number, got {doc['dlambda']!r}")
    closed = doc.get("closed", False)
    if not isinstance(closed, bool):
        raise ValueError(f"closed must be true or false, got {closed!r}")
    positions = _sample_rows(samples, range(n), "p", 3, "position p")
    rotations = np.tile(np.eye(3), (n, 1, 1))
    oriented = [k for k, entry in enumerate(samples) if "q_wxyz" in entry]
    if oriented:
        quats = _sample_rows(samples, oriented, "q_wxyz", 4, "quaternion q_wxyz")
        norms = row_norms(quats)
        bad = ~(np.isfinite(norms) & (norms > 0.0))
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"sample {oriented[i]}: quaternion q_wxyz must have a finite "
                             f"nonzero norm, got {quats[i].tolist()}")
        rotations[oriented] = np.moveaxis(unit_quat_matrix(*(quats / norms[:, None]).T), -1, 0)
    if doc["frame"] != frame:
        raise ValueError(wrong_frame)
    path = TaskPath(positions, rotations, float(doc["dlambda"]), closed)
    mean = float(np.mean(np.linalg.norm(np.diff(path.positions, axis=0), axis=1)))
    if mean > 0.0 and not 0.5 <= path.dlambda / mean <= 2.0:
        raise ValueError(f"dlambda {path.dlambda!r} disagrees with the mean sample "
                         f"spacing {mean!r} by more than 2x")
    return path


def task_path_from_doc(doc: dict) -> TaskPath:
    return _path_from_doc(doc, "base", "planning expects a base-frame path; "
                                       "got a workpiece toolpath")


def toolpath_from_doc(doc: dict) -> TaskPath:
    return _path_from_doc(doc, "workpiece", "optimization expects a workpiece-frame toolpath")


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

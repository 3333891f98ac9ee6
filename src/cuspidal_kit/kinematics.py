"""Product-of-exponentials kinematics for serial revolute arms.

A robot is described by unit joint axes h_i (each expressed in link frame
i-1), inter-frame offsets p_{i-1,i}, and a tool offset p_{nT}. Forward
kinematics walks the chain: translate by the offset, rotate about the joint
axis, repeat, then apply the tool offset. Everything here is a pure function
of its inputs; batched variants (leading N axis) carry the heavy load for
the IK engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

ORTHONORMAL_TOL = 1e-9
UNIT_AXIS_TOL = 1e-12


def wrap_to_pi(dq):
    """Wrap angles elementwise to (-pi, pi]; wrap_to_pi(pi) == pi."""
    dq = np.asarray(dq, dtype=float)
    return np.pi - np.mod(np.pi - dq, TWO_PI)


@dataclass(frozen=True)
class CylindricalPoint:
    rho: float
    phi: float
    z: float


def to_cylindrical(p) -> CylindricalPoint:
    """Cartesian (x, y, z) -> (rho, phi, z) with phi = 0 on the axis rho = 0."""
    x, y, z = np.asarray(p, dtype=float)
    rho = float(np.hypot(x, y))
    phi = float(np.arctan2(y, x)) if rho > 0.0 else 0.0
    return CylindricalPoint(rho, phi, float(z))


def skew(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rot_about_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    K = skew(axis)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def is_rotation(R, tol: float = ORTHONORMAL_TOL) -> bool:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.all(np.isfinite(R)):
        return False
    return (np.max(np.abs(R.T @ R - np.eye(3))) < tol
            and abs(np.linalg.det(R) - 1.0) < tol)


def rotation_angle(R) -> float:
    """Geodesic angle of a rotation matrix, in [0, pi]."""
    c = (np.trace(R) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def geodesic_distance(Ra, Rb) -> float:
    """Angle of the relative rotation Ra^T Rb."""
    return rotation_angle(np.asarray(Ra).T @ np.asarray(Rb))


def quat_to_rotation(q_wxyz) -> np.ndarray:
    """Unit-quaternion (w, x, y, z) to rotation matrix; normalizes first."""
    w, x, y, z = np.asarray(q_wxyz, dtype=float) / np.linalg.norm(q_wxyz)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def rotation_to_quat(R) -> np.ndarray:
    """Rotation matrix to unit quaternion (w, x, y, z), w >= 0.

    The dominant component comes from a square root; the rest divide
    off-diagonal terms by it, which keeps near-zero components accurate to
    machine precision instead of sqrt(eps).
    """
    R = np.asarray(R, dtype=float)
    t = np.array([
        1.0 + R[0, 0] + R[1, 1] + R[2, 2],
        1.0 + R[0, 0] - R[1, 1] - R[2, 2],
        1.0 - R[0, 0] + R[1, 1] - R[2, 2],
        1.0 - R[0, 0] - R[1, 1] + R[2, 2],
    ])
    k = int(np.argmax(t))
    s = 2.0 * np.sqrt(max(t[k], 0.0))
    if k == 0:
        q = np.array([s / 4.0, (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    elif k == 1:
        q = np.array([(R[2, 1] - R[1, 2]) / s, s / 4.0,
                      (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s])
    elif k == 2:
        q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s,
                      s / 4.0, (R[1, 2] + R[2, 1]) / s])
    else:
        q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s, s / 4.0])
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


@dataclass(frozen=True)
class Pose:
    """Rigid pose: 3x3 rotation and position in meters."""
    rotation: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))


def pose_difference(a: Pose, b: Pose, position_only: bool = False) -> float:
    """Position error (m) plus orientation geodesic angle (rad)."""
    err = float(np.linalg.norm(a.position - b.position))
    if not position_only:
        err += geodesic_distance(a.rotation, b.rotation)
    return err


class RobotModel:
    """Serial revolute arm in product-of-exponentials form.

    axes[i] is the unit direction of joint i+1 in frame i; offsets[i] is
    p_{i,i+1} expressed in frame i; tool_offset is p_{nT} in frame n.
    Joint limits are optional and may exceed +-pi to encode multi-turn
    ranges.
    """

    def __init__(self, axes, offsets, tool_offset, joint_limits=None, name: str = ""):
        self.axes = np.atleast_2d(np.asarray(axes, dtype=float))
        self.offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
        self.tool_offset = np.asarray(tool_offset, dtype=float)
        self.name = name
        if self.axes.shape != self.offsets.shape or self.axes.shape[1] != 3:
            raise ValueError("axes and offsets must both be (dof, 3)")
        if self.tool_offset.shape != (3,):
            raise ValueError("tool_offset must be a 3-vector")
        if not (np.isfinite(self.axes).all() and np.isfinite(self.offsets).all()
                and np.isfinite(self.tool_offset).all()):
            raise ValueError("axes, offsets and tool_offset must be finite")
        norms = np.linalg.norm(self.axes, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_AXIS_TOL):
            raise ValueError("joint axes must be unit vectors")
        if joint_limits is not None:
            joint_limits = np.asarray(joint_limits, dtype=float)
            if joint_limits.shape != (self.dof, 2):
                raise ValueError("joint_limits must be (dof, 2)")
            if np.isnan(joint_limits).any():
                raise ValueError("joint_limits must not be NaN")
            if np.any(joint_limits[:, 0] >= joint_limits[:, 1]):
                raise ValueError("each joint limit must satisfy lo < hi")
        self.joint_limits = joint_limits
        # fixed per-axis Rodrigues terms, reused by the batched kernels
        self._K = np.stack([skew(h) for h in self.axes])
        self._K2 = np.stack([K @ K for K in self._K])

    @property
    def dof(self) -> int:
        return self.axes.shape[0]

    def __repr__(self):
        return f"RobotModel(name={self.name!r}, dof={self.dof})"

    def _check_q(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dof,):
            raise ValueError(f"expected joint vector of length {self.dof}, got shape {q.shape}")
        return q


def fk_batch(robot: RobotModel, Q: np.ndarray):
    """Forward kinematics for a batch of joint vectors Q (N, dof).

    Returns (R, p): rotations (N, 3, 3) of the task frame and positions
    (N, 3).
    """
    Q = np.asarray(Q, dtype=float)
    N = Q.shape[0]
    s, c = np.sin(Q), np.cos(Q)
    R = np.broadcast_to(np.eye(3), (N, 3, 3)).copy()
    p = np.broadcast_to(robot.offsets[0], (N, 3)).copy()
    eye = np.eye(3)
    for i in range(robot.dof):
        if i > 0:
            p += np.einsum("nij,j->ni", R, robot.offsets[i])
        Ri = (eye + s[:, i, None, None] * robot._K[i]
              + (1.0 - c[:, i, None, None]) * robot._K2[i])
        R = R @ Ri
    p += np.einsum("nij,j->ni", R, robot.tool_offset)
    return R, p


def _dot(a, b):
    """Sum of a[k] * b[k], left to right, for (N,) arrays and Python floats.

    Float factors of exactly 0 or 1 fold away, so a product of fixed-axis
    terms costs only the entries that actually vary.
    """
    acc = 0.0
    for x, y in zip(a, b):
        if x.__class__ is float:
            x, y = y, x
        if y.__class__ is float:
            if y == 0.0 or (x.__class__ is float and x == 0.0):
                continue
            t = x if y == 1.0 else x * y
        else:
            t = x * y
        acc = t if acc.__class__ is float and acc == 0.0 else acc + t
    return acc


def _add(a, b):
    return _dot((a, b), (1.0, 1.0))


def _sub(a, b):
    """a - b, folding a float b of 0."""
    return a if b.__class__ is float and b == 0.0 else a - b


def fk_jacobian_batch(robot: RobotModel, Q: np.ndarray):
    """FK plus geometric Jacobian for a batch of joint vectors Q (N, dof).

    Returns (R, p, J): R (N, 3, 3), p (N, 3) and J of shape (N, 3, dof)
    for 3-DOF arms (position rows only) and (N, 6, dof) otherwise (linear
    velocity of the tool point stacked over angular velocity, both in the
    base frame).

    The chain is walked joint-major, one (N,) array per matrix entry, so
    every row is computed by the same elementwise operations whatever batch
    it sits in. Entries that the fixed axes make exactly 0 or 1 stay Python
    scalars and drop out of the products. The results are written into
    contiguous (3, 3, N), (3, N) and (m, dof, N) buffers and returned as
    transposed views of them.
    """
    Q = np.asarray(Q, dtype=float)
    N, n = Q.shape
    QT = np.ascontiguousarray(Q.T)
    s, c = np.sin(QT), np.cos(QT)
    K, K2 = robot._K.tolist(), robot._K2.tolist()
    R = np.eye(3).tolist()
    o = robot.offsets[0].tolist()
    origins, axes_w = [], []
    for i in range(n):
        if i > 0:
            off = robot.offsets[i].tolist()
            o = [_add(o[a], _dot(R[a], off)) for a in range(3)]
        h = robot.axes[i].tolist()
        axes_w.append([_dot(R[a], h) for a in range(3)])
        origins.append(o)
        # Rodrigues entries I + sin(q) K + (1 - cos(q)) K^2
        omc = 1.0 - c[i]
        Ri = [[_dot((s[i], omc, 1.0), (K[i][a][b], K2[i][a][b], float(a == b)))
               for b in range(3)] for a in range(3)]
        R = [[_dot(R[a], [Ri[k][b] for k in range(3)]) for b in range(3)]
             for a in range(3)]
    tool = robot.tool_offset.tolist()
    p = [_add(o[a], _dot(R[a], tool)) for a in range(3)]
    m = 3 if n == 3 else 6
    Rb, pb, Jb = np.empty((3, 3, N)), np.empty((3, N)), np.empty((m, n, N))
    for a in range(3):
        pb[a] = p[a]
        for b in range(3):
            Rb[a, b] = R[a][b]
    for i in range(n):
        z = axes_w[i]
        lever = [_sub(p[a], origins[i][a]) for a in range(3)]
        for a in range(3):
            b, d = (a + 1) % 3, (a + 2) % 3
            Jb[a, i] = _sub(_dot((z[b],), (lever[d],)), _dot((z[d],), (lever[b],)))
            if m == 6:
                Jb[3 + a, i] = z[a]
    return Rb.transpose(2, 0, 1), pb.T, Jb.transpose(2, 0, 1)


def _det3_batch(A: np.ndarray) -> np.ndarray:
    """Determinants of a batch of 3x3 matrices without LAPACK overhead."""
    return (A[:, 0, 0] * (A[:, 1, 1] * A[:, 2, 2] - A[:, 1, 2] * A[:, 2, 1])
            - A[:, 0, 1] * (A[:, 1, 0] * A[:, 2, 2] - A[:, 1, 2] * A[:, 2, 0])
            + A[:, 0, 2] * (A[:, 1, 0] * A[:, 2, 1] - A[:, 1, 1] * A[:, 2, 0]))


def jacobian_dets(J: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square Jacobians (N, n, n), any layout.

    Each determinant depends on its own matrix only, so a row gets the same
    bits in any batch.
    """
    if J.shape[1] == 3:
        return _det3_batch(J)
    return np.linalg.det(J)


def det_j_batch(robot: RobotModel, Q: np.ndarray) -> np.ndarray:
    """Jacobian determinants for a batch of joint vectors."""
    return jacobian_dets(fk_jacobian_batch(robot, Q)[2])


def forward_kinematics(robot: RobotModel, q) -> Pose:
    """Task-frame pose for one joint vector.

    For 3-DOF arms the rotation field is the orientation of the last link
    frame; only the position takes part in IK.
    """
    q = robot._check_q(q)
    R, p = fk_batch(robot, q[None, :])
    return Pose(R[0], p[0])


def jacobian(robot: RobotModel, q) -> np.ndarray:
    """Geometric Jacobian: 3x3 position Jacobian for 3-DOF arms, else 6xn."""
    q = robot._check_q(q)
    _, _, J = fk_jacobian_batch(robot, q[None, :])
    return J[0]


def jacobian_determinant(robot: RobotModel, q) -> float:
    """det(J) at q; raises for redundant (non-square Jacobian) robots."""
    J = jacobian(robot, q)
    if J.shape[0] != J.shape[1]:
        raise ValueError(f"Jacobian is {J.shape[0]}x{J.shape[1]}; determinant requires a square Jacobian")
    return float(np.linalg.det(J))


def manipulability(robot: RobotModel, q, W=None) -> float:
    """Yoshikawa measure sqrt(det(J W J^T)) with an SPD joint weight W."""
    J = jacobian(robot, q)
    n = robot.dof
    if W is None:
        W = np.eye(n)
    else:
        W = np.asarray(W, dtype=float)
        if W.shape != (n, n):
            raise ValueError(f"W must be {n}x{n}")
        if np.max(np.abs(W - W.T)) > 1e-9:
            raise ValueError("W must be symmetric positive definite")
        try:
            np.linalg.cholesky(W)
        except np.linalg.LinAlgError:
            raise ValueError("W must be symmetric positive definite") from None
    if J.shape[0] == J.shape[1]:
        # det(J W J^T) = det(J)^2 det(W); the factored form keeps mu exact
        # at rank-deficient configurations where the Gram determinant drowns
        # in roundoff
        return float(abs(np.linalg.det(J)) * np.sqrt(np.linalg.det(W)))
    g = np.linalg.det(J @ W @ J.T)
    return float(np.sqrt(max(g, 0.0)))

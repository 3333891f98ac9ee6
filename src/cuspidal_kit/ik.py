"""Enumeration of all isolated IK solutions from candidate starts.

Each start runs damped least squares until it converges, stalls at a
boundary local minimum (a continuous approximate solution), or gives up.
One wrap-aware dedup rule (_dedup) turns the survivors into solutions:
exact before approximate, then by seed, each is kept unless it lies within
its own radius of one already kept.

Where the starts come from depends on the arm. A 3-DOF arm's position
equations reduce to one equation in theta3 (_reduce_3r: a quartic in
tan(theta3 / 2), or one linear branch), which gives at most four algebraic
starts per target, one per root; a complex pair of roots gives one start
only where the target may lie within APPROX_TOL of a fold (_near_fold),
the only place where a start that is not a root can bank. A 6-DOF arm with
h2 = h3 = h4 reduces to a quartic in tan(q1 / 2) and subproblems
(_reduce_6r), which gives at most eight starts per target, two per root.
LM only polishes the starts of both closed forms, for at most
_POLISH_ITERS iterations. A 3-DOF arm that does not reduce, or a 6-DOF
arm with two consecutive coaxial joints, has det J = 0 for every joint
vector and no isolated solutions, so it is refused. Other 6-DOF
arms start from a regular joint-space seed grid; seeds_per_joint (the
CLI's --ik-seeds) sets that grid and nothing else.

The engine iterates one flat population of (target, seed) rows, so a whole
task-space path can be refined in a handful of large numpy batches; a
single-target solve is just a population with one target. Rows of
different targets never interact and every per-row operation is
elementwise, which keeps the result identical, bit for bit, however the
population is batched, chunked or threaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import (  # noqa: F401  det_j_batch: see below
    Pose,
    RobotModel,
    det_j_batch,
    fk_jacobian_batch,
    jacobian_dets,
    per_robot,
    wrap_to_pi,
)

# det_j_batch is not called here (a solution's det_j comes from the Jacobian
# the LM loop already holds) but stays importable from this module, because
# perfbench/tracing.py wraps ik.det_j_batch as well as ik.fk_jacobian_batch

# iterates of the same target in the same cell of this size (per joint, after
# wrapping) are assumed to share a basin and are merged onto the lowest seed
# index while their target has more than _COALESCE_MIN_ROWS live rows; only
# seed grids (6-DOF arms without the closed form) start with that many, and
# completeness under this shortcut is covered by
# tests/test_ik.py::TestCoalescing::test_coalescing_keeps_every_exact_root_6r
# on such an arm
_COALESCE_CELL = 0.3
_COALESCE_START_ITER = 2
_COALESCE_MIN_ROWS = 64
# rows this close to a root (meters+radians of residual) are exempt from
# coalescing: distinct near-fold roots can sit closer than the cell size
_COALESCE_RESID_GUARD = 1e-2
_STALL_LIMIT = 4
_STALL_REL_IMPROVEMENT = 1e-3
_CHUNK_ROWS = 150_000
_STEP_BLOCK = 4096
# boundary local minima are valley-shaped; stalled points this close (rad)
# describe the same continuous approximate solution
_APPROX_DEDUP = 0.05
_LAM_GROW = 10.0
_LAM_SHRINK = 0.3
_LAM_MAX = 1e8
# initial and minimum per-row damping
_DAMPING = 1e-4
# LM budget of the 6R seed grid
_MAX_REFINE_ITERS = 100
# LM budget of the closed forms' starts: a root's start banks by the second
# iteration; starts that are not roots (3R: complex pairs of targets near a
# fold) and still move after this many are searching, which found no root
# the algebra had not given on 4000 6R poses and 3000 random 3R targets
_POLISH_ITERS = 6
# exact solutions closer than this (per joint, after wrapping) are one solution
_DEDUP_TOL = 1e-4
# a root banks as exact at residual <= EXACT_TOL and as approximate at
# <= APPROX_TOL
EXACT_TOL = 1e-8
APPROX_TOL = 1e-3


@dataclass
class IKConfig:
    """The IK settings a caller chooses.

    seeds_per_joint sets the seed grid of 6-DOF arms without h2 = h3 = h4
    only, 8 per joint when left as None; 3-DOF arms and 6-DOF arms with
    that structure are solved in closed form and ignore it. threads is how
    many chunks of a path are refined at once; it never changes a result.
    """
    seeds_per_joint: int | None = None
    threads: int = 1

    def __post_init__(self):
        if self.seeds_per_joint is not None and self.seeds_per_joint < 1:
            raise ValueError("seeds_per_joint must be >= 1")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    def resolve_seeds(self, dof: int) -> int:
        return 8 if self.seeds_per_joint is None else self.seeds_per_joint


@dataclass
class IKSolution:
    """One isolated joint-space preimage of a pose.

    residual sums position error (m) and orientation geodesic error (rad);
    approximate marks boundary local minima where exact IK ceases to exist.
    """
    q: np.ndarray
    residual: float
    det_j: float
    approximate: bool


@dataclass
class IKSolutionSet:
    solutions: list[IKSolution]


def seed_grid(dof: int, seeds_per_joint: int) -> np.ndarray:
    """Regular grid of bin-center seeds over (-pi, pi]^dof, row-major order."""
    centers = -np.pi + (np.arange(seeds_per_joint) + 0.5) * (2.0 * np.pi / seeds_per_joint)
    grids = np.meshgrid(*([centers] * dof), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True)
class _Reduced3R:
    """Robot constants of the closed-form 3R position IK.

    With x = p - o1 and u(theta3) = p23 + R3 p3T, the invariants |x|^2 and
    h1.x of joint 1 are linear in R2 u = (h2.u) h2 + w, w normal to h2:
    M w = e, where M holds p12 and h1 in the basis (b1, b2) of h2's normal
    plane and e = (|x|^2 / 2, h1.x) + E v, v = (1, cos theta3, sin theta3).
    Rotating about h2 keeps |w|^2 = |u_perp|^2 = v U v. With M invertible,
    w = minv e turns that into a quartic in tan(theta3 / 2); with M of rank
    one, the left null vector null gives null.e = 0, linear in v, so at most
    two theta3, and with M = sigma l m^T, w lies on the line
    m.w = l.e / sigma along d normal to m, which meets the circle
    |w| = |u_perp| at most twice.
    """
    h1: np.ndarray
    h2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    p12: np.ndarray
    g: np.ndarray       # h2.u over v
    ub: np.ndarray      # (2, 3): u.b1 and u.b2 over v
    E: np.ndarray       # (2, 3)
    U: np.ndarray       # (3, 3)
    minv: np.ndarray | None = None    # quartic branch: M^-1
    norms: tuple = ()                 # quartic branch: |M^-1|, |M^-1 E[:, 1:]|
    null: np.ndarray | None = None    # linear branch: left null vector of M
    line: np.ndarray | None = None    # linear branch: l / sigma, m, d


# a det M this small relative to its rows' norms, or a theta3 coefficient
# this small relative to the squared arm length, counts as zero
_BRANCH_TOL = 1e-9
# a quartic whose end coefficients both fall below this share of its largest
# has roots at t = 0 and t = inf; the companion needs a nonzero lead
_LEAD_FLOOR = 1e-14


@per_robot
def _reduce_3r(robot: RobotModel) -> _Reduced3R:
    """The closed-form reduction of a 3-DOF arm, built once per geometry.

    Raises ValueError for an arm whose reduced equation does not depend on
    theta3 for a generic target or whose M vanishes: its det J vanishes for
    every joint vector, so no target has isolated solutions.
    """
    h1, h2, h3 = robot.axes
    p12, p23, tool = robot.offsets[1], robot.offsets[2], robot.tool_offset
    # u = v . (u[0], u[1], u[2]); u[1] and u[2] are orthogonal, equally long
    u = np.stack([p23 + (h3 @ tool) * h3, tool - (h3 @ tool) * h3, np.cross(h3, tool)])
    k = int(np.argmin(np.abs(h2)))
    b1 = np.eye(3)[k] - h2[k] * h2
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(h2, b1)
    g = u @ h2
    sq = u @ u[0]   # on the unit circle |u|^2 = sq[0] + |u[1]|^2 + 2 (sq[1] c + sq[2] s)
    E = -np.outer([p12 @ h2, h1 @ h2], g)
    E[0] -= [(p12 @ p12 + sq[0] + u[1] @ u[1]) / 2.0, sq[1], sq[2]]
    E[1, 0] -= h1 @ p12
    U = -np.outer(g, g)
    U[0] += [sq[0] + u[1] @ u[1], sq[1], sq[2]]
    U[1:, 0] += sq[1:]
    M = np.array([[p12 @ b1, p12 @ b2], [h1 @ b1, h1 @ b2]])
    floor = _BRANCH_TOL * max(1.0, np.linalg.norm(p12) + np.linalg.norm(p23)
                              + np.linalg.norm(tool)) ** 2
    const = dict(h1=h1, h2=h2, b1=b1, b2=b2, p12=p12, g=g,
                 ub=np.stack([u @ b1, u @ b2]), E=E, U=U)
    norms = np.linalg.norm(M, axis=1)
    if abs(np.linalg.det(M)) > _BRANCH_TOL * norms[0] * norms[1]:
        minv = np.linalg.inv(M)
        B = minv @ E[:, 1:]
        # theta3 terms of the reduced equation for a free minv e
        terms = np.concatenate([B.ravel(), [U[0, 1], U[0, 2], U[1, 1] - U[2, 2], U[1, 2]]])
        if np.abs(terms).max() > floor:
            return _Reduced3R(minv=minv, norms=(np.linalg.norm(minv, 2), np.linalg.norm(B, 2)),
                              **const)
    else:
        left, sv, right = np.linalg.svd(M)
        null = left[:, 1]
        if sv[0] > _BRANCH_TOL and np.abs(null @ E[:, 1:]).max() > floor:
            return _Reduced3R(null=null, line=np.stack([left[:, 0] / sv[0], right[0], right[1]]),
                              **const)
    raise ValueError(f"robot {robot.name!r} has no isolated IK solutions: "
                     f"det J vanishes for every joint vector")


def _quartic_theta3(red: _Reduced3R, x, e1, e2):
    """theta3 (k, 4) of the quartic's roots for targets x = p - o1 (3, k)
    with e = (e1, e2) at v = (1, 0, 0), and which of them to keep: every
    real root, and a complex pair's start only where _near_fold keeps it."""
    (m00, m01), (m10, m11) = red.minv
    a1, a2 = m00 * e1 + m01 * e2, m10 * e1 + m11 * e2
    B = red.minv @ red.E[:, 1:]
    U = red.U
    # |w|^2 - |u_perp|^2 = v Q v; only the row and column of 1 vary
    q00 = a1 * a1 + a2 * a2 - U[0, 0]
    q01 = a1 * B[0, 0] + a2 * B[1, 0] - U[0, 1]
    q02 = a1 * B[0, 1] + a2 * B[1, 1] - U[0, 2]
    q11, q12, q22 = (B.T @ B - U[1:, 1:])[[0, 0, 1], [0, 1, 1]]
    theta3, keep, real = _quartic_roots(q00, q01, q02, q11, q12, q22)
    pair = np.flatnonzero((keep & ~real).any(axis=1))
    far = pair[~_near_fold(red, x[:, pair], np.hypot(a1, a2)[pair], q00[pair], q01[pair],
                           q02[pair], q11, q12, q22)]
    keep[far] = real[far]
    return theta3, keep


def _near_fold(red: _Reduced3R, x, a, q00, q01, q02, q11, q12, q22):
    """Which of k targets x = p - o1 (3, k) may lie within r = APPROX_TOL of
    a critical value; a = |M^-1 e| and q.. are v Q v's entries. Only there
    can a start that is not a root bank: at a boundary minimum q*, J^T (x -
    FK(q*)) = 0, so det J(q*) = rho det d(rho, z)/d(theta2, theta3) = 0, and
    FK(q*) is on joint 1's axis or makes F = v Q v = F' = 0 at one theta3.
    Moving x by r moves M^-1 e by at most D = |M^-1| |(|x| r + r^2 / 2, r)|,
    F by t0 = 2 D (a + |B|) + D^2 and F' by t1 = 2 D |B|, B = M^-1 E[:, 1:].
    F = c0 + c1 cos + s1 sin + c2 cos 2th + s2 sin 2th has |F'''| <= L =
    |(c1, s1)| + 8 |(c2, s2)|, so Taylor bounds rule out theta cells (split
    in four while live) that hold no theta with |F| <= t0 and |F'| <= t1; a
    target is near once a centre lies in that set or a live cell's F' margin
    is within t1.
    """
    r, (nm, nb), xx = APPROX_TOL, red.norms, _dot3(x, x)
    D = nm * np.sqrt((np.sqrt(xx) * r + 0.5 * r * r) ** 2 + r * r)
    c2, s2 = 0.5 * (q11 - q22), q12
    # per target: c0, c1, s1, t0, t1 and L
    per = np.stack([q00 + 0.5 * (q11 + q22), 2.0 * q01, 2.0 * q02, D * (2.0 * (a + nb) + D),
                    2.0 * D * nb, 2.0 * np.hypot(q01, q02) + 8.0 * np.hypot(c2, s2)])
    near = xx - _dot3(red.h1, x) ** 2 <= r * r
    # each target's 16 cells, of half-width d about theta
    cell, d = np.repeat(np.arange(x.shape[1]), 16), np.pi / 16
    theta = np.tile(np.arange(-15.0, 16.0, 2.0) * d, x.shape[1])
    while cell.size:
        c0, c1, s1, t0, t1, L = per[:, cell]
        c, s = np.cos(theta), np.sin(theta)
        cc, ss = c * c - s * s, 2.0 * c * s
        f1, f2 = c1 * c + s1 * s, c2 * cc + s2 * ss
        F, dF = np.abs(c0 + f1 + f2), np.abs(s1 * c - c1 * s + 2.0 * (s2 * cc - c2 * ss))
        m2 = np.abs(f1 + 4.0 * f2) + L * d    # |F''| over the cell
        live = ((dF <= t1 + (m2 - 0.5 * L * d) * d)
                & (F <= t0 + (np.minimum(dF, t1) + 0.5 * m2 * d) * d))
        near[cell[live & ((m2 * d <= t1) | ((F <= t0) & (dF <= t1)))]] = True
        live &= ~near[cell]
        theta = (theta[live, None] + d * np.array([-0.75, -0.25, 0.25, 0.75])).ravel()
        cell, d = np.repeat(cell[live], 4), 0.25 * d
    return near


def _quartic_roots(q00, q01, q02, q11, q12, q22):
    """Angles (k, 4) that solve v Q v = 0, v = (1, cos, sin), for k
    symmetric Q given by their upper entries, which to keep (every real root
    and one of each complex pair, whose real part in t = tan(angle / 2) is
    a start) and which are real (LAPACK's imaginary part is exactly 0).

    When |t^4 coefficient| < |t^0 coefficient| the quartic is solved in 1/t,
    so a root at angle pi, where the t^4 coefficient vanishes, is r = 0.
    """
    # times (1 + t^2)^2, with cos = (1 - t^2) / (1 + t^2), sin = 2t / (1 + t^2)
    poly = np.stack([q00 - 2.0 * q01 + q11, 4.0 * (q02 - q12),
                     2.0 * (q00 - q11) + 4.0 * q22, 4.0 * (q02 + q12),
                     q00 + 2.0 * q01 + q11], axis=-1)
    flip = np.abs(poly[:, 4]) > np.abs(poly[:, 0])
    poly = np.where(flip[:, None], poly[:, ::-1], poly)
    floor = _LEAD_FLOOR * np.abs(poly).max(axis=1)
    lead = np.where(np.abs(poly[:, 0]) >= floor, poly[:, 0], floor)
    companion = np.zeros((poly.shape[0], 4, 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        companion[:, 0] = -poly[:, 1:] / lead[:, None]
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    # no isolated roots for a quartic that vanishes (every angle solves it)
    # or a non-finite target; LAPACK would refuse those rows
    finite = np.isfinite(companion[:, 0]).all(axis=1)
    companion[~finite, 0] = 0.0
    roots = np.linalg.eigvals(companion)
    # Re t of a root r of the flipped quartic is Re r / |r|^2; r = 0 is pi
    den = np.where(flip[:, None], roots.real ** 2 + roots.imag ** 2, 1.0)
    angle = np.where(den == 0.0, np.pi, 2.0 * np.arctan2(roots.real, den))
    return angle, (roots.imag >= 0.0) & finite[:, None], roots.imag == 0.0


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross3(u, v):
    return np.stack([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _rotate(h, c, s, v):
    """Rotation about a fixed unit axis h (3,) by the angle with cosine c and
    sine s, applied to vectors v (3, ...), entry by entry."""
    h = h.reshape((3,) + (1,) * (np.ndim(v) - 1))
    along = _dot3(h, v) * h
    return along + c * (v - along) + s * _cross3(h, v)


def _sp1(h, u, v):
    """Paden-Kahan subproblem 1: the angle about h (3,) that turns u (3, ...)
    onto v (3, ...) as nearly as it can."""
    h = h.reshape((3,) + (1,) * (np.ndim(u) - 1))
    return np.arctan2(_dot3(h, _cross3(u, v)), _dot3(u, v) - _dot3(h, u) * _dot3(h, v))


# the terms of a target too far away to square overflow: its quartic is
# not finite, so keep drops it, and NaN candidates drop out of the LM
@np.errstate(over="ignore", invalid="ignore")
def _algebraic_starts(red: _Reduced3R, x):
    """Closed-form candidates of k position targets x = p - o1 (3, k).

    Returns joint vectors (k, 4, 3) and which to keep (k, 4). Every
    operation is elementwise over targets or, for the roots, one LAPACK
    call per target's own companion matrix, so a target's candidates do not
    depend on the batch.
    """
    e1 = 0.5 * _dot3(x, x) + red.E[0, 0]
    e2 = _dot3(red.h1, x) + red.E[1, 0]
    E = red.E
    if red.minv is not None:
        theta3, keep = _quartic_theta3(red, x, e1, e2)
    else:
        # null.e = 0 is rho cos(theta3 - phi) = -alpha; unreachable targets
        # take the nearest theta3, as a complex pair takes its real part
        beta, gamma = red.null @ E[:, 1:]
        alpha = red.null[0] * e1 + red.null[1] * e2
        psi = np.arccos(np.clip(-alpha / np.hypot(beta, gamma), -1.0, 1.0))
        theta3 = np.arctan2(gamma, beta) + psi[:, None] * np.array([-1.0, -1.0, 1.0, 1.0])
        keep = np.ones(theta3.shape, dtype=bool)
    c, s = np.cos(theta3), np.sin(theta3)
    ub1 = red.ub[0, 0] + red.ub[0, 1] * c + red.ub[0, 2] * s
    ub2 = red.ub[1, 0] + red.ub[1, 1] * c + red.ub[1, 2] * s
    ea = e1[:, None] + E[0, 1] * c + E[0, 2] * s
    eb = e2[:, None] + E[1, 1] * c + E[1, 2] * s
    if red.minv is not None:
        (m00, m01), (m10, m11) = red.minv
        w1, w2 = m00 * ea + m01 * eb, m10 * ea + m11 * eb
    else:
        # the line m.w = l.e / sigma meets the circle |w| = |u_perp|; a miss
        # takes the line's nearest point
        l_sig, m, d = red.line
        mu = l_sig[0] * ea + l_sig[1] * eb
        lam = np.sqrt(np.maximum(ub1 * ub1 + ub2 * ub2 - mu * mu, 0.0))
        lam = lam * np.array([-1.0, 1.0, -1.0, 1.0])
        w1, w2 = mu * m[0] + lam * d[0], mu * m[1] + lam * d[1]
    # theta2 = SP1(h2, u_perp, w) in the (b1, b2) plane
    theta2 = np.arctan2(ub1 * w2 - ub2 * w1, ub1 * w1 + ub2 * w2)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    r1, r2 = c2 * ub1 - s2 * ub2, s2 * ub1 + c2 * ub2
    gu = red.g[0] + red.g[1] * c + red.g[2] * s
    # theta1 = SP1(h1, v, x) with v = p12 + R2 u
    v = [red.p12[i] + gu * red.h2[i] + r1 * red.b1[i] + r2 * red.b2[i] for i in range(3)]
    theta1 = _sp1(red.h1, v, x[:, :, None])
    return wrap_to_pi(np.stack([theta1, theta2, theta3], axis=-1)), keep


def _start_rows(Q, keep, lo: int, major: int, minor: int):
    """Start rows (Q0, sample, seed) of closed-form candidates Q (k, n, dof)
    of targets lo, lo + 1, ..., in (sample, seed) order. A target's seeds
    rank its kept candidates by ascending wrapped joint `major`, then joint
    `minor`, so the order of its solutions follows from the algebra alone."""
    k, n, dof = Q.shape
    order = np.lexsort((Q[..., minor], np.where(keep, Q[..., major], np.inf)))
    Q = np.take_along_axis(Q, order[..., None], axis=1).reshape(-1, dof)
    keep = np.take_along_axis(keep, order, axis=1).ravel()
    sample = np.repeat(np.arange(lo, lo + k), n)
    seed = np.tile(np.arange(n), k)
    return Q[keep], sample[keep], seed[keep]


# joint axes this close (per entry) are parallel, and joint axes and offsets
# this close to parallel are coaxial
_PARALLEL_TOL = 1e-12


@per_robot
def _reduce_6r(robot: RobotModel) -> np.ndarray | None:
    """The closed-form constant of a 6-DOF arm with h2 = h3 = h4 = a, built
    once per geometry: A^-1 for the 2x2 system A (cos q5, sin q5) = f.

    Joints 2 to 4 turn about one axis, which a.R1^T keeps fixed, so with
    w0 = p - R p6T - o1 both a.R1^T w0 - a.(p12 + p23 + p34 + p45) = a.R5 p56
    and a.R1^T R h6 = a.R5 h6 are linear in (1, cos q1, sin q1) on the left
    and in (1, cos q5, sin q5) on the right. Returns None, and the arm keeps
    the seed grid, when the axes differ or A is singular (as for h6 = h5).
    Raises ValueError for an arm with two consecutive coaxial joints: their
    Jacobian columns agree up to sign, so det J vanishes everywhere.
    """
    h, p = robot.axes, robot.offsets
    for i in range(robot.dof - 1):
        if (np.linalg.norm(np.cross(h[i + 1], h[i])) <= _PARALLEL_TOL
                and np.linalg.norm(np.cross(p[i + 1], h[i]))
                <= _PARALLEL_TOL * max(1.0, np.linalg.norm(p[i + 1]))):
            raise ValueError(f"robot {robot.name!r} has no isolated IK solutions: joints "
                             f"{i + 1} and {i + 2} are coaxial, so det J vanishes everywhere")
    a, h5, h6, p56 = h[1], h[4], h[5], p[5]
    if np.abs(h[2:4] - a).max() > _PARALLEL_TOL:
        return None
    A = np.array([[a @ p56 - (h5 @ p56) * (a @ h5), a @ np.cross(h5, p56)],
                  [a @ h6 - (h5 @ h6) * (a @ h5), a @ np.cross(h5, h6)]])
    norms = np.linalg.norm(A, axis=1)
    if abs(np.linalg.det(A)) <= _BRANCH_TOL * norms[0] * norms[1]:
        return None
    return np.linalg.inv(A)


@np.errstate(over="ignore", invalid="ignore")
def _algebraic_starts_6r(robot: RobotModel, ainv, Tpos, Trot):
    """Closed-form candidates of k poses (Tpos (3, k), Trot (3, 3, k)) of an
    arm that _reduce_6r reduces, after IK-Geo: q1 from the quartic of
    cos^2 q5 + sin^2 q5 = 1, q5 from the 2x2 system, theta = q2 + q3 + q4
    by SP1 about a, q6 by SP1 about h6, q3 by SP3 (two values; a miss takes
    the nearest), q2 by SP1 and q4 = theta - q2 - q3.

    Returns joint vectors (k, 8, 6) and which to keep (k, 8), none for a
    pose whose |w0|^2 overflows. As in _algebraic_starts, a target's
    candidates do not depend on the batch.
    """
    h1, a, _, _, h5, h6 = robot.axes
    o1, p12, p23, p34, p45, p56 = robot.offsets
    ah5 = a @ h5
    # a unit vector normal to h6
    b6 = np.cross(h6, np.eye(3)[int(np.argmin(np.abs(h6)))])
    b6 /= np.linalg.norm(b6)

    def turn(v):
        return Trot[:, 0] * v[0] + Trot[:, 1] * v[1] + Trot[:, 2] * v[2]

    w0 = Tpos - turn(robot.tool_offset) - o1[:, None]
    Rh6, Rb6 = turn(h6), turn(b6)
    # both equations' left sides less their constants over v = (1, cos q1,
    # sin q1), E v; then (cos q5, sin q5) = A^-1 E v = G v
    E = []
    for x, const in ((w0, a @ (p12 + p23 + p34 + p45) + (h5 @ p56) * ah5),
                     (Rh6, (h5 @ h6) * ah5)):
        x0 = (a @ h1) * _dot3(h1, x)
        E.append((x0 - const, _dot3(a, x) - x0, -_dot3(np.cross(a, h1), x)))
    (g0, g1, g2), (k0, k1, k2) = [[ainv[r, 0] * E[0][j] + ainv[r, 1] * E[1][j]
                                   for j in range(3)] for r in range(2)]
    q1, keep, _ = _quartic_roots(g0 * g0 + k0 * k0 - 1.0, g0 * g1 + k0 * k1, g0 * g2 + k0 * k2,
                                 g1 * g1 + k1 * k1, g1 * g2 + k1 * k2, g2 * g2 + k2 * k2)
    keep &= np.isfinite(_dot3(w0, w0))[:, None]
    c1, s1 = np.cos(q1), np.sin(q1)
    g0, g1, g2, k0, k1, k2 = (v[:, None] for v in (g0, g1, g2, k0, k1, k2))
    q5 = np.arctan2(k0 + k1 * c1 + k2 * s1, g0 + g1 * c1 + g2 * s1)
    c5, s5 = np.cos(q5), np.sin(q5)
    x1, y1, b1 = (_rotate(h1, c1, -s1, v[:, :, None]) for v in (w0, Rh6, Rb6))
    theta = _sp1(a, _rotate(h5, c5, s5, h6[:, None, None]), y1)
    ct, st = np.cos(theta), np.sin(theta)
    # R6 b6 = (R234 R5)^T R1^T R b6
    q6 = _sp1(h6, b6[:, None, None], _rotate(h5, c5, -s5, _rotate(a, ct, -st, b1)))
    # z = R2 (p23 + R3 p34), in the plane normal to a: SP3 for q3
    z = x1 - p12[:, None, None] - _rotate(a, ct, st, p45[:, None, None]
                                          + _rotate(h5, c5, s5, p56[:, None, None]))
    zp = z - _dot3(a, z) * a[:, None, None]
    u23, u34 = p23 - (a @ p23) * a, p34 - (a @ p34) * a
    alpha, beta = u23 @ u34, u23 @ np.cross(a, u34)
    gamma = 0.5 * (_dot3(zp, zp) - u23 @ u23 - u34 @ u34)
    psi = np.arccos(np.clip(gamma / np.hypot(alpha, beta), -1.0, 1.0))
    q3 = np.arctan2(beta, alpha) + psi[..., None] * np.array([-1.0, 1.0])
    q2 = _sp1(a, p23[:, None, None, None] + _rotate(a, np.cos(q3), np.sin(q3),
                                                    p34[:, None, None, None]), z[..., None])
    q1, theta, q5, q6 = (v[..., None] for v in (q1, theta, q5, q6))
    Q = np.stack(np.broadcast_arrays(q1, q2, q3, theta - q2 - q3, q5, q6), axis=-1)
    return wrap_to_pi(Q.reshape(-1, 8, 6)), np.repeat(keep, 2, axis=1)


def _rotvec_batch(R: np.ndarray) -> np.ndarray:
    """Rotation vectors (3, N) of a joint-major stack of rotations (3, 3, N)."""
    vee = 0.5 * np.stack([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    s = np.sqrt(vee[0] ** 2 + vee[1] ** 2 + vee[2] ** 2)
    c = (R[0, 0] + R[1, 1] + R[2, 2] - 1.0) / 2.0
    theta = np.arctan2(s, c)
    small = s <= 1e-7
    factor = np.where(small, 1.0 + theta * theta / 6.0, theta / np.where(small, 1.0, s))
    out = vee * factor
    # antipodal rows: vee vanishes but theta ~ pi, recover the axis from R + I
    flipped = np.flatnonzero(small & (c < 0.0))
    for i in flipped:
        A = R[:, :, i] + np.eye(3)
        k = int(np.argmax(np.diag(A)))
        axis = A[:, k] / np.linalg.norm(A[:, k])
        if vee[:, i] @ axis < 0.0:
            axis = -axis
        out[:, i] = axis * theta[i]
    return out


def _orientation_error(T: np.ndarray, R: np.ndarray) -> np.ndarray:
    """T R^T of joint-major rotation stacks (3, 3, N), summed over ascending k."""
    return (T[:, None, 0] * R[None, :, 0] + T[:, None, 1] * R[None, :, 1]
            + T[:, None, 2] * R[None, :, 2])


def _lm_step(J: np.ndarray, e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Damped least-squares step (n, N) J^T (J J^T + lam^2 I)^-1 e.

    J (m, n, N) and e (m, N) are joint-major. J J^T + lam^2 I is summed
    over ascending k in whole (m, m, rows) stacks of _STEP_BLOCK rows (larger
    ones fall out of cache), J^T y over ascending i, and LAPACK solves each
    system on its own: every row takes the same operations in any batch.
    """
    m, n, N = J.shape
    stack = np.empty((N, m, m))
    for lo in range(0, N, _STEP_BLOCK):
        Jb, lb = J[..., lo:lo + _STEP_BLOCK], lam[lo:lo + _STEP_BLOCK]
        A = Jb[:, None, 0] * Jb[None, :, 0]
        for k in range(1, n):
            A += Jb[:, None, k] * Jb[None, :, k]
        A[range(m), range(m)] += lb * lb
        stack[lo:lo + _STEP_BLOCK] = A.transpose(2, 0, 1)
    y = np.linalg.solve(stack, np.ascontiguousarray(e.T)[..., None])[..., 0].T
    dq = J[0] * y[0]
    for i in range(1, m):
        dq += J[i] * y[i]
    return dq


def _cell_key(Q, sample_of, cell: float) -> np.ndarray:
    """Exact int64 key per row of (sample id, joint cells), Q in (-pi, pi]:
    each cell index plus half is one digit of base 2 * half + 1."""
    half = int(np.ceil(np.pi / cell))
    cells = np.round(Q * (1.0 / cell)).astype(np.int64) + half
    key = sample_of.astype(np.int64)
    for j in range(Q.shape[1]):
        key = key * (2 * half + 1) + cells[:, j]
    return key


def _refine_population(robot: RobotModel, Tpos, Trot, Q0, sample, seed,
                       max_iters: int = _MAX_REFINE_ITERS):
    """Levenberg-Marquardt over rows of (target, seed) pairs.

    Tpos (3, S) and Trot (3, 3, S) hold one target per sample id, and every
    row is tagged with its sample id, so rows of different targets never
    interact: a target's rows evolve the same whatever else is in the
    population. Rows must arrive in (sample, seed) order; compaction keeps
    that order, so coalescing merges a cell onto its first row. A step that
    raises a row's residual or makes it non-finite is rejected and retried
    stiffer, which keeps boundary rows from being flung away by a
    near-singular Jacobian. Each row's record, compacted once per iteration,
    holds its seed, sample, damping lam, stall count and last accepted
    iterate: Q (n, N), e (m, N), J (m, n, N) and resid (inf before the first
    iteration). So the stored residual never rises and is the row's best.
    A row finishes when it converged (two passes in a row within EXACT_TOL),
    gave up (_STALL_LIMIT stalls above it) or ran out of the max_iters
    budget, and banks if its residual is within APPROX_TOL; a non-finite
    start drops out. Returns candidate arrays (q, residual, seed,
    approximate, sample, det_j); det_j comes from the Jacobian at exactly
    that q.
    """
    m6 = robot.dof != 3
    N = Q0.shape[0]
    rows = {"seed": np.asarray(seed), "sample": np.asarray(sample),
            "lam": np.full(N, _DAMPING), "stall": np.zeros(N, dtype=np.int8),
            "resid": np.full(N, np.inf)}
    Q = wrap_to_pi(np.ascontiguousarray(np.asarray(Q0, dtype=float).T))
    done = [(np.empty((0, robot.dof)), np.empty(0), rows["seed"][:0], np.empty(0, dtype=bool),
             rows["sample"][:0], np.empty(0))]
    # rows only leave, so only seed grids coalesce, never the closed forms
    coalesce = np.bincount(rows["sample"]).max(initial=0) > _COALESCE_MIN_ROWS

    for it in range(max_iters):
        R, p, J = fk_jacobian_batch(robot, Q.T)
        # the kernel's buffers, joint-major again
        p, J = p.T, J.transpose(1, 2, 0)
        target = rows["sample"]
        dp = Tpos[:, target] - p
        resid = np.sqrt(dp[0] ** 2 + dp[1] ** 2 + dp[2] ** 2)
        if m6:
            w = _rotvec_batch(_orientation_error(Trot[:, :, target], R.transpose(1, 2, 0)))
            e = np.concatenate([dp, w])
            resid += np.sqrt(w[0] ** 2 + w[1] ** 2 + w[2] ** 2)
        else:
            e = dp
        prev, lam = rows["resid"], rows["lam"]
        if it > 0:
            worse = ~(resid <= prev)
            if np.any(worse):
                # reject the step: revert to the stored state, retry stiffer
                Q[:, worse] = rows["Q"][:, worse]
                e[:, worse] = rows["e"][:, worse]
                J[..., worse] = rows["J"][..., worse]
                resid[worse] = prev[worse]
            lam = np.where(worse, np.minimum(lam * _LAM_GROW, _LAM_MAX),
                           np.maximum(lam * _LAM_SHRINK, _DAMPING))
        below = resid <= EXACT_TOL
        stalled = (prev - resid) < _STALL_REL_IMPROVEMENT * np.maximum(resid, 1e-12)
        stall = np.where(stalled, rows["stall"] + 1, 0).astype(np.int8)
        # a root finishes only after a second sub-tolerance pass: the extra
        # Newton step polishes it to machine accuracy, which downstream
        # cost comparisons rely on
        finished = ((below & (prev <= EXACT_TOL)) | ((stall >= _STALL_LIMIT) & ~below)
                    | (it == max_iters - 1))
        banked = finished & (resid <= APPROX_TOL)
        if banked.any():
            r = resid[banked]
            done.append((Q[:, banked].T, r, rows["seed"][banked], r > EXACT_TOL,
                         target[banked], jacobian_dets(J[..., banked].transpose(2, 0, 1))))
        keep = ~finished & np.isfinite(resid)
        if not keep.any():
            break
        rows.update(Q=Q, e=e, J=J, resid=resid, lam=lam, stall=stall)
        if coalesce and it >= _COALESCE_START_ITER:
            # each target is judged on its own live-row count; rows already
            # homing in on a root are exempt: distinct near-fold twin roots
            # can sit closer than the cell size
            live = (np.bincount(target[keep], minlength=Tpos.shape[1])[target]
                    > _COALESCE_MIN_ROWS)
            free = np.flatnonzero(keep & live & (resid >= _COALESCE_RESID_GUARD))
            if free.size:
                # the first row of a cell is its lowest seed (see docstring)
                key = _cell_key(Q[:, free].T, target[free], _COALESCE_CELL)
                keep[free] = False
                keep[free[np.unique(key, return_index=True)[1]]] = True
        if not keep.all():
            rows = {name: np.compress(keep, v, axis=-1) for name, v in rows.items()}
        Q = wrap_to_pi(rows["Q"] + _lm_step(rows["J"], rows["e"], rows["lam"]))
    return tuple(np.concatenate(parts) for parts in zip(*done))


def _dedup(Q, seed, approx, sample) -> np.ndarray:
    """Wrap-aware dedup of candidate rows; returns the kept row indices
    ordered by target, then exact before approximate, then by seed.

    The rule: in that rank order, a row is kept unless its max-abs joint
    distance to an earlier kept row of its target is within its own radius,
    _DEDUP_TOL for exact rows and the coarser _APPROX_DEDUP for approximate
    ones (stalls along one boundary valley describe the same continuous
    approximate solution). Each round keeps every target's best remaining
    row and drops that target's rows within radius of it.
    """
    order = np.lexsort((seed, approx, sample))
    Q, sample = Q[order], sample[order]
    radius = np.where(approx[order], _APPROX_DEDUP, _DEDUP_TOL)
    kept = np.zeros(order.size, dtype=bool)
    alive = np.arange(order.size)
    while alive.size:
        s = sample[alive]
        head = np.ones(alive.size, dtype=bool)
        head[1:] = s[1:] != s[:-1]
        kept[alive[head]] = True
        # the row each alive row is judged against: its target's head
        own = alive[np.flatnonzero(head)[np.cumsum(head) - 1]]
        gap = np.max(np.abs(wrap_to_pi(Q[alive] - Q[own])), axis=1)
        alive = alive[gap > radius[alive]]
    return order[kept]


def solve_all_ik(robot: RobotModel, target: Pose, cfg: IKConfig | None = None) -> IKSolutionSet:
    """All isolated IK solutions of a pose (6R) or position (3R).

    Deterministic for a fixed config: exact solutions come ahead of
    approximate ones, each in the order of the start that reached them
    (ascending theta3 of the 3R root, ascending q1 then q3 of the 6R root,
    or the seed-grid index). An
    empty set is a valid result for unreachable targets.
    """
    return solve_ik_along_path(robot, [target], cfg)[0]


def _target_arrays(targets) -> tuple[np.ndarray, np.ndarray]:
    """(3, N) positions and (3, 3, N) rotations of the targets: a path's
    positions and rotations arrays (a TaskPath), or a sequence of Poses
    stacked once."""
    if hasattr(targets, "positions"):
        P, R = targets.positions, targets.rotations
    else:
        targets = list(targets)
        P = np.reshape([t.position for t in targets], (-1, 3))
        R = np.reshape([t.rotation for t in targets], (-1, 3, 3))
    return np.ascontiguousarray(P.T), np.ascontiguousarray(R.transpose(1, 2, 0))


def _solve(robot: RobotModel, Tpos, Trot, cfg: IKConfig):
    """All isolated IK solutions of N >= 1 targets (Tpos (3, N), Trot
    (3, 3, N)) as one flat record (q, residual, approximate, sample, det_j),
    ordered by sample and within a sample as solve_all_ik lists them.
    Chunks of about _CHUNK_ROWS start rows run cfg.threads at a time."""
    n_targets = Tpos.shape[1]
    iters = _POLISH_ITERS
    if robot.dof == 3:
        red = _reduce_3r(robot)
        n_seeds = 4

        def starts(lo, hi):
            x = Tpos[:, lo:hi] - robot.offsets[0][:, None]
            return _start_rows(*_algebraic_starts(red, x), lo, 2, 1)
    elif (ainv := _reduce_6r(robot)) is not None:
        n_seeds = 8

        def starts(lo, hi):
            return _start_rows(*_algebraic_starts_6r(robot, ainv, Tpos[:, lo:hi],
                                                     Trot[:, :, lo:hi]), lo, 0, 2)
    else:
        grid = seed_grid(robot.dof, cfg.resolve_seeds(robot.dof))
        n_seeds, iters = grid.shape[0], _MAX_REFINE_ITERS

        def starts(lo, hi):
            # as in _algebraic_starts_6r, a target whose |p|^2 overflows has none
            with np.errstate(over="ignore", invalid="ignore"):
                reach = np.flatnonzero(np.isfinite(_dot3(Tpos[:, lo:hi], Tpos[:, lo:hi])))
            k = reach.size
            return (np.tile(grid, (k, 1)), np.repeat(lo + reach, n_seeds),
                    np.tile(np.arange(n_seeds), k))

    per_chunk = max(1, _CHUNK_ROWS // n_seeds)

    def run_chunk(lo):
        Q0, sample, seeds = starts(lo, min(lo + per_chunk, n_targets))
        Q, resid, seed, approx, sample, det_j = _refine_population(
            robot, Tpos, Trot, Q0, sample, seeds, iters)
        keep = _dedup(Q, seed, approx, sample)
        return Q[keep], resid[keep], approx[keep], sample[keep], det_j[keep]

    chunks = range(0, n_targets, per_chunk)
    if cfg.threads > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(lo) for lo in chunks]
    return tuple(np.concatenate(parts) for parts in zip(*results))


def solve_ik_along_path(robot: RobotModel, targets,
                        cfg: IKConfig | None = None) -> list[IKSolutionSet]:
    """solve_all_ik for every sample of a TaskPath, or every pose of a
    sequence of Poses, batched into one population.

    Rows of different targets never interact, so each returned set is
    identical to a standalone solve_all_ik call on that pose, however many
    chunks of targets are refined at once. Approximate solutions are kept
    and flagged; callers that want exact ones only filter on .approximate.
    Raises ValueError for an arm with no isolated solutions.
    """
    if robot.dof not in (3, 6):
        raise ValueError("all-solutions IK supports 3- and 6-DOF arms")
    Tpos, Trot = _target_arrays(targets)
    n_targets = Tpos.shape[1]
    if not n_targets:
        return []
    Q, resid, approx, sample, det_j = _solve(robot, Tpos, Trot, cfg or IKConfig())
    sols = [IKSolution(q=q, residual=r, det_j=d, approximate=a) for q, r, d, a
            in zip(Q, resid.tolist(), det_j.tolist(), approx.tolist())]
    cut = np.searchsorted(sample, np.arange(n_targets + 1)).tolist()
    return [IKSolutionSet(sols[a:b]) for a, b in zip(cut[:-1], cut[1:])]


def solution_count_map(robot: RobotModel, rho_range, z_range, grid,
                       cfg: IKConfig | None = None) -> np.ndarray:
    """Exact-solution counts over the phi = 0 half-plane, 3-DOF arms only.

    Returns an integer array of shape (n_rho, n_z); entry [i, j] counts the
    isolated exact IK solutions of target position (rho_i, 0, z_j);
    approximate solutions are not counted. Unreachable cells are 0.
    """
    if robot.dof != 3:
        raise ValueError("solution count maps are defined for 3-DOF robots only")
    n_rho, n_z = grid
    if not np.all(np.isfinite([*rho_range, *z_range])):
        raise ValueError("rho and z ranges must be finite")
    if min(n_rho, n_z) < 1:
        raise ValueError("grid sizes must be >= 1")
    n = n_rho * n_z
    Tpos = np.stack([np.repeat(np.linspace(*rho_range, n_rho), n_z), np.zeros(n),
                     np.tile(np.linspace(*z_range, n_z), n_rho)])
    Trot = np.broadcast_to(np.eye(3)[..., None], (3, 3, n))
    _, _, approx, sample, _ = _solve(robot, Tpos, Trot, cfg or IKConfig())
    return np.bincount(sample[~approx], minlength=n).reshape(n_rho, n_z)

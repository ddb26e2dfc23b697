"""Articulated surgical-tool model: forward kinematics, camera projection,
synthetic trajectories.

The tool is a four-part chain (shaft, wrist, left gripper, right gripper)
driven by a 9-DoF per-frame action: wrist translation p, wrist axis-angle
orientation r, and three hinge angles (shaft-wrist, wrist-left-gripper,
wrist-right-gripper).

Frame conventions (fixed here so rendering is deterministic):
  - every pose is in the camera frame (a `CameraModel` has no extrinsic),
    right-handed, z forward; a point at depth <= Z_NEAR is behind the camera;
  - the rest configuration (p=0, r=0, all q=0) puts the shaft along -z,
    the wrist just behind the origin, and the grippers extending along
    local +x at the tip;
  - the shaft-wrist hinge rotates about local y, the wrist-gripper hinges
    about local z, with the right gripper mirrored (negative angle).

`project` is the one pinhole formula, and `pixel_box` the rule that turns
projected points into a padded pixel box clipped to the frame: the action
tubes' boxes use it, and the rasterizer's row spans pad and clip each row the
same way.
`synth_trajectory`'s rates and sampling interval are the `SYNTH_*` constants;
only its base state is a parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, JointLimitViolation, NonFiniteInput

PART_NAMES = ("shaft", "wrist", "left_gripper", "right_gripper")

# semantic class per part, in PART_NAMES order: shaft=0, wrist=1, both
# grippers=2
PART_SEMANTIC_CLASS = (0, 1, 2, 2)

# camera depth (m) at or behind which a point is not projected or hit
Z_NEAR = 1e-4


@dataclass(frozen=True)
class Capsule:
    """Capsule primitive: segment from a to b (part-local, meters) + radius,
    a segment of positive length and a positive radius."""

    a: np.ndarray
    b: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))


@dataclass(frozen=True)
class JointLimits:
    q_sw: tuple = (-np.pi, np.pi)
    q_lg: tuple = (0.0, np.pi / 2)
    q_rg: tuple = (0.0, np.pi / 2)


def _default_capsules():
    return {
        "shaft": Capsule(np.array([0.0, 0.0, -0.02]), np.array([0.0, 0.0, -0.10]), 0.004),
        "wrist": Capsule(np.array([0.0, 0.0, -0.02]), np.array([0.0, 0.0, 0.0]), 0.003),
        "left_gripper": Capsule(np.array([0.0, 0.0, 0.0]), np.array([0.015, 0.0, 0.0]), 0.002),
        "right_gripper": Capsule(np.array([0.0, 0.0, 0.0]), np.array([0.015, 0.0, 0.0]), 0.002),
    }


@dataclass(frozen=True)
class ToolGeometry:
    """Capsule geometry + hinge axes for the 4-part tool.

    The kinematic tree is fixed: shaft->wrist (hinge q_sw), wrist->left
    gripper (q_lg), wrist->right gripper (q_rg, mirrored). `capsules` maps
    each of PART_NAMES to its capsule.
    """

    capsules: dict = field(default_factory=_default_capsules)
    hinge_sw_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    hinge_grip_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    limits: JointLimits = field(default_factory=JointLimits)


@dataclass(frozen=True)
class ArticulatedState:
    """One frame's 9-DoF action: wrist translation, wrist axis-angle, 3 hinges."""

    p: np.ndarray
    r: np.ndarray
    q_sw: float
    q_lg: float
    q_rg: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(3)
        r = np.asarray(self.r, dtype=float).reshape(3)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)

    def as_vector(self):
        return np.concatenate([self.p, self.r, [self.q_sw, self.q_lg, self.q_rg]])

    @staticmethod
    def from_vector(v):
        v = np.asarray(v, dtype=float).reshape(9)
        return ArticulatedState(p=v[:3], r=v[3:6], q_sw=v[6], q_lg=v[7], q_rg=v[8])


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera in pixels, the trajectory file's `camera` record; no
    extrinsic, as every pose is camera-frame."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("width", "height"):
            size = getattr(self, name)
            if not isinstance(size, (int, np.integer)) or size < 1:
                raise InvalidParams(f"{name} must be an integer >= 1, got {size!r}")
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise InvalidParams("camera intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidParams("fx, fy must be > 0")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise InvalidParams("principal point must lie inside the image")
        # the pixel rays' directions (j - cx) / fx and (i - cy) / fy are
        # largest at the frame's first or last column and row
        rays = (float(max(self.cx, self.width - 1 - self.cx)) / float(self.fx),
                float(max(self.cy, self.height - 1 - self.cy)) / float(self.fy))
        if not np.isfinite(rays).all():
            raise InvalidParams("fx, fy too small: the pixel rays' directions "
                                "overflow")


@dataclass(frozen=True)
class Trajectory:
    """Ordered articulated states over frames 0..T-1, T >= 1, sampled every
    dt seconds."""

    states: tuple
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not 0 < self.dt < np.inf:
            raise InvalidParams(f"dt must be finite and > 0, got {self.dt}")


@dataclass(frozen=True)
class PartPoses:
    """Camera-frame capsule endpoints and radii, part-major in PART_NAMES
    order: (4, 2, 3) ends and (4,) radii for one frame, (4, B, 2, 3) and
    (4, B) for a batch of B frames."""

    endpoints: np.ndarray
    radii: np.ndarray


def axis_angle_to_matrix(r):
    """Rodrigues formula on rows: (..., 3) axis * angle -> (..., 3, 3).

    The angle is the square root of one BLAS dot per row, the bits of
    `np.linalg.norm` of the row alone; below 1e-12 the first-order I + [r]x
    is taken, exact at 0. The rest is elementwise, with one 3 x 3 product
    per row, so each row gets the bits of rotating it alone."""
    r = np.asarray(r, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):  # where theta = 0
        theta = np.sqrt(np.vecdot(r, r))[..., None]
        # the skew matrices [r]x and [r / theta]x
        K = np.zeros((2,) + r.shape + (3,))
        v = np.stack([r, r / theta])
        K[..., [2, 0, 1], [1, 2, 0]] = v
        K[..., [1, 2, 0], [2, 0, 1]] = -v
        theta = theta[..., None]
        eye = np.eye(3)
        return np.where(theta < 1e-12, eye + K[0], eye + np.sin(theta) * K[1]
                        + (1 - np.cos(theta)) * (K[1] @ K[1]))


def forward_kinematics(states, geom: ToolGeometry) -> PartPoses:
    """Pose every part of T states in the camera frame, in one pass over
    their (T, 9) actions: (4, T, 2, 3) capsule ends and (4, T) radii. One
    `ArticulatedState` is a batch of one, posed as (4, 2, 3) and (4,).

    wrist   = (exp(r), p)
    shaft   = wrist o hinge(sw_axis, -q_sw)     (inverse: shaft is the parent)
    grip_l  = wrist o hinge(grip_axis, +q_lg)
    grip_r  = wrist o hinge(grip_axis, -q_rg)   (mirrored)

    Each pose has the bits of posing its state alone: the rotations are
    `axis_angle_to_matrix` rows, and the products one 3 x 3 matrix at a
    time. The first frame whose action is not finite, or whose rotation
    angle |r| overflows, is reported, then the first frame with a joint
    outside the geometry's limits."""
    one = isinstance(states, ArticulatedState)
    x = np.array([s.as_vector() for s in ([states] if one else states)])
    p, r, q = x[:, :3], x[:, 3:6], x[:, 6:]
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(np.column_stack([x, np.sqrt(np.vecdot(r, r))]))
    if bad.any():
        t, k = np.argwhere(bad)[0]
        raise NonFiniteInput(f"frame {t + 1}: " + (
            "the wrist rotation's angle |r| overflows" if k == 9
            else "articulated state contains non-finite values"))
    names = ("q_sw", "q_lg", "q_rg")
    limits = [getattr(geom.limits, name) for name in names]
    lo, hi = np.array(limits).T
    outside = ~((lo <= q) & (q <= hi))
    if outside.any():
        t, k = np.argwhere(outside)[0]
        raise JointLimitViolation(f"frame {t + 1}: {names[k]}={q[t, k]} "
                                  f"outside [{limits[k][0]}, {limits[k][1]}]")

    sw, grip = (axis / np.linalg.norm(axis)
                for axis in (geom.hinge_sw_axis, geom.hinge_grip_axis))
    # each part's rotation in PART_NAMES order, the hinges after the wrist's
    R = axis_angle_to_matrix(np.stack([sw * -q[:, :1], r, grip * q[:, 1:2],
                                       grip * -q[:, 2:]]))  # (4, T, 3, 3)
    R[[0, 2, 3]] = R[1] @ R[[0, 2, 3]]
    caps = [geom.capsules[part] for part in PART_NAMES]
    local = np.array([(cap.a, cap.b) for cap in caps])  # (4, 2, 3)
    # every part hinges about the wrist's origin p
    ends = (R[:, :, None] @ local[:, None, ..., None])[..., 0] + p[:, None]
    radii = np.repeat([[cap.radius] for cap in caps], len(x), axis=1)
    return PartPoses(ends[:, 0], radii[:, 0]) if one else PartPoses(ends, radii)


def project(cam: CameraModel, x):
    """Pixel coordinates (u, v) of camera-frame points x (..., 3); no depth
    check."""
    z = x[..., 2]
    return cam.fx * x[..., 0] / z + cam.cx, cam.fy * x[..., 1] / z + cam.cy


def pixel_box(cam: CameraModel, u, v, reach=0.0):
    """Pixel rows and columns of the bounding box of the points (u, v),
    widened by `reach` px, padded by one pixel against rounding (-1 at the
    low edge, +2 at the high edge) and clipped to the frame; it may be empty.

    Each edge is clip(floor(x) - 1, 0, size) or clip(ceil(x) + 2, low, size),
    taken as the floor or ceiling of x clipped first, in float: an integer
    bound commutes with both, and a coordinate that projected to a huge
    value or to +-inf then clips to the frame's edge instead of reaching
    `int`."""
    h, w = cam.height, cam.width
    i0 = math.floor(min(max(min(v) - reach, 1.0), h + 1.0)) - 1
    j0 = math.floor(min(max(min(u) - reach, 1.0), w + 1.0)) - 1
    i1 = math.ceil(min(max(max(v) + reach, i0 - 2.0), h - 2.0)) + 2
    j1 = math.ceil(min(max(max(u) + reach, j0 - 2.0), w - 2.0)) + 2
    return slice(i0, i1), slice(j0, j1)


DEFAULT_BASE_STATE = ArticulatedState(
    p=np.array([0.0, 0.0, 0.11]),
    r=np.array([0.25, 0.15, 0.0]),
    q_sw=0.2,
    q_lg=0.2,
    q_rg=0.2,
)

# synth_trajectory's drift (m/s), oscillation amplitudes (rad), oscillation
# period (frames) and sampling interval (s)
SYNTH_VELOCITY = np.array([0.05, 0.02, 0.0])
SYNTH_ROT_AMP, SYNTH_SW_AMP, SYNTH_GRIP_AMP = 0.5, 0.4, 0.5
SYNTH_PERIOD = 12.0
SYNTH_DT = 1.0 / 30

TRAJECTORY_KINDS = ("static", "linear-transport", "wrist-articulation",
                    "gripper-cycle", "composite")


def _check_frames(T):
    if T < 1:
        raise InvalidParams(f"T must be >= 1, got {T}")


def _check_kind(kind):
    if kind not in TRAJECTORY_KINDS:
        raise InvalidParams(f"unknown trajectory kind {kind!r}")


def synth_trajectory(kind, params=None, T=10, seed=0,
                     geom: ToolGeometry | None = None) -> Trajectory:
    """Deterministic synthetic trajectories for testing and demos.

    kinds: static | linear-transport | wrist-articulation | gripper-cycle
    | composite (sum of the moving kinds). params may set the "base" state;
    the rates are the SYNTH_* constants. Joint angles are clamped to the
    geometry's limits.

    The (T, 9) actions are formed in one array pass over the frame indices,
    with the bits of forming one frame at a time: each moving kind adds its
    terms to the base in that form's order, including its zeros (the
    wrist's r_x term and the z drift turn a base -0.0 into +0.0), and each
    joint column is clipped with scalar bounds, as `np.clip` with array
    bounds turns a -0.0 at a 0.0 bound into +0.0.
    """
    _check_frames(T)
    _check_kind(kind)
    params = params or {}
    unknown = sorted(set(params) - {"base"})
    if unknown:
        raise InvalidParams(f"unknown synth_trajectory params {unknown}; "
                            f"only 'base' is settable")
    geom = geom or ToolGeometry()
    rng = np.random.default_rng(seed)

    base = params.get("base", DEFAULT_BASE_STATE)
    phase = rng.uniform(0, 2 * np.pi)

    t = np.arange(T)
    w = 2 * np.pi * t / SYNTH_PERIOD + phase
    x = np.tile(base.as_vector(), (T, 1))  # p, r, q_sw, q_lg, q_rg per frame
    if kind in ("linear-transport", "composite"):
        x[:, :3] += SYNTH_VELOCITY * SYNTH_DT * t[:, None]
    if kind in ("wrist-articulation", "composite"):
        x[:, 3:6] += np.stack([np.zeros(T), SYNTH_ROT_AMP * np.sin(w),
                               SYNTH_ROT_AMP * 0.5 * np.cos(w)], axis=1)
        x[:, 6] += SYNTH_SW_AMP * np.sin(w)
    if kind in ("gripper-cycle", "composite"):
        x[:, 7:] += (SYNTH_GRIP_AMP * 0.5 * (1 + np.sin(w)))[:, None]
    lim = geom.limits
    np.clip(x[:, 6], *lim.q_sw, out=x[:, 6])
    np.clip(x[:, 7], *lim.q_lg, out=x[:, 7])
    np.clip(x[:, 8], *lim.q_rg, out=x[:, 8])
    return Trajectory(states=tuple(map(ArticulatedState.from_vector, x)),
                      dt=SYNTH_DT)


def default_camera(width=64, height=64) -> CameraModel:
    """Camera whose defaults frame the default tool placement."""
    f = 1.3 * width
    return CameraModel(fx=f, fy=f, cx=width / 2, cy=height / 2,
                       width=width, height=height)

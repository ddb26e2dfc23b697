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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BehindCamera, InvalidParams, JointLimitViolation, NonFiniteInput

PART_NAMES = ("shaft", "wrist", "left_gripper", "right_gripper")

# semantic class per part: shaft=0, wrist=1, both grippers=2
PART_SEMANTIC_CLASS = {"shaft": 0, "wrist": 1, "left_gripper": 2, "right_gripper": 2}

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
    """Per-part camera-frame capsule endpoints and radii."""

    endpoints: dict  # part -> (a_world, b_world)
    radii: dict  # part -> radius


def axis_angle_to_matrix(r):
    """Rodrigues formula; r is axis * angle."""
    r = np.asarray(r, dtype=float).reshape(3)
    theta = np.linalg.norm(r)
    if theta < 1e-12:
        K = _skew(r)
        return np.eye(3) + K  # first-order; exact at theta=0
    axis = r / theta
    K = _skew(axis)
    return np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)


def _skew(v):
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def hinge_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return axis_angle_to_matrix(axis * angle)


def _check_limits(state, geom):
    lim = geom.limits
    for name, q, (lo, hi) in (
        ("q_sw", state.q_sw, lim.q_sw),
        ("q_lg", state.q_lg, lim.q_lg),
        ("q_rg", state.q_rg, lim.q_rg),
    ):
        if not (lo <= q <= hi):
            raise JointLimitViolation(f"{name}={q} outside [{lo}, {hi}]")


def forward_kinematics(state: ArticulatedState, geom: ToolGeometry) -> PartPoses:
    """Pose every part in the camera frame.

    wrist   = (exp(r), p)
    shaft   = wrist o hinge(sw_axis, -q_sw)     (inverse: shaft is the parent)
    grip_l  = wrist o hinge(grip_axis, +q_lg)
    grip_r  = wrist o hinge(grip_axis, -q_rg)   (mirrored)
    """
    vec = state.as_vector()
    if not np.all(np.isfinite(vec)):
        raise NonFiniteInput("articulated state contains non-finite values")
    _check_limits(state, geom)

    R_w = axis_angle_to_matrix(state.r)
    t_w = state.p  # every part hinges about the wrist's origin
    rotations = {
        "wrist": R_w,
        "shaft": R_w @ hinge_matrix(geom.hinge_sw_axis, -state.q_sw),
        "left_gripper": R_w @ hinge_matrix(geom.hinge_grip_axis, state.q_lg),
        "right_gripper": R_w @ hinge_matrix(geom.hinge_grip_axis, -state.q_rg),
    }

    endpoints = {}
    radii = {}
    for part in PART_NAMES:
        cap = geom.capsules[part]
        R = rotations[part]
        endpoints[part] = (R @ cap.a + t_w, R @ cap.b + t_w)
        radii[part] = cap.radius
    return PartPoses(endpoints=endpoints, radii=radii)


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


def project_point(cam: CameraModel, x) -> tuple:
    """Pinhole projection of a camera-frame point to (u, v, depth)."""
    x = np.asarray(x, dtype=float).reshape(3)
    z = x[2]
    if z <= Z_NEAR:
        raise BehindCamera(f"point depth {z} <= Z_NEAR {Z_NEAR}")
    return (*project(cam, x), z)


def _clamp_state(state: ArticulatedState, geom: ToolGeometry) -> ArticulatedState:
    lim = geom.limits
    return replace(
        state,
        q_sw=float(np.clip(state.q_sw, *lim.q_sw)),
        q_lg=float(np.clip(state.q_lg, *lim.q_lg)),
        q_rg=float(np.clip(state.q_rg, *lim.q_rg)),
    )


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

    states = []
    for t in range(T):
        p = base.p.copy()
        r = base.r.copy()
        q_sw, q_lg, q_rg = base.q_sw, base.q_lg, base.q_rg
        w = 2 * np.pi * t / SYNTH_PERIOD + phase
        if kind in ("linear-transport", "composite"):
            p = p + SYNTH_VELOCITY * SYNTH_DT * t
        if kind in ("wrist-articulation", "composite"):
            r = r + np.array([0.0, SYNTH_ROT_AMP * np.sin(w),
                              SYNTH_ROT_AMP * 0.5 * np.cos(w)])
            q_sw = q_sw + SYNTH_SW_AMP * np.sin(w)
        if kind in ("gripper-cycle", "composite"):
            q_lg = q_lg + SYNTH_GRIP_AMP * 0.5 * (1 + np.sin(w))
            q_rg = q_rg + SYNTH_GRIP_AMP * 0.5 * (1 + np.sin(w))
        state = ArticulatedState(p=p, r=r, q_sw=q_sw, q_lg=q_lg, q_rg=q_rg)
        states.append(_clamp_state(state, geom))
    return Trajectory(states=tuple(states), dt=SYNTH_DT)


def default_camera(width=64, height=64) -> CameraModel:
    """Camera whose defaults frame the default tool placement."""
    f = 1.3 * width
    return CameraModel(fx=f, fy=f, cx=width / 2, cy=height / 2,
                       width=width, height=height)

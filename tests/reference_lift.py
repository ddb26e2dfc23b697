"""Reference forms of what `kva_field.lift_trajectory` and `synth` compute a
whole trajectory or batch at a time: the synthetic actions
(`kinematics.synth_trajectory`), the poses (`kinematics.forward_kinematics`)
and the part-table columns (`kva_field.rotation_channel`,
`kva_field.motion_channels`).

Each is written one state, frame or part at a time, as the program formed it
before it read the actions and poses whole; the batched forms must return
its bits (`test_properties`).
"""

from dataclasses import replace

import numpy as np

from kvacontrol.kinematics import (DEFAULT_BASE_STATE, PART_NAMES,
                                   SYNTH_DT, SYNTH_GRIP_AMP, SYNTH_PERIOD,
                                   SYNTH_ROT_AMP, SYNTH_SW_AMP,
                                   SYNTH_VELOCITY, Z_NEAR, ArticulatedState,
                                   PartPoses, ToolGeometry, Trajectory,
                                   project)


def _clamp_state(state, geom):
    lim = geom.limits
    return replace(
        state,
        q_sw=float(np.clip(state.q_sw, *lim.q_sw)),
        q_lg=float(np.clip(state.q_lg, *lim.q_lg)),
        q_rg=float(np.clip(state.q_rg, *lim.q_rg)),
    )


def synth_trajectory(kind, params=None, T=10, seed=0, geom=None):
    """One `ArticulatedState` per frame, each moving kind's terms added to
    the base one frame at a time and the joints clamped one state at a
    time; the kind, T and params are taken as valid."""
    geom = geom or ToolGeometry()
    rng = np.random.default_rng(seed)
    base = (params or {}).get("base", DEFAULT_BASE_STATE)
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


def _skew(v):
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def axis_angle_to_matrix(r):
    """Rodrigues formula for one 3-vector r = axis * angle."""
    r = np.asarray(r, dtype=float).reshape(3)
    theta = np.linalg.norm(r)
    if theta < 1e-12:
        return np.eye(3) + _skew(r)  # first-order; exact at theta=0
    K = _skew(r / theta)
    return np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)


def hinge_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    return axis_angle_to_matrix(axis / np.linalg.norm(axis) * angle)


def forward_kinematics(state, geom) -> PartPoses:
    """One state's (4, 2, 3) capsule ends and (4,) radii, each part's
    rotation formed on its own and applied to each end as R @ end + p."""
    R_w = axis_angle_to_matrix(state.r)
    rotations = (  # in PART_NAMES order
        R_w @ hinge_matrix(geom.hinge_sw_axis, -state.q_sw),
        R_w,
        R_w @ hinge_matrix(geom.hinge_grip_axis, state.q_lg),
        R_w @ hinge_matrix(geom.hinge_grip_axis, -state.q_rg),
    )
    caps = [geom.capsules[part] for part in PART_NAMES]
    return PartPoses(
        endpoints=np.array([(R @ cap.a + state.p, R @ cap.b + state.p)
                            for R, cap in zip(rotations, caps)]),
        radii=np.array([cap.radius for cap in caps], dtype=float))


def part_axis_angle(ends, cam) -> float:
    """Signed image-plane angle of one part's long axis, normalized by pi;
    ends: its (2, 3) capsule ends.

    Uses the projection Jacobian at the segment midpoint; 0 when the midpoint
    is at or behind Z_NEAR and when the axis projects to a point
    (degenerate, axis along the viewing ray)."""
    a, b = ends
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * (a + b)
        w = b - a
        mz = mid[2]
        if mz <= Z_NEAR:
            return 0.0
        du = cam.fx * (w[0] * mz - mid[0] * w[2]) / (mz * mz)
        dv = cam.fy * (w[1] * mz - mid[1] * w[2]) / (mz * mz)
        if np.hypot(du, dv) < 1e-12:
            return 0.0
        return float(np.arctan2(dv, du) / np.pi)


def motion_channels(frames, cam, dt) -> np.ndarray:
    """(T, 4, 4) projected centroid velocity (u, v, depth) and acceleration
    magnitude per frame and part of a list of T frames' `PartPoses`; v = 0
    at frame 0 and where the midpoint is at or behind Z_NEAR at t or t - 1,
    alpha = np.linalg.norm(v_t - v_{t-1}) / dt, 0 before frame 2."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mid = np.array([[0.5 * (a + b) for a, b in p.endpoints]
                        for p in frames])
        z = mid[..., 2]
        track = np.stack([*project(cam, mid), z], axis=-1)
        track[z <= Z_NEAR] = np.nan
        motion = np.zeros(track.shape[:2] + (4,))
        v = motion[..., :3]
        v[1:] = (track[1:] - track[:-1]) / dt
        v[np.isnan(v).any(axis=-1)] = 0.0
        for t in range(2, len(frames)):
            for k in range(len(PART_NAMES)):
                motion[t, k, 3] = np.linalg.norm(v[t, k] - v[t - 1, k]) / dt
    return motion

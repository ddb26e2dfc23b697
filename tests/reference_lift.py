"""Reference forms of what `kva_field.lift_trajectory` computes a whole
trajectory or batch at a time: the poses (`kinematics.forward_kinematics`)
and the part-table columns (`kva_field.rotation_channel`,
`kva_field.motion_channels`).

Each is written one state, frame or part at a time, as the lift formed it
before it read the actions and poses whole; the batched forms must return
its bits (`test_properties`).
"""

import numpy as np

from kvacontrol.kinematics import PART_NAMES, Z_NEAR, PartPoses, project


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

"""Reference forms of the part-table columns that `kva_field.lift` fills
a batch at a time (`kva_field.rotation_channel`, `kva_field.motion_channels`).

Each is the column written one frame and one part at a time, as the lift
formed it before it read the poses whole; the batched forms must return its
bits (`test_properties`).
"""

import numpy as np

from kvacontrol.kinematics import PART_NAMES, Z_NEAR, project


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

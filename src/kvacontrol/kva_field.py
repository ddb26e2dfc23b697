"""Pixel-aligned 9-channel control field lifted from articulated states.

Channel order: [s_shaft, s_wrist, s_gripper, depth, rho, v_x, v_y, v_z, alpha].
Semantic channels are binary, depth is camera depth at the front-most part,
rho is the projected long-axis angle of the visible part (normalized by pi),
v is the per-part projected centroid velocity (u, v, z), alpha the magnitude
of its temporal change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, ShapeMismatch
from .kinematics import (
    PART_NAMES,
    PART_SEMANTIC_CLASS,
    BehindCamera,
    CameraModel,
    PartPoses,
    ToolGeometry,
    Trajectory,
    forward_kinematics,
    project_point,
)

N_CHANNELS = 9
SEMANTIC_SLICE = slice(0, 3)
NONSEMANTIC_SLICE = slice(3, 9)
CHANNEL_NAMES = ("s_shaft", "s_wrist", "s_gripper", "depth", "rho",
                 "v_x", "v_y", "v_z", "alpha")

# channel groups consumed by the five modality experts
MODALITY_CHANNELS = {
    "sem": [0, 1, 2],
    "dep": [3],
    "rot": [4],
    "vel": [5, 6, 7],
    "acc": [8],
}
MODALITIES = ("sem", "dep", "rot", "vel", "acc")


@dataclass(frozen=True)
class KvaField:
    """H x W x 9 control tensor for one frame."""

    channels: np.ndarray
    t: int = 0

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=float)
        if ch.ndim != 3 or ch.shape[2] != N_CHANNELS:
            raise ShapeMismatch(f"expected H x W x {N_CHANNELS}, got {ch.shape}")
        object.__setattr__(self, "channels", ch)

    @property
    def h(self):
        return self.channels.shape[0]

    @property
    def w(self):
        return self.channels.shape[1]


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean/std for the six non-semantic channels."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(6)
        std = np.maximum(np.asarray(self.std, dtype=float).reshape(6), 1e-6)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def _ray_capsule_depths(D, a, b, radius, z_near):
    """Vectorized smallest hit depth per ray; inf on a miss.

    D: (N, 3) directions with dz = 1 so the ray parameter is camera depth."""
    n = D.shape[0]
    s = b - a
    L = np.linalg.norm(s)
    axis = s / L
    m = -a
    best = np.full(n, np.inf)

    # infinite cylinder around the axis
    d_ax = D @ axis
    dd = D - d_ax[:, None] * axis
    mm = m - np.dot(m, axis) * axis
    qa = (dd * dd).sum(axis=1)
    qb = 2.0 * dd @ mm
    qc = np.dot(mm, mm) - radius * radius
    disc = qb * qb - 4 * qa * qc
    ok = (qa > 1e-16) & (disc >= 0)
    if ok.any():
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for sign in (-1.0, 1.0):
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (-qb + sign * sq) / (2 * qa)
            w = (m + t[:, None] * D) @ axis
            valid = ok & (t > z_near) & (w >= 0) & (w <= L)
            best = np.where(valid & (t < best), t, best)

    # spherical caps
    for center in (a, b):
        mc = -center
        sa = (D * D).sum(axis=1)
        sb = 2.0 * D @ mc
        sc = np.dot(mc, mc) - radius * radius
        disc = sb * sb - 4 * sa * sc
        ok = disc >= 0
        if not ok.any():
            continue
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for sign in (-1.0, 1.0):
            t = (-sb + sign * sq) / (2 * sa)
            valid = ok & (t > z_near)
            best = np.where(valid & (t < best), t, best)
    return best


def rasterize_parts(poses: PartPoses, cam: CameraModel):
    """Per-pixel front-most part index (into PART_NAMES, -1 = none) and depth."""
    h, w = cam.height, cam.width
    jj, ii = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    D = np.stack([(jj - cam.cx) / cam.fx, (ii - cam.cy) / cam.fy,
                  np.ones_like(jj)], axis=-1).reshape(-1, 3)
    depths = np.stack([
        _ray_capsule_depths(D, *poses.endpoints[part], poses.radii[part], cam.z_near)
        for part in PART_NAMES])
    best = depths.min(axis=0)
    labels = np.where(np.isfinite(best), depths.argmin(axis=0), -1)
    depth = np.where(np.isfinite(best), best, 0.0)
    return labels.reshape(h, w), depth.reshape(h, w)


def rasterize(poses: PartPoses, cam: CameraModel):
    """Binary semantic channels (shaft/wrist/gripper) + front-most depth."""
    labels, depth = rasterize_parts(poses, cam)
    s = np.zeros((cam.height, cam.width, 3), dtype=float)
    for pi, part in enumerate(PART_NAMES):
        cls = PART_SEMANTIC_CLASS[part]
        s[..., cls][labels == pi] = 1.0
    return s, depth


def part_axis_angle(poses: PartPoses, cam: CameraModel, part: str) -> float:
    """Signed image-plane angle of the part's long axis, normalized by pi.

    Uses the projection Jacobian at the segment midpoint; 0 when the axis
    projects to a point (degenerate, axis along the viewing ray).
    """
    a, b = poses.endpoints[part]
    mid = 0.5 * (a + b)
    w = b - a
    mz = mid[2]
    if mz <= cam.z_near:
        return 0.0
    du = cam.fx * (w[0] * mz - mid[0] * w[2]) / (mz * mz)
    dv = cam.fy * (w[1] * mz - mid[1] * w[2]) / (mz * mz)
    if np.hypot(du, dv) < 1e-12:
        return 0.0
    return float(np.arctan2(dv, du) / np.pi)


def rotation_channel(poses: PartPoses, s: np.ndarray, cam: CameraModel,
                     labels=None) -> np.ndarray:
    """Per-pixel orientation descriptor on the tool mask, 0 elsewhere."""
    if labels is None:
        labels, _ = rasterize_parts(poses, cam)
    rho = np.zeros((cam.height, cam.width), dtype=float)
    for pi, part in enumerate(PART_NAMES):
        mask = labels == pi
        if mask.any():
            rho[mask] = part_axis_angle(poses, cam, part)
    return rho


def part_centroid_track(traj: Trajectory, geom: ToolGeometry, cam: CameraModel,
                        part: str, t: int):
    """(u, v, depth) of the part's capsule midpoint at frame t, or None."""
    poses = forward_kinematics(traj.states[t], geom)
    a, b = poses.endpoints[part]
    mid = 0.5 * (a + b)
    try:
        return np.array(project_point(cam, mid))
    except BehindCamera:
        return None


def _part_velocity(traj, geom, cam, part, t):
    if t < 1:
        return np.zeros(3)
    phi_t = part_centroid_track(traj, geom, cam, part, t)
    phi_p = part_centroid_track(traj, geom, cam, part, t - 1)
    if phi_t is None or phi_p is None:
        return np.zeros(3)
    return (phi_t - phi_p) / traj.dt


def motion_channels(traj: Trajectory, geom: ToolGeometry, cam: CameraModel,
                    t: int, labels=None):
    """Projected centroid velocity (3ch) and acceleration magnitude painted on
    the frame-t tool mask. v = 0 at frame 0, alpha = 0 before frame 2."""
    if labels is None:
        poses = forward_kinematics(traj.states[t], geom)
        labels, _ = rasterize_parts(poses, cam)
    v = np.zeros((cam.height, cam.width, 3), dtype=float)
    alpha = np.zeros((cam.height, cam.width), dtype=float)
    for pi, part in enumerate(PART_NAMES):
        mask = labels == pi
        if not mask.any():
            continue
        v_t = _part_velocity(traj, geom, cam, part, t)
        v[mask] = v_t
        if t >= 2:
            v_p = _part_velocity(traj, geom, cam, part, t - 1)
            alpha[mask] = np.linalg.norm(v_t - v_p) / traj.dt
    return v, alpha


def lift(traj: Trajectory, geom: ToolGeometry, cam: CameraModel, t: int) -> KvaField:
    """Assemble all 9 channels for frame t (0-based)."""
    if not (0 <= t < len(traj)):
        raise IndexError(f"frame {t} outside [0, {len(traj)})")
    poses = forward_kinematics(traj.states[t], geom)
    labels, d = rasterize_parts(poses, cam)
    s = np.zeros((cam.height, cam.width, 3), dtype=float)
    for pi, part in enumerate(PART_NAMES):
        s[..., PART_SEMANTIC_CLASS[part]][labels == pi] = 1.0
    rho = rotation_channel(poses, s, cam, labels=labels)
    v, alpha = motion_channels(traj, geom, cam, t, labels=labels)
    channels = np.concatenate(
        [s, d[..., None], rho[..., None], v, alpha[..., None]], axis=2)
    return KvaField(channels=channels, t=t)


def lift_trajectory(traj: Trajectory, geom: ToolGeometry, cam: CameraModel):
    return [lift(traj, geom, cam, t) for t in range(len(traj))]


def compute_stats(fields) -> ChannelStats:
    """Per-channel mean/std of the non-semantic channels over a corpus."""
    fields = list(fields)
    if not fields:
        raise EmptyCorpus("need at least one field to compute stats")
    stacked = np.concatenate(
        [f.channels[..., NONSEMANTIC_SLICE].reshape(-1, 6) for f in fields], axis=0)
    return ChannelStats(mean=stacked.mean(axis=0), std=stacked.std(axis=0))


def normalize(field: KvaField, stats: ChannelStats) -> KvaField:
    """Standardize non-semantic channels; semantic channels pass through."""
    ch = field.channels.copy()
    ch[..., NONSEMANTIC_SLICE] = (ch[..., NONSEMANTIC_SLICE] - stats.mean) / stats.std
    return KvaField(channels=ch, t=field.t)


def denormalize(field: KvaField, stats: ChannelStats) -> KvaField:
    ch = field.channels.copy()
    ch[..., NONSEMANTIC_SLICE] = ch[..., NONSEMANTIC_SLICE] * stats.std + stats.mean
    return KvaField(channels=ch, t=field.t)


def tool_mask(field: KvaField) -> np.ndarray:
    """Binary mask: any semantic channel active."""
    return (field.channels[..., SEMANTIC_SLICE].max(axis=2) > 0).astype(float)

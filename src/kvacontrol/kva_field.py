"""Pixel-aligned 9-channel control field lifted from articulated states.

Channel order: [s_shaft, s_wrist, s_gripper, depth, rho, v_x, v_y, v_z, alpha].
Semantic channels are binary, depth is camera depth at the front-most part,
rho is the projected long-axis angle of the visible part (normalized by pi),
v is the per-part projected centroid velocity (u, v, z), alpha the magnitude
of its temporal change.

`lift_trajectory` fills one (T, H, W, 9) array: forward kinematics once per
frame, the capsule midpoints projected once into a (T, 4, 3) centroid track
from which v and alpha are differenced, and every per-part constant painted
through a lookup table indexed by the rasterized part labels. The rasterizer
ray-tests each capsule only inside its screen box, the bounding box of its
3-D box's projected corners, which holds every pixel whose ray can hit it
(see `rasterize_parts`), so its cost scales with the tool's pixel area. The
box comes from `kinematics.pixel_box`, the rule `metrics.render_tube` also
crops its action tubes with; it clips in float, so a pose that projects to
+-inf gets an empty or edge-clipped box instead of an overflow.

The statistics, the standardization and the ray tests work on axes only 3, 6
or 9 entries wide, where numpy pays its per-row overhead on every row. They
run a column at a time instead, doing the same float operations in the same
order, so every result keeps its bits:

- `compute_stats` makes the reductions of numpy's `mean(axis=0)` and
  `std(axis=0)` itself: `np.add.reduce` over axis 0 adds the rows one after
  another, so the one sum serves both. The rows, and so the summation
  order, are those of the frames concatenated. The mean is summed over the
  rows' view of the stack, which is never written. The squared deviations
  are formed a block of rows at a time in one small buffer whose first row
  carries the sum so far, so the additions are still one left-to-right
  pass, and no transient the size of the stack is allocated: the heap
  blocks that a 12.6 MB copy left behind at 256 x 256, T=4 put the
  process's peak RSS at about 72 or 80 MB depending on where earlier
  allocations had landed.
- `normalize` subtracts the mean and divides by the std one channel column
  at a time: the same subtraction and division of each element.
- `_sq_norm` adds the 3 squared columns of a direction with `_columns.fold`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ._columns import fold
from .errors import EmptyCorpus, NonFiniteInput, ShapeMismatch
from .kinematics import (
    PART_NAMES,
    PART_SEMANTIC_CLASS,
    CameraModel,
    PartPoses,
    ToolGeometry,
    Trajectory,
    forward_kinematics,
    pixel_box,
    project,
)

N_CHANNELS = 9
NONSEMANTIC_SLICE = slice(3, 9)
_F4_MAX = float(np.finfo(np.float32).max)
# rows of squared deviations `compute_stats` holds at a time
STATS_BLOCK = 4096
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
    """One frame's H x W x 9 channels and its frame index: a KVAF record."""

    channels: np.ndarray
    t: int = 0

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=float)
        if ch.ndim != 3 or ch.shape[2] != N_CHANNELS:
            raise ShapeMismatch(f"expected H x W x {N_CHANNELS}, got {ch.shape}")
        object.__setattr__(self, "channels", ch)


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


def _sq_norm(x):
    """Squared norm of each row of an (N, 3) x; `(x * x).sum(axis=1)`."""
    return fold(np.add, (x[:, k] * x[:, k] for k in range(3)))


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
    qa = _sq_norm(dd)
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
    sa = _sq_norm(D)
    for center in (a, b):
        mc = -center
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


def _pixel_rays(cam: CameraModel, rows: slice, cols: slice):
    """(N, 3) ray directions, dz = 1, of the pixels in rows x cols, row-major."""
    jj, ii = np.meshgrid(np.arange(cols.start, cols.stop, dtype=float),
                         np.arange(rows.start, rows.stop, dtype=float))
    return np.stack([(jj - cam.cx) / cam.fx, (ii - cam.cy) / cam.fy,
                     np.ones_like(jj)], axis=-1).reshape(-1, 3)


def _screen_box(a, b, radius, cam: CameraModel):
    """Pixel rows and columns whose rays can hit the capsule (a, b, radius).

    The box is `kinematics.pixel_box` of the projected corners of the
    capsule's axis-aligned 3-D box: padded by one pixel against rounding and
    clipped to the frame; it may be empty. A corner far off to the side
    projects to +-inf and clips to the frame's edge. When any of the capsule
    lies at or behind z_near, it is the whole frame."""
    lo = np.minimum(a, b) - radius
    hi = np.maximum(a, b) + radius
    if lo[2] <= cam.z_near:
        return slice(0, cam.height), slice(0, cam.width)
    with np.errstate(over="ignore"):
        u, v = project(cam, np.array(list(product(*zip(lo, hi)))))  # 8 corners
    return pixel_box(cam, u, v)


def rasterize_parts(poses: PartPoses, cam: CameraModel):
    """Per-pixel front-most part index (into PART_NAMES, -1 = none) and depth.

    Each capsule's rays are tested only inside its screen box (`_screen_box`).
    The cull is exact: every finite hit is a point on the capsule, hence in
    its axis-aligned 3-D box, and with all of that box in front of the camera
    perspective projection maps it to the convex polygon spanned by its
    projected corners. A pixel whose ray hits lies on that polygon, so inside
    the corners' bounding box."""
    h, w = cam.height, cam.width
    labels = np.full((h, w), -1)
    best = np.full((h, w), np.inf)
    for k, part in enumerate(PART_NAMES):
        a, b = poses.endpoints[part]
        box = _screen_box(a, b, poses.radii[part], cam)
        D = _pixel_rays(cam, *box)
        if not len(D):
            continue
        near = best[box]
        depth = _ray_capsule_depths(D, a, b, poses.radii[part],
                                    cam.z_near).reshape(near.shape)
        # strictly nearer only: ties keep the earlier part, as argmin would
        nearer = depth < near
        near[nearer] = depth[nearer]
        labels[box][nearer] = k
    return labels, np.where(np.isfinite(best), best, 0.0)


# semantic one-hot row per part index
_PART_SEMANTICS = np.eye(3)[[PART_SEMANTIC_CLASS[part] for part in PART_NAMES]]


def _paint(labels, per_part):
    """Paint a (4, ...) per-part table on part labels; label -1 paints 0."""
    per_part = np.asarray(per_part, dtype=float)
    table = np.concatenate([per_part, np.zeros((1,) + per_part.shape[1:])])
    return np.take(table, labels, axis=0)


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
    with np.errstate(over="ignore"):  # a far-off part gets an infinite du
        du = cam.fx * (w[0] * mz - mid[0] * w[2]) / (mz * mz)
        dv = cam.fy * (w[1] * mz - mid[1] * w[2]) / (mz * mz)
    if np.hypot(du, dv) < 1e-12:
        return 0.0
    return float(np.arctan2(dv, du) / np.pi)


def rotation_channel(poses: PartPoses, cam: CameraModel, labels) -> np.ndarray:
    """Per-pixel orientation descriptor on the tool mask `labels`, 0 elsewhere."""
    return _paint(labels, [part_axis_angle(poses, cam, part) for part in PART_NAMES])


def _part_motion(poses, cam: CameraModel, dt: float):
    """Per-frame, per-part projected centroid velocity (T, 4, 3) and
    acceleration magnitude (T, 4) of a posed trajectory.

    The centroid is the capsule midpoint projected to (u, v, depth). v = 0 at
    frame 0 and where the midpoint is at or behind z_near at t or t - 1;
    alpha = |v_t - v_{t-1}| / dt, 0 before frame 2."""
    mid = np.array([[0.5 * (p.endpoints[part][0] + p.endpoints[part][1])
                     for part in PART_NAMES] for p in poses])
    z = mid[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        track = np.stack([*project(cam, mid), z], axis=-1)
    track[z <= cam.z_near] = np.nan
    v = np.zeros_like(track)
    v[1:] = (track[1:] - track[:-1]) / dt
    v[np.isnan(v).any(axis=-1)] = 0.0
    alpha = np.zeros(track.shape[:2])
    for t in range(2, len(poses)):
        for k in range(len(PART_NAMES)):
            alpha[t, k] = np.linalg.norm(v[t, k] - v[t - 1, k]) / dt
    return v, alpha


def motion_channels(labels, v_parts, alpha_parts):
    """Per-part centroid velocity (4, 3) and acceleration magnitude (4,)
    painted on the tool mask `labels`: (H, W, 3) and (H, W), 0 elsewhere."""
    return _paint(labels, v_parts), _paint(labels, alpha_parts)


def lift(poses: PartPoses, cam: CameraModel, v_parts, alpha_parts, out):
    """Write all 9 channels of one frame into out (H, W, 9) from its part
    poses and its rows of the trajectory's part motion (`_part_motion`)."""
    labels, out[..., 3] = rasterize_parts(poses, cam)
    out[..., 0:3] = _paint(labels, _PART_SEMANTICS)
    out[..., 4] = rotation_channel(poses, cam, labels)
    out[..., 5:8], out[..., 8] = motion_channels(labels, v_parts, alpha_parts)


def lift_trajectory(traj: Trajectory, geom: ToolGeometry, cam: CameraModel):
    """The trajectory's channels, one C-contiguous (T, H, W, 9) float64 array;
    forward kinematics runs once per frame. A pixel with no part label is
    +0.0 in all nine channels, which the CLI's routing grids rely on."""
    poses = [forward_kinematics(state, geom) for state in traj.states]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        v, alpha = _part_motion(poses, cam, traj.dt)
    # KVAF stores channels as float32, so a finite value beyond its range
    # would turn into inf on write
    bad = ~((np.abs(v) <= _F4_MAX).all(axis=-1) & (alpha <= _F4_MAX))
    if bad.any():
        t, k = np.argwhere(bad)[0]
        raise NonFiniteInput(
            f"frame {t + 1}: the {PART_NAMES[k]}'s projected velocity or "
            f"acceleration exceeds float32's range (dt {traj.dt:g})")
    channels = np.empty((len(poses), cam.height, cam.width, N_CHANNELS))
    for t, p in enumerate(poses):
        lift(p, cam, v[t], alpha[t], out=channels[t])
    return channels


def compute_stats(channels: np.ndarray) -> ChannelStats:
    """Per-channel mean/std of the non-semantic channels of a (..., 9)
    channel array, over all its pixels."""
    x = channels[..., NONSEMANTIC_SLICE].reshape(-1, 6)  # read only
    n = x.shape[0]
    if not n:
        raise EmptyCorpus("need at least one pixel to compute stats")
    mean = np.add.reduce(x, axis=0) / n
    # squared deviations of STATS_BLOCK rows at a time, each block summed
    # after the sum so far, which rides in its first row
    buf = np.empty((min(n, STATS_BLOCK) + 1, 6))
    sq_sum = np.zeros(6)
    for i in range(0, n, STATS_BLOCK):
        rows = x[i:i + STATS_BLOCK]
        block = buf[:len(rows) + 1]
        block[0] = sq_sum
        dev = np.subtract(rows, mean, out=block[1:])
        np.multiply(dev, dev, out=dev)
        sq_sum = np.add.reduce(block, axis=0)
    return ChannelStats(mean=mean, std=np.sqrt(sq_sum / n))


def normalize(channels: np.ndarray, stats: ChannelStats) -> np.ndarray:
    """A copy of a (..., 9) channel array with its non-semantic channels
    standardized; semantic channels pass through."""
    ch = np.array(channels, dtype=float, order="C")
    flat = ch.reshape(-1, N_CHANNELS)
    for k in range(6):
        c = flat[:, NONSEMANTIC_SLICE.start + k]
        c -= stats.mean[k]
        c /= stats.std[k]
    return ch


def tool_mask(ch: np.ndarray) -> np.ndarray:
    """Binary mask of a (..., 9) channel array: any semantic channel active."""
    return ((ch[..., 0] > 0) | (ch[..., 1] > 0) | (ch[..., 2] > 0)).astype(float)

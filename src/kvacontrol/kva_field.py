"""Pixel-aligned 9-channel control field lifted from articulated states.

Channel order: [s_shaft, s_wrist, s_gripper, depth, rho, v_x, v_y, v_z, alpha].
Semantic channels are binary, depth is camera depth at the front-most part,
rho is the projected long-axis angle of the visible part (normalized by pi),
v is the per-part projected centroid velocity (u, v, z), alpha the magnitude
of its temporal change.

Every channel but depth is constant on each part, so `lift_trajectory`
returns the field in compact form, a `LiftedTrajectory`: the rasterized part
labels (T, H, W), the depth (T, H, W) and one (5, 9) table of channel values
per frame, whose row for label -1 is zero. Forward kinematics runs once per
frame, and the capsule midpoints are projected once into the centroid track
from which `motion_channels` differences v and alpha. Dense channels are
painted from the tables only where an artefact needs them: the KVAF planes
(`LiftedTrajectory.field`) and the routing grids' tool blocks (`paint`). The
rasterizer ray-tests each capsule only inside its screen box, the bounding
box of its 3-D box's projected corners, which holds every pixel whose ray
can hit it (see `rasterize_parts`), so its cost scales with the tool's pixel
area. The box comes from `kinematics.pixel_box`, the rule
`metrics.render_tube` also crops its action tubes with; it clips in float,
so a pose that projects to +-inf gets an empty or edge-clipped box instead
of an overflow.

The statistics, the standardization and the ray tests work on axes only 3, 6
or 9 entries wide, where numpy pays its per-row overhead on every row. They
run a column at a time instead, doing the same float operations in the same
order, so every result keeps its bits:

- `compute_stats` gives the bits of numpy's `mean(axis=0)` and `std(axis=0)`
  over the painted (T * H * W, 6) rows of the non-semantic channels, which
  add the rows one after another in raster order, without painting them.
  A background row is +0.0 in every channel, and adding +0.0 leaves a sum
  as it is, except that it turns -0.0 into +0.0. So the mean's sum is that
  of the tool rows alone, gathered in raster order, plus 0.0 when any
  background pixel exists. Each squared deviation depends only on the
  pixel's part, apart from depth's, so a channel's are gathered from its
  five per-part values by label and summed with one sequential
  `np.add.accumulate` that carries the sum so far, `STATS_BLOCK` pixels of
  a frame at a time: no transient the size of the trajectory is allocated
  (a 12.6 MB copy once put the process's peak RSS at about 72 or 80 MB at
  256 x 256, T=4, depending on where earlier heap blocks had landed).
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
    Z_NEAR,
    CameraModel,
    PartPoses,
    ToolGeometry,
    Trajectory,
    forward_kinematics,
    pixel_box,
    project,
)

N_CHANNELS = 9
DEPTH = 3  # the one channel that varies within a part
NONSEMANTIC_SLICE = slice(3, 9)
_F4_MAX = float(np.finfo(np.float32).max)
# pixels whose squared deviations `compute_stats` holds at a time
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
    """One frame's KVAF record: its nine channel planes (9, H, W) as float32,
    the payload's layout, and its frame index."""

    planes: np.ndarray
    t: int = 0

    def __post_init__(self):
        planes = np.asarray(self.planes, dtype=np.float32)
        if planes.ndim != 3 or planes.shape[0] != N_CHANNELS:
            raise ShapeMismatch(f"expected {N_CHANNELS} x H x W, got {planes.shape}")
        object.__setattr__(self, "planes", planes)

    @property
    def channels(self) -> np.ndarray:
        """The frame's channels as an (H, W, 9) float64 array."""
        return np.moveaxis(self.planes, 0, 2).astype(float)


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


def _ray_capsule_depths(D, a, b, radius):
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
            valid = ok & (t > Z_NEAR) & (w >= 0) & (w <= L)
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
            valid = ok & (t > Z_NEAR)
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
    lies at or behind Z_NEAR, it is the whole frame."""
    lo = np.minimum(a, b) - radius
    hi = np.maximum(a, b) + radius
    if lo[2] <= Z_NEAR:
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
        depth = _ray_capsule_depths(D, a, b, poses.radii[part]).reshape(near.shape)
        # strictly nearer only: ties keep the earlier part, as argmin would
        nearer = depth < near
        near[nearer] = depth[nearer]
        labels[box][nearer] = k
    return labels, np.where(np.isfinite(best), best, 0.0)


# semantic one-hot row per part index
_PART_SEMANTICS = np.eye(3)[[PART_SEMANTIC_CLASS[part] for part in PART_NAMES]]
N_TABLE_ROWS = len(PART_NAMES) + 1  # the parts, then the zero row of label -1


@dataclass(frozen=True)
class LiftedTrajectory:
    """A trajectory's control field in compact form.

    labels: (T, H, W) index into PART_NAMES of each pixel's front-most part,
    -1 off the tool; depth: (T, H, W) that part's camera depth, +0.0 off the
    tool; tables: (T, N_TABLE_ROWS, 9) each part's channel values per frame,
    with a zero depth column (depth varies within a part) and a zero last row,
    which label -1 indexes. Channel c of pixel (t, i, j) is depth[t, i, j]
    for c = 3 and tables[t, labels[t, i, j], c] otherwise, so every channel
    of a pixel off the tool is +0.0."""

    labels: np.ndarray
    depth: np.ndarray
    tables: np.ndarray

    def __len__(self):
        return len(self.labels)

    def field(self, t: int) -> KvaField:
        """Frame t's KVAF record, each plane painted from the frame's table
        rounded to float32: the bits of rounding the painted float64 frame."""
        table = self.tables[t].astype(np.float32)
        labels = self.labels[t]
        planes = np.empty((N_CHANNELS,) + labels.shape, dtype=np.float32)
        for c, plane in enumerate(planes):
            if c == DEPTH:
                plane[...] = self.depth[t]
            else:  # label -1 wraps to the zero row
                np.take(table[:, c], labels, out=plane, mode="wrap")
        return KvaField(planes, t=t)


def paint(table, labels, depth) -> np.ndarray:
    """The (..., 9) channels of pixels with part `labels` and `depth` in a
    frame with part table `table` (see `LiftedTrajectory`)."""
    channels = np.take(table, labels, axis=0)
    channels[..., DEPTH] = depth
    return channels


def part_axis_angle(poses: PartPoses, cam: CameraModel, part: str) -> float:
    """Signed image-plane angle of the part's long axis, normalized by pi.

    Uses the projection Jacobian at the segment midpoint; 0 when the axis
    projects to a point (degenerate, axis along the viewing ray).
    """
    a, b = poses.endpoints[part]
    mid = 0.5 * (a + b)
    w = b - a
    mz = mid[2]
    if mz <= Z_NEAR:
        return 0.0
    with np.errstate(over="ignore"):  # a far-off part gets an infinite du
        du = cam.fx * (w[0] * mz - mid[0] * w[2]) / (mz * mz)
        dv = cam.fy * (w[1] * mz - mid[1] * w[2]) / (mz * mz)
    if np.hypot(du, dv) < 1e-12:
        return 0.0
    return float(np.arctan2(dv, du) / np.pi)


def rotation_channel(poses: PartPoses, cam: CameraModel) -> np.ndarray:
    """Per-part orientation descriptor (4,), the rho column of the frame's
    part table."""
    return np.array([part_axis_angle(poses, cam, part) for part in PART_NAMES])


def motion_channels(poses, cam: CameraModel, dt: float) -> np.ndarray:
    """Per-frame, per-part projected centroid velocity (u, v, depth) and
    acceleration magnitude of a posed trajectory: (T, 4, 4), the v_x, v_y,
    v_z and alpha columns of each frame's part table.

    The centroid is the capsule midpoint projected to (u, v, depth). v = 0 at
    frame 0 and where the midpoint is at or behind Z_NEAR at t or t - 1;
    alpha = |v_t - v_{t-1}| / dt, 0 before frame 2."""
    mid = np.array([[0.5 * (p.endpoints[part][0] + p.endpoints[part][1])
                     for part in PART_NAMES] for p in poses])
    z = mid[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        track = np.stack([*project(cam, mid), z], axis=-1)
    track[z <= Z_NEAR] = np.nan
    motion = np.zeros(track.shape[:2] + (4,))
    v = motion[..., :3]
    v[1:] = (track[1:] - track[:-1]) / dt
    v[np.isnan(v).any(axis=-1)] = 0.0
    for t in range(2, len(poses)):
        for k in range(len(PART_NAMES)):
            motion[t, k, 3] = np.linalg.norm(v[t, k] - v[t - 1, k]) / dt
    return motion


def lift(poses: PartPoses, cam: CameraModel, motion):
    """One frame's part labels (H, W), depth (H, W) and part table
    (N_TABLE_ROWS, 9) from its part poses and its rows of the trajectory's
    part motion (`motion_channels`)."""
    labels, depth = rasterize_parts(poses, cam)
    table = np.zeros((N_TABLE_ROWS, N_CHANNELS))
    table[:-1, 0:3] = _PART_SEMANTICS
    table[:-1, 4] = rotation_channel(poses, cam)
    table[:-1, 5:9] = motion
    return labels, depth, table


def lift_trajectory(traj: Trajectory, geom: ToolGeometry,
                    cam: CameraModel) -> LiftedTrajectory:
    """The trajectory's channels in compact form; forward kinematics runs
    once per frame."""
    poses = [forward_kinematics(state, geom) for state in traj.states]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        motion = motion_channels(poses, cam, traj.dt)
    # KVAF stores channels as float32, so a finite value beyond its range
    # would turn into inf on write
    bad = ~(np.abs(motion) <= _F4_MAX).all(axis=-1)
    if bad.any():
        t, k = np.argwhere(bad)[0]
        raise NonFiniteInput(
            f"frame {t + 1}: the {PART_NAMES[k]}'s projected velocity or "
            f"acceleration exceeds float32's range (dt {traj.dt:g})")
    shape = (len(poses), cam.height, cam.width)
    lifted = LiftedTrajectory(np.empty(shape, dtype=np.intp), np.empty(shape),
                              np.empty((len(poses), N_TABLE_ROWS, N_CHANNELS)))
    for t, p in enumerate(poses):
        (lifted.labels[t], lifted.depth[t],
         lifted.tables[t]) = lift(p, cam, motion[t])
    return lifted


def compute_stats(lifted: LiftedTrajectory) -> ChannelStats:
    """Per-channel mean/std of the non-semantic channels of a lifted
    trajectory, over all its pixels (see the module docstring)."""
    frames, h, w = lifted.labels.shape
    n = frames * h * w
    if not n:
        raise EmptyCorpus("need at least one pixel to compute stats")
    labels = lifted.labels.reshape(frames, h * w)
    depth = lifted.depth.reshape(frames, h * w)
    values = lifted.tables[..., NONSEMANTIC_SLICE]  # (T, rows, 6)

    # the tool rows in raster order: their part's values, then their depth
    tool = np.flatnonzero(labels >= 0)
    rows = np.take(values.reshape(-1, 6),
                   tool // (h * w) * N_TABLE_ROWS + labels.flat[tool], axis=0)
    rows[:, 0] = depth.flat[tool]
    total = np.add.reduce(rows, axis=0)
    if len(tool) < n:
        # the background's +0.0 rows can only turn a -0.0 sum into +0.0,
        # whether numpy's sum starts from its identity +0.0 or from the
        # first row
        total = total + 0.0
    mean = total / n

    # squared deviations, STATS_BLOCK pixels of a frame at a time: depth's
    # from the pixels, the others gathered from their part's. The sum so far
    # is added to each block's first entry (addition commutes) and the block
    # is summed along by one sequential accumulate
    dev = values - mean
    part_sq = dev * dev
    block = min(h * w, STATS_BLOCK)
    buf = np.empty(6 * block)
    sq_sum = np.zeros(6)
    for t in range(frames):
        part_rows = np.ascontiguousarray(part_sq[t, :, 1:].T)  # (5, rows)
        for i in range(0, h * w, block):
            px = slice(i, i + block)
            b = buf[:6 * len(labels[t, px])].reshape(6, -1)
            np.subtract(depth[t, px], mean[0], out=b[0])
            np.multiply(b[0], b[0], out=b[0])
            # label -1 wraps to the background's row
            np.take(part_rows, labels[t, px], axis=1, out=b[1:], mode="wrap")
            b[:, 0] += sq_sum
            sq_sum = np.add.accumulate(b, axis=1, out=b)[:, -1].copy()
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

"""Pixel-aligned 9-channel control field lifted from articulated states.

Channel order: [s_shaft, s_wrist, s_gripper, depth, rho, v_x, v_y, v_z, alpha].
Semantic channels are binary, depth is camera depth at the front-most part,
rho is the projected long-axis angle of the visible part (normalized by pi),
v is the per-part projected centroid velocity (u, v, z), alpha the magnitude
of its temporal change.

Every channel but depth is constant on each part, so `lift_trajectory`
returns the field in compact form, a `LiftedTrajectory`: the rasterized part
labels (T, H, W), the depth (T, H, W) and one (5, 9) table of channel values
per frame, whose row for label -1 is zero. The frames are lifted in
consecutive batches (below), each rasterized straight into its planes of the
two stacks (`rasterize_parts`' `out`). Forward kinematics poses the T
frames in one call, part-major, into (4, T, 2, 3) capsule ends and (4, T)
radii (`PartPoses`). Every reader takes that stack or a batch's slice of it
whole: the capsule midpoints are projected once
into the centroid track from which `motion_channels` differences v and
alpha, and each batch's rho column is one `rotation_channel` pass. Dense
channels are painted from the tables only where an artefact needs them: the
KVAF planes (`LiftedTrajectory.field`) and the routing grids' tool blocks
(`paint`).

The rasterizer ray-tests all four capsules of every frame of a batch in one
pass (`rasterize_parts`). Each capsule is tested only on its row spans: per
pixel row, the columns its projected oriented box covers up to one row above
or below, padded by a pixel, which hold every pixel whose ray can hit it. So
its cost scales with the tool's pixel area. A capsule whose box reaches the
near plane `kinematics.Z_NEAR` spans the whole frame. A span is padded and
clipped as `kinematics.pixel_box` pads and clips the action tubes' boxes, in
float, so a pose that projects to +-inf gets an empty or edge-clipped span
instead of an overflow. The rays of all the batch's capsules sit in one
(N, 3) array, each capsule's rows together, and every elementwise step runs
once over all of them. The matrix-vector products with each capsule's axis
and cap centres stay per capsule, on its own rows: BLAS rounds them with
fused multiply-adds, which no elementwise form reproduces, but it gives a
row the same bits however many rows share the product, so each depth keeps
the bits of testing its capsule alone (see `_ray_test`). Each part then
labels its front-most pixels in all of the batch's frames at once, in part
order as in one frame, since no two of a part's rays share a pixel. So a
batch changes no bit of the labels or the depth.

A batch is RASTER_BATCH_PX // (H * W) consecutive frames, at least one.
A 64 x 64 frame's spans hold about 1,000 rays, so a pass over one frame is
bound by numpy's per-call overhead, about 100 calls each in `_row_spans` and
`_ray_test`, not by arithmetic, and a batch pays it once. A batch past about
2^16 pixels gets slower per frame. The budget comes from a sweep of
`lift_trajectory` (composite, seed 1, one BLAS thread, 2 vCPUs with 2 MiB of
L2 cache each; median of 15 interleaved rounds, each the best of 3 calls),
against one frame per batch:

| budget | 64 x 64, T=10 | 128 x 128, T=10 | 256 x 256, T=4 | 256 x 256, T=10 |
| --- | --- | --- | --- | --- |
| 2^14 | -35% | 0% (1 frame) | -1% (1 frame) | -1% (1 frame) |
| 2^15 | -39% | -17% | 0% (1 frame) | 0% (1 frame) |
| 2^16 | -43% | -19% | 0% (1 frame) | +1% (1 frame) |
| 2^17 | -43% | -12% | +26% | +12% |

2^15 takes most of the gain and stays a doubling below where the cost turns
up, so a 256 x 256 frame is its own batch, as before batching.

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
  five per-part values by label, `STATS_BLOCK` pixels of a frame at a time,
  and summed by a sequential accumulate that carries the sum so far: no
  transient the size of the trajectory is allocated (a 12.6 MB copy once
  put the process's peak RSS at about 72 or 80 MB at 256 x 256, T=4,
  depending on where earlier heap blocks had landed). The six channels'
  sums run two to an add, channel k in lane k % 2 of row k // 2 of one
  complex128 (3, block) buffer (`_columns.lane_sums`, which gives each
  lane the bits of its own float64 accumulate): one complex gather from
  the frame's per-part squared deviations, viewed as (3, rows) complex,
  fills the block, and depth's lane, real of row 0, is then overwritten
  with the pixels' (d - mean)^2.
- `normalize` subtracts the mean and divides by the std one channel column
  at a time: the same subtraction and division of each element.
- `_sq_norm` adds the 3 squared columns of a direction with `_columns.fold`,
  and `_ray_test` takes each ray's offset from its capsule's axis, and the
  point at each cylinder root, a column at a time.

A dot product of 3-vectors that must keep `np.dot`'s bits is one
`np.vecdot` over the rows: it makes the same BLAS call per row as `np.dot`
of the row pair, an FMA chain that no elementwise form reproduces
(`tests/test_field.py` pins this). `_ray_test`'s capsule constants and
`motion_channels`' alpha take their norms and dots this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._columns import fold, lane_sums
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
    project,
)

N_CHANNELS = 9
DEPTH = 3  # the one channel that varies within a part
NONSEMANTIC_SLICE = slice(3, 9)
_F4_MAX = float(np.finfo(np.float32).max)
# pixels whose squared deviations `compute_stats` holds at a time
STATS_BLOCK = 4096
# pixels per `rasterize_parts` call: `lift_trajectory` rasterizes
# RASTER_BATCH_PX // (H * W) frames at a time, at least one (see the module
# docstring for the sweep behind it)
RASTER_BATCH_PX = 2 ** 15
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


# corner c of a capsule's oriented box lies past end c & 1 of its axis, on
# the sides that bits 1 and 2 pick; an edge joins corners differing in one bit
_CORNER_SIGNS = np.array([[(c >> bit & 1) * 2.0 - 1.0 for bit in range(3)]
                          for c in range(8)])
_BOX_EDGES = np.array([(c, c | 1 << bit) for c in range(8) for bit in range(3)
                       if not c >> bit & 1]).T  # (2, 12)
# a box whose projected corners reach farther than this many pixels spans
# the whole frame; within it the spans' rounding stays far inside their pad
SPAN_REACH = 2.0 ** 30


def _row_spans(ends, radii, cam: CameraModel):
    """Per capsule and pixel row, the columns [j0, j1) whose rays can hit
    the capsule: two (N, H) integer arrays.

    ends: (N, 2, 3) capsule endpoints; radii: their (N,) radii.
    Row i's span is the u-range of the capsule's projected oriented box
    inside the band i - 1 <= v <= i + 1, padded and clipped to the frame as
    `kinematics.pixel_box` pads and clips; it may be empty. A capsule whose box
    reaches Z_NEAR, or projects farther than SPAN_REACH pixels, spans the
    whole frame. See `rasterize_parts` for why no hit is lost."""
    h, w = cam.height, cam.width
    i = np.arange(h, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the box's frame: the unit axis and two unit sides across it
        # (Duff et al., "Building an orthonormal basis, revisited", 2017)
        axis = ends[:, 1] - ends[:, 0]
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        x, y, z = axis.T
        sgn = np.copysign(1.0, z)
        k = -1.0 / (sgn + z)
        c = x * y * k
        frame = np.stack([axis, np.stack([1.0 + sgn * x * x * k, sgn * c, -sgn * x], 1),
                          np.stack([c, sgn + y * y * k, -y], 1)], 1)
        corners = ends[:, [0, 1] * 4] + _CORNER_SIGNS @ (frame * radii[:, None, None])
        u, v = project(cam, corners)  # (4, 8)
        whole = ~((corners[..., 2] > Z_NEAR).all(axis=1)
                  & (np.abs(u) <= SPAN_REACH).all(axis=1)
                  & (np.abs(v) <= SPAN_REACH).all(axis=1))
        # each edge from its lower end (u0, v0) to its upper end (u1, v1)
        ev, eu = v[:, _BOX_EDGES], u[:, _BOX_EDGES]  # (4, 2, 12)
        flip = (ev[:, 0] > ev[:, 1])[:, None]
        (v0, v1), (u0, u1) = (np.where(flip, e[:, ::-1], e).transpose(1, 0, 2)[..., None]
                              for e in (ev, eu))
        dv = v1 - v0
        slope = np.divide(u1 - u0, dv, out=np.zeros_like(dv), where=dv != 0)
        # each edge's piece inside each row's band, from v = lo to v = hi,
        # its u taken from the nearer end; a flat edge in the band is whole
        lo = np.maximum(i - 1.0, v0)
        hi = np.minimum(i + 1.0, v1)
        ua = u0 + (lo - v0) * slope
        ub = u1 - (v1 - hi) * slope
        meets = lo <= hi
        left = np.fmin.reduce(np.minimum(ua, ub), axis=1, where=meets, initial=np.inf)
        right = np.fmax.reduce(np.maximum(ua, ub), axis=1, where=meets, initial=-np.inf)
    # as `pixel_box`: clipped in float, then floor - 1 and ceil + 2
    j0 = np.floor(np.clip(left, 1.0, w + 1.0)) - 1.0
    j1 = np.ceil(np.minimum(np.maximum(right, j0 - 2.0), w - 2.0)) + 2.0
    j0[whole], j1[whole] = 0, w
    return j0.astype(np.intp), j1.astype(np.intp)


def _ray_test(ends, radii, cam: CameraModel, j0, j1):
    """Ray-test every capsule of a batch of frames on its row spans in one
    pass.

    ends: (N, 2, 3) capsule endpoints, part-major over a batch of
    B = N / len(PART_NAMES) frames: capsule c is part c // B of frame c % B;
    radii: their radii; j0, j1: (N, H) columns [j0, j1) of each pixel row to
    test per capsule. Returns the tested pixels' flat indices into the
    batch's (B, H, W) stack (N,), each ray's smallest hit depth (N,) (inf on
    a miss) and the capsules' (N + 1,) offsets into both: capsule c's rays
    are bounds[c]:bounds[c + 1], row-major. Each ray's direction has dz = 1,
    so its parameter is camera depth.

    The elementwise steps run once over all the batch's rays, a column at a
    time, with each capsule's constants repeated over its rays: the rays'
    offsets from their axis, the quadratic coefficients, discriminants and
    roots, the cylinder roots' points, validity and the minimum over the six
    candidate roots. The BLAS matrix-vector products `D @ axis`,
    `2.0 * dd @ mm`, `(m + t * D) @ axis` and `2.0 * D @ mc` run per
    capsule, on its own rows. Each row of an (n, 3) @ (3,) product with
    n >= 2 has the same bits whatever n and the row's offset
    (`tests/test_field.py` pins this up to a batch's largest ray count).
    OpenBLAS fuses the three terms into FMAs, which no numpy elementwise
    form reproduces, so the products cannot be batched across capsules, but
    a ray's depth does not depend on which other rays share the pass. A
    one-row product takes numpy's dot path and may round differently. No
    capsule with one ray can be hit, though, unless the frame is one pixel,
    where every cull tests that same ray: a hit pixel lies in its capsule's
    projection, which each span pads by a pixel on each side and a row above
    and below, so each neighbour of the pixel is tested too."""
    h, w = cam.height, cam.width
    frames = len(ends) // len(PART_NAMES)
    n = (j1 - j0).ravel()  # rays per capsule and row, capsule-major
    stop = np.cumsum(n)
    bounds = np.concatenate(([0], stop[h - 1::h]))
    span = np.repeat(np.arange(n.size), n)
    owner, rows = np.divmod(span, h)  # each ray's capsule and pixel row
    # a span's first ray, less its first column: span c * h + i is pixel
    # row i of capsule c's frame c % B
    first = stop - n - j0.ravel()
    ray = np.arange(len(span))
    cols = ray - first[span]
    pix = ray - (first - np.arange(n.size) % (frames * h) * w)[span]
    D = np.empty((len(span), 3))
    D[:, 0] = ((np.arange(w, dtype=float) - cam.cx) / cam.fx)[cols]
    D[:, 1] = ((np.arange(h, dtype=float) - cam.cy) / cam.fy)[rows]
    D[:, 2] = 1.0
    capsules = [slice(*bounds[k:k + 2]) for k in range(len(ends))]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # each capsule's constants, one row each, repeated over its rays
        a, b = ends[:, 0], ends[:, 1]
        r2 = radii * radii
        s = b - a
        length = np.sqrt(np.vecdot(s, s))  # np.linalg.norm of each
        axis = s / length[:, None]
        m = -a
        mm = m - np.vecdot(m, axis)[:, None] * axis
        table = np.column_stack([axis, m, length, np.vecdot(mm, mm) - r2,
                                 np.vecdot(m, m) - r2, np.vecdot(-b, -b) - r2])
        axis_r, m_r, (length_r, qc), sc = np.split(table.T[:, owner], [3, 6, 8])

        # the infinite cylinder around each axis. dd: the rays off the axis.
        # A root whose discriminant is negative is nan and fails every test
        dd = np.empty_like(D)
        d_ax = np.empty(len(D))
        for k, rays in enumerate(capsules):
            np.matmul(D[rays], axis[k], out=d_ax[rays])
        for j in range(3):
            np.multiply(d_ax, axis_r[j], out=dd[:, j])
        np.subtract(D, dd, out=dd)
        qa = _sq_norm(dd)
        dd *= 2.0
        qb = d_ax
        for k, rays in enumerate(capsules):
            np.matmul(dd[rays], mm[k], out=qb[rays])
        sq = np.sqrt(np.where(qa > 1e-16, qb * qb - 4 * qa * qc, np.nan))
        qb, qa = -qb, 2 * qa
        depth = np.full(len(D), np.inf)
        along = np.empty(len(D))
        for t in (qb - sq, qb + sq):
            t /= qa
            # the root's point m + t * D, in dd's buffer, along the axis
            for j in range(3):
                np.multiply(t, D[:, j], out=dd[:, j])
                dd[:, j] += m_r[j]
            for k, rays in enumerate(capsules):
                np.matmul(dd[rays], axis[k], out=along[rays])
            np.minimum(depth, t, out=depth,
                       where=(t > Z_NEAR) & (along >= 0) & (along <= length_r))

        # the spherical caps around each end
        sa = _sq_norm(D)
        D *= 2.0
        sb = along
        for c, centre in enumerate((m, -b)):
            for k, rays in enumerate(capsules):
                np.matmul(D[rays], centre[k], out=sb[rays])
            sq = np.sqrt(sb * sb - 4 * sa * sc[c])
            for t in (-sb - sq, -sb + sq):
                t /= 2 * sa
                np.minimum(depth, t, out=depth, where=t > Z_NEAR)
    return pix, depth, bounds


def rasterize_parts(poses: PartPoses, cam: CameraModel, out):
    """Per-pixel front-most part index (into PART_NAMES, -1 = none) and depth
    of a batch of frames, written into `out`, a pair of C-contiguous
    (B, H, W) arrays, intp and float64; returns out.

    `poses` holds the batch's B frames part-major: (4, B, 2, 3) capsule ends
    and (4, B) radii. One frame's own `PartPoses`, with (4, 2, 3) ends and
    (4,) radii, is a batch of one, with (H, W) planes in `out`.
    `lift_trajectory` passes batches of RASTER_BATCH_PX // (H * W) frames,
    at least one: the module docstring gives the sweep behind that budget.

    All 4 * B capsules are ray-tested in one pass (`_ray_test`), each only
    on its row spans (`_row_spans`). Only the matrix-vector products stay
    per capsule: BLAS rounds a row the same whatever other rows share the
    product, but not as any elementwise form does, so each depth keeps the
    bits of testing its capsule alone, in any batch. The cull is exact:

    - Every finite hit is a point on the capsule, so inside its oriented
      box: the axis extended by the radius at both ends, with sides of twice
      the radius. With all of the box in front of the camera, perspective
      projection maps it onto the convex polygon spanned by its eight
      projected corners, whose boundary lies on the projections of the
      box's 12 edges.
    - A hit pixel (j, i) lies on that polygon, at v = i. The polygon's
      interval on the line v = i has its ends on edges that reach that line.
      Each such edge's piece inside the band i - 1 <= v <= i + 1 holds its
      point at v = i, and the span covers every piece's u-range, so j is in
      it. Pieces of other edges lie inside the polygon, so they widen the
      span only to the polygon's width within the band.
    - Every projected corner lies within SPAN_REACH pixels, so the rounding
      of the box, its projection and the pieces' ends moves a span by about
      1e-6 px at most, far inside the one-pixel pad. An edge that reaches
      v = i meets the band a whole row inside its boundary, so rounding
      cannot drop it.

    Then, in part order, a part labels the pixels where it is strictly nearer
    than every earlier part: ties keep the earlier part, as argmin would.
    Each part does this once for the whole batch: its rays in all frames are
    one run of `_ray_test`'s output, and no two of them share a pixel."""
    ends = poses.endpoints.reshape(-1, 2, 3)
    radii = poses.radii.reshape(-1)
    frames = len(ends) // len(PART_NAMES)
    pix, depth, bounds = _ray_test(ends, radii, cam, *_row_spans(ends, radii, cam))
    labels, best = (a.reshape(-1) for a in out)  # views: out is contiguous
    labels.fill(-1)
    best.fill(np.inf)
    for k in range(len(PART_NAMES)):
        rays = slice(bounds[k * frames], bounds[(k + 1) * frames])
        px, d = pix[rays], depth[rays]
        nearer = d < best[px]
        px = px[nearer]
        best[px] = d[nearer]
        labels[px] = k
    best[best == np.inf] = 0.0
    return out


# semantic one-hot row per part index
_PART_SEMANTICS = np.eye(3)[list(PART_SEMANTIC_CLASS)]
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


def rotation_channel(poses: PartPoses, cam: CameraModel) -> np.ndarray:
    """Signed image-plane angle of each part's long axis, normalized by pi:
    (4,) for one frame's poses, (4, B) for a batch's, the rho column of the
    frames' part tables.

    Uses the projection Jacobian at the segment midpoint; 0 where the
    midpoint is at or behind Z_NEAR, and where the axis projects to a point
    (degenerate, axis along the viewing ray). A far-off part's midpoint or
    Jacobian may overflow, and a nan angle passes through. Every step is
    elementwise, with the bits of the same scalar arithmetic per part."""
    a, b = poses.endpoints[..., 0, :], poses.endpoints[..., 1, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mid = 0.5 * (a + b)
        w = b - a
        mz = mid[..., 2]
        du = cam.fx * (w[..., 0] * mz - mid[..., 0] * w[..., 2]) / (mz * mz)
        dv = cam.fy * (w[..., 1] * mz - mid[..., 1] * w[..., 2]) / (mz * mz)
        rho = np.arctan2(dv, du) / np.pi
        rho[(mz <= Z_NEAR) | (np.hypot(du, dv) < 1e-12)] = 0.0
    return rho


def motion_channels(poses: PartPoses, cam: CameraModel, dt: float) -> np.ndarray:
    """Per-frame, per-part projected centroid velocity (u, v, depth) and
    acceleration magnitude of a posed trajectory, its T frames' poses
    stacked part-major, (4, T, 2, 3): (T, 4, 4), the v_x, v_y, v_z and alpha
    columns of each frame's part table.

    The centroid is the capsule midpoint projected to (u, v, depth). v = 0 at
    frame 0 and where the midpoint is at or behind Z_NEAR at t or t - 1;
    alpha = |v_t - v_{t-1}| / dt, 0 before frame 2, each norm the square
    root of one row's `np.vecdot`, as `np.linalg.norm` of a 3-vector forms
    it."""
    ends = np.moveaxis(poses.endpoints, 0, 1)  # (T, 4, 2, 3)
    mid = 0.5 * (ends[..., 0, :] + ends[..., 1, :])
    z = mid[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        track = np.stack([*project(cam, mid), z], axis=-1)
    track[z <= Z_NEAR] = np.nan
    motion = np.zeros(track.shape[:2] + (4,))
    v = motion[..., :3]
    v[1:] = (track[1:] - track[:-1]) / dt
    v[np.isnan(v).any(axis=-1)] = 0.0
    d = v[2:] - v[1:-1]
    motion[2:, :, 3] = np.sqrt(np.vecdot(d, d)) / dt
    return motion


def lift(poses: PartPoses, cam: CameraModel, motion, out):
    """A batch of frames' part tables (B, N_TABLE_ROWS, 9) from their poses,
    stacked part-major (4, B, 2, 3), and their rows (B, 4, 4) of the
    trajectory's part motion (`motion_channels`); their part labels and
    depth are rasterized into `out`, a pair of C-contiguous (B, H, W)
    arrays, by one `rasterize_parts` call."""
    rasterize_parts(poses, cam, out)
    tables = np.zeros((len(motion), N_TABLE_ROWS, N_CHANNELS))
    tables[:, :-1, 0:3] = _PART_SEMANTICS
    tables[:, :-1, 4] = rotation_channel(poses, cam).T
    tables[:, :-1, 5:9] = motion
    return tables


def lift_trajectory(traj: Trajectory, geom: ToolGeometry,
                    cam: CameraModel) -> LiftedTrajectory:
    """The trajectory's channels in compact form. Forward kinematics poses
    every frame in one call, part-major (4, T, 2, 3), and reports the first
    frame with a joint value outside the geometry's limits or a rotation
    angle that overflows; the poses are lifted in consecutive batches of
    RASTER_BATCH_PX // (H * W) frames, at least one."""
    poses = forward_kinematics(traj.states, geom)
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
    shape = (len(motion), cam.height, cam.width)
    lifted = LiftedTrajectory(np.empty(shape, dtype=np.intp), np.empty(shape),
                              np.empty((len(motion), N_TABLE_ROWS, N_CHANNELS)))
    batch = max(1, RASTER_BATCH_PX // (cam.height * cam.width))
    for t in range(0, len(motion), batch):  # rasterized into the stacks in place
        frames = slice(t, t + batch)
        lifted.tables[frames] = lift(
            PartPoses(poses.endpoints[:, frames], poses.radii[:, frames]), cam,
            motion[frames], (lifted.labels[frames], lifted.depth[frames]))
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
    # is summed along by one sequential accumulate, two channels to an add
    dev = values - mean
    part_sq = dev * dev
    block = min(h * w, STATS_BLOCK)
    buf = np.empty(3 * block, dtype=np.complex128)
    sq_sum = np.zeros(6)
    # one frame at a time: each frame gathers from its own part table, and a
    # block never crosses a frame
    for t in range(frames):
        # channel k in lane k % 2 of row k // 2 (see `_columns.lane_sums`)
        part_rows = np.ascontiguousarray(part_sq[t].view(np.complex128).T)
        for i in range(0, h * w, block):
            px = slice(i, i + block)
            b = buf[:3 * len(labels[t, px])].reshape(3, -1)
            # label -1 wraps to the background's row
            np.take(part_rows, labels[t, px], axis=1, out=b, mode="wrap")
            d = b[0].real  # depth's lane, from the pixels
            np.subtract(depth[t, px], mean[0], out=d)
            np.multiply(d, d, out=d)
            sq_sum = lane_sums(b, sq_sum)
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

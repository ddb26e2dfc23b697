"""Mask-based action-faithfulness metrics.

Exact Euclidean distance transform (a row pass, then a column pass that folds
in rows at growing offsets until no farther row can be nearer), symmetric
Chamfer distance on the masks' joint bounding box, temporal IoU, area flicker
and Dice. Also renders fixed-width action tubes from projected tool
skeletons for use as ground-truth masks.

`evaluate_sequence` fills one float (T, 4) table, a row per frame of cd, ti,
af and dice. CD is one loop over frames and labels. TI, AF and Dice are
array expressions over the stacked boolean unions; each divides the same
integer pixel counts as on one frame, so every entry keeps its bits. nan
marks a frame with no valid CD (a label present on one side only, or no
label on either) and frame 1's TI and AF; each mean is over its column's
finite entries, in frame order.

`render_tube` measures each part's tube only on that tube's pixel box
(`kinematics.pixel_box` of the projected segment, widened by the half width),
so its cost scales with the tube, not with the frame. Every pixel outside the
box is more than half width + 1 px from the segment, and the per-pixel
arithmetic is elementwise, so the labels keep their bits. Past `TUBE_CROP_MAX`
px that bound no longer holds in floating point, and the part is measured on
the whole frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, LabelOutOfRange
from .kinematics import (
    PART_SEMANTIC_CLASS,
    Z_NEAR,
    CameraModel,
    PartPoses,
    pixel_box,
    project,
)

INF = 1e18
# largest |u|, |v| of a tube's endpoints, and half width, that `render_tube`
# crops at; beyond it a part is measured on the whole frame
TUBE_CROP_MAX = 2.0 ** 20


def _row_pass(mask: np.ndarray) -> np.ndarray:
    """Squared distance to the nearest foreground pixel within each row.

    Vectorized special case of the 1-D transform for binary input: the
    nearest foreground column on each side is found with cumulative scans.
    """
    h, w = mask.shape
    j = np.arange(w, dtype=float)
    left = np.maximum.accumulate(np.where(mask, j, -np.inf), axis=1)
    right = np.minimum.accumulate(np.where(mask, j, np.inf)[:, ::-1],
                                  axis=1)[:, ::-1]
    d = np.minimum(j - left, right - j)
    return np.where(np.isfinite(d), d * d, INF)


def distance_transform(mask: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance to the nearest foreground pixel.

    Two passes on squared distances. The row pass gives g, the squared
    distance to the nearest foreground pixel in the same row. The column
    pass computes d2[i] = min_j g[j] + (i - j)^2 by folding in g shifted by
    +-k rows plus k^2 for k = 1, 2, ... It stops once k^2 >= max(d2): every
    candidate from k rows away or more is at least k^2, so none can lower
    any pixel. All values are integer squared distances, so the result is
    the exact sqrt of the true squared distance.

    Empty masks yield all-inf (callers treat that as the empty-mask sentinel).
    """
    mask = np.asarray(mask).astype(bool)
    if not mask.any():
        return np.full(mask.shape, np.inf)
    g = _row_pass(mask)
    d2 = g.copy()
    h = g.shape[0]
    k = 1
    while k < h and k * k < d2.max():
        np.minimum(d2[k:], g[:-k] + k * k, out=d2[k:])
        np.minimum(d2[:-k], g[k:] + k * k, out=d2[:-k])
        k += 1
    return np.sqrt(d2)


def chamfer(P: np.ndarray, T: np.ndarray) -> float:
    """Symmetric mean nearest-pixel distance between two binary masks; nan
    when either mask is empty (such a frame's CD is skipped)."""
    P = np.asarray(P).astype(bool)
    T = np.asarray(T).astype(bool)
    if not P.any() or not T.any():
        return float("nan")
    # every pixel of P and T lies inside the crop, so distances are unchanged
    union = P | T
    rows = np.flatnonzero(union.any(axis=1))
    cols = np.flatnonzero(union.any(axis=0))
    box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    P, T = P[box], T[box]
    d_to_T = distance_transform(T)
    d_to_P = distance_transform(P)
    return float(0.5 * (d_to_T[P].mean() + d_to_P[T].mean()))


def _area(masks):
    return np.count_nonzero(masks, axis=(-2, -1))


def temporal_iou(P_t: np.ndarray, P_prev: np.ndarray) -> np.ndarray:
    """IoU of consecutive (..., H, W) masks; 1 where both are empty."""
    union = _area(P_t | P_prev)
    return np.where(union == 0, 1.0, _area(P_t & P_prev) / np.maximum(union, 1))


def area_flicker(P_t: np.ndarray, P_prev: np.ndarray) -> np.ndarray:
    """Relative area change of consecutive (..., H, W) masks, the previous
    area floored at 1."""
    a_t, a_p = _area(P_t), _area(P_prev)
    return abs(a_t - a_p) / np.maximum(a_p, 1)


def dice(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """2|A^B| / (|A| + |B|) of (..., H, W) masks; 1 where both are empty."""
    total = _area(A) + _area(B)
    return np.where(total == 0, 1.0, 2 * _area(A & B) / np.maximum(total, 1))


@dataclass
class MetricsReport:
    """frames: (T, 4) cd, ti, af and dice per frame; means: (4,) each
    column's mean over its finite entries; skipped_cd: frames whose cd is
    nan."""

    frames: np.ndarray
    means: np.ndarray
    skipped_cd: int


def check_labels(labels):
    """Raise LabelOutOfRange unless every label is 0, 1, 2 or 3."""
    if labels.min() < 0 or labels.max() > 3:
        raise LabelOutOfRange("mask labels must be in {0, 1, 2, 3}")


def evaluate_sequence(pred, target) -> MetricsReport:
    """The table of two sequences of equal-shape (H, W) label masks: CD on
    the per-label masks, TI and AF between consecutive predicted unions
    (nan at frame 1), Dice between the predicted and target unions."""
    frames = np.full((len(pred), 4), np.nan)
    for row, p, q in zip(frames, pred, target):
        check_labels(p)
        check_labels(q)
        cds = []
        for label in (1, 2, 3):
            pm, tm = p == label, q == label
            if pm.any() or tm.any():
                cds.append(chamfer(pm, tm))
        if not np.isnan(cds).all():
            row[0] = np.nanmean(cds)
    unions = np.stack([p > 0 for p in pred])
    frames[1:, 1] = temporal_iou(unions[1:], unions[:-1])
    frames[1:, 2] = area_flicker(unions[1:], unions[:-1])
    frames[:, 3] = dice(unions, np.stack([q > 0 for q in target]))
    finite = np.isfinite(frames)
    means = np.array([col[ok].mean() if ok.any() else np.nan
                      for col, ok in zip(frames.T, finite.T)])
    return MetricsReport(frames, means, int(np.count_nonzero(~finite[:, 0])))


def _point_segment_dist2(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    seg2 = vx * vx + vy * vy
    t = 0.0 if seg2 == 0 else np.clip((wx * vx + wy * vy) / seg2, 0.0, 1.0)
    dx, dy = wx - t * vx, wy - t * vy
    return dx * dx + dy * dy


def _check_half_width(half_width):
    if not 0 < half_width < np.inf:
        raise InvalidParams(f"tube half width must be finite and > 0, "
                            f"got {half_width}")


def render_tube(poses: PartPoses, cam: CameraModel, half_width: float = 3.0):
    """Label mask from the projected tool skeleton, drawn as fixed-width tubes.

    Overlaps are resolved front-most by the segment midpoint depth.

    Each part is measured only on its tube's box: `pixel_box` of the two
    projected endpoints widened by `half_width`, padded by -1 px at the low
    edge and +2 px at the high edge and clipped to the frame. The crop leaves
    every label's bits as the whole frame gives them:

    - `_point_segment_dist2` and the depth test are elementwise, and the
      pixel coordinates are the same float values, so a pixel inside the box
      gets the same squared distance and the same outcome.
    - A pixel outside the box is more than `half_width` + 1 px from the
      segment along a row or a column: a row i < i0 has i <= fl(v_min - hw)
      - 2, and fl(v_min - hw) rounds by under 2^-31 px when |v| and hw are at
      most 2^20; the high edge is symmetric. So its exact squared distance
      exceeds hw^2 + 2 hw + 1, a margin of over 1 px^2. With every endpoint
      coordinate and hw at most `TUBE_CROP_MAX` = 2^20, a pixel within 2^22
      px of the segment has every intermediate below 2^23 in magnitude, and
      the computed squared distance is off by far less than 1 px^2; a pixel
      farther out has a squared distance above 2^44 > hw^2 however it
      rounds. Either way `d2 <= hw^2` is false, as the crop assumes.
    - Past `TUBE_CROP_MAX`, rounding and overflow can exceed the margin, so
      such a part (or a half width past it) is measured on the whole frame.

    Projections that overflow to +-inf are such parts: their tube misses
    every pixel, as the whole-frame comparison against nan or inf says.

    The frame's eight endpoints are projected in one `kinematics.project`
    call, elementwise, so each keeps the bits of projecting it alone; a part
    with an end at or behind `kinematics.Z_NEAR` is not drawn."""
    _check_half_width(half_width)
    h, w = cam.height, cam.width
    labels = np.zeros((h, w), dtype=int)
    best_z = np.full((h, w), np.inf)
    hw2 = half_width * half_width
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u, v = project(cam, poses.endpoints)  # (4, 2) each
    z = poses.endpoints[..., 2]
    for (ua, ub), (va, vb), (za, zb), cls in zip(u, v, z, PART_SEMANTIC_CLASS):
        if za <= Z_NEAR or zb <= Z_NEAR:
            continue
        if all(abs(x) <= TUBE_CROP_MAX for x in (ua, ub, va, vb, half_width)):
            rows, cols = pixel_box(cam, (ua, ub), (va, vb), half_width)
        else:
            rows, cols = slice(0, h), slice(0, w)
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = _point_segment_dist2(
                np.arange(cols.start, cols.stop, dtype=float),
                np.arange(rows.start, rows.stop, dtype=float)[:, None],
                ua, va, ub, vb)
        z_mid = 0.5 * (za + zb)
        near = best_z[rows, cols]
        hit = (d2 <= hw2) & (z_mid < near)
        labels[rows, cols][hit] = cls + 1
        near[hit] = z_mid
    return labels

"""Mask-based action-faithfulness metrics.

Exact Euclidean distance transform (a row pass, then a column pass that folds
in rows at growing offsets until no farther row can be nearer), symmetric
Chamfer distance on the masks' joint bounding box, temporal IoU, area flicker,
Dice, and the per-sequence aggregation rules. Also renders fixed-width action
tubes from projected tool skeletons for use as ground-truth masks.

`render_tube` measures each part's tube only on that tube's pixel box
(`kinematics.pixel_box` of the projected segment, widened by the half width),
so its cost scales with the tube, not with the frame. Every pixel outside the
box is more than half width + 1 px from the segment, and the per-pixel
arithmetic is elementwise, so the labels keep their bits. Past `TUBE_CROP_MAX`
px that bound no longer holds in floating point, and the part is measured on
the whole frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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


def chamfer(P: np.ndarray, T: np.ndarray):
    """Symmetric mean nearest-pixel distance between two binary masks.

    Returns (value, valid). valid is False (value nan) when either mask is
    empty; such frames are skipped and counted by the aggregator."""
    P = np.asarray(P).astype(bool)
    T = np.asarray(T).astype(bool)
    if not P.any() or not T.any():
        return float("nan"), False
    # every pixel of P and T lies inside the crop, so distances are unchanged
    union = P | T
    rows = np.flatnonzero(union.any(axis=1))
    cols = np.flatnonzero(union.any(axis=0))
    box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    P, T = P[box], T[box]
    d_to_T = distance_transform(T)
    d_to_P = distance_transform(P)
    cd = 0.5 * (d_to_T[P].mean() + d_to_P[T].mean())
    return float(cd), True


def temporal_iou(P_t: np.ndarray, P_prev: np.ndarray) -> float:
    """IoU of consecutive masks; 1 when both are empty."""
    P_t = np.asarray(P_t).astype(bool)
    P_prev = np.asarray(P_prev).astype(bool)
    union = (P_t | P_prev).sum()
    if union == 0:
        return 1.0
    return float((P_t & P_prev).sum() / union)


def area_flicker(P_t: np.ndarray, P_prev: np.ndarray) -> float:
    """Relative frame-to-frame area change, previous area floored at 1."""
    a_t = int(np.asarray(P_t).astype(bool).sum())
    a_p = int(np.asarray(P_prev).astype(bool).sum())
    return abs(a_t - a_p) / max(a_p, 1)


def dice(A: np.ndarray, B: np.ndarray) -> float:
    """2|A^B| / (|A| + |B|); 1 when both are empty."""
    A = np.asarray(A).astype(bool)
    B = np.asarray(B).astype(bool)
    total = A.sum() + B.sum()
    if total == 0:
        return 1.0
    return float(2 * (A & B).sum() / total)


@dataclass
class MaskFrame:
    """Per-pixel labels: 0 background, 1 shaft, 2 wrist, 3 gripper."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        if labels.min() < 0 or labels.max() > 3:
            raise LabelOutOfRange("mask labels must be in {0, 1, 2, 3}")
        self.labels = labels

    @property
    def union(self) -> np.ndarray:
        return self.labels > 0

    def part_mask(self, label: int) -> np.ndarray:
        return self.labels == label


@dataclass
class MetricsReport:
    """Per-frame values plus means over valid frames; nan entries were skipped."""

    cd: list = dc_field(default_factory=list)
    ti: list = dc_field(default_factory=list)
    af: list = dc_field(default_factory=list)
    dice: list = dc_field(default_factory=list)
    mean_cd: float = float("nan")
    mean_ti: float = float("nan")
    mean_af: float = float("nan")
    mean_dice: float = float("nan")
    skipped_cd: int = 0


def _valid_mean(values):
    vals = [v for v in values if np.isfinite(v)]
    return float(np.mean(vals)) if vals else float("nan")


def aggregate(cd_values, ti_values, af_values, dice_values) -> MetricsReport:
    """Means over valid (finite) entries; skip counts recorded for Chamfer."""
    report = MetricsReport(cd=list(cd_values), ti=list(ti_values),
                           af=list(af_values), dice=list(dice_values))
    report.mean_cd = _valid_mean(report.cd)
    report.mean_ti = _valid_mean(report.ti)
    report.mean_af = _valid_mean(report.af)
    report.mean_dice = _valid_mean(report.dice)
    report.skipped_cd = sum(1 for v in report.cd if not np.isfinite(v))
    return report


def evaluate_sequence(pred_frames, target_frames) -> MetricsReport:
    """CD per frame on instance (per-label) masks, TI/AF on consecutive
    predicted unions, Dice between predicted and target unions."""
    cds, tis, afs, dices = [], [], [], []
    prev_union = None
    for pf, tf in zip(pred_frames, target_frames):
        frame_cds = []
        for label in (1, 2, 3):
            pm, tm = pf.part_mask(label), tf.part_mask(label)
            if not pm.any() and not tm.any():
                continue
            value, valid = chamfer(pm, tm)
            frame_cds.append(value if valid else float("nan"))
        if frame_cds:
            cds.append(float(np.nanmean(frame_cds))
                       if any(np.isfinite(v) for v in frame_cds) else float("nan"))
        else:
            cds.append(float("nan"))
        union = pf.union
        if prev_union is not None:
            tis.append(temporal_iou(union, prev_union))
            afs.append(area_flicker(union, prev_union))
        dices.append(dice(union, tf.union))
        prev_union = union
    return aggregate(cds, tis, afs, dices)


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

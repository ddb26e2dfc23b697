"""Reference forms of `eval`'s metrics, one frame at a time.

This is how `eval` formed its report before `metrics.evaluate_sequence`
filled one (T, 4) table: each metric of one pair of (H, W) masks, per-frame
Python lists, their means over the finite entries, and the TI and AF lists
shifted by one frame into the CSV's rows. The table must hold these bits
(`test_metrics.TestTableMatchesReference`).
"""

import numpy as np

from kvacontrol.metrics import chamfer


def temporal_iou(P_t, P_prev):
    """IoU of consecutive masks; 1 when both are empty."""
    P_t = np.asarray(P_t).astype(bool)
    P_prev = np.asarray(P_prev).astype(bool)
    union = (P_t | P_prev).sum()
    if union == 0:
        return 1.0
    return float((P_t & P_prev).sum() / union)


def area_flicker(P_t, P_prev):
    """Relative frame-to-frame area change, previous area floored at 1."""
    a_t = int(np.asarray(P_t).astype(bool).sum())
    a_p = int(np.asarray(P_prev).astype(bool).sum())
    return abs(a_t - a_p) / max(a_p, 1)


def dice(A, B):
    """2|A^B| / (|A| + |B|); 1 when both are empty."""
    A = np.asarray(A).astype(bool)
    B = np.asarray(B).astype(bool)
    total = A.sum() + B.sum()
    if total == 0:
        return 1.0
    return float(2 * (A & B).sum() / total)


def _valid_mean(values):
    vals = [v for v in values if np.isfinite(v)]
    return float(np.mean(vals)) if vals else float("nan")


def evaluate_sequence(pred, target):
    """(rows, skipped_cd): the CSV's rows of cd, ti, af and dice per frame,
    then the mean row, from per-frame lists of two sequences of (H, W)
    label masks."""
    cds, tis, afs, dices = [], [], [], []
    prev_union = None
    for p, q in zip(pred, target):
        p, q = np.asarray(p, dtype=int), np.asarray(q, dtype=int)
        frame_cds = []
        for label in (1, 2, 3):
            pm, tm = p == label, q == label
            if not pm.any() and not tm.any():
                continue
            frame_cds.append(chamfer(pm, tm))
        if frame_cds and any(np.isfinite(v) for v in frame_cds):
            cds.append(float(np.nanmean(frame_cds)))
        else:
            cds.append(float("nan"))
        union = p > 0
        if prev_union is not None:
            tis.append(temporal_iou(union, prev_union))
            afs.append(area_flicker(union, prev_union))
        dices.append(dice(union, q > 0))
        prev_union = union
    nan = float("nan")
    rows = [[cds[t], tis[t - 1] if t else nan, afs[t - 1] if t else nan,
             dices[t]] for t in range(len(cds))]
    rows.append([_valid_mean(v) for v in (cds, tis, afs, dices)])
    return rows, sum(1 for v in cds if not np.isfinite(v))

"""The per-capsule rasterizer that `kva_field.rasterize_parts` replaced,
frozen as the reference its labels and depth must match bit for bit.

Each capsule is ray-tested on its own, inside its screen box: the bounding
box of its axis-aligned 3-D box's projected corners, padded by one pixel and
clipped to the frame, or the whole frame when the capsule reaches Z_NEAR.
Do not edit this file to follow the package: it is the fixed point.
"""

import math
from itertools import product

import numpy as np

from kvacontrol.kinematics import Z_NEAR


def _sq_norm(x):
    out = np.add(x[:, 0] * x[:, 0], 0.0)
    out += x[:, 1] * x[:, 1]
    out += x[:, 2] * x[:, 2]
    return out


def ray_capsule_depths(D, a, b, radius):
    """Smallest hit depth per ray of D (N, 3), dz = 1; inf on a miss."""
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


def pixel_rays(cam, rows, cols):
    """(N, 3) ray directions, dz = 1, of the pixels in rows x cols, row-major."""
    jj, ii = np.meshgrid(np.arange(cols.start, cols.stop, dtype=float),
                         np.arange(rows.start, rows.stop, dtype=float))
    return np.stack([(jj - cam.cx) / cam.fx, (ii - cam.cy) / cam.fy,
                     np.ones_like(jj)], axis=-1).reshape(-1, 3)


def screen_box(a, b, radius, cam):
    """Pixel rows and columns whose rays can hit the capsule (a, b, radius)."""
    lo = np.minimum(a, b) - radius
    hi = np.maximum(a, b) + radius
    if lo[2] <= Z_NEAR:
        return slice(0, cam.height), slice(0, cam.width)
    corners = np.array(list(product(*zip(lo, hi))))
    with np.errstate(over="ignore"):
        z = corners[:, 2]
        u = cam.fx * corners[:, 0] / z + cam.cx
        v = cam.fy * corners[:, 1] / z + cam.cy
    h, w = cam.height, cam.width
    i0 = math.floor(min(max(min(v), 1.0), h + 1.0)) - 1
    j0 = math.floor(min(max(min(u), 1.0), w + 1.0)) - 1
    i1 = math.ceil(min(max(max(v), i0 - 2.0), h - 2.0)) + 2
    j1 = math.ceil(min(max(max(u), j0 - 2.0), w - 2.0)) + 2
    return slice(i0, i1), slice(j0, j1)


def rasterize_parts(poses, cam):
    """Per-pixel front-most part index (-1 = none) and depth (0 = none)."""
    h, w = cam.height, cam.width
    labels = np.full((h, w), -1)
    best = np.full((h, w), np.inf)
    for k, ((a, b), radius) in enumerate(zip(poses.endpoints, poses.radii)):
        box = screen_box(a, b, radius, cam)
        D = pixel_rays(cam, *box)
        if not len(D):
            continue
        near = best[box]
        depth = ray_capsule_depths(D, a, b, radius).reshape(near.shape)
        nearer = depth < near
        near[nearer] = depth[nearer]
        labels[box][nearer] = k
    return labels, np.where(np.isfinite(best), best, 0.0)

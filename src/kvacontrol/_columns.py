"""Exact reductions: over short axes a column at a time, and long
sequential sums two to an add.

The router reduces over axes only 3, 5 or 9 entries wide (sub-experts,
modality experts, field channels) and over the stride x stride blocks of
`avg_pool`. numpy reduces such a short axis one row at a time, at many
times the cost of an elementwise pass. `fold` takes the axis as a sequence
of equal-shape columns and does one elementwise pass per column instead,
with the bits of numpy's reduction:

- numpy sums a contiguous axis of fewer than 8 entries strictly left to
  right, starting from the identity 0.0. The left fold
  `((c0 + 0.0) + c1) + c2 ...` performs the same additions in the same
  order. The `+ 0.0` matters only for signed zero: it turns -0.0 into +0.0,
  as numpy's sum does, and leaves every other value as it is.
- numpy sums the two block axes of `avg_pool`'s (H', s, W', s, C) view,
  C >= 2, one block entry at a time in row-major order, each an elementwise
  pass over the whole output; folding the blocks in that order is the same
  sum.
- max does not round, so any order gives the same values.

A top-1 choice needs no column form: numpy's `argmax` does not round either,
and it returns the first maximum along any axis, the tie rule `priors` keeps.

`columns` gives a last axis's columns as `x[..., k]` views.

Two sequential sums, `Pbar`'s over every token and `compute_stats`'
squared deviations over every pixel, are long float64 chains: each add
waits on the one before, so a pass costs the latency of its adds, not
their throughput. `lane_sums` runs two chains per add. Chain k rides in lane
k % 2 (real, then imaginary) of row k // 2 of a complex128 (rows, n) buffer,
with a zero lane padding an odd count, and keeps each chain's bits:

- a complex128 is two float64s, real then imaginary, and numpy's complex
  add is componentwise: one IEEE float64 add per lane, with no term crossing
  lanes, so signed zeros, infinities and NaNs fall as in the float64 add;
- `np.add.accumulate` along axis 1 adds strictly left to right, out[i] =
  out[i - 1] + x[i] from out[0] = x[0], for complex rows as for float
  rows, so each lane sees the additions of its own float64 accumulate.

`np.add.reduce` along a contiguous complex axis, as along a float one, sums
pairwise (eight partial sums from 8 entries on), which changes the bits of a
sequential sum, so it must never replace the accumulate here (pinned by
`test_properties`).
"""

from __future__ import annotations

import numpy as np


def columns(x: np.ndarray) -> list:
    """The columns x[..., k] of x's last axis, as views."""
    return [x[..., k] for k in range(x.shape[-1])]


def fold(ufunc, cols, out=None) -> np.ndarray:
    """ufunc.reduce over a sequence of equal-shape columns, as a left fold in
    sequence order; the add fold adds 0.0 to the first column. out is an
    optional float64 buffer of the columns' shape."""
    cols = iter(cols)
    first = next(cols)
    if out is None:
        out = np.empty(np.shape(first))  # an array even for scalar columns
    if ufunc is np.add:
        np.add(first, 0.0, out=out)
    else:
        np.copyto(out, first)
    for col in cols:
        ufunc(out, col, out=out)
    return out


def lane_sums(rows, carry=None) -> np.ndarray:
    """Sequential sums of the float64 chains packed in the lanes of a
    complex128 (rows, n) buffer, n >= 1: adds `carry`, a float64 array of
    2 * rows running sums, to the first column, accumulates each row in
    place left to right and returns the last column's lanes as a new
    float64 array of 2 * rows, chain k in entry k (see the module
    docstring)."""
    if carry is not None:
        rows[:, 0] += carry.view(np.complex128)
    np.add.accumulate(rows, axis=1, out=rows)
    return rows[:, -1].copy().view(np.float64)

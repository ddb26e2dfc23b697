"""Randomized property tests for the pure numerical kernels."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kvacontrol import kva_field as kvf
from kvacontrol import metrics as mt
from kvacontrol import priors as pr
from kvacontrol import routing as rt
from kvacontrol import scheduler as sch


masks = hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2,
                                          min_side=1, max_side=24))


@settings(max_examples=60, deadline=None)
@given(masks, masks)
def test_metric_bounds(a, b):
    if a.shape != b.shape:
        b = np.zeros_like(a)
    assert 0.0 <= mt.temporal_iou(a, b) <= 1.0
    assert 0.0 <= mt.dice(a, b) <= 1.0
    assert mt.area_flicker(a, b) >= 0.0
    value, valid = mt.chamfer(a, b)
    if valid:
        assert value >= 0.0
        flipped, _ = mt.chamfer(b, a)
        assert abs(value - flipped) < 1e-9


@settings(max_examples=60, deadline=None)
@given(masks)
def test_edt_is_metric_to_mask(mask):
    d = mt.distance_transform(mask)
    if not mask.any():
        assert np.isinf(d).all()
        return
    assert (d[mask] == 0).all()
    assert (d[~mask] > 0).all()
    # 1-Lipschitz along rows and columns
    for axis in (0, 1):
        if d.shape[axis] > 1:
            assert np.max(np.abs(np.diff(d, axis=axis))) <= np.sqrt(2)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(5)),
                  elements=st.floats(-20, 20)))
def test_softmax_topk_invariants(logits):
    P = rt.softmax(logits, axis=-1)
    np.testing.assert_allclose(P.sum(axis=-1), 1.0, atol=1e-9)
    for k in (1, 2, 5):
        A = rt.topk_select(P, k)
        assert (A.sum(axis=-1) == k).all()
        # every selected probability >= every unselected one
        sel_min = np.where(A == 1, P, np.inf).min(axis=-1)
        unsel_max = np.where(A == 0, P, -np.inf).max(axis=-1)
        assert (sel_min >= unsel_max - 1e-15).all()


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(0, 1)))
def test_partition_counts_and_exhaustive(s):
    plan = sch.partition(s)
    n = s.size
    counts = np.bincount(plan.mode, minlength=3)
    assert counts.sum() == n
    assert counts[0] == int(np.floor(0.2 * n + 0.5))
    assert counts[1] == int(np.floor(0.3 * n + 0.5))
    # every full token scores at least as high as every non-full token
    if counts[0] and counts[0] < n:
        assert s[plan.mode == 0].min() >= s[plan.mode != 0].max() - 1e-15


def _old_sigmoid(z):
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                    np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))


# leading shapes from 0-d up, then a last axis of width 1-6
short_axis = st.tuples(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                        max_side=6),
                       st.integers(1, 6)).map(lambda s: s[0] + (s[1],))
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, short_axis, elements=finite))
@example(x=np.array([-0.0]))
def test_fold_last_matches_numpy_reductions(x):
    with np.errstate(over="ignore"):
        assert rt._fold_last(np.add, x).tobytes() == x.sum(axis=-1).tobytes()
    assert rt._fold_last(np.maximum, x).tobytes() == x.max(axis=-1).tobytes()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, short_axis,
                  elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])))
def test_argmax_last_matches_numpy_argmax(x):
    idx = rt._argmax_last(x)
    assert idx.dtype == np.intp
    assert idx.tobytes() == x.argmax(axis=-1).tobytes()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                               min_side=0, max_side=6),
                  elements=st.one_of(st.floats(-60, 60), st.floats(-1e4, 1e4),
                                     st.sampled_from([-746.0, -745.0, 745.0,
                                                      800.0, -0.0, 0.0]))))
def test_sigmoid_matches_three_exp_form(z):
    assert pr._sigmoid(z).tobytes() == _old_sigmoid(z).tobytes()


# finite values with both signed zeros drawn often
signed = st.one_of(st.sampled_from([-0.0, 0.0]),
                   st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def pool_inputs(draw):
    """(x, stride): x an (hp * stride, wp * stride, 2-9 channels) array."""
    stride = draw(st.sampled_from([1, 2, 3, 4, 8]))
    shape = (draw(st.integers(1, 4)) * stride, draw(st.integers(1, 4)) * stride,
             draw(st.integers(2, 9)))
    return draw(hnp.arrays(np.float64, shape, elements=signed)), stride


def _numpy_pool(x, stride):
    h, w = x.shape[:2]
    return x.reshape(h // stride, stride, w // stride, stride,
                     *x.shape[2:]).mean(axis=(1, 3))


@settings(max_examples=200, deadline=None)
@given(pool_inputs())
@example(xs=(np.full((4, 4, 3), -0.0), 4))
def test_avg_pool_matches_numpy_mean(xs):
    x, stride = xs
    assert rt.avg_pool(x, stride).tobytes() == _numpy_pool(x, stride).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 8]), st.integers(1, 4), st.integers(1, 4),
       st.data())
def test_avg_pool_of_binary_mask_matches_numpy_mean(stride, hp, wp, data):
    mask = data.draw(hnp.arrays(bool, (hp * stride, wp * stride))).astype(float)
    assert rt.avg_pool(mask, stride).tobytes() == _numpy_pool(mask, stride).tobytes()


field_stacks = st.integers(1, 6).flatmap(
    lambda h: st.lists(hnp.arrays(np.float64, (h, 3, kvf.N_CHANNELS),
                                  elements=signed), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(field_stacks)
def test_compute_stats_matches_numpy_mean_std(arrays):
    fields = [kvf.KvaField(channels=a) for a in arrays]
    stats = kvf.compute_stats(fields)
    stacked = np.concatenate(
        [f.channels[..., 3:].reshape(-1, 6) for f in fields], axis=0)
    old = kvf.ChannelStats(mean=stacked.mean(axis=0), std=stacked.std(axis=0))
    assert stats.mean.tobytes() == old.mean.tobytes()
    assert stats.std.tobytes() == old.std.tobytes()


@settings(max_examples=100, deadline=None)
@given(field_stacks, hnp.arrays(np.float64, 6, elements=signed),
       hnp.arrays(np.float64, 6, elements=st.floats(1e-3, 1e3)))
def test_normalize_matches_broadcast_expression(arrays, mean, std):
    stats = kvf.ChannelStats(mean=mean, std=std)
    for field in (kvf.KvaField(channels=a) for a in arrays):
        want = field.channels.copy()
        want[..., 3:] = (want[..., 3:] - stats.mean) / stats.std
        assert kvf.normalize(field, stats).channels.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 20), st.just(3)),
                  elements=st.one_of(signed, finite)))
def test_sq_norm_matches_numpy_sum(x):
    with np.errstate(over="ignore"):
        assert kvf._sq_norm(x).tobytes() == (x * x).sum(axis=1).tobytes()

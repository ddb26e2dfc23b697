"""Randomized property tests for the pure numerical kernels."""

import dataclasses
import itertools
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kvacontrol import cli
from kvacontrol import formats as fm
from kvacontrol import kva_field as kvf
from kvacontrol import metrics as mt
from kvacontrol import priors as pr
from kvacontrol import routing as rt
from kvacontrol import scheduler as sch
from kvacontrol._columns import columns, fold, lane_sums
from kvacontrol.kinematics import (DEFAULT_BASE_STATE, PART_NAMES,
                                   PART_SEMANTIC_CLASS, TRAJECTORY_KINDS,
                                   Z_NEAR, ArticulatedState, Capsule,
                                   JointLimits, PartPoses, ToolGeometry,
                                   Trajectory, default_camera,
                                   forward_kinematics, synth_trajectory)

import reference_lift as ref_lift
import reference_losses as ref
from test_field import painted, rasterize


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
    value = mt.chamfer(a, b)
    if not np.isnan(value):
        assert value >= 0.0
        flipped = mt.chamfer(b, a)
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
    P = rt.softmax(logits)
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
    mode = sch.partition(s[None])[0]  # one frame, a (1, n) stack
    n = s.size
    counts = np.bincount(mode, minlength=3)
    assert counts.sum() == n
    assert counts[0] == int(np.floor(0.2 * n + 0.5))
    assert counts[1] == int(np.floor(0.3 * n + 0.5))
    # every full token scores at least as high as every non-full token
    if counts[0] and counts[0] < n:
        assert s[mode == 0].min() >= s[mode != 0].max() - 1e-15


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
def test_fold_matches_numpy_reductions(x):
    with np.errstate(over="ignore"):
        assert fold(np.add, columns(x)).tobytes() == x.sum(axis=-1).tobytes()
        if len(x):  # the first axis, 1-6 wide; a 1-D x yields scalars
            assert fold(np.add, x).tobytes() == x.sum(axis=0).tobytes()
    assert fold(np.maximum, columns(x)).tobytes() == x.max(axis=-1).tobytes()


# expert-major (5, m) buffers, m from 1, with ties, equal maxima and both
# signed zeros drawn often
tie_or_finite = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), finite)
expert_major = hnp.arrays(np.float64, st.tuples(st.just(rt.N_EXPERTS),
                                                st.integers(1, 12)),
                          elements=tie_or_finite)


@settings(max_examples=200, deadline=None)
@given(expert_major)
@example(z=np.full((rt.N_EXPERTS, 1), -0.0))
@example(z=np.array([[0.0], [-0.0], [0.0], [-0.0], [-1.0]]))
def test_expert_axis_reductions_match_column_folds(z):
    # the kp evaluator's softmax max and sum and its top-1 choice reduce
    # axis 0 of its expert-major buffer in one call each; `routing_stats`
    # takes the top-1 choice over the last axis of token-major rows
    rows = list(z)
    assert (np.maximum.reduce(z, axis=0).tobytes()
            == fold(np.maximum, rows).tobytes())
    assert (z.argmax(axis=0).tobytes()
            == np.ascontiguousarray(z.T).argmax(axis=1).tobytes())
    # the sum starts from row 0 where the fold starts from row 0 + 0.0; they
    # agree for rows >= +0.0, as exp's are
    e = np.abs(z)
    with np.errstate(over="ignore"):
        assert (np.add.reduce(e, axis=0).tobytes()
                == fold(np.add, list(e)).tobytes())


# 1-6 float64 chains of length 1-40, long enough for numpy's pairwise
# reduce (eight partial sums from 8 entries on) to differ from a sequential
# sum; signed zeros, subnormals, infinities and NaN drawn often
lane_value = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                        2.0 ** -1040, np.inf, -np.inf, np.nan]),
                       finite)
chains = hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 40)),
                    elements=lane_value)


@settings(max_examples=300, deadline=None)
@given(chains, st.none() | hnp.arrays(np.float64, 6, elements=lane_value))
@example(x=np.array([[1.0] + [2.0 ** -53] * 15]), carry=None)
@example(x=np.array([[-0.0], [-0.0], [5e-324]]), carry=np.full(6, -0.0))
@example(x=np.array([[np.inf, -np.inf, np.nan, 1.0], [np.nan, np.inf, -np.inf, 2.0],
                    [-np.nan, np.nan, 0.0, 0.0]]),
         carry=np.array([np.nan, -np.nan, 0.0, 0.0, 0.0, 0.0]))
def test_lane_sums_match_float64_accumulate(x, carry):
    # chain k in lane k % 2 of complex row k // 2, as `compute_stats` and the
    # kp evaluator pack them; the odd count's last lane stays zero. kp passes
    # no carry, `compute_stats` the sums of its earlier blocks
    k, n = x.shape
    rows = np.zeros(((k + 1) // 2, n), dtype=np.complex128)
    np.copyto(rows.real, x[0::2])
    np.copyto(rows.imag[:k // 2], x[1::2])
    seeded = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        if carry is not None:
            seeded[:, 0] += carry[:k]
            carry = carry[:2 * len(rows)]
        want = np.add.accumulate(seeded, axis=1)
        got = lane_sums(rows, carry)
    assert got[:k].tobytes() == want[:, -1].tobytes()
    # every partial sum, lane by lane, has the bits of its chain's
    lanes = rows.view(np.float64).reshape(len(rows), n, 2)
    assert (np.stack([lanes[j // 2, :, j % 2] for j in range(k)]).tobytes()
            == want.tobytes())


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                               min_side=1, max_side=6),
                  elements=tie_or_finite),
       hnp.arrays(np.float64, rt.N_EXPERTS, elements=tie_or_finite),
       hnp.arrays(np.float64, rt.N_EXPERTS, elements=tie_or_finite))
def test_add_reduce_over_size_matches_mean(x, load, pi):
    with np.errstate(over="ignore", invalid="ignore"):
        assert (np.float64(np.add.reduce(x, axis=None) / x.size).tobytes()
                == np.float64(x.mean()).tobytes())
        want = float(np.mean((load - pi) ** 2))
        got = pr.kp_alb_loss(load, pi)
    assert _float_bytes(got) == _float_bytes(want)


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


field_stacks = hnp.arrays(np.float64, st.tuples(
    st.integers(1, 3), st.integers(1, 6), st.integers(1, 4),
    st.just(kvf.N_CHANNELS)), elements=signed)
channel_stats = st.builds(
    kvf.ChannelStats, hnp.arrays(np.float64, 6, elements=signed),
    hnp.arrays(np.float64, 6, elements=st.floats(1e-3, 1e3)))


@st.composite
def compact_lifts(draw, frames=st.integers(1, 3), height=st.integers(1, 6),
                  width=st.integers(1, 4)):
    """Lifted trajectories drawn in compact form: labels -1 to 3, depth and
    part tables with +-0.0 among their entries, depth +0.0 off the tool and
    the tables' depth column and label -1 row +0.0."""
    shape = (draw(frames), draw(height), draw(width))
    labels = draw(hnp.arrays(np.intp, shape, elements=st.integers(-1, 3)))
    depth = draw(hnp.arrays(np.float64, shape, elements=signed))
    tables = draw(hnp.arrays(np.float64, (shape[0], kvf.N_TABLE_ROWS,
                                          kvf.N_CHANNELS), elements=signed))
    tables[:, -1] = 0.0
    tables[..., kvf.DEPTH] = 0.0
    return kvf.LiftedTrajectory(labels, np.where(labels >= 0, depth, 0.0),
                                tables)


@settings(max_examples=100, deadline=None)
@given(compact_lifts())
def test_compute_stats_matches_numpy_mean_std(lifted):
    # the oracle is numpy's mean and std over the painted frames' rows
    # concatenated, as the statistics read when a trajectory was a list of
    # dense frames
    stats = kvf.compute_stats(lifted)
    rows = np.concatenate([f[..., 3:].reshape(-1, 6) for f in painted(lifted)],
                          axis=0)
    old = kvf.ChannelStats(mean=rows.mean(axis=0), std=rows.std(axis=0))
    assert stats.mean.tobytes() == old.mean.tobytes()
    assert stats.std.tobytes() == old.std.tobytes()


@settings(max_examples=100, deadline=None)
@given(compact_lifts(), st.integers(1, 8))
def test_compute_stats_bits_do_not_depend_on_block_size(lifted, block):
    # the variance runs STATS_BLOCK pixels at a time; small blocks carry the
    # running sum across many of them
    want = kvf.compute_stats(lifted)
    with mock.patch.object(kvf, "STATS_BLOCK", block):
        got = kvf.compute_stats(lifted)
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.std.tobytes() == want.std.tobytes()


@settings(max_examples=100, deadline=None)
@given(field_stacks, channel_stats)
def test_normalize_matches_broadcast_expression(stack, stats):
    want = stack.copy()
    want[..., 3:] = (want[..., 3:] - stats.mean) / stats.std
    assert kvf.normalize(stack, stats).tobytes() == want.tobytes()
    for frame, want_frame in zip(stack, want):
        assert kvf.normalize(frame, stats).tobytes() == want_frame.tobytes()


@settings(max_examples=100, deadline=None)
@given(compact_lifts(), field_stacks, channel_stats)
def test_stats_and_normalize_leave_input_unchanged(lifted, stack, stats):
    # normalize gets a view of its input when it is already C-contiguous
    # float64, so a missing copy would write the standardized values into it
    arrays = (lifted.labels, lifted.depth, lifted.tables)
    before = [a.tobytes() for a in arrays]
    stack_before = stack.tobytes()
    kvf.compute_stats(lifted)
    kvf.normalize(stack, stats)
    assert [a.tobytes() for a in arrays] == before
    assert stack.tobytes() == stack_before


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 20), st.just(3)),
                  elements=st.one_of(signed, finite)))
def test_sq_norm_matches_numpy_sum(x):
    with np.errstate(over="ignore"):
        assert kvf._sq_norm(x).tobytes() == (x * x).sum(axis=1).tobytes()


def _float_bytes(x):
    return np.float64(x).tobytes()


# few distinct values, so top-1 ties occur, mixed with general ones; the
# +-400 weights push logits far enough apart that exp underflows to 0
tie_values = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
weight_values = st.one_of(st.sampled_from([-400.0, -1.0, 0.0, 1.0, 2.0, 400.0]),
                          st.floats(-3, 3))


@st.composite
def kp_inputs(draw):
    """Token grid (1x1 to 9x7, C channels), c_action, t_embed, the three
    gate arrays and a prior."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 7))
    c = draw(st.integers(1, 4))
    tokens = draw(hnp.arrays(np.float64, (h, w, c),
                             elements=st.one_of(tie_values, st.floats(-3, 3))))
    c_action = draw(hnp.arrays(np.float64, c, elements=tie_values))
    t_embed = draw(hnp.arrays(np.float64, rt.T_EMBED_DIM, elements=tie_values))
    arrays = {
        "outer_w": draw(hnp.arrays(np.float64, (c + rt.T_EMBED_DIM, rt.N_EXPERTS),
                                   elements=weight_values)),
        "outer_b": draw(hnp.arrays(np.float64, rt.N_EXPERTS,
                                   elements=weight_values)),
        "token_w": draw(hnp.arrays(np.float64, (c, rt.N_EXPERTS),
                                   elements=weight_values)),
    }
    pi = draw(hnp.arrays(np.float64, rt.N_EXPERTS, elements=st.floats(0.01, 1)))
    prior = pi / pi.sum()
    return tokens, c_action, t_embed, arrays, prior


@settings(max_examples=100, deadline=None)
@given(kp_inputs(), st.data())
def test_kp_alb_evaluator_matches_outer_gate_path(inputs, data):
    tokens, c_action, t_embed, arrays, prior = inputs
    params = rt.init_gate_params(c=tokens.shape[-1])
    loss = pr._kp_alb_evaluator(tokens, c_action, t_embed, prior)
    # nudge an outer entry (token product reused), then a token_w entry
    # (recomputed), as the grad check does
    for name in (None, "outer_w", "token_w"):
        if name is not None:
            idx = data.draw(st.tuples(*(st.integers(0, n - 1)
                                        for n in arrays[name].shape)))
            arrays[name][idx] += data.draw(st.sampled_from([1e-5, -1e-5, 7.0]))
        P = rt.outer_gate(c_action[None], t_embed,
                          dataclasses.replace(params, **arrays), tokens=tokens)
        want = pr.kp_alb_loss(pr.routing_stats(P)[1], prior)
        assert _float_bytes(loss(arrays)) == _float_bytes(want)


@settings(max_examples=100, deadline=None)
@given(kp_inputs(), st.data())
def test_kp_alb_evaluator_repeats_match_fresh_loss(inputs, data):
    # the evaluator keeps each result keyed on the token_w and logits bytes:
    # go back to earlier parameters, step outer_w rows whose embedding entry
    # is too small to move the logits, and step any entry; every call must
    # give the bits of the public loss on fresh arrays
    tokens, c_action, t_embed, arrays, prior = inputs
    c = tokens.shape[-1]
    tiny = data.draw(st.lists(st.integers(0, rt.T_EMBED_DIM - 1), max_size=4))
    t_embed[tiny] = 1e-16
    params = rt.init_gate_params(c=c)
    loss = pr._kp_alb_evaluator(tokens, c_action, t_embed, prior)
    visited = [{k: v.copy() for k, v in arrays.items()}]
    for _ in range(data.draw(st.integers(1, 12))):
        step = data.draw(st.sampled_from(["revisit", "tiny", "any"]))
        if step == "revisit":
            arrays = {k: v.copy()
                      for k, v in data.draw(st.sampled_from(visited)).items()}
        else:
            if step == "tiny" and tiny:
                name = "outer_w"
                idx = (c + data.draw(st.sampled_from(tiny)),
                       data.draw(st.integers(0, rt.N_EXPERTS - 1)))
            else:
                name = data.draw(st.sampled_from(sorted(arrays)))
                idx = data.draw(st.tuples(*(st.integers(0, n - 1)
                                            for n in arrays[name].shape)))
            arrays[name][idx] += data.draw(st.sampled_from([1e-5, -1e-5, 7.0]))
            visited.append({k: v.copy() for k, v in arrays.items()})
        fresh = {k: v.copy() for k, v in arrays.items()}
        P = rt.outer_gate(c_action[None], t_embed,
                          dataclasses.replace(params, **fresh), tokens=tokens)
        want = pr.kp_alb_loss(pr.routing_stats(P)[1], prior)
        assert _float_bytes(loss(arrays)) == _float_bytes(want)


@st.composite
def predictor_inputs(draw):
    """(T, h, w, C) token sequence, (T, h, w) 0/1 tool mask (often empty),
    (h, w, 5) 0/1 routing mask and predictor weights."""
    t, h, w, c = (draw(st.integers(1, 4)), draw(st.integers(1, 6)),
                  draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    values = st.one_of(tie_values, st.floats(-50, 50))
    tok_seq = draw(hnp.arrays(np.float64, (t, h, w, c), elements=values))
    m_tool = draw(st.one_of(st.just(np.zeros((t, h, w))),
                            hnp.arrays(np.float64, (t, h, w),
                                       elements=st.sampled_from([0.0, 1.0]))))
    A = draw(hnp.arrays(np.float64, (h, w, rt.N_EXPERTS),
                        elements=st.sampled_from([0.0, 1.0])))
    state = pr.PredictorState(
        w=draw(hnp.arrays(np.float64, (c, rt.N_EXPERTS), elements=values)),
        b=draw(hnp.arrays(np.float64, rt.N_EXPERTS, elements=values)))
    return tok_seq, m_tool, A, state


@settings(max_examples=100, deadline=None)
@given(predictor_inputs())
@example(inputs=(np.ones((1, 2, 2, 3)), np.ones((1, 2, 2)), np.ones((2, 2, 5)),
                 pr.init_predictor(c=3)))
def test_src_and_cp_evaluators_match_public_losses(inputs):
    tok_seq, m_tool, A, state = inputs
    arrays = {"w": state.w, "b": state.b}
    R = pr._sigmoid(pr.predictor_logits(state, tok_seq))
    want = ref.src_loss(R, m_tool)
    assert _float_bytes(want) == _float_bytes(ref.src_loss(_old_sigmoid(
        tok_seq @ state.w + state.b), m_tool))
    src = pr._src_evaluator(tok_seq, m_tool)
    assert _float_bytes(src(arrays)) == _float_bytes(want)

    tokens = tok_seq[-1]
    z = pr.predictor_logits(state, tokens)
    want = ref.cp_loss(z, A)
    cp = pr._cp_evaluator(tokens, A)
    assert _float_bytes(cp(arrays)) == _float_bytes(want)


@settings(max_examples=100, deadline=None)
@given(predictor_inputs(), st.data())
def test_src_and_cp_evaluators_keep_columns_across_calls(inputs, data):
    # the evaluators keep each column's work between calls; drive them
    # through base, perturbed and restored parameters in a drawn order, with
    # the arrays changed in place as the grad check does, and compare each
    # call with the reference losses on fresh arrays
    tok_seq, m_tool, A, state = inputs
    tokens = tok_seq[-1]
    src = pr._src_evaluator(tok_seq, m_tool)
    cp = pr._cp_evaluator(tokens, A)
    base = {"w": state.w.copy(), "b": state.b.copy()}
    arrs = {name: arr.copy() for name, arr in base.items()}
    columns = st.integers(0, rt.N_EXPERTS - 1)
    rows = st.integers(0, state.w.shape[0] - 1)
    steps = st.sampled_from([1e-5, -1e-5, 7.0])

    def check():
        w, b = arrs["w"].copy(), arrs["b"].copy()
        want_src = ref.src_loss(pr._sigmoid(tok_seq @ w + b), m_tool)
        want_cp = ref.cp_loss(tokens @ w + b, A)
        assert _float_bytes(src(arrs)) == _float_bytes(want_src)
        assert _float_bytes(cp(arrs)) == _float_bytes(want_cp)

    def w_entry_restored():
        idx = (data.draw(rows), data.draw(columns))
        arrs["w"][idx] += data.draw(st.sampled_from([1e-5, -1e-5]))
        check()
        arrs["w"][idx] = base["w"][idx]
        check()

    def b_entry():
        arrs["b"][data.draw(columns)] += data.draw(steps)
        check()

    def two_columns():
        j, k = data.draw(st.permutations(range(rt.N_EXPERTS)))[:2]
        arrs["w"][data.draw(rows), j] += data.draw(steps)
        arrs["b"][k] += data.draw(steps)
        check()

    check()  # the base, as the report's call makes it
    for step in data.draw(st.permutations([w_entry_restored, b_entry,
                                           two_columns])):
        step()
    for name in arrs:  # back to the base parameters
        arrs[name][...] = base[name]
    check()


@st.composite
def repeated_row_inputs(draw, layout):
    """Inputs to the three grad-check evaluators whose token rows are drawn
    from a pool of two or three rows, so that most rows repeat: a (T, h, w,
    C) token sequence, its tool mask, the last frame's (h, w, 5) routing
    mask A, c_action, t_embed, the predictor and gate arrays and a prior.

    `layout` picks the grid: "equal" (every token row equal), "first" (the
    first token is not the repeated row), "w1" (W' = 1), "A" (A rows drawn
    apart from the token rows, so that they differ where the token rows are
    equal) or "mask" (a tool mask that is not 0/1, whose entries src's
    evaluator must keep apart where the token rows repeat)."""
    t, h = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    c = draw(st.integers(1, 4))
    w = 1 if layout == "w1" else draw(st.integers(2, 6))
    values = st.one_of(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]),
                       st.floats(-50, 50))
    pool = draw(hnp.arrays(np.float64, (draw(st.integers(2, 3)), c),
                           elements=values))
    # mostly the pool's row 0, the background
    which = draw(hnp.arrays(np.intp, (t, h, w), elements=st.sampled_from(
        [0, 0, 0, 1, len(pool) - 1])))
    if layout == "equal":
        which[...] = 0
    elif layout == "first":
        which.flat[0] = 1
    a_pool = draw(hnp.arrays(np.float64, (3, rt.N_EXPERTS),
                             elements=st.sampled_from([0.0, 1.0])))
    a_which = which[-1] if layout != "A" else draw(hnp.arrays(
        np.intp, (h, w), elements=st.integers(0, 2)))
    m_tool = draw(hnp.arrays(np.float64, (t, h, w), elements=st.sampled_from(
        [0.0, 1.0] if layout != "mask" else [0.0, 1.0, 0.5, -1.0, np.inf])))
    pi = draw(hnp.arrays(np.float64, rt.N_EXPERTS, elements=st.floats(0.01, 1)))
    pred = {"w": draw(hnp.arrays(np.float64, (c, rt.N_EXPERTS),
                                 elements=values)),
            "b": draw(hnp.arrays(np.float64, rt.N_EXPERTS, elements=values))}
    gate = {"outer_w": draw(hnp.arrays(np.float64, (c + rt.T_EMBED_DIM,
                                                    rt.N_EXPERTS),
                                       elements=weight_values)),
            "outer_b": draw(hnp.arrays(np.float64, rt.N_EXPERTS,
                                       elements=weight_values)),
            "token_w": draw(hnp.arrays(np.float64, (c, rt.N_EXPERTS),
                                       elements=weight_values))}
    return (pool[which], m_tool, a_pool[a_which],
            draw(hnp.arrays(np.float64, c, elements=tie_values)),
            draw(hnp.arrays(np.float64, rt.T_EMBED_DIM, elements=tie_values)),
            pred, gate, pi / pi.sum())


def _grad_check_matches(evaluator, arrays, reference):
    """Drive `evaluator` through the report's call and a grad check's
    perturbations, comparing each result with `reference` on fresh copies
    of the arrays."""
    def loss(arrs):
        got = evaluator(arrs)
        want = reference({k: v.copy() for k, v in arrs.items()})
        assert _float_bytes(got) == _float_bytes(want)
        return got

    loss(arrays)
    pr.finite_difference_grad(loss, arrays)


@pytest.mark.parametrize("layout", ["equal", "first", "w1", "A", "mask"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluators_on_repeated_rows_match_public_losses(layout, data):
    # the evaluators multiply, exponentiate and reduce each distinct token
    # row once; on grids where most rows repeat, every evaluation of a grad
    # check must still give the reference losses' bits
    tok_seq, m_tool, A, c_action, t_embed, pred, gate, prior = data.draw(
        repeated_row_inputs(layout))
    tokens = tok_seq[-1]
    params = rt.init_gate_params(c=tokens.shape[-1])

    def src_ref(arrs):
        state = pr.PredictorState(**arrs)
        return ref.src_loss(pr._sigmoid(pr.predictor_logits(state, tok_seq)),
                            m_tool)

    def cp_ref(arrs):
        return ref.cp_loss(pr.predictor_logits(pr.PredictorState(**arrs),
                                               tokens), A)

    def kp_ref(arrs):
        P = rt.outer_gate(c_action[None], t_embed,
                          dataclasses.replace(params, **arrs), tokens=tokens)
        return pr.kp_alb_loss(pr.routing_stats(P)[1], prior)

    with np.errstate(invalid="ignore"):  # an infinite mask times 0.0
        _grad_check_matches(pr._src_evaluator(tok_seq, m_tool), pred, src_ref)
    _grad_check_matches(pr._cp_evaluator(tokens, A), pred, cp_ref)
    _grad_check_matches(pr._kp_alb_evaluator(tokens, c_action, t_embed, prior),
                        gate, kp_ref)


@st.composite
def route_inputs(draw):
    """A tie-prone (H, W, 9) field and its pooling stride, gate params (inner
    gates flat or not), progress and top-k."""
    stride = draw(st.sampled_from([1, 2, 4]))
    h, w = draw(st.integers(1, 4)) * stride, draw(st.integers(1, 4)) * stride
    channels = draw(hnp.arrays(np.float64, (h, w, kvf.N_CHANNELS),
                               elements=st.one_of(tie_values, st.floats(-3, 3))))
    params = rt.init_gate_params(seed=draw(st.integers(0, 3)),
                                 c=draw(st.integers(1, 4)))
    if draw(st.booleans()):  # uniform inner distributions: a 3-way tie
        for m in kvf.MODALITIES:
            params.inner_w[m][:] = 0.0
            params.inner_b[m][:] = 0.0
    sched = rt.CapacitySchedule(k=draw(st.integers(1, rt.N_EXPERTS)))
    progress = draw(st.sampled_from([0.0, 0.6, 1.0]))
    return channels, stride, params, sched, progress


@settings(max_examples=100, deadline=None)
@given(route_inputs())
def test_inner_gates_match_numpy_reductions(inputs):
    # the oracle is each modality's inner gate written out once with numpy's
    # own reductions, as it read before the column folds
    field, stride, params, sched, progress = inputs
    grid = rt.avg_pool(field, stride)
    pooled, dec = rt.route_forward(grid, params, progress,
                                   rt.timestep_embed(0.4), sched=sched)
    assert pooled is grid
    f_sub, _ = pr.sub_routing_stats(dec)
    for i, m in enumerate(kvf.MODALITIES):
        lifted = (pooled[..., kvf.MODALITY_CHANNELS[m]] @ params.mod_lift_w[m]
                  + params.mod_lift_b[m])
        z = lifted @ params.inner_w[m] + params.inner_b[m]
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        assert dec.inner_probs[..., i, :].tobytes() == probs.tobytes()
        top1 = np.bincount(probs.argmax(axis=-1).ravel(), minlength=rt.N_SUB)
        assert f_sub[i].tobytes() == (top1 / top1.sum()).tobytes()


# base offsets (m) and jitter bounds that put the tool in view, across the
# frame's border, near the camera (its shaft reaching past Z_NEAR), over
# the whole frame (the base 6 mm deep, so no background pixel) and out of
# view
TOOL_POSES = {"in-view": ((0.0, 0.0, 0.0), 0.01),
              "across-border": ((0.012, 0.0, -0.06), 0.003),
              "near": ((0.004, 0.002, -0.08), 0.01),
              "fills-frame": ((0.0, 0.0, -0.104), 0.001),
              "out-of-view": ((0.5, 0.0, 0.0), 0.01)}


def posed_state(name, jitter=(0.0, 0.0, 0.0)):
    """The default base state at TOOL_POSES[name], moved by `jitter` times
    the pose's jitter bound."""
    offset, bound = TOOL_POSES[name]
    p = DEFAULT_BASE_STATE.p + np.array(offset) + bound * np.array(jitter)
    return dataclasses.replace(DEFAULT_BASE_STATE, p=p)


def dense_lift(traj, geom, cam):
    """The trajectory's (T, H, W, 9) channels painted channel by channel from
    the rasterized labels, as a dense lift writes them."""
    poses = [forward_kinematics(state, geom) for state in traj.states]
    motion = ref_lift.motion_channels(poses, cam, traj.dt)
    out = np.zeros((len(poses), cam.height, cam.width, kvf.N_CHANNELS))
    for frame, p, m in zip(out, poses, motion):
        labels, depth = rasterize(p, cam)
        frame[..., 3] = depth
        for k in range(len(PART_NAMES)):
            on = labels == k
            frame[on, PART_SEMANTIC_CLASS[k]] = 1.0
            frame[on, 4] = ref_lift.part_axis_angle(p.endpoints[k], cam)
            frame[on, 5:9] = m[k]
    return out


def dense_compute_stats(channels):
    """compute_stats of a dense (..., 9) stack: numpy's sequential sums over
    its (N, 6) non-semantic rows, the variance STATS_BLOCK rows at a time."""
    x = channels[..., 3:9].reshape(-1, 6)
    n = x.shape[0]
    mean = np.add.reduce(x, axis=0) / n
    sq_sum = np.zeros(6)
    for i in range(0, n, kvf.STATS_BLOCK):
        dev = x[i:i + kvf.STATS_BLOCK] - mean
        sq_sum = np.add.reduce(np.concatenate([sq_sum[None], dev * dev]),
                               axis=0)
    return kvf.ChannelStats(mean=mean, std=np.sqrt(sq_sum / n))


@st.composite
def lifted_cases(draw):
    """(lifted trajectory, its dense channels or None, pooling stride): a
    trajectory of T = 1 to 3 frames, each pose drawn from TOOL_POSES, or a
    compact lift drawn directly; the frame's sides are multiples of the
    stride."""
    stride = draw(st.sampled_from([1, 2, 4, 8]))
    h, w = draw(st.integers(1, 5)) * stride, draw(st.integers(1, 5)) * stride
    frames = st.integers(1, 3)
    if draw(st.booleans()):
        return draw(compact_lifts(frames, st.just(h), st.just(w))), None, stride
    states = tuple(
        posed_state(draw(st.sampled_from(sorted(TOOL_POSES))),
                    draw(st.tuples(*[st.floats(-1, 1)] * 3)))
        for _ in range(draw(frames)))
    traj, cam = Trajectory(states=states, dt=0.5), default_camera(w, h)
    return (kvf.lift_trajectory(traj, ToolGeometry(), cam),
            dense_lift(traj, ToolGeometry(), cam), stride)


@pytest.mark.parametrize("name", sorted(TOOL_POSES))
def test_tool_poses_do_what_their_names_say(name):
    cam = default_camera(32, 32)
    traj = Trajectory(states=(posed_state(name),), dt=0.5)
    tool = kvf.lift_trajectory(traj, ToolGeometry(), cam).labels[0] >= 0
    border = tool[0].any() or tool[-1].any() or tool[:, 0].any() or tool[:, -1].any()
    if name == "in-view":
        assert tool.any() and not tool.all()
    elif name in ("across-border", "near"):
        assert border and not tool.all()
    elif name == "fills-frame":
        assert tool.all()
    else:
        assert not tool.any()


@settings(max_examples=80, deadline=None)
@given(lifted_cases(), st.integers(1, 3))
def test_compact_lift_matches_dense_painting(case, batch):
    # the routing grids are pooled `batch` frames at a time
    lifted, dense, s = case
    frames = painted(lifted)
    if dense is not None:
        assert frames.tobytes() == dense.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.kvaf")
        for t, f in enumerate(frames):
            fm.write_field(lifted.field(t), path)
            with open(path, "rb") as fh:
                payload = fh.read()[24:]
            assert payload == np.ascontiguousarray(np.moveaxis(f, 2, 0),
                                                   dtype="<f4").tobytes()
    stats = kvf.compute_stats(lifted)
    want = dense_compute_stats(frames)
    assert stats.mean.tobytes() == want.mean.tobytes()
    assert stats.std.tobytes() == want.std.tobytes()
    normed, pooled, m_tool = cli._pooled_grids(lifted, stats, s, batch)
    assert normed.shape == pooled.shape == m_tool.shape + (kvf.N_CHANNELS,)
    assert len(m_tool) == len(frames)
    for t, f in enumerate(frames):
        want = rt.avg_pool(kvf.normalize(f, stats), s)
        assert normed[t].tobytes() == want.tobytes()
        assert pooled[t].tobytes() == rt.avg_pool(f, s).tobytes()
        mask = (lifted.labels[t] >= 0).astype(float)
        assert m_tool[t].tobytes() == rt.avg_pool(mask, s).tobytes()


# a part's capsule kinds for the batched table columns: in view; its
# midpoint at or behind Z_NEAR; its axis along a viewing ray (the optical
# axis included), where the Jacobian vanishes; 1e306 m to the side at a few
# mm depth, where du overflows; and 1e308 m or more out, where the midpoint
# sum overflows
AXIS_KINDS = ("in-view", "behind", "along-ray", "far-du", "far-midpoint")


@st.composite
def axis_capsule(draw, kind):
    """The (2, 3) ends of one capsule of the given AXIS_KINDS kind."""
    if kind == "far-midpoint":
        x = draw(st.sampled_from([0.0, 1e308, -1.7e308]))
        a = np.array([x, 0.01, draw(st.sampled_from([1.7e308, 1e308]))])
        return np.array([a, a + [0.01, 0.0, 0.01]])
    if kind == "along-ray":
        ray = np.array([draw(st.floats(-1, 1)), draw(st.floats(-1, 1)), 1.0])
        ray[:2] *= draw(st.booleans())
        return np.array([draw(st.floats(0.01, 0.3)) * ray,
                         draw(st.floats(0.01, 0.3)) * ray])
    a, b = (np.array([draw(st.floats(-0.05, 0.05)) for _ in range(3)])
            for _ in range(2))
    if kind == "far-du":
        a[0] = b[0] = draw(st.sampled_from([1e306, -1e306]))
        a[2], b[2] = 0.002, draw(st.floats(0.003, 0.1))
    elif kind == "behind":
        a[2] = draw(st.floats(-0.1, Z_NEAR))
        b[2] = 2 * Z_NEAR - a[2] - draw(st.sampled_from([0.0, 1e-3]))
    else:
        a[2], b[2] = (draw(st.floats(0.02, 0.3)) for _ in range(2))
    return np.array([a, b])


@st.composite
def posed_batches(draw):
    """(camera, PartPoses of a batch of 1 to 6 frames stacked part-major,
    dt): each frame's parts of drawn AXIS_KINDS, and one frame, at a drawn
    position, with one part of each kind but "in-view"."""
    cam = default_camera(draw(st.integers(1, 64)), draw(st.integers(1, 64)))
    frames = [[draw(axis_capsule(draw(st.sampled_from(AXIS_KINDS))))
               for _ in PART_NAMES] for _ in range(draw(st.integers(0, 5)))]
    frames.insert(draw(st.integers(0, len(frames))), draw(st.permutations(
        [draw(axis_capsule(kind)) for kind in AXIS_KINDS[1:]])))
    ends = np.array(frames).swapaxes(0, 1)  # (4, B, 2, 3)
    dt = draw(st.sampled_from([1 / 30, 0.5, 1e-40]))
    return cam, PartPoses(ends, np.full(ends.shape[:2], 0.004)), dt


@settings(max_examples=200, deadline=None)
@given(posed_batches())
def test_batched_table_columns_match_per_frame_reference(case):
    # rho a part at a time, and alpha a row at a time through
    # np.linalg.norm, as the lift formed them before it read poses whole
    cam, poses, dt = case
    rho = kvf.rotation_channel(poses, cam)
    want = [[ref_lift.part_axis_angle(ends, cam) for ends in part]
            for part in poses.endpoints]
    assert rho.tobytes() == np.array(want).tobytes()
    frames = [PartPoses(poses.endpoints[:, t], poses.radii[:, t])
              for t in range(poses.radii.shape[1])]
    with np.errstate(over="ignore", invalid="ignore"):
        motion = kvf.motion_channels(poses, cam, dt)
    assert motion.tobytes() == ref_lift.motion_channels(frames, cam, dt).tobytes()


# rotation angles for the wrist: zero, below, at and just above the
# small-angle threshold 1e-12, and up to 1e150
ANGLES = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-15, np.nextafter(1e-12, 0.0), 1e-12,
                     np.nextafter(1e-12, 1.0)]),
    st.floats(1e-300, 1e-12), st.floats(1e-12, 10.0), st.floats(10.0, 1e150))


@st.composite
def rotation_vectors(draw):
    """A rotation vector r = axis * angle: along a coordinate axis, where
    |r| is the drawn angle exactly, or along a drawn direction."""
    angle = draw(ANGLES) * draw(st.sampled_from([1.0, -1.0]))
    axis = np.zeros(3)
    if draw(st.booleans()):
        axis[draw(st.integers(0, 2))] = 1.0
    else:
        axis[:] = [draw(st.floats(-1, 1)) for _ in range(3)]
        norm = np.linalg.norm(axis)
        axis = axis / norm if norm > 1e-3 else np.array([0.0, 1.0, 0.0])
    return axis * angle


def joint_angles(lo, hi):
    """A joint angle at either limit or between them."""
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))


LIMITS = JointLimits()


@st.composite
def articulated_states(draw):
    p = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
    return ArticulatedState(p=p, r=draw(rotation_vectors()),
                            q_sw=draw(joint_angles(*LIMITS.q_sw)),
                            q_lg=draw(joint_angles(*LIMITS.q_lg)),
                            q_rg=draw(joint_angles(*LIMITS.q_rg)))


@st.composite
def tool_geometries(draw):
    """The default tool, or each part a capsule between two drawn points,
    so that its ends read every entry of its rotation."""
    if draw(st.booleans()):
        return ToolGeometry()
    point = st.tuples(*[st.floats(-0.1, 0.1)] * 3).map(np.array)
    return ToolGeometry(capsules={part: Capsule(draw(point), draw(point),
                                                draw(st.floats(1e-4, 0.01)))
                                  for part in PART_NAMES})


@settings(max_examples=200, deadline=None)
@given(st.lists(articulated_states(), min_size=1, max_size=12),
       tool_geometries())
def test_batched_forward_kinematics_matches_per_state_reference(states, geom):
    # every state of a batch is posed with the bits of the scalar
    # Rodrigues form posing it alone, and one state is a batch of one
    poses = forward_kinematics(tuple(states), geom)
    want = [ref_lift.forward_kinematics(state, geom) for state in states]
    assert poses.endpoints.shape == (len(PART_NAMES), len(states), 2, 3)
    assert (poses.endpoints.tobytes()
            == np.stack([w.endpoints for w in want], axis=1).tobytes())
    assert (poses.radii.tobytes()
            == np.stack([w.radii for w in want], axis=1).tobytes())
    one = forward_kinematics(states[0], geom)
    assert one.endpoints.shape == (len(PART_NAMES), 2, 3)
    assert one.endpoints.tobytes() == poses.endpoints[:, 0].tobytes()
    assert one.radii.tobytes() == poses.radii[:, 0].tobytes()


# synth bases: the default; -0.0 in p_z and r_x, which the z drift and the
# wrist's r_x term turn into +0.0, and in the joints, two of them at their
# 0.0 lower limit; joints outside their limits
SYNTH_BASES = (
    DEFAULT_BASE_STATE,
    ArticulatedState(p=np.array([0.01, 0.0, -0.0]), r=np.array([-0.0, 0.1, 0.0]),
                     q_sw=-0.0, q_lg=-0.0, q_rg=-0.0),
    ArticulatedState(p=np.array([0.0, -0.0, 0.11]), r=np.zeros(3), q_sw=4.0,
                     q_lg=-1.0, q_rg=2.0))


@pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
def test_synth_actions_match_frame_at_a_time_reference(kind):
    for T, seed, base in itertools.product((1, 2, 10), (0, 3), SYNTH_BASES):
        got = synth_trajectory(kind, {"base": base}, T=T, seed=seed)
        want = ref_lift.synth_trajectory(kind, {"base": base}, T=T, seed=seed)
        assert got.dt == want.dt
        assert (np.array([s.as_vector() for s in got.states]).tobytes()
                == np.array([s.as_vector() for s in want.states]).tobytes())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 10]), st.integers(1, 3), st.sampled_from([1, 3]),
       st.sampled_from([16, 33]), st.sampled_from(["zero", "drawn", "ones"]),
       st.integers(0, 2 ** 32 - 1))
@example(T=10, h=2, w=1, c=33, mask="drawn", seed=0)
@example(T=2, h=1, w=1, c=16, mask="zero", seed=1)
def test_src_grad_matches_frame_loop_reference(T, h, w, c, mask, seed):
    # W' = 1 and token_dim 33 are the grids whose products round otherwise
    # (the golden cases `w1` and `token33`); an all-zero mask has no gradient
    rng = np.random.default_rng(seed)
    tok_seq = rng.normal(size=(T, h, w, c))
    m_tool = (rng.random((T, h, w)) < {"zero": 0.0, "drawn": 0.5,
                                      "ones": 1.0}[mask]).astype(float)
    state = pr.PredictorState(w=rng.normal(size=(c, rt.N_EXPERTS)),
                              b=rng.normal(size=rt.N_EXPERTS))
    got = pr.src_loss_grad(tok_seq, state, m_tool)
    want = ref.src_loss_grad(tok_seq, state, m_tool)
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(1, 300), st.sampled_from([1, 3, 16, 33]),
       st.integers(0, 2 ** 32 - 1))
@example(T=4, n=4096, c=16, seed=0)
@example(T=3, n=1, c=33, seed=0)
def test_stacked_frame_products_and_sums_match_per_frame(T, n, c, seed):
    # `src_loss_grad` takes each frame's product tok[t].T @ dz[t] from one
    # stacked np.matmul and each frame's column sums from one sum over axis
    # 1; both must give each frame the bits of its own product and sum
    rng = np.random.default_rng(seed)
    tok = rng.normal(size=(T, n, c))
    dz = rng.normal(size=(T, n, rt.N_EXPERTS))
    dz[rng.random(dz.shape) < 0.2] = -0.0
    products = np.matmul(tok.transpose(0, 2, 1), dz)
    sums = dz.sum(axis=1)
    for t in range(T):
        assert products[t].tobytes() == (tok[t].T @ dz[t]).tobytes()
        assert sums[t].tobytes() == dz[t].sum(axis=0).tobytes()

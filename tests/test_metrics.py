import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kvacontrol import metrics as mt
from kvacontrol.errors import InvalidParams
from kvacontrol.kinematics import (
    DEFAULT_BASE_STATE,
    PART_NAMES,
    PART_SEMANTIC_CLASS,
    Z_NEAR,
    ArticulatedState,
    PartPoses,
    ToolGeometry,
    default_camera,
    forward_kinematics,
    project,
    synth_trajectory,
)

import reference_metrics as ref_mt


def brute_force_edt(mask):
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    if not mask.any():
        return np.full((h, w), np.inf)
    fg = np.argwhere(mask)
    out = np.empty((h, w))
    for i in range(h):
        for j in range(w):
            d2 = ((fg[:, 0] - i) ** 2 + (fg[:, 1] - j) ** 2).min()
            out[i, j] = np.sqrt(d2)
    return out


class TestDistanceTransform:
    def test_single_pixel_345(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2, 3] = True
        d = mt.distance_transform(mask)
        assert d[2, 3] == 0.0
        assert d[5, 7] == pytest.approx(5.0)  # 3-4-5 triangle
        assert d[2, 8] == pytest.approx(5.0)

    def test_empty_mask_all_inf(self):
        d = mt.distance_transform(np.zeros((4, 6), dtype=bool))
        assert np.isinf(d).all()

    def test_full_mask_zero(self):
        d = mt.distance_transform(np.ones((5, 5), dtype=bool))
        np.testing.assert_array_equal(d, 0.0)

    @pytest.mark.parametrize("seed,shape,density", [
        *((s, (17, 23), 0.08) for s in range(8)),
        (8, (129, 7), 0.08),
        (9, (200, 31), 0.08),
        # a lone corner pixel: the column pass folds in the most row offsets
        (10, (300, 5), 0.0),
    ], ids=[*map(str, range(8)), "129x7", "200x31", "300x5-corner"])
    def test_matches_brute_force_exactly(self, seed, shape, density):
        rng = np.random.default_rng(seed)
        mask = rng.random(shape) < density
        if not mask.any():
            mask[0, 0] = True
        d = mt.distance_transform(mask)
        expected = brute_force_edt(mask)
        # exact: both are sqrt of identical integer squared distances
        np.testing.assert_array_equal(d, expected)

    def test_non_square(self):
        mask = np.zeros((3, 40), dtype=bool)
        mask[1, 0] = True
        d = mt.distance_transform(mask)
        assert d[1, 39] == pytest.approx(39.0)


class TestChamfer:
    def test_identical_masks_zero(self):
        rng = np.random.default_rng(0)
        mask = rng.random((20, 20)) < 0.2
        assert mt.chamfer(mask, mask) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        A = rng.random((15, 15)) < 0.2
        B = rng.random((15, 15)) < 0.2
        va = mt.chamfer(A, B)
        vb = mt.chamfer(B, A)
        assert va == pytest.approx(vb, abs=1e-12)

    def test_empty_invalid(self):
        mask = np.ones((5, 5), dtype=bool)
        empty = np.zeros((5, 5), dtype=bool)
        for a, b in ((mask, empty), (empty, mask), (empty, empty)):
            assert np.isnan(mt.chamfer(a, b))

    def test_two_pixel_hand_case(self):
        A = np.zeros((8, 8), dtype=bool)
        B = np.zeros((8, 8), dtype=bool)
        A[2, 2] = True
        B[2, 6] = True
        assert mt.chamfer(A, B) == pytest.approx(4.0)

    @pytest.mark.parametrize("seed,frame,a_at,b_at", [
        *((s, (14, 11), (0, 0), (0, 0)) for s in range(6)),
        # far apart inside a larger frame, so chamfer works on a crop
        (6, (90, 120), (5, 3), (70, 100)),
    ], ids=[*map(str, range(6)), "far-apart"])
    def test_matches_all_pairs_oracle(self, seed, frame, a_at, b_at):
        rng = np.random.default_rng(seed)
        A = np.zeros(frame, dtype=bool)
        B = np.zeros(frame, dtype=bool)
        (ai, aj), (bi, bj) = a_at, b_at
        A[ai:ai + 14, aj:aj + 11] = rng.random((14, 11)) < 0.15
        B[bi:bi + 14, bj:bj + 11] = rng.random((14, 11)) < 0.15
        A[ai, aj] = B[bi + 1, bj + 1] = True
        pa = np.argwhere(A).astype(float)
        pb = np.argwhere(B).astype(float)
        d_ab = np.sqrt(((pa[:, None] - pb[None]) ** 2).sum(-1))
        expected = 0.5 * (d_ab.min(axis=1).mean() + d_ab.min(axis=0).mean())
        value = mt.chamfer(A, B)
        # exact: the same integer squared distances, averaged in the same
        # row-major order over the uncropped frame
        assert value == expected

    def test_translation_grows_distance(self):
        base = np.zeros((30, 30), dtype=bool)
        base[10:14, 10:14] = True
        prev = None
        for shift in (0, 3, 8):
            moved = np.roll(base, shift, axis=1)
            value = mt.chamfer(base, moved)
            if prev is not None:
                assert value > prev
            prev = value


class TestTemporalIoU:
    def test_identical_one(self):
        mask = np.eye(6, dtype=bool)
        assert mt.temporal_iou(mask, mask) == 1.0

    def test_disjoint_zero(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = b[3, 3] = True
        assert mt.temporal_iou(a, b) == 0.0

    def test_one_third_hand_case(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, :2] = True  # {00, 01}
        b[0, 1:3] = True  # {01, 02}; intersection 1, union 3
        assert mt.temporal_iou(a, b) == pytest.approx(1 / 3)

    def test_both_empty_one(self):
        e = np.zeros((4, 4), dtype=bool)
        assert mt.temporal_iou(e, e) == 1.0


class TestAreaFlicker:
    def test_no_change_zero(self):
        mask = np.ones((3, 3), dtype=bool)
        assert mt.area_flicker(mask, mask) == 0.0

    def test_hand_case_half(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, :3] = True  # area 3
        b[0, :2] = True  # area 2 -> |3-2|/2
        assert mt.area_flicker(a, b) == pytest.approx(0.5)

    def test_denominator_floor(self):
        a = np.zeros((4, 4), dtype=bool)
        a[0, :7 % 4] = True
        a = np.zeros((4, 4), dtype=bool)
        a[:2, :4] = True  # area 8... use 7
        a[0, 0] = False  # area 7
        empty = np.zeros((4, 4), dtype=bool)
        assert mt.area_flicker(a, empty) == 7.0


class TestDice:
    def test_identical_one(self):
        mask = np.tri(5, dtype=bool)
        assert mt.dice(mask, mask) == 1.0

    def test_both_empty_one(self):
        e = np.zeros((3, 3), dtype=bool)
        assert mt.dice(e, e) == 1.0

    def test_hand_case_two_sixths(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, :2] = True
        b[0, 1:5] = True  # |A|=2 |B|=3... keep to 4x4: b[0,1:4] area 3
        # intersection {01}: 2*1/(2+3)
        assert mt.dice(a, b) == pytest.approx(2 / 5)

    def test_relates_to_jaccard(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.random((12, 12)) < 0.3
            B = rng.random((12, 12)) < 0.3
            union = (A | B).sum()
            if union == 0:
                continue
            J = (A & B).sum() / union
            assert mt.dice(A, B) == pytest.approx(2 * J / (1 + J), abs=1e-12)


class TestEvaluateSequence:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        frames = list(rng.integers(0, 4, size=(3, 16, 16)))
        report = mt.evaluate_sequence(frames, frames)
        assert report.means[0] == 0.0
        assert report.means[3] == 1.0

    def test_per_part_chamfer(self):
        # part 1 offset by 2 px, part 2 perfect; mean CD = 1.0
        a = np.zeros((16, 16), dtype=int)
        b = np.zeros((16, 16), dtype=int)
        a[4, 4] = 1
        b[4, 6] = 1
        a[10, 10] = b[10, 10] = 2
        report = mt.evaluate_sequence([a], [b])
        assert report.frames[0, 0] == pytest.approx(1.0)

    def test_label_bounds_checked(self):
        ok = np.zeros((4, 4), dtype=int)
        for bad in (np.full((4, 4), 5), np.full((4, 4), -1)):
            for pred, target in (([bad], [ok]), ([ok], [bad])):
                with pytest.raises(ValueError, match="must be in"):
                    mt.evaluate_sequence(pred, target)

    def test_temporal_metrics_use_pred_unions(self):
        a = np.zeros((8, 8), dtype=int)
        a[0, :4] = 1  # union area 4
        b = np.zeros((8, 8), dtype=int)
        b[0, :2] = 3  # union area 2, intersection 2 -> TI 0.5, AF 2/4
        target = np.zeros((8, 8), dtype=int)
        report = mt.evaluate_sequence([a, b], [target, target])
        assert np.isnan(report.frames[0, 1:3]).all()
        assert report.frames[1, 1] == pytest.approx(0.5)
        assert report.frames[1, 2] == pytest.approx(0.5)

    def test_means_skip_nan(self):
        # cd 1, nan (the shaft in the target alone, the gripper in the
        # prediction alone), 3; frame 1's ti and af are nan, so those means
        # are over frames 2 and 3
        a, b = np.zeros((3, 12, 12), dtype=int), np.zeros((3, 12, 12), dtype=int)
        a[0, 5, 5] = a[2, 5, 5] = 1
        b[0, 5, 6] = b[1, 5, 5] = b[2, 5, 8] = 1
        a[1, 0, 0] = 3
        report = mt.evaluate_sequence(list(a), list(b))
        np.testing.assert_array_equal(report.frames[:, 0], [1.0, np.nan, 3.0])
        assert report.skipped_cd == 1
        np.testing.assert_array_equal(
            report.means, [2.0, np.mean(report.frames[1:, 1]),
                           np.mean(report.frames[1:, 2]),
                           np.mean(report.frames[:, 3])])

    def test_all_cd_skipped(self):
        # one frame, empty in the target: no cd, no ti or af, Dice 0
        a = np.zeros((4, 4), dtype=int)
        a[1, 1] = 2
        report = mt.evaluate_sequence([a], [np.zeros((4, 4), dtype=int)])
        np.testing.assert_array_equal(report.means, [np.nan, np.nan, np.nan, 0.0])
        assert report.skipped_cd == 1


def _assert_matches_reference(pred, target):
    rows, skipped = ref_mt.evaluate_sequence(pred, target)
    report = mt.evaluate_sequence(pred, target)
    table = np.vstack([report.frames, report.means])
    assert table.tobytes() == np.array(rows).tobytes()
    assert report.skipped_cd == skipped


def _labels(rng, frames, shape, blank):
    """frames random label masks, frame t emptied where blank[t]."""
    labels = rng.integers(0, 4, size=(frames, *shape))
    labels *= rng.random((frames, *shape)) < rng.uniform(0.05, 0.6)
    labels[blank] = 0
    return list(labels)


@st.composite
def label_stacks(draw):
    """Predicted and target (T, H, W) label stacks, mostly background."""
    shape = (draw(st.integers(1, 6)),
             *draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=9)))
    labels = st.sampled_from([0, 0, 0, 1, 2, 3])
    return [list(draw(hnp.arrays(np.int64, shape, elements=labels)))
            for _ in range(2)]


class TestTableMatchesReference:
    """The table holds the bits of the per-frame forms in
    `tests/reference_metrics.py`, the means and skipped_cd included."""

    @pytest.mark.parametrize("shape", [(5, 3), (1, 8), (16, 16)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("frames", [1, 2, 10])
    def test_random_labels(self, shape, frames):
        rng = np.random.default_rng(frames * 100 + shape[0])
        # frames empty on both sides, in the prediction or in the target alone
        both, pred_only, target_only = (rng.random(frames) < 0.25
                                        for _ in range(3))
        pred = _labels(rng, frames, shape, both | target_only)
        target = _labels(rng, frames, shape, both | pred_only)
        _assert_matches_reference(pred, target)

    @pytest.mark.parametrize("frames", [1, 2, 10])
    def test_every_frame_empty(self, frames):
        empty = [np.zeros((5, 3), dtype=int)] * frames
        _assert_matches_reference(empty, empty)
        full = [np.full((5, 3), 2)] * frames
        _assert_matches_reference(full, empty)
        _assert_matches_reference(empty, full)

    @settings(max_examples=100, deadline=None)
    @given(label_stacks())
    def test_drawn_label_stacks(self, stacks):
        _assert_matches_reference(*stacks)

    def test_stacked_forms_match_per_frame(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((2, 7, 6, 5)) < [[[[0.1]]], [[[0.4]]]]
        a[2] = b[3] = b[4] = a[4] = False
        for stacked, single in ((mt.temporal_iou, ref_mt.temporal_iou),
                                (mt.area_flicker, ref_mt.area_flicker),
                                (mt.dice, ref_mt.dice)):
            want = [single(x, y) for x, y in zip(a, b)]
            assert stacked(a, b).tobytes() == np.array(want).tobytes()


class TestRenderTube:
    def _poses(self):
        geom = ToolGeometry()
        state = ArticulatedState(p=np.array([0.0, 0.0, 0.11]),
                                 r=np.zeros(3), q_sw=0.3, q_lg=0.3, q_rg=0.3)
        return forward_kinematics(state, geom)

    def test_labels_in_range_and_nonempty(self):
        cam = default_camera(64, 64)
        labels = mt.render_tube(self._poses(), cam)
        assert labels.shape == (64, 64)
        assert set(np.unique(labels)) <= {0, 1, 2, 3}
        assert (labels > 0).sum() > 20

    def test_all_semantic_classes_present(self):
        cam = default_camera(96, 96)
        labels = mt.render_tube(self._poses(), cam)
        for c in (1, 2, 3):
            assert (labels == c).any()

    def test_width_controls_area(self):
        cam = default_camera(64, 64)
        narrow = (mt.render_tube(self._poses(), cam, half_width=1.0) > 0).sum()
        wide = (mt.render_tube(self._poses(), cam, half_width=4.0) > 0).sum()
        assert wide > narrow

    def test_tube_radius_respected(self):
        # every foreground pixel lies within half_width of a projected segment
        cam = default_camera(64, 64)
        poses = self._poses()
        hw = 3.0
        labels = mt.render_tube(poses, cam, half_width=hw)
        segs = []
        for a, b in poses.endpoints:
            (ua, va), (ub, vb) = project(cam, a), project(cam, b)
            segs.append((ua, va, ub, vb))
        for i, j in np.argwhere(labels > 0):
            d2 = min(mt._point_segment_dist2(float(j), float(i), *s) for s in segs)
            assert d2 <= hw * hw + 1e-9

    def test_behind_camera_part_skipped(self):
        geom = ToolGeometry()
        state = ArticulatedState(p=np.array([0.0, 0.0, -0.5]),
                                 r=np.zeros(3), q_sw=0, q_lg=0, q_rg=0)
        poses = forward_kinematics(state, geom)
        labels = mt.render_tube(poses, default_camera(32, 32))
        assert (labels == 0).all()


def dense_render_tube(poses, cam, half_width):
    """`render_tube` measured on every pixel of the frame, each endpoint
    projected on its own: the reference the cropped one, which projects a
    frame's endpoints together, must match bit for bit."""
    h, w = cam.height, cam.width
    labels = np.zeros((h, w), dtype=int)
    best_z = np.full((h, w), np.inf)
    hw2 = half_width * half_width
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    for k, (a, b) in enumerate(poses.endpoints):
        za, zb = a[2], b[2]
        if za <= Z_NEAR or zb <= Z_NEAR:  # behind the camera
            continue
        with np.errstate(over="ignore"):
            (ua, va), (ub, vb) = project(cam, a), project(cam, b)
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = mt._point_segment_dist2(jj.astype(float), ii.astype(float),
                                         ua, va, ub, vb)
        z_mid = 0.5 * (za + zb)
        hit = (d2 <= hw2) & (z_mid < best_z)
        labels[hit] = PART_SEMANTIC_CLASS[k] + 1
        best_z[hit] = z_mid
    return labels


# (width, height): one pixel, non-square both ways, and large256's frame
TUBE_SIZES = [(1, 1), (5, 3), (32, 48), (256, 256)]
TUBE_HALF_WIDTHS = [0.5, 3.0, 8.0, 1e200]


def _measured_areas(monkeypatch):
    """Pixels `render_tube` measures per part, recorded as it runs."""
    areas = []
    dist2 = mt._point_segment_dist2

    def counting(px, py, *segment):
        areas.append(np.broadcast(px, py).size)
        return dist2(px, py, *segment)

    monkeypatch.setattr(mt, "_point_segment_dist2", counting)
    return areas


# a pixel coordinate: a fraction of the frame's side (on the frame or over
# its border), or px around the 2^20 px fallback and far past it
_FAR_PX = [2.0 ** 20 - 3, 2.0 ** 20 - 0.5, 2.0 ** 20, 2.0 ** 20 + 0.5,
           2.0 ** 20 + 3, 1e12, 1e100, 1e306]
_PIXEL = st.one_of(st.floats(-1.0, 2.0).map(lambda f: ("frac", f)),
                   st.sampled_from(_FAR_PX + [-px for px in _FAR_PX]).map(
                       lambda px: ("px", px)))


def _point_at(cam, u, v, z):
    """The camera-frame point at depth z that projects to pixel (u, v)."""
    return np.array([(u - cam.cx) * z / cam.fx, (v - cam.cy) * z / cam.fy, z])


class TestRenderTubeCrop:
    """`render_tube` measures each tube on its own pixel box; the labels
    must be those of measuring every pixel, `tobytes()`-identical."""

    @pytest.mark.parametrize("half_width", TUBE_HALF_WIDTHS)
    @pytest.mark.parametrize("depth", [0.003, 0.01, 0.05, 0.11])
    @pytest.mark.parametrize("size", TUBE_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_synth_poses_match_dense(self, size, depth, half_width):
        # a base pose a few mm to 11 cm deep, as perfbench's exit128 writer
        # places it at 5 cm with 8 px tubes: large tubes crossing the border
        geom = ToolGeometry()
        cam = default_camera(*size)
        base = dataclasses.replace(DEFAULT_BASE_STATE, p=np.array([0.0, 0.0, depth]))
        traj = synth_trajectory("composite", params={"base": base}, T=3,
                                seed=7, geom=geom)
        for state in traj.states:
            poses = forward_kinematics(state, geom)
            assert (mt.render_tube(poses, cam, half_width).tobytes()
                    == dense_render_tube(poses, cam, half_width).tobytes())

    @settings(max_examples=300, deadline=None)
    @given(size=st.sampled_from(TUBE_SIZES[:3]),
           half_width=st.one_of(st.sampled_from(TUBE_HALF_WIDTHS),
                                st.floats(0.01, 100.0)),
           segments=st.lists(st.tuples(
               _PIXEL, _PIXEL, _PIXEL, _PIXEL,
               # depths: in front, then also near or behind Z_NEAR
               st.floats(1e-3, 0.3), st.floats(-0.01, 0.3),
               st.booleans()), min_size=4, max_size=4))
    def test_random_segments_match_dense(self, size, half_width, segments):
        cam = default_camera(*size)
        dims = (cam.width, cam.height, cam.width, cam.height)
        endpoints = np.empty((len(PART_NAMES), 2, 3))
        for ends, (*coords, za, zb, degenerate) in zip(endpoints, segments):
            ua, va, ub, vb = (f * d if kind == "frac" else f
                              for (kind, f), d in zip(coords, dims))
            ends[0] = _point_at(cam, ua, va, za)
            ends[1] = ends[0] if degenerate else _point_at(cam, ub, vb, zb)
        poses = PartPoses(endpoints, np.zeros(len(PART_NAMES)))
        assert (mt.render_tube(poses, cam, half_width).tobytes()
                == dense_render_tube(poses, cam, half_width).tobytes())

    @pytest.mark.parametrize("u", [2.0 ** 20 - 1, 2.0 ** 20, 2.0 ** 20 + 1,
                                   -(2.0 ** 20) - 1, -1e100, 1e306])
    def test_fallback_edge_matches_dense(self, monkeypatch, u):
        # one gripper tube from u px along the rows into the frame; at
        # -1e100 px the whole-frame distances round to hits that a crop
        # would miss
        cam = default_camera(32, 48)
        poses = forward_kinematics(ArticulatedState(
            p=np.array([0.0, 0.0, 0.11]), r=np.zeros(3), q_sw=0.3, q_lg=0.3,
            q_rg=0.3), ToolGeometry())
        endpoints = poses.endpoints.copy()
        endpoints[PART_NAMES.index("left_gripper")] = (
            _point_at(cam, u, 40.0, 0.1), _point_at(cam, 10.0, 20.0, 0.1))
        poses = dataclasses.replace(poses, endpoints=endpoints)
        areas = _measured_areas(monkeypatch)
        labels = mt.render_tube(poses, cam, 3.0)
        assert labels.tobytes() == dense_render_tube(poses, cam, 3.0).tobytes()
        assert (labels == 3).any()
        # past 2^20 px the gripper is measured on the whole frame
        whole = areas[PART_NAMES.index("left_gripper")] == cam.width * cam.height
        assert whole == (abs(u) > mt.TUBE_CROP_MAX)

    def test_measures_only_tube_boxes(self, monkeypatch):
        cam = default_camera(256, 256)
        geom = ToolGeometry()
        areas = _measured_areas(monkeypatch)
        for state in synth_trajectory("composite", T=4, seed=1, geom=geom).states:
            areas.clear()
            mt.render_tube(forward_kinematics(state, geom), cam)
            # the four boxes cover about a quarter of the frame; measuring
            # every pixel for every part would be four frames
            assert len(areas) == 4 and sum(areas) < 0.5 * 256 * 256

    @pytest.mark.parametrize("half_width", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_half_width_outside_finite_positive(self, half_width):
        poses = forward_kinematics(DEFAULT_BASE_STATE, ToolGeometry())
        with pytest.raises(InvalidParams):
            mt.render_tube(poses, default_camera(16, 16), half_width)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvacontrol.errors import BehindCamera, EmptyCorpus
from kvacontrol.kinematics import (
    DEFAULT_BASE_STATE,
    PART_NAMES,
    PART_SEMANTIC_CLASS,
    Z_NEAR,
    ArticulatedState,
    CameraModel,
    PartPoses,
    ToolGeometry,
    default_camera,
    forward_kinematics,
    project_point,
    synth_trajectory,
    Trajectory,
)
from kvacontrol import kva_field as kvf

import frozen_raster


def random_visible_state(rng):
    return ArticulatedState(
        p=np.array([rng.normal(0, 0.015), rng.normal(0, 0.015),
                    rng.uniform(0.09, 0.14)]),
        r=rng.normal(0, 0.5, 3),
        q_sw=rng.uniform(-0.8, 0.8),
        q_lg=rng.uniform(0, np.pi / 2),
        q_rg=rng.uniform(0, np.pi / 2),
    )


def painted(lifted):
    """The (T, H, W, 9) channels of a lifted trajectory, painted densely:
    each pixel reads its part's table row (label -1 the zero row) and its
    depth."""
    frames = np.arange(len(lifted))[:, None, None]
    channels = lifted.tables[frames, lifted.labels]
    channels[..., kvf.DEPTH] = lifted.depth
    return channels


def rasterize(poses, cam):
    """`kvf.rasterize_parts` into a new pair of (H, W) arrays."""
    out = (np.empty((cam.height, cam.width), dtype=np.intp),
           np.empty((cam.height, cam.width)))
    return kvf.rasterize_parts(poses, cam, out)


def motion_at(traj, geom, cam, t):
    """Velocity and acceleration channels of frame t as lifted."""
    ch = painted(kvf.lift_trajectory(traj, geom, cam))[t]
    return ch[..., 5:8], ch[..., 8]


def midpoint_uvz(state, geom, cam, part):
    """Projected (u, v, depth) of the part's capsule midpoint."""
    a, b = forward_kinematics(state, geom).endpoints[part]
    return np.array(project_point(cam, 0.5 * (a + b)))


def capsule_sdf(x, a, b, r):
    ab = b - a
    t = np.clip(np.dot(x - a, ab) / np.dot(ab, ab), 0.0, 1.0)
    return np.linalg.norm(x - (a + t * ab)) - r


def _capsule_sdf_batch(pts, a, b, r):
    """Capsule SDF for an (N, 3) array of points."""
    ab = b - a
    t = np.clip((pts - a) @ ab / (ab @ ab), 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.linalg.norm(pts - closest, axis=1) - r


def ray_march_oracle(poses, cam, step=1e-4):
    """Brute-force fixed-step march along each pixel ray over the min capsule
    SDF, with bisection refinement at the first sign change."""
    labels = np.full((cam.height, cam.width), -1, dtype=int)
    depth = np.zeros((cam.height, cam.width))
    parts = [(pi, *poses.endpoints[p], poses.radii[p])
             for pi, p in enumerate(PART_NAMES)]
    zs = [e[2] for _, a, b, _ in parts for e in (a, b)]
    r_max = max(r for *_, r in parts)
    s_lo = max(Z_NEAR, 0.5 * (min(zs) - r_max))
    s_hi = 1.5 * (max(zs) + r_max)
    if s_hi <= s_lo:
        return labels, depth
    samples = np.arange(s_lo, s_hi, step)

    def min_sdf(pts):
        return np.min([_capsule_sdf_batch(pts, a, b, r)
                       for _, a, b, r in parts], axis=0)

    for i in range(cam.height):
        for j in range(cam.width):
            d = np.array([(j - cam.cx) / cam.fx, (i - cam.cy) / cam.fy, 1.0])
            d = d / np.linalg.norm(d)
            inside = min_sdf(samples[:, None] * d) <= 0
            idx = np.argmax(inside)
            if not inside[idx]:
                continue
            lo = samples[idx] - step
            hi = samples[idx]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if min_sdf((mid * d)[None, :])[0] <= 0:
                    hi = mid
                else:
                    lo = mid
            x = hi * d
            dists = [capsule_sdf(x, a, b, r) for _, a, b, r in parts]
            labels[i, j] = parts[int(np.argmin(dists))][0]
            depth[i, j] = x[2]
    return labels, depth


# poses for a 40x24 camera with an off-centre principal point, so that a
# swapped row/column axis cannot pass: (p, r, (q_sw, q_lg, q_rg))
CULL_CAMERA = CameraModel(fx=60.0, fy=50.0, cx=17.5, cy=9.25, width=40, height=24)
CULL_POSES = {
    "in-view": ([-0.035, 0.0, 0.25], [0.0, -1.5, 0.0], (0.2, 0.4, 0.3)),
    "off-edge": ([0.0, 0.035, 0.2], [0.0, 1.5, 0.0], (0.2, 0.4, 0.3)),
    "off-screen": ([-0.3, 0.0, 0.2], [0.0, 1.5, 0.0], (0.2, 0.4, 0.3)),
    "straddles-z-near": ([-0.009, 0.004, 0.06], [-0.5, 0.2, 0.2], (0.2, 0.4, 0.3)),
}


def part_arrays(poses):
    """The (4, 2, 3) capsule endpoints and (4,) radii, in PART_NAMES order."""
    return (np.array([poses.endpoints[part] for part in PART_NAMES]),
            np.array([poses.radii[part] for part in PART_NAMES]))


def full_frame_raster(poses, cam):
    """Every pixel's ray tested against every capsule, with no culling."""
    h, w = cam.height, cam.width
    every = np.zeros((len(PART_NAMES), h), dtype=np.intp)
    pix, depth, _ = kvf._ray_test(*part_arrays(poses), cam, every, every + w)
    assert np.array_equal(pix, np.tile(np.arange(h * w), len(PART_NAMES)))
    depths = depth.reshape(len(PART_NAMES), h * w)
    best = depths.min(axis=0)
    labels = np.where(np.isfinite(best), depths.argmin(axis=0), -1)
    depth = np.where(np.isfinite(best), best, 0.0)
    return labels.reshape(h, w), depth.reshape(h, w)


class TestRasterize:
    def test_tool_behind_camera(self):
        geom = ToolGeometry()
        cam = default_camera(16, 16)
        state = ArticulatedState(p=np.array([0, 0, -0.5]), r=np.zeros(3),
                                 q_sw=0, q_lg=0, q_rg=0)
        labels, d = rasterize(forward_kinematics(state, geom), cam)
        assert (labels < 0).all() and d.sum() == 0

    def test_front_most_part_wins(self):
        # two overlapping capsules: nearer one labels the pixel
        geom = ToolGeometry()
        cam = CameraModel(fx=50, fy=50, cx=8, cy=8, width=16, height=16)
        from kvacontrol.kinematics import Capsule, PartPoses
        poses = PartPoses(
            endpoints={
                "shaft": (np.array([-0.1, 0, 2.0]), np.array([0.1, 0, 2.0])),
                "wrist": (np.array([-0.1, 0, 1.0]), np.array([0.1, 0, 1.0])),
                "left_gripper": (np.array([9, 9, 9.0]), np.array([9.1, 9, 9.0])),
                "right_gripper": (np.array([9, 9, 9.0]), np.array([9.1, 9, 9.0])),
            },
            radii={"shaft": 0.05, "wrist": 0.05,
                   "left_gripper": 0.001, "right_gripper": 0.001},
        )
        labels, d = rasterize(poses, cam)
        assert PART_NAMES[labels[8, 8]] == "wrist"  # wrist at depth ~1 wins
        assert abs(d[8, 8] - 0.95) < 0.01

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_ray_march_oracle(self, seed):
        rng = np.random.default_rng(seed)
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        poses = forward_kinematics(random_visible_state(rng), geom)
        labels, depth = rasterize(poses, cam)
        o_labels, o_depth = ray_march_oracle(poses, cam)
        assert np.array_equal(labels, o_labels)
        covered = labels >= 0
        assert covered.any()
        assert np.max(np.abs(depth[covered] - o_depth[covered])) < 2e-4

    @pytest.mark.parametrize("case", sorted(CULL_POSES))
    def test_culled_matches_full_frame(self, case):
        p, r, (q_sw, q_lg, q_rg) = CULL_POSES[case]
        cam = CULL_CAMERA
        state = ArticulatedState(p=np.array(p), r=np.array(r),
                                 q_sw=q_sw, q_lg=q_lg, q_rg=q_rg)
        poses = forward_kinematics(state, ToolGeometry())
        labels, depth = rasterize(poses, cam)
        o_labels, o_depth = full_frame_raster(poses, cam)
        assert labels.dtype == o_labels.dtype
        assert np.array_equal(labels, o_labels)
        assert depth.tobytes() == o_depth.tobytes()

        # each case exercises what its name says
        hit = labels >= 0
        on_border = hit[0].any() or hit[-1].any() or hit[:, 0].any() or hit[:, -1].any()
        if case == "in-view":
            assert hit.any() and not on_border
        elif case == "off-edge":
            assert on_border
        elif case == "off-screen":
            assert not hit.any()
            j0, j1 = kvf._row_spans(*part_arrays(poses), cam)
            assert (j0 == j1).all()  # no part tests a ray
        else:
            # a visible part reaches from behind Z_NEAR to in front of it
            straddles = [k for k, part in enumerate(PART_NAMES)
                         if min(a[2] for a in poses.endpoints[part]) <= Z_NEAR
                         < max(a[2] for a in poses.endpoints[part])]
            assert any((labels == k).any() for k in straddles)

    def test_semantic_one_hot(self):
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        traj = synth_trajectory("composite", T=3, seed=0, geom=geom)
        ch = painted(kvf.lift_trajectory(traj, geom, cam))[2]
        s, d = ch[..., 0:3], ch[..., 3]
        assert s.sum(axis=2).max() <= 1
        assert np.array_equal((d > 0), (s.sum(axis=2) == 1))


def capsule_poses(capsules):
    """PartPoses of four capsules given as (a, b, radius), in PART_NAMES
    order."""
    return PartPoses(
        endpoints={part: (np.asarray(a, float), np.asarray(b, float))
                   for part, (a, b, _) in zip(PART_NAMES, capsules)},
        radii={part: float(r) for part, (_, _, r) in zip(PART_NAMES, capsules)})


def toward_pixel(cam, u, v, z):
    """The camera-frame point at depth z whose ray passes pixel (u, v)."""
    return np.array([(u - cam.cx) / cam.fx * z, (v - cam.cy) / cam.fy * z, z])


def corner_capsule(cam, du, dv, right, bottom):
    """A capsule a tenth of a pixel across, projecting du, dv px outside a
    frame corner. With du and dv at least 1.05 the per-capsule screen box
    clips to the corner pixel alone; with du at least 1.05 and dv at most
    1.05 the row spans hold that pixel alone. Neither can be hit."""
    u = cam.width - 1 + du if right else -du
    v = cam.height - 1 + dv if bottom else -dv
    z = 0.2
    size = 0.1 * z / max(cam.fx, cam.fy)
    centre = toward_pixel(cam, u, v, z)
    return centre - [size / 2, 0, 0], centre + [size / 2, 0, 0], size


CAPSULE_KINDS = ("in-view", "border", "straddles-z-near", "behind", "aside",
                 "corner")


def draw_camera(draw, h, w):
    """A camera of h x w px with drawn focal lengths and a principal point
    inside the frame."""
    inside = dict(min_value=0.0, exclude_min=True, exclude_max=True)
    return CameraModel(fx=draw(st.floats(4.0, 120.0)), fy=draw(st.floats(4.0, 120.0)),
                       cx=draw(st.floats(max_value=w, **inside)),
                       cy=draw(st.floats(max_value=h, **inside)), width=w, height=h)


def draw_capsule(draw, cam, kind):
    """One capsule (a, b, radius) of the given CAPSULE_KINDS kind."""
    h, w = cam.height, cam.width
    if kind == "corner":
        return corner_capsule(
            cam, draw(st.floats(0.9, 2.4)), draw(st.floats(0.9, 2.4)),
            draw(st.booleans()), draw(st.booleans()))
    z = draw(st.floats(0.02, 0.4))
    u = draw(st.floats(0.0, w - 1.0))
    v = draw(st.floats(0.0, h - 1.0))
    if kind == "border":
        u = draw(st.sampled_from([0.0, w - 1.0])) + draw(st.floats(-3.0, 3.0))
    elif kind == "aside":
        u = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(3.0, 1e7)) * w
    centre = toward_pixel(cam, u, v, z)
    if kind == "behind":
        centre[2] = -z
    direction = draw(st.sampled_from(tuple(np.eye(3))) | st.builds(
        lambda *x: np.array(x) / max(np.linalg.norm(x), 1e-3),
        *[st.floats(-1.0, 1.0)] * 3))
    half = draw(st.floats(0.0, 0.05)) * direction
    a, b = centre - half, centre + half
    if kind == "straddles-z-near":
        a[2] = draw(st.floats(-0.02, Z_NEAR))
        b[2] = draw(st.floats(Z_NEAR, 0.1, exclude_min=True))
    return a, b, draw(st.just(0.0) | st.floats(0.0005, 0.02))


def draw_frame(draw, cam):
    """Four capsules, each of a drawn kind."""
    return [draw_capsule(draw, cam, draw(st.sampled_from(CAPSULE_KINDS)))
            for _ in PART_NAMES]


@st.composite
def raster_cases(draw):
    """A camera from 1 x 1 to 24 x 24 px (1 x N and N x 1 included) and four
    capsules, each in view, across the frame border, straddling Z_NEAR,
    behind the camera, far off to the side, or at a frame corner."""
    h = draw(st.sampled_from([1, 1, 2, 3, 9, 24]) | st.integers(1, 24))
    w = draw(st.sampled_from([1, 1, 2, 3, 9, 24]) | st.integers(1, 24))
    cam = draw_camera(draw, h, w)
    return cam, capsule_poses(draw_frame(draw, cam))


@st.composite
def raster_batches(draw):
    """A camera of 1 x 1, 1 x W, H x 1 or H x W px (up to 24) and a batch of
    2 to 6 frames of it, in a drawn order: up to four frames as
    `raster_cases` draws them, one whose part 0 straddles Z_NEAR, so its
    spans fall back to the whole frame, and one whose part 0 sits just off
    a frame corner, where its spans hold one pixel."""
    shape = draw(st.sampled_from(["1x1", "1xW", "Hx1", "HxW"]))
    h = 1 if shape[0] == "1" else draw(st.integers(2, 24))
    w = 1 if shape[-1] == "1" else draw(st.integers(2, 24))
    cam = draw_camera(draw, h, w)
    frames = [draw_frame(draw, cam) for _ in range(draw(st.integers(0, 4)))]
    for first in (draw_capsule(draw, cam, "straddles-z-near"),
                  corner_capsule(cam, draw(st.floats(1.2, 1.9)),
                                 draw(st.floats(0.9, 0.95)),
                                 draw(st.booleans()), draw(st.booleans()))):
        frames.append([first] + draw_frame(draw, cam)[1:])
    order = draw(st.permutations(range(len(frames))))
    return cam, [capsule_poses(frames[i]) for i in order]


def assert_matches_frozen_raster(cam, poses):
    labels, depth = rasterize(poses, cam)
    with np.errstate(all="ignore"):  # it warns on a zero-length capsule
        want_labels, want_depth = frozen_raster.rasterize_parts(poses, cam)
    assert labels.dtype == want_labels.dtype and depth.dtype == want_depth.dtype
    assert labels.tobytes() == want_labels.tobytes()
    assert depth.tobytes() == want_depth.tobytes()


class TestOnePassRaster:
    """`rasterize_parts` against the per-capsule rasterizer it replaced
    (`frozen_raster`), bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(raster_cases())
    def test_matches_frozen_per_capsule_raster(self, case):
        assert_matches_frozen_raster(*case)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(raster_batches())
    def test_batch_matches_frozen_raster_frame_by_frame(self, batch):
        # one lift of the whole batch, one rasterize_parts call
        cam, frames = batch
        shape = (len(frames), cam.height, cam.width)
        labels, depth = np.empty(shape, dtype=np.intp), np.empty(shape)
        motion = np.zeros((len(frames), len(PART_NAMES), 4))
        tables = kvf.lift(frames, cam, motion, (labels, depth))
        # the batch holds a capsule that spans the whole frame and one that
        # tests a single ray
        ends, radii = (np.concatenate(x)
                       for x in zip(*(part_arrays(p) for p in frames)))
        j0, j1 = kvf._row_spans(ends, radii, cam)
        assert ((j0 == 0) & (j1 == cam.width)).all(axis=1).any()
        assert ((j1 - j0).sum(axis=1) == 1).any()
        for t, poses in enumerate(frames):
            with np.errstate(all="ignore"):  # it warns on a zero-length capsule
                want_labels, want_depth = frozen_raster.rasterize_parts(poses, cam)
            assert labels[t].tobytes() == want_labels.tobytes()
            assert depth[t].tobytes() == want_depth.tobytes()
            assert (tables[t, :-1, 4].tobytes()
                    == kvf.rotation_channel(poses, cam).tobytes())

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 37), (37, 1), (24, 40)])
    @pytest.mark.parametrize("seed", range(3))
    def test_tool_poses_match_frozen_raster(self, h, w, seed):
        rng = np.random.default_rng(seed)
        cam = CameraModel(fx=60.0, fy=50.0, cx=w * rng.uniform(0.2, 0.8),
                          cy=h * rng.uniform(0.2, 0.8), width=w, height=h)
        poses = forward_kinematics(random_visible_state(rng), ToolGeometry())
        assert_matches_frozen_raster(cam, poses)

    @pytest.mark.parametrize("right", [False, True])
    @pytest.mark.parametrize("bottom", [False, True])
    def test_corner_capsule_tests_one_ray(self, right, bottom):
        cam = CULL_CAMERA
        far = (np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.01, -1.0]), 0.001)
        poses = capsule_poses([corner_capsule(cam, 1.6, 0.95, right, bottom)]
                              + [far] * 3)
        j0, j1 = kvf._row_spans(*part_arrays(poses), cam)
        assert (j1 - j0)[0].sum() == 1  # a one-row product
        a, b = poses.endpoints[PART_NAMES[0]]
        rows, cols = frozen_raster.screen_box(a, b, poses.radii[PART_NAMES[0]], cam)
        assert (rows.stop - rows.start, cols.stop - cols.start) == (2, 1)
        assert_matches_frozen_raster(cam, poses)
        assert (rasterize(poses, cam)[0] == -1).all()

    def test_spans_fall_back_to_the_whole_frame(self):
        # a part straddling Z_NEAR, and one whose box projects farther than
        # SPAN_REACH px; the other two are ordinary
        cam = CULL_CAMERA
        z = 2 * Z_NEAR
        tip = toward_pixel(cam, 35, 22, 0.05)
        poses = capsule_poses([
            (tip - [0.0, 0.0, 0.06], tip, 0.0002),
            ([kvf.SPAN_REACH * z / cam.fx, 0.0, z], [kvf.SPAN_REACH * z / cam.fx, 0.0, 0.3], 1e-5),
            (toward_pixel(cam, 5, 5, 0.1), toward_pixel(cam, 30, 12, 0.12), 0.004),
            (toward_pixel(cam, 38, 0, 0.1), toward_pixel(cam, 45, 20, 0.1), 0.002)])
        j0, j1 = kvf._row_spans(*part_arrays(poses), cam)
        assert (j0[:2] == 0).all() and (j1[:2] == cam.width).all()
        assert ((j1 - j0)[2:] < cam.width).any()
        labels, _ = rasterize(poses, cam)
        assert {0, 2, 3} <= set(np.unique(labels))
        assert_matches_frozen_raster(cam, poses)

    def test_flat_box_spans_its_rows(self):
        # a zero-radius capsule along x: its box is a segment whose edges all
        # project to one row, and its rays can still graze it
        cam = CULL_CAMERA
        a, b = toward_pixel(cam, 4.5, 5, 0.1), toward_pixel(cam, 20.5, 5, 0.1)
        far = (np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.01, -1.0]), 0.001)
        poses = capsule_poses([(a, b, 0.0)] + [far] * 3)
        j0, j1 = kvf._row_spans(*part_arrays(poses), cam)
        row = round(cam.fy * a[1] / a[2] + cam.cy)
        assert (j0[0, row - 1:row + 2] <= 4).all() and (j1[0, row - 1:row + 2] >= 22).all()
        assert_matches_frozen_raster(cam, poses)

    def test_spans_test_fewer_rays_than_screen_boxes(self):
        # the cull's point: at 64 x 64 the spans hold fewer rays than the
        # axis-aligned boxes, and every frame still matches
        geom = ToolGeometry()
        cam = default_camera(64, 64)
        traj = synth_trajectory("composite", T=5, seed=1, geom=geom)
        spans = boxes = 0
        for state in traj.states:
            poses = forward_kinematics(state, geom)
            j0, j1 = kvf._row_spans(*part_arrays(poses), cam)
            spans += (j1 - j0).sum()
            for part in PART_NAMES:
                rows, cols = frozen_raster.screen_box(
                    *poses.endpoints[part], poses.radii[part], cam)
                boxes += (rows.stop - rows.start) * (cols.stop - cols.start)
            assert_matches_frozen_raster(cam, poses)
        assert spans < 0.8 * boxes


@pytest.mark.parametrize("seed", range(4))
def test_blas_rows_do_not_depend_on_row_count_or_offset(seed):
    """The property `kva_field._ray_test` relies on to run each capsule's
    matrix-vector products on its own rows: each row of an (n, 3) @ (3,)
    product with n >= 2 has the same bits as in any longer product. A batch
    of frames holds up to 4 * max(RASTER_BATCH_PX, H * W) rays, when each of
    its capsules spans the whole frame, and a capsule's rows may start
    anywhere among them. So n runs up to that count at 256 x 256, and short
    slices start deep inside long products."""
    rng = np.random.default_rng(seed)
    most = 4 * max(kvf.RASTER_BATCH_PX, 256 * 256)

    def log_uniform(lo, hi):
        return int(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    for _ in range(200):
        n = log_uniform(2, most)
        D = np.ones((n, 3))
        D[:, :2] = rng.normal(0.0, 1.0, (n, 2)) * 10.0 ** rng.integers(-3, 3)
        vec = rng.normal(0.0, 1.0, 3) * 10.0 ** rng.integers(-3, 3, 3)
        start = int(rng.integers(0, n - 1))
        stop = start + log_uniform(2, n - start)
        assert (D[start:stop] @ vec).tobytes() == (D @ vec)[start:stop].tobytes()



@pytest.mark.parametrize("c", [1, 2, 3, 4, 16, 33])
def test_blas_token_product_rows_do_not_depend_on_other_rows(c):
    """The property the grad check's evaluators in `priors` rely on to
    multiply only the distinct token rows (`priors._row_product`):
    - any subset of at least two rows of an (n, C) @ (C, 5) product, a lone
      row repeated included, has the bits of those rows in the full product;
    - a (T, H', W', C) @ (C, 5) product with W' >= 2 has the bits of the
      (T * H' * W', C) product's rows;
    - an (m, 1, C) @ (C, 5) product has the bits of a (T, H', 1, C)
      product's rows, which numpy multiplies one row at a time.
    If a BLAS breaks this, the evaluators go back to dense products of
    every token, not to a second path."""
    rng = np.random.default_rng(c)
    for _ in range(100):
        scale = 10.0 ** rng.integers(-3, 3)
        w = rng.normal(0.0, 1.0, (c, 5)) * 10.0 ** rng.integers(-3, 3)
        n = int(rng.integers(2, 300))
        x = rng.normal(0.0, 1.0, (n, c)) * scale
        full = x @ w
        subset = np.sort(rng.choice(n, int(rng.integers(2, n + 1)),
                                    replace=False))
        assert (x[subset] @ w).tobytes() == full[subset].tobytes()
        lone = int(rng.integers(0, n))
        assert (x[[lone, lone]] @ w)[0].tobytes() == full[lone].tobytes()
        t, h, wp = (int(k) for k in rng.integers(1, 5, 3))
        grid = rng.normal(0.0, 1.0, (t, h, wp + 1, c)) * scale
        rows = grid.reshape(-1, c)
        assert (grid @ w).tobytes() == (rows @ w).tobytes()
        column = grid[:, :, :1].copy()  # W' = 1
        assert ((column.reshape(-1, 1, c) @ w).tobytes()
                == (column @ w).tobytes())

class TestRotationChannel:
    def _poses_with_axis(self, direction):
        from kvacontrol.kinematics import PartPoses
        far = (np.array([9, 9, 9.0]), np.array([9.1, 9, 9.0]))
        mid = np.array([0, 0, 1.0])
        direction = np.asarray(direction, dtype=float)
        return PartPoses(
            endpoints={"shaft": (mid - 0.1 * direction, mid + 0.1 * direction),
                       "wrist": far, "left_gripper": far, "right_gripper": far},
            radii={"shaft": 0.03, "wrist": 0.001,
                   "left_gripper": 0.001, "right_gripper": 0.001},
        )

    def test_axis_along_x_is_zero(self):
        cam = CameraModel(fx=50, fy=50, cx=8, cy=8, width=16, height=16)
        poses = self._poses_with_axis([1, 0, 0])
        labels, _ = rasterize(poses, cam)
        rho = kvf.rotation_channel(poses, cam)[labels]
        mask = labels >= 0
        assert mask.any()
        assert np.max(np.abs(rho[mask])) < 1e-12

    def test_axis_along_y_is_half(self):
        cam = CameraModel(fx=50, fy=50, cx=8, cy=8, width=16, height=16)
        poses = self._poses_with_axis([0, 1, 0])
        labels, _ = rasterize(poses, cam)
        rho = kvf.rotation_channel(poses, cam)[labels]
        mask = labels >= 0
        assert np.max(np.abs(rho[mask] - 0.5)) < 1e-12

    def test_matches_atan2_oracle(self):
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        rng = np.random.default_rng(7)
        poses = forward_kinematics(random_visible_state(rng), geom)
        labels, _ = rasterize(poses, cam)
        rho = kvf.rotation_channel(poses, cam)[labels]
        for pi, part in enumerate(PART_NAMES):
            mask = labels == pi
            if not mask.any():
                continue
            a, b = poses.endpoints[part]
            m = 0.5 * (a + b)
            w = b - a
            du = cam.fx * (w[0] * m[2] - m[0] * w[2]) / m[2] ** 2
            dv = cam.fy * (w[1] * m[2] - m[1] * w[2]) / m[2] ** 2
            expected = np.arctan2(dv, du) / np.pi
            assert np.max(np.abs(rho[mask] - expected)) < 1e-9


class TestMotionChannels:
    def test_static_trajectory_zero(self):
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        traj = synth_trajectory("static", T=4, seed=0, geom=geom)
        for t in range(4):
            v, a = motion_at(traj, geom, cam, t)
            assert np.all(v == 0) and np.all(a == 0)

    def test_constant_velocity_zero_acceleration(self):
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        # constant camera-frame velocity: projected centroid displacement is
        # not constant in general, but alpha from an exactly linear pixel
        # track is zero; build one by moving parallel to the image plane at
        # fixed depth and checking against the centroid-track oracle
        base = DEFAULT_BASE_STATE
        states = [dataclasses.replace(base, p=base.p + np.array([0.004, 0, 0]) * t)
                  for t in range(4)]
        traj = Trajectory(states=tuple(states), dt=1.0)
        t = 3
        v, a = motion_at(traj, geom, cam, t)
        labels, _ = rasterize(forward_kinematics(traj.states[t], geom), cam)
        for pi, part in enumerate(PART_NAMES):
            mask = labels == pi
            if not mask.any():
                continue
            phi = [midpoint_uvz(traj.states[ti], geom, cam, part)
                   for ti in (t - 2, t - 1, t)]
            v_now = (phi[2] - phi[1]) / traj.dt
            v_prev = (phi[1] - phi[0]) / traj.dt
            np.testing.assert_allclose(v[mask],
                                       np.broadcast_to(v_now, v[mask].shape),
                                       atol=1e-12)
            np.testing.assert_allclose(a[mask], np.linalg.norm(v_now - v_prev),
                                       atol=1e-12)

    def test_quadratic_track_finite_difference(self):
        # quadratic centroid track u(t) = t^2 px at the wrist centroid depth:
        # |dv| = 2 px/frame^2 on wrist pixels
        geom = ToolGeometry()
        cam = default_camera(64, 64)
        z = 0.11
        cap = geom.capsules["wrist"]
        z_wrist = z + 0.5 * (cap.a[2] + cap.b[2])
        px = z_wrist / cam.fx  # meters per pixel at the wrist centroid depth
        states = [ArticulatedState(p=np.array([t * t * px, 0, z]),
                                   r=np.zeros(3), q_sw=0, q_lg=0.2, q_rg=0.2)
                  for t in range(4)]
        traj = Trajectory(states=tuple(states), dt=1.0)
        t = 3
        v, a = motion_at(traj, geom, cam, t)
        labels, _ = rasterize(forward_kinematics(states[t], geom), cam)
        mask = labels == PART_NAMES.index("wrist")
        assert mask.any()
        np.testing.assert_allclose(a[mask], 2.0, atol=1e-9)

    def test_behind_camera_midpoint_zero_velocity(self):
        # the wrist midpoint crosses Z_NEAR at frame 2: v = 0 there and at
        # frame 3, and alpha differences against those zero rows
        geom = ToolGeometry()
        cam = CameraModel(fx=20.0, fy=20.0, cx=32.0, cy=32.0, width=64, height=64)
        dt = 0.5
        states = [ArticulatedState(p=np.array([0.004 + 0.001 * t, 0.001, z]),
                                   r=np.zeros(3), q_sw=0.2, q_lg=0.2, q_rg=0.2)
                  for t, z in enumerate((0.05, 0.03, 0.008, 0.03, 0.05))]
        traj = Trajectory(states=tuple(states), dt=dt)
        with pytest.raises(BehindCamera):
            midpoint_uvz(states[2], geom, cam, "wrist")
        uvz = {t: midpoint_uvz(states[t], geom, cam, "wrist") for t in (0, 1, 3, 4)}
        zero = np.zeros(3)
        v_exp = [zero, (uvz[1] - uvz[0]) / dt, zero, zero, (uvz[4] - uvz[3]) / dt]
        a_exp = [0.0, 0.0] + [np.linalg.norm(v_exp[t] - v_exp[t - 1]) / dt
                              for t in (2, 3, 4)]
        assert a_exp[2] > 0 and a_exp[3] == 0 and a_exp[4] > 0
        for t, ch in enumerate(painted(kvf.lift_trajectory(traj, geom, cam))):
            wrist = ch[..., 1] == 1
            assert wrist.any()
            np.testing.assert_allclose(ch[wrist][:, 5:8],
                                       np.broadcast_to(v_exp[t], (wrist.sum(), 3)),
                                       atol=1e-12)
            np.testing.assert_allclose(ch[wrist][:, 8], a_exp[t], atol=1e-12)

    def test_first_frames_padded_with_zeros(self):
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        traj = synth_trajectory("composite", T=3, seed=1, geom=geom)
        v0, a0 = motion_at(traj, geom, cam, 0)
        assert np.all(v0 == 0) and np.all(a0 == 0)
        v1, a1 = motion_at(traj, geom, cam, 1)
        assert np.all(a1 == 0) and np.any(v1 != 0)


class TestLift:
    def test_shape_contract(self):
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        traj = synth_trajectory("composite", T=2, seed=0, geom=geom)
        lifted = kvf.lift_trajectory(traj, geom, cam)
        assert len(lifted) == 2
        assert lifted.labels.shape == lifted.depth.shape == (2, 32, 32)
        assert lifted.labels.dtype == np.intp
        assert lifted.depth.dtype == np.float64
        assert lifted.tables.shape == (2, len(PART_NAMES) + 1, 9)
        assert lifted.field(1).planes.shape == (9, 32, 32)

    def test_static_single_frame(self):
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        traj = synth_trajectory("static", T=1, seed=0, geom=geom)
        ch = painted(kvf.lift_trajectory(traj, geom, cam))[0]
        assert np.all(ch[..., 5:] == 0)
        assert ch[..., 0:3].sum() > 0
        assert ch[..., 3].max() > 0

    @pytest.mark.parametrize("case", ["seed-0", "seed-1", "seed-2", "seed-3",
                                      "near-camera"])
    def test_background_is_positive_zero(self, case):
        # routing pools the background as a zero block (cli._pooled_grids)
        # and KVAF stores it: every channel of a pixel off the tool must be
        # +0.0, not -0.0
        geom = ToolGeometry()
        if case == "near-camera":
            # the shaft reaches past Z_NEAR and the tool crosses the border
            cam = CameraModel(fx=20.0, fy=20.0, cx=20.0, cy=12.0, width=40,
                              height=24)
            states = [dataclasses.replace(DEFAULT_BASE_STATE,
                                          p=np.array([0.004 * t, 0.002, 0.03]))
                      for t in range(3)]
            traj = Trajectory(states=tuple(states), dt=0.5)
        else:
            cam = default_camera(40, 24)
            traj = synth_trajectory("composite", T=4, seed=int(case[-1]),
                                    geom=geom)
        lifted = kvf.lift_trajectory(traj, geom, cam)
        assert (lifted.tables[:, -1].tobytes()
                == np.zeros((len(lifted), 9)).tobytes())
        for t, f in enumerate(painted(lifted)):
            tool = lifted.labels[t] >= 0
            assert tool.any() and not tool.all()
            if case == "near-camera":
                assert (tool[0].any() or tool[-1].any() or tool[:, 0].any()
                        or tool[:, -1].any())
            off = int((~tool).sum())
            assert lifted.depth[t][~tool].tobytes() == np.zeros(off).tobytes()
            assert f[~tool].tobytes() == np.zeros((off, 9)).tobytes()
            planes = lifted.field(t).planes
            assert (planes[:, ~tool].tobytes()
                    == np.zeros((9, off), dtype=np.float32).tobytes())

    def test_forward_kinematics_once_per_frame(self, monkeypatch):
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        traj = synth_trajectory("composite", T=7, seed=0, geom=geom)
        calls = []

        def counted(state, geom):
            calls.append(state)
            return forward_kinematics(state, geom)

        monkeypatch.setattr(kvf, "forward_kinematics", counted)
        kvf.lift_trajectory(traj, geom, cam)
        assert len(calls) == len(traj.states)

    @pytest.mark.parametrize("size, frames", [(256, 4), (128, 10), (64, 10)])
    def test_frames_rasterized_in_pixel_budgeted_batches(self, monkeypatch,
                                                         size, frames):
        # consecutive batches of RASTER_BATCH_PX // (H * W) frames, at least
        # one: a 256 x 256 frame is a batch of its own (two such frames in
        # one ray-test pass were measured 21% slower than two passes), and
        # 64 x 64 frames share their passes
        geom = ToolGeometry()
        traj = synth_trajectory("composite", T=frames, seed=1, geom=geom)
        batch = max(1, kvf.RASTER_BATCH_PX // (size * size))
        batches = []
        rasterize_parts = kvf.rasterize_parts

        def counted(poses, cam, out):
            batches.append(len(out[0]))
            return rasterize_parts(poses, cam, out)

        monkeypatch.setattr(kvf, "rasterize_parts", counted)
        kvf.lift_trajectory(traj, geom, default_camera(size, size))
        assert len(batches) == -(-frames // batch)
        assert batches == [batch] * (frames // batch) + [frames % batch] * (frames % batch > 0)
        if size == 256:
            assert batches == [1] * frames
        if size == 64:
            assert len(batches) < frames

    @pytest.mark.parametrize("size", [(40, 24), (64, 64)])
    def test_batch_size_does_not_change_the_lift(self, monkeypatch, size):
        # one frame per rasterize_parts call, and all of them in one
        geom = ToolGeometry()
        cam = default_camera(*size)
        traj = synth_trajectory("composite", T=10, seed=3, geom=geom)
        lifts = []
        for budget in (1, len(traj.states) * cam.width * cam.height):
            monkeypatch.setattr(kvf, "RASTER_BATCH_PX", budget)
            lifts.append(kvf.lift_trajectory(traj, geom, cam))
        one, whole = lifts
        for name in ("labels", "depth", "tables"):
            assert getattr(one, name).tobytes() == getattr(whole, name).tobytes()

    def test_composition_matches_components(self):
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        traj = synth_trajectory("composite", T=10, seed=5, geom=geom)
        lifted = kvf.lift_trajectory(traj, geom, cam)
        fields = painted(lifted)
        all_poses = [forward_kinematics(state, geom) for state in traj.states]
        motion = kvf.motion_channels(all_poses, cam, traj.dt)
        for t in (0, 4, 9):
            ch = fields[t]
            poses = all_poses[t]
            labels, d = rasterize(poses, cam)
            rho = kvf.rotation_channel(poses, cam)
            want = np.zeros(labels.shape + (9,))
            for k, part in enumerate(PART_NAMES):
                on = labels == k
                want[on, PART_SEMANTIC_CLASS[part]] = 1.0
                want[on, 4] = rho[k]
                want[on, 5:9] = motion[t, k]
            want[..., 3] = d
            np.testing.assert_array_equal(lifted.labels[t], labels)
            np.testing.assert_array_equal(ch, want)


class TestNormalization:
    def _lifted(self):
        geom = ToolGeometry()
        cam = default_camera(32, 32)
        traj = synth_trajectory("composite", T=6, seed=2, geom=geom)
        return kvf.lift_trajectory(traj, geom, cam)

    def _corpus(self):
        return painted(self._lifted())

    def test_identity_stats(self):
        f = self._corpus()[0]
        stats = kvf.ChannelStats(mean=np.zeros(6), std=np.ones(6))
        np.testing.assert_array_equal(kvf.normalize(f, stats), f)

    def test_centering_constant_channel(self):
        f = self._corpus()[0]
        ch = f.copy()
        ch[..., 3] = 5.0
        stats = kvf.ChannelStats(mean=np.array([5, 0, 0, 0, 0, 0.0]),
                                 std=np.ones(6))
        assert np.all(kvf.normalize(ch, stats)[..., 3] == 0)

    def test_recomputed_stats_standardized(self):
        lifted = self._lifted()
        stats = kvf.compute_stats(lifted)
        rows = kvf.normalize(painted(lifted), stats)[..., 3:].reshape(-1, 6)
        assert np.max(np.abs(rows.mean(axis=0))) < 1e-9
        assert np.max(np.abs(rows.std(axis=0) - 1)) < 1e-9

    def test_semantic_channels_untouched(self):
        lifted = self._lifted()
        stats = kvf.compute_stats(lifted)
        f = painted(lifted)[1]
        np.testing.assert_array_equal(kvf.normalize(f, stats)[..., :3],
                                      f[..., :3])

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            kvf.compute_stats(kvf.LiftedTrajectory(
                np.empty((0, 4, 4), dtype=np.intp), np.empty((0, 4, 4)),
                np.empty((0, len(PART_NAMES) + 1, kvf.N_CHANNELS))))

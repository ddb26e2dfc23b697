import dataclasses

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from kvacontrol.errors import InvalidParams, JointLimitViolation, NonFiniteInput
from kvacontrol.kinematics import (
    DEFAULT_BASE_STATE,
    PART_NAMES,
    SYNTH_DT,
    SYNTH_VELOCITY,
    ArticulatedState,
    CameraModel,
    Capsule,
    ToolGeometry,
    Trajectory,
    axis_angle_to_matrix,
    default_camera,
    forward_kinematics,
    project,
    synth_trajectory,
)


def homogeneous(R, t):
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = t
    return T


def oracle_poses(state, geom):
    """Independent pose computation: explicit 4x4 products, scipy rotations."""
    T_wrist = homogeneous(Rotation.from_rotvec(state.r).as_matrix(), state.p)
    ax_sw = geom.hinge_sw_axis / np.linalg.norm(geom.hinge_sw_axis)
    ax_g = geom.hinge_grip_axis / np.linalg.norm(geom.hinge_grip_axis)
    hinges = {
        "wrist": np.eye(4),
        "shaft": homogeneous(Rotation.from_rotvec(-state.q_sw * ax_sw).as_matrix(), np.zeros(3)),
        "left_gripper": homogeneous(Rotation.from_rotvec(state.q_lg * ax_g).as_matrix(), np.zeros(3)),
        "right_gripper": homogeneous(Rotation.from_rotvec(-state.q_rg * ax_g).as_matrix(), np.zeros(3)),
    }
    return {part: T_wrist @ hinges[part] for part in PART_NAMES}


def random_geometry(rng):
    """Default hinges and limits, each part a capsule between two random
    points, so that its ends move with every axis of its pose."""
    return ToolGeometry(capsules={
        part: Capsule(rng.normal(0, 0.05, 3), rng.normal(0, 0.05, 3), 0.002)
        for part in PART_NAMES})


def assert_endpoints_match_oracle(state, rng):
    """Under two random geometries, each part's capsule ends are placed by
    its oracle pose: four points in general position, which fix the pose."""
    for geom in (random_geometry(rng), random_geometry(rng)):
        poses = forward_kinematics(state, geom)
        expected = oracle_poses(state, geom)
        for k, part in enumerate(PART_NAMES):
            cap = geom.capsules[part]
            for end, local in zip(poses.endpoints[k], (cap.a, cap.b)):
                want = (expected[part] @ np.append(local, 1.0))[:3]
                assert np.max(np.abs(end - want)) < 1e-12


def random_state(rng):
    return ArticulatedState(
        p=rng.normal(0, 0.1, 3),
        r=rng.uniform(-np.pi, np.pi, 3) * rng.uniform(0, 1),
        q_sw=rng.uniform(-np.pi, np.pi),
        q_lg=rng.uniform(0, np.pi / 2),
        q_rg=rng.uniform(0, np.pi / 2),
    )


class TestForwardKinematics:
    def test_identity_rest_configuration(self):
        geom = ToolGeometry()
        state = ArticulatedState(p=np.zeros(3), r=np.zeros(3), q_sw=0, q_lg=0, q_rg=0)
        poses = forward_kinematics(state, geom)
        assert poses.endpoints.shape == (len(PART_NAMES), 2, 3)
        for k, part in enumerate(PART_NAMES):
            cap = geom.capsules[part]
            np.testing.assert_allclose(poses.endpoints[k, 0], cap.a, atol=1e-15)
            np.testing.assert_allclose(poses.endpoints[k, 1], cap.b, atol=1e-15)
            assert poses.radii[k] == cap.radius

    def test_gripper_hinge_quarter_turn(self):
        # q_lg = pi/2 about the z hinge maps the gripper's local x-axis
        # segment onto camera y
        geom = ToolGeometry()
        state = ArticulatedState(p=np.zeros(3), r=np.zeros(3), q_sw=0,
                                 q_lg=np.pi / 2, q_rg=0)
        a, b = forward_kinematics(state, geom).endpoints[
            PART_NAMES.index("left_gripper")]
        np.testing.assert_allclose(a, [0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(b, [0, 0.015, 0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_homogeneous_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        assert_endpoints_match_oracle(random_state(rng), rng)

    def test_zero_hinge_is_identity_on_child(self):
        rng = np.random.default_rng(3)
        geom = random_geometry(rng)
        state = ArticulatedState(p=rng.normal(size=3), r=rng.normal(size=3) * 0.5,
                                 q_sw=0.0, q_lg=0.0, q_rg=0.0)
        poses = forward_kinematics(state, geom)
        R_w = axis_angle_to_matrix(state.r)
        for k, part in enumerate(PART_NAMES):
            cap = geom.capsules[part]
            for end, local in zip(poses.endpoints[k], (cap.a, cap.b)):
                np.testing.assert_allclose(end, R_w @ local + state.p,
                                           atol=1e-15)

    def test_joint_limit_violation(self):
        geom = ToolGeometry()
        state = ArticulatedState(p=np.zeros(3), r=np.zeros(3), q_sw=0,
                                 q_lg=2.0, q_rg=0)
        with pytest.raises(JointLimitViolation):
            forward_kinematics(state, geom)

    def test_non_finite_input(self):
        geom = ToolGeometry()
        state = ArticulatedState(p=np.array([np.nan, 0, 0]), r=np.zeros(3),
                                 q_sw=0, q_lg=0, q_rg=0)
        with pytest.raises(NonFiniteInput):
            forward_kinematics(state, geom)

    def test_errors_name_the_first_bad_frame(self):
        # frames 2 and 3 are bad; the error names frame 2, and the angle's
        # overflow is reported without a warning
        geom = ToolGeometry()
        good = ArticulatedState(p=np.zeros(3), r=np.zeros(3), q_sw=0,
                                q_lg=0, q_rg=0)
        for bad, error, message in (
                (dict(q_rg=2.0), JointLimitViolation,
                 "frame 2: q_rg=2.0 outside [0.0, 1.5707963267948966]"),
                (dict(r=np.array([1e300, 1e300, 0.0])), NonFiniteInput,
                 "frame 2: the wrist rotation's angle |r| overflows"),
                (dict(r=np.array([1e155, 0.0, 0.0])), NonFiniteInput,
                 "frame 2: the wrist rotation's angle |r| overflows"),
                (dict(q_sw=np.inf), NonFiniteInput,
                 "frame 2: articulated state contains non-finite values")):
            states = [good, dataclasses.replace(good, **bad),
                      dataclasses.replace(good, q_lg=-1.0)]
            with pytest.raises(error) as exc:
                forward_kinematics(states, geom)
            assert str(exc.value) == message

    def test_batch_shapes(self):
        geom = ToolGeometry()
        traj = synth_trajectory("composite", T=5, seed=0, geom=geom)
        poses = forward_kinematics(traj.states, geom)
        assert poses.endpoints.shape == (len(PART_NAMES), 5, 2, 3)
        assert poses.radii.shape == (len(PART_NAMES), 5)
        one = forward_kinematics(traj.states[3], geom)
        assert one.endpoints.shape == (len(PART_NAMES), 2, 3)
        assert one.radii.shape == (len(PART_NAMES),)


class TestProjection:
    def test_optical_axis(self):
        cam = CameraModel(fx=100, fy=100, cx=128, cy=128, width=256, height=256)
        u, v = project(cam, np.array([0.0, 0.0, 2.0]))
        assert (u, v) == (128, 128)

    def test_similar_triangles(self):
        cam = CameraModel(fx=100, fy=100, cx=1e-9 + 0.5, cy=128, width=256, height=256)
        u, _ = project(cam, np.array([1.0, 0.0, 1.0]))
        assert abs(u - (100 + cam.cx)) < 1e-12

    def test_matches_scalar_oracle(self):
        # an array of points gets each point's scalar bits
        cam = default_camera(128, 96)
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 1, (1000, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.1
        us, vs = project(cam, pts.reshape(10, 100, 3))
        for x, u, v in zip(pts, us.ravel(), vs.ravel()):
            assert u == cam.fx * x[0] / x[2] + cam.cx
            assert v == cam.fy * x[1] / x[2] + cam.cy


class TestCameraModel:
    @pytest.mark.parametrize("field,value", [
        ("fx", np.nan), ("fy", np.inf), ("cx", np.nan),
    ], ids=["fx-nan", "fy-inf", "cx-nan"])
    def test_camera_rejects_non_finite(self, field, value):
        kwargs = dict(fx=50.0, fy=50.0, cx=32.0, cy=32.0, width=64, height=64)
        kwargs[field] = value
        with pytest.raises(InvalidParams, match="finite"):
            CameraModel(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("width", 64.5), ("height", 64.0), ("width", 0), ("height", -8),
        ("height", "64"),
    ], ids=["width-fraction", "height-float", "width-0", "height-negative",
            "height-str"])
    def test_camera_rejects_non_integer_size(self, field, value):
        kwargs = dict(fx=50.0, fy=50.0, cx=0.5, cy=0.5, width=64, height=64)
        kwargs[field] = value
        with pytest.raises(InvalidParams, match=f"{field} must be an integer >= 1"):
            CameraModel(**kwargs)

    # the largest |j - cx| is 32: 32 / 3.2e-307 is 1e308, 32 / 1.6e-307
    # overflows (`test_io.BAD_TRAJECTORY_VALUES` has the subnormal rows)
    @pytest.mark.parametrize("field,value,accepted", [
        ("fx", 3.2e-307, True), ("fx", 1.6e-307, False),
        ("fy", 3.2e-307, True), ("fy", 1.6e-307, False),
    ])
    def test_camera_rejects_overflowing_ray_directions(self, field, value,
                                                       accepted):
        kwargs = dict(fx=50.0, fy=50.0, cx=32.0, cy=32.0, width=64, height=64)
        kwargs[field] = value
        if not accepted:
            with pytest.raises(InvalidParams, match="directions overflow"):
                CameraModel(**kwargs)
            return
        cam = CameraModel(**kwargs)
        # the directions the rasterizer forms, with overflow as an error
        with np.errstate(over="raise"):
            assert np.isfinite((np.arange(64.0) - cam.cx) / cam.fx).all()
            assert np.isfinite((np.arange(64.0) - cam.cy) / cam.fy).all()

    def test_camera_accepts_numpy_integer_size(self):
        cam = CameraModel(fx=50.0, fy=50.0, cx=16.0, cy=12.0,
                          width=np.int64(32), height=np.int32(24))
        assert (cam.width, cam.height) == (32, 24)


class TestTrajectory:
    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_dt_outside_finite_positive(self, dt):
        with pytest.raises(InvalidParams, match="dt must be finite and > 0"):
            Trajectory(states=(DEFAULT_BASE_STATE,), dt=dt)


class TestSynthTrajectory:
    def test_static_repeats_state(self):
        traj = synth_trajectory("static", T=5, seed=0)
        for s in traj.states[1:]:
            np.testing.assert_array_equal(s.as_vector(), traj.states[0].as_vector())

    def test_linear_transport_increments(self):
        traj = synth_trajectory("linear-transport", T=6, seed=0)
        assert traj.dt == SYNTH_DT
        p0 = traj.states[0].p
        for t, s in enumerate(traj.states):
            np.testing.assert_allclose(s.p, p0 + SYNTH_VELOCITY * SYNTH_DT * t,
                                       rtol=0, atol=1e-15)

    def test_same_seed_identical(self):
        a = synth_trajectory("composite", T=8, seed=42)
        b = synth_trajectory("composite", T=8, seed=42)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa.as_vector(), sb.as_vector())

    def test_joint_limits_clamped(self):
        geom = ToolGeometry()
        lo, hi = geom.limits.q_lg
        # the gripper cycle opens by up to 0.5 rad past a base 0.1 below the limit
        base = dataclasses.replace(DEFAULT_BASE_STATE, q_lg=hi - 0.1, q_rg=hi - 0.1)
        traj = synth_trajectory("gripper-cycle", params={"base": base},
                                T=20, seed=0, geom=geom)
        for s in traj.states:
            assert lo <= s.q_lg <= hi
        assert max(s.q_lg for s in traj.states) == hi

    @pytest.mark.parametrize("params", [{"bsae": DEFAULT_BASE_STATE},
                                        {"base": DEFAULT_BASE_STATE, "period": 6}])
    def test_unknown_params_key_rejected(self, params):
        with pytest.raises(InvalidParams, match="'bsae'|'period'"):
            synth_trajectory("composite", params=params, T=3, seed=0)

    def test_invalid_kind(self):
        with pytest.raises(InvalidParams):
            synth_trajectory("spiral", T=3, seed=0)

    def test_t_must_be_positive(self):
        with pytest.raises(InvalidParams):
            synth_trajectory("static", T=0, seed=0)

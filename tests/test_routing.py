import numpy as np
import pytest

from kvacontrol import kva_field as kvf
from kvacontrol import priors as pr
from kvacontrol import routing as rt
from kvacontrol.kinematics import ToolGeometry, default_camera, synth_trajectory

from test_field import painted

STRIDE = 4  # the pooling stride of the full frames routed here


def make_field(seed=0, hw=32):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(hw, hw, 9))


def lifted_field(seed=0, hw=32):
    """The last frame of a lifted composite trajectory, normalized and pooled
    at STRIDE: the grid the CLI routes."""
    geom = ToolGeometry()
    cam = default_camera(hw, hw)
    traj = synth_trajectory("composite", T=4, seed=seed, geom=geom)
    lifted = kvf.lift_trajectory(traj, geom, cam)
    stats = kvf.compute_stats(lifted)
    return rt.avg_pool(kvf.normalize(painted(lifted)[-1], stats), STRIDE)


def route_tokens(field, params):
    """route_forward's pooled gate feature c_action, (1, C), and its action
    tokens for a full (H, W, 9) frame, pooled at STRIDE."""
    _, dec = rt.route_forward(rt.avg_pool(field, STRIDE), params, 1.0,
                              rt.timestep_embed(0.5))
    return dec.c_action, dec.tokens


class TestActionEmbed:
    def test_zero_field_zero_tokens(self):
        params = rt.init_gate_params(0)
        params.lift_b[:] = 0
        f = np.zeros((32, 32, 9))
        c_action, tokens = route_tokens(f, params)
        assert np.all(tokens == 0) and np.all(c_action == 0)

    def test_constant_field_equal_tokens(self):
        params = rt.init_gate_params(1)
        f = np.ones((32, 32, 9)) * 0.7
        c_action, tokens = route_tokens(f, params)
        np.testing.assert_allclose(tokens,
                                   np.broadcast_to(tokens[0, 0], tokens.shape),
                                   atol=1e-15)
        np.testing.assert_allclose(c_action[0], tokens[0, 0], atol=1e-15)

    def test_pooling_matches_summation_oracle(self):
        params = rt.init_gate_params(2)
        f = make_field(3)
        _, tokens = route_tokens(f, params)
        stride = STRIDE
        for (ti, tj) in [(0, 0), (3, 5), (7, 7)]:
            block = f[ti * stride:(ti + 1) * stride,
                      tj * stride:(tj + 1) * stride, :]
            pooled = block.sum(axis=(0, 1)) / stride ** 2
            expected = pooled @ params.lift_w + params.lift_b
            assert np.max(np.abs(tokens[ti, tj] - expected)) < 1e-12

    def test_indivisible_resolution_rejected(self):
        params = rt.init_gate_params(0)
        # numpy's reshape rejects a stride that does not divide the frame
        with pytest.raises(ValueError):
            route_tokens(np.zeros((30, 30, 9)), params)


class TestOuterGate:
    def test_zero_params_uniform(self):
        params = rt.init_gate_params(0)
        params.outer_w[:] = 0
        params.outer_b[:] = 0
        params.token_w[:] = 0
        c_action, tokens = route_tokens(make_field(), params)
        P = rt.outer_gate(c_action, rt.timestep_embed(0.3), params, tokens=tokens)
        np.testing.assert_allclose(P, 0.2, atol=1e-15)

    def test_saturated_logit_one_hot(self):
        P = rt.softmax(np.array([50.0, 0, 0, 0, 0]))
        assert abs(P[0] - 1) < 1e-9 and P[1:].max() < 1e-9

    def test_softmax_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(100, 5))
        P = rt.softmax(z)
        for i in range(100):
            denom = sum(np.exp(z[i] - z[i].max()))
            for k in range(5):
                assert abs(P[i, k] - np.exp(z[i, k] - z[i].max()) / denom) < 1e-12

    def test_rows_sum_to_one(self):
        params = rt.init_gate_params(5)
        c_action, tokens = route_tokens(make_field(6), params)
        P = rt.outer_gate(c_action, rt.timestep_embed(0.9), params, tokens=tokens)
        assert np.max(np.abs(P.sum(axis=-1) - 1)) < 1e-9


class TestTopK:
    def test_argmax_pair(self):
        P = np.array([[0.4, 0.3, 0.1, 0.1, 0.1]])
        np.testing.assert_array_equal(rt.topk_select(P, 2)[0], [1, 1, 0, 0, 0])

    def test_uniform_tie_break_by_index(self):
        P = np.full((1, 5), 0.2)
        np.testing.assert_array_equal(rt.topk_select(P, 2)[0], [1, 1, 0, 0, 0])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(8)
        P = rng.random((10_000, 5))
        A = rt.topk_select(P, 2)
        for i in range(0, 10_000, 7):
            top = sorted(range(5), key=lambda k: (-P[i, k], k))[:2]
            expected = np.zeros(5)
            expected[top] = 1
            np.testing.assert_array_equal(A[i], expected)
        assert np.all(A.sum(axis=-1) == 2)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        P = rng.random((500, 5))
        np.testing.assert_array_equal(rt.topk_select(P, 3),
                                      rt.topk_select(np.exp(3 * P), 3))


class TestCapacityBlend:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.P = rt.softmax(rng.normal(size=(64, 5)))
        self.sched = rt.CapacitySchedule()
        self.A = rt.topk_select(self.P, self.sched.k)

    def test_dense_stage(self):
        w = rt.capacity_blend(self.P, self.A, 0.2, self.sched)
        np.testing.assert_array_equal(w, self.P)

    def test_sparse_stage(self):
        w = rt.capacity_blend(self.P, self.A, 0.9, self.sched)
        S = self.P * self.A
        S = S / S.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(w, S, atol=1e-15)

    def test_midpoint_interpolation(self):
        w = rt.capacity_blend(self.P, self.A, 0.575, self.sched)
        S = self.P * self.A
        S = S / S.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(w, 0.5 * self.P + 0.5 * S, atol=1e-15)

    def test_continuity_at_stage_bounds(self):
        for p0 in (self.sched.dense_end, self.sched.sparse_start):
            w_lo = rt.capacity_blend(self.P, self.A, p0 - 1e-9, self.sched)
            w_hi = rt.capacity_blend(self.P, self.A, p0 + 1e-9, self.sched)
            assert np.max(np.abs(w_hi - w_lo)) < 1e-8

    def test_rows_sum_to_one_all_progress(self):
        for progress in (0, 0.2, 0.575, 0.75, 1):
            w = rt.capacity_blend(self.P, self.A, progress, self.sched)
            assert np.max(np.abs(w.sum(axis=-1) - 1)) < 1e-9


class TestInnerGate:
    def test_zero_params_uniform_fine(self):
        tokens = np.zeros((4, 4, 16))
        probs = rt.inner_gate(tokens, np.zeros((16, 3)), np.zeros(3))
        # a tie goes to the first maximum, as sub_routing_stats takes it
        assert np.all(probs.argmax(axis=-1) == rt.FINE)
        np.testing.assert_allclose(probs.max(axis=-1), 1 / 3, atol=1e-15)

    def test_transport_logit_dominant(self):
        tokens = np.ones((1, 1, 2))
        w = np.zeros((2, 3))
        b = np.array([0.0, 5.0, 0.0])
        probs = rt.inner_gate(tokens, w, b)
        assert probs.argmax(axis=-1)[0, 0] == rt.TRANSPORT
        expected = np.exp(5) / (np.exp(5) + 2)
        assert abs(probs[0, 0].max() - expected) < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        tokens = rng.normal(size=(6, 6, 16))
        w = rng.normal(size=(16, 3))
        b = rng.normal(size=3)
        probs = rt.inner_gate(tokens, w, b)
        sel = probs.argmax(axis=-1)
        for i in range(6):
            for j in range(6):
                z = tokens[i, j] @ w + b
                e = np.exp(z - z.max())
                p = e / e.sum()
                assert sel[i, j] == int(np.argmax(p))
                assert abs(probs[i, j].max() - p[sel[i, j]]) < 1e-12


class TestRouteForward:
    def test_skip_identity_path(self):
        # saturate inner gates to skip and the outer gate on one modality:
        # every token skips in every modality, fused on that modality only
        params = rt.init_gate_params(0)
        for m in kvf.MODALITIES:
            params.inner_w[m][:] = 0
            params.inner_b[m][:] = np.array([0.0, 0.0, 500.0])
        params.outer_w[:] = 0
        params.token_w[:] = 0
        params.outer_b[:] = np.array([500.0, 0, 0, 0, 0.0])
        f = lifted_field(0)
        pooled, dec = rt.route_forward(f, params, progress=1.0,
                                       t_embed=rt.timestep_embed(0.5))
        assert pooled is f
        f_sub, _ = pr.sub_routing_stats(dec)
        assert (f_sub[:, rt.SKIP] == 1.0).all()
        np.testing.assert_allclose(dec.inner_probs[..., rt.SKIP], 1.0,
                                   atol=1e-12)
        one_hot = np.zeros(rt.N_EXPERTS)
        one_hot[0] = 1.0
        np.testing.assert_allclose(dec.fusion_w, np.broadcast_to(
            one_hot, dec.fusion_w.shape), atol=1e-12)

    def test_matches_reimplementation_oracle(self):
        params = rt.init_gate_params(21)
        f = make_field(22)
        progress = 0.6
        t_embed = rt.timestep_embed(0.4)
        sched = rt.CapacitySchedule()
        _, dec = rt.route_forward(rt.avg_pool(f, STRIDE), params, progress,
                                  t_embed, sched=sched)

        # straight-line scalar re-implementation
        s = STRIDE
        hp, wp = 32 // s, 32 // s
        pooled = np.zeros((hp, wp, 9))
        for i in range(hp):
            for j in range(wp):
                pooled[i, j] = f[i * s:(i + 1) * s,
                                 j * s:(j + 1) * s].mean(axis=(0, 1))
        tokens = pooled @ params.lift_w + params.lift_b
        c_action = tokens.reshape(-1, tokens.shape[-1]).mean(axis=0)
        z = (np.concatenate([c_action, t_embed]) @ params.outer_w
             + params.outer_b + tokens @ params.token_w)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        P = e / e.sum(axis=-1, keepdims=True)
        lam = (progress - sched.dense_end) / (sched.sparse_start - sched.dense_end)
        sel = np.zeros((hp, wp, rt.N_EXPERTS), dtype=int)
        for i in range(hp):
            for j in range(wp):
                order = sorted(range(5), key=lambda k: (-P[i, j, k], k))
                assert dec.A[i, j].tolist() == [float(k in order[:sched.k])
                                                for k in range(5)]
                S = np.zeros(5)
                S[order[:sched.k]] = P[i, j, order[:sched.k]]
                S = S / S.sum()
                fw = (1 - lam) * P[i, j] + lam * S
                assert np.max(np.abs(dec.fusion_w[i, j] - fw)) < 1e-12
                for mi, m in enumerate(kvf.MODALITIES):
                    x = pooled[i, j, kvf.MODALITY_CHANNELS[m]]
                    lifted = x @ params.mod_lift_w[m] + params.mod_lift_b[m]
                    zi = lifted @ params.inner_w[m] + params.inner_b[m]
                    ei = np.exp(zi - zi.max())
                    pi = ei / ei.sum()
                    assert np.max(np.abs(dec.inner_probs[i, j, mi] - pi)) < 1e-12
                    sel[i, j, mi] = np.argmax(pi)
        f_sub, _ = pr.sub_routing_stats(dec)
        for mi in range(rt.N_EXPERTS):
            np.testing.assert_array_equal(
                f_sub[mi], np.bincount(sel[..., mi].ravel(), minlength=rt.N_SUB)
                / (hp * wp))

    def test_channel_isolation(self):
        # perturbing channels outside a modality's group leaves that
        # modality's inner gates unchanged
        params = rt.init_gate_params(30)
        f = make_field(31)
        perturbed = f.copy()
        perturbed[..., kvf.MODALITY_CHANNELS["vel"]] += 3.0
        dep = kvf.MODALITIES.index("dep")
        vel = kvf.MODALITIES.index("vel")
        gates = []
        for field in (f, perturbed):
            _, dec = rt.route_forward(rt.avg_pool(field, STRIDE), params,
                                      0.5, rt.timestep_embed(0.3))
            gates.append((dec.inner_probs[..., dep, :].tobytes(),
                          dec.inner_probs[..., vel, :].tobytes()))
        assert gates[0][0] == gates[1][0]
        assert gates[0][1] != gates[1][1]  # the perturbation reaches vel

    def test_deterministic(self):
        params = rt.init_gate_params(7)
        f = rt.avg_pool(make_field(8), STRIDE)
        a = rt.route_forward(f, params, 0.3, rt.timestep_embed(0.2))[1]
        b = rt.route_forward(f, params, 0.3, rt.timestep_embed(0.2))[1]
        for name in ("A", "fusion_w", "inner_probs",
                     "tokens", "c_action"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

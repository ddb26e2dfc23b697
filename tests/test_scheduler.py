import numpy as np
import pytest

from kvacontrol import scheduler as sch
from kvacontrol.errors import InconsistentPlan, ShapeMismatch


class TestSignificance:
    def test_unit_inputs(self):
        s, s_tilde = sch.significance(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                                      np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                                      np.array([0.6, 0.0]))
        assert s[0] == pytest.approx(3.4)
        assert s[1] == 0.0
        np.testing.assert_allclose(s_tilde, [1.0, 0.0])

    def test_constant_normalizes_to_half(self):
        s, s_tilde = sch.significance(*(np.full(7, 0.3) for _ in range(5)))
        np.testing.assert_array_equal(s_tilde, np.full(7, 0.5))

    def test_minmax_range(self):
        rng = np.random.default_rng(0)
        args = [rng.random(50) for _ in range(5)]
        s, s_tilde = sch.significance(*args)
        assert s_tilde.min() == 0.0 and s_tilde.max() == 1.0
        # order preserved
        np.testing.assert_array_equal(np.argsort(s), np.argsort(s_tilde))

    def test_monotone_in_motion(self):
        base = [np.array([0.2]) for _ in range(5)]
        lo, _ = sch.significance(np.array([0.1]), *base[1:])
        hi, _ = sch.significance(np.array([0.9]), *base[1:])
        assert hi[0] > lo[0]

    def test_monotone_decreasing_in_skip(self):
        base = [np.array([0.2]) for _ in range(4)]
        lo, _ = sch.significance(*base, np.array([0.9]))
        hi, _ = sch.significance(*base, np.array([0.1]))
        assert hi[0] > lo[0]


class TestMotionIntensity:
    def test_max_normalized(self):
        vel = np.zeros((2, 2, 3))
        vel[0, 0] = [3, 4, 0]
        acc = np.zeros((2, 2))
        acc[1, 1] = 2.5
        m = sch.motion_intensity(vel, acc)
        assert m[0, 0] == 1.0
        assert m[1, 1] == pytest.approx(0.5)

    def test_zero_field(self):
        m = sch.motion_intensity(np.zeros((3, 3, 3)), np.zeros((3, 3)))
        np.testing.assert_array_equal(m, 0)


class TestPartition:
    def test_counts_n10(self):
        rng = np.random.default_rng(1)
        plan = sch.partition(rng.random(10))
        counts = np.bincount(plan.mode, minlength=3)
        assert tuple(counts) == (2, 3, 5)
        assert (plan.rho_full, plan.rho_light, plan.rho_reuse) == (0.2, 0.3, 0.5)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = rng.random(40)
            plan = sch.partition(s)
            order = sorted(range(40), key=lambda i: (-s[i], i))
            for rank, idx in enumerate(order):
                want = sch.FULL if rank < 8 else sch.LIGHT if rank < 20 else sch.REUSE
                assert plan.mode[idx] == want

    def test_tie_break_by_index(self):
        plan = sch.partition(np.full(10, 0.5))
        assert list(plan.mode) == [0, 0, 1, 1, 1, 2, 2, 2, 2, 2]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        s = rng.random(30)
        # distinct values: permuting inputs permutes modes identically
        perm = rng.permutation(30)
        a = sch.partition(s).mode
        b = sch.partition(s[perm]).mode
        np.testing.assert_array_equal(a[perm], b)

    def test_rounding_half_up(self):
        # n=7: 0.2*7=1.4 -> 1 full, 0.3*7=2.1 -> 2 light, 4 reuse
        plan = sch.partition(np.arange(7, dtype=float))
        assert tuple(np.bincount(plan.mode, minlength=3)) == (1, 2, 4)
        # n=5: 0.2*5=1.0 -> 1, 0.3*5=1.5 -> 2 (half up), 2 reuse
        plan = sch.partition(np.arange(5, dtype=float))
        assert tuple(np.bincount(plan.mode, minlength=3)) == (1, 2, 2)

    def test_custom_ratios(self):
        cfg = sch.BudgetConfig(rho_full_target=0.5, rho_light_target=0.5)
        plan = sch.partition(np.arange(10, dtype=float), cfg)
        assert tuple(np.bincount(plan.mode, minlength=3)) == (5, 5, 0)

    def test_fractions_match_mode_when_both_round_up(self):
        # n=3 at 0.5/0.5: 1.5 rounds up to 2 full, and the light tier gets
        # the one token left, not 2
        cfg = sch.BudgetConfig(rho_full_target=0.5, rho_light_target=0.5)
        plan = sch.partition(np.arange(3, dtype=float), cfg)
        counts = np.bincount(plan.mode, minlength=3)
        assert tuple(counts) == (2, 1, 0)
        assert (plan.rho_full, plan.rho_light, plan.rho_reuse) == (2 / 3, 1 / 3, 0.0)
        rho, _ = sch.budget_loss(plan, [1, 2, 4], cfg)
        assert rho == pytest.approx(2 / 3 + 0.5 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatch):
            sch.partition(np.zeros(0))

    def test_2d_input_flattened(self):
        plan = sch.partition(np.arange(20, dtype=float).reshape(4, 5))
        assert plan.mode.shape == (20,)
        assert plan.mode[19] == sch.FULL


class TestRefreshInterval:
    def test_branches(self):
        assert sch.refresh_interval(0.9) == 1
        assert sch.refresh_interval(0.6) == 1  # boundary inclusive
        assert sch.refresh_interval(0.45) == 2
        assert sch.refresh_interval(0.3) == 2  # boundary inclusive
        assert sch.refresh_interval(0.1) == 4

    def test_custom_k(self):
        cfg = sch.BudgetConfig(K=8)
        assert sch.refresh_interval(0.0, cfg) == 8

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            sch.BudgetConfig(K=0)


class TestBudgetLoss:
    def _plan(self, rf, rl):
        n = 20
        mode = np.full(n, sch.REUSE)
        return sch.ExecutionPlan(mode=mode, rho_full=rf, rho_light=rl,
                                 rho_reuse=1 - rf - rl)

    def test_on_target_zero(self):
        # 1.0*0.2 + 0.5*0.3 = 0.35 and refresh ratio 1/3
        rho, loss = sch.budget_loss(self._plan(0.2, 0.3), [1, 2, 4])
        assert rho == pytest.approx(0.35)
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_target_follows_config(self):
        # 5 full + 5 light at 0.5/0.5: the compute target is
        # 1.0*0.5 + 0.5*0.5 = 0.75, which the plan meets exactly
        cfg = sch.BudgetConfig(rho_full_target=0.5, rho_light_target=0.5)
        plan = sch.partition(np.arange(10, dtype=float), cfg)
        rho, loss = sch.budget_loss(plan, [1, 2, 4], cfg)
        assert rho == 0.75
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_direct_formula(self):
        rho, loss = sch.budget_loss(self._plan(0.1, 0.2), [2, 2, 2])
        assert rho == pytest.approx(0.2)
        assert loss == pytest.approx(abs(0.2 - 0.35) + abs(0.0 - 1 / 3))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rf, rl = rng.random(2) * 0.5
            refresh = rng.choice([1, 2, 4], size=9)
            rho, loss = sch.budget_loss(self._plan(rf, rl), refresh)
            exp_rho = 1.0 * rf + 0.5 * rl
            exp = abs(exp_rho - 0.35) + abs(np.mean(refresh == 1) - 1 / 3)
            assert rho == pytest.approx(exp_rho)
            assert loss == pytest.approx(exp, abs=1e-12)


class TestTemporalLoss:
    def test_static_features_zero(self):
        f = np.broadcast_to(np.arange(4.0), (3, 5, 4)).copy()
        modes = np.full((3, 5), sch.REUSE)
        assert sch.temporal_loss(f, modes) == 0.0

    def test_all_full_zero(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(3, 5, 4))
        assert sch.temporal_loss(f, np.full((3, 5), sch.FULL)) == 0.0

    def test_single_delta(self):
        f = np.zeros((2, 1, 4))
        f[1, 0] = 0.5  # delta^2 summed = 4 * 0.25 = 1.0, / (1 * 4)
        modes = np.full((2, 1), sch.LIGHT)
        assert sch.temporal_loss(f, modes) == pytest.approx(0.25)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(4, 6, 3))
        modes = rng.integers(0, 3, size=(4, 6))
        num = 0.0
        cnt = 0
        for t in range(1, 4):
            for i in range(6):
                if modes[t, i] != sch.FULL:
                    num += sum((f[t, i, c] - f[t - 1, i, c]) ** 2 for c in range(3))
                    cnt += 1
        expected = num / (cnt * 3) if cnt else 0.0
        assert sch.temporal_loss(f, modes) == pytest.approx(expected, abs=1e-12)

    def test_single_frame_zero(self):
        assert sch.temporal_loss(np.ones((1, 3, 2)), np.zeros((1, 3))) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sch.temporal_loss(np.ones((2, 3, 2)), np.zeros((2, 4)))


class TestSimulateExecution:
    def _plans(self, modes_per_frame):
        return [sch.ExecutionPlan(mode=np.asarray(m, dtype=int),
                                  rho_full=0, rho_light=0, rho_reuse=0)
                for m in modes_per_frame]

    def test_all_full_cost(self):
        T, n = 6, 10
        plans = self._plans([np.zeros(n)] * T)
        trace = sch.simulate_execution(plans, np.ones(T, dtype=int))
        assert trace.total_cost == pytest.approx(T * n * 1.0)
        assert trace.total_cost == trace.full_equivalent_cost
        assert trace.forced.all()

    def test_refresh_forces_full(self):
        n = 4
        plans = self._plans([np.full(n, sch.REUSE)] * 4)
        trace = sch.simulate_execution(plans, np.full(4, 2))
        # frames 0 and 2 forced full, frames 1 and 3 reuse
        np.testing.assert_array_equal(trace.forced, [True, False, True, False])
        np.testing.assert_array_equal(trace.n_modes[:, 0], [n, 0, n, 0])
        assert trace.frame_cost[1] == pytest.approx(n * 0.02)

    def test_default_mix_cost_ratio(self):
        # a frame with the 0.2/0.3/0.5 split costs 0.2*1 + 0.3*0.4 + 0.5*0.02
        # = 0.33 per token; check on non-forced frames
        n = 10
        mode = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2, 2])
        plans = self._plans([mode] * 5)
        trace = sch.simulate_execution(plans, np.full(5, 5))
        for t in range(1, 5):
            assert trace.frame_cost[t] / n == pytest.approx(0.33)
        assert trace.frame_cost[0] == pytest.approx(n * 1.0)

    def test_cache_age_bounded_by_refresh(self):
        rng = np.random.default_rng(0)
        T, n = 24, 16
        plans = self._plans([rng.integers(0, 3, size=n) for _ in range(T)])
        trace = sch.simulate_execution(plans, np.full(T, 4))
        # forced full every 4 frames: a residual can be stale at most 3 frames
        assert trace.max_cache_age <= 3
        assert trace.cache_age_hist.sum() == trace.n_modes[:, 2].sum()

    def test_age_histogram_counts(self):
        n = 3
        plans = self._plans([np.zeros(n), np.full(n, sch.REUSE),
                             np.full(n, sch.REUSE)])
        trace = sch.simulate_execution(plans, np.full(3, 3))
        # ages at read: frame1 -> 1,1,1; frame2 -> 2,2,2
        np.testing.assert_array_equal(trace.cache_age_hist, [0, 3, 3])
        assert trace.max_cache_age == 2

    def test_cost_below_full_when_sparse(self):
        n = 20
        mode = np.full(n, sch.REUSE)
        plans = self._plans([mode] * 12)
        trace = sch.simulate_execution(plans, np.full(12, 4))
        assert trace.total_cost < trace.full_equivalent_cost

    def test_inconsistent_refresh(self):
        plans = self._plans([np.zeros(3)] * 2)
        with pytest.raises(InconsistentPlan):
            sch.simulate_execution(plans, np.ones(3, dtype=int))

    def test_inconsistent_token_counts(self):
        plans = self._plans([np.zeros(3), np.zeros(4)])
        with pytest.raises(InconsistentPlan):
            sch.simulate_execution(plans, np.ones(2, dtype=int))

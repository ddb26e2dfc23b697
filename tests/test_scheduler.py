import numpy as np
import pytest

from kvacontrol import scheduler as sch


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
        mode = sch.partition(rng.random(10))
        counts = np.bincount(mode, minlength=3)
        assert tuple(counts) == (2, 3, 5)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = rng.random(40)
            mode = sch.partition(s)
            order = sorted(range(40), key=lambda i: (-s[i], i))
            for rank, idx in enumerate(order):
                want = sch.FULL if rank < 8 else sch.LIGHT if rank < 20 else sch.REUSE
                assert mode[idx] == want

    def test_tie_break_by_index(self):
        mode = sch.partition(np.full(10, 0.5))
        assert list(mode) == [0, 0, 1, 1, 1, 2, 2, 2, 2, 2]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        s = rng.random(30)
        # distinct values: permuting inputs permutes modes identically
        perm = rng.permutation(30)
        a = sch.partition(s)
        b = sch.partition(s[perm])
        np.testing.assert_array_equal(a[perm], b)

    def test_rounding_half_up(self):
        # n=7: 0.2*7=1.4 -> 1 full, 0.3*7=2.1 -> 2 light, 4 reuse
        mode = sch.partition(np.arange(7, dtype=float))
        assert tuple(np.bincount(mode, minlength=3)) == (1, 2, 4)
        # n=5: 0.2*5=1.0 -> 1, 0.3*5=1.5 -> 2 (half up), 2 reuse
        mode = sch.partition(np.arange(5, dtype=float))
        assert tuple(np.bincount(mode, minlength=3)) == (1, 2, 2)

    def test_custom_ratios(self):
        cfg = sch.BudgetConfig(rho_full_target=0.5, rho_light_target=0.5)
        mode = sch.partition(np.arange(10, dtype=float), cfg)
        assert tuple(np.bincount(mode, minlength=3)) == (5, 5, 0)

    def test_fractions_match_mode_when_both_round_up(self):
        # n=3 at 0.5/0.5: 1.5 rounds up to 2 full, and the light tier gets
        # the one token left, not 2
        cfg = sch.BudgetConfig(rho_full_target=0.5, rho_light_target=0.5)
        mode = sch.partition(np.arange(3, dtype=float), cfg)
        counts = np.bincount(mode, minlength=3)
        assert tuple(counts) == (2, 1, 0)

    def test_2d_input_flattened(self):
        mode = sch.partition(np.arange(20, dtype=float).reshape(4, 5))
        assert mode.shape == (20,)
        assert mode[19] == sch.FULL


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

    def test_k_up_to_int64_max(self):
        # refresh intervals are held as int64: the largest K still runs,
        # one more is rejected
        cfg = sch.BudgetConfig(K=sch.K_MAX)
        refresh = [sch.refresh_interval(0.0, cfg)] * 2
        trace = sch.simulate_execution([np.zeros(3, dtype=int)] * 2, refresh)
        assert trace.forced.tolist() == [True, False]
        with pytest.raises(ValueError):
            sch.BudgetConfig(K=sch.K_MAX + 1)


class TestSimulateExecution:
    def _plans(self, modes_per_frame):
        return [np.asarray(m, dtype=int) for m in modes_per_frame]

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
        np.testing.assert_array_equal(trace.n_modes,
                                      [[n, 0, 0], [0, 0, n]] * 2)
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
        # forced full every 4 frames, so a residual can be stale at most 3
        # frames; the other frames run their plans
        forced = np.arange(T) % 4 == 0
        np.testing.assert_array_equal(trace.forced, forced)
        np.testing.assert_array_equal(trace.n_modes[forced], [[n, 0, 0]] * 6)
        np.testing.assert_array_equal(
            trace.n_modes[~forced],
            [np.bincount(plans[t], minlength=3) for t in np.flatnonzero(~forced)])

    def test_cost_below_full_when_sparse(self):
        n = 20
        mode = np.full(n, sch.REUSE)
        plans = self._plans([mode] * 12)
        trace = sch.simulate_execution(plans, np.full(12, 4))
        assert trace.total_cost < trace.full_equivalent_cost

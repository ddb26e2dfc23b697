"""Action-adaptive budgeted execution.

Tokens are scored by significance (motion, tool presence, routing confidence,
fine-motion preference, minus skip probability, each with weight 1),
partitioned into full / light / reuse execution modes by budgeted top-ratio
selection, and frames get a refresh interval from their mean significance
(1 from `TAU_H`, 2 from `TAU_M`, else K). A cache simulator accounts for
compute in the cost units `C_FULL`, `C_LIGHT` and `C_REUSE`.

Only the budget targets and K are settable, through `BudgetConfig`; the
thresholds and cost units are the paper's fixed values. The paper's budget
and temporal-consistency losses are not implemented: no command reports them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentPlan, InvalidParams, ShapeMismatch

FULL, LIGHT, REUSE = 0, 1, 2

# mean significance from which a frame refreshes every frame / every 2nd
TAU_H, TAU_M = 0.6, 0.3
# simulate_execution's cost per token of each mode
C_FULL, C_LIGHT, C_REUSE = 1.0, 0.4, 0.02


@dataclass(frozen=True)
class BudgetConfig:
    rho_full_target: float = 0.2
    rho_light_target: float = 0.3
    K: int = 4  # slow refresh interval

    def __post_init__(self):
        if not (self.rho_full_target >= 0 and self.rho_light_target >= 0):
            raise InvalidParams("rho targets must be nonnegative")
        if self.rho_full_target + self.rho_light_target > 1:
            raise InvalidParams("rho_full + rho_light must be at most 1")
        if self.K < 1:
            raise InvalidParams("K must be >= 1")


@dataclass(frozen=True)
class ExecutionPlan:
    """Per-token execution mode + realized fractions for one frame."""

    mode: np.ndarray  # flat int array of FULL/LIGHT/REUSE
    rho_full: float
    rho_light: float
    rho_reuse: float


def significance(e_motion, m_tool, c_route, q_fine, p_skip):
    """Raw significance s and the per-sample min-max normalized s_tilde.

    s = e_motion + m_tool + c_route + q_fine - p_skip. A constant map
    normalizes to all 0.5."""
    s = (np.asarray(e_motion, dtype=float)
         + np.asarray(m_tool, dtype=float)
         + np.asarray(c_route, dtype=float)
         + np.asarray(q_fine, dtype=float)
         - np.asarray(p_skip, dtype=float))
    lo, hi = s.min(), s.max()
    if hi - lo == 0:
        s_tilde = np.full_like(s, 0.5)
    else:
        s_tilde = (s - lo) / (hi - lo)
    return s, s_tilde


def motion_intensity(field_pooled_vel, field_pooled_acc):
    """Max-normalized combined |v| and alpha magnitude per token."""
    mag = np.linalg.norm(field_pooled_vel, axis=-1) + np.abs(field_pooled_acc)
    peak = mag.max()
    return mag / peak if peak > 0 else mag


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def partition(s_tilde, cfg: BudgetConfig = BudgetConfig()) -> ExecutionPlan:
    """Budgeted top-ratio selection: top 20% of tokens full, next 30% light,
    rest reuse (defaults). Ties broken by token index, row-major. Both counts
    round half up; the light tier takes at most the tokens the full tier
    leaves."""
    s_flat = np.asarray(s_tilde, dtype=float).reshape(-1)
    n = s_flat.size
    if n < 1:
        raise ShapeMismatch("need at least one token")
    n_full = _round_half_up(cfg.rho_full_target * n)
    n_light = min(_round_half_up(cfg.rho_light_target * n), n - n_full)
    order = np.argsort(-s_flat, kind="stable")
    mode = np.full(n, REUSE, dtype=int)
    mode[order[:n_full]] = FULL
    mode[order[n_full:n_full + n_light]] = LIGHT
    n_reuse = n - n_full - n_light
    return ExecutionPlan(mode=mode, rho_full=n_full / n, rho_light=n_light / n,
                         rho_reuse=n_reuse / n)


def refresh_interval(s_bar, cfg: BudgetConfig = BudgetConfig()) -> int:
    """1 for mean significance from TAU_H up, 2 from TAU_M up, K below."""
    if s_bar >= TAU_H:
        return 1
    if s_bar >= TAU_M:
        return 2
    return cfg.K


@dataclass(frozen=True)
class ExecutionTrace:
    """Per-frame accounting of the simulated cache executor."""

    frame_cost: np.ndarray  # (T,)
    n_modes: np.ndarray  # (T, 3) effective full/light/reuse counts
    forced: np.ndarray  # (T,) bool, refresh-forced frames
    total_cost: float
    full_equivalent_cost: float
    cache_age_hist: np.ndarray  # histogram of residual ages at read time
    max_cache_age: int


def simulate_execution(plans, refresh) -> ExecutionTrace:
    """Run the per-token residual cache over T frames.

    full: recompute everything and write the cache. light: reuse cached
    routing, recompute the residual (cache rewritten at light cost). reuse:
    read the cached residual. Frames with index % r(t) == 0 force full
    updates everywhere, so frame 0 always warms the cache."""
    plans = list(plans)
    refresh = np.asarray(refresh, dtype=int)
    T = len(plans)
    if refresh.shape != (T,):
        raise InconsistentPlan(f"{T} plans but refresh shape {refresh.shape}")
    n = plans[0].mode.size
    if any(p.mode.size != n for p in plans):
        raise InconsistentPlan("plans disagree on token count")

    age = np.zeros(n, dtype=int)  # frames since the residual was last written
    frame_cost = np.zeros(T)
    n_modes = np.zeros((T, 3), dtype=int)
    forced = np.zeros(T, dtype=bool)
    ages_seen = []
    for t in range(T):
        mode = plans[t].mode.copy()
        if t % refresh[t] == 0:
            mode[:] = FULL
            forced[t] = True
        reuse_mask = mode == REUSE
        ages_seen.append(age[reuse_mask] + 1)
        age = np.where(reuse_mask, age + 1, 0)
        costs = np.choose(mode, [C_FULL, C_LIGHT, C_REUSE])
        frame_cost[t] = costs.sum()
        n_modes[t] = [(mode == m).sum() for m in (FULL, LIGHT, REUSE)]

    all_ages = np.concatenate(ages_seen) if ages_seen else np.zeros(0, dtype=int)
    max_age = int(all_ages.max()) if all_ages.size else 0
    hist = np.bincount(all_ages, minlength=max_age + 1)
    return ExecutionTrace(
        frame_cost=frame_cost,
        n_modes=n_modes,
        forced=forced,
        total_cost=float(frame_cost.sum()),
        full_equivalent_cost=float(T * n * C_FULL),
        cache_age_hist=hist,
        max_cache_age=max_age,
    )

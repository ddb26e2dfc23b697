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

from .errors import InvalidParams

FULL, LIGHT, REUSE = 0, 1, 2

# mean significance from which a frame refreshes every frame / every 2nd
TAU_H, TAU_M = 0.6, 0.3
# simulate_execution's cost per token of each mode
C_FULL, C_LIGHT, C_REUSE = 1.0, 0.4, 0.02
# the largest K: refresh intervals are held as int64
K_MAX = int(np.iinfo(np.int64).max)


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
        if not 1 <= self.K <= K_MAX:
            raise InvalidParams(f"K must be in [1, {K_MAX}], got {self.K}")


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


def partition(s_tilde, cfg: BudgetConfig = BudgetConfig()) -> np.ndarray:
    """Budgeted top-ratio selection: the flat int array of each token's
    mode, the top 20% of tokens FULL, the next 30% LIGHT, the rest REUSE
    (defaults). Ties broken by token index, row-major. Both counts round
    half up; the light tier takes at most the tokens the full tier leaves."""
    s_flat = np.asarray(s_tilde, dtype=float).reshape(-1)
    n = s_flat.size
    n_full = _round_half_up(cfg.rho_full_target * n)
    n_light = min(_round_half_up(cfg.rho_light_target * n), n - n_full)
    order = np.argsort(-s_flat, kind="stable")
    mode = np.full(n, REUSE, dtype=int)
    mode[order[:n_full]] = FULL
    mode[order[n_full:n_full + n_light]] = LIGHT
    return mode


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


def simulate_execution(plans, refresh) -> ExecutionTrace:
    """Run the per-token residual cache over T frames, given each frame's
    `partition` modes and refresh interval: T plans of one token count and
    T intervals, as `cli.cmd_schedule` forms them from one routing run.

    full: recompute everything and write the cache. light: reuse cached
    routing, recompute the residual (cache rewritten at light cost). reuse:
    read the cached residual. Frames with index % r(t) == 0 force full
    updates everywhere, so frame 0 always warms the cache."""
    plans = list(plans)
    refresh = np.asarray(refresh, dtype=int)
    T = len(plans)
    n = plans[0].size

    frame_cost = np.zeros(T)
    n_modes = np.zeros((T, 3), dtype=int)
    forced = np.zeros(T, dtype=bool)
    for t in range(T):
        forced[t] = t % refresh[t] == 0
        mode = np.full(n, FULL) if forced[t] else plans[t]
        costs = np.choose(mode, [C_FULL, C_LIGHT, C_REUSE])
        frame_cost[t] = costs.sum()
        n_modes[t] = [(mode == m).sum() for m in (FULL, LIGHT, REUSE)]

    return ExecutionTrace(
        frame_cost=frame_cost,
        n_modes=n_modes,
        forced=forced,
        total_cost=float(frame_cost.sum()),
        full_equivalent_cost=float(T * n * C_FULL),
    )

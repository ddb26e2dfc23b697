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
    """Raw significance s and s_tilde, s min-max normalized per frame. Each
    map stacks one or more frames along its first axis.

    s = e_motion + m_tool + c_route + q_fine - p_skip. A frame whose map is
    constant normalizes to all 0.5. min and max do not round, so each frame
    of a stack gets the bits of normalizing it alone."""
    s = (np.asarray(e_motion, dtype=float)
         + np.asarray(m_tool, dtype=float)
         + np.asarray(c_route, dtype=float)
         + np.asarray(q_fine, dtype=float)
         - np.asarray(p_skip, dtype=float))
    flat = s.reshape(len(s), -1)
    lo = flat.min(axis=1, keepdims=True)
    span = flat.max(axis=1, keepdims=True) - lo
    s_tilde = np.full_like(flat, 0.5)
    np.divide(flat - lo, span, out=s_tilde, where=span != 0)
    return s, s_tilde.reshape(s.shape)


def motion_intensity(field_pooled_vel, field_pooled_acc):
    """Max-normalized combined |v| and alpha magnitude per token."""
    mag = np.linalg.norm(field_pooled_vel, axis=-1) + np.abs(field_pooled_acc)
    peak = mag.max()
    return mag / peak if peak > 0 else mag


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def partition(s_tilde, cfg: BudgetConfig = BudgetConfig()) -> np.ndarray:
    """Budgeted top-ratio selection over each frame of a (T, ...) stack of
    token significance: the (T, n) int modes of each frame's n tokens, the
    top 20% of a frame's tokens FULL, the next 30% LIGHT, the rest REUSE
    (defaults). Ties broken by token index, row-major within the frame.
    Both counts round half up; the light tier takes at most the tokens the
    full tier leaves."""
    s = np.asarray(s_tilde, dtype=float)
    s = s.reshape(len(s), -1)
    n = s.shape[1]
    n_full = _round_half_up(cfg.rho_full_target * n)
    n_light = min(_round_half_up(cfg.rho_light_target * n), n - n_full)
    # the modes in rank order, scattered to each frame's ranked tokens
    tiers = np.repeat([FULL, LIGHT, REUSE],
                      [n_full, n_light, n - n_full - n_light])
    mode = np.empty(s.shape, dtype=int)
    np.put_along_axis(mode, np.argsort(-s, axis=1, kind="stable"), tiers,
                      axis=1)
    return mode


def refresh_interval(s_bar, cfg: BudgetConfig = BudgetConfig()) -> np.ndarray:
    """Each frame's refresh interval from its mean significance: 1 from
    TAU_H up, 2 from TAU_M up, K below."""
    s_bar = np.asarray(s_bar)
    return np.where(s_bar >= TAU_H, 1, np.where(s_bar >= TAU_M, 2, cfg.K))


@dataclass(frozen=True)
class ExecutionTrace:
    """Per-frame accounting of the simulated cache executor."""

    frame_cost: np.ndarray  # (T,)
    n_modes: np.ndarray  # (T, 3) effective full/light/reuse counts
    forced: np.ndarray  # (T,) bool, refresh-forced frames
    total_cost: float
    full_equivalent_cost: float


def simulate_execution(plans, refresh) -> ExecutionTrace:
    """Run the per-token residual cache over T frames, given the (T, n)
    `partition` modes and the T refresh intervals, as `cli.cmd_schedule`
    forms them from one routing run.

    full: recompute everything and write the cache. light: reuse cached
    routing, recompute the residual (cache rewritten at light cost). reuse:
    read the cached residual. Frames with index % r(t) == 0 force full
    updates everywhere, so frame 0 always warms the cache."""
    plans = np.asarray(plans)
    T, n = plans.shape
    forced = np.arange(T) % refresh == 0
    mode = np.where(forced[:, None], FULL, plans)
    frame_cost = np.take([C_FULL, C_LIGHT, C_REUSE], mode).sum(axis=1)
    # frame t's modes FULL, LIGHT, REUSE = 0, 1, 2 counted in bins 3t..3t+2
    n_modes = np.bincount((mode + 3 * np.arange(T)[:, None]).ravel(),
                          minlength=3 * T).reshape(T, 3)
    return ExecutionTrace(
        frame_cost=frame_cost,
        n_modes=n_modes,
        forced=forced,
        total_cost=float(frame_cost.sum()),
        full_equivalent_cost=float(T * n * C_FULL),
    )

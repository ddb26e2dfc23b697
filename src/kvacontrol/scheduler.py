"""Action-adaptive budgeted execution.

Tokens are scored by significance (motion, tool presence, routing confidence,
fine-motion preference, minus skip probability), partitioned into full / light
/ reuse execution modes by budgeted top-ratio selection, and frames get a
refresh interval from their mean significance. A cache simulator accounts for
compute in abstract cost units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentPlan, InvalidParams, ShapeMismatch

FULL, LIGHT, REUSE = 0, 1, 2
MODE_NAMES = ("full", "light", "reuse")


@dataclass(frozen=True)
class SignificanceWeights:
    w_m: float = 1.0  # motion intensity
    w_t: float = 1.0  # tool presence
    w_r: float = 1.0  # routing confidence
    w_f: float = 1.0  # fine-motion preference
    w_s: float = 1.0  # skip probability (subtracted)

    def __post_init__(self):
        if min(self.w_m, self.w_t, self.w_r, self.w_f, self.w_s) < 0:
            raise InvalidParams("significance weights must be nonnegative")


@dataclass(frozen=True)
class BudgetConfig:
    rho_full_target: float = 0.2
    rho_light_target: float = 0.3
    w_f: float = 1.0  # accounting weight of a full update
    w_l: float = 0.5  # accounting weight of a light update
    w_r: float = 1.0  # weight of the refresh-ratio term
    rho_target: float = 0.35  # = w_f*0.2 + w_l*0.3, self-consistent default
    rho_refresh_star: float = 1.0 / 3.0
    tau_h: float = 0.6
    tau_m: float = 0.3
    K: int = 4  # slow refresh interval

    def __post_init__(self):
        if not (self.rho_full_target >= 0 and self.rho_light_target >= 0):
            raise InvalidParams("rho targets must be nonnegative")
        if self.rho_full_target + self.rho_light_target > 1:
            raise InvalidParams("rho_full + rho_light must be at most 1")
        if not (0 <= self.tau_m < self.tau_h):
            raise InvalidParams("need 0 <= tau_m < tau_h")
        if self.K < 1:
            raise InvalidParams("K must be >= 1")


@dataclass(frozen=True)
class ExecutionPlan:
    """Per-token execution mode + realized fractions for one frame."""

    mode: np.ndarray  # flat int array of FULL/LIGHT/REUSE
    rho_full: float
    rho_light: float
    rho_reuse: float


def significance(e_motion, m_tool, c_route, q_fine, p_skip,
                 w: SignificanceWeights = SignificanceWeights()):
    """Raw significance s and the per-sample min-max normalized s_tilde.

    s = w_m*e_motion + w_t*m_tool + w_r*c_route + w_f*q_fine - w_s*p_skip.
    A constant map normalizes to all 0.5."""
    s = (w.w_m * np.asarray(e_motion, dtype=float)
         + w.w_t * np.asarray(m_tool, dtype=float)
         + w.w_r * np.asarray(c_route, dtype=float)
         + w.w_f * np.asarray(q_fine, dtype=float)
         - w.w_s * np.asarray(p_skip, dtype=float))
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
    rest reuse (defaults). Ties broken by token index, row-major."""
    s_flat = np.asarray(s_tilde, dtype=float).reshape(-1)
    n = s_flat.size
    if n < 1:
        raise ShapeMismatch("need at least one token")
    n_full = _round_half_up(cfg.rho_full_target * n)
    n_light = _round_half_up(cfg.rho_light_target * n)
    order = np.argsort(-s_flat, kind="stable")
    mode = np.full(n, REUSE, dtype=int)
    mode[order[:n_full]] = FULL
    mode[order[n_full:n_full + n_light]] = LIGHT
    n_reuse = n - n_full - n_light
    return ExecutionPlan(mode=mode, rho_full=n_full / n, rho_light=n_light / n,
                         rho_reuse=n_reuse / n)


def refresh_interval(s_bar, cfg: BudgetConfig = BudgetConfig()) -> int:
    """1 for high mean significance, 2 for medium, K for low."""
    if s_bar >= cfg.tau_h:
        return 1
    if s_bar >= cfg.tau_m:
        return 2
    return cfg.K


def budget_loss(plan: ExecutionPlan, refresh, cfg: BudgetConfig = BudgetConfig()):
    """(rho_compute, loss): compute ratio w_f*rho_full + w_l*rho_light plus the
    L1 gaps to the compute and refresh targets."""
    refresh = np.asarray(refresh)
    rho_compute = cfg.w_f * plan.rho_full + cfg.w_l * plan.rho_light
    rho_refresh = float((refresh == 1).mean()) if refresh.size else 0.0
    loss = (abs(rho_compute - cfg.rho_target)
            + cfg.w_r * abs(rho_refresh - cfg.rho_refresh_star))
    return rho_compute, float(loss)


def temporal_loss(features, modes) -> float:
    """Mean squared temporal feature difference over light/reuse tokens.

    features: (T, N, C); modes: (T, N). The previous frame's features are
    constants (stop-gradient); 0 when T < 2 or no light/reuse token exists."""
    f = np.asarray(features, dtype=float)
    modes = np.asarray(modes)
    if f.ndim != 3 or modes.shape != f.shape[:2]:
        raise ShapeMismatch(f"features {f.shape} vs modes {modes.shape}")
    T = f.shape[0]
    if T < 2:
        return 0.0
    sel = modes[1:] != FULL  # light or reuse at frame t >= 1
    count = int(sel.sum())
    if count == 0:
        return 0.0
    diff2 = ((f[1:] - f[:-1]) ** 2).sum(axis=-1)
    return float((diff2 * sel).sum() / (count * f.shape[-1]))


@dataclass(frozen=True)
class CostModel:
    c_full: float = 1.0
    c_light: float = 0.4
    c_reuse: float = 0.02


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


def simulate_execution(plans, refresh, cost: CostModel = CostModel()) -> ExecutionTrace:
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
        costs = np.choose(mode, [cost.c_full, cost.c_light, cost.c_reuse])
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
        full_equivalent_cost=float(T * n * cost.c_full),
        cache_age_hist=hist,
        max_cache_age=max_age,
    )

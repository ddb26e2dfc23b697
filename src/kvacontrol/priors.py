"""Kinematic-prior objectives for the two-tier router.

Loss suite: physically-grounded load balancing, masked temporal routing
consistency, capacity-predictor BCE, sub-expert anti-collapse stabilizer,
flow-matching regression target, and the weighted total. Analytic gradients
are implemented for the small linear parameter sets (gate refinement,
predictor) and verified with central finite differences of the fixed step
`FD_EPS`; there is no general autodiff here. The predictor's initial weights
are drawn as the gates' are, with std `routing.INIT_SCALE / sqrt(C)`.

The finite-difference check evaluates each checked loss twice per parameter
entry, 750 times per `losses` run. `_kp_alb_evaluator`, `_src_evaluator` and
`_cp_evaluator` build those losses once per check, with buffers allocated
once, and return the same bits as the public losses on fresh arrays:

- Every step but the reductions is elementwise, so it gives the same bits in
  any layout and written into any buffer.
- `_kp_alb_evaluator` keeps the routing logits expert-major, (5, N), so each
  expert is one contiguous row. The softmax's max and sum and the top-1
  scan reduce the five rows in expert order with `_columns`. `Pbar` is
  `np.add.accumulate` along each row, which adds the tokens one after
  another: numpy's `mean(axis=0)` of a C-contiguous (N, 5) array adds its
  rows in the same sequence. `tokens @ token_w` does not change with
  `outer_w` or `outer_b`, so it is kept from the last evaluation with the
  same `token_w`. The loss is a function of the `token_w` bytes and the
  five logits `concat(c_action, t_embed) @ outer_w + outer_b` alone, so
  each result is kept keyed on those two byte strings: a step on an
  `outer_w` row whose embedding entry is about 1e-16 (the sin entries of
  `timestep_embed(0.5)`) leaves the logits unchanged, and 74 of the 411
  evaluations of `losses` on a 256 x 256, T=4 synth trajectory (seed 1)
  repeat an earlier input.
- `_src_evaluator` and `_cp_evaluator` recompute only the expert columns
  whose parameters changed. Each check perturbs one entry of `w[:, k]` or
  `b[k]`, so only logit column k changes. Each evaluation forms the product
  `tokens @ w` once, as `predictor_logits` does, and adds `b[j]` in place
  to the columns it recomputes only: `predictor_logits` adds `b` a column
  at a time, so column j gets the same addition. Logit column j of the
  product is the same GEMM's column j at the same shape, and depends only
  on `w[:, j]`; with `b[j]` added, on nothing else. The sigmoid,
  the time difference and the BCE terms are elementwise, so a column view
  gives the bits that column gets in the (..., 5) array. Each column's work
  (the squared time difference for src, the BCE terms for cp) is kept with
  the bytes of `w[:, j]` and `b[j]` it was formed from; the first
  evaluation's columns are kept as the base, and a column whose parameters
  return to the base is restored from that copy. src then folds the five
  columns in expert order with `_columns.fold`, and cp takes the mean of
  the same (..., 5) buffer, so the reductions see the same values in the
  same order. The result does not depend on the order of the calls: a
  column whose bytes differ is recomputed. `src_loss` and `cp_loss` run
  the same helpers on fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._columns import argmax, columns, fold
from .errors import InvalidParams, NonFiniteGradient, ShapeMismatch
from .kva_field import MODALITY_CHANNELS
from .routing import INIT_SCALE, N_EXPERTS, N_SUB, RoutingDecision, softmax


@dataclass(frozen=True)
class RoutingStats:
    """Realized tier-1 routing load: l_i = f_i * Pbar_i."""

    f: np.ndarray  # fraction of tokens whose top-1 pick is expert i
    Pbar: np.ndarray  # mean soft probability per expert
    load: np.ndarray


def routing_stats(P: np.ndarray) -> RoutingStats:
    flat = P.reshape(-1, N_EXPERTS)
    top1 = argmax(columns(flat))
    f = np.bincount(top1, minlength=N_EXPERTS) / flat.shape[0]
    Pbar = flat.mean(axis=0)
    return RoutingStats(f=f, Pbar=Pbar, load=f * Pbar)


@dataclass(frozen=True)
class PhysicalPrior:
    """Per-token modality energies and the normalized frame-level target."""

    pi: np.ndarray  # (5,) normalized energy shares
    e: np.ndarray  # (H', W', 5) per-token energies


def physical_prior(pooled: np.ndarray) -> PhysicalPrior:
    """Modality energy of one frame's field pooled to the router grid.

    e = [||sem||_2, |dep|, |rot|, ||vel||_2, |acc|] per token; pi is the
    normalized token-mean energy (uniform if the field is all zero).
    """
    e = np.stack([
        np.linalg.norm(pooled[..., MODALITY_CHANNELS["sem"]], axis=-1),
        np.abs(pooled[..., MODALITY_CHANNELS["dep"][0]]),
        np.abs(pooled[..., MODALITY_CHANNELS["rot"][0]]),
        np.linalg.norm(pooled[..., MODALITY_CHANNELS["vel"]], axis=-1),
        np.abs(pooled[..., MODALITY_CHANNELS["acc"][0]]),
    ], axis=-1)
    energy = e.mean(axis=(0, 1))
    total = energy.sum()
    if total == 0:
        pi = np.full(N_EXPERTS, 1.0 / N_EXPERTS)
    else:
        pi = energy / total
    return PhysicalPrior(pi=pi, e=e)


def kp_alb_loss(stats: RoutingStats, prior: PhysicalPrior) -> float:
    """Mean squared gap between realized load and the physical target.

    The target pi is a constant for gradient purposes (stop-gradient)."""
    return float(np.mean((stats.load - prior.pi) ** 2))


def src_loss(R: np.ndarray, m_tool: np.ndarray) -> float:
    """Masked, normalized temporal squared difference of routing probabilities.

    R: (T, H', W', 5); m_tool: (T, H', W') binary. Zero for T=1 or an empty
    mask over frames t >= 1."""
    R = np.asarray(R, dtype=float)
    m_tool = np.asarray(m_tool, dtype=float)
    if R.shape[:-1] != m_tool.shape:
        raise ShapeMismatch(f"R {R.shape} vs mask {m_tool.shape}")
    mask = m_tool[1:]
    denom = N_EXPERTS * mask.sum()
    if denom == 0:  # also for T < 2, where the mask is empty
        return 0.0
    sq = np.square(R[1:] - R[:-1])
    return _src_sum(columns(sq), mask, denom, np.empty(mask.shape))


def _src_sum(cols, mask, denom, diff2) -> float:
    """src_loss for T >= 2 and denom != 0 from the five expert columns of the
    squared time difference, each (T-1, H', W'), folded in expert order;
    diff2 is a buffer of that shape."""
    fold(np.add, cols, out=diff2)
    np.multiply(mask, diff2, out=diff2)
    return float(diff2.sum() / denom)


def _sigmoid(z, out=None, e=None):
    """1 / (1 + exp(-z)) without overflow: e = exp(-|z|) is computed once and
    the ratio is taken as 1 / (1 + e) for z >= 0 and e / (1 + e) below; as
    e lies in [0, 1] (or is NaN), the numerator is max(z >= 0, e). out and e
    are optional buffers of z's shape; out may be z itself."""
    shape = np.shape(z)  # e and num are arrays even for scalar z
    e = np.abs(z, out=np.empty(shape) if e is None else e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(z >= 0, e, out=np.empty(shape) if out is None else out)
    e += 1.0
    num /= e
    return num


def cp_loss(predictor_logits: np.ndarray, A: np.ndarray) -> float:
    """BCE-with-logits between predictor logits and the (detached) routing
    mask, via the numerically stable log-sum-exp form."""
    z = np.asarray(predictor_logits, dtype=float)
    A = np.asarray(A, dtype=float)
    if z.shape != A.shape:
        raise ShapeMismatch(f"logits {z.shape} vs mask {A.shape}")
    return float(_cp_terms(z, A, np.empty(z.shape), np.empty(z.shape)).mean())


def _cp_terms(z, A, per, tmp):
    """cp_loss's terms max(z, 0) - z * A + log1p(exp(-|z|)), formed in per
    with tmp as scratch, both buffers of z's shape; returns per."""
    np.maximum(z, 0, out=per)
    per -= np.multiply(z, A, out=tmp)
    np.abs(z, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)
    per += np.log1p(tmp, out=tmp)
    return per


@dataclass(frozen=True)
class PredictorState:
    """Capacity predictor: linear map from detached tokens to expert logits,
    which cp_loss compares with the routing mask."""

    w: np.ndarray  # (C, 5)
    b: np.ndarray  # (5,)


def init_predictor(seed=0, c=16) -> PredictorState:
    rng = np.random.default_rng(seed)
    w = rng.normal(0, INIT_SCALE / np.sqrt(c), size=(c, N_EXPERTS))
    return PredictorState(w=w, b=np.zeros(N_EXPERTS))


def predictor_logits(state: PredictorState, tokens: np.ndarray) -> np.ndarray:
    """Logits on the router grid; tokens are treated as detached inputs."""
    z = tokens @ state.w
    for j in range(N_EXPERTS):  # a column at a time: no per-row broadcast
        z[..., j] += state.b[j]
    return z


def sub_stabilizer_loss(f_sub: np.ndarray, p_sub: np.ndarray) -> float:
    """Anti-collapse penalty for the tier-2 routers:
    (1/5) * sum_m 3 * sum_s f_{m,s} * p_{m,s}."""
    f_sub = np.asarray(f_sub, dtype=float).reshape(N_EXPERTS, N_SUB)
    p_sub = np.asarray(p_sub, dtype=float).reshape(N_EXPERTS, N_SUB)
    return float(np.mean(N_SUB * (f_sub * p_sub).sum(axis=1)))


def sub_routing_stats(decision: RoutingDecision):
    """Hard selection fractions and mean soft probabilities per modality."""
    sel = decision.inner_sel.reshape(-1, N_EXPERTS)
    probs = decision.inner_probs.reshape(-1, N_EXPERTS, N_SUB)
    n = sel.shape[0]
    f_sub = np.zeros((N_EXPERTS, N_SUB))
    for m in range(N_EXPERTS):
        f_sub[m] = np.bincount(sel[:, m], minlength=N_SUB) / n
    return f_sub, probs.mean(axis=0)


def flow_matching_loss(pred, x0, x1) -> float:
    """MSE against the straight-path velocity target x1 - x0."""
    pred = np.asarray(pred, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if not (pred.shape == x0.shape == x1.shape):
        raise ShapeMismatch("pred/x0/x1 shapes differ")
    v = x1 - x0
    return float(np.mean((pred - v) ** 2))


@dataclass(frozen=True)
class LossWeights:
    lam_kp: float = 0.01
    lam_src: float = 0.005
    lam_cp: float = 0.01
    lam_sub: float = 0.005

    def __post_init__(self):
        for name in ("lam_kp", "lam_src", "lam_cp", "lam_sub"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise InvalidParams(f"{name} must be finite and >= 0, got {value}")


def total_loss(flow, kp, src, cp, sub, weights: LossWeights = LossWeights()) -> float:
    return float(flow + weights.lam_kp * kp + weights.lam_src * src
                 + weights.lam_cp * cp + weights.lam_sub * sub)


# ---------------------------------------------------------------------------
# Analytic gradients + finite-difference verification

FD_EPS = 1e-5  # the finite-difference check's step


def cp_loss_grad(tokens: np.ndarray, state: PredictorState, A: np.ndarray):
    """d cp_loss / d (w, b) for z = tokens @ w + b."""
    tok = tokens.reshape(-1, tokens.shape[-1])
    A = np.asarray(A, dtype=float).reshape(-1, N_EXPERTS)
    z = predictor_logits(state, tok)
    dz = (_sigmoid(z) - A) / z.size
    return tok.T @ dz, dz.sum(axis=0)


def _softmax_backprop(P_flat, dP_mean):
    """Gradient w.r.t. logits for L depending on mean-over-tokens softmax.

    P_flat: (N, 5); dP_mean: (5,) = dL / d(mean P). Returns dL/dz (N, 5)."""
    n = P_flat.shape[0]
    g = dP_mean / n
    inner = (P_flat * g).sum(axis=1, keepdims=True)
    return P_flat * (g - inner)


def kp_alb_grad(field_tokens, c_action, t_embed, outer_w, outer_b, token_w,
                prior: PhysicalPrior):
    """d kp_alb / d (outer_w, outer_b, token_w), with the top-1 fractions f
    treated as locally constant (they are piecewise constant in the params)."""
    tok = field_tokens.reshape(-1, field_tokens.shape[-1])
    ce = np.concatenate([c_action, t_embed])
    z = ce @ outer_w + outer_b + tok @ token_w
    P = softmax(z)
    stats = routing_stats(P)
    dPbar = 2.0 / N_EXPERTS * (stats.load - prior.pi) * stats.f
    dz = _softmax_backprop(P, dPbar)
    g_outer_w = np.outer(ce, dz.sum(axis=0))
    g_outer_b = dz.sum(axis=0)
    g_token_w = tok.T @ dz
    return g_outer_w, g_outer_b, g_token_w


def src_loss_grad(tokens_seq: np.ndarray, state: PredictorState,
                  m_tool: np.ndarray):
    """d src_loss / d (w, b) where R_t = sigmoid(tokens_t @ w + b).

    tokens_seq: (T, H', W', C); m_tool: (T, H', W')."""
    T = tokens_seq.shape[0]
    tok = tokens_seq.reshape(T, -1, tokens_seq.shape[-1])
    mask = np.asarray(m_tool, dtype=float).reshape(T, -1)
    gw = np.zeros_like(state.w)
    gb = np.zeros_like(state.b)
    if T < 2:
        return gw, gb
    denom = N_EXPERTS * mask[1:].sum()
    if denom == 0:
        return gw, gb
    z = predictor_logits(state, tok)  # (T, N, 5)
    R = _sigmoid(z)
    dR = np.zeros_like(R)
    for t in range(1, T):
        d = 2.0 * mask[t][:, None] * (R[t] - R[t - 1]) / denom
        dR[t] += d
        dR[t - 1] -= d
    dz = dR * R * (1 - R)
    for t in range(T):
        gw += tok[t].T @ dz[t]
        gb += dz[t].sum(axis=0)
    return gw, gb


def _kp_alb_evaluator(tokens, c_action, t_embed, prior: PhysicalPrior):
    """kp_alb_loss of `outer_gate`'s per-token probabilities as a function of
    {"outer_w", "outer_b", "token_w"}, evaluated expert-major (see the
    module docstring)."""
    ce = np.concatenate([c_action, t_embed])
    n = tokens.size // tokens.shape[-1]
    z = np.empty((N_EXPERTS, n))  # logits, then probabilities
    rows = list(z)  # one view per expert
    col = np.empty(n)
    acc = np.empty_like(z)
    per_token = np.empty_like(z)  # expert-major tokens @ token_w
    formed_from = [None]  # the token_w bytes per_token holds the product of
    seen = {}  # (token_w bytes, logits bytes) -> loss

    def loss(arrs):
        key = arrs["token_w"].tobytes()
        logits = ce @ arrs["outer_w"] + arrs["outer_b"]
        inputs = (key, logits.tobytes())
        if inputs in seen:
            return seen[inputs]
        if key != formed_from[0]:
            formed_from[0] = key
            product = tokens @ arrs["token_w"]  # outer_gate's matmul
            np.copyto(per_token, product.reshape(n, N_EXPERTS).T)
        np.add(per_token, logits[:, None], out=z)
        np.subtract(z, fold(np.maximum, rows, out=col), out=z)
        np.exp(z, out=z)
        np.divide(z, fold(np.add, rows, out=col), out=z)
        f = np.bincount(argmax(rows), minlength=N_EXPERTS) / n
        Pbar = np.add.accumulate(z, axis=1, out=acc)[:, -1] / n
        seen[inputs] = kp_alb_loss(RoutingStats(f=f, Pbar=Pbar, load=f * Pbar),
                                   prior)
        return seen[inputs]

    return loss


def _column_cache(cols, compute):
    """Keep each of the five expert columns `cols[j]` (buffers) up to date
    with the parameters (w[:, j], b[j]) of a predictor loss; returns
    update(arrs, z), which takes the product z = tokens @ w, adds b[j] to
    column j and calls compute(z, j, cols[j]) only for the columns whose
    parameters changed since the last call. The first call's columns are
    kept as the base, and a column whose parameters return to the base is
    restored from that copy."""
    keys = [None] * N_EXPERTS  # the parameter bytes each column was formed at
    base_keys, base = [], []

    def update(arrs, z):
        w, b = arrs["w"], arrs["b"]
        for j in range(N_EXPERTS):
            key = w[:, j].tobytes() + b[j:j + 1].tobytes()
            if key == keys[j]:
                continue
            if base_keys and key == base_keys[j]:
                np.copyto(cols[j], base[j])
            else:
                z[..., j] += b[j]  # as predictor_logits adds it
                compute(z, j, cols[j])
            keys[j] = key
        if not base_keys:
            base_keys.extend(keys)
            base.extend(col.copy() for col in cols)

    return update


def _src_evaluator(tok_seq, m_tool):
    """src_loss(_sigmoid(predictor_logits(...)), m_tool) as a function of
    {"w", "b"}; one product `tokens @ w` per evaluation, and the bias and
    the squared time difference only for the changed columns (see the module
    docstring)."""
    m_tool = np.asarray(m_tool, dtype=float)
    if tok_seq.shape[:-1] != m_tool.shape:
        raise ShapeMismatch(f"tokens {tok_seq.shape} vs mask {m_tool.shape}")
    mask = m_tool[1:]
    denom = N_EXPERTS * mask.sum()
    R, e = np.empty(m_tool.shape), np.empty(m_tool.shape)
    sq = np.empty((N_EXPERTS,) + mask.shape)  # expert-major squared differences
    diff2 = np.empty(mask.shape)

    def compute(z, j, col):
        _sigmoid(z[..., j], out=R, e=e)
        np.subtract(R[1:], R[:-1], out=col)
        np.square(col, out=col)

    update = _column_cache(sq, compute)

    def loss(arrs):
        z = tok_seq @ arrs["w"]
        if denom == 0:  # also for T < 2, where the mask is empty
            return 0.0
        update(arrs, z)
        return _src_sum(sq, mask, denom, diff2)

    return loss


def _cp_evaluator(tokens, A):
    """cp_loss(predictor_logits(...), A) as a function of {"w", "b"}; one
    product `tokens @ w` per evaluation, and the bias and the BCE terms only
    for the changed columns (see the module docstring)."""
    A = np.asarray(A, dtype=float)
    if tokens.shape[:-1] + (N_EXPERTS,) != A.shape:
        raise ShapeMismatch(f"tokens {tokens.shape} vs mask {A.shape}")
    per, tmp = np.empty(A.shape), np.empty(A.shape[:-1])

    def compute(z, j, col):
        _cp_terms(z[..., j], A[..., j], col, tmp)

    update = _column_cache([per[..., j] for j in range(N_EXPERTS)], compute)

    def loss(arrs):
        update(arrs, tokens @ arrs["w"])
        return float(per.mean())

    return loss


def finite_difference_grad(loss_fn, arrays: dict) -> dict:
    """Central finite differences of step FD_EPS of loss_fn over a dict of
    parameter arrays.

    loss_fn is called with float64 copies of the arrays, one entry of which
    is perturbed; the caller's arrays are never written."""
    params = {name: np.array(arr, dtype=float) for name, arr in arrays.items()}
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + FD_EPS
            f_plus = loss_fn(params)
            arr[idx] = orig - FD_EPS
            f_minus = loss_fn(params)
            arr[idx] = orig
            g[idx] = (f_plus - f_minus) / (2 * FD_EPS)
        grads[name] = g
    return grads


def grad_check(loss_fn, arrays: dict, analytic: dict) -> float:
    """Max relative error |g_a - g_fd| / max(1, |g_a|, |g_fd|) over all params."""
    fd = finite_difference_grad(loss_fn, arrays)
    worst = 0.0
    for name, ga in analytic.items():
        ga = np.asarray(ga, dtype=float)
        gf = fd[name]
        if not (np.all(np.isfinite(ga)) and np.all(np.isfinite(gf))):
            raise NonFiniteGradient(f"non-finite gradient for {name}")
        rel = np.abs(ga - gf) / np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gf)))
        worst = max(worst, float(rel.max()))
    return worst

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
once, and return the bits of each loss's plain numpy form on fresh arrays
(the reference forms that `tests/reference_losses.py` holds).

Distinct rows. Routing pools every block with no tool pixel to one constant
token row, so most token rows repeat bit for bit: at 256 x 256 (T=4, seed
1), the evaluators keep 463 of the last frame's 4096 rows, 1,963 of 16,384
over all frames and 1,690 of src's 12,288 triples (below). Each evaluator does its per-token work once per distinct
row and expands to every token only where a reduction needs every position:

- `_distinct_rows` compares each row with the reference row, the first
  token's, through a uint64 view of its bits. A row equal to it maps to
  entry 0; any other row keeps its own entry, even where it repeats another.
  This needs no sort and assumes nothing about the input: a grid whose
  first token is on the tool gains little, but stays exact.
- The key of a row holds all that its per-token values depend on: the token
  row for kp and src, the token row and its `A` row for cp. src works on
  (row at t, row at t-1, mask at t) triples, keyed the same way.
- Every step from the product to the per-token terms is per row: the
  product, the bias, the softmax or sigmoid, the top-1 choice, the squared
  time difference and the BCE terms. So a distinct row gets the bits each
  of its copies gets.
- The row property (pinned by `test_field`): each row of an (m, C) @ (C, 5)
  product with m >= 2 has the bits it has in any longer product that holds
  it. numpy multiplies a (..., W', C) @ (C, 5) grid one W'-row matrix at a
  time, so for W' >= 2 the distinct rows are one product of at least two
  rows (a lone row is repeated), and for W' = 1, where each token is a
  one-row product whose bits differ from a GEMM's, one-row products
  (m, 1, C) @ (C, 5). `_row_product` picks the form.
- Three reductions keep every position, each fed by one gather
  (`np.take`) from the distinct rows' values: cp's mean over the
  (H', W', 5) terms, src's masked sum over (T-1, H', W'), and
  kp's `Pbar`, the sequential sum over all N tokens. kp's
  top-1 count is a `bincount` weighted by each row's copies; the counts are
  exact integers, so `/ n` gives the bits of the count of every token. The
  gathers use `mode="clip"`, which numpy does not buffer; every index is in
  range.

The other steps:

- Every step but the reductions is elementwise, so it gives the same bits in
  any layout and written into any buffer.
- The cp mean and the src sum are `np.add.reduce(x, axis=None)`, divided by
  the size for the mean: what `ndarray.mean` and `ndarray.sum` compute,
  without their Python wrappers. `kp_alb_loss` takes its mean the same way.
- `_kp_alb_evaluator` keeps the routing logits expert-major, (5, m), so each
  expert is one contiguous row. The softmax's max and sum and the top-1
  choice are each one reduction over axis 0 (`np.maximum.reduce`,
  `np.add.reduce`, `argmax`), which numpy forms row by row in expert order,
  and they have the bits of the `_columns` folds over the five rows
  (pinned by `test_properties`). max and argmax do not round, and numpy's
  argmax keeps the first maximum, as `_columns.argmax` does. The sum starts
  from row 0 where the fold starts from row 0 + 0.0; the two differ only
  for a -0.0 in row 0, and exp gives none. `Pbar` adds
  each expert's probabilities token after token: numpy's `mean(axis=0)` of
  a C-contiguous (N, 5) array adds its rows in the same sequence. The five
  sums run two to an add (`_columns.lane_sums`): two strided copies put
  expert k's (m,) probabilities in lane k % 2 of row k // 2 of a zeroed
  complex128 (3, m) buffer, whose last lane stays zero and is never read;
  one gather expands it to (3, N) and one complex accumulate sums it, each
  lane with the bits of its own float64 accumulate. `Pbar` is the first
  five lanes of the last column, divided by N. The
  product with `token_w` does not change with `outer_w` or `outer_b`, so it
  is kept from the last evaluation with the same `token_w`. The loss is a
  function of the `token_w` bytes and the five logits
  `concat(c_action, t_embed) @ outer_w + outer_b` alone, so each result is
  kept keyed on those two byte strings: a step on an `outer_w` row whose
  embedding entry is about 1e-16 (the sin entries of `timestep_embed(0.5)`)
  leaves the logits unchanged, and 74 of the 411 evaluations of `losses` on
  a 256 x 256, T=4 synth trajectory (seed 1) repeat an earlier input.
- `_src_evaluator` and `_cp_evaluator` recompute only the expert columns
  whose parameters changed. Each check perturbs one entry of `w[:, k]` or
  `b[k]`, so only logit column k changes. Each evaluation forms the product
  once, as `predictor_logits` does, and adds `b[j]` in place to the columns
  it recomputes only: `predictor_logits` adds `b` a column at a time, so
  column j gets the same addition. Logit column j of the product depends
  only on `w[:, j]`; with `b[j]` added, on nothing else. The sigmoid, the
  time difference and the BCE terms are elementwise, so a column view gives
  the bits that column gets in the (..., 5) array. Each column's work (the
  squared time difference per triple for src; the BCE terms, gathered to
  every token, for cp) is kept with the bytes of `w[:, j]` and `b[j]` it
  was formed from, all five keys cut from one `tobytes` per evaluation; the
  first evaluation's columns are kept as the base, and a column whose
  parameters return to the base is restored from that copy.
  src then folds the five columns in expert order with `_columns.fold` and
  multiplies by the mask per triple (`_masked_diff2`) before the gather, and cp takes the mean of the full (H', W', 5) buffer,
  so the reductions see the same values in the same order. The result does
  not depend on the order of the calls: a column whose bytes differ is
  recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._columns import argmax, columns, fold, lane_sums
from .errors import InvalidParams, NonFiniteGradient
from .kva_field import MODALITY_CHANNELS
from .routing import INIT_SCALE, N_EXPERTS, N_SUB, RoutingDecision, softmax


@dataclass(frozen=True)
class RoutingStats:
    """Realized tier-1 routing load: l_i = f_i * Pbar_i."""

    f: np.ndarray  # fraction of tokens whose top-1 pick is expert i
    load: np.ndarray  # f times the mean soft probability per expert


def routing_stats(P: np.ndarray) -> RoutingStats:
    flat = P.reshape(-1, N_EXPERTS)
    top1 = argmax(columns(flat))
    f = np.bincount(top1, minlength=N_EXPERTS) / flat.shape[0]
    Pbar = flat.mean(axis=0)
    return RoutingStats(f=f, load=f * Pbar)


def physical_prior(pooled: np.ndarray) -> np.ndarray:
    """The (5,) physical target pi of one frame's field pooled to the router
    grid: the normalized token mean of the modality energies
    e = [||sem||_2, |dep|, |rot|, ||vel||_2, |acc|] per token (uniform if
    the field is all zero).
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
        return np.full(N_EXPERTS, 1.0 / N_EXPERTS)
    return energy / total


def kp_alb_loss(stats: RoutingStats, pi: np.ndarray) -> float:
    """Mean squared gap between realized load and the physical target pi.

    The target is a constant for gradient purposes (stop-gradient)."""
    gap2 = (stats.load - pi) ** 2
    return float(np.add.reduce(gap2, axis=None) / gap2.size)  # np.mean's bits


def _masked_diff2(cols, mask, out):
    """mask times the squared time difference summed over the experts, from
    its five expert columns (each of the mask's shape) folded in expert
    order, formed in the buffer out; returns out."""
    fold(np.add, cols, out=out)
    return np.multiply(mask, out, out=out)


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


def _cp_terms(z, A, per, tmp):
    """The cp loss's terms, BCE with logits z against the (detached) routing
    mask A in the stable form max(z, 0) - z * A + log1p(exp(-|z|)), formed
    in per with tmp as scratch, both buffers of z's shape; returns per."""
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
    which the cp loss compares with the routing mask."""

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
    """d cp / d (w, b) for z = tokens @ w + b: the mean of `_cp_terms`."""
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
                pi: np.ndarray):
    """d kp_alb / d (outer_w, outer_b, token_w), with the top-1 fractions f
    treated as locally constant (they are piecewise constant in the params)."""
    tok = field_tokens.reshape(-1, field_tokens.shape[-1])
    ce = np.concatenate([c_action, t_embed])
    z = ce @ outer_w + outer_b + tok @ token_w
    P = softmax(z)
    stats = routing_stats(P)
    dPbar = 2.0 / N_EXPERTS * (stats.load - pi) * stats.f
    dz = _softmax_backprop(P, dPbar)
    g_outer_w = np.outer(ce, dz.sum(axis=0))
    g_outer_b = dz.sum(axis=0)
    g_token_w = tok.T @ dz
    return g_outer_w, g_outer_b, g_token_w


def src_loss_grad(tokens_seq: np.ndarray, state: PredictorState,
                  m_tool: np.ndarray):
    """d src / d (w, b) where R_t = sigmoid(tokens_t @ w + b) (see
    `_src_evaluator`).

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


def _distinct_rows(keys):
    """(first, inverse) of the rows of a 2-D array `keys`, compared bit for
    bit with the reference row, row 0: `first` lists row 0 and then each row
    that differs from it, and row i is row `first[inverse[i]]`. A row that
    differs from row 0 keeps its own entry even where it repeats another."""
    bits = np.ascontiguousarray(keys).view(np.uint64)
    other = (bits != bits[0]).any(axis=1)
    inverse = np.cumsum(other)
    inverse[~other] = 0
    return np.concatenate(([0], np.flatnonzero(other))), inverse


def _flat_rows(a):
    """The rows of an (..., k) array as one (n, k) float64 array."""
    a = np.asarray(a, dtype=float)
    return a.reshape(-1, a.shape[-1])


def _row_product(rows, w, one_row):
    """rows @ w, each row with the bits it has in the token grid's product
    `tokens @ w`: as one-row products where the grid's W' is 1 (`one_row`),
    since numpy multiplies one W'-row matrix at a time, and otherwise as one
    product of at least two rows (see the module docstring)."""
    if one_row:
        return (rows[:, None] @ w)[:, 0]
    if len(rows) == 1:
        return (np.repeat(rows, 2, axis=0) @ w)[:1]
    return rows @ w


def _kp_alb_evaluator(tokens, c_action, t_embed, pi):
    """kp_alb_loss of `outer_gate`'s per-token probabilities as a function of
    {"outer_w", "outer_b", "token_w"}, evaluated expert-major on the distinct
    token rows (see the module docstring)."""
    ce = np.concatenate([c_action, t_embed])
    tok = _flat_rows(tokens)
    first, inverse = _distinct_rows(tok)
    rows = tok[first]
    one_row = tokens.shape[-2] == 1
    copies = np.bincount(inverse).astype(float)  # tokens per distinct row
    n = len(inverse)
    z = np.empty((N_EXPERTS, len(first)))  # logits, then probabilities
    col = np.empty(len(first))
    per_token = np.empty_like(z)  # expert-major rows @ token_w
    # expert k's probabilities in lane k % 2 of row k // 2 (see
    # `_columns.lane_sums`), per distinct row, then per token; the last
    # row's second lane stays zero
    lanes = np.zeros(((N_EXPERTS + 1) // 2, len(first)), dtype=np.complex128)
    P = np.empty((len(lanes), n), dtype=np.complex128)
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
            np.copyto(per_token, _row_product(rows, arrs["token_w"], one_row).T)
        np.add(per_token, logits[:, None], out=z)
        np.subtract(z, np.maximum.reduce(z, axis=0, out=col), out=z)
        np.exp(z, out=z)
        np.divide(z, np.add.reduce(z, axis=0, out=col), out=z)
        f = np.bincount(z.argmax(axis=0), copies, minlength=N_EXPERTS) / n
        np.copyto(lanes.real, z[0::2])
        np.copyto(lanes.imag[:N_EXPERTS // 2], z[1::2])
        np.take(lanes, inverse, axis=1, out=P, mode="clip")
        Pbar = lane_sums(P)[:N_EXPERTS] / n
        seen[inputs] = kp_alb_loss(RoutingStats(f=f, load=f * Pbar), pi)
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
        # column j's key is the bytes of w[:, j] and then b[j]: one row of
        # the expert-major (5, C + 1) copy of (w; b)
        wb = np.concatenate((w, b[None])).T.tobytes()
        size = len(wb) // N_EXPERTS
        for j in range(N_EXPERTS):
            key = wb[j * size:(j + 1) * size]
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
    """The src loss of R = _sigmoid(predictor_logits(...)) as a function of
    {"w", "b"}: the masked, normalized temporal squared difference
    sum(m_tool[t] * ||R[t] - R[t-1]||^2) / (5 * sum(m_tool[t])) over t >= 1,
    zero for T = 1 or an empty mask there. tok_seq: (T, H', W', C); m_tool:
    (T, H', W'). One product per evaluation on the distinct token rows, the
    sigmoid for the changed column on those rows, and the squared time
    difference for that column on the distinct (row at t, row at t-1, mask
    at t) triples (see the module docstring)."""
    m_tool = np.asarray(m_tool, dtype=float)
    mask = m_tool[1:]
    denom = N_EXPERTS * mask.sum()
    if denom == 0:  # also for T < 2, where the mask is empty
        return lambda arrs: 0.0
    tok = _flat_rows(tok_seq)
    first, inverse = _distinct_rows(tok)
    rows = tok[first]
    one_row = tok_seq.shape[-2] == 1
    inverse = inverse.reshape(len(m_tool), -1)
    pair_first, pair_inverse = _distinct_rows(np.stack([
        inverse[1:].ravel(), inverse[:-1].ravel(),
        np.ascontiguousarray(mask).ravel().view(np.int64)], axis=1))
    now = inverse[1:].ravel()[pair_first]
    before = inverse[:-1].ravel()[pair_first]
    pair_mask = mask.ravel()[pair_first]
    pair_inverse = pair_inverse.reshape(mask.shape)
    R, e = np.empty(len(first)), np.empty(len(first))
    R_before = np.empty(len(pair_first))
    sq = np.empty((N_EXPERTS, len(pair_first)))  # expert-major, per triple
    pair_diff2, diff2 = np.empty(len(pair_first)), np.empty(mask.shape)

    def compute(z, j, col):
        _sigmoid(z[:, j], out=R, e=e)
        np.subtract(np.take(R, now, out=col, mode="clip"),
                    np.take(R, before, out=R_before, mode="clip"), out=col)
        np.square(col, out=col)

    update = _column_cache(sq, compute)

    def loss(arrs):
        update(arrs, _row_product(rows, arrs["w"], one_row))
        _masked_diff2(sq, pair_mask, pair_diff2)
        np.take(pair_diff2, pair_inverse, out=diff2, mode="clip")
        return float(np.add.reduce(diff2, axis=None) / denom)

    return loss


def _cp_evaluator(tokens, A):
    """The cp loss, the mean of `_cp_terms` of predictor_logits(...) against
    the (H', W', 5) routing mask A, as a function of {"w", "b"}; one product
    per evaluation and the BCE terms for the changed column, both on the
    distinct (token row, A row) pairs, and that column gathered to every
    token (see the module docstring)."""
    A = np.asarray(A, dtype=float)
    tok, A_flat = _flat_rows(tokens), A.reshape(-1, N_EXPERTS)
    first, inverse = _distinct_rows(np.concatenate([tok, A_flat], axis=1))
    rows, A_rows = tok[first], A_flat[first]
    one_row = tokens.shape[-2] == 1
    per_row, tmp = np.empty(len(first)), np.empty(len(first))
    per = np.empty(A.shape)

    def compute(z, j, col):
        _cp_terms(z[:, j], A_rows[:, j], per_row, tmp)
        np.take(per_row, inverse, out=col, mode="clip")

    update = _column_cache(columns(per.reshape(-1, N_EXPERTS)), compute)

    def loss(arrs):
        update(arrs, _row_product(rows, arrs["w"], one_row))
        return float(np.add.reduce(per, axis=None) / per.size)

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

"""Two-tier mixture-of-experts conditioning over the 9-channel control field.

Tier 1 gates five modality experts (semantics / depth / rotation / velocity /
acceleration), each structurally restricted to its own channels. Tier 2 picks
a motion-scale sub-expert (fine / transport / skip) per token inside each
modality. Fusion follows a dense -> sparse top-k capacity schedule.

`route_forward` decides: it takes one frame's pooled (H', W', 9) grid,
embeds the tokens, runs the outer gate, top-k and the capacity blend, and
lifts and inner-gates each modality. The caller pools with `avg_pool`, so a
caller that knows where the tool is can paint and pool only the blocks that
hold it from the part labels of a compact lift (see `cli._pooled_grids`).
No expert or sub-expert output is computed: every CLI artefact reads the
gates only, as a sparse mixture of experts computes only the experts its
gates select.

The short expert, sub-expert and block axes are reduced a column at a time
by `_columns.fold` and `_columns.argmax`, with numpy's bits (see there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._columns import argmax, columns, fold
from .errors import InvalidParams, ShapeMismatch
from .kva_field import MODALITIES, MODALITY_CHANNELS

N_EXPERTS = 5
N_SUB = 3
FINE, TRANSPORT, SKIP = 0, 1, 2
T_EMBED_DIM = 8
INIT_SCALE = 0.3  # initial weights are drawn with std INIT_SCALE / sqrt(fan-in)


@dataclass(frozen=True)
class CapacitySchedule:
    """Dense fusion until dense_end, sparse top-k from sparse_start on,
    linear blend in between."""

    dense_end: float = 0.40
    sparse_start: float = 0.75
    k: int = 2

    def __post_init__(self):
        if not (0 <= self.dense_end < self.sparse_start <= 1):
            raise InvalidParams("need 0 <= dense_end < sparse_start <= 1")
        if not (1 <= self.k <= N_EXPERTS):
            raise InvalidParams(f"k must be in [1, {N_EXPERTS}]")

    def blend_factor(self, progress: float) -> float:
        if not (0 <= progress <= 1):
            raise InvalidParams(f"progress must be in [0, 1], got {progress}")
        if progress < self.dense_end:
            return 0.0
        if progress >= self.sparse_start:
            return 1.0
        return (progress - self.dense_end) / (self.sparse_start - self.dense_end)


@dataclass
class GateParams:
    """The two-tier router's gate weights (plain numpy arrays): the shared
    and per-modality lifts, the outer gate and the inner gates. There are no
    sub-expert weights, since no sub-expert output is computed."""

    lift_w: np.ndarray  # (9, C) shared action lift
    lift_b: np.ndarray  # (C,)
    outer_w: np.ndarray  # (C + T_EMBED_DIM, 5)
    outer_b: np.ndarray  # (5,)
    token_w: np.ndarray  # (C, 5) per-token refinement of the global gate
    mod_lift_w: dict  # modality -> (n_ch, C)
    mod_lift_b: dict  # modality -> (C,)
    inner_w: dict  # modality -> (C, 3)
    inner_b: dict  # modality -> (3,)


def _check_token_dim(c):
    if c < 1:
        raise InvalidParams(f"token dimension must be >= 1, got {c}")


def _check_stride(stride):
    if stride < 1:
        raise InvalidParams(f"stride must be >= 1, got {stride}")


def init_gate_params(seed=0, c=16) -> GateParams:
    _check_token_dim(c)
    rng = np.random.default_rng(seed)

    def lin(n_in, n_out):
        return rng.normal(0.0, INIT_SCALE / np.sqrt(n_in), size=(n_in, n_out))

    return GateParams(
        lift_w=lin(9, c),
        lift_b=np.zeros(c),
        outer_w=lin(c + T_EMBED_DIM, N_EXPERTS),
        outer_b=np.zeros(N_EXPERTS),
        token_w=lin(c, N_EXPERTS),
        mod_lift_w={m: lin(len(MODALITY_CHANNELS[m]), c) for m in MODALITIES},
        mod_lift_b={m: np.zeros(c) for m in MODALITIES},
        inner_w={m: lin(c, N_SUB) for m in MODALITIES},
        inner_b={m: np.zeros(N_SUB) for m in MODALITIES},
    )


@dataclass(frozen=True)
class RoutingDecision:
    """Everything the gates decided for one frame's token grid; the gate
    fields, A to inner_probs, are None where `route_forward` skipped the
    gates."""

    A: np.ndarray | None  # (H', W', 5) binary top-k mask
    fusion_w: np.ndarray | None  # (H', W', 5) capacity-blended fusion weights
    inner_sel: np.ndarray | None  # (H', W', 5) argmax sub-expert per modality
    inner_probs: np.ndarray | None  # (H', W', 5, 3) full tier-2 distributions
    tokens: np.ndarray  # (H', W', C) shared action tokens
    c_action: np.ndarray  # (C,) pooled gate feature


def timestep_embed(t: float) -> np.ndarray:
    """Sinusoidal features of a scalar timestep in [0, 1]."""
    if not (0 <= t <= 1):
        raise InvalidParams(f"timestep must be in [0, 1], got {t}")
    freqs = 2.0 ** np.arange(T_EMBED_DIM // 2)
    ang = 2 * np.pi * freqs * t
    return np.concatenate([np.sin(ang), np.cos(ang)])


def avg_pool(x: np.ndarray, stride: int) -> np.ndarray:
    """Non-overlapping average pooling over the two leading spatial dims.

    The block is folded in row-major order (see `_columns`): the same bits
    as `reshape(...).mean(axis=(1, 3))` for a channel-last x with at least 2
    channels. For a 2-D x numpy may sum in another order; any order is exact
    for the 0/1 tool masks pooled here. The fold costs stride**2 elementwise
    passes over the output, so from stride 32 up it is slower than numpy's
    mean; no benchmark workload and no golden case pools that coarsely."""
    _check_stride(stride)
    h, w = x.shape[:2]
    if h % stride or w % stride:
        raise ShapeMismatch(f"stride {stride} does not divide the {h}x{w} "
                            "frame")
    v = x.reshape(h // stride, stride, w // stride, stride, *x.shape[2:])
    out = fold(np.add, (v[:, a, :, b] for a in range(stride)
                        for b in range(stride)))
    out /= stride * stride
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = z - fold(np.maximum, columns(z))[..., None]
    np.exp(e, out=e)
    e /= fold(np.add, columns(e))[..., None]
    return e


def outer_gate(c_action, t_embed, params: GateParams, tokens):
    """Global modality gate, additively refined per token."""
    logits = np.concatenate([c_action, t_embed]) @ params.outer_w + params.outer_b
    per_token = tokens @ params.token_w
    per_token += logits
    return softmax(per_token)


def topk_select(P: np.ndarray, k: int) -> np.ndarray:
    """Binary mask of the k largest entries per token, 1 <= k <= 5
    (`CapacitySchedule` bounds it); ties go to the lowest expert index."""
    order = np.argsort(-P, axis=-1, kind="stable")
    A = np.zeros_like(P)
    np.put_along_axis(A, order[..., :k], 1.0, axis=-1)
    return A


def capacity_blend(P, A, progress: float, sched: CapacitySchedule) -> np.ndarray:
    """fusion_w = (1 - lam) * P + lam * renormalized(P * A)."""
    masked = P * A
    S = masked / fold(np.add, columns(masked))[..., None]
    lam = sched.blend_factor(progress)
    return (1 - lam) * P + lam * S


def inner_gate(modality_tokens: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Top-1 fine/transport/skip selection and the full distributions."""
    probs = softmax(modality_tokens @ w + b)
    # first max wins: fine < transport < skip
    return argmax(columns(probs)), probs


def _modality_tokens(field_pooled, params: GateParams, m: str):
    """One modality's channels of the pooled field, lifted to C dims."""
    x = field_pooled[..., MODALITY_CHANNELS[m]]
    return x @ params.mod_lift_w[m] + params.mod_lift_b[m]


def route_forward(pooled: np.ndarray, params: GateParams, progress: float,
                  t_embed, sched: CapacitySchedule | None = None, *,
                  gates: bool = True):
    """Two-tier gating of one frame's pooled (H', W', 9) grid: the grid and
    its routing decision. The pair is returned for perfbench's tracer, which
    counts the tokens of the decision it finds second.

    With `gates=False` only the action tokens and `c_action` are formed, and
    the decision's gate fields are None. `cli` passes it for the frames whose
    gates no artefact reads: `losses` alone reads every frame's tokens but
    only the last frame's gates."""
    sched = sched or CapacitySchedule()
    tokens = pooled @ params.lift_w + params.lift_b  # shared action lift
    c_action = tokens.mean(axis=(0, 1))
    if not gates:
        return pooled, RoutingDecision(A=None, fusion_w=None, inner_sel=None,
                                       inner_probs=None, tokens=tokens,
                                       c_action=c_action)
    P = outer_gate(c_action, t_embed, params, tokens)
    A = topk_select(P, sched.k)
    fusion_w = capacity_blend(P, A, progress, sched)

    hp, wp = tokens.shape[:2]
    inner_sel = np.zeros((hp, wp, N_EXPERTS), dtype=int)
    inner_probs = np.zeros((hp, wp, N_EXPERTS, N_SUB))
    for i, m in enumerate(MODALITIES):
        inner_sel[..., i], inner_probs[..., i, :] = inner_gate(
            _modality_tokens(pooled, params, m), params.inner_w[m],
            params.inner_b[m])

    decision = RoutingDecision(A=A, fusion_w=fusion_w, inner_sel=inner_sel,
                               inner_probs=inner_probs, tokens=tokens,
                               c_action=c_action)
    return pooled, decision


"""Reference forms of the two predictor losses that `losses` reports through
the grad check's evaluators (`priors._src_evaluator`, `priors._cp_evaluator`),
and of the src loss's analytic gradient (`priors.src_loss_grad`).

Each loss is written as plain numpy on fresh arrays; the evaluators must
return its bits (`test_properties`), and `test_priors` and `test_acceptance`
check it against scalar oracles. The gradient is written one frame at a
time, as `losses` formed it before it took the frames whole; the array form
must return its bits (`test_properties`).
"""

import numpy as np

from kvacontrol.priors import _sigmoid, predictor_logits

N_EXPERTS = 5


def src_loss(R, m_tool):
    """Masked, normalized temporal squared difference of routing
    probabilities. R: (T, H', W', 5); m_tool: (T, H', W'). Zero for T = 1 or
    an empty mask over frames t >= 1."""
    R = np.asarray(R, dtype=float)
    m_tool = np.asarray(m_tool, dtype=float)
    if R.shape[0] < 2:
        return 0.0
    diff = R[1:] - R[:-1]
    diff2 = (diff * diff).sum(axis=-1)
    mask = m_tool[1:]
    denom = N_EXPERTS * mask.sum()
    if denom == 0:
        return 0.0
    return float((mask * diff2).sum() / denom)


def cp_loss(z, A):
    """BCE with logits z against the (detached) routing mask A, in the
    stable form max(z, 0) - z * A + log1p(exp(-|z|)), averaged."""
    z = np.asarray(z, dtype=float)
    A = np.asarray(A, dtype=float)
    per = np.maximum(z, 0) - z * A + np.log1p(np.exp(-np.abs(z)))
    return float(per.mean())


def src_loss_grad(tokens_seq, state, m_tool):
    """d src / d (w, b), the time differences and the per-frame products
    and sums taken one frame at a time."""
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

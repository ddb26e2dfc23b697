"""Reference forms of the two predictor losses that `losses` reports through
the grad check's evaluators (`priors._src_evaluator`, `priors._cp_evaluator`).

Each is the loss written as plain numpy on fresh arrays; the evaluators must
return its bits (`test_properties`), and `test_priors` and `test_acceptance`
check it against scalar oracles.
"""

import numpy as np

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

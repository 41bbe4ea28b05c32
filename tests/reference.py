"""Reference implementations kept verbatim from the first version of the
package, before the enumeration oracle and the augmentation-consistency
diagnostic were fused into one pass over one similarity matrix.

They are deliberately slow and wasteful (two encodes, a boolean n*K x n*K
mask, a per-sample loop) and serve only as the yardstick the fused kernel
is tested against.
"""

import numpy as np

from gcobench import encoder
from gcobench.embed_core import AugmentationFamily, Dataset, all_views
from gcobench.objective import (ORACLE_GUARD, GlobalObjectiveConfig,
                                OracleSizeError)


def _oracle_core(params, cfg: GlobalObjectiveConfig, ds: Dataset,
                 fam: AugmentationFamily, want_grad: bool):
    n, K = ds.n, fam.K
    if n * K > ORACLE_GUARD:
        raise OracleSizeError(f"oracle enumeration needs n*K <= {ORACLE_GUARD}, got {n * K}")
    X = all_views(ds, fam)
    E, cache = encoder.encode_batch(params, X)
    S = E @ E.T
    block = np.repeat(np.arange(n), K)
    same = block[:, None] == block[None, :]
    neg_exp = np.where(same, 0.0, np.exp(S / cfg.tau))
    set_size = (n - 1) * K
    gbar = neg_exp.sum(axis=1) / set_size            # (nK,)
    per_sample_g = gbar.reshape(n, K)
    ubar = per_sample_g.mean(axis=1)                 # (n,)

    align = -(S * same).sum() / (n * K * K)
    if cfg.version == "v1":
        contrast = cfg.tau * float(np.mean(np.log(cfg.eps0 + gbar)))
        denom_row = cfg.eps0 + gbar
    else:
        contrast = cfg.tau * float(np.mean(np.log(cfg.eps0 + ubar)))
        denom_row = cfg.eps0 + ubar[block]
    value = float(align + contrast)
    if not want_grad:
        return value, None, per_sample_g

    C = np.where(same, -1.0 / (n * K * K), 0.0)
    C += neg_exp / (denom_row[:, None] * set_size * n * K)
    cot = (C + C.T) @ E
    grad = encoder.backward_batch(params, cache, cot)
    return value, grad, per_sample_g


def aug_consistency_eps_mean(params, ds: Dataset, fam: AugmentationFamily) -> float:
    """Mean of aug_consistency_eps over all samples (one shared embedding pass)."""
    X = all_views(ds, fam)
    E, _ = encoder.encode_batch(params, X)
    n, K = ds.n, fam.K
    S = E @ E.T
    total = 0.0
    for i in range(n):
        rows = S[i * K:(i + 1) * K]
        mask = np.ones(n * K, dtype=bool)
        mask[i * K:(i + 1) * K] = False
        total += float(np.mean(2.0 * rows[:, mask].var(axis=0)))
    return total / n

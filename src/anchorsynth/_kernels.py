"""Per-position sampling kernels of the token sampler, in vectorized numpy.

``tokenflow`` calls them through this module's attributes, so a tracer can
time each kernel by swapping the attribute. They use only IEEE
add/multiply/compare, with row sums accumulated left to right by
``np.cumsum``; all transcendentals stay in the calling code.
"""

from __future__ import annotations

import numpy as np


def rate_rows(current, proposal, distances, corruption):
    """Positive-part transition weights and their row sums.

    ``rates[n, i] = corruption[n, i] * max(d(x_n, p_n) - d(i, p_n), 0)``;
    the time-derivative factor of the full jump rate is applied by the
    caller, so these weights already carry the correct relative masses.
    """
    dxp = distances[current, proposal]
    cand = distances[:, proposal].T  # cand[n, i] = d(i, proposal_n)
    gap = np.maximum(dxp[:, None] - cand, 0.0)
    rates = corruption * gap
    totals = np.cumsum(rates, axis=1)[:, -1]
    return rates, totals


def weighted_pick(weights, uniforms):
    """Row-wise categorical draw proportional to nonnegative weights.

    Inverse-CDF per row: the result is the first index whose running weight
    sum exceeds ``u * total``. Rows with no positive weight return 0; the
    caller masks those out.
    """
    v = weights.shape[1]
    cum = np.cumsum(weights, axis=1)
    thr = uniforms * cum[:, -1]
    count = np.sum(cum <= thr[:, None], axis=1)
    positive = weights > 0.0
    rev_first = np.argmax(positive[:, ::-1], axis=1)
    last = np.where(positive.any(axis=1), v - 1 - rev_first, 0)
    return np.where(count < v, count, last).astype(np.int64)

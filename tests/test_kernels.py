"""The numpy sampling kernels against plain-Python loop references.

The references accumulate each row left to right with IEEE add/multiply/
compare only, as ``np.cumsum`` does, so the kernels must match them bit for
bit, and the sampler must draw the same ids with either.
"""

import numpy as np
import pytest

from anchorsynth import _kernels
from anchorsynth.synthworld import OracleDenoiser, make_codebook
from anchorsynth.tokenflow import FlowSchedule, TokenSeq, corrupt, sample


def reference_rate_rows(current, proposal, distances, corruption):
    n, v = corruption.shape
    rates = np.zeros((n, v))
    totals = np.zeros(n)
    for i in range(n):
        dxp = distances[current[i], proposal[i]]
        s = 0.0
        for j in range(v):
            gap = dxp - distances[j, proposal[i]]
            if gap > 0.0:
                r = corruption[i, j] * gap
                rates[i, j] = r
                s += r
        totals[i] = s
    return rates, totals


def reference_weighted_pick(weights, uniforms):
    n, v = weights.shape
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        total = 0.0
        last = 0
        found = False
        for j in range(v):
            w = weights[i, j]
            if w > 0.0:
                last = j
                found = True
            total += w
        if not found:
            continue
        thr = uniforms[i] * total
        dest = last
        s = 0.0
        for j in range(v):
            s += weights[i, j]
            if s > thr:
                dest = j
                break
        out[i] = dest
    return out


def random_rate_inputs(rng, n=64, v=24):
    cb = make_codebook(v, 8, 0.2, seed=int(rng.integers(1 << 30)))
    current = rng.integers(0, v, size=n)
    proposal = rng.integers(0, v, size=n)
    corruption = rng.random((n, v))
    corruption /= corruption.sum(axis=1, keepdims=True)
    return current, proposal, cb.distances, corruption


def test_rate_rows_matches_reference_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(10):
        args = random_rate_inputs(rng)
        rates, totals = _kernels.rate_rows(*args)
        ref_rates, ref_totals = reference_rate_rows(*args)
        assert np.array_equal(rates, ref_rates)
        assert np.array_equal(totals, ref_totals)


def test_weighted_pick_matches_reference_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(10):
        weights = rng.random((128, 16))
        weights[rng.random((128, 16)) < 0.5] = 0.0  # plenty of zero entries
        weights[3] = 0.0  # a fully dead row
        uniforms = rng.random(128)
        ids = _kernels.weighted_pick(weights, uniforms)
        assert np.array_equal(ids, reference_weighted_pick(weights, uniforms))
        assert ids[3] == 0


@pytest.mark.parametrize(
    "weights, u",
    [
        # u close to 1 exercises the last-positive-index guard
        ([[0.25, 0.0, 0.75, 0.0], [0.0, 1.0, 0.0, 0.0]], 1.0 - 1e-16),
        # u = 0 puts the threshold on the running sum of leading zero weights
        ([[0.0, 0.0, 0.5, 0.5], [0.0, 1.0, 0.0, 0.0]], 0.0),
    ],
)
def test_weighted_pick_extreme_uniforms(weights, u):
    weights = np.array(weights)
    uniforms = np.full(2, u)
    ids = _kernels.weighted_pick(weights, uniforms)
    assert np.array_equal(ids, reference_weighted_pick(weights, uniforms))
    assert ids.tolist() == [2, 1]


def test_corrupt_matches_reference_kernels(monkeypatch):
    cb = make_codebook(20, 10, 0.2, seed=5)
    sched = FlowSchedule()
    clean = TokenSeq(np.random.default_rng(6).integers(0, 20, size=500))
    ids = corrupt(clean, 0.5, cb, sched, np.random.default_rng(7)).ids
    monkeypatch.setattr(_kernels, "weighted_pick", reference_weighted_pick)
    ref = corrupt(clean, 0.5, cb, sched, np.random.default_rng(7)).ids
    assert np.array_equal(ids, ref)


def test_sample_matches_reference_kernels(monkeypatch):
    cb = make_codebook(32, 16, 0.3, seed=8)
    sched = FlowSchedule(steps=64)
    clean = TokenSeq(np.random.default_rng(9).integers(0, 32, size=16))

    def run():
        den = OracleDenoiser(clean, 32, 0.2, seed=10)
        return sample(den, 16, cb, sched, rng=np.random.default_rng(11)).ids

    ids = run()
    monkeypatch.setattr(_kernels, "rate_rows", reference_rate_rows)
    monkeypatch.setattr(_kernels, "weighted_pick", reference_weighted_pick)
    assert np.array_equal(ids, run())


def test_weighted_pick_dead_rows_return_zero():
    weights = np.zeros((3, 5))
    ids = _kernels.weighted_pick(weights, np.array([0.1, 0.5, 0.99]))
    assert ids.tolist() == [0, 0, 0]


def test_weighted_pick_matches_searchsorted_oracle():
    rng = np.random.default_rng(12)
    weights = rng.random((200, 12))
    uniforms = rng.random(200)
    ids = _kernels.weighted_pick(weights, uniforms)
    for row in range(200):
        cdf = np.cumsum(weights[row])
        expect = int(np.searchsorted(cdf, uniforms[row] * cdf[-1], side="right"))
        assert ids[row] == min(expect, 11)

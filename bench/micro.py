"""Micro-benchmarks of batched order-3 jets, with a check on each result.

``mul_o3_v3`` multiplies two jets in 3 variables (the immersion jet at
n = 3), ``mul_o3_v7`` two jets in 7 variables (the Sasakian chart at
n = 3), and ``compose_o3_v4`` applies the chain rule to an outer jet in 4
variables over 4 inner jets in 4 variables.  Every batch has B = 4096.

Each result is checked along a random direction s: the coefficients of a
jet's Taylor polynomial in lambda at t + lambda s are d_k[s, ..., s] / k!,
and a product or a composition of jets must give the truncated product or
composition of those polynomials, computed here with plain numpy.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time

import numpy as np

from whitneygeo import jets

BATCH = 4096
ORDER = 3
MIN_CALLS = 5
MIN_SECONDS = 0.3


def _symmetric(rng, shape, k):
    """Random batch of tensors symmetric in their last ``k`` axes."""
    x = rng.normal(size=shape)
    base = tuple(range(len(shape) - k))
    perms = list(itertools.permutations(range(len(shape) - k, len(shape))))
    return sum(np.transpose(x, base + p) for p in perms) / len(perms)


def _random_jet(rng, v):
    return jets.Jet(ORDER, v, rng.normal(size=BATCH), rng.normal(size=(BATCH, v)),
                    _symmetric(rng, (BATCH, v, v), 2),
                    _symmetric(rng, (BATCH, v, v, v), 3))


def _directional(jet, s):
    """Taylor coefficients c_0..c_3 of the jet along direction ``s``: (B, 4)."""
    return np.stack([
        jet.val,
        jet.d1 @ s,
        np.einsum("bij,i,j->b", jet.d2, s, s) / 2.0,
        np.einsum("bijk,i,j,k->b", jet.d3, s, s, s) / 6.0,
    ], axis=-1)


def _polymul(a, b):
    """Product of batched cubic polynomials, truncated at degree 3."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i in range(4):
        for j in range(4 - i):
            out[..., i + j] += a[..., i] * b[..., j]
    return out


def _mismatch(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def _time_us(call) -> float:
    times, start = [], time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def run(seed: int) -> tuple[dict, list]:
    """``(metrics, problems)``: microseconds per call, and any failed check."""
    rng = np.random.default_rng(seed)
    metrics, problems = {}, []

    for v in (3, 7):
        a, b = _random_jet(rng, v), _random_jet(rng, v)
        s = rng.normal(size=v)
        metrics[f"jets.mul_o3_v{v}.us"] = _time_us(lambda: a * b)
        err = _mismatch(_directional(a * b, s),
                        _polymul(_directional(a, s), _directional(b, s)))
        if not err <= 1e-12:
            problems.append(f"jet product in {v} variables off by {err:.2e}")

    m = v = 4
    f = _random_jet(rng, m)
    xs = [_random_jet(rng, v) for _ in range(m)]
    s = rng.normal(size=v)
    metrics["jets.compose_o3_v4.us"] = _time_us(lambda: jets.compose(f, xs))
    # f(x(t) + delta) along s, with delta_m the non-constant part of x_m
    delta = np.stack([_directional(x, s) for x in xs], axis=1)
    delta[..., 0] = 0.0
    want = np.zeros((BATCH, 4))
    want[:, 0] = f.val
    unit = np.zeros((BATCH, 4))
    unit[:, 0] = 1.0
    tensors = (f.d1, f.d2, f.d3)
    for k in range(1, 4):
        for idx in itertools.product(range(m), repeat=k):
            term = unit
            for i in idx:
                term = _polymul(term, delta[:, i])
            want += tensors[k - 1][(slice(None),) + idx][:, None] * term / math.factorial(k)
    err = _mismatch(_directional(jets.compose(f, xs), s), want)
    if not err <= 1e-12:
        problems.append(f"jet composition in {v} variables off by {err:.2e}")
    return metrics, problems

"""Deterministic counter-based random streams.

Every draw is a pure function of (seed, *ids): the ids name a stream
(e.g. channel, agent, frame) and the value is produced by chaining the
splitmix64 finalizer over them. No state is carried between draws, so
results are independent of evaluation order, platform and worker count.

uniform() maps the top 53 bits to (0, 1) as (k + 0.5) * 2^-53, which
never returns an exact 0 or 1; normal() is Box-Muller over two
sub-streams; poisson() inverts the CDF and rejects rates above
POISSON_MAX_RATE, where exp(-rate) nears the float64 underflow.
"""
from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
POISSON_MAX_RATE = 700.0


def _mix(x: int) -> int:
    """splitmix64 output function."""
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def hash_u64(seed: int, *ids: int) -> int:
    h = _mix(seed & _MASK)
    for v in ids:
        h = _mix(h ^ (v & _MASK))
    return h


def uniform(seed: int, *ids: int) -> float:
    """Uniform draw in the open interval (0, 1)."""
    return ((hash_u64(seed, *ids) >> 11) + 0.5) * 2.0 ** -53


def normal(seed: int, *ids: int) -> float:
    """Standard normal via Box-Muller on two derived sub-streams."""
    u1 = uniform(seed, *ids, 0)
    u2 = uniform(seed, *ids, 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def poisson(lam: float, seed: int, *ids: int) -> int:
    """Poisson draw by CDF inversion for rates up to POISSON_MAX_RATE."""
    if lam > POISSON_MAX_RATE:
        raise ValueError(f"poisson rate {lam} exceeds {POISSON_MAX_RATE}")
    if lam <= 0:
        return 0
    u = uniform(seed, *ids)
    p = math.exp(-lam)
    cdf = p
    k = 0
    while u > cdf and k < 10_000:
        k += 1
        p *= lam / k
        cdf += p
    return k

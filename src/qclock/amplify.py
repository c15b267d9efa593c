"""Majority-vote amplification: thresholds, exact tails, Chernoff-style bounds.

A run of k independent verifier copies accepts when the accept count
strictly exceeds k(1 - eps - k^(-1/4)); ties reject. Rejection of a
good witness (single-copy acceptance 1 - eps) is then a lower binomial
tail, bounded by (l+1) 2^(-k KL(l/k, 1-eps)) and in turn by
2^(-sqrt(k)/ln 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .qcore import named_stream

__all__ = [
    "AmplifyParams", "TailBound", "majority_threshold", "exact_reject_prob",
    "kl_divergence", "tail_bounds", "naive_restriction_reject",
    "simulate_majority_vote",
]

_LN2 = math.log(2.0)
# binomial draws per chunk of a Monte Carlo run: 8 MB of int64 counts
_SHOT_CHUNK = 2 ** 20


@dataclass(frozen=True)
class AmplifyParams:
    k: int
    epsilon: float

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k={self.k} must be >= 1")
        if self.k > 2 ** 31 - 1:
            # scipy.special.bdtr casts k to a C int, so a larger k is not exact
            raise ValidationError(
                f"k={self.k} above 2**31 - 1, the largest k the exact binomial tail takes")
        if not 0.0 < self.epsilon <= 1.0 / 3.0:
            raise ValidationError(f"epsilon {self.epsilon} outside (0, 1/3]")

    @property
    def threshold_fraction(self) -> float:
        return 1.0 - self.epsilon - self.k ** -0.25


class TailBound(NamedTuple):
    threshold_l: int
    exact_reject: float
    kl_bound: float
    sqrt_k_bound: float


def _guard(x: float) -> float:
    # floats like 26.999999999999996 must count as the integer boundary
    return round(x, 9)


def _threshold_count(p: AmplifyParams) -> float:
    """k (1 - eps - k^(-1/4)), guarded; ValidationError unless the fraction
    is positive."""
    f = p.threshold_fraction
    if f <= 0.0:
        raise ValidationError(
            f"threshold fraction {f:.6f} <= 0: k={p.k} too small for eps={p.epsilon}"
        )
    return _guard(p.k * f)


def majority_threshold(p: AmplifyParams) -> int:
    """l = ceil(k (1 - eps - k^(-1/4))); accepts need count > the raw fraction."""
    return int(math.ceil(_threshold_count(p)))


def _reject_cutoff(p: AmplifyParams) -> int:
    # largest count that still rejects; ties (count == k*f exactly) reject
    return int(math.floor(_threshold_count(p)))


def exact_reject_prob(p: AmplifyParams, single_accept: float) -> float:
    """P(Binomial(k, single_accept) <= k(1-eps-k^(-1/4))), in closed form:
    scipy.special.bdtr, the regularised incomplete beta function."""
    if not 0.0 <= single_accept <= 1.0:
        raise ValidationError(f"single_accept {single_accept} outside [0, 1]")
    cut = _reject_cutoff(p)
    if cut < 0:
        return 0.0
    if cut >= p.k:
        return 1.0
    from scipy.special import bdtr  # lazy: ~60 ms and 3.6 MB to import
    return float(bdtr(cut, p.k, single_accept))


def kl_divergence(p: float, q: float) -> float:
    """Binary KL divergence in bits, as scipy.special.rel_entr terms, which
    follow 0 log 0 = 0 and are infinite where q leaves p no support."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ValidationError(f"KL arguments ({p}, {q}) outside [0, 1]")
    from scipy.special import rel_entr
    return float((rel_entr(p, q) + rel_entr(1.0 - p, 1.0 - q)) / _LN2)


def tail_bounds(p: AmplifyParams) -> TailBound:
    """Exact rejection at the promise edge plus its two analytic envelopes."""
    l = majority_threshold(p)
    good = 1.0 - p.epsilon
    if not l / p.k < good:
        raise ValidationError(
            f"threshold l/k = {l / p.k:.6f} not below 1-eps = {good:.6f}"
        )
    exact = exact_reject_prob(p, good)
    kl = kl_divergence(l / p.k, good)
    kl_bound = min(1.0, (l + 1) * 2.0 ** (-p.k * kl))
    sqrt_k_bound = 2.0 ** (-math.sqrt(p.k) / _LN2)
    return TailBound(l, exact, kl_bound, sqrt_k_bound)


def naive_restriction_reject(p: AmplifyParams, good_weight: float,
                             good_accept: float = 1.0,
                             bad_accept: float = 0.0) -> float:
    """Vote rejection rate for a correlated two-branch k-copy state.

    Models the mixture good_weight * (all copies accept at good_accept) +
    (1 - good_weight) * (all copies at bad_accept). Per-copy restrictions of
    this state look identical for every k, yet the joint vote keeps
    rejecting the bad branch outright, so the rate never improves with k.
    """
    if not 0.0 <= good_weight <= 1.0:
        raise ValidationError(f"branch weight {good_weight} outside [0, 1]")
    good = exact_reject_prob(p, good_accept)
    bad = exact_reject_prob(p, bad_accept)
    return good_weight * good + (1.0 - good_weight) * bad


def simulate_majority_vote(p: AmplifyParams, single_accept: float,
                           shots: int, seed: int = 0):
    """Monte Carlo rejection rate of the k-vote; returns (estimate, stderr).

    The shots are drawn in chunks of _SHOT_CHUNK from one stream, which
    gives the same draws as one array of them, in constant memory."""
    if shots < 1:
        raise ValidationError(f"shots {shots} must be >= 1")
    if not 0.0 <= single_accept <= 1.0:
        raise ValidationError(f"single_accept {single_accept} outside [0, 1]")
    cut = _reject_cutoff(p)
    rng = named_stream(seed, "majority-vote")
    hits = 0
    for start in range(0, shots, _SHOT_CHUNK):
        # one expression, so a chunk's counts are freed before the next draw
        size = min(_SHOT_CHUNK, shots - start)
        hits += int(np.count_nonzero(rng.binomial(p.k, single_accept, size=size) <= cut))
    est = hits / shots
    stderr = math.sqrt(max(est * (1.0 - est), 0.0) / shots)
    return est, float(stderr)

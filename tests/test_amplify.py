import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import qclock as q

from conftest import checkout_env


def brute_reject(k: int, eps: float, p: float) -> float:
    """Exact-rational binomial tail, independently of the package."""
    f = 1 - eps - k ** -0.25
    cut = math.floor(round(k * f, 9))
    pf = Fraction(p).limit_denominator(10 ** 9)
    total = Fraction(0)
    for i in range(cut + 1):
        total += math.comb(k, i) * pf ** i * (1 - pf) ** (k - i)
    return float(total)


def test_params_validation():
    with pytest.raises(q.ValidationError):
        q.AmplifyParams(0, 0.25)
    with pytest.raises(q.ValidationError):
        q.AmplifyParams(16, 0.0)
    with pytest.raises(q.ValidationError):
        q.AmplifyParams(16, 0.4)  # epsilon beyond 1/3
    p = q.AmplifyParams(16, 0.25)
    assert abs(p.threshold_fraction - 0.25) < 1e-15


def test_majority_threshold_frozen_values():
    assert q.majority_threshold(q.AmplifyParams(16, 0.25)) == 4
    assert q.majority_threshold(q.AmplifyParams(81, 0.25)) == 34
    assert q.majority_threshold(q.AmplifyParams(625, 0.1)) == 438
    assert q.majority_threshold(q.AmplifyParams(256, 0.05)) == 180


def test_majority_threshold_float_fuzz_guard():
    # k = 81, eps = 1/3: k^(1/4) = 3 exactly, so k*f = 27 up to float dust;
    # the guard keeps the threshold at 27 instead of drifting to 28
    assert q.majority_threshold(q.AmplifyParams(81, 1 / 3)) == 27


def test_majority_threshold_invalid_regime():
    # k = 4, eps = 1/3: 1 - eps - k^(-1/4) < 0, no meaningful vote
    with pytest.raises(q.ValidationError):
        q.majority_threshold(q.AmplifyParams(4, 1 / 3))


def test_exact_reject_matches_rational_oracle():
    for k, eps in [(16, 0.25), (81, 0.25), (81, 1 / 3), (256, 0.05)]:
        p = q.AmplifyParams(k, eps)
        got = q.exact_reject_prob(p, 1 - eps)
        want = brute_reject(k, eps, 1 - eps)
        assert got == pytest.approx(want, rel=1e-11), (k, eps)


def test_exact_reject_log_space_handles_tiny_tails():
    p = q.AmplifyParams(625, 0.1)
    got = q.exact_reject_prob(p, 0.9)
    want = brute_reject(625, 0.1, 0.9)
    assert got == pytest.approx(want, rel=1e-9)
    assert 0 < got < 1e-40


def test_exact_reject_boundaries():
    p = q.AmplifyParams(16, 0.25)
    assert q.exact_reject_prob(p, 0.0) == 1.0
    assert q.exact_reject_prob(p, 1.0) == 0.0
    with pytest.raises(q.ValidationError):
        q.exact_reject_prob(p, 1.5)


def test_exact_reject_monotone_in_acceptance():
    p = q.AmplifyParams(81, 0.25)
    vals = [q.exact_reject_prob(p, x) for x in np.linspace(0.05, 0.95, 19)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_kl_divergence_frozen_values():
    assert q.kl_divergence(0.5, 0.25) == pytest.approx(0.20751874963942185, rel=1e-14)
    assert q.kl_divergence(0.25, 0.5) == pytest.approx(0.18872187554086717, rel=1e-14)
    assert q.kl_divergence(0.0, 0.3) == pytest.approx(0.5145731728297582, rel=1e-14)
    assert q.kl_divergence(0.3, 0.3) == 0.0
    assert q.kl_divergence(0.5, 0.0) == math.inf
    assert q.kl_divergence(0.5, 1.0) == math.inf


def test_kl_pinsker_type_lower_bound():
    # KL(p, q) >= (2/ln 2)(p-q)^2 across a dense grid
    grid = np.linspace(0.01, 0.99, 50)
    c = 2.0 / math.log(2.0)
    for p in grid:
        for qq in grid:
            assert q.kl_divergence(p, qq) >= c * (p - qq) ** 2 - 1e-12


def test_tail_bounds_ordering():
    for k in (16, 81, 256, 625):
        for eps in (0.05, 0.1, 0.25, 1 / 3):
            p = q.AmplifyParams(k, eps)
            tb = q.tail_bounds(p)
            assert tb.exact_reject <= tb.kl_bound + 1e-15, (k, eps)
            assert tb.threshold_l / k < 1 - eps  # vote is winnable
            assert 0 <= tb.sqrt_k_bound <= 1


def test_tail_bound_sqrt_k_value():
    tb = q.tail_bounds(q.AmplifyParams(256, 0.25))
    assert tb.sqrt_k_bound == pytest.approx(2.0 ** (-16 / math.log(2)), rel=1e-14)


def test_naive_restriction_rejects_one_third_for_every_k():
    vals = []
    for k in (4, 16, 81, 256, 625):
        p = q.AmplifyParams(k, 0.25)
        vals.append(q.naive_restriction_reject(p, 2 / 3))
    assert all(abs(v - 1 / 3) < 1e-15 for v in vals)
    assert len(set(vals)) == 1  # no k dependence at all


def test_naive_restriction_general_branches():
    p = q.AmplifyParams(81, 0.25)
    got = q.naive_restriction_reject(p, 0.5, good_accept=0.9, bad_accept=0.1)
    want = 0.5 * brute_reject(81, 0.25, 0.9) + 0.5 * brute_reject(81, 0.25, 0.1)
    assert got == pytest.approx(want, rel=1e-11)
    with pytest.raises(q.ValidationError):
        q.naive_restriction_reject(p, 1.2)


def test_simulate_majority_vote_three_sigma():
    p = q.AmplifyParams(16, 0.25)
    exact = q.exact_reject_prob(p, 0.6)
    est, err = q.simulate_majority_vote(p, 0.6, shots=40000, seed=1)
    sigma = max(err, math.sqrt(exact * (1 - exact) / 40000))
    assert abs(est - exact) <= 3 * sigma


def test_simulate_majority_vote_deterministic():
    # single_accept near the vote threshold so the rate is mid-range
    p = q.AmplifyParams(81, 0.25)
    assert (q.simulate_majority_vote(p, 0.42, shots=1000, seed=7)
            == q.simulate_majority_vote(p, 0.42, shots=1000, seed=7))
    a, _ = q.simulate_majority_vote(p, 0.42, shots=1000, seed=7)
    b, _ = q.simulate_majority_vote(p, 0.42, shots=1000, seed=8)
    assert a != b  # different seeds explore different shot streams


def test_import_leaves_scipy_special_unloaded():
    # only exact_reject_prob needs scipy.special, and it imports it itself
    code = ("import sys, qclock, qclock.cli; "
            "sys.exit('scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=checkout_env())
    assert proc.returncode == 0, proc.stderr.decode()

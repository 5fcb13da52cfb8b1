"""Tests for remote state preparation."""

import numpy as np
import pytest

from bellforge.remoteprep import (
    ABORT,
    RspBatch,
    abort_probability,
    index_cost_bits,
    rsp_attempt,
    rsp_batch,
    rsp_povm,
)
from bellforge.states import PureState, fidelity, random_unitary


def haar_state(d, rng):
    return PureState(random_unitary(d, rng)[:, 0], [("T", d)])


# ------------------------------------------------------------------- povm

def test_povm_real_target_is_computational():
    zero = PureState([1, 0], [("T", 2)])
    povm = rsp_povm(zero)
    assert np.allclose(povm.elements[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(povm.elements[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_povm_conjugates_complex_target():
    target = PureState(np.array([1, 1j]) / np.sqrt(2), [("T", 2)])
    povm = rsp_povm(target)
    conj = np.array([1, -1j]) / np.sqrt(2)
    assert np.allclose(povm.elements[0], np.outer(conj, conj.conj()), atol=1e-12)


def test_povm_sums_to_identity():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        povm = rsp_povm(haar_state(d, rng))
        assert np.allclose(sum(povm.elements), np.eye(d), atol=1e-12)


def test_povm_conjugation_involution():
    rng = np.random.default_rng(1)
    target = haar_state(3, rng)
    double = PureState(target.amplitudes.conj().conj(), target.layout)
    a, b = rsp_povm(target), rsp_povm(double)
    assert np.allclose(a.elements[0], b.elements[0], atol=1e-15)


# ---------------------------------------------------------------- attempt

def test_attempt_success_probability_is_inverse_dimension():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        for _ in range(100):
            att = rsp_attempt(haar_state(d, rng), rng)
            assert abs(att.success_probability - 1.0 / d) < 1e-12


def test_attempt_success_state_matches_target_exactly():
    rng = np.random.default_rng(3)
    hits = 0
    while hits < 100:
        target = haar_state(2, rng)
        att = rsp_attempt(target, rng)
        if att.outcome == 1:
            hits += 1
            assert abs(fidelity(att.bob_state, target) - 1.0) < 1e-10


def test_attempt_plus_state_success_branch():
    plus = PureState(np.array([1, 1]) / np.sqrt(2), [("T", 2)])
    rng = np.random.default_rng(5)
    att = rsp_attempt(plus, rng)
    assert abs(att.success_probability - 0.5) < 1e-12
    while att.outcome != 1:
        att = rsp_attempt(plus, rng)
    assert np.allclose(att.bob_state.matrix, np.full((2, 2), 0.5), atol=1e-10)


def test_attempt_failure_branch_is_orthogonal_mixture():
    rng = np.random.default_rng(7)
    target = haar_state(3, rng)
    att = rsp_attempt(target, rng)
    while att.outcome != 0:
        att = rsp_attempt(target, rng)
    assert abs(np.trace(att.bob_state.matrix).real - 1.0) < 1e-10
    # failure state is supported on the subspace orthogonal to the target
    overlap = np.real(np.vdot(target.amplitudes,
                              att.bob_state.matrix @ target.amplitudes))
    assert overlap < 1e-10


def test_attempt_outcome_rate_matches_probability():
    rng = np.random.default_rng(11)
    target = haar_state(2, rng)
    wins = sum(rsp_attempt(target, rng).outcome for _ in range(2000))
    assert abs(wins / 2000 - 0.5) < 0.04


# ------------------------------------------------------------------ batch

def test_batch_size_follows_ceiling_rule():
    rng = np.random.default_rng(13)
    assert rsp_batch(haar_state(2, rng), 4, rng).m == 8
    assert rsp_batch(haar_state(2, rng), 1, rng).m == 2
    assert rsp_batch(haar_state(3, rng), 1.5, rng).m == 5


def test_batch_first_success_is_first_hit():
    rng = np.random.default_rng(17)
    for _ in range(50):
        batch = rsp_batch(haar_state(2, rng), 2, rng)
        if batch.first_success is None:
            assert all(o == 0 for o in batch.outcomes)
            assert batch.index_code == ABORT
        else:
            assert batch.outcomes[batch.first_success - 1] == 1
            assert all(o == 0 for o in batch.outcomes[:batch.first_success - 1])
            assert 1 <= batch.first_success <= batch.m
            assert batch.index_code == batch.first_success


def test_batch_is_seed_deterministic():
    target = PureState([1, 0], [("T", 2)])
    b1 = rsp_batch(target, 3, np.random.default_rng(99))
    b2 = rsp_batch(target, 3, np.random.default_rng(99))
    assert b1.outcomes == b2.outcomes
    assert b1.first_success == b2.first_success


def test_batch_matches_dense_attempts_outcome_for_outcome():
    # The batch samples each attempt in closed form; replaying the dense
    # attempt on the same spawned streams must give the same outcomes.
    for d in (2, 3, 5):
        target = haar_state(d, np.random.default_rng(31 + d))
        for seed in range(40):
            batch = rsp_batch(target, 3, np.random.default_rng(seed))
            dense = []
            for stream in np.random.default_rng(seed).spawn(batch.m):
                dense.append(rsp_attempt(target, stream).outcome)
                if dense[-1] == 1:
                    break
            assert tuple(dense) == batch.outcomes


def test_abort_probability_exact_values():
    assert abort_probability(2, 4) == pytest.approx(2.0 ** -8, abs=1e-15)
    assert abort_probability(2, 1) == pytest.approx(0.25, abs=1e-15)


def test_abort_probability_below_amplification_target():
    for d in (2, 3, 4, 7):
        for k in (1, 1.5, 2, 3, 5):
            assert abort_probability(d, k) <= 2.0 ** -k


def test_batch_empirical_abort_rate():
    # 10^4 batches at k=1, d=2: true abort rate is 1/4, which must sit under
    # the 2^-k = 1/2 guarantee within three binomial standard deviations.
    target = PureState([1, 0], [("T", 2)])
    rng = np.random.default_rng(23)
    n = 10_000
    aborts = sum(rsp_batch(target, 1, rng).first_success is None
                 for _ in range(n))
    rate = aborts / n
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert rate <= 2.0 ** -1 + 3 * sigma
    assert abs(rate - 0.25) < 5 * sigma


def test_index_cost_bits():
    assert index_cost_bits(8) == 4
    assert index_cost_bits(2) == 2
    assert index_cost_bits(5) == 4
    assert RspBatch(m=8, k=4, first_success=3, outcomes=(0, 0, 1)).cost_bits == 4

"""Tests for remote state preparation."""

import numpy as np
import pytest

from bellforge.remoteprep import (
    batch_size,
    index_cost_bits,
    rsp_attempt,
    rsp_povm,
)
from bellforge.states import PureState, fidelity, psd_sqrt, random_unitary


def haar_state(d, rng):
    return PureState(random_unitary(d, rng)[:, 0])


# ------------------------------------------------------------------- povm

def test_povm_real_target_is_computational():
    zero = PureState([1, 0])
    povm = rsp_povm(zero)
    assert np.allclose(povm.elements[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(povm.elements[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_povm_conjugates_complex_target():
    target = PureState(np.array([1, 1j]) / np.sqrt(2))
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
    double = PureState(target.amplitudes.conj().conj())
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
    plus = PureState(np.array([1, 1]) / np.sqrt(2))
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


def reference_attempt(target, rng):
    """One attempt on the dense joint density matrix, independent of the
    register machine: E (x) I by np.kron, the Lueders update, and Bob's
    half by an einsum partial trace.  Draws its outcome with the same
    generator call as `rsp_attempt`.  Returns (outcome, probabilities,
    Bob's matrix)."""
    d = target.dim
    pair = np.eye(d).reshape(-1) / np.sqrt(d)
    rho = np.outer(pair, pair)
    elems = [np.kron(e, np.eye(d)) for e in rsp_povm(target).elements]
    probs = np.array([np.trace(e @ rho).real for e in elems])
    clipped = np.clip(probs, 0.0, None)
    idx = int(rng.choice(len(probs), p=clipped / clipped.sum()))
    root = psd_sqrt(elems[idx])
    post = root @ rho @ root
    post = post / np.trace(post).real
    bob = np.einsum("aiaj->ij", post.reshape(d, d, d, d))
    return 1 if idx == 0 else 0, probs, bob


@pytest.mark.parametrize("d", [2, 3, 4])
def test_attempt_matches_dense_reference(d):
    targets = np.random.default_rng(100 + d)
    ours, ref = np.random.default_rng(d), np.random.default_rng(d)
    seen = set()
    for _ in range(40):
        target = haar_state(d, targets)
        att = rsp_attempt(target, ours)
        outcome, probs, bob = reference_attempt(target, ref)
        assert att.outcome == outcome
        seen.add(outcome)
        assert abs(att.success_probability - probs[0]) < 1e-12
        assert np.max(np.abs(att.bob_state.matrix - bob)) < 1e-12
    assert seen == {0, 1}


# ------------------------------------------------------------------ batch

def test_batch_size_follows_ceiling_rule():
    assert batch_size(4, 1 / 2) == 8
    assert batch_size(1, 1 / 2) == 2
    assert batch_size(1.5, 1 / 3) == 5
    assert batch_size(1, 1 / 7) == 7
    assert batch_size(3, 1.0) == 3


def test_batch_size_validation():
    for k, p in ((0.5, 0.5), (1, 0.0), (1, -0.5), (1, 1.5)):
        with pytest.raises(ValueError):
            batch_size(k, p)
    with pytest.raises(ValueError, match="overflows"):
        batch_size(1e308, 0.5)


def test_abort_probability_exact_values():
    assert (1 - 1 / 2) ** batch_size(4, 1 / 2) == pytest.approx(
        2.0 ** -8, abs=1e-15)
    assert (1 - 1 / 2) ** batch_size(1, 1 / 2) == pytest.approx(
        0.25, abs=1e-15)


def test_abort_probability_below_amplification_target():
    for d in (2, 3, 4, 7):
        for k in (1, 1.5, 2, 3, 5):
            assert (1 - 1 / d) ** batch_size(k, 1 / d) <= 2.0 ** -k


def test_index_cost_bits():
    assert index_cost_bits(8) == 4
    assert index_cost_bits(2) == 2
    assert index_cost_bits(5) == 4

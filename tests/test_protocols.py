"""Tests for two-party protocol simulation and its two rewrites.

The regression corpus is 20 random protocols (seed 7, up to 2 rounds and
2-qubit registers).  Frozen values below were produced by the exact
simulator itself and pin the generator's draws; the analytic values for
the two-bits-in-one-qubit protocol are cos^2(pi/8) and friends.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from bellforge import (
    CommProtocol,
    InvariantError,
    MemorylessProtocol,
    Povm,
    TruthTable,
    builtin_qrac,
    random_protocol,
    run_exact,
    success_probability,
    to_memoryless,
    to_single_qubit_rounds,
)
from bellforge.states import random_unitary
from bellforge.transforms import _span_chain

QRAC_SUCCESS = 0.8535533905932737  # cos^2(pi/8)
QRAC_EPSILON = 0.35355339059327373  # cos^2(pi/8) - 1/2 = sqrt(2)/4

# Total qubit count and memoryless cost for the seed-7 corpus, in draw
# order.  Regenerated whenever the generator changes; every cost must stay
# at or below q**2 + 2*q.
CORPUS_QUBITS = (6, 5, 4, 3, 1, 5, 3, 5, 2, 2, 5, 4, 2, 1, 4, 5, 2, 4, 1, 1)
CORPUS_COSTS = (27, 20, 13, 6, 2, 22, 9, 15, 4, 4, 17, 17, 5, 1, 12, 20, 4, 11, 2, 2)

# Layout of the split and of its memoryless form for the seed-7 corpus, in
# draw order: Alice's and Bob's rounds that hear a data qubit ("D"; "." is a
# pinned pad, or nothing before Alice's first round), a_dims, b_dims,
# anc_a_dims, anc_b_dims and the memoryless protocol's leg dimensions.
CORPUS_SPLIT_LAYOUT = (
    ("...DD.", "DD..D", (4, 4, 4, 4, 8, 8), (8, 16, 16, 16, 16),
     (2, 1, 1, 1, 2, 1), (2, 2, 1, 1, 1),
     (4, 8, 8, 16, 16, 32, 64, 32, 64, 128, 64)),
    ("..DD.", "D..D", (2, 2, 4, 4, 4), (8, 16, 16, 16),
     (1, 1, 2, 1, 1), (2, 2, 1, 1),
     (4, 8, 8, 16, 32, 32, 32, 64, 32)),
    ("..D.", "D.D", (2, 2, 2, 2), (8, 8, 8),
     (1, 1, 1, 1), (2, 1, 1),
     (4, 8, 8, 16, 16, 32, 16)),
    ("..D", "D.", (1, 1, 1), (8, 8),
     (1, 1, 1), (2, 1),
     (2, 4, 4, 8, 8)),
    (".", "", (2,), (),
     (1,), (),
     (4,)),
    ("..DD.", "D..D", (4, 4, 8, 8, 8), (8, 16, 16, 16),
     (2, 1, 2, 1, 1), (2, 2, 1, 1),
     (4, 8, 8, 16, 32, 32, 64, 128, 64)),
    ("..D", "D.", (2, 2, 2), (8, 8),
     (2, 1, 1), (2, 1),
     (4, 8, 8, 16, 16)),
    ("..DD.", "D..D", (1, 1, 2, 4, 4), (4, 8, 8, 8),
     (1, 1, 2, 2, 1), (2, 2, 1, 1),
     (2, 4, 4, 8, 16, 8, 16, 32, 16)),
    ("..", "D", (2, 2), (2,),
     (2, 1), (2,),
     (4, 8, 4)),
    ("..", "D", (2, 2), (2,),
     (1, 1), (2,),
     (4, 8, 4)),
    ("..DD.", "D..D", (1, 1, 2, 4, 4), (8, 16, 16, 16),
     (1, 1, 2, 2, 1), (2, 2, 1, 1),
     (2, 4, 4, 8, 16, 16, 32, 64, 32)),
    ("..D.", "D.D", (4, 4, 8, 8), (4, 8, 8),
     (2, 1, 2, 1), (2, 2, 1),
     (4, 8, 8, 16, 64, 128, 64)),
    ("..", "D", (4, 4), (2,),
     (2, 1), (2,),
     (4, 8, 8)),
    (".", "", (1,), (),
     (1,), (),
     (2,)),
    ("..DD", "D..", (1, 1, 2, 4), (8, 16, 16),
     (1, 1, 2, 2), (2, 2, 1),
     (2, 4, 4, 8, 16, 16, 32)),
    ("..DD.", "D..D", (2, 2, 4, 8, 8), (4, 8, 8, 8),
     (2, 1, 2, 2, 1), (2, 2, 1, 1),
     (4, 8, 8, 16, 32, 16, 32, 64, 32)),
    ("..", "D", (2, 2), (2,),
     (2, 1), (2,),
     (4, 8, 4)),
    ("..DD", "D..", (1, 1, 2, 4), (4, 8, 8),
     (1, 1, 2, 2), (2, 2, 1),
     (2, 4, 4, 8, 16, 8, 16)),
    (".", "", (4,), (),
     (2,), (),
     (4,)),
    (".", "", (4,), (),
     (2,), (),
     (4,)),
)
# sha256 (first 12 hex digits) of the nonzero pattern of every split round
# op, rounds in order and inputs ascending: it moves when the same registers
# are kept in another order, which the dimensions above do not see.
CORPUS_SPLIT_SUPPORT = (
    "e63fad9ba899", "2097c657c810", "7c92181d665c", "a684a5bd78f6",
    "ad95131bc0b7", "8c92fc237445", "6b805643d798", "7d3ed0f5ee58",
    "436369e6aa04", "436369e6aa04", "f9d0cbd908d2", "72f7ad8a051c",
    "cfdde0743687", "4022c8c46927", "43fb7784868c", "699b96b48277",
    "436369e6aa04", "a6702263b89d", "5ac6a5945f16", "5ac6a5945f16",
)

SPLIT_ATOL = 1e-10
MEMORYLESS_ATOL = 1e-9


def _corpus():
    rng = np.random.default_rng(7)
    out = []
    for _ in range(20):
        rounds = int(rng.integers(1, 3))
        out.append(random_protocol(rng, rounds=rounds, n=1, max_qubits=2))
    return out


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _uniform_truth(n, f):
    size = 2 ** n
    mu = np.full((size, size), 1.0 / size ** 2)
    return TruthTable(n=n, f=np.asarray(f, dtype=np.int8), mu=mu)


def _classical_bit_protocol():
    """Alice sends |x> in the computational basis; Bob decodes x xor y.

    Deterministic, so every input pair succeeds with probability 1.
    """
    f = [[0, 1], [1, 0]]
    eye = np.eye(2)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    return CommProtocol(
        truth=_uniform_truth(1, f),
        rounds=1, a0_dim=2, b0_dim=1,
        m_out_dims=(2,), m_back_dims=(), a_dims=(1,), b_dims=(),
        anc_a_dims=(1,), anc_b_dims=(),
        alice_ops=({0: eye, 1: flip},),
        bob_ops=(),
        observables={0: Povm([p0, p1]), 1: Povm([p1, p0])},
    )


def _coin_protocol():
    """Both observable elements are I/2, so the output is a fair coin."""
    base = _classical_bit_protocol()
    coin = Povm([np.eye(2) / 2, np.eye(2) / 2])
    return CommProtocol(
        truth=base.truth,
        rounds=1, a0_dim=2, b0_dim=1,
        m_out_dims=(2,), m_back_dims=(), a_dims=(1,), b_dims=(),
        anc_a_dims=(1,), anc_b_dims=(),
        alice_ops=base.alice_ops, bob_ops=(),
        observables={0: coin, 1: coin},
    )


def _two_qubit_one_way():
    """One round, two message qubits: Alice sends |xx>, Bob reads it out."""
    f = [[0, 0], [1, 1]]
    eye = np.eye(4)
    xx = np.zeros((4, 4))
    xx[3, 0] = xx[0, 3] = xx[1, 2] = xx[2, 1] = 1.0
    e0 = np.diag([1.0, 0.0, 0.0, 0.0])
    povm = Povm([e0, np.eye(4) - e0])
    return CommProtocol(
        truth=_uniform_truth(1, f),
        rounds=1, a0_dim=4, b0_dim=1,
        m_out_dims=(4,), m_back_dims=(), a_dims=(1,), b_dims=(),
        anc_a_dims=(1,), anc_b_dims=(),
        alice_ops=({0: eye, 1: xx},),
        bob_ops=(),
        observables={0: povm, 1: povm},
    )


def _random_q4_protocol(seed=11):
    """Random two-round protocol carrying 4 message qubits in total.

    Alice's first message is two qubits (dim 4); the reply and her second
    message are one qubit each.
    """
    rng = np.random.default_rng(seed)
    f = rng.integers(0, 2, size=(2, 2)).astype(np.int8)
    mu = rng.uniform(0.1, 1.0, size=(2, 2))
    u = random_unitary(8, rng)
    proj = u[:, :3] @ u[:, :3].conj().T
    return CommProtocol(
        truth=TruthTable(n=1, f=f, mu=mu / mu.sum()),
        rounds=2, a0_dim=2, b0_dim=2,
        m_out_dims=(4, 2), m_back_dims=(2,),
        a_dims=(1, 2), b_dims=(4,),
        anc_a_dims=(2, 2), anc_b_dims=(1,),
        alice_ops=({x: random_unitary(4, rng) for x in range(2)},
                   {x: random_unitary(4, rng) for x in range(2)}),
        bob_ops=({y: random_unitary(8, rng) for y in range(2)},),
        observables={y: Povm([proj, np.eye(8) - proj]) for y in range(2)},
    )


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _product_memory_protocol():
    """Two-round single-qubit protocol whose unitaries are products of a
    shuttle factor and a memory factor, so memory and shuttle never
    entangle and each party's memory stays a single pure state."""
    f = [[0, 1], [1, 0]]
    alice0 = {x: np.kron(_rot(0.3 + 0.5 * x), _rot(0.7 - 0.2 * x))
              for x in range(2)}
    alice1 = {x: np.kron(_rot(1.1 * x), _rot(0.4 + 0.3 * x))
              for x in range(2)}
    bob0 = {y: np.kron(_rot(0.9 - 0.6 * y), _rot(0.2 + 0.8 * y))
            for y in range(2)}
    e0 = np.kron(np.diag([1.0, 0.0]), np.eye(2))
    povm = Povm([e0, np.eye(4) - e0])
    return CommProtocol(
        truth=_uniform_truth(1, f),
        rounds=2, a0_dim=2, b0_dim=2,
        m_out_dims=(2, 2), m_back_dims=(2,),
        a_dims=(2, 2), b_dims=(2,),
        anc_a_dims=(2, 1), anc_b_dims=(1,),
        alice_ops=(alice0, alice1),
        bob_ops=(bob0,),
        observables={0: povm, 1: povm},
    )


def _memory_free_two_rounds():
    """Two rounds of single-qubit messages with no persistent registers."""
    f = [[0, 1], [1, 0]]
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    p0 = np.diag([1.0, 0.0])
    povm = Povm([p0, np.eye(2) - p0])
    return CommProtocol(
        truth=_uniform_truth(1, f),
        rounds=2, a0_dim=2, b0_dim=1,
        m_out_dims=(2, 2), m_back_dims=(2,),
        a_dims=(1, 1), b_dims=(1,),
        anc_a_dims=(1, 1), anc_b_dims=(1,),
        alice_ops=({0: np.eye(2), 1: h}, {0: h, 1: np.eye(2)}),
        bob_ops=({0: h, 1: h},),
        observables={0: povm, 1: povm},
    )


def _pairs(p):
    size = p.truth.num_inputs
    return [(x, y) for x in range(size) for y in range(size)]


# ---------------------------------------------------------------------------
# TruthTable and CommProtocol validation


def test_truth_table_rejects_bad_mu_sum():
    f = np.zeros((2, 2), dtype=np.int8)
    with pytest.raises(InvariantError):
        TruthTable(n=1, f=f, mu=np.full((2, 2), 0.3))


def test_truth_table_rejects_negative_mu():
    f = np.zeros((2, 2), dtype=np.int8)
    for bad in (-0.25, np.nan, np.inf):  # NaN passes every comparison
        mu = np.array([[0.75, 0.5], [bad, 0.0]])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            TruthTable(n=1, f=f, mu=mu)


def test_truth_table_rejects_non_boolean_f():
    mu = np.full((2, 2), 0.25)
    # 0.6 is checked as written, not after a cast to 0.
    for f in (np.full((2, 2), 2), [[0.6, 0], [0, 1]]):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            TruthTable(n=1, f=f, mu=mu)


def test_truth_table_rejects_wrong_shape():
    with pytest.raises(ValueError):
        TruthTable(n=2, f=np.zeros((2, 2), dtype=np.int8),
                   mu=np.full((2, 2), 0.25))


def test_truth_table_support_skips_zero_weight():
    f = np.zeros((2, 2), dtype=np.int8)
    mu = np.array([[0.5, 0.0], [0.0, 0.5]])
    t = TruthTable(n=1, f=f, mu=mu)
    assert t.support() == [(0, 0), (1, 1)]
    assert t.num_inputs == 2


def test_protocol_rejects_non_unitary_op():
    base = _classical_bit_protocol()
    bad = dict(base.alice_ops[0])
    bad[0] = np.array([[1.0, 0.0], [0.0, 0.5]])
    with pytest.raises(InvariantError, match=r"^alice_ops\[0\]\[0\]: not unitary"):
        CommProtocol(
            truth=base.truth, rounds=1, a0_dim=2, b0_dim=1,
            m_out_dims=(2,), m_back_dims=(), a_dims=(1,), b_dims=(),
            anc_a_dims=(1,), anc_b_dims=(),
            alice_ops=(bad,), bob_ops=(),
            observables=base.observables,
        )


def test_protocol_rejects_dimension_mismatch():
    base = _classical_bit_protocol()
    with pytest.raises(ValueError,
                       match=r"^alice round 1: in dim 2 != out dim 4$"):
        CommProtocol(
            truth=base.truth, rounds=1, a0_dim=2, b0_dim=1,
            m_out_dims=(4,), m_back_dims=(), a_dims=(1,), b_dims=(),
            anc_a_dims=(1,), anc_b_dims=(),
            alice_ops=base.alice_ops, bob_ops=(),
            observables=base.observables,
        )


def test_protocol_rejects_bob_non_unitary_op():
    base = _memory_free_two_rounds()
    bad = dict(base.bob_ops[0])
    bad[1] = np.array([[1.0, 0.0], [0.0, 0.5]])
    with pytest.raises(InvariantError, match=r"^bob_ops\[0\]\[1\]: not unitary"):
        dataclasses.replace(base, bob_ops=(bad,))


def test_protocol_rejects_bob_dimension_mismatch():
    base = _memory_free_two_rounds()
    with pytest.raises(ValueError,
                       match=r"^bob round 1: in dim 2 != out dim 4$"):
        dataclasses.replace(base, b_dims=(2,))


def test_protocol_rejects_alice_later_round_dimension_mismatch():
    base = _memory_free_two_rounds()
    with pytest.raises(ValueError,
                       match=r"^alice round 2: in dim 4 != out dim 2$"):
        dataclasses.replace(base, anc_a_dims=(1, 2))


def test_legs_and_party_of_qrac():
    p = builtin_qrac()
    assert p.legs == (("alice", 2),)
    ops, mem, anc = p.party("alice")
    assert ops is p.alice_ops
    assert mem == (2, 1)
    assert anc == (1,)
    assert p.party("bob") == ((), (1,), ())


def test_legs_and_party_of_two_round_protocol():
    p = _random_q4_protocol()
    assert p.legs == (("alice", 4), ("bob", 2), ("alice", 2))
    assert p.party("alice")[1:] == ((2, 1, 2), (2, 2))
    ops, mem, anc = p.party("bob")
    assert ops is p.bob_ops
    assert mem == (2, 4)
    assert anc == (1,)
    with pytest.raises(ValueError, match="party must be 'alice' or 'bob'"):
        p.party("carol")


def test_protocol_rejects_wrong_observable_dim():
    base = _classical_bit_protocol()
    e0 = np.diag([1.0, 0.0, 0.0, 0.0])
    big = Povm([e0, np.eye(4) - e0])
    with pytest.raises(ValueError):
        CommProtocol(
            truth=base.truth, rounds=1, a0_dim=2, b0_dim=1,
            m_out_dims=(2,), m_back_dims=(), a_dims=(1,), b_dims=(),
            anc_a_dims=(1,), anc_b_dims=(),
            alice_ops=base.alice_ops, bob_ops=(),
            observables={0: big, 1: big},
        )


@pytest.mark.parametrize("eps", [0.0, -0.1, 0.51, 1.0])
def test_protocol_rejects_epsilon_outside_half_open_interval(eps):
    base = _classical_bit_protocol()
    with pytest.raises(ValueError):
        CommProtocol(
            truth=base.truth, rounds=1, a0_dim=2, b0_dim=1,
            m_out_dims=(2,), m_back_dims=(), a_dims=(1,), b_dims=(),
            anc_a_dims=(1,), anc_b_dims=(),
            alice_ops=base.alice_ops, bob_ops=(),
            observables=base.observables, epsilon=eps,
        )


def test_protocol_accepts_epsilon_at_boundary():
    base = _classical_bit_protocol()
    p = CommProtocol(
        truth=base.truth, rounds=1, a0_dim=2, b0_dim=1,
        m_out_dims=(2,), m_back_dims=(), a_dims=(1,), b_dims=(),
        anc_a_dims=(1,), anc_b_dims=(),
        alice_ops=base.alice_ops, bob_ops=(),
        observables=base.observables, epsilon=0.5,
    )
    assert p.epsilon == 0.5


def test_run_exact_rejects_out_of_range_inputs():
    p = _classical_bit_protocol()
    with pytest.raises(ValueError):
        run_exact(p, 2, 0)
    with pytest.raises(ValueError):
        run_exact(p, 0, -1)


def test_message_qubits_counts_both_directions():
    assert builtin_qrac().message_qubits == 1.0
    assert _random_q4_protocol().message_qubits == 4.0


# ---------------------------------------------------------------------------
# Exact simulation


def test_classical_bit_protocol_is_deterministic():
    p = _classical_bit_protocol()
    for x, y in _pairs(p):
        assert run_exact(p, x, y) == pytest.approx(1.0, abs=1e-12)
    assert success_probability(p) == pytest.approx(1.0, abs=1e-12)


def test_coin_observable_gives_half_everywhere():
    p = _coin_protocol()
    for x, y in _pairs(p):
        assert run_exact(p, x, y) == pytest.approx(0.5, abs=1e-12)
    assert success_probability(p) == pytest.approx(0.5, abs=1e-12)


def test_negating_f_and_swapping_outcomes_is_a_relabeling():
    p = _classical_bit_protocol()
    swapped = {y: Povm([povm.elements[1], povm.elements[0]])
               for y, povm in p.observables.items()}
    q = CommProtocol(
        truth=TruthTable(n=1, f=1 - p.truth.f, mu=p.truth.mu),
        rounds=1, a0_dim=2, b0_dim=1,
        m_out_dims=(2,), m_back_dims=(), a_dims=(1,), b_dims=(),
        anc_a_dims=(1,), anc_b_dims=(),
        alice_ops=p.alice_ops, bob_ops=(),
        observables=swapped,
    )
    for x, y in _pairs(p):
        assert run_exact(q, x, y) == pytest.approx(run_exact(p, x, y),
                                                   abs=1e-12)


def test_qrac_success_probability_is_cos_squared_pi_over_8():
    p = builtin_qrac()
    assert success_probability(p) == pytest.approx(QRAC_SUCCESS, abs=1e-12)
    assert p.epsilon == pytest.approx(QRAC_EPSILON, abs=1e-15)


def test_qrac_recovers_each_bit_with_equal_probability():
    p = builtin_qrac()
    for x in range(4):
        for y in range(4):
            assert run_exact(p, x, y) == pytest.approx(QRAC_SUCCESS,
                                                       abs=1e-12)


def test_qrac_truth_table_selects_addressed_bit():
    p = builtin_qrac()
    for x in range(4):
        for y in range(4):
            assert p.truth.f[x, y] == (x >> (1 - (y & 1))) & 1
    assert np.all(p.truth.mu[:, :2] == 0.125)
    assert np.all(p.truth.mu[:, 2:] == 0.0)


def test_success_probability_matches_weighted_sum():
    p = builtin_qrac()
    total = sum(p.truth.mu[x, y] * run_exact(p, x, y)
                for x, y in p.truth.support())
    assert success_probability(p) == pytest.approx(total, abs=1e-14)


# ---------------------------------------------------------------------------
# to_single_qubit_rounds


def test_split_of_single_qubit_source_is_structurally_identical():
    p = builtin_qrac()
    sp = to_single_qubit_rounds(p)
    assert sp.rounds == 1
    assert sp.m_out_dims == (2,)
    assert sp.meta["single_qubit_form"] is True
    assert sp.epsilon == p.epsilon
    for x in range(4):
        assert np.array_equal(sp.alice_ops[0][x], p.alice_ops[0][x])
    for x, y in _pairs(p):
        assert run_exact(sp, x, y) == run_exact(p, x, y)


def _one_round_one_qubit(a0, anc, b0, seed):
    """One round carrying one qubit; Alice keeps a0 * anc / 2 dimensions
    and Bob measures the message together with his b0-dim memory."""
    rng = np.random.default_rng(seed)
    d, d_meas = a0 * anc, 2 * b0
    u = random_unitary(d_meas, rng)
    proj = u[:, :1] @ u[:, :1].conj().T
    return CommProtocol(
        truth=_uniform_truth(1, [[0, 1], [1, 0]]),
        rounds=1, a0_dim=a0, b0_dim=b0,
        m_out_dims=(2,), m_back_dims=(), a_dims=(d // 2,), b_dims=(),
        anc_a_dims=(anc,), anc_b_dims=(),
        alice_ops=({x: random_unitary(d, rng) for x in range(2)},),
        bob_ops=(),
        observables={y: Povm([proj, np.eye(d_meas) - proj])
                     for y in range(2)},
    )


@pytest.mark.parametrize("a0,anc,b0", [(4, 1, 1), (2, 2, 1), (1, 2, 2),
                                       (2, 2, 4)])
def test_split_of_one_round_one_qubit_source_returns_its_arrays(a0, anc, b0):
    p = _one_round_one_qubit(a0, anc, b0, seed=a0 + 3 * anc + 5 * b0)
    sp = to_single_qubit_rounds(p)
    assert (sp.rounds, sp.a0_dim, sp.b0_dim) == (1, a0, b0)
    assert (sp.m_out_dims, sp.a_dims, sp.anc_a_dims) == \
        (p.m_out_dims, p.a_dims, p.anc_a_dims)
    assert sp.meta["alice_in_data"] == (False,)
    assert sp.meta["bob_in_data"] == ()
    for x in range(2):
        assert np.array_equal(sp.alice_ops[0][x], p.alice_ops[0][x])
    for y in range(2):
        for got, want in zip(sp.observables[y].elements,
                             p.observables[y].elements):
            assert np.array_equal(got, want)


def test_split_two_qubit_one_way_gives_two_rounds():
    p = _two_qubit_one_way()
    sp = to_single_qubit_rounds(p)
    assert sp.rounds == 2
    assert sp.m_out_dims == (2, 2)
    assert sp.m_back_dims == (2,)
    for x, y in _pairs(p):
        assert run_exact(sp, x, y) == pytest.approx(run_exact(p, x, y),
                                                    abs=SPLIT_ATOL)


def test_split_random_two_round_four_qubit_protocol_gives_four_rounds():
    p = _random_q4_protocol()
    sp = to_single_qubit_rounds(p)
    assert sp.rounds == 4
    assert sp.m_out_dims == (2, 2, 2, 2)
    assert sp.m_back_dims == (2, 2, 2)
    for x, y in _pairs(p):
        assert run_exact(sp, x, y) == pytest.approx(run_exact(p, x, y),
                                                    abs=SPLIT_ATOL)


def test_split_preserves_corpus_distributions(corpus):
    for i, p in enumerate(corpus):
        sp = to_single_qubit_rounds(p)
        assert sp.rounds == CORPUS_QUBITS[i]
        assert sp.rounds == round(p.message_qubits)
        assert all(d == 2 for d in sp.m_out_dims + sp.m_back_dims)
        for x, y in _pairs(p):
            assert run_exact(sp, x, y) == pytest.approx(
                run_exact(p, x, y), abs=SPLIT_ATOL)


def test_split_layout_on_corpus(corpus):
    """Which rounds hear data, every register dimension and the register
    order of the split, and the memoryless legs: a change in where blank
    pads are kept or reused moves them even where every distribution stays
    exact."""
    def marks(flags):
        return "".join("D" if f else "." for f in flags)

    for p, want, support in zip(corpus, CORPUS_SPLIT_LAYOUT,
                                CORPUS_SPLIT_SUPPORT, strict=True):
        sp = to_single_qubit_rounds(p)
        legs = tuple(d for _, d in to_memoryless(sp).proto.legs)
        assert (marks(sp.meta["alice_in_data"]), marks(sp.meta["bob_in_data"]),
                sp.a_dims, sp.b_dims, sp.anc_a_dims, sp.anc_b_dims,
                legs) == want
        digest = hashlib.sha256()
        for ops in sp.alice_ops + sp.bob_ops:
            for v in sorted(ops):
                digest.update(np.packbits(ops[v] != 0).tobytes())
        assert digest.hexdigest()[:12] == support


def test_split_rejects_non_power_of_two_message():
    eye3 = np.eye(3)
    povm = Povm([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
    p = CommProtocol(
        truth=_uniform_truth(1, [[0, 0], [1, 1]]),
        rounds=1, a0_dim=3, b0_dim=1,
        m_out_dims=(3,), m_back_dims=(), a_dims=(1,), b_dims=(),
        anc_a_dims=(1,), anc_b_dims=(),
        alice_ops=({0: eye3, 1: eye3},), bob_ops=(),
        observables={0: povm, 1: povm},
    )
    with pytest.raises(ValueError, match="power of 2"):
        to_single_qubit_rounds(p)


def test_split_rejects_absent_intermediate_message():
    eye = np.eye(4)
    e0 = np.diag([1.0] + [0.0] * 7)
    povm = Povm([e0, np.eye(8) - e0])
    p = CommProtocol(
        truth=_uniform_truth(1, [[0, 0], [1, 1]]),
        rounds=2, a0_dim=4, b0_dim=2,
        m_out_dims=(2, 2), m_back_dims=(1,),
        a_dims=(2, 1), b_dims=(4,),
        anc_a_dims=(1, 1), anc_b_dims=(1,),
        alice_ops=({0: eye, 1: eye}, {0: np.eye(2), 1: np.eye(2)}),
        bob_ops=({0: eye, 1: eye},),
        observables={0: povm, 1: povm},
    )
    with pytest.raises(ValueError, match="at least one qubit"):
        to_single_qubit_rounds(p)


# ---------------------------------------------------------------------------
# _span_chain: memory-span bases after each round


def test_span_basis_round_one_has_at_most_two_vectors(corpus):
    for p in corpus[:6]:
        sp = to_single_qubit_rounds(p)
        basis = _span_chain(sp, "alice", 0)[0]
        assert basis.shape[0] <= 2


def test_span_basis_product_memory_protocol_has_one_vector_per_round():
    p = _product_memory_protocol()
    for x in range(2):
        for i in (1, 2):
            basis = _span_chain(p, "alice", x)[i - 1]
            assert basis.shape == (1, 2)
            assert np.linalg.norm(basis[0]) == pytest.approx(1.0, abs=1e-12)
        basis = _span_chain(p, "bob", x)[0]
        assert basis.shape == (1, 2)


def test_span_basis_cardinality_and_orthonormality_on_corpus(corpus):
    # One span chain per (party, input) serves every round.
    for p in corpus:
        sp = to_single_qubit_rounds(p)
        for party, nrounds in (("alice", sp.rounds), ("bob", sp.rounds - 1)):
            chain = _span_chain(sp, party, 1)
            mem = sp.party(party)[1]
            for i in range(1, nrounds + 1):
                if mem[i] == 1:
                    continue  # absent memory: a trivial state
                basis = chain[i - 1]
                assert basis.shape[0] <= 2 ** i
                gram = basis @ basis.conj().T
                np.testing.assert_allclose(gram, np.eye(len(basis)),
                                           atol=1e-10)


# ---------------------------------------------------------------------------
# to_memoryless


def test_memoryless_of_memory_free_protocol_is_unchanged():
    p = _memory_free_two_rounds()
    ml = to_memoryless(p)
    assert ml.proto is p
    assert ml.qubit_cost == 3
    assert ml.source_qubits == 3
    for x, y in _pairs(p):
        assert run_exact(ml, x, y) == run_exact(p, x, y)


def test_memoryless_qrac_costs_one_qubit():
    sp = to_single_qubit_rounds(builtin_qrac())
    ml = to_memoryless(sp)
    assert ml.qubit_cost == 1
    assert ml.proto is sp
    assert success_probability(ml) == pytest.approx(QRAC_SUCCESS, abs=1e-12)


def test_memoryless_preserves_corpus_distributions(corpus):
    for i, p in enumerate(corpus):
        sp = to_single_qubit_rounds(p)
        ml = to_memoryless(sp)
        q = sp.rounds
        assert ml.source_qubits == q
        assert ml.qubit_cost == CORPUS_COSTS[i]
        assert ml.qubit_cost <= q * q + 2 * q
        for x, y in _pairs(p):
            assert run_exact(ml, x, y) == pytest.approx(
                run_exact(p, x, y), abs=MEMORYLESS_ATOL)


def test_memoryless_random_q4_protocol_round_trip():
    p = _random_q4_protocol()
    ml = to_memoryless(to_single_qubit_rounds(p))
    assert ml.qubit_cost <= 4 * 4 + 2 * 4
    for x, y in _pairs(p):
        assert run_exact(ml, x, y) == pytest.approx(run_exact(p, x, y),
                                                    abs=MEMORYLESS_ATOL)


def test_memoryless_epsilon_and_truth_pass_through():
    sp = to_single_qubit_rounds(builtin_qrac())
    ml = to_memoryless(sp)
    assert ml.epsilon == sp.epsilon
    assert ml.truth is sp.truth


def test_memoryless_requires_single_qubit_rounds():
    with pytest.raises(ValueError, match="to_single_qubit_rounds"):
        to_memoryless(_two_qubit_one_way())


def test_memoryless_bound_violation_is_rejected():
    p = _memory_free_two_rounds()
    with pytest.raises(InvariantError):
        MemorylessProtocol(proto=p, qubit_cost=50, source_qubits=3)

"""Two-party quantum communication protocols over explicit unitaries.

A protocol computes a boolean function f(x, y) under an input distribution:
Alice (holding x) and Bob (holding y) alternate unitaries on their private
registers plus a message register, and after the final message Bob measures
a two-element POVM whose outcome is the protocol's output.  Round i:

  Alice: U_x^i on (M_back[i-1] (x) A[i-1] (x) fresh ancilla) -> (M_out[i] (x) A[i])
  Bob:   U_y^i on (M_out[i]  (x) B[i-1] (x) fresh ancilla) -> (M_back[i] (x) B[i])

and in the final round Bob measures o_y on (M_out[r] (x) B[r-1]) instead of
replying.  Any register may have dimension 1, meaning it is absent.  All
simulation is exact (Born probabilities, no sampling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ._threads import thread_map
from .states import (
    InvariantError, Povm, _RegisterMachine, _check_unitary, random_unitary)

ATOL_MU = 1e-12


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class TruthTable:
    """Boolean target f over n-bit inputs per party, with distribution mu;
    both are held as read-only copies of the given arrays."""
    n: int
    f: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n={self.n} must be >= 0")
        # n may come from a file, and no table has 2^64 rows: a larger 2**n
        # is never formed, and the message writes it as 2^n.
        size = 2 ** self.n if self.n < 64 else f"2^{self.n}"
        f = np.asarray(self.f)
        mu = np.array(self.mu, dtype=np.float64)
        if f.shape != (size, size) or mu.shape != (size, size):
            raise ValueError(
                f"tables must be {size}x{size} for n={self.n}")
        # Checked before the cast, which would turn 0.6 into 0.
        if not np.isin(f, (0, 1)).all():
            raise ValueError("f entries must be 0 or 1")
        f = f.astype(np.int8)
        if not (np.isfinite(mu).all() and mu.min() >= 0):
            raise ValueError("mu entries must be finite and nonnegative")
        if abs(mu.sum() - 1.0) > ATOL_MU:
            raise InvariantError(f"mu sums to {mu.sum()}, expected 1")
        f.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "mu", mu)

    @property
    def num_inputs(self) -> int:
        return 2 ** self.n

    def support(self) -> list[tuple[int, int]]:
        xs, ys = np.nonzero(self.mu)
        return list(zip(xs.tolist(), ys.tolist()))


def _freeze_ops(ops, rounds: int, num_inputs: int, what: str):
    ops = tuple(dict(d) for d in ops)
    if len(ops) != rounds:
        raise ValueError(f"{what}: expected {rounds} rounds, got {len(ops)}")
    for i, d in enumerate(ops):
        if set(d) != set(range(num_inputs)):
            raise ValueError(
                f"{what}[{i}]: needs one matrix per input 0..{num_inputs - 1}")
        for k in d:
            d[k] = _as_matrix(d[k])
            d[k].setflags(write=False)
    return ops


@dataclass(frozen=True)
class CommProtocol:
    """Explicit-matrix two-party protocol.  See module docstring for the
    register flow; dimension 1 means a register is absent.  A complex128
    operator is adopted and made read-only, not copied: a copy would double
    a rewrite's largest allocation, its round operators."""
    truth: TruthTable
    rounds: int
    a0_dim: int
    b0_dim: int
    m_out_dims: tuple[int, ...]
    m_back_dims: tuple[int, ...]
    a_dims: tuple[int, ...]
    b_dims: tuple[int, ...]
    anc_a_dims: tuple[int, ...]
    anc_b_dims: tuple[int, ...]
    alice_ops: tuple[dict[int, np.ndarray], ...]
    bob_ops: tuple[dict[int, np.ndarray], ...]
    observables: dict[int, Povm]
    epsilon: float | None = None
    meta: dict[str, Any] | None = field(default=None, compare=False)

    def __post_init__(self):
        r = self.rounds
        if r < 1:
            raise ValueError(f"rounds={r} must be >= 1")
        for name in ("m_out_dims", "a_dims", "anc_a_dims"):
            if len(getattr(self, name)) != r:
                raise ValueError(f"{name} must have {r} entries")
        for name in ("m_back_dims", "b_dims", "anc_b_dims"):
            if len(getattr(self, name)) != r - 1:
                raise ValueError(f"{name} must have {r - 1} entries")
        dims = ((self.a0_dim, self.b0_dim) + self.m_out_dims + self.m_back_dims
                + self.a_dims + self.b_dims + self.anc_a_dims + self.anc_b_dims)
        if any(d < 1 for d in dims):
            raise ValueError("register dimensions must be >= 1")
        size = self.truth.num_inputs
        object.__setattr__(
            self, "alice_ops",
            _freeze_ops(self.alice_ops, r, size, "alice_ops"))
        object.__setattr__(
            self, "bob_ops",
            _freeze_ops(self.bob_ops, r - 1, size, "bob_ops"))
        legs = self.legs
        for k, (who, d_msg) in enumerate(legs):
            ops, mem, anc = self.party(who)
            i = k // 2
            d_in = (legs[k - 1][1] if k else 1) * mem[i] * anc[i]
            d_out = d_msg * mem[i + 1]
            if d_in != d_out:
                raise ValueError(
                    f"{who} round {i + 1}: in dim {d_in} != out dim {d_out}")
            for v, u in ops[i].items():
                _check_unitary(u, d_in, f"{who}_ops[{i}][{v}]")
        obs = dict(self.observables)
        if set(obs) != set(range(size)):
            raise ValueError(f"observables: need one POVM per input 0..{size - 1}")
        d_meas = legs[-1][1] * self.party("bob")[1][-1]
        for y, povm in obs.items():
            if not isinstance(povm, Povm) or len(povm) != 2:
                raise ValueError(f"observables[{y}] must be a 2-element POVM")
            if povm.dim != d_meas:
                raise ValueError(
                    f"observables[{y}]: dim {povm.dim}, expected {d_meas}")
        object.__setattr__(self, "observables", obs)
        if self.epsilon is not None:
            if not 0.0 < self.epsilon <= 0.5:
                raise ValueError(
                    f"epsilon={self.epsilon} must lie in (0, 1/2]")

    @property
    def legs(self) -> tuple[tuple[str, int], ...]:
        """(sender, dim) of every transmitted message in send order: Alice's
        round-i message, then Bob's round-i reply, alternating."""
        out = []
        for i in range(self.rounds):
            out.append(("alice", self.m_out_dims[i]))
            if i < self.rounds - 1:
                out.append(("bob", self.m_back_dims[i]))
        return tuple(out)

    def party(self, who: str) -> tuple[tuple[dict[int, np.ndarray], ...],
                                       tuple[int, ...], tuple[int, ...]]:
        """(ops, memory dims, ancilla dims) of "alice" or "bob".  The memory
        dims start with the initial memory, so mem[i + 1] is the memory
        after the party's round i."""
        if who == "alice":
            return self.alice_ops, (self.a0_dim,) + self.a_dims, self.anc_a_dims
        if who == "bob":
            return self.bob_ops, (self.b0_dim,) + self.b_dims, self.anc_b_dims
        raise ValueError(f"party must be 'alice' or 'bob', got {who!r}")


@dataclass(frozen=True)
class MemorylessProtocol:
    """Protocol whose parties keep no information between rounds: every
    transmission bundles the live compressed memories of both parties, and
    the only registers left behind are blank (exactly |0>) pads.

    `qubit_cost` counts each bundle component once per round (the shuttle
    and pass-through memories make a round trip but are single qubits of
    communication per round); it satisfies qubit_cost <= Q^2 + 2Q against
    the source protocol's cost Q = `source_qubits`.
    """
    proto: CommProtocol
    qubit_cost: int
    source_qubits: int

    def __post_init__(self):
        q = self.source_qubits
        if self.qubit_cost > q * q + 2 * q:
            raise InvariantError(
                f"memoryless cost {self.qubit_cost} exceeds "
                f"{q}^2 + 2*{q} = {q * q + 2 * q}")


def _simulate(p: CommProtocol, x: int, y: int,
              lams: Sequence[float] = ()) -> np.ndarray:
    """Bob's two Born probabilities on inputs (x, y).  The i-th transmitted
    message (send order) passes through `depolarize(lams[i])` if given."""
    own = {"alice": x, "bob": y}
    reg = _RegisterMachine()
    reg.add("alice", p.a0_dim)
    reg.add("bob", p.b0_dim)
    noise = iter(lams)
    for k, (who, d_msg) in enumerate(p.legs):
        ops, mem, anc = p.party(who)
        i = k // 2
        reg.add("anc", anc[i])
        reg.apply(["M", who, "anc"], ops[i][own[who]],
                  [("M", d_msg), (who, mem[i + 1])])
        reg.depolarize("M", next(noise, 1.0))
    return reg.probs(["M", "bob"], p.observables[y])


def run_exact(p: CommProtocol | MemorylessProtocol, x: int, y: int) -> float:
    """Exact probability that the protocol outputs f(x, y) on inputs (x, y)."""
    if isinstance(p, MemorylessProtocol):
        p = p.proto
    size = p.truth.num_inputs
    if not (0 <= x < size and 0 <= y < size):
        raise ValueError(f"inputs must lie in [0, {size})")
    probs = _simulate(p, x, y)
    return float(probs[int(p.truth.f[x, y])])


def success_probability(p: CommProtocol | MemorylessProtocol) -> float:
    """Distribution-weighted success: sum_xy mu(x,y) P(output = f(x,y))."""
    if isinstance(p, MemorylessProtocol):
        p = p.proto
    pairs = p.truth.support()
    vals = thread_map(lambda xy: run_exact(p, xy[0], xy[1]), pairs)
    return float(sum(p.truth.mu[x, y] * v
                     for (x, y), v in zip(pairs, vals)))


def builtin_qrac() -> CommProtocol:
    """One-round, one-qubit protocol encoding two bits into a single qubit.

    Alice's two bits pick one of four states at angles pi/4 + k*pi/2 on the
    real great circle of the Bloch sphere; Bob's input selects which bit to
    recover, measuring in the Z basis (bit 0) or the X basis (bit 1).  Each
    bit is recovered with probability cos^2(pi/8).  Inputs are two bits per
    party; Bob's second bit is unused and carries no weight in mu.
    """
    n = 2
    size = 2 ** n
    f = np.zeros((size, size), dtype=np.int8)
    for x in range(size):
        for y in range(size):
            f[x, y] = (x >> (1 - (y & 1))) & 1
    mu = np.zeros((size, size))
    mu[:, :2] = 1.0 / 8.0
    angles = {0: np.pi / 4, 1: 7 * np.pi / 4, 2: 3 * np.pi / 4, 3: 5 * np.pi / 4}
    alice = {}
    for x in range(size):
        th = angles[x]
        alice[x] = np.array([[np.cos(th / 2), -np.sin(th / 2)],
                             [np.sin(th / 2), np.cos(th / 2)]], dtype=complex)
    z_basis = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    x_basis = Povm([np.outer(plus, plus), np.outer(minus, minus)])
    observables = {y: (z_basis if y % 2 == 0 else x_basis) for y in range(size)}
    eps = np.cos(np.pi / 8) ** 2 - 0.5
    return CommProtocol(
        truth=TruthTable(n=n, f=f, mu=mu),
        rounds=1, a0_dim=2, b0_dim=1,
        m_out_dims=(2,), m_back_dims=(), a_dims=(1,), b_dims=(),
        anc_a_dims=(1,), anc_b_dims=(),
        alice_ops=({x: alice[x] for x in range(size)},),
        bob_ops=(),
        observables=observables,
        epsilon=float(eps),
    )


def _random_two_outcome_povm(dim: int, rng: np.random.Generator) -> Povm:
    u = random_unitary(dim, rng)
    k = int(rng.integers(1, dim))
    proj = u[:, :k] @ u[:, :k].conj().T
    return Povm([proj, np.eye(dim) - proj])


def random_protocol(rng: np.random.Generator, rounds: int = 2, n: int = 1,
                    max_qubits: int = 2) -> CommProtocol:
    """Random protocol for regression corpora: unitaries are Haar random,
    register dims are random powers of 2 up to 2^max_qubits, the truth
    table and distribution are random.  No advantage is guaranteed, so
    epsilon is left unset."""
    size = 2 ** n
    cap = 2 ** max_qubits

    def split_dims(d_in: int) -> tuple[int, int]:
        """Pick (message, kept memory) dims, a factorization of d_in with
        the message in [2, cap] and the memory in [1, cap]."""
        choices = [m for m in (2, 4, 8, 16) if m <= min(cap, d_in)
                   and d_in // m <= cap]
        m = int(rng.choice(choices))
        return m, d_in // m

    def draw_anc(d_base: int) -> int:
        return int(rng.integers(1, 3)) if 2 * d_base <= cap * cap else 1

    a0 = 2 ** int(rng.integers(1, max_qubits + 1))
    b0 = 2 ** int(rng.integers(1, max_qubits + 1)) if rounds > 1 else 1
    m_out, m_back, a_dims, b_dims = [], [], [], []
    anc_a, anc_b, alice_ops, bob_ops = [], [], [], []
    cur_a, cur_b = a0, b0
    for i in range(rounds):
        m_in = m_back[i - 1] if i else 1
        anc = draw_anc(m_in * cur_a)
        d = m_in * cur_a * anc
        m, cur_a = split_dims(d)
        m_out.append(m)
        a_dims.append(cur_a)
        anc_a.append(anc)
        alice_ops.append({x: random_unitary(d, rng) for x in range(size)})
        if i < rounds - 1:
            anc = draw_anc(m * cur_b)
            d = m * cur_b * anc
            m, cur_b = split_dims(d)
            m_back.append(m)
            b_dims.append(cur_b)
            anc_b.append(anc)
            bob_ops.append({y: random_unitary(d, rng) for y in range(size)})
    d_meas = m_out[-1] * (b_dims[-1] if rounds > 1 else b0)
    observables = {y: _random_two_outcome_povm(d_meas, rng)
                   for y in range(size)}
    f = rng.integers(0, 2, size=(size, size)).astype(np.int8)
    mu = rng.uniform(0.1, 1.0, size=(size, size))
    mu = mu / mu.sum()
    return CommProtocol(
        truth=TruthTable(n=n, f=f, mu=mu),
        rounds=rounds, a0_dim=a0, b0_dim=b0,
        m_out_dims=tuple(m_out), m_back_dims=tuple(m_back),
        a_dims=tuple(a_dims), b_dims=tuple(b_dims),
        anc_a_dims=tuple(anc_a), anc_b_dims=tuple(anc_b),
        alice_ops=tuple(alice_ops), bob_ops=tuple(bob_ops),
        observables=observables,
    )

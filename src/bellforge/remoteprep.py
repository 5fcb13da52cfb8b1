"""Remote state preparation by conjugate-projector measurement.

Alice and Bob share a maximally entangled pair.  To place a chosen pure
state |phi> on Bob's side, Alice measures her half against the entrywise
complex conjugate |phi*>: on a hit (probability exactly 1/d) Bob's half
collapses to |phi> with no correction needed on his side, and Alice sends
him the single outcome bit.  `rsp_attempt` runs one such attempt on the
register machine holding the pair's ket.

Batched preparation repeats over m = `batch_size(k, p)` = ceil(k/p) fresh
pairs, each hitting with probability p, and communicates the index of the
first hit, or an abort codeword when every attempt misses; `index_cost_bits`
prices that message.  All m attempts miss with probability
(1 - p)^m <= exp(-k) <= 2^-k, which is the amplification target.  With
p = 1/d this is m = ceil(k*d); `bell.one_way_linear_bell` applies the rule
to its merged flag instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classicalcc import _CEIL_GUARD
from .states import (
    MixedState,
    Povm,
    PureState,
    _RegisterMachine,
    max_entangled,
)


@dataclass(frozen=True)
class RspAttempt:
    """One preparation attempt: outcome bit (1 = success), Bob's reduced
    state, and the exact success probability of the measurement."""
    target: PureState
    outcome: int
    bob_state: MixedState | None
    success_probability: float


def batch_size(k: float, p: float) -> int:
    """Attempts in one batch, ceil(k/p), for amplification parameter k and
    per-attempt success probability p: all of them miss with probability
    (1 - p)^m <= 2^-k."""
    if k < 1:
        raise ValueError(f"amplification parameter k={k} must be >= 1")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"success probability p={p} must lie in (0, 1]")
    if math.isinf(k / p):
        raise ValueError(f"batch size k/p = {k}/{p} overflows a float")
    return math.ceil(k / p - _CEIL_GUARD)


def index_cost_bits(m: int) -> int:
    """Classical bits to send an index in [1..m] plus an abort codeword."""
    if m < 1:
        raise ValueError(f"batch size {m} must be >= 1")
    return math.ceil(math.log2(m)) + 1


def rsp_povm(target: PureState) -> Povm:
    """Two-element measurement {|phi*><phi*|, I - |phi*><phi*|}."""
    phi_conj = target.amplitudes.conj()
    proj = np.outer(phi_conj, phi_conj.conj())
    return Povm([proj, np.eye(target.dim) - proj])


def rsp_attempt(target: PureState, rng: np.random.Generator) -> RspAttempt:
    """Measure Alice's half of a fresh pair against the conjugated target.

    Returns the sampled outcome (1 = success), Bob's post-measurement
    state, and the exact success probability tr(|phi*><phi*| I/d) = 1/d.
    """
    d = target.dim
    reg = _RegisterMachine([("A", d), ("B", d)], max_entangled(d).amplitudes)
    idx, probs = reg.measure(["A"], rsp_povm(target), rng)
    bob = MixedState(reg.reduced(["B"]))
    return RspAttempt(target=target, outcome=1 if idx == 0 else 0,
                      bob_state=bob, success_probability=float(probs[0]))

"""Remote state preparation by conjugate-projector measurement.

Alice and Bob share a maximally entangled pair.  To place a chosen pure
state |phi> on Bob's side, Alice measures her half against the entrywise
complex conjugate |phi*>: on a hit (probability exactly 1/d) Bob's half
collapses to |phi> with no correction needed on his side, and Alice sends
him the single outcome bit.  Batched mode repeats over m = ceil(k*d) fresh
pairs and communicates the first succeeding index, or ABORT when all
attempts miss (probability at most 2^-k).  A batch reads only the outcome
bits, so it samples each hit in closed form; `rsp_attempt`, the dense
measurement with Bob's post-state, is the reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    MixedState,
    Povm,
    PureState,
    embed_operator,
    max_entangled,
    measure,
    partial_trace,
)

# Serialized index code for an all-failures batch; real indices start at 1.
ABORT = 0


@dataclass(frozen=True)
class RspAttempt:
    """One preparation attempt: outcome bit (1 = success), Bob's reduced
    state, and the exact success probability of the measurement."""
    target: PureState
    outcome: int
    bob_state: MixedState | None
    success_probability: float


@dataclass(frozen=True)
class RspBatch:
    """Batched preparation over m pairs; `first_success` is 1-based, None
    means every attempt failed (serialized as index 0)."""
    m: int
    k: float
    first_success: int | None
    outcomes: tuple[int, ...]

    @property
    def index_code(self) -> int:
        return ABORT if self.first_success is None else self.first_success

    @property
    def cost_bits(self) -> int:
        # index in [1..m] plus one extra codeword for ABORT
        return index_cost_bits(self.m)


def index_cost_bits(m: int) -> int:
    """Classical bits to send an index in [1..m] plus an ABORT marker."""
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
    joint = max_entangled(d)
    local = rsp_povm(target)
    full = Povm([embed_operator(e, joint.layout, ["A"]) for e in local.elements])
    idx, probs, post = measure(joint.to_mixed(), full, rng)
    bob = partial_trace(post, ["B"])
    return RspAttempt(target=target, outcome=1 if idx == 0 else 0,
                      bob_state=bob, success_probability=float(probs[0]))


def rsp_batch(target: PureState, k: float, rng: np.random.Generator) -> RspBatch:
    """Run up to m = ceil(k*d) attempts, reporting the first success index.

    Attempts use independent sub-streams spawned from `rng`, so outcome i
    depends only on the batch seed and i; attempts after the first success
    are never executed.  Each attempt is sampled in closed form, hit with
    probability 1/d, with the one draw `rsp_attempt` makes on the same
    stream; the batch never needs Bob's post-measurement state.
    """
    if k < 1:
        raise ValueError(f"amplification parameter k={k} must be >= 1")
    d = target.dim
    m = math.ceil(k * d)
    streams = rng.spawn(m)
    outcomes = []
    first = None
    for i, stream in enumerate(streams, start=1):
        # Outcome 0 of the conjugate-projector measurement is the hit.
        outcome = 1 if stream.choice(2, p=[1.0 / d, 1.0 - 1.0 / d]) == 0 else 0
        outcomes.append(outcome)
        if outcome == 1:
            first = i
            break
    return RspBatch(m=m, k=k, first_success=first, outcomes=tuple(outcomes))


def abort_probability(d: int, k: float) -> float:
    """Exact probability that every attempt in a batch fails."""
    if d < 2:
        raise ValueError(f"dimension d={d} must be >= 2")
    if k < 1:
        raise ValueError(f"amplification parameter k={k} must be >= 1")
    m = math.ceil(k * d)
    return (1.0 - 1.0 / d) ** m

"""Bell tests built from communication protocols and port teleportation.

The pipeline replaces every message of a memoryless protocol with a
port-teleportation step: the sender measures, keeps the port index to
itself, and the receiver continues on every port in parallel.  Outcomes
then form a tree (one level per transmitted message); reading the leaf
measurement along a root-to-leaf path defines correlations that need no
communication at all, and weighting the paths by the input distribution
gives a linear Bell functional whose classical value is tied to the
classical communication cost of the underlying function.  A run's
distributions form one array, indexed by the input pair and then the
outcomes (`CorrelationTable`).

Because the port resource is symmetric under port permutations, every
teleportation outcome is uniform and the conditional state on the selected
port does not depend on the outcome.  The path-indexed joint distribution
therefore factorizes into a uniform prefix over indices times the terminal
Born distribution of the noise-degraded protocol run.  The functional reads
only the leaf outcome on the realized path, so a table keeps just that
leaf distribution per input pair; the per-path statistics follow from it
and the schedule's port counts, and all outcome variables off the realized
path are marginalized out (their alphabets are recorded for reporting).

The port measurement also commutes with U (x) conj(U), so that channel is
depolarizing: a leg of dimension d maps rho to lam rho + (1 - lam) I/d with
lam = (d^2 F - 1)/(d^2 - 1) for the step's entanglement fidelity F, and the
noisy run is the protocol's round loop with one such step per message.

A second, one-way route replaces teleportation with remote state
preparation on a shared maximally entangled pair and yields binary-flag
correlations checked against a nonlinear communication inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ._threads import thread_map
from .classicalcc import (
    _CEIL_GUARD, BudgetOracle, _best_response, _capped, _maps, _weights,
    best_success_tree)
from .protocols import CommProtocol, MemorylessProtocol, TruthTable, _simulate
from .remoteprep import batch_size, index_cost_bits, rsp_povm
from .states import CapExceededError, InvariantError, PureState
from .teleport import _integral, depolarizing_parameter

# Correlation rows must be normalized to this tolerance.
ATOL_TABLE = 1e-9

# Schedules are limited to path-alphabet products (index levels times the
# binary leaf) this large.  A table holds only the leaf, so the cap bounds
# no allocation; it stays so that no input's acceptance changes.
ALPHABET_CAP = 2 ** 16

# Sampled mode draws at most this many trials per input pair.  The cap
# bounds time only: each pair in flight holds one chunk of leaf draws.
TRIALS_CAP = 10 ** 7

# Sampled mode draws and tallies trials this many at a time: each pair in
# flight holds 9 bytes per trial of a chunk (the doubles and the
# comparison's booleans).  The split moves no byte of a report.
_CHUNK = 2 ** 14

# The exact local bound accepts at most this many Alice index maps,
# (n1 * n3^n2)^|X| at three levels (`classicalcc._capped`); its partition
# search walks none of them, but their count decides acceptance.
# `lhv_strategies` counts every full strategy against it.
LHV_CAP = 10 ** 7

# Coefficient of the budget-ratio bound sqrt(classical/quantum).
RATIO_COEFF = 1.0 / (6.0 * math.sqrt(3.0))

# The amplification margins `observation_bound` maximizes over.
OBSERVATION_DELTAS = (0.5, 0.25, 1.0 / 16.0, 1.0 / 256.0)


@dataclass(frozen=True)
class PortSchedule:
    """Port counts and port dimensions, one entry per transmitted message.

    Entry i covers the i-th transmission of the protocol (alternating
    sender), using `port_counts[i]` ports of dimension `port_dims[i]`.
    The dimension must equal that of the register being sent, which for a
    converted memoryless protocol bundles the fresh message qubit with
    both parties' compressed memories.
    """
    port_counts: tuple[int, ...]
    port_dims: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.port_counts)
        dims = tuple(self.port_dims)
        if not all(map(_integral, counts + dims)):
            raise ValueError(f"port counts {counts} and dimensions {dims} "
                             f"must be integers")
        counts = tuple(map(int, counts))
        dims = tuple(map(int, dims))
        if len(counts) != len(dims):
            raise ValueError(
                f"{len(counts)} port counts vs {len(dims)} dimensions")
        if len(counts) == 0:
            raise ValueError("schedule needs at least one step")
        if any(c < 1 for c in counts):
            raise ValueError(f"port counts must be >= 1, got {counts}")
        if any(d < 2 for d in dims):
            raise ValueError(f"port dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "port_counts", counts)
        object.__setattr__(self, "port_dims", dims)

    @classmethod
    def for_protocol(cls, p: CommProtocol | MemorylessProtocol,
                     port_counts) -> "PortSchedule":
        """Schedule whose step dimensions are read off the protocol."""
        proto = p.proto if isinstance(p, MemorylessProtocol) else p
        legs = tuple(d for _, d in proto.legs)
        counts = tuple(port_counts)
        if len(counts) != len(legs):
            raise ValueError(
                f"protocol transmits {len(legs)} messages, got "
                f"{len(counts)} port counts")
        return cls(port_counts=counts, port_dims=legs)

    @property
    def levels(self) -> int:
        return len(self.port_counts)

    @property
    def budget_bits(self) -> float:
        """Classical bits needed to reveal every kept port index."""
        return float(sum(math.log2(c) for c in self.port_counts))


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Joint outcome distributions of every input pair, as one read-only
    float64 array: `tables[x, y]` is the distribution of pair (x, y), so the
    shape is (|X|, |Y|) + `axes`.

    For teleportation and local-strategy tables the one axis is the binary
    leaf outcome on the realized root-to-leaf path.  In exact mode the
    port indices along that path are uniform and independent of the leaf,
    so the per-path statistics are the uniform prefix over the schedule's
    port counts times this row; no report field carries table cells.  The
    off-path outcome variables (the receiver acts on every port, so there
    are exponentially many) are marginalized out, and their alphabet sizes
    sit in `meta["full_alphabets"]`.  For the one-way route the axes are
    Alice's success flag and Bob's bit.
    """
    truth: TruthTable
    schedule: PortSchedule | None
    tables: np.ndarray
    mode: str
    seed: int | None = None
    trials: int | None = None
    meta: dict[str, Any] | None = field(default=None, compare=False)

    def __post_init__(self):
        size = self.truth.num_inputs
        a = np.asarray(self.tables, dtype=np.float64)
        if a.shape[:2] != (size, size):
            raise ValueError(f"tables shape {a.shape} does not lead with the "
                             f"input pairs ({size}, {size})")
        object.__setattr__(self, "tables", a)
        if self.schedule is not None and self.axes != (2,):
            raise ValueError(f"table axes {self.axes} do not match schedule "
                             f"leaf axes (2,)")
        for key in np.ndindex(size, size):
            arr = a[key]
            if not np.isfinite(arr).all():
                raise ValueError(f"table {key} has a non-finite entry")
            if arr.min() < -1e-12:
                raise InvariantError(
                    f"table {key}: negative probability {arr.min()}")
            total = arr.sum()
            if abs(total - 1.0) > ATOL_TABLE:
                raise InvariantError(
                    f"table {key}: sums to {total}, expected 1")
        a.setflags(write=False)

    @property
    def axes(self) -> tuple[int, ...]:
        """Outcome alphabet sizes of one input pair's distribution."""
        return self.tables.shape[2:]


def _full_alphabets(s: PortSchedule) -> dict[str, Any]:
    """Alphabet bookkeeping for the complete outcome tuples (every port is
    acted on, so level i carries one index per node of the level above)."""
    node_counts = []
    nodes = 1
    for c in s.port_counts:
        node_counts.append(nodes)
        nodes *= c
    return {
        "level_port_counts": list(s.port_counts),
        "level_variable_counts": node_counts,
        "leaf_variable_count": nodes,
        "leaf_alphabet": 2,
    }


def generate_correlations(p: MemorylessProtocol, s: PortSchedule,
                          mode: str = "exact", trials: int | None = None,
                          seed: int | None = None,
                          ideal: bool | Sequence[bool] = False
                          ) -> CorrelationTable:
    """Leaf distribution on the realized path of the teleportation
    pipeline, one row per input pair.

    exact mode computes the terminal distribution in closed form; the
    per-path statistics are the schedule's uniform port prefix times it.
    sampled mode draws `trials` runs per input pair from per-pair derived
    substreams of `seed` and reports each pair's leaf frequencies.  The
    ideal flag replaces each teleportation step by a perfect channel (the
    infinite-port surrogate) while keeping the index tree; a sequence of
    per-level flags bypasses only the selected transmissions.
    """
    if not isinstance(p, MemorylessProtocol):
        raise TypeError("correlations need a memoryless protocol; convert "
                        "with to_memoryless first")
    proto = p.proto
    legs = tuple(d for _, d in proto.legs)
    if s.port_dims != legs:
        raise ValueError(
            f"schedule/protocol mismatch: port dims {s.port_dims} vs "
            f"transmitted dims {legs}")
    if isinstance(ideal, bool):
        mask = (ideal,) * s.levels
    else:
        mask = tuple(bool(v) for v in ideal)
        if len(mask) != s.levels:
            raise ValueError(f"ideal mask length {len(mask)} does not "
                             f"match {s.levels} transmission levels")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    path_cells = 2 * math.prod(s.port_counts)
    if path_cells > ALPHABET_CAP:
        raise CapExceededError(
            f"path alphabet product {path_cells} exceeds {ALPHABET_CAP}")
    if mode == "sampled":
        if not _integral(trials) or trials < 1:
            raise ValueError(f"sampled mode needs an integer trials >= 1, "
                             f"got {trials!r}")
        if trials > TRIALS_CAP:
            raise CapExceededError(
                f"sampled trials {trials} exceed {TRIALS_CAP}")
        trials = int(trials)  # `PCG64.advance` refuses a numpy integer
    size = proto.truth.num_inputs
    pairs = [(x, y) for x in range(size) for y in range(size)]
    counts = s.port_counts
    # Exact mode reads no stream, and spawning them imports numpy.random.
    if mode == "sampled":
        streams = np.random.default_rng(seed).spawn(len(pairs))
    else:
        streams = [None] * len(pairs)
    lams = [1.0 if on else depolarizing_parameter(n, d)
            for on, n, d in zip(mask, counts, s.port_dims)]
    skip = None
    if mode == "sampled" and all(c & (c - 1) == 0 for c in counts):
        skip = (trials * sum(c > 1 for c in counts) + 1) // 2

    def one_pair(job) -> np.ndarray:
        (x, y), rng = job
        term = np.clip(_simulate(proto, x, y, lams), 0.0, None)
        term = term / term.sum()
        if mode == "exact":
            return term
        # Each trial draws its port at every level, then its leaf.  Only the
        # leaf is tallied; the port draws are thrown away and made only so
        # that the stream, and with it every seeded report, keeps its bytes.
        # A port count below 2^32 takes one 32-bit word of PCG64 per draw,
        # two to a 64-bit step, and a power of two rejects none (1 takes no
        # word at all).  So when every count is a power of two, one advance
        # skips exactly the steps the draws would read; the leaf's `random`
        # reads whole steps, never the half-used one the advance drops.
        # Any other count draws its digits, whose rejections depend on the
        # data.
        chunks = [min(_CHUNK, trials - lo) for lo in range(0, trials, _CHUNK)]
        if skip is not None:
            rng.bit_generator.advance(skip)
        else:
            for c in counts:
                for n in chunks:
                    rng.integers(0, c, size=n)
        hits = sum(np.count_nonzero(rng.random(n) < term[1]) for n in chunks)
        return np.array([trials - hits, hits]) / trials

    results = thread_map(one_pair, list(zip(pairs, streams)))
    return CorrelationTable(
        truth=proto.truth, schedule=s,
        tables=np.stack(results).reshape(size, size, 2),
        mode=mode, seed=seed, trials=trials if mode == "sampled" else None,
        meta={"ideal": all(mask) if len(set(mask)) == 1 else list(mask),
              "full_alphabets": _full_alphabets(s)})


def _schedule(table: CorrelationTable) -> PortSchedule:
    if table.schedule is None:
        raise ValueError("table carries no port schedule")
    return table.schedule


def simulate_with_classical_comm(table: CorrelationTable
                                 ) -> tuple[float, float]:
    """(success probability, classical bits) when the kept indices are sent.

    Revealing every port index collapses the tree to the realized path,
    and the leaf outcome there is the protocol's output; the cost is the
    bits needed to name one index per level of the table's schedule.
    """
    bits = _schedule(table).budget_bits
    return _path_value(table), bits


def _path_value(table: CorrelationTable) -> float:
    """Sum over (x, y) of mu(x, y) P(leaf outcome = f(x, y))."""
    t = table.truth
    value = 0.0
    for x, y in t.support():
        value += t.mu[x, y] * table.tables[x, y, t.f[x, y]]
    return float(value)


@dataclass(frozen=True)
class BellReport:
    """One evaluated Bell test: quantum value, classical bound, ratio."""
    bell_value: float
    shifted_value: float
    classical_delta: float | None
    classical_method: str | None
    ratio: float | None
    schedule: PortSchedule | None
    mode: str
    seed: int | None
    budget_bits: float | None
    meta: dict[str, Any] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.shifted_value != self.bell_value - 0.5:
            raise InvariantError("shifted value must equal value - 1/2")


def bell_value(table: CorrelationTable, delta: float | None = None,
               method: str | None = None) -> BellReport:
    """Evaluate the path functional of the table's target function and
    input distribution: each input pair (x, y) weighs mu(x, y) on the
    event that the leaf outcome along the realized path equals f(x, y).
    `delta` is the classical margin (local value minus 1/2, from
    `lhv_bound`) and `method` how it was obtained; with a margin the
    report carries the violation ratio."""
    s = _schedule(table)
    if delta is not None and not 0.0 <= delta <= 0.5 + 1e-12:
        raise InvariantError(
            f"classical margin delta={delta} outside [0, 1/2]")
    value = _path_value(table)
    ratio = None if delta is None else violation_ratio(value - 0.5, delta)
    return BellReport(
        bell_value=value, shifted_value=value - 0.5,
        classical_delta=delta, classical_method=method,
        ratio=ratio, schedule=s, mode=table.mode, seed=table.seed,
        budget_bits=s.budget_bits,
        meta=dict(table.meta) if table.meta else None)


def _lhv_exact(t: TruthTable, s: PortSchedule) -> float:
    """Best functional value over deterministic local strategies.

    A local strategy on the outcome tree is a deterministic protocol whose
    legs carry the kept port indices, so this is the communication search
    of `classicalcc` with the port counts as leg alphabets, for any number
    of levels: Alice's and Bob's best index maps and Bob's leaf bits, once
    her index maps (n1 * n3^n2)^|X| at three levels fit LHV_CAP.
    """
    return _best_response(_weights(t), _capped(
        t.num_inputs, s.port_counts, LHV_CAP, "deterministic strategy space"))


def lhv_bound(t: TruthTable, s: PortSchedule, *, method: str) -> float:
    """Classical margin delta of the path functional for truth table t
    under port schedule s: local value minus 1/2.

    method "exact" maximizes over deterministic communication-free
    strategies on the outcome tree.  method "cc_derived" instead grants a
    classical protocol the schedule's full bit budget and uses the
    communication oracle's best success, which can only be larger: local
    strategies are simulated by announcing the kept indices.
    """
    if method == "exact":
        value = _lhv_exact(t, s)
    elif method == "cc_derived":
        bits = max(math.ceil(s.budget_bits - _CEIL_GUARD), 0)
        value = best_success_tree(t, bits)
    else:
        raise ValueError(f"unknown method {method!r}")
    return max(float(value) - 0.5, 0.0)


def lhv_strategies(t: TruthTable, s: PortSchedule) -> Iterator[tuple]:
    """All deterministic local strategies for the outcome tree.

    Yields (alice, bob) pairs: for one level, alice = (a1[x],) and
    bob = (leaf[y, i1],); for three levels, alice = (a1[x], a3[x, i1, i2])
    and bob = (b2[y, i1], leaf[y, i1, i2, i3]).
    """
    if s.levels not in (1, 3):
        raise CapExceededError(
            f"strategy enumeration supports 1 or 3 levels, got {s.levels}")
    size = t.num_inputs
    n1, n2, n3 = (s.port_counts + (1, 1))[:3]
    per_x, per_y = n1 * n3 ** (n1 * n2), n2 ** n1
    cells = size * n1 * n2 * n3
    if per_x ** size * per_y ** size * 2 ** cells > LHV_CAP:
        raise CapExceededError("strategy enumeration too large")
    a3_rows = _maps(0, per_x // n1, n1 * n2, n3).reshape(-1, n1, n2)
    b2_rows = _maps(0, per_y, n1, n2)
    leaf_shape = (size, n1) if s.levels == 1 else (size, n1, n2, n3)
    leaves = _maps(0, 2 ** cells, cells, 2).reshape((-1,) + leaf_shape)
    leaves.flags.writeable = False  # shared by every yield
    for aidx in product(range(per_x), repeat=size):
        a1 = np.array([c % n1 for c in aidx], dtype=np.int64)
        a3 = a3_rows[[c // n1 for c in aidx]]
        for bidx in product(range(per_y), repeat=size):
            b2 = b2_rows[list(bidx)]
            for leaf in leaves:
                yield ((a1,), (leaf,)) if s.levels == 1 else \
                    ((a1, a3), (b2, leaf))


def lhv_table(t: TruthTable, s: PortSchedule, alice: tuple,
              bob: tuple) -> CorrelationTable:
    """Correlation table of one deterministic local strategy: a 1 at the
    leaf outcome on each pair's realized path."""
    size = t.num_inputs
    x, y = np.indices((size, size))
    if s.levels == 1:
        (a1,), (leaf,) = alice, bob
        out = leaf[y, a1[x]]
    else:
        (a1, a3), (b2, leaf) = alice, bob
        i1 = a1[x]
        i2 = b2[y, i1]
        out = leaf[y, i1, i2, a3[x, i1, i2]]
    tables = np.zeros((size, size, 2))
    tables[x, y, out] = 1.0
    return CorrelationTable(truth=t, schedule=s, tables=tables, mode="lhv")


def violation_ratio(quantum_shifted: float, classical_delta: float) -> float:
    """Quantum-to-classical margin ratio; infinite when the classical
    margin vanishes (reported as a flag, never fed into arithmetic)."""
    if classical_delta < 0:
        raise ValueError(f"classical margin {classical_delta} negative")
    if classical_delta == 0.0:
        return math.inf
    return quantum_shifted / classical_delta


def ratio_lower_bound(c_classical: float, c_quantum: float) -> float:
    """Margin-ratio bound sqrt(classical/quantum budget) / (6 sqrt(3))."""
    if c_classical <= 0 or c_quantum <= 0:
        raise ValueError("budgets must be positive")
    return RATIO_COEFF * math.sqrt(c_classical / c_quantum)


def margin_ratio_lower_bound(delta: float) -> float:
    """Companion bound (1/6)/delta on the quantum-to-classical ratio."""
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"classical margin {delta} outside (0, 1/2]")
    return (1.0 / 6.0) / delta


def asymptotic_ratio_one_way(n: float, c: float = 1.0) -> float:
    """Closed-form ratio for the vector-in-subspace game, one-way route:
    (1/2)(1 - 1/n) / sqrt(5 log2(n) / (c n^(1/3)))."""
    if n < 2:
        raise ValueError(f"dimension n={n} must be >= 2")
    if c <= 0:
        raise ValueError(f"constant c={c} must be positive")
    return 0.5 * (1.0 - 1.0 / n) / math.sqrt(
        5.0 * math.log2(n) / (c * n ** (1.0 / 3.0)))


def asymptotic_ratio_two_way(n: float, c: float = 1.0) -> float:
    """Closed-form ratio for the vector-in-subspace game, interactive
    route: (1/2)(1 - 1/n)^2 / sqrt(c 10 log2(n)^2 / n^(1/4))."""
    if n < 2:
        raise ValueError(f"dimension n={n} must be >= 2")
    if c <= 0:
        raise ValueError(f"constant c={c} must be positive")
    return 0.5 * (1.0 - 1.0 / n) ** 2 / math.sqrt(
        c * 10.0 * math.log2(n) ** 2 / n ** 0.25)


def _near_unit(val):
    """Whether a rate (or each of an array of rates) lies in [0, 1] up to
    the 1e-12 that `OneWayStats` grants."""
    return (-1e-12 <= val) & (val <= 1.0 + 1e-12)


@dataclass(frozen=True)
class OneWayStats:
    """Success statistics of the remote-preparation route.

    p_a is Alice's flag rate (exactly 1/message dimension); p_b is Bob's
    success conditioned on the flag, weighted by mu.
    """
    p_a: float
    p_b: float
    truth: TruthTable

    def __post_init__(self):
        for name, val in (("p_a", self.p_a), ("p_b", self.p_b)):
            if not _near_unit(val):
                raise InvariantError(f"{name}={val} outside [0, 1]")

    @property
    def n(self) -> int:
        return self.truth.n


def one_way_correlations(p: CommProtocol | MemorylessProtocol
                         ) -> tuple[CorrelationTable, OneWayStats]:
    """Binary-flag correlations of a one-round protocol over a shared
    maximally entangled pair.

    Alice measures her half against the conjugated message state (flag 1
    on the projector), which steers Bob's half to the message itself; Bob
    measures his observable on that half plus his local register.  The
    message must be unentangled with Alice's memory, so the protocol's
    kept register has to be absent.
    """
    proto = p.proto if isinstance(p, MemorylessProtocol) else p
    if proto.rounds != 1:
        raise ValueError("one-way correlations need a one-round protocol")
    if proto.a_dims[0] != 1:
        raise ValueError(
            "message is entangled with the sender's memory; remote "
            "preparation needs an unentangled message state")
    d = proto.m_out_dims[0]
    b0 = proto.b0_dim
    size = proto.truth.num_inputs
    phi = np.zeros(d * d * b0, dtype=np.complex128)
    for j in range(d):
        phi[(j * d + j) * b0] = 1.0 / math.sqrt(d)
    tables = np.zeros((size, size, 2, 2))
    for x in range(size):
        flag = rsp_povm(PureState(proto.alice_ops[0][x][:, 0]))
        for y, a, b in product(range(size), range(2), range(2)):
            op = np.kron(flag.elements[1 - a],  # flag 1 is element 0
                         proto.observables[y].elements[b])
            tables[x, y, a, b] = float(np.real(phi.conj() @ op @ phi))
    t = proto.truth
    p_a = 0.0
    p_b = 0.0
    for x, y in t.support():
        arr = tables[x, y]
        hit = arr[1, :].sum()
        p_a += t.mu[x, y] * hit
        p_b += t.mu[x, y] * arr[1, t.f[x, y]] / hit
    if abs(p_a - 1.0 / d) > 1e-12:
        raise InvariantError(
            f"flag rate {p_a} deviates from 1/d = {1.0 / d}")
    table = CorrelationTable(
        truth=t, schedule=None, tables=tables, mode="one_way",
        meta={"message_dim": d})
    return table, OneWayStats(p_a=float(p_a), p_b=float(p_b), truth=t)


@dataclass(frozen=True)
class NonlinearCheck:
    """Outcome of the nonlinear communication inequality on one-way stats.

    The rigorous form compares the bits of the flag-merging protocol
    (left) against the oracle budget for success (1-delta) p_b + delta/2
    (right).  The heuristic form drops the abort bookkeeping and is
    expected to report violations; the pumped form lower-bounds the right
    side through the amplification relation instead of querying the
    oracle at the composite target.
    """
    delta: float
    target: float
    lhs_bits: float
    rhs_bits: float
    holds: bool
    heuristic_lhs: float
    heuristic_rhs: float
    heuristic_violated: bool
    pumped_rhs: float
    pumped_holds: bool


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} must lie in (0, 1)")
    if math.isinf(1.0 / delta):
        raise ValueError(f"delta={delta} is so small that 1/delta overflows")


def _merge_bits(p_a: float, delta: float) -> float:
    """Left side of the rigorous nonlinear check: the flag-merging
    protocol's ceil(log2(1/p_a) + log2 log2(1/delta)) + 1 bits.  A flag
    rate of 0, or one so small that 1/p_a overflows, costs unboundedly
    many bits."""
    inv_a = 1.0 / float(p_a) if p_a > 0.0 else math.inf
    if math.isinf(inv_a):
        return math.inf
    return float(math.ceil(math.log2(inv_a)
                           + math.log2(math.log2(1.0 / delta))
                           - _CEIL_GUARD) + 1)


def nonlinear_bell_check(stats: OneWayStats, delta: float,
                         oracle: Callable[[float], float] | None = None
                         ) -> NonlinearCheck:
    """Check the nonlinear inequality at abort weight delta.

    `oracle(target)` must return the minimum bits for the stats' function
    to reach the target success under its distribution; by default a
    one-way `BudgetOracle` for the stats' table answers the call's queries.
    """
    _check_delta(delta)
    if oracle is None:
        oracle = BudgetOracle(stats.truth)
    # `OneWayStats` grants p_b 1e-12 past [0, 1]; the oracle takes [0, 1].
    p_b = min(max(stats.p_b, 0.0), 1.0)
    target = (1.0 - delta) * p_b + delta / 2.0
    rhs = oracle(target)
    if math.isinf(rhs):
        raise ValueError(
            f"communication oracle cannot certify target {target}")
    lhs = _merge_bits(stats.p_a, delta)
    holds = bool(lhs >= rhs - 1e-12)
    heuristic_lhs = math.log2(1.0 / float(stats.p_a)) if stats.p_a > 0.0 \
        else math.inf
    heuristic_rhs = oracle(p_b)
    c23 = oracle(2.0 / 3.0)
    eps_t = max(target - 0.5, 0.0)
    if target > 2.0 / 3.0:
        pumped = float(c23)
    elif eps_t == 0.0:  # the pumping bound is vacuous, even if c23 is inf
        pumped = 0.0
    else:
        pumped = eps_t ** 2 / 3.0 * c23
    return NonlinearCheck(
        delta=delta, target=float(target), lhs_bits=float(lhs),
        rhs_bits=float(rhs), holds=holds,
        heuristic_lhs=float(heuristic_lhs),
        heuristic_rhs=float(heuristic_rhs),
        heuristic_violated=bool(heuristic_lhs < heuristic_rhs - 1e-12),
        pumped_rhs=float(pumped),
        pumped_holds=bool(lhs >= pumped - 1e-12))


def _deterministic_boxes(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every deterministic box on `size` inputs per party, as boolean flag
    and answer arrays of shape (4^size, size).  Row k holds the bits of k,
    most significant first: the flag is the high `size` bits, the answer
    the low ones, the order of `itertools.product` over flag, then
    answer."""
    k = np.arange(4 ** size)
    bits = np.empty((k.size, 2 * size), dtype=bool)
    for j in range(2 * size):
        bits[:, j] = (k >> (2 * size - 1 - j)) & 1
    return bits[:, :size], bits[:, size:]


def _nonlinear_box_sweep(t: TruthTable, flags: np.ndarray,
                         answers: np.ndarray, deltas: Sequence[float],
                         oracle: BudgetOracle) -> tuple[int, float]:
    """Rigorous nonlinear checks of many flag boxes at every delta: the
    number of (box, delta) checks that fail, and the least margin lhs - rhs
    in bits (inf with no boxes).

    Row i of the boolean arrays `flags` and `answers` is box i: flag[x] says
    whether Alice announces success on input x, answer[y] is Bob's output
    on input y.  Each check is the rigorous verdict of
    `nonlinear_bell_check` on the box's `OneWayStats`, bit for bit: p_a
    and the hit mass add mu over `support()` in its order, skipping
    entries the box does not take (as adding 0.0 would, exactly); the left
    side is `_merge_bits` once per distinct (p_a, delta); and the right
    side is one oracle query per delta over all boxes.
    """
    for delta in deltas:
        _check_delta(delta)
    p_a = np.zeros(len(flags))
    hit = np.zeros(len(flags))
    for x, y in t.support():
        m = t.mu[x, y]
        np.add(p_a, m, out=p_a, where=flags[:, x])
        np.add(hit, m, out=hit,
               where=flags[:, x] & (answers[:, y] == bool(t.f[x, y])))
    p_b = np.full(len(flags), 0.5)
    np.divide(hit, p_a, out=p_b, where=p_a > 0.0)
    bad = np.flatnonzero(~(_near_unit(p_a) & _near_unit(p_b)))
    if bad.size:  # raises the first bad box's error
        OneWayStats(p_a=float(p_a[bad[0]]), p_b=float(p_b[bad[0]]), truth=t)
    np.clip(p_b, 0.0, 1.0, out=p_b)
    rates, rate_of = np.unique(p_a, return_inverse=True)
    failures = 0
    worst = math.inf
    for delta in deltas:
        delta = float(delta)
        target = (1.0 - delta) * p_b + delta / 2.0
        rhs = oracle(target)
        uncertified = np.isinf(rhs)
        if uncertified.any():
            raise ValueError(f"communication oracle cannot certify target "
                             f"{float(target[uncertified][0])}")
        lhs = np.array([_merge_bits(a, delta)
                        for a in rates.tolist()])[rate_of]
        failures += int(np.count_nonzero(~(lhs >= rhs - 1e-12)))
        if lhs.size:
            worst = min(worst, float((lhs - rhs).min()))
    return failures, worst


def observation_bound(p_succ: float, truth: TruthTable,
                      oracle: Callable[[float], float] | None = None
                      ) -> float:
    """Communication lower bound max over delta in OBSERVATION_DELTAS of
    oracle((1-delta) p + delta/2) - log2 log2 (1/delta), minus 2.

    Negative results mean the bound is vacuous at the probed scale.  By
    default a one-way `BudgetOracle` for `truth` is the oracle.  p_succ
    may stray past [0, 1] by 1e-12, as `OneWayStats` allows, and is
    clipped to it."""
    if not _near_unit(p_succ):
        raise ValueError(f"success {p_succ} outside [0, 1]")
    p_succ = min(max(p_succ, 0.0), 1.0)
    if oracle is None:
        oracle = BudgetOracle(truth)
    best = -math.inf
    for delta in OBSERVATION_DELTAS:
        target = (1.0 - delta) * p_succ + delta / 2.0
        penalty = math.log2(math.log2(1.0 / delta))
        best = max(best, oracle(target) - penalty)
    return best - 2.0


def one_way_linear_bell(table: CorrelationTable, stats: OneWayStats,
                        k: float = 1.0,
                        oracle: BudgetOracle | None = None) -> BellReport:
    """Linear Bell test from merged flag instances.

    Runs `remoteprep.batch_size(k, p_a)` = ceil(k / p_a) independent
    instances; Alice announces the first flagged one (or the abort
    codeword, worth a coin flip), Bob answers from that instance.  The
    classical bound grants a one-way protocol the same index budget, read
    from `oracle` (by default a fresh one-way `BudgetOracle` for the
    stats' table).
    """
    if table.schedule is not None or table.axes != (2, 2):
        raise ValueError("flag-indexed one-way table required")
    m = batch_size(k, stats.p_a)
    t = stats.truth
    value = 0.0
    for x, y in t.support():
        arr = table.tables[x, y]
        hit_rate = arr[1, :].sum()
        hit_correct = arr[1, t.f[x, y]]
        q = 1.0 - hit_rate
        if q < 1.0:
            geom = (1.0 - q ** m) / (1.0 - q)
        else:
            geom = 0.0
        value += t.mu[x, y] * (hit_correct * geom + q ** m * 0.5)
    value = float(value)
    if value > 1.0 + 1e-12:
        raise InvariantError(f"merged value {value} exceeds 1")
    budget = index_cost_bits(m)
    if oracle is None:
        oracle = BudgetOracle(t)
    delta = oracle.success(budget) - 0.5
    return BellReport(
        bell_value=value, shifted_value=value - 0.5,
        classical_delta=float(delta), classical_method="cc_derived",
        ratio=violation_ratio(value - 0.5, float(delta)),
        schedule=None, mode=table.mode, seed=table.seed,
        budget_bits=float(budget),
        meta={"instances": m, "k": float(k)})

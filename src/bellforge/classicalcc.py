"""Exact small-case oracles for classical communication success.

Given a boolean target f(x, y) with an input distribution mu (a
:class:`~bellforge.protocols.TruthTable`), these routines compute the best
success probability that classical protocols reach under a fixed
communication budget, by direct search over deterministic strategies.  The
final decision rule is filled in greedily per (transcript, y), which is
exact: the decision is the only step that sees both the transcript and
Bob's input, so its optimum decomposes pointwise.  Shared randomness never
helps against a fixed distribution (the value is linear in the strategy
mixture), so the deterministic optimum is the optimum.

The messages are solved by the same argument, one leg at a time.  A
deterministic protocol whose legs, sent by Alice, Bob, Alice, ... in turn,
have alphabets (a1, a2, ...) cuts X x Y into one rectangle S x T per
transcript.  Deciding on S x T earns V(S, T) = sum_{y in T} max_b
sum_{x in S} W[b, x, y], with W[b, x, y] = mu(x, y) [f(x, y) = b].  An
Alice leg of a messages earns on S x T the best split of S into at most a
classes, each worth what the later legs earn on it, and a Bob leg the best
split of T; from the last leg back to the first, this gives the value on
X x Y.  Legs of one message are dropped first, one party's consecutive
legs become one leg with the product alphabet, and a last Bob leg, which
nobody reads, is dropped.  Each split is a (max, +) recursion over subsets
instead of a walk over Alice's maps.  The S axis is kept only while an
Alice leg is to come and the T axis only while a Bob leg is, so a one-way
search pairs only the 3^|X| subsets (S, T of S) of X.

The search counts the array cells it will fill and refuses past CELL_CAP
before it allocates any (`_search_cells`); its callers apply no rule.

The searched quantity is distributional: the best average success under mu
for a fixed budget.  Its inverse (minimum bits to reach a target success)
is a lower-bound surrogate for worst-case complexity, and reports built on
top of these oracles label it as such.  One :class:`BudgetOracle` per
table and method answers both that inverse and the budget-to-success
table, from one memo of searched budgets.  It searches budgets in
ascending order, each at most once, and only as far as the current target
or table needs, so the many targets of a sweep cost a handful of
searches.  The memo is lazy rather than a full table because search
cost grows steeply with the budget: on an n = 4 table one-way budget 2 is
past CELL_CAP, while a target that budget 0 reaches searches nothing.

Alongside the search live the standard repetition helpers: Chernoff repeat
counts, majority-vote amplification, and the quadratic "pumping" relation
between budgets at different success levels.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby
from typing import Callable

import numpy as np

from .protocols import TruthTable
from .states import CapExceededError

# Hard cap on the array cells of one rectangle search (`_search_cells`),
# whose float64 arrays hold at most two per counted cell.  A pair-table
# level fills 3^n cells, so the table is formed only for n <= 15 elements
# (3^16 > CELL_CAP): on truth tables, |X| <= 8.
CELL_CAP = 2 ** 25

# A budget table holds at most this many rows (budgets 0..TABLE_ROW_CAP-1).
TABLE_ROW_CAP = 2 ** 12

# A budget reaches target success p when its best success is at least
# p - _TARGET_SLACK, so float noise in a searched optimum never costs a bit.
_TARGET_SLACK = 1e-12

# Guard subtracted before ceilings of exact rational expressions, so that
# float noise (e.g. 3/(1/6)^2 evaluating to 108.00000000000001) does not
# bump the result to the next integer.
_CEIL_GUARD = 1e-9


def _weights(t: TruthTable) -> np.ndarray:
    """W[b, x, y] = mu(x, y) * [f(x, y) = b]."""
    f = t.f[np.newaxis, :, :]
    b = np.arange(2).reshape(2, 1, 1)
    return np.where(f == b, t.mu[np.newaxis, :, :], 0.0)


def _subset_sums(a: np.ndarray) -> np.ndarray:
    """s[..., R] = sum of a[..., i] over the set bits i of R: the last axis
    of length n becomes one of length 2^n."""
    n = a.shape[-1]
    s = np.empty(a.shape[:-1] + (2 ** n,))
    s[..., 0] = 0.0
    for i in range(n):
        h = 2 ** i
        np.add(s[..., :h], a[..., i:i + 1], out=s[..., h:2 * h])
    return s


@lru_cache(maxsize=None)
def _subset_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (S, T) of bitmasks over n elements with T a subset of S,
    3^n of them, grouped by S in ascending order: read-only int32 (t, r,
    starts) with t = T, r = S ^ T, and S's group starting at starts[S];
    its j-th member is j's bits deposited on S's set bits, lowest first."""
    sizes = np.ones(1, dtype=np.int32)
    for _ in range(n):                   # |S's group| = 2^popcount(S)
        sizes = np.concatenate([sizes, 2 * sizes])
    starts = np.cumsum(sizes, dtype=np.int32) - sizes
    s = np.repeat(np.arange(2 ** n, dtype=np.int32), sizes)
    j = np.arange(3 ** n, dtype=np.int32) - starts[s]
    t = np.zeros_like(j)
    for i in range(n):
        on = (s >> i) & 1
        t |= (j & on) << i
        j >>= on
    r = s ^ t
    for a in (t, r, starts):
        a.flags.writeable = False
    return t, r, starts


def _levels(parts: int, n: int, whole: bool) -> int:
    """Levels of `_partition`; it forms the pair table for 2 or more."""
    parts = max(1, min(parts, n))
    return parts - 1 if whole else parts


def _partition(v: np.ndarray, parts: int, n: int,
               whole: bool = False) -> np.ndarray:
    """For every bitmask S over n elements (the last axis of v, of length
    2^n), the largest sum of v over at most `parts` disjoint subsets whose
    union is S.  v[..., 0] must be 0, so that an empty part adds nothing.

    Each level over every S reduces the 3^n (S, T) pairs of
    `_subset_pairs`.  With `whole` only S = all n elements is returned, and
    its last level is a single 2^n pass.
    """
    levels = _levels(parts, n, whole)
    best = v
    if levels > 1:
        t, r, starts = _subset_pairs(n)
        vt = np.take(v, t, axis=-1)
        pair = np.empty_like(vt)
        for _ in range(levels - 1):
            # "clip" writes straight into `pair`; "raise" would buffer.
            np.take(best, r, axis=-1, out=pair, mode="clip")
            pair += vt
            best = np.maximum.reduceat(pair, starts, axis=-1)
    if not whole:
        return best
    if levels == 0:
        return best[..., -1]
    return (v + best[..., ::-1]).max(axis=-1)


def _search_cells(nx: int, ny: int, seq: list[tuple[int, int]]) -> int:
    """Array cells `_best_response` fills on its merged legs `seq`: the
    subset sums, then per split of n elements a 2^n pass and 3^n cells a
    pair-table level, times the other party's 2^n while both axes stay."""
    sizes = (nx, ny)
    cells = 2 * ny * 2 ** nx + (2 ** (nx + ny) if len(seq) > 1 else 0)
    for k, (party, a) in enumerate(seq):
        n = sizes[party]
        levels = _levels(a, n, whole=k < 2)
        split = 2 ** n + max(levels - 1, 0) * 3 ** n
        cells += split * (2 ** sizes[1 - party] if k else 1)
    return cells


def _best_response(w: np.ndarray, legs: tuple[int, ...]) -> float:
    """Best score on weights W[b, x, y] of deterministic protocols whose
    legs, sent by Alice, Bob, Alice, ... in turn, have alphabets `legs`:
    the rectangle recursion of the module docstring, refused before any
    allocation past CELL_CAP."""
    _, nx, ny = w.shape
    kept = [(k % 2, a) for k, a in enumerate(legs) if a > 1]
    seq = [(party, math.prod(a for _, a in run))     # Alice = 0, Bob = 1
           for party, run in groupby(kept, key=lambda leg: leg[0])]
    if seq and seq[-1][0] == 1:          # nobody reads Bob's last message
        seq.pop()
    if not seq:
        # One class, X itself: no subset table, however large X is.
        return float(w.sum(axis=1).max(axis=0).sum())
    cells = _search_cells(nx, ny, seq)
    if cells > CELL_CAP:
        raise CapExceededError(
            f"rectangle search on {nx} x {ny} inputs fills {cells} array "
            f"cells, more than {CELL_CAP}")
    u = _subset_sums(w.transpose(0, 2, 1)).max(axis=0)   # (y, S)
    # V(S, T) at [T, S] while a Bob leg is to come, else V(S, Y) at [S];
    # each split leaves the other party's axis last.
    v = _subset_sums(u.T).T if len(seq) > 1 else u.sum(axis=0)
    for k in range(len(seq) - 1, -1, -1):
        party, a = seq[k]
        v = _partition(v, a, (nx, ny)[party], whole=k < 2).T
    return float(v)


def best_success_one_way(t: TruthTable, bits: int) -> float:
    """Best average success with one `bits`-bit message from Alice to Bob.

    Alice's message map x -> {0..2^bits - 1} is the best split of the inputs
    into at most 2^bits classes; Bob's decision is chosen greedily per
    (message, y).  If the message alphabet covers the whole input set the
    identity map is optimal and the search is skipped.
    """
    if bits < 0:
        raise ValueError(f"bits={bits} must be >= 0")
    if bits >= t.n:
        # Sending x itself lets the decision rule output f(x, y) directly.
        return 1.0
    return _best_response(_weights(t), (2 ** bits,))


def _genuine_splits(bits: int) -> list[tuple[int, int, int]]:
    """Budget splits (c1, c2, c3) over the three alternating transmissions
    A->B, B->A, A->B where the middle and last legs both carry bits.

    Splits with c3 = 0 collapse to one-way protocols (Bob's own message
    cannot inform his decision), and splits with c2 = 0 merge the two
    Alice legs into one; both are covered by the one-way search.
    """
    out = []
    for c2 in range(1, bits):
        for c3 in range(1, bits - c2 + 1):
            out.append((bits - c2 - c3, c2, c3))
    return out


def _tree_split_value(t: TruthTable, c1: int, c2: int, c3: int) -> float:
    """Best success over deterministic three-leg protocols with leg budgets
    (c1, c2, c3): Alice's best partition against Bob's exact best
    response."""
    return _best_response(_weights(t), (2 ** c1, 2 ** c2, 2 ** c3))


def best_success_tree(t: TruthTable, bits: int) -> float:
    """Best average success with `bits` total bits over up to three
    alternating transmissions A->B, B->A, A->B (a fourth cannot help since
    Bob decides): the one-way optimum or any genuine split, whichever is
    larger.  Interactive splits are searched exactly.
    """
    if bits < 0:
        raise ValueError(f"bits={bits} must be >= 0")
    best = best_success_one_way(t, bits)
    if best >= 1.0 - 1e-15:
        return best
    for split in _genuine_splits(bits):
        best = max(best, _tree_split_value(t, *split))
    return best


class BudgetOracle:
    """p -> minimum bits whose best success reaches p, for one table and
    method; inf if no budget up to n, where success 1 is always reachable
    one-way, gets there.

    Searched successes are memoised per budget, searched in ascending order
    and only as far as a query, a `table` or `success` needs (module
    docstring).  The memo lives as long as the oracle, so a caller shares
    one oracle across the queries of one command and nothing outlives it.
    """

    def __init__(self, t: TruthTable, method: str = "one_way"):
        if method not in ("one_way", "tree"):
            raise ValueError(f"unknown method {method!r}")
        self.t = t
        self.method = method
        self._searched: list[float] = []

    def success(self, bits: int) -> float:
        """Best success at `bits`, searching any smaller budget not yet
        searched first."""
        if bits < 0:
            raise ValueError(f"bits={bits} must be >= 0")
        # Looked up per call, so that a replacement of the module attribute
        # (a test spy or a timing wrapper) sees every search.
        search = best_success_one_way if self.method == "one_way" else \
            best_success_tree
        while len(self._searched) <= bits:
            self._searched.append(search(self.t, len(self._searched)))
        return self._searched[bits]

    def __call__(self, p: float | np.ndarray) -> float | np.ndarray:
        """Least budget whose success reaches target p, or inf.  `p` is one
        target, answered with an int or inf, or an array of them, answered
        elementwise with a float array.  One loop serves both: each budget
        meets every open target, since searched successes need not be
        monotone, and budgets are searched only while some target is
        unmet."""
        targets = np.asarray(p, dtype=np.float64)
        if not ((0.0 <= targets) & (targets <= 1.0)).all():
            raise ValueError(f"target success p={p} must lie in [0, 1]")
        need = np.full(targets.shape, math.inf)
        unmet = np.ones(targets.shape, dtype=bool)
        for c in range(self.t.n + 1):
            if not unmet.any():
                break
            reached = unmet & (self.success(c) >= targets - _TARGET_SLACK)
            need[reached] = c
            unmet &= ~reached
        if isinstance(p, np.ndarray):
            return need
        return math.inf if unmet else int(need)

    def table(self, max_bits: int | None = None
              ) -> tuple[tuple[int, float], ...]:
        """Budget table ((bits, success), ...) over 0..max_bits (default
        n), read from and filling the same memo."""
        if max_bits is None:
            max_bits = self.t.n
        if max_bits < 0:
            raise ValueError(f"bits={max_bits} must be >= 0")
        if max_bits >= TABLE_ROW_CAP:
            raise CapExceededError(f"budget table to {max_bits} bits has more "
                                   f"than {TABLE_ROW_CAP} rows")
        return tuple((c, self.success(c)) for c in range(max_bits + 1))


def _table_key(t: TruthTable) -> str:
    import hashlib
    h = hashlib.sha256()
    h.update(str(t.n).encode())
    h.update(np.ascontiguousarray(t.f).tobytes())
    h.update(np.round(t.mu, 12).tobytes())
    return h.hexdigest()[:16]


def chernoff_repeats(epsilon: float) -> int:
    """Repetitions of a (1/2 + epsilon)-correct protocol so that the
    majority errs with probability at most 1/3: ceil(3 / epsilon^2)."""
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon={epsilon} must lie in (0, 1/2]")
    return math.ceil(3.0 / epsilon ** 2 - _CEIL_GUARD)


def majority_amplify(runner: Callable[[np.random.Generator], bool],
                     repeats: int, trials: int,
                     seed: int | None = None) -> float:
    """Empirical success of majority voting over `repeats` runs.

    `runner(rng)` performs one protocol run and reports whether it was
    correct.  Each of `trials` experiments takes the majority of `repeats`
    runs; the returned fraction estimates its success probability.  An
    exact tie (possible only for even `repeats`; callers use odd counts)
    is scored as a failure.
    """
    if repeats < 1:
        raise ValueError(f"repeats={repeats} must be >= 1")
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    rng = np.random.default_rng(seed)
    wins = 0
    for _ in range(trials):
        correct = sum(bool(runner(rng)) for _ in range(repeats))
        if 2 * correct > repeats:
            wins += 1
    return wins / trials


def pumping_bound(c_at_p: float, epsilon: float) -> float:
    """Budget bound at success 2/3 implied by a budget `c_at_p` that
    already reaches success 1/2 + epsilon: 3 * c_at_p / epsilon^2."""
    if not 0.0 < epsilon <= 1.0 / 6.0:
        raise ValueError(f"epsilon={epsilon} must lie in (0, 1/6]")
    if c_at_p < 0:
        raise ValueError(f"c_at_p={c_at_p} must be >= 0")
    return 3.0 * c_at_p / epsilon ** 2

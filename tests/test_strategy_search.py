"""Differential tests of the deterministic-strategy search kernel.

`classicalcc._best_response` finds Alice's best partition of her inputs
by a (max, +) recursion over subsets (`classicalcc._partition`) and
solves Bob's reply exactly; the one-way oracle, every tree split and the
exact LHV bound go through it.  Three slower searches are kept here as
references.  `enumerated_best_response` is the enumeration the recursion
replaced: it walks every Alice map in chunks against Bob's best response.
`tree_split_reference` walks every (Alice, Bob) map pair in chunks (taking
leg alphabets instead of bit budgets, so that it also covers port-count
schedules), and `lhv_exact_reference` loops over every pair of index
strategies in Python.  The last two do not use Bob's best response, so
agreement at 1e-12 checks that argument as well as the recursion.  For leg
sequences of any length, `protocol_tree_reference` tries every labelling
of the sender's inputs at every node of the protocol tree, on explicit
input sets and with the legs as given.
"""

import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from bellforge import bell
from bellforge import classicalcc as cc
from bellforge.protocols import TruthTable
from bellforge.states import CapExceededError

TOL = 1e-12

# Map batch of the reference enumerations; `enumerated_best_response`
# shrinks its batches so that one batch's one-hot and score blocks hold at
# most BLOCK float64 entries.
CHUNK = 8192
BLOCK = 2 ** 21


def random_truth(rng: np.random.Generator, n: int) -> TruthTable:
    size = 2 ** n
    f = rng.integers(0, 2, size=(size, size)).astype(np.int8)
    mu = rng.random((size, size))
    return TruthTable(n=n, f=f, mu=mu / mu.sum())


def _weights(t: TruthTable) -> np.ndarray:
    return np.stack([np.where(t.f == b, t.mu, 0.0) for b in (0, 1)])


def _digit_rows(start: int, stop: int, slots: int,
                alphabet: int) -> np.ndarray:
    idx = np.arange(start, stop)
    out = np.empty((stop - start, slots), dtype=np.int64)
    for j in range(slots - 1, -1, -1):
        out[:, j] = idx % alphabet
        idx = idx // alphabet
    return out


def _one_hot(maps: np.ndarray, alphabet: int) -> np.ndarray:
    return (maps[..., np.newaxis] == np.arange(alphabet)).astype(np.float64)


def tree_split_reference(t: TruthTable, m1a: int, m2a: int,
                         m3a: int) -> float:
    """Every (m1, m2, m3) triple of index maps with leg alphabets
    (m1a, m2a, m3a); decisions greedy per (y, first message, last
    message)."""
    nx = t.num_inputs
    ny = t.num_inputs
    n1 = m1a ** nx
    n2 = m2a ** (ny * m1a)
    n3 = m3a ** (nx * m2a)
    w = _weights(t)
    m1_all = _digit_rows(0, n1, nx, m1a)
    m2_all = _digit_rows(0, n2, ny * m1a, m2a).reshape(n2, ny, m1a)
    xs = np.arange(nx)
    best = 0.0
    for m1 in m1_all:
        mask1 = _one_hot(m1, m1a)                        # (x, k1)
        for m2 in m2_all:
            reply = m2[:, m1].T                          # (x, y): m2[y, m1[x]]
            for start in range(0, n3, CHUNK):
                stop = min(start + CHUNK, n3)
                m3 = _digit_rows(start, stop, nx * m2a, m3a).reshape(
                    stop - start, nx, m2a)
                hot3 = _one_hot(m3, m3a)                 # (c, x, r, k3)
                sel = hot3[:, xs[:, np.newaxis], reply, :]   # (c, x, y, k3)
                scores = np.einsum("bxy,xk,cxyj->cbykj", w, mask1, sel)
                vals = scores.max(axis=1).sum(axis=(1, 2, 3))
                best = max(best, float(vals.max()))
    return best


def lhv_exact_reference(t: TruthTable, s: bell.PortSchedule) -> float:
    """Every pair of deterministic index strategies on the outcome tree,
    leaf bits greedy per (y, leaf)."""
    size = t.num_inputs
    w = _weights(t)
    if s.levels == 1:
        n1 = s.port_counts[0]
        best = 0.0
        for amap in product(range(n1), repeat=size):
            acc = np.zeros((size, n1, 2))
            for x in range(size):
                acc[:, amap[x], :] += w[:, x, :].T
            best = max(best, float(acc.max(axis=2).sum()))
        return best
    assert s.levels == 3, s.levels
    n1, n2, n3 = s.port_counts
    per_x = n1 * n3 ** (n1 * n2)
    per_y = n2 ** n1
    a3_all = _digit_rows(0, per_x // n1, n1 * n2, n3).reshape(-1, n1, n2)
    a_choices = [(cid % n1, a3_all[cid // n1]) for cid in range(per_x)]
    b_choices = _digit_rows(0, per_y, n1, n2)
    best = 0.0
    for aidx in product(range(per_x), repeat=size):
        picks = [a_choices[c] for c in aidx]
        for bidx in product(range(per_y), repeat=size):
            acc = np.zeros((size, n1, n2, n3, 2))
            for x in range(size):
                a1, a3 = picks[x]
                for y in range(size):
                    i2 = b_choices[bidx[y]][a1]
                    acc[y, a1, i2, a3[a1, i2], :] += w[:, x, y]
            best = max(best, float(acc.max(axis=4).sum()))
    return best


def protocol_tree_reference(w: np.ndarray, legs: tuple[int, ...]) -> float:
    """Best score on weights W[b, x, y] of deterministic protocol trees
    whose legs, sent by Alice, Bob, Alice, ... in turn, have alphabets
    `legs`.  A node's inputs are a rectangle S x T; the sender's message
    is every labelling of her or his inputs in it, each message value
    leads to its own subtree, and a leaf earns Bob's best bit per y."""
    _, nx, ny = w.shape

    @lru_cache(maxsize=None)
    def value(s: tuple[int, ...], t: tuple[int, ...], k: int) -> float:
        if k == len(legs):
            return sum(max(sum(w[b, x, y] for x in s) for b in (0, 1))
                       for y in t)
        alice = k % 2 == 0
        own = s if alice else t
        best = -math.inf
        for labels in product(range(legs[k]), repeat=len(own)):
            total = 0.0
            for m in range(legs[k]):
                part = tuple(i for i, lab in zip(own, labels) if lab == m)
                total += value(part, t, k + 1) if alice else \
                    value(s, part, k + 1)
            best = max(best, total)
        return best

    return value(tuple(range(nx)), tuple(range(ny)), 0)


@lru_cache(maxsize=32)
def _choice_table(a1: int, a2: int, a3: int) -> np.ndarray:
    """One-hot rows (k1, k2, k3) of Alice's per-input choices: choice p
    sends k1 = p % a1 and answers k2 with digit k2 of p // a1."""
    p = np.arange(a1 * a3 ** a2)
    k1 = p % a1
    k3 = _digit_rows(0, a3 ** a2, a2, a3)[p // a1]     # (choices, a2)
    hot = (k1[:, None, None, None] == np.arange(a1)[:, None, None]) & \
        (k3[:, None, :, None] == np.arange(a3))
    return hot.astype(np.float64).reshape(len(p), -1)


def enumerated_best_response(w: np.ndarray,
                             legs: tuple[int, int, int]) -> float:
    """Every one of Alice's (a1 * a3^a2)^|X| maps against Bob's exact best
    response, value = sum_{y,k1} max_k2 sum_k3 max_b S (the
    `classicalcc` module docstring), in batches of at most CHUNK maps."""
    a1, a2, a3 = legs
    _, nx, ny = w.shape
    hot = _choice_table(a1, a2, a3)
    choices, cells = hot.shape
    total = choices ** nx
    rows = max(1, min(CHUNK, BLOCK // ((nx + 2 * ny) * cells)))
    wt = w.transpose(1, 0, 2).reshape(nx, 2 * ny)           # (x, b y)
    best = 0.0
    for start in range(0, total, rows):
        g = hot[_digit_rows(start, min(start + rows, total), nx, choices)]
        s = np.matmul(g.transpose(0, 2, 1), wt).reshape(-1, a1, a2, a3, 2, ny)
        vals = s.max(axis=4).sum(axis=3).max(axis=2).sum(axis=(1, 2))
        best = max(best, float(vals.max()))
    return best


def partition_reference(v: np.ndarray, parts: int, n: int) -> np.ndarray:
    """For every bitmask S, the best sum of v over every labelling of S's
    elements with `parts` labels, so that any label's class may be
    empty."""
    out = np.empty(2 ** n)
    for s in range(2 ** n):
        members = [i for i in range(n) if s >> i & 1]
        out[s] = max(
            sum(v[sum(1 << i for i, lab in zip(members, labels) if lab == k)]
                for k in range(parts))
            for labels in product(range(parts), repeat=len(members)))
    return out


# Largest map count the reference enumeration is asked to walk: at most a
# second per table.
REF_MAPS = 2 ** 16


def reference_legs(n: int) -> list[tuple[int, int, int]]:
    """Leg triples with alphabets 1..4 that ENUM_CAP accepts at n and whose
    maps the reference enumeration walks in at most REF_MAPS."""
    return [legs for legs in product(range(1, 5), repeat=3)
            if (legs[0] * legs[2] ** legs[1]) ** (2 ** n)
            <= min(cc.ENUM_CAP, REF_MAPS)]


def tables(seed: int, n: int, count: int) -> list[TruthTable]:
    rng = np.random.default_rng(seed)
    return [random_truth(rng, n) for _ in range(count)]


def lhv_kernel(t: TruthTable, counts: tuple[int, ...]) -> float:
    return bell._lhv_exact(t, bell.PortSchedule(counts, (2,) * len(counts)))


class TestAgainstReferences:
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_way(self, n):
        for t in tables(100 + n, n, 4):
            for bits in range(3):
                want = lhv_exact_reference(
                    t, bell.PortSchedule((2 ** bits,), (2,)))
                got = cc.best_success_one_way(t, bits)
                assert abs(got - want) <= TOL, (n, bits, got, want)

    @pytest.mark.parametrize("n, split, count", [
        (1, (0, 1, 1), 4), (1, (1, 1, 1), 4), (1, (0, 1, 2), 4),
        (1, (0, 2, 1), 4),
        (2, (0, 1, 1), 4), (2, (1, 1, 1), 1), (2, (0, 1, 2), 1),
    ])
    def test_tree_splits(self, n, split, count):
        for t in tables(200 + n, n, count):
            want = tree_split_reference(t, *(2 ** c for c in split))
            got = cc._tree_split_value(t, *split)
            assert abs(got - want) <= TOL, (n, split, got, want)

    @pytest.mark.parametrize("n, counts", [
        (1, (1,)), (1, (2,)), (1, (3,)), (1, (4,)), (1, (2, 2, 2)),
        (2, (2,)), (2, (3,)),
        (2, (2, 1, 2)), (2, (2, 2, 1)), (2, (1, 2, 2)),
    ])
    def test_lhv_schedules(self, n, counts):
        for t in tables(300 + n, n, 3):
            want = lhv_exact_reference(
                t, bell.PortSchedule(counts, (2,) * len(counts)))
            got = lhv_kernel(t, counts)
            assert abs(got - want) <= TOL, (n, counts, got, want)

    @pytest.mark.parametrize("counts", [(2, 2, 2), (2, 3, 2), (3, 2, 2)])
    def test_lhv_three_level_against_tree_reference(self, counts):
        # The LHV reference takes 19 s at (2, 3, 2) and 38 s at (3, 2, 2);
        # the tree reference with the same alphabets walks the same
        # strategies in milliseconds, since only a3[x, a1[x], .] is read.
        for t in tables(400, 1, 3):
            want = tree_split_reference(t, *counts)
            assert abs(lhv_kernel(t, counts) - want) <= TOL, counts
            if counts == (2, 2, 2):
                assert abs(lhv_exact_reference(
                    t, bell.PortSchedule(counts, (2, 2, 2))) - want) <= TOL

    def test_nontrivial_three_level_bounds(self):
        # At n = 2 these schedules leave Bob short of the answer, unlike
        # the two-input sweeps of gate 5, whose bounds are all 1.
        t = tables(301, 2, 1)[0]
        for counts in [(2, 2, 1), (1, 2, 2)]:
            assert lhv_kernel(t, counts) < 1.0 - 1e-3, counts


class TestAgainstEnumeration:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_every_reference_leg_triple(self, n):
        legs_list = reference_legs(n)
        assert (1, 1, 1) in legs_list and (1, 2, 2) in legs_list
        for k, t in enumerate(tables(800 + n, n, 3)):
            w = cc._weights(t)
            for legs in legs_list:
                want = enumerated_best_response(w, legs)
                got = cc._best_response(w, legs)
                assert abs(got - want) <= TOL, (n, k, legs, got, want)

    @pytest.mark.parametrize("legs", [(2, 1, 1), (4, 1, 1), (1, 2, 2)])
    def test_three_bit_inputs(self, legs):
        for t in tables(810, 3, 3):
            w = cc._weights(t)
            want = enumerated_best_response(w, legs)
            assert abs(cc._best_response(w, legs) - want) <= TOL, legs


class TestAnyLegSequence:
    # 1-legs, two and four levels, consecutive legs of one party once the
    # 1-legs are gone, and a last Bob leg.
    LEGS = [(1,), (3,), (1, 1, 1), (2, 2), (3, 2), (1, 3), (2, 1, 2),
            (2, 2, 2, 2), (1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 3),
            (3, 3, 3, 3), (2, 2, 2, 2, 2), (3, 1, 2, 3, 2), (2, 3, 2, 3, 2),
            (1, 2, 1, 2, 1), (3, 3, 3, 3, 3), (2, 1, 1, 2, 1)]

    @staticmethod
    def weights(rng: np.random.Generator, nx: int, ny: int) -> np.ndarray:
        mu = rng.random((nx, ny))
        f = rng.integers(0, 2, size=(nx, ny))
        return np.stack([np.where(f == b, mu / mu.sum(), 0.0)
                         for b in (0, 1)])

    @pytest.mark.parametrize("nx, ny", [(1, 3), (2, 2), (3, 2), (3, 3)])
    def test_listed_sequences(self, nx, ny):
        rng = np.random.default_rng(1100 + 10 * nx + ny)
        for legs in self.LEGS:
            w = self.weights(rng, nx, ny)
            want = protocol_tree_reference(w, legs)
            got = cc._best_response(w, legs)
            assert abs(got - want) <= TOL, (nx, ny, legs, got, want)

    def test_random_sequences(self):
        rng = np.random.default_rng(1120)
        for _ in range(60):
            nx, ny = (int(v) for v in rng.integers(1, 4, size=2))
            legs = tuple(int(a) for a in
                         rng.integers(1, 4, size=rng.integers(1, 6)))
            w = self.weights(rng, nx, ny)
            want = protocol_tree_reference(w, legs)
            got = cc._best_response(w, legs)
            assert abs(got - want) <= TOL, (nx, ny, legs, got, want)

    @pytest.mark.parametrize("split", [(1, 1, 1), (2, 2, 2), (2, 1, 2)])
    def test_tree_reference_against_enumeration(self, split):
        # The tree reference is itself checked against the walk over every
        # (Alice, Bob) map pair.
        for t in tables(1130, 1, 3):
            want = tree_split_reference(t, *split)
            got = protocol_tree_reference(cc._weights(t), split)
            assert abs(got - want) <= TOL, (split, got, want)

    def test_lhv_schedules(self):
        # The exact local bound takes any level count, corpus member 3's
        # five among them.
        t = tables(1140, 1, 1)[0]
        for counts in [(2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2),
                       (2, 2, 1, 2, 2), (1, 2, 2, 2, 2)]:
            got = lhv_kernel(t, counts)
            want = protocol_tree_reference(cc._weights(t), counts)
            assert abs(got - want) <= TOL, counts


class TestPartition:
    @staticmethod
    def values(seed: int, n: int, batch: int = 2) -> np.ndarray:
        v = np.random.default_rng(seed).random((batch, 2 ** n))
        v[:, 0] = 0.0
        return v

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_labelling_reference(self, n):
        v = self.values(900 + n, n)
        for parts in range(1, n + 1):
            want = np.stack([partition_reference(row, parts, n)
                             for row in v])
            got = cc._partition(v, parts, n)
            assert np.abs(got - want).max() <= TOL, (n, parts)
            whole = cc._partition(v, parts, n, whole=True)
            assert np.abs(whole - want[:, -1]).max() <= TOL, (n, parts)

    def test_more_parts_than_elements(self):
        # No split has more nonempty classes than elements.
        v = self.values(910, 3)
        for parts in (4, 9):
            want = np.stack([partition_reference(row, parts, 3)
                             for row in v])
            got = cc._partition(v, parts, 3)
            assert np.abs(got - want).max() <= TOL, parts
            whole = cc._partition(v, parts, 3, whole=True)
            assert np.abs(whole - want[:, -1]).max() <= TOL, parts

    def test_no_elements(self):
        v = np.zeros((2, 1))
        for parts in (1, 2, 5):
            assert np.array_equal(cc._partition(v, parts, 0), v)
            assert np.array_equal(cc._partition(v, parts, 0, whole=True),
                                  np.zeros(2))

    def test_empty_classes(self):
        # A superadditive v is best left in one class, so every other
        # class stays empty; a subadditive one is best in singletons.
        n = 4
        size = np.array([bin(s).count("1") for s in range(2 ** n)])
        for parts in (1, 2, 3, 4, 6):
            got = cc._partition(size.astype(float) ** 2, parts, n)
            assert np.array_equal(got, size ** 2.0), parts
            got = cc._partition(np.sqrt(size), parts, n, whole=True)
            want = partition_reference(np.sqrt(size), parts, n)[-1]
            assert abs(got - want) <= TOL, parts
            if parts >= n:
                assert abs(got - n) <= TOL, parts

    def test_single_first_message(self):
        # With a1 = 1 the kernel reads only B_X, T = X; that must be the
        # general recursion's G(X), and the enumeration's value.
        for n, legs_list in ((1, [(1, 2, 2), (1, 3, 2), (1, 2, 3)]),
                             (2, [(1, 2, 2), (1, 3, 2), (1, 2, 3)]),
                             (3, [(1, 2, 2)])):
            nx = 2 ** n
            for t in tables(920 + n, n, 2):
                w = cc._weights(t)
                u = cc._subset_sums(w.transpose(0, 2, 1)).max(axis=0)
                v = cc._subset_sums(u.T)
                for _, a2, a3 in legs_list:
                    b = cc._partition(v.T, a3, nx)
                    general = cc._partition(b.T, a2, nx, whole=True)[-1]
                    got = cc._best_response(w, (1, a2, a3))
                    assert abs(got - general) <= TOL, (n, a2, a3)
                    want = enumerated_best_response(w, (1, a2, a3))
                    assert abs(got - want) <= TOL, (n, a2, a3)

    @pytest.mark.parametrize("legs", [(2, 2, 2), (2, 3, 2), (2, 2, 3),
                                      (3, 2, 2)])
    def test_first_message_split_composes(self, legs):
        # Past the caps' reach of the enumeration: on three-bit inputs
        # with a1 * a3 < |X|, the value is the best a1-labelling of X
        # with each class played as its own a1 = 1 protocol.
        a1, a2, a3 = legs
        t = tables(940, 3, 1)[0]
        w = cc._weights(t)
        nx = t.num_inputs
        value = [0.0] + [
            cc._best_response(w[:, [x for x in range(nx) if m >> x & 1]],
                              (1, a2, a3)) for m in range(1, 2 ** nx)]
        want = 0.0
        for labels in product(range(a1), repeat=nx):
            masks = [0] * a1
            for x, k in enumerate(labels):
                masks[k] |= 1 << x
            want = max(want, sum(value[m] for m in masks))
        assert abs(cc._best_response(w, legs) - want) <= TOL, legs

    def test_one_class_is_the_closed_form(self):
        # One class of X: Bob's best bit per y against the whole column.
        for n in (0, 1, 4, 5):
            for t in tables(930 + n, n, 2):
                w = cc._weights(t)
                want = float(w.sum(axis=1).max(axis=0).sum())
                for legs in ((1, 1, 1), (1, 5, 1)):
                    assert cc._best_response(w, legs) == want, (n, legs)

    def test_subset_pairs(self):
        for n in range(5):
            t, r, starts = cc._subset_pairs(n)
            assert len(t) == 3 ** n and np.all(t & r == 0)
            s = t | r
            groups = np.split(s, starts[1:])
            assert [set(g) for g in groups] == [{m} for m in range(2 ** n)]
            assert all(len(g) == 2 ** bin(m).count("1")
                       for m, g in enumerate(groups))


def _accepted(search, *args) -> bool:
    try:
        search(*args)
    except CapExceededError:
        return False
    return True


def test_pair_table_stays_small_under_the_caps(monkeypatch):
    # The 3^n pair table is never formed past n = 8 subset elements, for
    # any search the caps accept on four-bit inputs, whatever its number
    # of legs (ENUM_CAP comment).
    formed = []
    pairs = cc._subset_pairs

    def spy(n):
        formed.append(n)
        return pairs(n)

    monkeypatch.setattr(cc, "_subset_pairs", spy)
    t = tables(1000, 4, 1)[0]
    accepted = []
    for bits in range(6):
        if _accepted(cc.best_success_one_way, t, bits):
            accepted.append(("one_way", bits))
        for split in cc._genuine_splits(bits):
            if _accepted(cc._tree_split_value, t, *split):
                accepted.append(("tree", split))
    for levels in (1, 2, 3, 4, 5):
        for counts in product(range(1, 6), repeat=levels):
            if _accepted(lhv_kernel, t, counts):
                accepted.append(("lhv", counts))
    assert ("one_way", 1) in accepted and ("lhv", (2, 4, 1)) in accepted
    for counts in [(2, 5), (2, 3, 1, 4), (1, 1, 2, 5, 1), (2, 3, 1, 4, 1)]:
        assert ("lhv", counts) in accepted, counts
    assert formed == [] or max(formed) <= 8, formed
    # The spy sees the table where a search forms it.
    cc.best_success_one_way(tables(1001, 3, 1)[0], 2)
    assert formed == [8]


class TestCapRule:
    def test_count_never_above_former_rule(self):
        # Former rules: all (Alice, Bob) map pairs for tree splits, and
        # n1 * n3^(n1 n2) Alice choices per input for LHV schedules.
        for nx in (2, 4, 8):
            for a1, a2, a3 in product((1, 2, 3, 4), repeat=3):
                new = (a1 * a3 ** a2) ** nx
                tree_old = a1 ** nx * a2 ** (nx * a1) * a3 ** (nx * a2)
                lhv_old = ((a1 * a3 ** (a1 * a2)) * a2 ** a1) ** nx
                assert new <= tree_old and new <= lhv_old

    def test_message_names_the_count(self):
        t = tables(600, 2, 1)[0]
        with pytest.raises(CapExceededError, match=r"= 4294967296 Alice"):
            cc._tree_split_value(t, 0, 2, 2)
        with pytest.raises(CapExceededError, match=r"= 16777216 Alice"):
            lhv_kernel(t, (64,))

    def test_count_for_any_leg_sequence(self):
        # Alice sends each leg once per reply sequence Bob can have sent
        # before it: 2 * 4^4 * 8^(4 * 8) maps per input on member 3's legs.
        count = (2 * 4 ** 4 * 8 ** 32) ** 2
        with pytest.raises(CapExceededError,
                           match=rf"\(2\*4\^4\*8\^32\)\^2 = {count} Alice"):
            cc._capped(2, (2, 4, 4, 8, 8), count - 1, "legs")
        assert cc._capped(2, (2, 4, 4, 8, 8), count, "legs") == \
            (2, 4, 4, 8, 8)
        assert cc._capped(3, (5, 7), 125, "legs") == (5, 7)

    def test_every_split_checked_before_any_search(self, monkeypatch):
        # n = 4, 3 bits: split (1, 1, 1) fits a cap of 10^15 but (0, 1, 2)
        # and (0, 2, 1) do not; no split may be searched before that is
        # known.
        t = tables(601, 4, 1)[0]
        searched = []
        monkeypatch.setattr(cc, "ENUM_CAP", 10 ** 15)
        monkeypatch.setattr(cc, "best_success_one_way", lambda t, b: 0.5)
        monkeypatch.setattr(cc, "_tree_split_value",
                            lambda t, *split: searched.append(split) or 0.5)
        with pytest.raises(CapExceededError, match=r"\(0,1,2\)"):
            cc.best_success_tree(t, 3)
        assert searched == []


def test_threaded_split_bitwise_invariant(monkeypatch):
    # The split value does not read BELLFORGE_THREADS: the same bits at
    # one thread and at two.
    t = tables(700, 3, 1)[0]
    values = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BELLFORGE_THREADS", threads)
        values.append(cc._tree_split_value(t, 0, 1, 1))
    assert values[0] == values[1]

"""Differential tests of the deterministic-strategy search kernel.

`classicalcc._best_response` enumerates Alice's maps and solves Bob's
reply exactly; the one-way oracle, every tree split and the exact LHV bound
go through it.  The two enumerators it replaced are kept here unchanged in
substance as references: `tree_split_reference` walks every (Alice, Bob)
map pair in chunks (the former `classicalcc._tree_split_value`, taking leg
alphabets instead of bit budgets so that it also covers port-count
schedules), and `lhv_exact_reference` loops over every pair of index
strategies in Python (the former `bell._lhv_exact`).  Neither uses Bob's
best response, so agreement at 1e-12 checks that argument as well as the
vectorized enumeration.
"""

from itertools import product

import numpy as np
import pytest

from bellforge import bell
from bellforge import classicalcc as cc
from bellforge.protocols import TruthTable
from bellforge.states import CapExceededError

TOL = 1e-12


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
            for start in range(0, n3, cc._CHUNK):
                stop = min(start + cc._CHUNK, n3)
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

    def test_batch_boundaries(self, monkeypatch):
        # Tiny batches put chunk edges and a ragged last batch inside
        # every search.
        monkeypatch.setattr(cc, "_CHUNK", 7)
        for t in tables(500, 2, 2):
            want = tree_split_reference(t, 1, 2, 2)
            assert abs(cc._tree_split_value(t, 0, 1, 1) - want) <= TOL
            want = lhv_exact_reference(t, bell.PortSchedule((3,), (2,)))
            assert abs(lhv_kernel(t, (3,)) - want) <= TOL


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
    # 65,536 Alice maps at n = 3: eight batches of 8192.
    t = tables(700, 3, 1)[0]
    values = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BELLFORGE_THREADS", threads)
        values.append(cc._tree_split_value(t, 0, 1, 1))
    assert values[0] == values[1]

"""Tests for the classical communication oracles.

Reference values come from two sources: tiny cases worked out by hand
(guessing bounds, send-everything budgets) and frozen outputs of the
exhaustive searches themselves, cross-checked once against independent
counting.  The index-coding target used throughout is the builtin
two-bit protocol's truth table: f(x, y) = bit (1 - y) of x under the
uniform distribution on x in {0..3}, y in {0, 1}.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellforge import classicalcc
from bellforge.classicalcc import (
    BudgetOracle,
    CELL_CAP,
    TABLE_ROW_CAP,
    _genuine_splits,
    _table_key,
    _tree_split_value,
    best_success_one_way,
    best_success_tree,
    chernoff_repeats,
    majority_amplify,
    pumping_bound,
)
from bellforge.protocols import TruthTable, builtin_qrac
from bellforge.states import CapExceededError

# Frozen one-way optima for the index-coding target (exhaustive search,
# cross-checked by hand: 1 bit at best forwards one of the two addressed
# bits, giving 1/2 + 1/4).
QRAC_ONE_WAY = {0: 0.5, 1: 0.75, 2: 1.0}

# Frozen one-way optimum for two-bit equality under uniform mu at 1 bit:
# message [x = 0], decisions per (message, y), worth 13/16.
EQ2_ONE_BIT = 0.8125


def qrac_truth() -> TruthTable:
    return builtin_qrac().truth


def xor_truth() -> TruthTable:
    f = np.array([[0, 1], [1, 0]], dtype=np.int8)
    return TruthTable(n=1, f=f, mu=np.full((2, 2), 0.25))


def eq2_truth() -> TruthTable:
    f = np.equal.outer(np.arange(4), np.arange(4)).astype(np.int8)
    return TruthTable(n=2, f=f, mu=np.full((4, 4), 1.0 / 16.0))


def random_truth(rng: np.random.Generator, n: int) -> TruthTable:
    size = 2 ** n
    f = rng.integers(0, 2, size=(size, size)).astype(np.int8)
    mu = rng.random((size, size))
    return TruthTable(n=n, f=f, mu=mu / mu.sum())


def distributional_cc_reference(t: TruthTable, p: float,
                                method: str) -> float:
    """The search loop one query ran before the budget oracle: every query
    restarts at budget 0 and keeps nothing."""
    search = {"one_way": best_success_one_way,
              "tree": best_success_tree}[method]
    for c in range(t.n + 1):
        if search(t, c) >= p - 1e-12:
            return c
    return math.inf


def spy_searches(monkeypatch, name: str = "best_success_one_way") -> list:
    """Record the budget of every call to the searcher `name`."""
    searched = []
    search = getattr(classicalcc, name)

    def counting(t, bits, *args):
        searched.append(bits)
        return search(t, bits, *args)

    monkeypatch.setattr(classicalcc, name, counting)
    return searched


class TestOneWay:
    def test_qrac_table_exact(self):
        t = qrac_truth()
        for bits, want in QRAC_ONE_WAY.items():
            assert best_success_one_way(t, bits) == pytest.approx(
                want, abs=1e-12)

    def test_zero_bits_is_best_per_y_guess(self):
        # With no message Bob guesses from y alone; check against the
        # directly computed guessing value.
        rng = np.random.default_rng(5)
        for n in (1, 2):
            for _ in range(5):
                t = random_truth(rng, n)
                w = np.stack([np.where(t.f == b, t.mu, 0.0).sum(axis=0)
                              for b in (0, 1)])
                want = w.max(axis=0).sum()
                assert best_success_one_way(t, 0) == pytest.approx(
                    want, abs=1e-12)

    def test_full_budget_reaches_one(self):
        assert best_success_one_way(qrac_truth(), 2) == 1.0
        assert best_success_one_way(eq2_truth(), 2) == 1.0
        assert best_success_one_way(xor_truth(), 1) == 1.0
        # bits >= n answers 1 without forming 2**bits.
        for t in (qrac_truth(), eq2_truth(), xor_truth()):
            assert best_success_one_way(t, 10 ** 12) == 1.0
            assert best_success_tree(t, 10 ** 12) == 1.0

    def test_eq2_one_bit_frozen(self):
        assert best_success_one_way(eq2_truth(), 1) == pytest.approx(
            EQ2_ONE_BIT, abs=1e-12)

    def test_monotone_in_bits(self):
        rng = np.random.default_rng(11)
        for n in (1, 2):
            for _ in range(4):
                t = random_truth(rng, n)
                vals = [best_success_one_way(t, c) for c in range(n + 1)]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
                assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            best_success_one_way(qrac_truth(), -1)

    def test_mixed_strategies_never_beat_deterministic(self):
        # 10^4 random behavioral strategies at 1 bit: value is linear in
        # the mixture, so none may exceed the deterministic optimum.
        t = qrac_truth()
        w = np.stack([np.where(t.f == b, t.mu, 0.0) for b in (0, 1)])
        rng = np.random.default_rng(23)
        batch = 10_000
        q = rng.random((batch, 4, 2))
        q /= q.sum(axis=2, keepdims=True)
        r = rng.random((batch, 2, 4, 2))
        r /= r.sum(axis=3, keepdims=True)
        vals = np.einsum("bxy,cxk,ckyb->c", w, q, r)
        assert vals.max() <= QRAC_ONE_WAY[1] + 1e-12


class TestTree:
    def test_qrac_two_way_two_bits(self):
        assert best_success_tree(qrac_truth(), 2) == pytest.approx(
            1.0, abs=1e-12)

    def test_xor_one_bit(self):
        assert best_success_tree(xor_truth(), 1) == pytest.approx(
            1.0, abs=1e-12)

    def test_one_way_special_case_agrees(self):
        t = qrac_truth()
        assert best_success_tree(t, 1) == pytest.approx(
            best_success_one_way(t, 1), abs=1e-12)

    def test_tree_at_least_one_way(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            t = random_truth(rng, 1)
            for c in (1, 2):
                assert best_success_tree(t, c) >= \
                    best_success_one_way(t, c) - 1e-12

    def test_split_enumeration(self):
        assert _genuine_splits(2) == [(0, 1, 1)]
        assert set(_genuine_splits(3)) == {(1, 1, 1), (0, 1, 2), (0, 2, 1)}
        assert _genuine_splits(1) == []

    def test_space_cap(self):
        # Split (0, 2, 2) on a 4-input function fills 2 * 4 * 16 + 2^8
        # subset sums and a few pair tables, within the cap, and two-bit
        # equality is then decided.  On 16 inputs split (0, 1, 1) keeps
        # both 2^16 subset axes, 2^32 cells, past it.
        assert _tree_split_value(eq2_truth(), 0, 2, 2) == 1.0
        t = random_truth(np.random.default_rng(38), 4)
        with pytest.raises(CapExceededError,
                           match="fills 8592097280 array cells, more than"):
            _tree_split_value(t, 0, 1, 1)
        assert 2 ** 32 > CELL_CAP


class TestDistributionalCC:
    """Single budget queries, each on a fresh oracle."""

    def test_qrac_thresholds(self):
        t = qrac_truth()
        assert BudgetOracle(t)(0.76) == 2
        assert BudgetOracle(t)(0.75) == 1
        assert BudgetOracle(t)(0.5) == 0
        assert BudgetOracle(t)(1.0) == 2

    def test_monotone_in_target(self):
        t = eq2_truth()
        targets = [0.2, 0.75, 0.8, 0.85, 1.0]
        needs = [BudgetOracle(t)(p) for p in targets]
        assert all(b >= a for a, b in zip(needs, needs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="target"):
            BudgetOracle(qrac_truth())(1.5)
        with pytest.raises(ValueError, match="method"):
            BudgetOracle(qrac_truth(), method="psychic")

    def test_tree_method(self):
        assert BudgetOracle(qrac_truth(), method="tree")(1.0) == 2


class TestCCTable:
    def test_qrac_table(self):
        oracle = BudgetOracle(qrac_truth())
        assert oracle.table() == ((0, 0.5), (1, 0.75), (2, 1.0))
        assert oracle.method == "one_way"
        assert oracle(0.76) == 2
        assert oracle(0.74) == 1
        # Past success 1 the table found no budget; the oracle refuses
        # such a target outright.
        with pytest.raises(ValueError, match="target"):
            oracle(1.1)

    def test_key_content_addressed(self):
        a = _table_key(qrac_truth())
        b = _table_key(qrac_truth())
        c = _table_key(eq2_truth())
        assert a == b
        assert a != c
        assert isinstance(BudgetOracle(qrac_truth()).table(), tuple)

    def test_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            BudgetOracle(qrac_truth(), method="oracle")


class TestBudgetOracle:
    @pytest.mark.parametrize("n, method, seed", [
        (1, "one_way", 31), (2, "one_way", 32), (3, "one_way", 33),
        (1, "tree", 34), (2, "tree", 35), (3, "tree", 36),
    ])
    def test_matches_reference_and_table(self, n, method, seed):
        rng = np.random.default_rng(seed)
        t = random_truth(rng, n)
        tabled = BudgetOracle(t, method)
        targets = [0.0, 1.0] + [
            v + e for _, v in tabled.table() for e in (-1e-12, 0.0, 1e-12)
            if 0.0 <= v + e <= 1.0]
        want = [distributional_cc_reference(t, p, method) for p in targets]
        assert [tabled(p) for p in targets] == want
        oracle = BudgetOracle(t, method)
        assert [oracle(p) for p in targets] == want
        assert [BudgetOracle(t, method)(p) for p in targets] == want
        # Memo state left by earlier queries must not change any answer.
        order = rng.permutation(len(targets))
        shuffled = BudgetOracle(t, method)
        assert [shuffled(targets[i]) for i in order] == \
            [want[i] for i in order]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_scalar_answers_equal_array_answers(self, data):
        # One target and an array of them take the same loop: each scalar
        # answer equals its array entry and is an int (or inf).
        n = data.draw(st.integers(1, 3))
        method = data.draw(st.sampled_from(
            ["one_way", "tree"] if n < 3 else ["one_way"]))
        t = random_truth(np.random.default_rng(
            data.draw(st.integers(0, 2 ** 32 - 1))), n)
        edges = sorted({min(max(v + e, 0.0), 1.0)
                        for _, v in BudgetOracle(t, method).table()
                        for e in (-1e-12, 0.0, 1e-12)})
        targets = data.draw(st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from(edges)),
            min_size=1, max_size=8))
        batch = BudgetOracle(t, method)(np.array(targets))
        assert batch.dtype == np.float64 and batch.shape == (len(targets),)
        oracle = BudgetOracle(t, method)
        for i, (p, want) in enumerate(zip(targets, batch)):
            got = oracle(np.float64(p) if i % 2 else p)
            assert got == want
            assert type(got) is int or got is math.inf

    def test_unreachable_target_is_inf(self, monkeypatch):
        monkeypatch.setattr(classicalcc, "best_success_one_way",
                            lambda t, bits: 0.5)
        oracle = BudgetOracle(qrac_truth())
        assert oracle(0.75) is math.inf
        assert oracle(0.5) == 0
        assert np.array_equal(oracle(np.array([0.75, 0.5])),
                              [math.inf, 0.0])

    def test_each_budget_searched_once(self, monkeypatch):
        searched = spy_searches(monkeypatch)
        oracle = BudgetOracle(qrac_truth())
        assert [oracle(p) for p in (0.6, 0.5, 1.0, 0.75, 0.76, 1.0)] == \
            [1, 0, 2, 1, 2, 2]
        assert searched == [0, 1, 2]

    def test_search_stops_at_answer(self, monkeypatch):
        searched = spy_searches(monkeypatch, "best_success_tree")
        assert BudgetOracle(qrac_truth(), "tree")(0.7) == 1
        assert searched == [0, 1]

    def test_lazy_past_enum_cap(self, monkeypatch):
        # One-way budget 2 on n = 4 fills 2 * 3^16 pair cells, over
        # CELL_CAP, so a full table is refused while a target budget 0
        # reaches is not.
        t = random_truth(np.random.default_rng(37), 4)
        with pytest.raises(CapExceededError):
            BudgetOracle(t).table()
        searched = spy_searches(monkeypatch)
        assert BudgetOracle(t)(0.5) == 0
        assert searched == [0]

    def test_table_shares_memo(self, monkeypatch):
        searched = spy_searches(monkeypatch)
        oracle = BudgetOracle(qrac_truth())
        assert oracle.table(1) == ((0, 0.5), (1, 0.75))
        assert oracle(1.0) == 2
        assert oracle.table() == ((0, 0.5), (1, 0.75), (2, 1.0))
        assert searched == [0, 1, 2]

    def test_negative_table_refused(self, monkeypatch):
        # Like `success`: a table to -1 bits is refused, not empty.
        searched = spy_searches(monkeypatch)
        oracle = BudgetOracle(qrac_truth())
        for call in (oracle.table, oracle.success):
            with pytest.raises(ValueError, match=r"^bits=-1 must be >= 0$"):
                call(-1)
        assert searched == []

    def test_table_row_cap(self, monkeypatch):
        oracle = BudgetOracle(qrac_truth())
        rows = oracle.table(TABLE_ROW_CAP - 1)
        assert len(rows) == TABLE_ROW_CAP
        assert all(v == 1.0 for _, v in rows[2:])
        searched = spy_searches(monkeypatch)
        for bits in (TABLE_ROW_CAP, 10 ** 12):
            with pytest.raises(CapExceededError, match="rows"):
                oracle.table(bits)
            with pytest.raises(CapExceededError, match="rows"):
                BudgetOracle(qrac_truth()).table(bits)
        assert searched == []

    def test_negative_budget_refused(self, monkeypatch):
        # A negative budget used to index the memo from its end once
        # searches had run (success(-1) read budget 2's 1.0), and raised
        # IndexError on a fresh oracle.
        searched = spy_searches(monkeypatch)
        for warm in (False, True):
            oracle = BudgetOracle(qrac_truth())
            if warm:
                assert oracle(1.0) == 2
            for bits in (-1, -3):
                with pytest.raises(ValueError, match=">= 0"):
                    oracle.success(bits)
        assert searched == [0, 1, 2]


class TestChernoff:
    def test_frozen_counts(self):
        assert chernoff_repeats(1.0 / 6.0) == 108
        assert chernoff_repeats(0.5) == 12
        assert chernoff_repeats(0.1) == 300

    def test_range(self):
        for bad in (0.0, -0.1, 0.6, 1.0):
            with pytest.raises(ValueError, match="epsilon"):
                chernoff_repeats(bad)

    def test_matches_formula_on_grid(self):
        for k in range(2, 40):
            eps = 1.0 / k
            if eps > 0.5:
                continue
            assert chernoff_repeats(eps) == 3 * k * k


class TestMajority:
    def test_certain_runner_always_wins(self):
        got = majority_amplify(lambda rng: True, repeats=5, trials=50,
                               seed=0)
        assert got == 1.0

    def test_amplification_beats_chernoff_bound(self):
        p, repeats, trials = 0.6, 51, 10_000
        eps = p - 0.5
        got = majority_amplify(lambda rng: rng.random() < p,
                               repeats=repeats, trials=trials, seed=7)
        bound = 1.0 - math.exp(-repeats * eps ** 2 / 2.0)
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert got >= bound - 4 * sigma

    def test_matches_exact_binomial_tail(self):
        p, repeats, trials = 0.6, 51, 10_000
        got = majority_amplify(lambda rng: rng.random() < p,
                               repeats=repeats, trials=trials, seed=19)
        exact = sum(math.comb(repeats, k) * p ** k
                    * (1 - p) ** (repeats - k)
                    for k in range(repeats // 2 + 1, repeats + 1))
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(got - exact) <= 4 * sigma

    def test_even_tie_scored_as_failure(self):
        # Alternating correct/incorrect runs tie a 2-run majority.
        state = {"flip": False}

        def runner(rng):
            state["flip"] = not state["flip"]
            return state["flip"]

        assert majority_amplify(runner, repeats=2, trials=10, seed=1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            majority_amplify(lambda rng: True, repeats=0, trials=1)
        with pytest.raises(ValueError, match="trials"):
            majority_amplify(lambda rng: True, repeats=1, trials=0)


class TestPumping:
    def test_arithmetic(self):
        assert pumping_bound(1.0, 1.0 / 6.0) == pytest.approx(
            108.0, abs=1e-12)
        assert pumping_bound(7.0, 0.1) == pytest.approx(2100.0, abs=1e-9)

    def test_range(self):
        for bad in (0.0, 0.2, 1.0):
            with pytest.raises(ValueError, match="epsilon"):
                pumping_bound(1.0, bad)
        with pytest.raises(ValueError, match=">= 0"):
            pumping_bound(-1.0, 0.1)

    def test_relation_on_searched_budgets(self):
        # The amplification relation, checked on the searched budgets of
        # three concrete functions: bits at success 2/3 are at most
        # 3 / eps^2 times bits at success 1/2 + eps.
        truths = [qrac_truth(), eq2_truth(), xor_truth()]
        for t in truths:
            need = BudgetOracle(t)
            need_23 = need(2.0 / 3.0)
            for eps in (1.0 / 6.0, 0.1, 0.05):
                need_eps = need(0.5 + eps)
                assert need_23 <= pumping_bound(need_eps, eps) + 1e-12

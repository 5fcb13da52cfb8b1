"""The `oneway` box sweep against its per-box reference loop.

`cli._sweep_boxes` parses the boxes into arrays and `cli._run_sweep`
evaluates them; `sweep_reference` is the loop they replaced, one `nonlinear_bell_check` per box and delta.  Every
report field must agree exactly, `inf` included, and so must the
canonical bytes.
"""

import json
import os
import tracemalloc
import types

import numpy as np
import pytest

import sweep_reference as ref
from bellforge import bell, cli
from bellforge.classicalcc import BudgetOracle
from bellforge.protocols import TruthTable, builtin_qrac
from bellforge.serialize import dumps_canonical
from bellforge.states import InvariantError

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO, "docs", "examples", "v1")
FIELDS = ("boxes", "failures", "all_hold", "worst_margin_bits")


def cli_sweep(t, doc, deltas, oracle):
    """The CLI's sweep of the document `doc`: parse, then evaluate."""
    flags, answers = cli._sweep_boxes(t.num_inputs, doc.get("boxes"),
                                      len(deltas))
    return cli._run_sweep(t, flags, answers, deltas, oracle)


def assert_matches_reference(t, doc, deltas):
    want = ref.run_sweep(t, doc, deltas, BudgetOracle(t))
    got = cli_sweep(t, doc, deltas, BudgetOracle(t))
    for key in FIELDS:
        assert got[key] == want[key], key
        assert type(got[key]) is type(want[key]), key
    assert dumps_canonical(got) == dumps_canonical(want)
    return got


def seeded_truth(seed, n, zeros=0.0):
    """A random table whose mu drops about a `zeros` share of entries."""
    rng = np.random.default_rng(seed)
    size = 2 ** n
    f = rng.integers(0, 2, size=(size, size))
    mu = rng.random((size, size)) * (rng.random((size, size)) >= zeros)
    mu[0, 0] += 1e-3  # keep the support non-empty
    return TruthTable(n=n, f=f, mu=mu / mu.sum())


def seeded_deltas(rng, count):
    """Deltas as the benchmark's sweep draws them."""
    return [float(d) for d in np.sort(rng.uniform(0.001, 0.999, size=count))]


def random_boxes(rng, size, count):
    bits = rng.integers(0, 2, size=(count, 2, size))
    return [{"flag": b[0].tolist(), "answer": b[1].tolist()} for b in bits]


def test_shipped_sweep():
    with open(os.path.join(EXAMPLES, "oneway_sweep.config.json")) as fh:
        cfg = json.load(fh)
    t = builtin_qrac().truth
    path = os.path.join(REPO, cfg["sweep_file"])
    flags, answers, deltas = cli._load_sweep(t, path, cfg["deltas"])
    with open(path) as fh:
        got = assert_matches_reference(t, json.load(fh), deltas)
    assert got == cli._run_sweep(t, flags, answers, deltas, BudgetOracle(t))
    with open(os.path.join(EXAMPLES, "report_oneway_sweep.json")) as fh:
        assert got == json.load(fh)["results"]["sweep"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_sweep(seed):
    doc = {"format": "bellforge-oneway-sweep", "boxes": "deterministic"}
    deltas = seeded_deltas(np.random.default_rng([seed, 0x6265]), 64)
    assert_matches_reference(builtin_qrac().truth, doc, deltas)


@pytest.mark.parametrize("n,zeros", [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.4)])
def test_seeded_tables_every_box(n, zeros):
    rng = np.random.default_rng(100 + n)
    deltas = seeded_deltas(rng, 12) + [1e-300, 0.5, 0.999999]
    doc = {"boxes": "deterministic"}
    assert_matches_reference(seeded_truth(n, n, zeros), doc, deltas)


@pytest.mark.parametrize("zeros", [0.0, 0.6])
def test_seeded_n3_box_lists(zeros):
    rng = np.random.default_rng(7)
    t = seeded_truth(3, 3, zeros)
    doc = {"boxes": random_boxes(rng, t.num_inputs, 600)}
    assert_matches_reference(t, doc, seeded_deltas(rng, 8))


def test_n3_every_box_two_deltas():
    assert_matches_reference(seeded_truth(33, 3), {"boxes": "deterministic"},
                             [0.03125, 0.7])


def test_duplicate_and_degenerate_boxes():
    # Repeated boxes; the all-zero flag (p_a = 0, an infinite left side);
    # the all-one flag (p_a = mu's support sum).
    rng = np.random.default_rng(11)
    t = builtin_qrac().truth
    boxes = random_boxes(rng, 4, 5) * 3
    boxes += [{"flag": [0, 0, 0, 0], "answer": [1, 0, 1, 0]},
              {"flag": [1, 1, 1, 1], "answer": [0, 1, 1, 0]}] * 2
    rng.shuffle(boxes)
    assert_matches_reference(t, {"boxes": boxes}, [0.5, 0.125, 1e-9])


def test_only_zero_flag_box():
    got = assert_matches_reference(
        builtin_qrac().truth,
        {"boxes": [{"flag": [0, 0, 0, 0], "answer": [0, 0, 0, 0]}]},
        [0.25, 0.75])
    assert got["worst_margin_bits"] == float("inf")


def test_subnormal_flag_rate():
    # Flagged only on a subnormal mu entry: 1/p_a overflows.
    t = TruthTable(n=1, f=[[0, 1], [1, 0]], mu=[[1e-320, 0.0], [0.5, 0.5]])
    boxes = [{"flag": [1, 0], "answer": a} for a in ([0, 0], [1, 1])]
    got = assert_matches_reference(t, {"boxes": boxes}, [0.5, 0.01])
    assert got["worst_margin_bits"] == float("inf")
    qrac = builtin_qrac().truth
    t = TruthTable(n=2, f=qrac.f, mu=[[1e-320, 0, 0, 0], [0, 0, 0, 0],
                                      [0.5, 0.5, 0, 0], [0, 0, 0, 0]])
    assert_matches_reference(t, {"boxes": "deterministic"}, [0.5, 0.0625])


def test_empty_box_list():
    got = assert_matches_reference(builtin_qrac().truth, {"boxes": []},
                                   [0.5])
    assert got["boxes"] == 0 and got["worst_margin_bits"] == float("inf")
    assert json.loads(dumps_canonical(got))["worst_margin_bits"] == \
        "Infinity"


def test_uncertified_target_raises():
    # A stub oracle certifies no target, here an always-right box's 0.75.
    t = builtin_qrac().truth
    doc = {"boxes": [{"flag": [1, 0, 0, 0], "answer": t.f[0].tolist()}]}
    for run in (ref.run_sweep, cli_sweep):
        with pytest.raises(ValueError,
                           match="cannot certify target 0.75$"):
            run(t, doc, [0.5], lambda p: np.full(np.shape(p), np.inf))


def test_flag_rate_past_one_raises_like_the_loop():
    # A table whose support sums past 1 (built without TruthTable's check)
    # gives the all-one flag a rate OneWayStats refuses.
    t = types.SimpleNamespace(
        n=1, num_inputs=2, f=np.zeros((2, 2), dtype=np.int8),
        mu=np.array([[0.6, 0.0], [0.0, 0.6]]),
        support=lambda: [(0, 0), (1, 1)])
    doc = {"boxes": [{"flag": [1, 0], "answer": [0, 0]},
                     {"flag": [1, 1], "answer": [0, 1]}]}
    messages = []
    for run in (ref.run_sweep, cli_sweep):
        with pytest.raises(InvariantError) as err:
            run(t, doc, [0.5], BudgetOracle(builtin_qrac().truth))
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "p_a=1.2 outside [0, 1]"


def test_deterministic_boxes_follow_product_order():
    flags, answers = bell._deterministic_boxes(2)
    want = list(ref.sweep_boxes(TruthTable(
        n=1, f=np.zeros((2, 2), dtype=int), mu=np.full((2, 2), 0.25)),
        {"boxes": "deterministic"}))
    got = [(tuple(map(int, f)), tuple(map(int, a)))
           for f, a in zip(flags, answers)]
    assert got == want


def test_sweep_at_check_cap_is_small():
    # 65,536 deterministic boxes of an n = 3 table x 16 deltas is exactly
    # SWEEP_CHECK_CAP checks; the peak includes the budget searches.
    t = seeded_truth(5, 3)
    deltas = seeded_deltas(np.random.default_rng(5), 16)
    assert 4 ** t.num_inputs * len(deltas) == cli.SWEEP_CHECK_CAP
    tracemalloc.start()
    try:
        got = cli_sweep(t, {"boxes": "deterministic"}, deltas,
                        BudgetOracle(t))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got["boxes"] == 65536
    assert peak < 16 * 2 ** 20

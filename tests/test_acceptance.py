"""Shipping gates: nine end-to-end acceptance checks, one test each.

Every test prints one summary line (visible with -s, or in the captured
output of a failure) and enforces its own wall-clock budget.

Gate 4 checks that the noisy eight-port pipeline reproduces what the
port-teleportation step predicts.  With maximally entangled ports and the
square-root measurement the step is covariant under U (x) conj(U), so the
induced qubit channel is depolarizing, rho -> lam*rho + (1 - lam)*I/2, and
shrinks the qrac's bias by lam.  The entanglement fidelity F of the step is
not that factor: the depolarized branch still overlaps the maximally
entangled state by 1/4, so F = lam + (1 - lam)/4, i.e. lam = (4F - 1)/3,
which lies below F at every finite port count.  The gate therefore holds the
measured value to 1/2 + ((4F - 1)/3)*eps, and pins F itself against the
Ishizaka-Hiroshima qubit closed form.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bellforge import (
    BudgetOracle, OneWayStats, PortSchedule, TruthTable, bell_value,
    builtin_qrac, chernoff_repeats,
    entanglement_fidelity, generate_correlations, lhv_bound, lhv_strategies,
    lhv_table, majority_amplify, margin_ratio_lower_bound,
    nonlinear_bell_check, pumping_bound, random_protocol, ratio_lower_bound,
    asymptotic_ratio_one_way, asymptotic_ratio_two_way, rsp_attempt,
    run_exact, simulate_with_classical_comm, success_probability,
    to_memoryless, to_single_qubit_rounds,
)
from bellforge.states import PureState, fidelity, random_unitary
from bellforge.teleport import build_pbt_povm

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QRAC_SUCCESS = 0.8535533905932737
QRAC_EPS = QRAC_SUCCESS - 0.5


def record(num: int, ok: bool, elapsed: float, limit: float,
           detail: str) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    line = (f"criterion {num}: {status} [{elapsed:.1f}s/"
            f"{limit:.0f}s] {detail}")
    print(line, flush=True)
    assert status == "PASS", line


def pbt_fidelity_qubit(n: int) -> float:
    """Ishizaka-Hiroshima closed form of the entanglement fidelity of qubit
    port teleportation with n maximally entangled ports and the square-root
    measurement (PRL 101, 240501, 2008)."""
    total = 0.0
    for k in range(n + 1):
        term = ((n - 2 * k - 1) / math.sqrt(k + 1)
                + (n - 2 * k + 1) / math.sqrt(n - k + 1))
        total += math.comb(n, k) * term * term
    return total / 2 ** (n + 3)


def xor_truth() -> TruthTable:
    return TruthTable(n=1, f=np.array([[0, 1], [1, 0]]),
                      mu=np.full((2, 2), 0.25))


def eq_truth() -> TruthTable:
    return TruthTable(n=1, f=np.eye(2, dtype=int),
                      mu=np.full((2, 2), 0.25))


def test_criterion_1_teleport_fidelity_floor():
    start = time.monotonic()
    worst_margin = math.inf
    for n in range(1, 9):
        meas = build_pbt_povm(n, 2)
        elements = [meas.element(z) for z in range(1, n + 1)]
        total = sum(elements)
        comp = float(np.max(np.abs(total - np.eye(2 ** (n + 1)))))
        min_eig = min(float(np.linalg.eigvalsh(e).min())
                      for e in elements)
        assert comp <= 1e-9, f"completeness dev {comp} at N={n}"
        assert min_eig >= -1e-10, f"eigenvalue {min_eig} at N={n}"
    for n in (5, 6, 7, 8):
        fid = entanglement_fidelity(n, 2)
        worst_margin = min(worst_margin, fid - (1.0 - 4.0 / n))
        assert fid >= 1.0 - 4.0 / n
    record(1, worst_margin >= 0, time.monotonic() - start, 120,
           f"fidelity floor 1-4/N holds for N=5..8 (worst margin "
           f"{worst_margin:.4f}); port measurement complete to 1e-9 and "
           f"positive to -1e-10 for N<=8")


def test_criterion_2_preparation_statistics():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst_prob = 0.0
    worst_fid = 0.0
    for d in (2, 3, 4):
        for _ in range(100):
            target = PureState(random_unitary(d, rng)[:, 0])
            att = rsp_attempt(target, rng)
            worst_prob = max(worst_prob,
                             abs(att.success_probability - 1.0 / d))
        hits = 0
        while hits < 100:
            target = PureState(random_unitary(d, rng)[:, 0])
            att = rsp_attempt(target, rng)
            if att.outcome == 1:
                hits += 1
                worst_fid = max(worst_fid,
                                abs(fidelity(att.bob_state, target) - 1.0))
    ok = worst_prob <= 1e-12 and worst_fid <= 1e-10
    record(2, ok, time.monotonic() - start, 30,
           f"success probability an exact 1/d over 100 targets per "
           f"d=2,3,4 (worst dev {worst_prob:.2e}); success-branch "
           f"fidelity 1 (worst dev {worst_fid:.2e})")


def test_criterion_3_transform_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    corpus = [random_protocol(rng, rounds=int(rng.integers(1, 3)), n=1,
                              max_qubits=2) for _ in range(20)]
    worst_dev = 0.0
    worst_cost = -math.inf
    for p in corpus:
        sq = to_single_qubit_rounds(p)
        ml = to_memoryless(sq)
        size = p.truth.num_inputs
        for x in range(size):
            for y in range(size):
                ref = run_exact(p, x, y)
                for other in (sq, ml.proto):
                    dev = float(np.max(np.abs(run_exact(other, x, y) - ref)))
                    worst_dev = max(worst_dev, dev)
        q = ml.source_qubits
        worst_cost = max(worst_cost, ml.qubit_cost - (q * q + 2 * q))
    ok = worst_dev <= 1e-9 and worst_cost <= 0
    record(3, ok, time.monotonic() - start, 300,
           f"both conversions preserve all exact outcome probabilities on "
           f"the 20-protocol corpus (worst dev {worst_dev:.2e}); "
           f"memoryless qubit cost within Q^2+2Q (worst slack "
           f"{-worst_cost})")


def test_criterion_4_pipeline_identity():
    start = time.monotonic()
    ml = to_memoryless(to_single_qubit_rounds(builtin_qrac()))
    schedule = PortSchedule.for_protocol(ml, (8,))

    source = success_probability(builtin_qrac())
    assert source == pytest.approx(QRAC_SUCCESS, abs=1e-12)
    ideal_table = generate_correlations(ml, schedule, ideal=True)
    ideal_value, _ = simulate_with_classical_comm(ideal_table)
    ideal_dev = abs(ideal_value - source)
    ideal_ok = ideal_dev <= 1e-9

    table = generate_correlations(ml, schedule)
    measured, bits = simulate_with_classical_comm(table)
    f_measured = entanglement_fidelity(8, 2)
    fid_dev = abs(f_measured - pbt_fidelity_qubit(8))
    fid_ok = fid_dev <= 1e-12
    lam = (4.0 * f_measured - 1.0) / 3.0
    predicted = 0.5 + lam * QRAC_EPS
    noisy_dev = abs(measured - predicted)
    noisy_ok = noisy_dev <= 1e-9
    bits_ok = bits == 3.0

    record(4, ideal_ok and fid_ok and noisy_ok and bits_ok,
           time.monotonic() - start, 300,
           f"ideal bypass reproduces the source (dev {ideal_dev:.1e}): "
           f"{'PASS' if ideal_ok else 'FAIL'}; F = {f_measured:.10f} "
           f"matches the qubit closed form (dev {fid_dev:.1e}): "
           f"{'PASS' if fid_ok else 'FAIL'}; noisy run = 1/2 + "
           f"((4F-1)/3)*eps {'PASS' if noisy_ok else 'FAIL'} (measured "
           f"{measured:.10f} against {predicted:.10f}, dev "
           f"{noisy_dev:.1e}; the qubit step is "
           f"depolarizing with contraction (4F-1)/3 = {lam:.10f}); index "
           f"budget 3 bits {'PASS' if bits_ok else 'FAIL'}")


def _enumerate_single_level(truth: TruthTable, n1: int) -> float:
    """Every deterministic local strategy for a one-level schedule,
    evaluated in full: each of the n1^|X| index choices is paired with
    each of the 2^(|Y| n1) leaf tables (no greedy shortcut), and the
    maximum achieved success is returned."""
    size = truth.num_inputs
    slots = size * n1
    masks = ((np.arange(2 ** slots)[:, None] >> np.arange(slots)) & 1
             ).astype(np.float64)
    best = -math.inf
    for a1 in itertools.product(range(n1), repeat=size):
        acc = np.zeros((size, n1, 2))
        for x, y in truth.support():
            acc[y, a1[x], truth.f[x, y]] += truth.mu[x, y]
        base = float(acc[:, :, 0].sum())
        diff = (acc[:, :, 1] - acc[:, :, 0]).ravel()
        values = base + masks @ diff
        best = max(best, float(values.max()))
    return best


def test_criterion_5_soundness_sweep():
    start = time.monotonic()
    qrac = builtin_qrac().truth

    # Single-level schedules, full strategy-by-strategy enumeration
    # (index choices times all leaf tables) against the library bound.
    for n1, frozen in ((2, 0.25), (3, 0.375), (4, 0.5)):
        s = PortSchedule((n1,), (2,))
        delta = lhv_bound(qrac, s, method="exact")
        assert delta == pytest.approx(frozen, abs=1e-12)
        best = _enumerate_single_level(qrac, n1)
        assert best <= 0.5 + delta + 1e-12, (n1, best, delta)
        assert best == pytest.approx(0.5 + delta, abs=1e-12), (n1, best)

    # Three-level schedules through the library enumeration, which walks
    # every deterministic strategy including all leaf tables.  With a
    # two-input function any single announced index already identifies
    # the input, so each exact bound here is the trivial 1.0; the sweep
    # confirms that no strategy exceeds it and that it is attained.
    xor = xor_truth()
    count = 0
    for counts in ((2, 2, 1), (2, 1, 2), (1, 2, 2)):
        s3 = PortSchedule(counts, (2, 2, 2))
        delta3 = lhv_bound(xor, s3, method="exact")
        best3 = -math.inf
        for alice, bob in lhv_strategies(xor, s3):
            table = lhv_table(xor, s3, alice, bob)
            rep = bell_value(table, delta3, "exact")
            best3 = max(best3, rep.bell_value)
            count += 1
            assert rep.bell_value <= 0.5 + delta3 + 1e-12
        assert best3 == pytest.approx(0.5 + delta3, abs=1e-12)
    assert count == 3 * 16384

    # Rigorous flag-route inequality on every deterministic box of three
    # scenarios, across the confidence grid.
    failures = 0
    boxes = 0
    for truth in (qrac, xor_truth(), eq_truth()):
        size = truth.num_inputs
        for flag in itertools.product((0, 1), repeat=size):
            for answer in itertools.product((0, 1), repeat=size):
                boxes += 1
                p_a = sum(truth.mu[x, y]
                          for x, y in truth.support() if flag[x])
                hit = sum(truth.mu[x, y] for x, y in truth.support()
                          if flag[x] and answer[y] == truth.f[x, y])
                stats = OneWayStats(
                    p_a=p_a, p_b=hit / p_a if p_a > 0 else 0.5,
                    truth=truth)
                for delta in (0.5, 0.25, 1.0 / 16.0, 1.0 / 256.0):
                    if not nonlinear_bell_check(stats, delta).holds:
                        failures += 1
    record(5, failures == 0, time.monotonic() - start, 600,
           f"no deterministic strategy beats 1/2 + delta in any swept "
           f"scenario (single-level ports 2..4 in full, {count} "
           f"three-level strategies); rigorous flag inequality holds on "
           f"all {boxes} boxes x 4 deltas ({failures} counterexamples)")


def test_criterion_6_classical_table():
    start = time.monotonic()
    qrac = builtin_qrac().truth
    oracle = BudgetOracle(qrac)
    exact = oracle.table(2)
    table_ok = exact == ((0, 0.5), (1, 0.75), (2, 1.0))
    need = oracle(0.76)
    record(6, table_ok and need == 2, time.monotonic() - start, 60,
           f"exhaustive table {dict(exact)} matches the exact optima; "
           f"bits to reach success 0.76 = {need}")


def test_criterion_7_amplification():
    start = time.monotonic()
    repeats = chernoff_repeats(1.0 / 6.0)
    reps_ok = repeats == 108

    p, l, trials = 0.6, 51, 10 ** 4
    eps = p - 0.5
    empirical = majority_amplify(lambda rng: rng.random() < p, l, trials,
                                 seed=123)
    # Conservative deviation allowance: 4 sigma with the worst-case
    # binomial sigma 0.5/sqrt(trials).
    floor = 1.0 - math.exp(-l * eps ** 2 / 2.0) - 4 * 0.5 / math.sqrt(trials)
    amp_ok = empirical >= floor

    pump_failures = 0
    for truth in (builtin_qrac().truth, xor_truth(), eq_truth()):
        need = BudgetOracle(truth)
        c23 = need(2.0 / 3.0)
        for e in (0.1, 0.125, 1.0 / 6.0):
            c_eps = need(0.5 + e)
            if c23 > pumping_bound(c_eps, e) + 1e-12:
                pump_failures += 1
    record(7, reps_ok and amp_ok and pump_failures == 0,
           time.monotonic() - start, 120,
           f"chernoff repeats at eps=1/6 = {repeats}; majority success "
           f"{empirical:.4f} >= analytic floor {floor:.4f} at (0.6, 51, "
           f"1e4); pumping inequality holds for 3 functions x 3 eps "
           f"({pump_failures} failures)")


def test_criterion_8_ratio_arithmetic():
    start = time.monotonic()
    coeff = 1.0 / (6.0 * math.sqrt(3.0))
    worst = 0.0
    for c_cl, c_q in ((108.0, 1.0), (50.0, 3.0), (7.0, 7.0), (2.0, 1.0)):
        worst = max(worst, abs(ratio_lower_bound(c_cl, c_q)
                               - coeff * math.sqrt(c_cl / c_q)))
    assert ratio_lower_bound(108.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    for delta in (0.5, 0.25, 1.0 / 16.0):
        worst = max(worst, abs(margin_ratio_lower_bound(delta)
                               - (1.0 / 6.0) / delta))
    for n in (4.0, 64.0, 1024.0, 4096.0):
        for c in (1.0, 2.0):
            one = 0.5 * (1.0 - 1.0 / n) / math.sqrt(
                5.0 * math.log2(n) / (c * n ** (1.0 / 3.0)))
            two = 0.5 * (1.0 - 1.0 / n) ** 2 / math.sqrt(
                c * 10.0 * math.log2(n) ** 2 / n ** 0.25)
            worst = max(worst, abs(asymptotic_ratio_one_way(n, c) - one))
            worst = max(worst, abs(asymptotic_ratio_two_way(n, c) - two))
    assert asymptotic_ratio_one_way(1024.0, 1.0) == pytest.approx(
        0.22427317879306416, abs=1e-15)
    assert asymptotic_ratio_two_way(1024.0, 1.0) == pytest.approx(
        0.037532617515607936, abs=1e-15)
    record(8, worst <= 1e-12, time.monotonic() - start, 1,
           f"budget, margin, and closed-form ratio expressions reproduce "
           f"their printed forms (worst dev {worst:.1e})")


def test_criterion_9_reproducible_reports(tmp_path):
    start = time.monotonic()

    def run(args, out, threads):
        env = dict(os.environ, BELLFORGE_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "bellforge", *args, "--out", str(out)],
            env=env, cwd=REPO, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schedule": [4], "mode": "sampled",
                               "trials": 1000}))
    certify = ["bell-certify", "--config", str(cfg), "--seed", "11"]
    pairs_equal = (
        run(certify, tmp_path / "a.json", 1)
        == run(certify, tmp_path / "b.json", 4),
        run(["cc"], tmp_path / "c1.json", 1)
        == run(["cc"], tmp_path / "c2.json", 3),
    )
    record(9, all(pairs_equal), time.monotonic() - start, 120,
           f"sampled certification and table reports byte-identical "
           f"across thread counts (certify {pairs_equal[0]}, "
           f"cc {pairs_equal[1]})")

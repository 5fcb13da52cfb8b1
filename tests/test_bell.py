"""Tests for the teleportation Bell pipeline and the one-way route.

Fixture values marked "frozen" were computed by independent closed-form
oracles (depolarizing composition of the noisy chain, exhaustive strategy
enumeration, direct two-port joint summation) before being pinned here.
"""

import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from bellforge import bell
from bellforge.classicalcc import BudgetOracle
from bellforge.protocols import (
    TruthTable, builtin_qrac, random_protocol, success_probability,
)
from bellforge.remoteprep import batch_size
from bellforge.serialize import dumps_canonical
from bellforge.states import (
    CapExceededError, InvariantError, _RegisterMachine,
    max_entangled, psd_sqrt, random_density,
)
from bellforge.teleport import (
    build_pbt_povm, depolarizing_parameter, entanglement_fidelity,
)
from bellforge.transforms import to_memoryless, to_single_qubit_rounds
import pbt_reference as ref

# Success of the built-in random-access protocol, cos^2(pi/8).
QRAC_SUCCESS = 0.8535533905932737
QRAC_EPS = QRAC_SUCCESS - 0.5

# Depolarizing contraction of the qubit teleportation step, frozen from
# the measured channel action on a basis state; equals (4 F - 1) / 3 for
# the step's entanglement fidelity F.
DEPOL = {
    1: 0.0,
    2: 0.288675134594813,
    4: 0.643785192484111,
    8: 0.868344714317920,
}

# Pipeline Bell values on the built-in protocol, frozen from the exact
# branch enumeration; each equals 1/2 + DEPOL[N] * QRAC_EPS.
QRAC_BELL = {
    1: 0.5,
    2: 0.6020620726159658,
    4: 0.7276124376165007,
    8: 0.8070062179508479,
}

# Exact deterministic-strategy bounds for the same functional, frozen
# from exhaustive enumeration.
QRAC_LHV = {1: 0.0, 2: 0.25, 3: 0.375, 4: 0.5}

# Members of the shared random corpus whose memoryless legs are all at
# most 8-dimensional after conversion.  Exact mode runs any number of
# rounds, so the round count is no filter.
ELIGIBLE_LEGS = {
    3: (2, 4, 4, 8, 8), 4: (4,), 8: (4, 8, 4), 9: (4, 8, 4), 12: (4, 8, 8),
    13: (2,), 16: (4, 8, 4), 18: (4,), 19: (4,),
}


def qrac_ml():
    return to_memoryless(builtin_qrac())


def random_truth(n, seed):
    rng = np.random.default_rng(seed)
    size = 2 ** n
    mu = rng.random((size, size))
    return TruthTable(n=n, f=rng.integers(0, 2, size=(size, size)),
                      mu=mu / mu.sum())


def xor_truth():
    f = np.array([[0, 1], [1, 0]])
    return TruthTable(n=1, f=f, mu=np.full((2, 2), 0.25))


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(7)
    members = []
    for _ in range(20):
        rounds = int(rng.integers(1, 3))
        members.append(random_protocol(rng, rounds=rounds, n=1,
                                       max_qubits=2))
    return members


@pytest.fixture(scope="module")
def eligible(corpus):
    out = {}
    for i, p in enumerate(corpus):
        ml = to_memoryless(to_single_qubit_rounds(p))
        legs = tuple(d for _, d in ml.proto.legs)
        if max(legs) <= 8:
            out[i] = (p, ml, legs)
    return out


def depolarized(rho: np.ndarray, lam: float) -> np.ndarray:
    """`rho` after one depolarizing leg on the register machine."""
    reg = _RegisterMachine()
    reg.add("S", rho.shape[0])
    reg.state = np.asarray(rho, dtype=complex)
    reg.depolarize("S", lam)
    return reg.state


class TestDepolarizingLeg:
    """The depolarizing leg against the dense branch reference."""

    @pytest.mark.parametrize("n_ports,d", [(1, 2), (2, 2), (3, 2), (2, 3),
                                           (2, 4), (2, 8)])
    def test_matches_teleport_branches(self, n_ports, d):
        rng = np.random.default_rng(31)
        lam = depolarizing_parameter(n_ports, d)
        meas = build_pbt_povm(n_ports, d)
        elements = [meas.element(z) for z in range(1, n_ports + 1)]
        for rank in (1, d):
            rho = random_density(d, rng, rank=rank)
            branches = ref.outputs(rho, elements)
            for prob, _ in branches:
                assert prob == pytest.approx(1.0 / n_ports, abs=1e-12)
            direct = branches[0][1]
            assert np.max(np.abs(depolarized(rho, lam) - direct)) < 1e-12
            for _, other in branches[1:]:
                assert np.max(np.abs(other - direct)) < 1e-12

    def test_single_port_fully_depolarizes(self):
        rng = np.random.default_rng(32)
        for d in (2, 3):
            lam = depolarizing_parameter(1, d)
            rho = random_density(d, rng, rank=1)
            out = depolarized(rho, lam)
            assert np.max(np.abs(out - np.eye(d) / d)) < 1e-12

    def test_qubit_depolarizing_parameter(self):
        ground = np.diag([1.0, 0.0]).astype(complex)
        for n_ports, lam_frozen in DEPOL.items():
            out = depolarized(ground,
                              depolarizing_parameter(n_ports, 2))
            lam = float(np.real(out[0, 0] - out[1, 1]))
            assert lam == pytest.approx(lam_frozen, abs=1e-12)
            fid = entanglement_fidelity(n_ports, 2)
            assert lam == pytest.approx((4.0 * fid - 1.0) / 3.0, abs=1e-12)


class TestPortSchedule:
    def test_for_protocol_reads_leg_dims(self):
        s = bell.PortSchedule.for_protocol(qrac_ml(), (8,))
        assert s.port_dims == (2,)
        assert s.port_counts == (8,)
        assert s.budget_bits == pytest.approx(3.0, abs=1e-15)

    def test_budget_bits(self):
        assert bell.PortSchedule((1,), (2,)).budget_bits == 0.0
        s = bell.PortSchedule((2, 2, 1), (2, 2, 2))
        assert s.budget_bits == pytest.approx(2.0, abs=1e-15)
        s3 = bell.PortSchedule((3,), (2,))
        assert s3.budget_bits == pytest.approx(math.log2(3.0), abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            bell.PortSchedule((2, 2), (2,))
        with pytest.raises(ValueError):
            bell.PortSchedule((0,), (2,))
        with pytest.raises(ValueError):
            bell.PortSchedule((2,), (1,))
        with pytest.raises(ValueError):
            bell.PortSchedule((), ())
        with pytest.raises(ValueError):
            bell.PortSchedule.for_protocol(qrac_ml(), (2, 2))

    @pytest.mark.parametrize("counts,dims", [
        ((2.7,), (2,)), ((2.0,), (2,)), ((True,), (2,)), ((2,), (2.9,)),
        ((2,), (np.float64(2.0),)), ((np.bool_(True),), (2,)),
        (("2",), (2,))], ids=["float", "whole-float", "bool", "float-dim",
                             "numpy-float-dim", "numpy-bool", "str"])
    def test_refuses_non_integers(self, counts, dims):
        with pytest.raises(ValueError, match="must be integers"):
            bell.PortSchedule(counts, dims)

    def test_numpy_integers_become_ints(self):
        s = bell.PortSchedule((np.int64(2), np.uint8(3)), (np.int32(2), 4))
        assert s == bell.PortSchedule((2, 3), (2, 4))
        assert all(type(v) is int for v in s.port_counts + s.port_dims)
        with pytest.raises(ValueError, match="must be integers"):
            bell.PortSchedule.for_protocol(qrac_ml(), (2.5,))


class TestGenerateCorrelations:
    def test_single_port_closed_form(self):
        # One port means the teleported register arrives fully mixed, so
        # every terminal distribution is the observable read on I/2.
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (1,))
        table = bell.generate_correlations(ml, s)
        assert table.axes == (2,)
        for x, y in np.ndindex(table.tables.shape[:2]):
            arr = table.tables[x, y]
            obs = ml.proto.observables[y]
            direct = np.array([float(np.trace(e).real) / 2.0
                               for e in obs.elements])
            assert np.max(np.abs(arr - direct)) < 1e-12

    def test_rows_normalized(self):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2,))
        table = bell.generate_correlations(ml, s)
        for arr in table.tables.reshape((-1,) + table.axes):
            assert arr.sum() == pytest.approx(1.0, abs=1e-9)
            assert arr.min() >= -1e-12

    def test_marginal_rule_against_direct_summation(self):
        # Rebuild the full two-port joint (outcome, both terminal bits)
        # from raw branch tensors.  Summing out the unselected port's bit
        # gives the same marginal on either port (the port symmetry that
        # lets a table drop its port axes), and the two add up to the
        # table's leaf row.
        ml = qrac_ml()
        proto = ml.proto
        s = bell.PortSchedule.for_protocol(ml, (2,))
        table = bell.generate_correlations(ml, s)
        meas = build_pbt_povm(2, 2)
        roots = [psd_sqrt(meas.element(z)) for z in (1, 2)]
        pair = max_entangled(2).amplitudes.reshape(2, 2)
        res2 = np.kron(pair, pair)  # (A1 A2) x (B1 B2)
        for x in range(4):
            psi = proto.alice_ops[0][x][:, 0]
            joint = np.kron(psi.reshape(2, 1), res2)  # (A0 A1 A2) x (B1 B2)
            branches = [root @ joint for root in roots]
            for y in range(4):
                els = proto.observables[y].elements
                marginals = []
                for z, branch in enumerate(branches):
                    t = branch.reshape(-1, 2, 2)
                    rho = np.einsum("aij,akl->ijkl", t, t.conj())
                    rho = rho.reshape(4, 4)
                    full = np.zeros((2, 2))
                    for o1 in range(2):
                        for o2 in range(2):
                            op = np.kron(els[o1], els[o2])
                            full[o1, o2] = float(
                                np.trace(op @ rho).real)
                    marginals.append(full.sum(axis=1) if z == 0
                                     else full.sum(axis=0))
                assert np.max(np.abs(marginals[0] - marginals[1])) < 1e-10
                dev = np.abs(marginals[0] + marginals[1] - table.tables[x, y])
                assert np.max(dev) < 1e-10

    def test_requires_memoryless(self):
        with pytest.raises(TypeError):
            bell.generate_correlations(
                builtin_qrac(), bell.PortSchedule((2,), (2,)))

    def test_schedule_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            bell.generate_correlations(
                qrac_ml(), bell.PortSchedule((2,), (4,)))

    def test_mode_and_trials_validation(self):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2,))
        with pytest.raises(ValueError):
            bell.generate_correlations(ml, s, mode="fancy")
        with pytest.raises(ValueError):
            bell.generate_correlations(ml, s, mode="sampled")

    @pytest.mark.parametrize("trials", [1000.0, True, "1000", None, 0])
    def test_sampled_trials_must_be_a_positive_integer(self, trials):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2,))
        with pytest.raises(ValueError, match="integer trials >= 1"):
            bell.generate_correlations(ml, s, mode="sampled", trials=trials,
                                       seed=1)
        table = bell.generate_correlations(ml, s, mode="sampled",
                                           trials=np.int64(10), seed=1)
        assert table.trials == 10

    def test_trials_cap_refuses_before_drawing(self, monkeypatch):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2,))

        def refuse(*args, **kwargs):
            raise AssertionError("a pair was simulated")

        monkeypatch.setattr(bell, "_simulate", refuse)
        for trials in (bell.TRIALS_CAP + 1, 10 ** 12):
            with pytest.raises(CapExceededError, match="trials"):
                bell.generate_correlations(ml, s, mode="sampled",
                                           trials=trials, seed=1)

    def test_many_ports_meet_the_fidelity_cap(self):
        # No port count is capped as such; a noisy step's fidelity is.
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (40000,))
        with pytest.raises(CapExceededError,
                           match="entanglement fidelity cap"):
            bell.generate_correlations(ml, s)

    def test_port_count_product_must_print(self):
        # The meta prints the product of the port counts: one with more
        # digits than Python prints is refused before any pair runs.
        ml = qrac_ml()
        for count in (10 ** 4300, 10 ** 4400):
            s = bell.PortSchedule.for_protocol(ml, (count,))
            with pytest.raises(CapExceededError,
                               match="more than 4300 digits"):
                bell.generate_correlations(ml, s, ideal=True)
        s = bell.PortSchedule.for_protocol(ml, (10 ** 4300 - 1,))
        table = bell.generate_correlations(ml, s, ideal=True)
        assert table.meta["full_alphabets"]["leaf_variable_count"] \
            == 10 ** 4300 - 1
        assert str(10 ** 4300 - 1) in dumps_canonical(table.meta)

    def test_three_rounds_run_exact(self, corpus):
        ml = to_memoryless(to_single_qubit_rounds(corpus[3]))
        assert ml.proto.rounds == 3
        counts = tuple(1 for _ in ml.proto.legs)
        s = bell.PortSchedule.for_protocol(ml, counts)
        table = bell.generate_correlations(ml, s, ideal=True)
        assert table.mode == "exact"
        success, _ = bell.simulate_with_classical_comm(table)
        assert success == pytest.approx(success_probability(corpus[3]),
                                        abs=1e-12)

    def test_meta_records_alphabets(self):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2,))
        table = bell.generate_correlations(ml, s)
        assert table.meta["ideal"] is False
        info = table.meta["full_alphabets"]
        assert info["level_port_counts"] == [2]
        assert info["leaf_variable_count"] == 2
        ideal = bell.generate_correlations(ml, s, ideal=True)
        assert ideal.meta["ideal"] is True


class TestCorrelationTable:
    def _tables(self, fill=0.5):
        return np.full((4, 4, 2), fill)

    def test_axes_must_match_schedule(self):
        # A scheduled table holds the leaf alone, whatever the port counts.
        truth = builtin_qrac().truth
        for counts in ((4,), (4, 1, 1)):
            table = bell.CorrelationTable(
                truth=truth, schedule=bell.PortSchedule(
                    counts, (2,) * len(counts)),
                tables=self._tables(), mode="exact")
            assert table.axes == (2,)
        for shape in ((4, 4, 4, 2), (4, 4, 2, 2), (4, 4, 3)):
            with pytest.raises(ValueError, match=r"do not match schedule "
                                                 r"leaf axes \(2,\)"):
                bell.CorrelationTable(
                    truth=truth, schedule=bell.PortSchedule((4,), (2,)),
                    tables=np.full(shape, 1.0 / math.prod(shape[2:])),
                    mode="exact")
        # A one-way table carries no schedule and keeps its own axes.
        bell.CorrelationTable(truth=truth, schedule=None,
                              tables=np.full((4, 4, 2, 2), 0.25),
                              mode="one_way")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_entries(self, bad):
        # Checked before the sign and sum checks, which NaN passes.
        tables = self._tables()
        tables[1, 2, 1] = bad
        with pytest.raises(ValueError, match=r"table \(1, 2\) has a "
                                             r"non-finite entry"):
            bell.CorrelationTable(
                truth=builtin_qrac().truth,
                schedule=bell.PortSchedule((2,), (2,)),
                tables=tables, mode="exact")

    def test_tables_are_one_read_only_array(self):
        table = bell.CorrelationTable(
            truth=builtin_qrac().truth, schedule=bell.PortSchedule((2,), (2,)),
            tables=np.full((4, 4, 2), 0.5, dtype=np.float32),
            mode="exact")
        assert table.tables.dtype == np.float64
        assert table.tables.shape == (4, 4, 2)
        assert table.axes == (2,)
        assert not table.tables.flags.writeable

    def test_copies_the_callers_array(self):
        arr = self._tables()
        table = bell.CorrelationTable(
            truth=builtin_qrac().truth, schedule=bell.PortSchedule((2,), (2,)),
            tables=arr, mode="exact")
        assert arr.flags.writeable
        arr[0, 0] = (1.0, 0.0)
        assert table.tables[0, 0].tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("shape", [(4, 3, 2, 2), (16, 2, 2), (2, 4, 4),
                                       (4,), ()])
    def test_refuses_leading_shape_other_than_input_pairs(self, shape):
        with pytest.raises(ValueError, match=r"does not lead with the input "
                                             r"pairs \(4, 4\)"):
            bell.CorrelationTable(
                truth=builtin_qrac().truth, schedule=None,
                tables=np.full(shape, 0.25), mode="one_way")

    @pytest.mark.parametrize("row, error, message", [
        ([0.5, np.nan], ValueError, " has a non-finite entry"),
        ([-0.25, 1.25], bell.InvariantError, ": negative probability -0.25"),
        ([0.6, 0.6], bell.InvariantError, ": sums to 1.2"),
    ], ids=["non-finite", "negative", "unnormalised"])
    def test_names_first_bad_pair(self, row, error, message):
        tables = self._tables()
        tables[3, 0] = np.inf  # a later pair, never reached
        tables[1, 2] = row
        with pytest.raises(error, match=r"^table \(1, 2\)" + message):
            bell.CorrelationTable(
                truth=builtin_qrac().truth,
                schedule=bell.PortSchedule((2,), (2,)),
                tables=tables, mode="exact")


class TestBellValue:
    def test_monotone_frozen_values(self):
        ml = qrac_ml()
        seen = []
        for n1, expected in QRAC_BELL.items():
            s = bell.PortSchedule.for_protocol(ml, (n1,))
            table = bell.generate_correlations(ml, s)
            rep = bell.bell_value(table)
            assert rep.bell_value == pytest.approx(expected, abs=1e-9)
            assert 0.0 <= rep.bell_value <= 1.0
            assert rep.shifted_value == rep.bell_value - 0.5
            seen.append(rep.bell_value)
        assert all(b >= a for a, b in zip(seen, seen[1:]))

    def test_depolarizing_composition(self):
        # The noisy chain contracts the shifted value by the step's
        # depolarizing factor: B = 1/2 + lambda * eps.
        for n1 in (2, 4, 8):
            assert QRAC_BELL[n1] == pytest.approx(
                0.5 + DEPOL[n1] * QRAC_EPS, abs=1e-10)

    def test_ideal_bypass_reproduces_source(self):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (8,))
        table = bell.generate_correlations(ml, s, ideal=True)
        rep = bell.bell_value(table)
        assert rep.bell_value == pytest.approx(QRAC_SUCCESS, abs=1e-9)

    def test_uniform_table_gives_half(self):
        truth = builtin_qrac().truth
        s = bell.PortSchedule((2,), (2,))
        tables = np.full((4, 4, 2), 0.5)
        table = bell.CorrelationTable(
            truth=truth, schedule=s, tables=tables, mode="exact")
        rep = bell.bell_value(table)
        assert rep.bell_value == pytest.approx(0.5, abs=1e-15)
        assert rep.shifted_value == pytest.approx(0.0, abs=1e-15)

    def test_needs_port_schedule(self):
        table, _ = bell.one_way_correlations(qrac_ml())
        with pytest.raises(ValueError, match="no port schedule"):
            bell.bell_value(table)
        with pytest.raises(ValueError, match="no port schedule"):
            bell.simulate_with_classical_comm(table)

    def test_delta_range(self):
        ml = qrac_ml()
        table = bell.generate_correlations(
            ml, bell.PortSchedule.for_protocol(ml, (2,)))
        for delta in (0.0, 0.5, 0.5 + 1e-12):
            assert bell.bell_value(table, delta).classical_delta == delta
        for delta in (-1e-9, 0.5 + 1e-9, math.nan):
            with pytest.raises(InvariantError, match="outside"):
                bell.bell_value(table, delta, "exact")

    def test_report_shift_invariant(self):
        with pytest.raises(InvariantError):
            bell.BellReport(
                bell_value=0.7, shifted_value=0.2, classical_delta=None,
                classical_method=None, ratio=None, schedule=None,
                mode="exact", seed=None, budget_bits=None)

    def test_ratio_populated_with_bound(self):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2,))
        table = bell.generate_correlations(ml, s)
        delta = bell.lhv_bound(ml.proto.truth, s, method="exact")
        rep = bell.bell_value(table, delta, "exact")
        assert rep.classical_delta == 0.25
        assert rep.classical_method == "exact"
        assert rep.ratio == pytest.approx(
            (QRAC_BELL[2] - 0.5) / 0.25, abs=1e-9)


def add_at_tables(ml, s, trials, seed, ideal=False):
    """Sampled tables from the same per-pair streams, each drawn at full
    length: every level's port draws, then the leaf draws, with only the
    leaf tallied by np.add.at; `ideal` makes every step a perfect
    channel."""
    counts = s.port_counts
    size = ml.proto.truth.num_inputs
    pairs = [(x, y) for x in range(size) for y in range(size)]
    streams = np.random.default_rng(seed).spawn(len(pairs))
    lams = [1.0 if ideal else depolarizing_parameter(n, d)
            for n, d in zip(counts, s.port_dims)]
    out = {}
    for (x, y), rng in zip(pairs, streams):
        term = np.clip(bell._simulate(ml.proto, x, y, lams), 0.0, None)
        term = term / term.sum()
        arr = np.zeros(2)
        for c in counts:
            rng.integers(0, c, size=trials)
        outs = (rng.random(trials) < term[1]).astype(np.int64)
        np.add.at(arr, outs, 1.0)
        out[(x, y)] = arr / trials
    return out


class TestSampledMode:
    def test_converges_within_four_sigma(self):
        ml = qrac_ml()
        truth = ml.proto.truth
        s = bell.PortSchedule.for_protocol(ml, (2,))
        exact = bell.generate_correlations(ml, s)
        trials = 100000
        sampled = bell.generate_correlations(
            ml, s, mode="sampled", trials=trials, seed=17)
        b_exact = bell.bell_value(exact).bell_value
        b_samp = bell.bell_value(sampled).bell_value
        var = 0.0
        for x, y in truth.support():
            p = exact.tables[x, y, truth.f[x, y]]
            var += truth.mu[x, y] ** 2 * p * (1.0 - p) / trials
        assert abs(b_samp - b_exact) <= 4.0 * math.sqrt(var)

    def test_seed_reproducibility(self):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2,))
        a = bell.generate_correlations(ml, s, mode="sampled", trials=500,
                                       seed=9)
        b = bell.generate_correlations(ml, s, mode="sampled", trials=500,
                                       seed=9)
        c = bell.generate_correlations(ml, s, mode="sampled", trials=500,
                                       seed=10)
        pairs = list(np.ndindex(a.tables.shape[:2]))
        for key in pairs:
            assert np.array_equal(a.tables[key], b.tables[key])
        assert any(not np.array_equal(a.tables[k], c.tables[k])
                   for k in pairs)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bincount_tally_matches_add_at(self, threads, eligible,
                                           monkeypatch):
        monkeypatch.setenv("BELLFORGE_THREADS", threads)
        _, multi, legs = eligible[8]
        cases = [(qrac_ml(), (4,)), (multi, (3, 2, 2))]
        assert len(legs) == 3
        for ml, counts in cases:
            s = bell.PortSchedule.for_protocol(ml, counts)
            for seed in (0, 7, 12345):
                got = bell.generate_correlations(ml, s, mode="sampled",
                                                 trials=3000, seed=seed)
                want = add_at_tables(ml, s, 3000, seed)
                assert set(np.ndindex(got.tables.shape[:2])) == want.keys()
                for key, table in want.items():
                    assert got.tables[key].tobytes() == table.tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_chunked_tally_crosses_chunk_boundaries(self, threads, eligible,
                                                    monkeypatch):
        # Two full chunks and a ragged third; the three-port level of the
        # multi-level protocol draws through rejection sampling.
        monkeypatch.setenv("BELLFORGE_THREADS", threads)
        _, multi, _ = eligible[8]
        trials = 2 * bell._CHUNK + 3
        for ml, counts in [(qrac_ml(), (4,)), (multi, (3, 2, 2))]:
            s = bell.PortSchedule.for_protocol(ml, counts)
            got = bell.generate_correlations(ml, s, mode="sampled",
                                             trials=trials, seed=5)
            want = add_at_tables(ml, s, trials, 5)
            for key, table in want.items():
                assert got.tables[key].tobytes() == table.tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_port_advance_matches_add_at(self, threads, eligible,
                                         monkeypatch):
        # Power-of-two schedules, 1-port levels included, skip their port
        # draws with one advance; odd counts leave a half-used step, and
        # the last count crosses two chunk boundaries.
        monkeypatch.setenv("BELLFORGE_THREADS", threads)
        _, multi, _ = eligible[8]
        cases = [(qrac_ml(), (1,)), (multi, (4, 2, 4)), (multi, (1, 2, 1)),
                 (multi, (1, 1, 1))]
        for ml, counts in cases:
            s = bell.PortSchedule.for_protocol(ml, counts)
            for trials in (1, 2999, 2 * bell._CHUNK + 3):
                got = bell.generate_correlations(
                    ml, s, mode="sampled", trials=np.int64(trials), seed=4)
                want = add_at_tables(ml, s, trials, 4)
                for key, table in want.items():
                    assert got.tables[key].tobytes() == table.tobytes(), \
                        (counts, trials, key)

    def test_only_other_port_counts_draw_port_digits(self, eligible,
                                                     monkeypatch):
        calls = []

        class Counting(np.random.Generator):
            def integers(self, *args, **kwargs):
                calls.append(args)
                return super().integers(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Counting(np.random.PCG64(seed)))
        _, multi, _ = eligible[8]
        pairs = multi.proto.truth.num_inputs ** 2
        for counts, levels in [((4, 2, 4), 0), ((3, 2, 2), 3)]:
            calls.clear()
            s = bell.PortSchedule.for_protocol(multi, counts)
            bell.generate_correlations(multi, s, mode="sampled", trials=10,
                                       seed=1)
            assert len(calls) == levels * pairs, counts

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 8, 15])
    @pytest.mark.parametrize("n", [1, 2, 7, 3000])
    def test_power_of_two_draws_take_half_a_step_each(self, k, n):
        # The port-draw skip rests on this numpy behaviour: below 2^32, each
        # int64 draw over a power-of-two range takes one 32-bit word with no
        # rejection, two to a PCG64 step, and a range of 1 takes none.
        drawn = np.random.default_rng(3)
        drawn.integers(0, 2 ** k, size=n)
        skipped = np.random.default_rng(3)
        skipped.bit_generator.advance(0 if k == 0 else -(-n // 2))
        assert drawn.bit_generator.state["state"] == \
            skipped.bit_generator.state["state"], (
            f"numpy {np.__version__} no longer draws integers(0, 2**{k}) "
            f"as one 32-bit word each; the port-draw advance in "
            f"bell.generate_correlations is no longer exact")

    def test_wide_port_counts_replay_the_stream(self):
        # No port count is capped: 2^15 ports (skipped by the advance) and
        # 2^15 + 1 ports (drawn) both run on the replayed stream, and so
        # does 2^33, whose draws take whole 64-bit steps and are made.
        ml = qrac_ml()
        for count in (2 ** 15, 2 ** 15 + 1, 2 ** 33):
            s = bell.PortSchedule.for_protocol(ml, (count,))
            got = bell.generate_correlations(ml, s, mode="sampled",
                                             trials=301, seed=3, ideal=True)
            want = add_at_tables(ml, s, 301, 3, ideal=True)
            for key, table in want.items():
                assert got.tables[key].tobytes() == table.tobytes(), count

    def test_sampled_port_counts_stop_at_two_to_the_63(self, monkeypatch):
        # numpy draws integers below 2^63 only: 2^63 ports replay the
        # stream, and 2^63 + 1 or 2^64 are refused before any pair runs.
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2 ** 63,))
        got = bell.generate_correlations(ml, s, mode="sampled", trials=301,
                                         seed=3, ideal=True)
        want = add_at_tables(ml, s, 301, 3, ideal=True)
        for key, table in want.items():
            assert got.tables[key].tobytes() == table.tobytes()
        monkeypatch.setattr(bell, "thread_map", None)
        for count in (2 ** 63 + 1, 2 ** 64):
            s = bell.PortSchedule.for_protocol(ml, (count,))
            with pytest.raises(CapExceededError, match=r"below 2\^63"):
                bell.generate_correlations(ml, s, mode="sampled",
                                           trials=301, seed=3, ideal=True)

    @staticmethod
    def _sampled_peak(monkeypatch, trials, threads="1"):
        """`tracemalloc` peak of one sampled qrac [4] run."""
        monkeypatch.setenv("BELLFORGE_THREADS", threads)
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (4,))
        bell.generate_correlations(ml, s, mode="sampled", trials=10, seed=0)
        tracemalloc.start()
        try:
            bell.generate_correlations(ml, s, mode="sampled",
                                       trials=trials, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sampled_memory_stays_small(self, monkeypatch):
        # One chunk of leaf draws per pair in flight, never a draw as long
        # as the trial count.
        assert self._sampled_peak(monkeypatch, 10 ** 6) < 4 * 2 ** 20

    def test_sampled_memory_does_not_grow_with_trials(self, monkeypatch):
        # Nothing is held per trial: at TRIALS_CAP the peak stays one
        # chunk of leaf draws and their comparison.
        assert self._sampled_peak(monkeypatch, bell.TRIALS_CAP) < 2 ** 20

    def test_sampled_memory_is_one_chunk_per_thread(self, monkeypatch):
        # Each of two threads holds one chunk's doubles and booleans,
        # 9 bytes a trial, plus the threads' fixed overhead.
        peak = self._sampled_peak(monkeypatch, bell.TRIALS_CAP, threads="2")
        assert peak < 2 * bell._CHUNK * 9 + 2 ** 17

    def test_mode_fields_recorded(self):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2,))
        t = bell.generate_correlations(ml, s, mode="sampled", trials=200,
                                       seed=1)
        assert t.mode == "sampled"
        assert t.trials == 200
        assert t.seed == 1
        e = bell.generate_correlations(ml, s)
        assert e.mode == "exact"
        assert e.trials is None


class TestSimulateClassical:
    def test_qrac_eight_ports(self):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (8,))
        table = bell.generate_correlations(ml, s)
        success, bits = bell.simulate_with_classical_comm(table)
        assert success == pytest.approx(QRAC_BELL[8], abs=1e-9)
        assert bits == pytest.approx(3.0, abs=1e-15)

    def test_equals_functional_value(self):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2,))
        table = bell.generate_correlations(ml, s)
        success, _ = bell.simulate_with_classical_comm(table)
        rep = bell.bell_value(table)
        assert success == pytest.approx(rep.bell_value, abs=1e-12)

    def test_fully_depolarized_baseline(self):
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (1,))
        table = bell.generate_correlations(ml, s)
        success, bits = bell.simulate_with_classical_comm(table)
        assert success == pytest.approx(0.5, abs=1e-12)
        assert bits == 0.0


class TestCorpusDegradation:
    def test_eligible_membership(self, eligible):
        assert {i: legs for i, (_, _, legs) in eligible.items()} \
            == ELIGIBLE_LEGS

    def _run(self, ml, counts):
        s = bell.PortSchedule.for_protocol(ml, counts)
        table = bell.generate_correlations(ml, s)
        return bell.simulate_with_classical_comm(table)[0]

    def test_mixture_of_ideal_and_scrambled_vertices(self, eligible):
        # Each transmission channel is an exact mixture of the identity
        # and the full scrambler, so the simulated success equals the
        # matching multilinear mixture over the 2^k runs that idealize a
        # subset of the legs and scramble the rest, and in particular
        # lies in the hull of those vertex values.
        for i, (p, ml, legs) in eligible.items():
            sim = self._run(ml, tuple(2 for _ in legs))
            lams = [(d * d * entanglement_fidelity(2, d) - 1.0)
                    / (d * d - 1.0) for d in legs]
            ones = bell.PortSchedule.for_protocol(
                ml, tuple(1 for _ in legs))
            total = 0.0
            verts = []
            for mask in itertools.product((False, True), repeat=len(legs)):
                t = bell.generate_correlations(ml, ones, ideal=mask)
                v = bell.simulate_with_classical_comm(t)[0]
                verts.append(v)
                total += v * math.prod(
                    lam if on else 1.0 - lam
                    for lam, on in zip(lams, mask))
            assert sim == pytest.approx(total, abs=1e-10), f"member {i}"
            assert min(verts) - 1e-9 <= sim <= max(verts) + 1e-9, \
                f"member {i}"

    def test_extremes_alone_do_not_bracket(self, eligible):
        # The mixed vertices matter: on this member the simulated value
        # drops below both the source success and the all-scrambled
        # baseline, so no two-point bracket between those extremes (and
        # no blanket "noise cannot beat the source" bound) holds.
        p, ml, legs = eligible[12]
        sim = self._run(ml, tuple(2 for _ in legs))
        junk = self._run(ml, tuple(1 for _ in legs))
        src = success_probability(p)
        assert sim < min(src, junk) - 1e-5

    def test_cannot_beat_source_when_message_helps(self, eligible):
        # When the source protocol outperforms its own depolarized
        # baseline (the message content genuinely helps), the noisy
        # simulation cannot exceed the source success.
        helped = 0
        for i, (p, ml, legs) in eligible.items():
            sim = self._run(ml, tuple(2 for _ in legs))
            junk = self._run(ml, tuple(1 for _ in legs))
            src = success_probability(p)
            if src >= junk:
                helped += 1
                assert sim <= src + 1e-9, f"member {i}"
        assert helped >= 4

    def test_affine_identity_single_qubit_leg(self, eligible):
        p, ml, legs = eligible[13]
        assert legs == (2,)
        s = bell.PortSchedule.for_protocol(ml, (2,))
        ideal_t = bell.generate_correlations(ml, s, ideal=True)
        ideal = bell.simulate_with_classical_comm(ideal_t)[0]
        assert ideal == pytest.approx(success_probability(p), abs=1e-9)
        junk = self._run(ml, (1,))
        for n1 in (1, 2, 3):
            lam = (4.0 * entanglement_fidelity(n1, 2) - 1.0) / 3.0
            sim = self._run(ml, (n1,))
            assert sim == pytest.approx(
                lam * ideal + (1.0 - lam) * junk, abs=1e-10)


class TestLhvBound:
    def test_qrac_exact_frozen(self):
        truth = builtin_qrac().truth
        for n1, expected in QRAC_LHV.items():
            s = bell.PortSchedule((n1,), (2,))
            assert bell.lhv_bound(truth, s, method="exact") \
                == pytest.approx(expected, abs=1e-12)

    def test_cc_derived_budget(self):
        truth = builtin_qrac().truth
        for n1, expected in [(1, 0.0), (2, 0.25), (3, 0.5), (8, 0.5)]:
            s = bell.PortSchedule((n1,), (2,))
            assert bell.lhv_bound(truth, s, method="cc_derived") \
                == pytest.approx(expected, abs=1e-12)

    def test_exact_never_exceeds_cc_derived(self):
        grid = [
            (builtin_qrac().truth, (2,), (2,)),
            (builtin_qrac().truth, (3,), (2,)),
            (builtin_qrac().truth, (2, 2, 1), (2, 2, 2)),
            (xor_truth(), (2,), (2,)),
            (xor_truth(), (2, 2, 2), (2, 2, 2)),
        ]
        for truth, counts, dims in grid:
            s = bell.PortSchedule(counts, dims)
            exact = bell.lhv_bound(truth, s, method="exact")
            derived = bell.lhv_bound(truth, s, method="cc_derived")
            assert exact <= derived + 1e-12

    def test_three_level_frozen(self):
        for counts in [(2, 2, 1), (2, 2, 2), (2, 1, 2)]:
            assert bell.lhv_bound(
                xor_truth(), bell.PortSchedule(counts, (2, 2, 2)),
                method="exact") == pytest.approx(0.5, abs=1e-12)
        assert bell.lhv_bound(
            builtin_qrac().truth, bell.PortSchedule((2, 2, 1), (2, 2, 2)),
            method="exact") == pytest.approx(0.25, abs=1e-12)

    def test_constant_function_saturates(self):
        f = np.zeros((2, 2), dtype=np.int64)
        truth = TruthTable(n=1, f=f, mu=np.full((2, 2), 0.25))
        s = bell.PortSchedule((2,), (2,))
        assert bell.lhv_bound(truth, s, method="exact") == pytest.approx(0.5)
        assert bell.lhv_bound(truth, s, method="cc_derived") \
            == pytest.approx(0.5)

    def test_two_bit_three_level_exact_bound(self):
        # The cap counts Alice's (2 * 2^2)^4 = 4096 index maps; counting
        # Bob's and every a3 entry (32^4 * 4^4 = 2.7e8) refused this.
        truth = builtin_qrac().truth
        one = bell.lhv_bound(truth, bell.PortSchedule((2,), (2,)),
                             method="exact")
        three = bell.lhv_bound(truth, bell.PortSchedule((2, 2, 2), (2, 2, 2)),
                               method="exact")
        assert one - 1e-12 <= three <= 0.5

    def test_validation_and_caps(self):
        truth = builtin_qrac().truth
        with pytest.raises(ValueError):
            bell.lhv_bound(truth, bell.PortSchedule((2,), (2,)),
                           method="guess")
        # Nobody reads Bob's last leg, so two levels are worth one.
        assert bell.lhv_bound(truth, bell.PortSchedule((2, 2), (2, 2)),
                              method="exact") == bell.lhv_bound(
            truth, bell.PortSchedule((2,), (2,)), method="exact")
        # 64 ports name any of the 4 inputs, so the local bound is 1; on
        # 16 inputs a 4-port leg fills 2 * 3^16 pair cells, past the cap.
        assert bell.lhv_bound(truth, bell.PortSchedule((64,), (2,)),
                              method="exact") == 0.5
        with pytest.raises(CapExceededError, match="88256130 array cells"):
            bell.lhv_bound(random_truth(4, 3), bell.PortSchedule((4,), (2,)),
                           method="exact")

    def test_cap_past_the_print_limit(self):
        # Fifteen legs of 10^4300 ports: their product has 64,501 digits,
        # but the search counts the cells of the inputs' subsets, in which
        # a leg of more ports than inputs is one of as many ports.
        s = bell.PortSchedule((10 ** 4300,) * 15, (2,) * 15)
        start = time.perf_counter()
        assert bell.lhv_bound(builtin_qrac().truth, s, method="exact") == 0.5
        with pytest.raises(CapExceededError, match="array cells, more than"):
            bell.lhv_bound(random_truth(4, 4), s, method="exact")
        assert time.perf_counter() - start < 1.0


class TestLhvSweep:
    def _sweep(self, truth, s):
        bound = 0.5 + bell.lhv_bound(truth, s, method="exact")
        best = 0.0
        count = 0
        for alice, bob in bell.lhv_strategies(truth, s):
            table = bell.lhv_table(truth, s, alice, bob)
            rep = bell.bell_value(table)
            assert rep.bell_value <= bound + 1e-12
            best = max(best, rep.bell_value)
            count += 1
        return best, bound, count

    def test_single_level_sweeps(self):
        qt = builtin_qrac().truth
        best, bound, count = self._sweep(qt, bell.PortSchedule((2,), (2,)))
        assert count == 2 ** 4 * 2 ** 8
        assert best == pytest.approx(bound, abs=1e-12)
        xt = xor_truth()
        best, bound, count = self._sweep(xt, bell.PortSchedule((2,), (2,)))
        assert count == 2 ** 2 * 2 ** 4
        assert best == pytest.approx(bound, abs=1e-12)
        best, bound, count = self._sweep(xt, bell.PortSchedule((4,), (2,)))
        assert count == 4 ** 2 * 2 ** 8
        assert best == pytest.approx(bound, abs=1e-12)
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_three_level_sweep(self):
        best, bound, count = self._sweep(
            xor_truth(), bell.PortSchedule((2, 2, 1), (2, 2, 2)))
        assert count == 16384
        assert best == pytest.approx(bound, abs=1e-12)
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_strategy_tables_deterministic(self):
        truth = xor_truth()
        s = bell.PortSchedule((2,), (2,))
        for alice, bob in list(bell.lhv_strategies(truth, s))[:8]:
            table = bell.lhv_table(truth, s, alice, bob)
            for arr in table.tables.reshape((-1,) + table.axes):
                assert arr.sum() == pytest.approx(1.0)
                assert arr.max() == pytest.approx(1.0)

    @pytest.mark.parametrize("counts", [(2,), (2, 2, 1), (1, 2, 2)])
    def test_strategy_table_marks_the_realised_path(self, counts):
        # The leaf each pair's realised path ends in, read off the strategy
        # one index at a time, against the table's single fancy-indexed
        # assignment.
        truth = xor_truth()
        s = bell.PortSchedule(counts, (2,) * len(counts))
        strategies = bell.lhv_strategies(truth, s)
        for alice, bob in itertools.islice(strategies, 0, None, 97):
            table = bell.lhv_table(truth, s, alice, bob)
            for x, y in np.ndindex(2, 2):
                i1 = int(alice[0][x])
                if s.levels == 1:
                    leaf = int(bob[0][y, i1])
                else:
                    i2 = int(bob[0][y, i1])
                    i3 = int(alice[1][x, i1, i2])
                    leaf = int(bob[1][y, i1, i2, i3])
                want = np.zeros(2)
                want[leaf] = 1.0
                assert np.array_equal(table.tables[x, y], want)

    def test_sweep_cap(self):
        gen = bell.lhv_strategies(
            builtin_qrac().truth, bell.PortSchedule((4,), (2,)))
        with pytest.raises(CapExceededError):
            next(iter(gen))

    def test_sweep_cap_never_forms_a_huge_count(self):
        # 1000 ports at each of three levels: 4 * 10^9 leaf bits alone put
        # the count past LHV_CAP, so the count itself is never formed.
        s = bell.PortSchedule((1000,) * 3, (2,) * 3)
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=r"2\^4000000000 leaf"):
            next(iter(bell.lhv_strategies(builtin_qrac().truth, s)))
        assert time.perf_counter() - start < 1.0

    def test_sweep_refuses_other_level_counts(self):
        # The sweep is the 1- and 3-level reference; the exact bound
        # itself takes any level count.
        s = bell.PortSchedule((2,) * 5, (2,) * 5)
        with pytest.raises(CapExceededError, match="1 or 3 levels"):
            next(iter(bell.lhv_strategies(xor_truth(), s)))
        assert bell.lhv_bound(xor_truth(), s, method="exact") \
            == pytest.approx(0.5, abs=1e-12)


class TestOneWayRoute:
    def test_qrac_stats(self):
        table, stats = bell.one_way_correlations(qrac_ml())
        assert stats.p_a == pytest.approx(0.5, abs=1e-12)
        assert stats.p_b == pytest.approx(QRAC_SUCCESS, abs=1e-10)
        assert stats.truth.n == 2

    def test_flag_rate_per_pair(self):
        table, _ = bell.one_way_correlations(qrac_ml())
        for arr in table.tables.reshape((-1,) + table.axes):
            assert arr.sum() == pytest.approx(1.0, abs=1e-12)
            assert arr[1, :].sum() == pytest.approx(0.5, abs=1e-12)

    def test_requires_one_round_unentangled(self, corpus):
        rng = np.random.default_rng(44)
        multi = random_protocol(rng, rounds=2, n=1, max_qubits=2)
        with pytest.raises(ValueError):
            bell.one_way_correlations(multi)
        keeps_memory = corpus[4]
        assert keeps_memory.rounds == 1 and keeps_memory.a_dims[0] > 1
        with pytest.raises(ValueError):
            bell.one_way_correlations(keeps_memory)

    def test_stats_range_validation(self):
        with pytest.raises(InvariantError):
            bell.OneWayStats(p_a=1.5, p_b=0.5, truth=xor_truth())


class TestNonlinearCheck:
    def test_qrac_one_sixteenth_frozen(self):
        _, stats = bell.one_way_correlations(qrac_ml())
        chk = bell.nonlinear_bell_check(stats, 1.0 / 16.0)
        assert chk.target == pytest.approx(0.831456303681194, abs=1e-12)
        assert chk.lhs_bits == 4.0
        assert chk.rhs_bits == 2.0
        assert chk.holds
        assert chk.heuristic_lhs == pytest.approx(1.0, abs=1e-9)
        assert chk.heuristic_rhs == 2.0
        assert chk.heuristic_violated
        assert chk.pumped_rhs == pytest.approx(1.0, abs=1e-12)
        assert chk.pumped_holds

    def test_delta_grid_holds(self):
        _, stats = bell.one_way_correlations(qrac_ml())
        expected_lhs = {0.5: 2.0, 0.25: 3.0, 1.0 / 256.0: 5.0}
        for delta, lhs in expected_lhs.items():
            chk = bell.nonlinear_bell_check(stats, delta)
            assert chk.lhs_bits == lhs
            assert chk.holds

    def test_validation(self):
        _, stats = bell.one_way_correlations(qrac_ml())
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                bell.nonlinear_bell_check(stats, bad)
        with pytest.raises(ValueError, match="overflows"):
            bell.nonlinear_bell_check(stats, 5e-324)
        with pytest.raises(ValueError, match="oracle"):
            bell.nonlinear_bell_check(stats, 0.25,
                                      oracle=lambda t: math.inf)

    def test_subnormal_flag_rate_costs_unbounded_bits(self):
        # 1/p_a overflows at a subnormal flag rate, as it does when p_a is
        # 0: both sides of the flag cost are infinite, and the check holds.
        # It used to end in an OverflowError from math.ceil.
        for p_a in (1e-320, np.float64(1e-320)):
            stats = bell.OneWayStats(p_a=p_a, p_b=1.0, truth=xor_truth())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                chk = bell.nonlinear_bell_check(stats, 0.25)
            assert chk.lhs_bits == math.inf
            assert chk.heuristic_lhs == math.inf
            assert chk.holds and chk.pumped_holds
            assert not chk.heuristic_violated

    def test_vacuous_pumping_bound_is_zero_bits(self):
        # At a target of at most 1/2 the pumped bound is 0 bits, also when
        # the oracle cannot reach 2/3: it used to be 0 * inf = nan.  The
        # stub oracle certifies targets up to 1/2 only.
        qrac = builtin_qrac().truth
        stats = bell.OneWayStats(p_a=0.5, p_b=0.5, truth=qrac)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chk = bell.nonlinear_bell_check(
                stats, 0.5, lambda p: 0 if p <= 0.5 else math.inf)
        assert chk.target == 0.5 and chk.rhs_bits == 0.0
        assert chk.pumped_rhs == 0.0 and chk.pumped_holds
        assert bell.nonlinear_bell_check(stats, 0.5) == chk

    def test_flag_success_past_one_is_clipped(self):
        # An always-correct protocol's flagged success can sum to 1 + 1
        # ulp, which the oracle refused, even at a target of 1 + 1 ulp.
        truth = xor_truth()
        over = bell.OneWayStats(p_a=0.5, p_b=1.0000000000000002, truth=truth)
        exact = bell.OneWayStats(p_a=0.5, p_b=1.0, truth=truth)
        for delta in (0.25, 1e-300):
            assert bell.nonlinear_bell_check(over, delta) == \
                bell.nonlinear_bell_check(exact, delta)

    def test_deterministic_boxes_hold(self):
        # Every deterministic flag box on the two-input XOR scenario
        # satisfies the rigorous inequality on the whole delta grid.
        truth = xor_truth()
        deltas = (0.5, 0.25, 1.0 / 16.0, 1.0 / 256.0)
        for a_bits in range(4):
            amap = [(a_bits >> x) & 1 for x in range(2)]
            p_a = sum(truth.mu[x, y] for x in range(2) for y in range(2)
                      if amap[x])
            for b_bits in range(4):
                bmap = [(b_bits >> y) & 1 for y in range(2)]
                if p_a > 0:
                    p_b = sum(
                        truth.mu[x, y]
                        for x in range(2) for y in range(2)
                        if amap[x] and bmap[y] == truth.f[x, y]) / p_a
                else:
                    p_b = 0.5
                stats = bell.OneWayStats(p_a=float(p_a), p_b=float(p_b),
                                         truth=truth)
                for delta in deltas:
                    assert bell.nonlinear_bell_check(stats, delta).holds

    def test_observation_bound_qrac(self):
        _, stats = bell.one_way_correlations(qrac_ml())
        # Vacuous (negative) at this scale; the value itself is frozen.
        bound = bell.observation_bound(stats.p_b, stats.truth)
        assert bound == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(ValueError):
            bell.observation_bound(1.2, stats.truth)

    def test_observation_bound_clips_rounding(self):
        # An always-correct protocol's success can sum to 1 + 1 ulp.  Like
        # `OneWayStats`, the bound grants 1e-12 past [0, 1] and clips.
        truth = xor_truth()
        assert bell.observation_bound(1.0000000000000002, truth) == \
            bell.observation_bound(1.0, truth)
        assert bell.observation_bound(-1e-13, truth) == \
            bell.observation_bound(0.0, truth)
        for bad in (1.0 + 1e-11, -1e-11, math.nan):
            with pytest.raises(ValueError, match="outside"):
                bell.observation_bound(bad, truth)


class TestOneWayLinearBell:
    def test_k1_frozen(self):
        table, stats = bell.one_way_correlations(qrac_ml())
        rep = bell.one_way_linear_bell(table, stats, k=1.0)
        assert rep.bell_value == pytest.approx(0.7651650429449554,
                                               abs=1e-10)
        assert rep.classical_delta == pytest.approx(0.5, abs=1e-12)
        assert rep.budget_bits == 2.0
        assert rep.meta["instances"] == 2
        assert rep.ratio == pytest.approx(
            (rep.bell_value - 0.5) / 0.5, abs=1e-12)

    def test_k2_frozen(self):
        table, stats = bell.one_way_correlations(qrac_ml())
        rep = bell.one_way_linear_bell(table, stats, k=2.0)
        assert rep.bell_value == pytest.approx(0.8314563036811942,
                                               abs=1e-10)
        assert rep.budget_bits == 3.0
        assert rep.meta["instances"] == 4

    def test_budget_read_from_given_oracle(self):
        table, stats = bell.one_way_correlations(qrac_ml())
        asked = []

        class Fixed:
            def success(self, bits):
                asked.append(bits)
                return 0.75

        rep = bell.one_way_linear_bell(table, stats, k=1.0, oracle=Fixed())
        assert asked == [2]
        assert rep.classical_delta == 0.25
        shared = bell.one_way_linear_bell(
            table, stats, k=1.0, oracle=BudgetOracle(stats.truth))
        assert shared == bell.one_way_linear_bell(table, stats, k=1.0)

    def test_value_grows_with_merging(self):
        table, stats = bell.one_way_correlations(qrac_ml())
        reps = [bell.one_way_linear_bell(table, stats, k=k)
                for k in (1.0, 2.0, 5.0)]
        values = [rep.bell_value for rep in reps]
        assert values[0] < values[1] < values[2] <= 1.0 + 1e-12
        assert [rep.meta["instances"] for rep in reps] == [
            batch_size(k, stats.p_a) for k in (1.0, 2.0, 5.0)]

    def test_validation(self):
        table, stats = bell.one_way_correlations(qrac_ml())
        with pytest.raises(ValueError):
            bell.one_way_linear_bell(table, stats, k=0.5)
        ml = qrac_ml()
        s = bell.PortSchedule.for_protocol(ml, (2,))
        path_table = bell.generate_correlations(ml, s)
        with pytest.raises(ValueError):
            bell.one_way_linear_bell(path_table, stats, k=1.0)


class TestRatioForms:
    def test_violation_ratio(self):
        assert bell.violation_ratio(1.0 / 6.0, 1.0 / 6.0) == 1.0
        assert bell.violation_ratio(0.3, 0.0) == math.inf
        with pytest.raises(ValueError):
            bell.violation_ratio(0.3, -0.1)

    def test_budget_ratio_bound(self):
        assert bell.ratio_lower_bound(108.0, 1.0) \
            == pytest.approx(1.0, abs=1e-12)
        expected = math.sqrt(50.0 / 3.0) / (6.0 * math.sqrt(3.0))
        assert bell.ratio_lower_bound(50.0, 3.0) \
            == pytest.approx(expected, abs=1e-15)
        with pytest.raises(ValueError):
            bell.ratio_lower_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            bell.ratio_lower_bound(1.0, 0.0)

    def test_margin_ratio_bound(self):
        assert bell.margin_ratio_lower_bound(1.0 / 6.0) \
            == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            bell.margin_ratio_lower_bound(0.0)
        with pytest.raises(ValueError):
            bell.margin_ratio_lower_bound(0.6)

    def test_asymptotic_closed_forms(self):
        assert bell.asymptotic_ratio_one_way(1024.0) \
            == pytest.approx(0.2242731787930642, abs=1e-12)
        assert bell.asymptotic_ratio_two_way(1024.0) \
            == pytest.approx(0.0375326175156079, abs=1e-12)
        for n in (4.0, 64.0, 1024.0):
            direct = 0.5 * (1.0 - 1.0 / n) / math.sqrt(
                5.0 * math.log2(n) / (2.0 * n ** (1.0 / 3.0)))
            assert bell.asymptotic_ratio_one_way(n, c=2.0) \
                == pytest.approx(direct, abs=1e-15)
            direct = 0.5 * (1.0 - 1.0 / n) ** 2 / math.sqrt(
                2.0 * 10.0 * math.log2(n) ** 2 / n ** 0.25)
            assert bell.asymptotic_ratio_two_way(n, c=2.0) \
                == pytest.approx(direct, abs=1e-15)
        with pytest.raises(ValueError):
            bell.asymptotic_ratio_one_way(1.0)
        with pytest.raises(ValueError):
            bell.asymptotic_ratio_two_way(16.0, c=0.0)

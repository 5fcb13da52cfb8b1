"""Tests for port-based teleportation: PGM, execution, fidelity."""

import math
import time
import tracemalloc
import types

import numpy as np
import pytest

from bellforge.states import (
    CapExceededError,
    InvariantError,
    Povm,
    _sym,
    check_povm_orbit,
    max_entangled,
    psd_sqrt,
    random_density,
)
import bellforge.teleport as tp
from bellforge.teleport import (
    build_pbt_povm,
    depolarizing_parameter,
    entanglement_fidelity,
)
import pbt_reference as ref

# Exact outcome-averaged fidelities, frozen from a full branch enumeration.
# The d=2 values land on recognizable closed forms for small N: 1/4,
# (2+sqrt(3))/8, 5/8.
FIDELITY_FIXTURES = {
    (1, 2): 0.25,
    (2, 2): 0.466506350946110,
    (3, 2): 0.625,
    (4, 2): 0.732838894363083,
    (5, 2): 0.803860462684472,
    (6, 2): 0.850222411777175,
    (7, 2): 0.880736059125824,
    (8, 2): 0.901258535738439,
    (1, 3): 1.0 / 9.0,
    (2, 3): 0.215867671286896,
    (3, 3): 0.313984449717477,
}


# The dense measurement sizes the builds are compared over.
POVM_CASES = ([(N, 2) for N in range(1, 9)]
              + [(N, 3) for N in range(1, 6)]
              + [(N, 4) for N in range(1, 4)])


def _elements(meas):
    """E_1..E_N of a built measurement."""
    return [meas.element(z) for z in range(1, meas.N + 1)]


# ------------------------------------------------------------- measurement

def test_povm_single_port_is_identity():
    meas = build_pbt_povm(1, 2)
    assert all(len(swaps) == 1 for _, _, swaps in meas.sectors)
    assert np.allclose(meas.element(1), np.eye(4), atol=1e-9)


@pytest.mark.parametrize("N,d", [(N, 2) for N in range(1, 9)]
                         + [(N, 3) for N in range(1, 4)])
def test_povm_complete_and_positive(N, d):
    meas = build_pbt_povm(N, d)
    dim = d ** (N + 1)
    total = np.zeros((dim, dim), dtype=complex)
    for z in range(1, N + 1):
        e = meas.element(z)
        total = total + e
        assert np.linalg.eigvalsh(_sym(e)).min() >= -1e-10
    assert np.max(np.abs(total - np.eye(dim))) <= 1e-9


def _swap_matrix(N, d, i):
    """The permutation matrix exchanging registers A_1 and A_i of
    A_0 A_1 .. A_N, built from the digits of every basis index."""
    digits = np.indices((d,) * (N + 1)).reshape(N + 1, -1)
    digits[[1, i]] = digits[[i, 1]]
    swap = np.zeros((d ** (N + 1),) * 2)
    swap[np.ravel_multi_index(tuple(digits), (d,) * (N + 1)),
         np.arange(d ** (N + 1))] = 1.0
    return swap


@pytest.mark.parametrize("N,d", POVM_CASES)
def test_povm_matches_direct_complex_build(N, d):
    meas = build_pbt_povm(N, d)
    sigs, element = ref.pbt_povm(N, d, np.complex128)
    assert all(len(swaps) == N for _, _, swaps in meas.sectors)
    # sigma_1 in real arithmetic, moved to port i by the swap matrix, is
    # that port's signal operator.
    phi = max_entangled(d).amplitudes.real
    rest = d ** (N - 1)
    sig1 = np.kron(np.outer(phi, phi), np.eye(rest)) / rest
    for i, want in enumerate(sigs, start=1):
        v = _swap_matrix(N, d, i)
        assert np.max(np.abs(v @ sig1 @ v.T - want)) <= 1e-12
    for idx, block, swaps in meas.sectors:
        assert block.dtype == np.float64
        assert not block.flags.writeable
        assert not idx.flags.writeable
        assert all(not q.flags.writeable for q in swaps)
    for z in range(1, N + 1):
        assert np.max(np.abs(meas.element(z) - element(z))) <= 1e-12


@pytest.mark.parametrize("N,d", [(8, 2), (5, 3), (3, 4)])
def test_swap_ports_matches_transpose(N, d):
    rng = np.random.default_rng(N * d)
    dim = d ** (N + 1)
    m = rng.normal(size=(dim, dim))
    perms = ref.port_swaps(N, d)
    assert len(perms) == N
    for i, p in enumerate(perms, start=1):
        assert np.array_equal(m[np.ix_(p, p)],
                              ref.swap_ports(m, N, d, i))
    # Each sector's swaps, read off its index digits, are the reference
    # permutations restricted to the sector, as positions within it.
    for idx in tp._charge_sectors(N, d):
        local = tp._sector_swaps(N, d, idx)
        assert len(local) == N
        for q, p in zip(local, perms):
            assert np.array_equal(idx[q], p[idx])


@pytest.mark.parametrize("N,d", POVM_CASES)
def test_povm_orbit_matches_per_element_check(N, d):
    # The orbit check of the whole E_1 against the full check of every
    # element, each image formed independently by a transpose.  Formed
    # elements and the completeness sum agree bit for bit, also with the
    # sums the build checked sector by sector.  The orbit's min_eigenvalue
    # is E_1's; the minimum over all N elements, and over E_1's sectors,
    # differs from it only by eigensolver rounding, bounded by dim * eps
    # for elements of norm at most 1.
    meas = build_pbt_povm(N, d)
    first = meas.element(1)
    least, dev = check_povm_orbit(first, ref.port_swaps(N, d),
                                  atol=tp.ATOL_PBT_POVM)
    dim = d ** (N + 1)
    eps = np.finfo(float).eps
    assert dev == meas.completeness_dev
    assert abs(least - meas.min_eigenvalue) <= dim * eps
    slow = Povm([ref.swap_ports(first, N, d, i) for i in range(1, N + 1)])
    assert len(slow) == N
    for z, want in enumerate(slow.elements, start=1):
        assert meas.element(z).tobytes() == want.real.tobytes()
    assert dev == slow.completeness_dev
    assert least == float(np.linalg.eigvalsh(_sym(first)).min())
    assert slow.min_eigenvalue <= least
    assert least - slow.min_eigenvalue <= dim * eps


def test_measurement_keeps_no_dense_array():
    meas = build_pbt_povm(4, 2)
    assert not [k for k, v in vars(meas).items()
                if isinstance(v, np.ndarray)]
    dim = 2 ** 5
    assert sum(len(idx) for idx, _, _ in meas.sectors) == dim
    assert meas.element(1).shape == (dim, dim)
    for z in (0, 5):
        with pytest.raises(IndexError, match="outside 1..4"):
            meas.element(z)


def _spy_eigensolvers(monkeypatch):
    """(name, shape) of every later eigh and eigvalsh call, in order."""
    calls = []

    def spy(fn):
        def wrapped(m, *args, **kwargs):
            calls.append((fn.__name__, m.shape))
            return fn(m, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))
    return calls


@pytest.mark.parametrize("N,d", [(4, 2), (3, 3), (8, 2)])
def test_sector_build_checks_one_spectrum_per_sector(N, d, monkeypatch):
    sizes = [len(idx) for idx in tp._charge_sectors(N, d)]
    calls = _spy_eigensolvers(monkeypatch)
    build_pbt_povm(N, d)
    dim = d ** (N + 1)
    # One sector at a time: its S block, then its E_1 block's element
    # check.
    assert calls == [(name, (n, n)) for n in sizes
                     for name in ("eigh", "eigvalsh")]
    assert len(sizes) > 1
    assert all(shape != (dim, dim) for _, shape in calls)


def _charges(N, d):
    """The charge of every basis index of (A_0, A_1..A_N), one row per
    index: for level k, [a_0 = k] minus the number of ports at k."""
    digits = np.indices((d,) * (N + 1)).reshape(N + 1, -1)
    hits = digits == np.arange(d)[:, None, None]  # (level, register, index)
    return (hits[:, 0].astype(int) - hits[:, 1:].sum(axis=1)).T


@pytest.mark.parametrize("N,d", POVM_CASES)
def test_charge_sectors_block_the_measurement(N, d):
    sectors = tp._charge_sectors(N, d)
    dim = d ** (N + 1)
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(dim))
    label = np.empty(dim, dtype=int)
    for k, idx in enumerate(sectors):
        label[idx] = k
    # One charge per sector, a different one in every sector.
    charges = _charges(N, d)
    firsts = [charges[idx[0]] for idx in sectors]
    for idx, first in zip(sectors, firsts):
        assert (charges[idx] == first).all()
    assert len({c.tobytes() for c in firsts}) == len(sectors)
    for p in ref.port_swaps(N, d):
        assert np.array_equal(label[p], label)
    across = label[:, None] != label
    e1 = ref.pbt_povm(N, d)[1](1)
    assert np.abs(e1[across]).max(initial=0.0) <= 1e-15


@pytest.mark.parametrize("N,d", POVM_CASES)
def test_signal_sum_spectrum_has_closed_form_top_and_gap(N, d):
    # The build's support cutoff is PINV_CUTOFF times (N+d-1)/d^N, so that
    # must be S's largest eigenvalue, and every other eigenvalue must be
    # round-off or far above the cutoff.
    sigs, _ = ref.pbt_povm(N, d)
    w = np.linalg.eigvalsh(sum(sigs))
    top = (N + d - 1) / d ** N
    assert abs(w.max() - top) <= 1e-12 * top
    assert ((w < 1e-14 * top) | (w > 1e-3 * top)).all()


@pytest.mark.parametrize("N,d", POVM_CASES + [(9, 2)])
def test_sector_build_matches_dense_reference(N, d):
    # The reference's margins are those of its E_1's orbit: E_1's least
    # eigenvalue, and the completeness of its N port-swapped images.
    got = build_pbt_povm(N, d)
    want = ref.pbt_povm(N, d)[1](1)
    assert np.max(np.abs(got.element(1) - want)) <= 1e-12
    images = [ref.swap_ports(want, N, d, i) for i in range(1, N + 1)]
    dev = np.max(np.abs(sum(images) - np.eye(d ** (N + 1))))
    assert abs(got.completeness_dev - dev) <= 1e-12
    least = np.linalg.eigvalsh(want).min()
    assert abs(got.min_eigenvalue - least) <= (
        d ** (N + 1) * np.finfo(float).eps)


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (2, 3)])
def test_povm_port_permutation_covariance(N, d):
    meas = build_pbt_povm(N, d)
    for z in range(2, N + 1):
        v = _swap_matrix(N, d, z)
        moved = v @ meas.element(1) @ v.T
        assert np.max(np.abs(moved - meas.element(z))) <= 1e-9


def test_povm_cap():
    with pytest.raises(CapExceededError):
        build_pbt_povm(20, 2)  # 2^21 measurement dimension


def test_build_peak_stays_below_dense_element():
    # The sectors are the measurement: the build's traced peak stays below
    # the d^(2N+2) float64 entries of a dense E_1 (36.5 MiB at (6, 3)).
    # Past the blocks it keeps, the build holds one sector's working
    # arrays at a time: below 13 float64 copies of the largest sector
    # (about 9 measured), where holding every sector's sigma_1 block and
    # eigenvectors until all spectra are known took about 18.
    build_pbt_povm(2, 3)  # imports and first-call caches outside the trace
    tracemalloc.start()
    try:
        meas = build_pbt_povm(6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 ** 14 * 8
    assert len(meas.sectors) > 1
    kept = sum(a.nbytes for idx, block, swaps in meas.sectors
               for a in (idx, block, *swaps))
    largest = max(len(idx) for idx, _, _ in meas.sectors)
    assert largest == 210
    assert peak - kept < 13 * largest ** 2 * 8


# ------------------------------------------------------------- teleport

def test_single_port_output_is_maximally_mixed():
    # With one port the measurement is the identity, so the receiver just
    # holds an untouched half of a pair regardless of the input.
    meas = build_pbt_povm(1, 2)
    rng = np.random.default_rng(0)
    for mat in (np.diag([1.0, 0.0]), random_density(2, rng)):
        [(prob, out)] = ref.outputs(mat, _elements(meas))
        assert prob == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-10)


def test_branches_match_direct_density_matrix_path():
    # Independent oracle: form the full joint density matrix, apply each
    # measurement element by Lueders update, partial-trace to the selected
    # port.  The branch reference (purification, one root per element,
    # axis reshuffling) must reproduce it exactly.
    rng = np.random.default_rng(1)
    for N, d in ((2, 2), (1, 3)):
        meas = build_pbt_povm(N, d)
        rho = random_density(d, rng)
        pairs = ref.pairs(N, d).reshape(-1)
        # Registers A0, A1..AN, B1..BN in kron order.
        joint = np.kron(rho, np.outer(pairs, pairs.conj()))
        n = 2 * N + 1
        branches = ref.outputs(rho, _elements(meas))
        for z in range(1, N + 1):
            e_full = np.kron(meas.element(z), np.eye(d ** N))
            p_direct = float(np.einsum("ij,ji->", e_full, joint).real)
            root = psd_sqrt(e_full)
            post = root @ joint @ root / p_direct
            post = _sym(post) / np.trace(post).real
            keep = N + z
            cols = [n + k if k == keep else k for k in range(n)]
            out_direct = np.einsum(
                post.reshape((d,) * (2 * n)), list(range(n)) + cols,
                [keep, n + keep])
            p_branch, out_branch = branches[z - 1]
            assert abs(p_branch - p_direct) < 1e-10
            assert np.max(np.abs(out_branch - out_direct)) < 1e-10


def test_branch_probabilities_sum_to_one_and_outputs_normalized():
    rng = np.random.default_rng(2)
    for N, d in ((2, 2), (4, 2), (2, 3)):
        meas = build_pbt_povm(N, d)
        branches = ref.outputs(random_density(d, rng), _elements(meas))
        assert abs(sum(p for p, _ in branches) - 1.0) < 1e-10
        for _, out in branches:
            assert abs(np.trace(out).real - 1.0) < 1e-10


def test_eight_port_teleport_beats_half_fidelity_on_basis_state():
    meas = build_pbt_povm(8, 2)
    branches = ref.outputs(np.diag([1.0, 0.0]), _elements(meas))
    avg = sum(p * out[0, 0].real for p, out in branches)
    assert avg >= 0.5


DENSE_BRANCH_CASES = ([(N, 2) for N in range(1, 8)]
                      + [(N, 3) for N in range(1, 5)]
                      + [(N, 4) for N in range(1, 3)])


@pytest.mark.parametrize("N,d", DENSE_BRANCH_CASES)
def test_branches_match_per_element_roots(N, d):
    # The outcome branches of the sector build against those of the
    # reference measurement, both by one square root per element, and the
    # sector build's branch fidelity against the closed form.
    got = _elements(build_pbt_povm(N, d))
    _, element = ref.pbt_povm(N, d)
    want = [element(z) for z in range(1, N + 1)]
    rho = random_density(d, np.random.default_rng(100 * N + d))
    for (p_got, out_got), (p_want, out_want) in zip(
            ref.outputs(rho, got), ref.outputs(rho, want)):
        assert abs(p_got - p_want) <= 1e-12
        assert np.max(np.abs(out_got - out_want)) <= 1e-12
    phi = max_entangled(d).amplitudes
    fid = sum(float(np.real(phi.conj() @ raw @ phi)) for _, raw in
              ref.branches(phi.reshape(d, d), got, True))
    assert entanglement_fidelity(N, d) == pytest.approx(fid, abs=1e-12)


def test_pair_caps_and_argument_validation():
    # Input, reference and the N pairs span d^(2N+2) = 2^22 at N=10, past
    # the fidelity's cap.
    with pytest.raises(CapExceededError, match="= 4194304 exceeds"):
        entanglement_fidelity(10, 2)
    with pytest.raises(ValueError, match="port count N=0 must be >= 1"):
        build_pbt_povm(0, 2)
    with pytest.raises(ValueError, match="port dimension d=1 must be >= 2"):
        build_pbt_povm(1, 1)


@pytest.mark.parametrize("N,d", [(0, 2), (-2, 0), (-3, 0), (2, 0), (1, 1),
                                 (-1, 2), (3, -2)])
def test_fidelity_checks_ports_before_the_cap(N, d):
    # The cap's power d^(2N+2) divides by zero at d = 0 and N < -1, so the
    # port check must come first.
    with pytest.raises(ValueError, match="must be >= "):
        entanglement_fidelity(N, d)


@pytest.mark.parametrize("N,d", [(2, 2.5), (True, 2), (2, True), (2.5, 2),
                                 (3.0, 2), (2, 2.0), ("2", 2), (None, 2)])
def test_fidelity_refuses_non_integer_ports(N, d):
    # A non-integer dimension used to yield a number, and a float port
    # count a TypeError from range().  The cached depolarizing parameter
    # must not answer from the entry of an equal integer, here (2, 2).
    depolarizing_parameter(2, 2)
    for fidelity_of in (entanglement_fidelity, depolarizing_parameter):
        with pytest.raises(ValueError, match="must be integers"):
            fidelity_of(N, d)


def test_fidelity_accepts_numpy_integers():
    assert entanglement_fidelity(np.int64(2), np.int32(2)) == \
        entanglement_fidelity(2, 2)


# ---------------------------------------------------------------- fidelity

def test_entanglement_fidelity_single_port_exact():
    assert entanglement_fidelity(1, 2) == pytest.approx(0.25, abs=1e-12)
    assert entanglement_fidelity(1, 3) == pytest.approx(1 / 9, abs=1e-12)


@pytest.mark.parametrize("N,d", sorted(FIDELITY_FIXTURES))
def test_entanglement_fidelity_regression_fixtures(N, d):
    assert entanglement_fidelity(N, d) == pytest.approx(
        FIDELITY_FIXTURES[(N, d)], abs=1e-9)


def test_entanglement_fidelity_monotone_in_port_count():
    vals = [FIDELITY_FIXTURES[(N, 2)] for N in (2, 4, 6, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_entanglement_fidelity_meets_inverse_port_bound():
    for N in (5, 6, 7, 8):
        assert FIDELITY_FIXTURES[(N, 2)] >= 1 - 4 / N


def pbt_fidelity_qubit(n: int) -> float:
    """Ishizaka-Hiroshima closed form for d = 2 and n ports (PRL 101,
    240501, 2008)."""
    total = 0.0
    for k in range(n + 1):
        term = ((n - 2 * k - 1) / math.sqrt(k + 1)
                + (n - 2 * k + 1) / math.sqrt(n - k + 1))
        total += math.comb(n, k) * term * term
    return total / 2 ** (n + 3)


@pytest.mark.parametrize("N,d", [(N, 2) for N in range(1, 8)]
                         + [(N, 3) for N in range(1, 5)]
                         + [(N, 4) for N in range(1, 4)]
                         + [(N, 8) for N in range(1, 3)])
def test_closed_form_matches_dense_reference(N, d):
    assert entanglement_fidelity(N, d) == pytest.approx(
        ref.entanglement_fidelity(N, d), abs=1e-12)


@pytest.mark.parametrize("N", range(1, 10))
def test_closed_form_matches_qubit_formula(N):
    assert entanglement_fidelity(N, 2) == pytest.approx(
        pbt_fidelity_qubit(N), abs=1e-12)


def test_closed_form_builds_no_measurement(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense port-teleportation path reached")

    for name in ("build_pbt_povm", "_sector_swaps", "_charge_sectors"):
        monkeypatch.setattr(tp, name, refuse)
    assert entanglement_fidelity(9, 2) == pytest.approx(
        pbt_fidelity_qubit(9), abs=1e-12)
    assert depolarizing_parameter.__wrapped__(8, 2) == pytest.approx(
        (4.0 * pbt_fidelity_qubit(8) - 1.0) / 3.0, abs=1e-12)


@pytest.mark.parametrize("fidelity", [entanglement_fidelity])
def test_fidelity_argument_validation(fidelity):
    with pytest.raises(ValueError, match="port count N=0 must be >= 1"):
        fidelity(0, 2)
    with pytest.raises(ValueError, match="port dimension d=1 must be >= 2"):
        fidelity(1, 1)
    for N, d in ((2, 32), (10, 2), (4, 8), (6, 4), (6, 3)):
        with pytest.raises(CapExceededError, match=f"= {d ** (2 * N + 2)} "
                           f"exceeds 1048576"):
            fidelity(N, d)


@pytest.mark.parametrize("N,d", [(2, 32), (10, 2)])
def test_fidelity_cap_refuses_before_building(N, d):
    # d^(2N+2) is 2^30 and 2^22.  Both pass the resource and measurement
    # caps, so the refusal must come before those are built: a 32768-dim
    # measurement at (2, 32) would need 17 GB per element.
    start = time.monotonic()
    with pytest.raises(CapExceededError, match="exceeds"):
        entanglement_fidelity(N, d)
    with pytest.raises(CapExceededError, match="exceeds"):
        depolarizing_parameter(N, d)
    assert time.monotonic() - start < 1.0


def test_package_attribute_is_the_teleport_module():
    import bellforge
    assert isinstance(tp, types.ModuleType)
    assert bellforge.teleport is tp
    assert tp.entanglement_fidelity is entanglement_fidelity


def test_depolarizing_parameter_range_guard(monkeypatch):
    raw = depolarizing_parameter.__wrapped__
    for fid, lam in ((0.25, 0.0), (1.0, 1.0)):
        monkeypatch.setattr(tp, "entanglement_fidelity", lambda N, d: fid)
        assert raw(2, 2) == lam
    for fid in (0.2, 1.01):
        monkeypatch.setattr(tp, "entanglement_fidelity", lambda N, d: fid)
        with pytest.raises(InvariantError, match="outside"):
            raw(2, 2)

"""Tests for port-based teleportation: PGM, execution, fidelity."""

import functools
import math
import time
import types

import numpy as np
import pytest

from bellforge.states import (
    CapExceededError,
    InvariantError,
    MixedState,
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
    dense_entanglement_fidelity,
    dense_pbt_povm,
    depolarizing_parameter,
    entanglement_fidelity,
    teleport_branches,
)

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


def _pairs(N, d):
    """The N pairs |Phi+> on (A_i, B_i) as a d^N x d^N matrix, rows
    A_1..A_N and columns B_1..B_N: the Kronecker product of N pairs, each
    reshaped to its A x B matrix."""
    pair = max_entangled(d).amplitudes.reshape(d, d)
    return functools.reduce(np.kron, [pair] * N)


# ------------------------------------------------------------- measurement

def test_povm_single_port_is_identity():
    meas = build_pbt_povm(1, 2)
    assert len(meas.port_swaps) == 1
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


def _reference_pbt_povm(N, d):
    """(signal operators, elements) built the direct way in complex
    arithmetic: every signal operator is the pair projector on (A_0, A_1),
    moved to its own port by an explicit swap matrix, and every element is
    formed by its own product with S^(-1/2)."""
    phi = max_entangled(d).amplitudes
    rest = d ** (N - 1)
    sig1 = np.kron(np.outer(phi, phi.conj()), np.eye(rest)) / rest
    swaps = [_swap_matrix(N, d, i) for i in range(1, N + 1)]
    sigs = [v @ sig1 @ v.T for v in swaps]
    S = np.zeros_like(sigs[0])
    for sig in sigs:
        S = S + sig
    w, v = np.linalg.eigh(_sym(S))
    on_supp = w > tp.PINV_CUTOFF * w.max()
    inv_root = np.where(on_supp, 1.0 / np.sqrt(np.where(on_supp, w, 1.0)), 0.0)
    s_irt = (v * inv_root) @ v.conj().T
    p_supp = (v * on_supp.astype(float)) @ v.conj().T
    remainder = (np.eye(len(w)) - p_supp) / N
    return sigs, [_sym(s_irt @ sig @ s_irt + remainder) for sig in sigs]


@pytest.mark.parametrize("N,d", POVM_CASES)
def test_povm_matches_direct_complex_build(N, d):
    meas = build_pbt_povm(N, d)
    sigs, elems = _reference_pbt_povm(N, d)
    assert len(meas.port_swaps) == N
    # The build's sigma_1, swapped to each port, is that port's operator.
    phi = max_entangled(d).amplitudes.real
    rest = d ** (N - 1)
    sig1 = np.kron(np.outer(phi, phi), np.eye(rest)) / rest
    for i, want in enumerate(sigs, start=1):
        got = _reference_swap_ports(sig1, N, d, i)
        assert np.max(np.abs(got - want)) <= 1e-12
    assert meas.e1.dtype == np.float64
    assert not meas.e1.flags.writeable
    assert all(not p.flags.writeable for p in meas.port_swaps)
    for z, want in enumerate(elems, start=1):
        assert np.max(np.abs(meas.element(z) - want)) <= 1e-12


def _reference_swap_ports(m, N, d, i):
    """P_1i m P_1i as one transpose exchanging the A_1 and A_i axes on rows
    and columns."""
    if i == 1:
        return m
    axes = list(range(2 * (N + 1)))
    for off in (0, N + 1):
        axes[off + 1], axes[off + i] = off + i, off + 1
    return m.reshape((d,) * (2 * (N + 1))).transpose(axes).reshape(m.shape)


@pytest.mark.parametrize("N,d", [(8, 2), (5, 3), (3, 4)])
def test_swap_ports_matches_transpose(N, d):
    rng = np.random.default_rng(N * d)
    dim = d ** (N + 1)
    m = rng.normal(size=(dim, dim))
    perms = tp._port_swaps(N, d)
    assert len(perms) == N
    for i, p in enumerate(perms, start=1):
        assert np.array_equal(m[np.ix_(p, p)],
                              _reference_swap_ports(m, N, d, i))


@pytest.mark.parametrize("N,d", POVM_CASES)
def test_povm_orbit_matches_per_element_check(N, d):
    # The orbit check of E_1 against the full check of every element, each
    # image formed independently by a transpose.  Formed elements and the
    # completeness sum agree bit for bit.  The orbit's min_eigenvalue is
    # E_1's, which the reference also computes; the reference's minimum
    # over all N elements differs from it only by eigensolver rounding,
    # bounded by dim * eps for elements of norm at most 1.
    meas = dense_pbt_povm(N, d)
    first = meas.e1
    least, dev = check_povm_orbit(first, tp._port_swaps(N, d),
                                  atol=tp.ATOL_PBT_POVM)
    assert (least, dev) == (meas.min_eigenvalue, meas.completeness_dev)
    slow = Povm([_reference_swap_ports(first, N, d, i)
                 for i in range(1, N + 1)])
    assert len(slow) == N
    for z, want in enumerate(slow.elements, start=1):
        assert meas.element(z).tobytes() == want.real.tobytes()
    assert dev == slow.completeness_dev
    assert least == float(np.linalg.eigvalsh(_sym(first)).min())
    assert slow.min_eigenvalue <= least
    dim = d ** (N + 1)
    assert least - slow.min_eigenvalue <= dim * np.finfo(float).eps


def test_measurement_stores_one_element():
    meas = build_pbt_povm(4, 2)
    square = [k for k, v in vars(meas).items()
              if isinstance(v, np.ndarray) and v.ndim == 2]
    assert square == ["e1"]
    assert np.array_equal(meas.element(1), meas.e1)
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


@pytest.mark.parametrize("N,d", [(4, 2), (3, 3)])
def test_povm_build_checks_one_spectrum_per_orbit(N, d, monkeypatch):
    calls = _spy_eigensolvers(monkeypatch)
    dense_pbt_povm(N, d)
    dim = d ** (N + 1)
    # S, and E_1's element check.
    assert calls == [("eigh", (dim, dim)), ("eigvalsh", (dim, dim))]


@pytest.mark.parametrize("N,d", [(4, 2), (3, 3), (8, 2)])
def test_sector_build_checks_one_spectrum_per_sector(N, d, monkeypatch):
    sizes = [len(idx) for idx in tp._charge_sectors(N, d)]
    calls = _spy_eigensolvers(monkeypatch)
    build_pbt_povm(N, d)
    dim = d ** (N + 1)
    # Every S block, then every E_1 block's element check.
    assert calls == ([("eigh", (n, n)) for n in sizes]
                     + [("eigvalsh", (n, n)) for n in sizes])
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
    for p in tp._port_swaps(N, d):
        assert np.array_equal(label[p], label)
    across = label[:, None] != label
    e1 = dense_pbt_povm(N, d).e1
    assert np.abs(e1[across]).max(initial=0.0) <= 1e-15


@pytest.mark.parametrize("N,d", POVM_CASES + [(9, 2)])
def test_sector_build_matches_dense_reference(N, d):
    got, want = build_pbt_povm(N, d), dense_pbt_povm(N, d)
    assert np.max(np.abs(got.e1 - want.e1)) <= 1e-12
    assert abs(got.completeness_dev - want.completeness_dev) <= 1e-12
    assert abs(got.min_eigenvalue - want.min_eigenvalue) <= (
        d ** (N + 1) * np.finfo(float).eps)
    assert all(np.array_equal(a, b)
               for a, b in zip(got.port_swaps, want.port_swaps))


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (2, 3)])
def test_povm_port_permutation_covariance(N, d):
    meas = build_pbt_povm(N, d)
    for z in range(2, N + 1):
        v = _swap_matrix(N, d, z)
        moved = v @ meas.e1 @ v.T
        assert np.max(np.abs(moved - meas.element(z))) <= 1e-9


def test_povm_cap():
    with pytest.raises(CapExceededError):
        build_pbt_povm(20, 2)  # 2^21 measurement dimension


# ------------------------------------------------------------- teleport

def test_single_port_output_is_maximally_mixed():
    # With one port the measurement is the identity, so the receiver just
    # holds an untouched half of a pair regardless of the input.
    meas = build_pbt_povm(1, 2)
    rng = np.random.default_rng(0)
    for mat in (np.diag([1.0, 0.0]), random_density(2, rng)):
        inp = MixedState(mat)
        [(prob, out)] = teleport_branches(inp, meas)
        assert prob == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-10)


def test_branches_match_direct_density_matrix_path():
    # Independent oracle: form the full joint density matrix, apply each
    # measurement element by Lueders update, partial-trace to the selected
    # port.  The production path (purification + axis reshuffling) must
    # reproduce it exactly.
    rng = np.random.default_rng(1)
    for N, d in ((2, 2), (1, 3)):
        meas = build_pbt_povm(N, d)
        inp = MixedState(random_density(d, rng))
        pairs = _pairs(N, d).reshape(-1)
        # Registers A0, A1..AN, B1..BN in kron order.
        joint = np.kron(inp.matrix, np.outer(pairs, pairs.conj()))
        n = 2 * N + 1
        branches = teleport_branches(inp, meas)
        for z in range(1, N + 1):
            e_full = np.kron(meas.element(z), np.eye(d ** N))
            p_direct = float(np.einsum("ij,ji->", e_full, joint).real)
            root = psd_sqrt(e_full)
            post = root @ joint @ root / p_direct
            post = MixedState(_sym(post) / np.trace(post).real)
            keep = N + z
            cols = [n + k if k == keep else k for k in range(n)]
            out_direct = MixedState(np.einsum(
                post.matrix.reshape((d,) * (2 * n)), list(range(n)) + cols,
                [keep, n + keep]))
            p_branch, out_branch = branches[z - 1]
            assert abs(p_branch - p_direct) < 1e-10
            assert np.max(np.abs(out_branch.matrix - out_direct.matrix)) < 1e-10


def test_branch_probabilities_sum_to_one_and_outputs_normalized():
    rng = np.random.default_rng(2)
    for N, d in ((2, 2), (4, 2), (2, 3)):
        meas = build_pbt_povm(N, d)
        inp = MixedState(random_density(d, rng))
        branches = teleport_branches(inp, meas)
        assert abs(sum(p for p, _ in branches) - 1.0) < 1e-10
        for _, out in branches:
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-10


def test_eight_port_teleport_beats_half_fidelity_on_basis_state():
    meas = build_pbt_povm(8, 2)
    inp = MixedState(np.diag([1.0, 0.0]))
    branches = teleport_branches(inp, meas)
    avg = sum(p * out.matrix[0, 0].real for p, out in branches)
    assert avg >= 0.5


def _reference_branches(psi_in, meas, with_reference):
    """(probability, unnormalized reduced matrix) per outcome, the direct
    way: one square root per element applied to the joint tensor, then the
    unselected axes traced out by a transpose."""
    N, d = meas.N, meas.d
    dn = d ** N
    res2 = _pairs(N, d)
    joint = np.einsum("ra,xb->raxb", psi_in, res2)
    joint = joint.reshape(psi_in.shape[0], d * dn, dn)
    out = []
    for z in range(1, N + 1):
        branch = np.matmul(psd_sqrt(meas.element(z)), joint)
        branch = branch.reshape((psi_in.shape[0], d * dn) + (d,) * N)
        keep = ([0] if with_reference else []) + [1 + z]
        rest = [a for a in range(branch.ndim) if a not in keep]
        keep_dim = math.prod(branch.shape[a] for a in keep)
        m = branch.transpose(keep + rest).reshape(keep_dim, -1)
        out.append((float(np.vdot(m, m).real), m @ m.conj().T))
    return out


DENSE_BRANCH_CASES = ([(N, 2) for N in range(1, 8)]
                      + [(N, 3) for N in range(1, 5)]
                      + [(N, 4) for N in range(1, 3)])


@pytest.mark.parametrize("N,d", DENSE_BRANCH_CASES)
def test_branches_match_per_element_roots(N, d):
    meas = build_pbt_povm(N, d)
    rng = np.random.default_rng(100 * N + d)
    inp = MixedState(random_density(d, rng))
    want = _reference_branches(tp._purify(inp), meas, False)
    for (p_got, out), (p_want, raw) in zip(teleport_branches(inp, meas),
                                           want):
        assert abs(p_got - p_want) <= 1e-12
        rho = _sym(raw / p_want)
        rho = rho / np.trace(rho).real
        assert np.max(np.abs(out.matrix - rho)) <= 1e-12
    phi = max_entangled(d).amplitudes
    fid = sum(float(np.real(phi.conj() @ raw @ phi)) for _, raw in
              _reference_branches(phi.reshape(d, d), meas, True))
    assert dense_entanglement_fidelity(N, d) == pytest.approx(fid, abs=1e-12)


def test_branches_take_one_square_root(monkeypatch):
    calls = []

    def spy(m):
        calls.append(m.shape)
        return psd_sqrt(m)

    monkeypatch.setattr(tp, "psd_sqrt", spy)
    meas = build_pbt_povm(4, 2)
    inp = MixedState(random_density(2, np.random.default_rng(3)))
    teleport_branches(inp, meas)
    assert calls == [(32, 32)]
    calls.clear()
    dense_entanglement_fidelity(3, 3)
    assert calls == [(81, 81)]


@pytest.mark.parametrize("d_in,meas_nd", [(2, (2, 3)), (3, (2, 2)),
                                          (4, (1, 2))])
def test_input_and_measurement_must_agree(d_in, meas_nd):
    meas = build_pbt_povm(*meas_nd)
    inp = MixedState(np.eye(d_in) / d_in)
    msg = f"input dimension {d_in} != port dim {meas.d}"
    with pytest.raises(ValueError, match=msg):
        teleport_branches(inp, meas)


def test_pair_caps_and_argument_validation():
    # The branch reference forms the pairs only after its cap check, so
    # the d^(2N) = 2^20 pair amplitudes at N=10 are never allocated.  The
    # measurement is never read before that check either.
    meas = tp.PbtMeasurement(N=10, d=2, e1=np.eye(1), port_swaps=(),
                             min_eigenvalue=1.0, completeness_dev=0.0)
    inp = MixedState(np.eye(2) / 2)
    with pytest.raises(CapExceededError,
                       match="purified joint dimension 4194304 exceeds"):
        teleport_branches(inp, meas)
    with pytest.raises(ValueError, match="port count N=0 must be >= 1"):
        build_pbt_povm(0, 2)
    with pytest.raises(ValueError, match="port dimension d=1 must be >= 2"):
        build_pbt_povm(1, 1)


@pytest.mark.parametrize("N,d", [(0, 2), (-2, 0), (-3, 0), (2, 0), (1, 1),
                                 (-1, 2), (3, -2)])
def test_fidelity_checks_ports_before_the_cap(N, d):
    # The cap's power d^(2N+2) divides by zero at d = 0 and N < -1, so the
    # port check must come first.
    for fidelity_of in (entanglement_fidelity, dense_entanglement_fidelity):
        with pytest.raises(ValueError, match="must be >= "):
            fidelity_of(N, d)


@pytest.mark.parametrize("N,d", [(2, 2.5), (True, 2), (2, True), (2.5, 2),
                                 (3.0, 2), (2, 2.0), ("2", 2), (None, 2)])
def test_fidelity_refuses_non_integer_ports(N, d):
    # A non-integer dimension used to yield a number, and a float port
    # count a TypeError from range().  The cached depolarizing parameter
    # must not answer from the entry of an equal integer, here (2, 2).
    depolarizing_parameter(2, 2)
    for fidelity_of in (entanglement_fidelity, dense_entanglement_fidelity,
                        depolarizing_parameter):
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
        dense_entanglement_fidelity(N, d), abs=1e-12)


@pytest.mark.parametrize("N", range(1, 10))
def test_closed_form_matches_qubit_formula(N):
    assert entanglement_fidelity(N, 2) == pytest.approx(
        pbt_fidelity_qubit(N), abs=1e-12)


def test_closed_form_builds_no_measurement(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense port-teleportation path reached")

    monkeypatch.setattr(tp, "build_pbt_povm", refuse)
    monkeypatch.setattr(tp, "dense_pbt_povm", refuse)
    monkeypatch.setattr(tp, "_branches", refuse)
    assert entanglement_fidelity(9, 2) == pytest.approx(
        pbt_fidelity_qubit(9), abs=1e-12)
    assert depolarizing_parameter.__wrapped__(8, 2) == pytest.approx(
        (4.0 * pbt_fidelity_qubit(8) - 1.0) / 3.0, abs=1e-12)


@pytest.mark.parametrize("fidelity",
                         [entanglement_fidelity, dense_entanglement_fidelity])
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

"""Tests for the dense state engine: states, POVMs, the register machine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellforge.states import (
    MAX_TOTAL_DIM,
    CapExceededError,
    InvariantError,
    MixedState,
    Povm,
    PureState,
    check_povm_orbit,
    fidelity,
    max_entangled,
    psd_sqrt,
    random_density,
    random_unitary,
    _RegisterMachine,
    _check_unitary,
)


def ket(*amps):
    v = np.asarray(amps, dtype=np.complex128)
    return v / np.linalg.norm(v)


QUBIT = [("Q", 2)]
PAIR = [("A", 2), ("B", 2)]


def qubit_state(*amps):
    return PureState(ket(*amps))


def density(state):
    """The density matrix of a pure state."""
    v = state.amplitudes
    return MixedState(np.outer(v, v.conj()))


def loaded(state, regs):
    """A register machine holding `state` over the named registers `regs`
    ((name, dimension) pairs in kron order)."""
    data = state.amplitudes if isinstance(state, PureState) else state.matrix
    return _RegisterMachine(regs, data)


def reduced_ref(rho, dims, keep):
    """Reduced density matrix of the registers `keep` (axis numbers, in
    order) by one einsum over the traced axes."""
    n = len(dims)
    cols = [n + a if a in keep else a for a in range(n)]
    kd = int(np.prod([dims[a] for a in keep]))
    return np.einsum(rho.reshape(list(dims) * 2), list(range(n)) + cols,
                     list(keep) + [n + a for a in keep]).reshape(kd, kd)


def applied(state, regs, u, targets):
    """`u` on the named registers of `state` over `regs`, run on the
    register machine and read back in the order of `regs`."""
    reg = loaded(state, regs)
    dims = dict(regs)
    reg.apply(targets, u, [(n, dims[n]) for n in targets])
    reg._front([n for n, _ in regs])
    return reg.state


def reordered(state, regs, order):
    """The array of `state` over `regs` with its registers moved into
    `order`."""
    reg = loaded(state, regs)
    reg._front(order)
    return reg.state


# ----------------------------------------------------------------- states

def test_pure_state_norm_enforced():
    with pytest.raises(InvariantError):
        PureState(np.array([1.0, 1.0]))


def test_state_dim_is_the_array_size():
    assert PureState(ket(*range(1, 7))).dim == 6
    assert MixedState(np.eye(6) / 6).dim == 6


def test_states_reject_total_dimension_below_two():
    for build in (lambda: PureState([1.0]), lambda: PureState([]),
                  lambda: MixedState([[1.0]]),
                  lambda: MixedState(np.zeros((0, 0)))):
        with pytest.raises(ValueError, match="state dimension"):
            build()


def test_states_total_dim_cap():
    at_cap = np.zeros(MAX_TOTAL_DIM)
    at_cap[0] = 1.0
    assert PureState(at_cap).dim == MAX_TOTAL_DIM
    # Past the cap the dimension is refused before any entry is read: a
    # broadcast view of one zero holds no memory of its own.
    for build in (PureState, MixedState):
        shape = (MAX_TOTAL_DIM + 1,) * (1 if build is PureState else 2)
        with pytest.raises(CapExceededError, match="exceeds cap"):
            build(np.broadcast_to(0.0, shape))


def test_mixed_state_validation():
    with pytest.raises(InvariantError):  # not Hermitian
        MixedState(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvariantError):  # trace != 1
        MixedState(np.eye(2))
    with pytest.raises(InvariantError):  # negative eigenvalue
        MixedState(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="not square"):
        MixedState(np.eye(2, 3) / 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_refused_first(bad):
    # NaN fails every tolerance comparison, so it must be refused before
    # any of them runs; a non-finite entry makes no matrix valid.
    vec = np.array([1.0, bad])
    mat = np.array([[1.0, 0.0], [0.0, bad]])
    for build in (lambda: PureState(vec),
                  lambda: MixedState(mat),
                  lambda: Povm([mat, np.eye(2) - mat]),
                  lambda: check_povm_orbit(mat, _SWAP2),
                  lambda: _check_unitary(mat, 2)):
        with pytest.raises(ValueError, match="non-finite entry"):
            build()


def test_states_are_immutable():
    s = qubit_state(1, 0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0
    rho = density(s)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def test_povm_validation():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    Povm([p0, p1])
    with pytest.raises(InvariantError):  # does not sum to identity
        Povm([p0, p0])
    with pytest.raises(InvariantError):  # element not PSD
        Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])


_SWAP2 = [np.array([0, 1]), np.array([1, 0])]
# (first, perms) pairs whose orbit is a POVM: a complex projector whose
# swapped image is its orthogonal complement, and a basis measurement
# from the cyclic shifts of three indices.
_ORBITS = {
    "complex_swap": (np.outer([1, 1j], [1, -1j]) / 2, _SWAP2),
    "real_cycle": (np.diag([1.0, 0.0, 0.0]),
                   [np.roll(np.arange(3), -k) for k in range(3)]),
}


@pytest.mark.parametrize("case", sorted(_ORBITS))
def test_povm_orbit_matches_full_check(case):
    first, perms = _ORBITS[case]
    slow = Povm([first[np.ix_(p, p)] for p in perms])
    want = (slow.min_eigenvalue, slow.completeness_dev)
    assert check_povm_orbit(first, perms) == want
    assert check_povm_orbit(first, iter(perms)) == want


@pytest.mark.parametrize("perm", [[0, 0], [0, 1, 2], [1, 2], [-1, 0],
                                  [0.0, 1.0], [[0, 1]], [True, False]])
def test_povm_orbit_rejects_non_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation of range"):
        check_povm_orbit(np.eye(2), [np.arange(2), np.asarray(perm)])


def test_povm_orbit_rejects_what_the_full_check_rejects():
    negative = np.diag([1.0 + 1e-6, -1e-6])  # its swap orbit sums to I
    incomplete = (np.diag([1.0, 0.0]), [np.arange(2)] * 2)
    skewed = _skewed(np.diag([1.0, 0.0]), 1e-9)
    for first, perms, match in (
            (negative, _SWAP2, "eigenvalue -1e-06 < 0"),
            (*incomplete, "do not sum to identity"),
            (skewed, _SWAP2, "not Hermitian")):
        with pytest.raises(InvariantError, match=match):
            check_povm_orbit(first, perms)
        with pytest.raises(InvariantError, match=match):
            Povm([first[np.ix_(p, p)] for p in perms])
    with pytest.raises(ValueError, match="at least one element"):
        check_povm_orbit(np.eye(2), [])
    with pytest.raises(ValueError, match="one square shape"):
        check_povm_orbit(np.ones((2, 3)), _SWAP2)


# Real validation cases: each matrix is checked in float64 as given and in
# complex128 as its complex copy, and both must get the same verdict.
_ROT = np.linalg.qr(np.random.default_rng(41).normal(size=(3, 3)))[0]


def _rotated(*eigs):
    return _ROT @ np.diag(eigs) @ _ROT.T


def _skewed(m, eps):
    out = m.copy()
    out[0, 1] += eps
    out[1, 0] -= eps
    return out


DENSITY_CASES = {
    "valid": (_rotated(0.5, 0.3, 0.2), True),
    "not_hermitian": (_skewed(_rotated(0.5, 0.3, 0.2), 1e-9), False),
    "trace_off_1e-9": (_rotated(0.5, 0.3, 0.2 + 1e-9), False),
    "trace_off_1e-11": (_rotated(0.5, 0.3, 0.2 + 1e-11), True),
    "eigenvalue_-1e-9": (_rotated(0.6 + 1e-9, 0.4, -1e-9), False),
    "eigenvalue_-1e-11": (_rotated(0.6 + 1e-11, 0.4, -1e-11), True),
}

POVM_CASES = {
    "valid": ([_rotated(1, 0, 0), _rotated(0, 1, 1)], True),
    "not_hermitian": ([_skewed(_rotated(1, 0, 0), 1e-9),
                       _skewed(_rotated(0, 1, 1), -1e-9)], False),
    "eigenvalue_-1e-9": ([_rotated(1 + 1e-9, 0, -1e-9),
                          _rotated(-1e-9, 1, 1 + 1e-9)], False),
    "incomplete_1e-9": ([_rotated(1, 0, 0), _rotated(0, 1, 1 - 1e-9)], False),
    "incomplete_1e-11": ([_rotated(1, 0, 0), _rotated(0, 1, 1 - 1e-11)],
                         True),
}


def _built_or_none(cls, *args):
    try:
        return cls(*args)
    except InvariantError:
        return None


@pytest.mark.parametrize("case", sorted(DENSITY_CASES))
def test_mixed_state_real_and_complex_inputs_validate_alike(case):
    m, accepted = DENSITY_CASES[case]
    assert m.dtype == np.float64
    got = [_built_or_none(MixedState, a)
           for a in (m, m.astype(np.complex128))]
    assert [g is not None for g in got] == [accepted, accepted]
    for state in got if accepted else ():
        assert state.matrix.dtype == np.complex128
        assert not state.matrix.flags.writeable
        assert np.array_equal(state.matrix, m)


@pytest.mark.parametrize("case", sorted(POVM_CASES))
def test_povm_real_and_complex_inputs_validate_alike(case):
    elems, accepted = POVM_CASES[case]
    assert all(e.dtype == np.float64 for e in elems)
    got = [_built_or_none(Povm, es)
           for es in (elems, [e.astype(np.complex128) for e in elems])]
    assert [g is not None for g in got] == [accepted, accepted]
    if not accepted:
        return
    for povm in got:
        for e, want in zip(povm.elements, elems):
            assert e.dtype == np.complex128
            assert not e.flags.writeable
            assert np.array_equal(e, want)
    real, cplx = got
    assert real.completeness_dev == cplx.completeness_dev
    assert real.min_eigenvalue == pytest.approx(cplx.min_eigenvalue, abs=1e-15)


# ---------------------------------------------------------------- reorder

def test_two_bell_pairs_equal_grouped_four_dim_pair():
    # Direct 16-amplitude construction: |Phi+(4)> with its two 4-dim halves
    # each split into two qubits, reordered so qubit pairs interleave.
    bell = max_entangled(2).amplitudes
    pairs = PureState(np.kron(bell, bell))
    product = reordered(pairs, [("A1", 2), ("B1", 2), ("A2", 2), ("B2", 2)],
                        ["A1", "A2", "B1", "B2"])
    direct = np.zeros(16, dtype=np.complex128)
    for a1 in range(2):
        for a2 in range(2):
            idx = ((a1 * 2 + a2) * 2 + a1) * 2 + a2  # |a1 a2 a1 a2>
            direct[idx] = 0.5
    assert np.allclose(product, direct, atol=1e-12)


# ----------------------------------------------------------- partial trace

def test_partial_trace_of_bell_is_maximally_mixed():
    bell = max_entangled(2)
    for keep in (["A"], ["B"]):
        red = loaded(bell, PAIR).reduced(keep)
        assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(3)
    rho = MixedState(random_density(6, rng))
    out = loaded(rho, [("A", 2), ("B", 3)]).reduced(["A", "B"])
    assert np.allclose(out, rho.matrix, atol=1e-12)


def test_partial_trace_product_state():
    s = PureState([0, 1, 0, 0])  # |01>
    red = loaded(s, PAIR).reduced(["A"])
    assert np.allclose(red, np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_recovers_tensor_factor():
    rng = np.random.default_rng(11)
    for _ in range(50):
        da, db = rng.integers(2, 5, size=2)
        a = MixedState(random_density(int(da), rng))
        b = MixedState(random_density(int(db), rng))
        joint = MixedState(np.kron(a.matrix, b.matrix))
        back = loaded(joint, [("A", int(da)), ("B", int(db))]).reduced(["A"])
        assert np.allclose(back, a.matrix, atol=1e-12)


# ------------------------------------------------------- machine apply

def test_apply_x_flips_qubit():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(applied(qubit_state(1, 0), QUBIT, x, ["Q"]), [0, 1])


def test_apply_identity_is_noop():
    rng = np.random.default_rng(13)
    rho = MixedState(random_density(4, rng))
    assert np.allclose(applied(rho, PAIR, np.eye(2), ["B"]), rho.matrix,
                       atol=1e-12)


def test_apply_then_inverse_roundtrips():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = PureState(ket(*rng.normal(size=8)))
        u = random_unitary(4, rng)
        reg = loaded(s, [("A", 2), ("B", 2), ("C", 2)])
        for v in (u, u.conj().T):
            reg.apply(["A", "C"], v, [("A", 2), ("C", 2)])
        reg._front(["A", "B", "C"])
        assert np.allclose(reg.state, s.amplitudes, atol=1e-12)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="operator shape"):
        applied(qubit_state(1, 0), QUBIT, np.eye(4), ["Q"])


def test_apply_on_matches_embedded_operator():
    rng = np.random.default_rng(19)
    regs = [("A", 2), ("B", 3), ("C", 2)]
    u = random_unitary(4, rng)
    big = embedded(u, [2, 3, 2], [2, 0])  # note permuted target order
    s = PureState(ket(*rng.normal(size=12)))
    via_apply = applied(s, regs, u, ["C", "A"])
    via_embed = big @ s.amplitudes
    assert np.allclose(via_apply, via_embed, atol=1e-12)


def test_reorder_registers_preserves_physics():
    rng = np.random.default_rng(23)
    rho = MixedState(random_density(12, rng))
    names, dims = ["A", "B", "C"], [2, 3, 2]
    order = ["C", "A", "B"]
    flipped = MixedState(reordered(rho, list(zip(names, dims)), order))
    flipped_dims = [dims[names.index(n)] for n in order]
    for name in names:
        assert np.allclose(
            reduced_ref(rho.matrix, dims, [names.index(name)]),
            reduced_ref(flipped.matrix, flipped_dims, [order.index(name)]),
            atol=1e-12)


# -------------------------------------------------------- register machine

def to_front(rho, names, dims, front):
    """`rho` as a matrix with the registers `front` moved ahead of the
    rest; returns it with the new register order."""
    axes = [names.index(n) for n in front]
    order = axes + [i for i in range(len(dims)) if i not in axes]
    n = len(dims)
    t = rho.reshape(dims * 2).transpose(order + [n + i for i in order])
    return t.reshape(rho.shape), [names[i] for i in order]


def weyl_operators(d):
    """The d^2 clock-and-shift unitaries; averaging W rho W^dag over them
    replaces rho by I/d times its trace."""
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            for a in range(d) for b in range(d)]


def test_register_machine_skips_trivial_and_stays_pure():
    reg = _RegisterMachine()
    reg.add("A", 1)
    reg.add("B", 2)
    reg.add("C", 1)
    assert reg.regs == {"B": 2}
    reg.apply(["A", "B", "C"], np.array([[0, 1], [1, 0]], dtype=complex),
              [("B", 2), ("C", 1)])
    reg.depolarize("B", 1.0)
    assert np.allclose(reg.state, [0, 1])  # still a ket
    reg.depolarize("B", 0.0)
    assert np.allclose(reg.state, np.eye(2) / 2, atol=1e-15)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_register_machine_matches_dense_references(data):
    # One machine runs on a ket, a twin on a density matrix from the
    # start; each step is checked against a dense reference (conjugation
    # by kron(u, I), the Weyl twirl), and both twins must agree.
    dims = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pure, mixed = _RegisterMachine(), _RegisterMachine()
    for i, d in enumerate(dims):
        pure.add(f"R{i}", d)
        mixed.add(f"R{i}", d)
    mixed.state = np.outer(mixed.state, mixed.state.conj())
    for _ in range(data.draw(st.integers(1, 4))):
        names, dims = list(mixed.regs), list(mixed.regs.values())
        rho = mixed.state
        if data.draw(st.booleans()):
            k = data.draw(st.integers(1, len(names)))
            front = data.draw(st.permutations(names))[:k]
            in_dims = [dims[names.index(n)] for n in front]
            block = int(np.prod(in_dims))
            if data.draw(st.booleans()):
                out = [(front[0], block)]
            else:
                out = list(zip(front, data.draw(st.permutations(in_dims))))
            u = random_unitary(block, rng)
            ref, order = to_front(rho, names, dims, front)
            big = np.kron(u, np.eye(rho.shape[0] // block))
            ref = big @ ref @ big.conj().T
            for reg in (pure, mixed):
                reg.apply(front, u, out)
            assert list(mixed.regs) == [n for n, _ in out] + order[k:]
        else:
            name = data.draw(st.sampled_from(names))
            lam = float(rng.uniform())
            ref, _ = to_front(rho, names, dims, [name])
            rest = np.eye(rho.shape[0] // dims[names.index(name)])
            weyl = [np.kron(w, rest) for w in weyl_operators(
                dims[names.index(name)])]
            twirl = sum(w @ ref @ w.conj().T for w in weyl) / len(weyl)
            ref = lam * ref + (1.0 - lam) * twirl
            for reg in (pure, mixed):
                reg.depolarize(name, lam)
        assert np.max(np.abs(mixed.state - ref)) < 1e-12
        assert abs(np.trace(mixed.state) - 1.0) < 1e-12
        dense = pure.state
        if dense.ndim == 1:
            assert abs(np.linalg.norm(dense) - 1.0) < 1e-12
            dense = np.outer(dense, dense.conj())
        assert pure.regs == mixed.regs
        assert np.max(np.abs(dense - mixed.state)) < 1e-12
        k = data.draw(st.integers(1, len(mixed.regs)))
        block_names = data.draw(st.permutations(list(mixed.regs)))[:k]
        block = int(np.prod([mixed.regs[n] for n in block_names]))
        v = random_unitary(block, rng)
        proj = v[:, :1] @ v[:, :1].conj().T
        povm = Povm([proj, np.eye(block) - proj])
        p_pure = pure.probs(block_names, povm)
        p_mixed = mixed.probs(block_names, povm)
        assert np.max(np.abs(p_pure - p_mixed)) < 1e-12
        assert abs(p_mixed.sum() - 1.0) < 1e-12


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_density_apply_matches_batched_product(data):
    # Each side of u rho u^dag is one GEMM; the batch of thin block x block
    # by block x rest products per row, which the column side once was, is
    # the reference.
    block, rest = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    dim = block * rest
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = random_unitary(block, rng)
    reg = _RegisterMachine([("A", block), ("B", rest)], rho.copy())
    reg.apply(["A"], u, [("A", block)])
    rows = u @ rho.reshape(block, -1)
    want = np.matmul(u.conj(), rows.reshape(-1, block, rest))
    assert np.max(np.abs(reg.state - want.reshape(dim, dim))) < 1e-12


def test_register_machine_rejects_mismatched_regroup():
    reg = _RegisterMachine()
    reg.add("A", 2)
    reg.add("B", 3)
    with pytest.raises(ValueError, match="regroup"):
        reg.apply(["A"], np.eye(2), [("A", 3)])
    with pytest.raises(ValueError, match="regroup"):
        reg.apply(["A", "B"], None, [("C", 4)])
    assert reg.regs == {"A": 2, "B": 3}


def test_operator_mode_read_out():
    reg = _RegisterMachine.identity([("A", 2), ("B", 1), ("C", 3)])
    assert list(reg.regs)[:2] == ["A", "C"]  # B, of dimension 1, is absent
    assert np.array_equal(reg.matrix(["A", "B", "C"]), np.eye(6))
    with pytest.raises(ValueError, match="does not name every register"):
        reg.matrix(["C"])


def embedded(op, dims, axes):
    """`op` on the registers `axes` (in order) of registers with `dims`, by
    index arithmetic alone: entry (i, j)
    is op at the target digits of i and j when i and j agree elsewhere."""
    digits = np.array(np.unravel_index(np.arange(int(np.prod(dims))), dims))
    rest = [a for a in range(len(dims)) if a not in axes]
    t = np.ravel_multi_index(digits[axes], [dims[a] for a in axes])
    r = np.ravel_multi_index(digits[rest], [dims[a] for a in rest]) \
        if rest else np.zeros_like(t)
    return op[np.ix_(t, t)] * (r[:, None] == r[None, :])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_register_helpers_match_dense_references(data):
    # Random registers, targets and orders.  The machine's apply and
    # reorder on kets and density matrices, its operator-mode read-out and
    # its partial trace are checked against references that never touch
    # the machine: index arithmetic, np.transpose, einsum.
    dims = data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    names = data.draw(st.permutations("ABCD"))[:len(dims)]
    regs = list(zip(names, dims))
    n, total = len(dims), int(np.prod(dims))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    targets = data.draw(st.permutations(names))[:data.draw(st.integers(1, n))]
    axes = [names.index(t) for t in targets]
    rest = [m for m in names if m not in targets]
    order = data.draw(st.permutations(names))
    perm = [names.index(m) for m in order]
    u = random_unitary(int(np.prod([dims[a] for a in axes])), rng)
    big = embedded(u, dims, axes)

    def rows_in(row_axes):
        return big.reshape(dims + [total]).transpose(row_axes + [n]) \
            .reshape(total, total)

    reg = _RegisterMachine.identity(regs)
    reg.apply(targets, u, [(t, dims[names.index(t)]) for t in targets])
    assert np.max(np.abs(reg.matrix(order) - rows_in(perm))) < 1e-12
    rest_order = data.draw(st.permutations(rest))
    reg = _RegisterMachine.identity(regs)
    reg.apply(targets, u, [("G", len(u))])
    assert np.max(np.abs(reg.matrix(["G"] + rest_order) - rows_in(
        axes + [names.index(m) for m in rest_order]))) < 1e-12

    psi = ket(*(rng.normal(size=total) + 1j * rng.normal(size=total)))
    for s in (PureState(psi), MixedState(random_density(total, rng))):
        pure = isinstance(s, PureState)
        rho = np.outer(psi, psi.conj()) if pure else s.matrix
        out = applied(s, regs, u, targets)
        if pure:
            assert np.max(np.abs(out - big @ psi)) < 1e-12
        else:
            ref = big @ rho @ big.conj().T
            assert np.max(np.abs(out - ref)) < 1e-12
        moved = reordered(s, regs, order)
        if pure:
            ref = psi.reshape(dims).transpose(perm).reshape(-1)
            assert np.array_equal(moved, ref)
        else:
            ref = rho.reshape(dims * 2).transpose(
                perm + [n + p for p in perm]).reshape(total, total)
            assert np.array_equal(moved, ref)
        red = loaded(s, regs).reduced(targets)
        assert np.max(np.abs(red - reduced_ref(rho, dims, axes))) < 1e-12


# ------------------------------------------------- measurement probabilities

def born(state, povm, names=("Q",), regs=None):
    """The machine's Born probabilities of `povm` on `names` of `state`
    over `regs` (one register Q by default)."""
    return loaded(state, regs or [("Q", state.dim)]).probs(names, povm)


def test_measure_definite_outcome():
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    for state in (qubit_state(1, 0), density(qubit_state(1, 0))):
        assert np.allclose(born(state, povm), [1.0, 0.0], atol=1e-12)


def test_measure_maximally_mixed_is_uniform():
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    probs = born(MixedState(np.eye(2) / 2), povm)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_measure_remote_prep_success_probability():
    # Measuring one half of a maximally entangled pair against a
    # target-state projector succeeds with probability <phi| I/d |phi> = 1/d.
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        phi = random_unitary(d, rng)[:, 0].conj()
        proj = np.outer(phi, phi.conj())
        povm = Povm([proj, np.eye(d) - proj])
        probs = born(max_entangled(d), povm, names=["A"],
                     regs=[("A", d), ("B", d)])
        assert np.allclose(probs, [1 / d, 1 - 1 / d], atol=1e-12)


def test_measure_probability_sums_random_pairs():
    # Random POVMs on random density matrices: each probability is
    # tr(E rho), and they sum to 1.
    rng = np.random.default_rng(31)
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        rho = MixedState(random_density(d, rng))
        k = int(rng.integers(2, 5))
        raw = [random_density(d, rng) * rng.uniform(0.2, 1.0) for _ in range(k)]
        total = sum(raw)
        inv_root = np.linalg.inv(psd_sqrt(total))
        povm = Povm([inv_root @ m @ inv_root for m in raw])
        probs = born(rho, povm)
        want = [np.trace(e @ rho.matrix).real for e in povm.elements]
        assert np.max(np.abs(probs - want)) < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-10


# --------------------------------------------------------------- fidelity

def test_fidelity_basic_values():
    zero, one = qubit_state(1, 0), qubit_state(0, 1)
    assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    half = MixedState(np.eye(2) / 2)
    assert fidelity(zero, half) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_commuting_mixed_states():
    # For commuting (diagonal) states the Uhlmann value is (sum sqrt(p q))^2.
    p = np.array([0.7, 0.3])
    q = np.array([0.4, 0.6])
    a = MixedState(np.diag(p))
    b = MixedState(np.diag(q))
    expect = np.sum(np.sqrt(p * q)) ** 2
    assert fidelity(a, b) == pytest.approx(expect, abs=1e-12)


def test_fidelity_symmetric_and_one_iff_equal():
    rng = np.random.default_rng(37)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        a = MixedState(random_density(d, rng))
        b = MixedState(random_density(d, rng))
        fab, fba = fidelity(a, b), fidelity(b, a)
        assert abs(fab - fba) < 1e-10
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-10)
        assert fab < 1.0 - 1e-10 or np.allclose(a.matrix, b.matrix, atol=1e-8)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(qubit_state(1, 0), max_entangled(2))


def test_fidelity_unitary_invariance():
    rng = np.random.default_rng(41)
    a = MixedState(random_density(4, rng))
    b = MixedState(random_density(4, rng))
    u = random_unitary(4, rng)
    ua = MixedState(u @ a.matrix @ u.conj().T)
    ub = MixedState(u @ b.matrix @ u.conj().T)
    assert fidelity(ua, ub) == pytest.approx(fidelity(a, b), abs=1e-10)


# ----------------------------------------------------------- max_entangled

def test_max_entangled_qubits():
    bell = max_entangled(2)
    assert np.allclose(bell.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_max_entangled_qutrits():
    s = max_entangled(3)
    expect = np.zeros(9)
    expect[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.allclose(s.amplitudes, expect, atol=1e-12)


def test_max_entangled_reduced_is_maximally_mixed():
    for d in (2, 3, 4):
        pair = max_entangled(d).amplitudes.reshape(d, d)  # rows A, columns B
        red = pair @ pair.conj().T
        assert np.allclose(red, np.eye(d) / d, atol=1e-12)


def test_max_entangled_rejects_small_dimension():
    with pytest.raises(ValueError):
        max_entangled(1)

"""Dense multi-register quantum state engine.

Everything in this package runs on exact dense linear algebra: states are
numpy arrays tagged with a register layout (ordered named registers), and
every operation validates its inputs against fixed tolerances.  There is no
tensor-network or sparse path; sizes are capped instead (total dimension at
most 2**20) so that exactness is cheap to reason about.

Conventions used throughout:

* register order in a layout is the kron order of the underlying array,
* the maximally entangled state is |Phi+> = sum_i |ii> / sqrt(d),
* measurements update via the Lueders rule sqrt(E) rho sqrt(E) / p,
* Hermitian matrices are symmetrized as (M + M^dag)/2 before any
  eigendecomposition.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Validation tolerances.  These are part of the public contract: callers may
# rely on states/POVMs within these tolerances being accepted.
ATOL_NORM = 1e-12       # pure-state norm
ATOL_HERM = 1e-10       # Hermiticity of density matrices
ATOL_EIG = 1e-10        # eigenvalue floor for density matrices / POVM elements
ATOL_TRACE = 1e-10      # trace-one for density matrices
ATOL_POVM = 1e-10       # POVM completeness (sum to identity)
ATOL_UNITARY = 1e-10    # unitarity of applied operators
PROB_FLOOR = 1e-14      # measurement refuses to sample below this total mass
MAX_TOTAL_DIM = 2 ** 20  # hard cap on any layout's total dimension


class CapExceededError(RuntimeError):
    """A requested object exceeds the package's hard resource caps."""


class InvariantError(RuntimeError):
    """A validated invariant (normalization, completeness, ...) failed."""


def _sym(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dag)/2, used before every eigendecomposition."""
    return 0.5 * (m + m.conj().T)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix via eigendecomposition.

    Slightly negative eigenvalues (numerical noise) are clipped to zero.
    """
    w, v = np.linalg.eigh(_sym(m))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


class RegisterLayout:
    """Ordered list of named registers, each with dimension >= 2.

    The layout fixes how a flat state vector / density matrix factors into
    registers.  Total dimension is capped at 2**20.
    """

    def __init__(self, registers: Iterable[tuple[str, int]]):
        regs = tuple((str(name), int(dim)) for name, dim in registers)
        if not regs:
            raise ValueError("layout needs at least one register")
        names = [name for name, _ in regs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        for name, dim in regs:
            if dim < 2:
                raise ValueError(f"register {name!r} has dimension {dim} < 2")
        total = 1
        for _, dim in regs:
            total *= dim
        if total > MAX_TOTAL_DIM:
            raise CapExceededError(
                f"total dimension {total} exceeds cap {MAX_TOTAL_DIM}")
        self._regs = regs
        self._total = total
        self._index = {name: i for i, (name, _) in enumerate(regs)}

    @property
    def registers(self) -> tuple[tuple[str, int], ...]:
        return self._regs

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._regs)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self._regs)

    @property
    def total_dim(self) -> int:
        return self._total

    def dim(self, name: str) -> int:
        return self._regs[self._index[name]][1]

    def axis(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no register named {name!r} in {self.names}")

    def subset_dim(self, names: Sequence[str]) -> int:
        d = 1
        for n in names:
            d *= self.dim(n)
        return d

    def __len__(self) -> int:
        return len(self._regs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RegisterLayout) and self._regs == other._regs

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{d}" for n, d in self._regs)
        return f"RegisterLayout({inner})"


def _as_layout(layout) -> RegisterLayout:
    if isinstance(layout, RegisterLayout):
        return layout
    return RegisterLayout(layout)


class PureState:
    """Normalized state vector over a register layout."""

    def __init__(self, amplitudes: np.ndarray, layout):
        layout = _as_layout(layout)
        vec = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        if vec.size != layout.total_dim:
            raise ValueError(
                f"vector length {vec.size} != layout dimension {layout.total_dim}")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > ATOL_NORM:
            raise InvariantError(f"pure state norm {norm} deviates from 1")
        vec.setflags(write=False)
        self.amplitudes = vec
        self.layout = layout

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def to_mixed(self) -> "MixedState":
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return MixedState(rho, self.layout)

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim}, layout={self.layout})"


class MixedState:
    """Density matrix over a register layout.

    Validated Hermitian (1e-10), PSD up to -1e-10 eigenvalue noise, and
    unit trace (1e-10).
    """

    def __init__(self, matrix: np.ndarray, layout):
        layout = _as_layout(layout)
        mat = np.asarray(matrix, dtype=np.complex128).copy()
        d = layout.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        herm_dev = np.max(np.abs(mat - mat.conj().T)) if d else 0.0
        if herm_dev > ATOL_HERM:
            raise InvariantError(f"density matrix not Hermitian (dev {herm_dev})")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > ATOL_TRACE:
            raise InvariantError(f"density matrix trace {tr} deviates from 1")
        min_eig = float(np.linalg.eigvalsh(_sym(mat)).min())
        if min_eig < -ATOL_EIG:
            raise InvariantError(f"density matrix has eigenvalue {min_eig} < 0")
        mat.setflags(write=False)
        self.matrix = mat
        self.layout = layout

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def __repr__(self) -> str:
        return f"MixedState(dim={self.dim}, layout={self.layout})"


class Povm:
    """Finite POVM: PSD elements summing to the identity.

    `atol` loosens the completeness/positivity check where a caller builds
    elements through long chains of linear algebra (the port measurement
    uses 1e-9).  The margins the check found stay on the object:
    `min_eigenvalue`, the least eigenvalue of any element's Hermitian part,
    and `completeness_dev`, max |sum of elements - I|.
    """

    def __init__(self, elements: Sequence[np.ndarray], atol: float = ATOL_POVM):
        elems = tuple(np.asarray(e, dtype=np.complex128).copy() for e in elements)
        if not elems:
            raise ValueError("POVM needs at least one element")
        d = elems[0].shape[0]
        total = np.zeros((d, d), dtype=np.complex128)
        least = math.inf
        for e in elems:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one square shape")
            if np.max(np.abs(e - e.conj().T)) > atol:
                raise InvariantError("POVM element not Hermitian")
            min_eig = float(np.linalg.eigvalsh(_sym(e)).min())
            if min_eig < -atol:
                raise InvariantError(f"POVM element eigenvalue {min_eig} < 0")
            least = min(least, min_eig)
            total += e
        completeness_dev = float(np.max(np.abs(total - np.eye(d))))
        if completeness_dev > atol:
            raise InvariantError("POVM elements do not sum to identity")
        for e in elems:
            e.setflags(write=False)
        self.elements = elems
        self.dim = d
        self.min_eigenvalue = least
        self.completeness_dev = completeness_dev

    def __len__(self) -> int:
        return len(self.elements)


State = PureState | MixedState


def tensor(a: State, b: State) -> State:
    """Tensor product; layouts concatenate (names must not clash).

    Pure (x) pure stays pure; any mixed factor promotes the result to mixed.
    """
    names_a = set(a.layout.names)
    clash = names_a.intersection(b.layout.names)
    if clash:
        raise ValueError(f"register name clash in tensor: {sorted(clash)}")
    layout = RegisterLayout(a.layout.registers + b.layout.registers)
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes), layout)
    ma = a.to_mixed().matrix if isinstance(a, PureState) else a.matrix
    mb = b.to_mixed().matrix if isinstance(b, PureState) else b.matrix
    return MixedState(np.kron(ma, mb), layout)


def partial_trace(state: State, keep: Sequence[str]) -> MixedState:
    """Trace out all registers not named in `keep`.

    The kept registers appear in their original layout order regardless of
    the order given in `keep`.
    """
    layout = state.layout
    keep_set = set(keep)
    unknown = keep_set.difference(layout.names)
    if unknown:
        raise KeyError(f"unknown registers in keep: {sorted(unknown)}")
    if not keep_set:
        raise ValueError("must keep at least one register")
    keep_axes = [i for i, (n, _) in enumerate(layout.registers) if n in keep_set]
    drop_axes = [i for i in range(len(layout)) if i not in keep_axes]
    dims = layout.dims
    keep_dim = int(np.prod([dims[i] for i in keep_axes], dtype=np.int64))
    drop_dim = layout.total_dim // keep_dim
    new_layout = RegisterLayout([layout.registers[i] for i in keep_axes])
    if isinstance(state, PureState):
        t = state.amplitudes.reshape(dims)
        t = np.transpose(t, keep_axes + drop_axes).reshape(keep_dim, drop_dim)
        rho = t @ t.conj().T
        return MixedState(rho, new_layout)
    t = state.matrix.reshape(dims + dims)
    n = len(dims)
    order = (keep_axes + drop_axes + [n + i for i in keep_axes]
             + [n + i for i in drop_axes])
    t = np.transpose(t, order).reshape(keep_dim, drop_dim, keep_dim, drop_dim)
    rho = np.einsum("ikjk->ij", t)
    return MixedState(rho, new_layout)


def _check_unitary(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise ValueError(f"operator shape {u.shape} != ({dim}, {dim})")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if dev > ATOL_UNITARY:
        raise InvariantError(f"operator not unitary (deviation {dev})")
    return u


def _apply_matrix_to_axes(vec_t: np.ndarray, op: np.ndarray,
                          axes: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Apply `op` on the given tensor axes of a state tensor (ket side)."""
    n = vec_t.ndim
    axes = list(axes)
    rest = [i for i in range(n) if i not in axes]
    d_op = int(np.prod([dims[i] for i in axes], dtype=np.int64))
    t = np.transpose(vec_t, axes + rest)
    shape_after = t.shape
    t = t.reshape(d_op, -1)
    t = op @ t
    t = t.reshape(shape_after)
    inv = np.argsort(axes + rest)
    return np.transpose(t, inv)


def apply_on(state: State, u: np.ndarray, targets: Sequence[str]) -> State:
    """Apply a unitary to the named target registers (identity elsewhere).

    `u` is indexed in the order the targets are listed.  Unitarity is
    validated to 1e-10.
    """
    layout = state.layout
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target registers")
    axes = [layout.axis(n) for n in targets]
    d_op = layout.subset_dim(targets)
    u = _check_unitary(u, d_op)
    dims = layout.dims
    if isinstance(state, PureState):
        t = state.amplitudes.reshape(dims)
        t = _apply_matrix_to_axes(t, u, axes, dims)
        return PureState(t.reshape(-1), layout)
    n = len(dims)
    t = state.matrix.reshape(dims + dims)
    t = _apply_matrix_to_axes(t, u, axes, list(dims) * 2)
    t = _apply_matrix_to_axes(t, u.conj(), [n + a for a in axes], list(dims) * 2)
    d = layout.total_dim
    return MixedState(t.reshape(d, d), layout)


class _RegisterMachine:
    """Named registers, each starting in |0> (dimension 1 means absent): a
    ket until the first lossy `depolarize`, then a density matrix."""

    def __init__(self):
        self.regs: dict[str, int] = {}  # name -> dimension, in kron order
        self.state = np.ones(1, dtype=np.complex128)

    def add(self, name: str, dim: int) -> None:
        if dim > 1:  # kron with |0> (ket) or |0><0| (density matrix)
            k = self.state.ndim
            zero = np.eye(1, dim ** k).reshape((dim,) * k)
            self.state = np.kron(self.state, zero)
            self.regs[name] = dim

    def _front(self, names: Iterable[str]) -> tuple[list[str], int, int]:
        """Move the present `names` to the front of the kron order; return
        them, their block dimension and the remaining dimension."""
        names = [n for n in names if n in self.regs]
        new = {n: self.regs[n] for n in names} | self.regs
        pos, ndim = list(self.regs), self.state.ndim
        axes = [j * len(pos) + pos.index(n) for j in range(ndim) for n in new]
        t = self.state.reshape(list(self.regs.values()) * ndim).transpose(axes)
        self.state, self.regs = t.reshape(self.state.shape), new
        block = math.prod(new[n] for n in names)
        return names, block, self.state.shape[0] // block

    def apply(self, in_names: Iterable[str], u: np.ndarray,
              out_regs: Iterable[tuple[str, int]]) -> None:
        """Apply `u` to the named registers (in order), regrouping the image
        into `out_regs`.  A density matrix takes u on the row block and
        conj(u) on the column block: O(D^2 block), not kron's O(D^3)."""
        in_names, block, rest = self._front(in_names)
        if u.shape != (block, block):
            raise ValueError(f"operator shape {u.shape} does not match "
                             f"register block {in_names} of dimension {block}")
        t = u @ self.state.reshape(block, -1)
        if self.state.ndim == 2:
            t = np.matmul(u.conj(), t.reshape(-1, block, rest))
        self.state = t.reshape(self.state.shape)
        kept = {n: d for n, d in self.regs.items() if n not in in_names}
        self.regs = {n: d for n, d in out_regs if d > 1} | kept

    def depolarize(self, name: str, lam: float) -> None:
        """rho -> lam rho + (1 - lam) I/d (x) Tr_name rho (lam = 1: no-op)."""
        if lam == 1.0 or name not in self.regs:
            return
        if self.state.ndim == 1:
            self.state = np.outer(self.state, self.state.conj())
        _, d, rest = self._front([name])
        t = self.state.reshape(d, rest, d, rest)
        self.state = lam * self.state + (1.0 - lam) * np.kron(
            np.eye(d) / d, np.einsum("iris->rs", t))

    def probs(self, names: Iterable[str], povm: Povm) -> np.ndarray:
        """Born probabilities of a POVM on the named register block."""
        _, block, rest = self._front(names)
        t = self.state.reshape((block, rest) * self.state.ndim)
        reduced = t @ t.conj().T if t.ndim == 2 else np.einsum("irjr->ij", t)
        return np.array([np.einsum("ij,ji->", e, reduced).real
                         for e in povm.elements])


def reorder_registers(state: State, order: Sequence[str]) -> State:
    """Return the same physical state with registers listed in a new order."""
    layout = state.layout
    if sorted(order) != sorted(layout.names):
        raise ValueError(f"order {order} is not a permutation of {layout.names}")
    axes = [layout.axis(n) for n in order]
    new_layout = RegisterLayout([layout.registers[i] for i in axes])
    dims = layout.dims
    if isinstance(state, PureState):
        t = state.amplitudes.reshape(dims).transpose(axes)
        return PureState(t.reshape(-1), new_layout)
    n = len(dims)
    t = state.matrix.reshape(dims + dims)
    t = np.transpose(t, axes + [n + a for a in axes])
    d = layout.total_dim
    return MixedState(t.reshape(d, d), new_layout)


def embed_operator(op: np.ndarray, layout, targets: Sequence[str]) -> np.ndarray:
    """Expand an operator on `targets` to the full layout dimension.

    The result acts as `op` on the listed registers (in the listed order)
    and as identity on every other register.
    """
    layout = _as_layout(layout)
    targets = list(targets)
    axes = [layout.axis(n) for n in targets]
    d_op = layout.subset_dim(targets)
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (d_op, d_op):
        raise ValueError(f"operator shape {op.shape} != ({d_op}, {d_op})")
    dims = layout.dims
    rest_axes = [i for i in range(len(dims)) if i not in axes]
    rest_dim = int(np.prod([dims[i] for i in rest_axes], dtype=np.int64))
    big = np.kron(op, np.eye(rest_dim, dtype=np.complex128))
    # big is indexed by (targets, rest); permute into layout order.
    perm = axes + rest_axes
    inv = np.argsort(perm)
    t = big.reshape([dims[i] for i in perm] * 2)
    n = len(dims)
    t = np.transpose(t, list(inv) + [n + i for i in inv])
    d = layout.total_dim
    return t.reshape(d, d)


def measure(rho: MixedState, povm: Povm, rng: np.random.Generator
            ) -> tuple[int, np.ndarray, MixedState]:
    """Sample a POVM outcome and return (outcome, probabilities, post-state).

    Probabilities are tr(E_i rho); the post-measurement state follows the
    Lueders rule sqrt(E) rho sqrt(E) / p.  Raises if every outcome has
    probability below 1e-14.
    """
    if not isinstance(rho, MixedState):
        raise TypeError("measure expects a MixedState (use .to_mixed())")
    if povm.dim != rho.dim:
        raise ValueError(f"POVM dimension {povm.dim} != state dimension {rho.dim}")
    probs = np.array([np.einsum("ij,ji->", e, rho.matrix).real
                      for e in povm.elements])
    if probs.max() < PROB_FLOOR:
        raise InvariantError("all POVM outcome probabilities below 1e-14")
    clipped = np.clip(probs, 0.0, None)
    outcome = int(rng.choice(len(clipped), p=clipped / clipped.sum()))
    root = psd_sqrt(povm.elements[outcome])
    post = root @ rho.matrix @ root
    post = _sym(post) / np.trace(post).real
    return outcome, probs, MixedState(post, rho.layout)


def fidelity(a: State, b: State) -> float:
    """Fidelity between two states of equal total dimension.

    Pure/pure gives |<a|b>|^2, pure/mixed gives <a|rho|a>, mixed/mixed is
    the squared Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    """
    if a.dim != b.dim:
        raise ValueError(f"fidelity dimension mismatch: {a.dim} != {b.dim}")
    if isinstance(a, PureState) and isinstance(b, PureState):
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if isinstance(a, PureState):
        return float(np.real(np.vdot(a.amplitudes, b.matrix @ a.amplitudes)))
    if isinstance(b, PureState):
        return float(np.real(np.vdot(b.amplitudes, a.matrix @ b.amplitudes)))
    root = psd_sqrt(a.matrix)
    inner = root @ b.matrix @ root
    w = np.clip(np.linalg.eigvalsh(_sym(inner)), 0.0, None)
    return float(np.sum(np.sqrt(w)) ** 2)


def max_entangled(d: int, names: tuple[str, str] = ("A", "B")) -> PureState:
    """|Phi+> = sum_i |ii> / sqrt(d) on two d-dimensional registers."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(vec, RegisterLayout([(names[0], d), (names[1], d)]))


def basis_state(layout, index: int = 0) -> PureState:
    """Computational basis state |index> over the layout's total dimension."""
    layout = _as_layout(layout)
    vec = np.zeros(layout.total_dim, dtype=np.complex128)
    vec[index] = 1.0
    return PureState(vec, layout)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(d: int, rng: np.random.Generator, rank: int | None = None
                   ) -> np.ndarray:
    """Random density matrix from a normalized Wishart sample."""
    k = rank or d
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ g.conj().T
    return m / np.trace(m).real

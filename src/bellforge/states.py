"""Dense multi-register quantum state engine.

Everything in this package runs on exact dense linear algebra: states are
validated numpy arrays whose dimension is the array's, and every operation
checks its inputs against fixed tolerances.  There is no tensor-network or
sparse path; sizes are capped instead (total dimension at most 2**20) so
that exactness is cheap to reason about.

Conventions used throughout:

* register order is the kron order of the underlying array,
* the maximally entangled state is |Phi+> = sum_i |ii> / sqrt(d),
* Hermitian matrices are symmetrized as (M + M^dag)/2 before any
  eigendecomposition.

One engine, `_RegisterMachine`, does the bookkeeping of named registers: it
moves named axes to the front of the kron order, applies a matrix to that
block and regroups the image into new registers.  Protocol runs drive it on
a ket or a density matrix.  In operator mode it starts from the identity,
held as the ket sum_i |i>|i> with a trailing column register, so the same
steps compose the unitaries that the protocol rewrites build.  It also
takes partial traces and Born probabilities.
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
MAX_TOTAL_DIM = 2 ** 20  # hard cap on any state's total dimension
_PRINT_DIGITS = 4300    # Python's default limit on the digits of a printed int


class CapExceededError(RuntimeError):
    """A requested object exceeds the package's hard resource caps."""


class InvariantError(RuntimeError):
    """A validated invariant (normalization, completeness, ...) failed."""


def _sym(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dag)/2, used before every eigendecomposition."""
    return 0.5 * (m + m.conj().T)


def _check_dtype(*arrays) -> type:
    """Dtype the validation of `arrays` runs in: float64 when all are real,
    complex128 otherwise.  A real eigen-check is several times cheaper."""
    return np.float64 if all(np.isrealobj(a) for a in arrays) \
        else np.complex128


def _require_finite(m: np.ndarray, what: str) -> None:
    """Refuse NaN and infinite entries, which pass every tolerance check:
    each comparison with NaN is false."""
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has a non-finite entry")


def _frozen_complex(m: np.ndarray) -> np.ndarray:
    """Read-only complex128 copy, the form every validated matrix is stored
    in whatever dtype it was checked in."""
    out = np.array(m, dtype=np.complex128)
    out.setflags(write=False)
    return out


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix via eigendecomposition.

    Slightly negative eigenvalues (numerical noise) are clipped to zero.
    """
    w, v = np.linalg.eigh(_sym(m))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _check_total_dim(d: int) -> None:
    """Refuse a state of total dimension below 2 or past MAX_TOTAL_DIM."""
    if d < 2:
        raise ValueError(f"state dimension {d} < 2")
    if d > MAX_TOTAL_DIM:
        raise CapExceededError(
            f"total dimension {d} exceeds cap {MAX_TOTAL_DIM}")


class PureState:
    """Normalized state vector; its dimension is its length."""

    def __init__(self, amplitudes: np.ndarray):
        vec = np.asarray(amplitudes).reshape(-1)
        _check_total_dim(vec.size)
        vec = vec.astype(np.complex128)
        _require_finite(vec, "state vector")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > ATOL_NORM:
            raise InvariantError(f"pure state norm {norm} deviates from 1")
        vec.setflags(write=False)
        self.amplitudes = vec

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


class MixedState:
    """Density matrix; its dimension is its side.

    Validated Hermitian (1e-10), PSD up to -1e-10 eigenvalue noise, and
    unit trace (1e-10).  The checks run in float64 on a real input and in
    complex128 otherwise; `matrix` is always a read-only complex128 copy.
    """

    def __init__(self, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=_check_dtype(matrix))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix shape {mat.shape} is not square")
        _check_total_dim(mat.shape[0])
        _require_finite(mat, "density matrix")
        herm_dev = np.max(np.abs(mat - mat.conj().T))
        if herm_dev > ATOL_HERM:
            raise InvariantError(f"density matrix not Hermitian (dev {herm_dev})")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > ATOL_TRACE:
            raise InvariantError(f"density matrix trace {tr} deviates from 1")
        min_eig = float(np.linalg.eigvalsh(_sym(mat)).min())
        if min_eig < -ATOL_EIG:
            raise InvariantError(f"density matrix has eigenvalue {min_eig} < 0")
        self.matrix = _frozen_complex(mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"MixedState(dim={self.dim})"


def _element_min_eig(e: np.ndarray, d: int) -> float:
    """Least eigenvalue of a d x d POVM element, after its finiteness,
    shape, Hermiticity (ATOL_HERM) and positivity (-ATOL_EIG) checks."""
    _require_finite(e, "POVM element")
    if e.shape != (d, d):
        raise ValueError("POVM elements must share one square shape")
    if np.max(np.abs(e - e.conj().T)) > ATOL_HERM:
        raise InvariantError("POVM element not Hermitian")
    min_eig = float(np.linalg.eigvalsh(_sym(e)).min())
    if min_eig < -ATOL_EIG:
        raise InvariantError(f"POVM element eigenvalue {min_eig} < 0")
    return min_eig


def _completeness_dev(elems: Iterable[np.ndarray], d: int, dtype,
                      atol: float) -> float:
    """max |sum of elems - I| over elems summed in order, refused past atol."""
    total = np.zeros((d, d), dtype=dtype)
    for e in elems:
        total += e
    dev = float(np.max(np.abs(total - np.eye(d))))
    if dev > atol:
        raise InvariantError("POVM elements do not sum to identity")
    return dev


class Povm:
    """Finite POVM: PSD elements summing to the identity.

    Each element is checked Hermitian (1e-10) and PSD up to -1e-10
    eigenvalue noise, and their sum equals the identity to 1e-10.  The
    margins the check found stay on the object:
    `min_eigenvalue`, the least eigenvalue of any element's Hermitian
    part, and `completeness_dev`, max |sum of elements - I|.  As in
    `MixedState`, the checks run in float64 when every element is real,
    and the stored `elements` are read-only complex128 copies.
    """

    def __init__(self, elements: Sequence[np.ndarray]):
        dtype = _check_dtype(*elements)
        elems = tuple(np.asarray(e, dtype=dtype) for e in elements)
        if not elems:
            raise ValueError("POVM needs at least one element")
        d = elems[0].shape[0]
        self.min_eigenvalue = min(_element_min_eig(e, d) for e in elems)
        self.completeness_dev = _completeness_dev(elems, d, dtype, ATOL_POVM)
        self.elements = tuple(_frozen_complex(e) for e in elems)
        self.dim = d

    def __len__(self) -> int:
        return len(self.elements)


def check_povm_orbit(first: np.ndarray, perms: Iterable[np.ndarray],
                     atol: float = ATOL_POVM) -> tuple[float, float]:
    """Margins `(min_eigenvalue, completeness_dev)`, as `Povm` defines
    them, of the POVM of the images first[np.ix_(p, p)] = P first P^T for
    each index permutation p in `perms`.  `first` gets `Povm`'s element
    check and each p must permute range(dim), so every image has the
    checked spectrum; the images are summed in order and none is kept.
    `atol` bounds the completeness deviation only."""
    first = np.asarray(first, dtype=_check_dtype(first))
    d = first.shape[0]
    least = _element_min_eig(first, d)
    perms = [np.asarray(p) for p in perms]
    for p in perms:
        if p.shape != (d,) or p.dtype.kind not in "iu" \
                or not np.array_equal(np.sort(p), np.arange(d)):
            raise ValueError(f"orbit index array is not a permutation "
                             f"of range({d})")
    if not perms:
        raise ValueError("POVM needs at least one element")
    images = (first[np.ix_(p, p)] for p in perms)
    return least, _completeness_dev(images, d, first.dtype, atol)


State = PureState | MixedState


def _check_unitary(u: np.ndarray, dim: int, what: str = "operator"
                   ) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    _require_finite(u, what)
    if u.shape != (dim, dim):
        raise ValueError(f"{what}: shape {u.shape}, expected ({dim}, {dim})")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if dev > ATOL_UNITARY:
        raise InvariantError(f"{what}: not unitary (deviation {dev})")
    return u


_COLUMN = object()  # operator mode's trailing column register


class _RegisterMachine:
    """Named registers in kron order (`regs`: name -> dimension; dimension
    1 means absent and is never stored) over one array, `state`.

    `state` is a ket whose new registers start in |0>, and a density matrix
    after the first lossy `depolarize`.  In operator mode (`identity`) it is
    the ket sum_i |i>|i> of a D x D operator, whose second factor is a
    trailing column register that no call names; `apply` then composes onto
    the operator and `matrix` reads it out.  `_front` is the only
    named-axis permutation in the package.
    """

    def __init__(self, regs: Iterable[tuple] = (),
                 state: np.ndarray | None = None):
        if state is None:
            state = np.ones(1, dtype=np.complex128)
        self.regs = {n: d for n, d in regs if d > 1}
        self.state = state

    @classmethod
    def identity(cls, regs: Iterable[tuple]) -> "_RegisterMachine":
        """Operator mode, starting from the identity on `regs`."""
        regs = list(regs)
        total = math.prod(d for _, d in regs)
        return cls(regs + [(_COLUMN, total)],
                   np.eye(total, dtype=np.complex128).reshape(-1))

    def add(self, name: str, dim: int) -> None:
        if dim > 1:  # kron with |0> (ket) or |0><0| (density matrix)
            k = self.state.ndim
            zero = np.eye(1, dim ** k).reshape((dim,) * k)
            self.state = np.kron(self.state, zero)
            self.regs[name] = dim

    def _front(self, names: Iterable) -> tuple[list, int, int]:
        """Move the present `names` to the front of the kron order; return
        them, their block dimension and the remaining dimension."""
        names = [n for n in names if n in self.regs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate registers in {names}")
        new = {n: self.regs[n] for n in names} | self.regs
        pos, ndim = list(self.regs), self.state.ndim
        axes = [j * len(pos) + pos.index(n) for j in range(ndim) for n in new]
        t = self.state.reshape(list(self.regs.values()) * ndim).transpose(axes)
        self.state, self.regs = t.reshape(self.state.shape), new
        block = math.prod(new[n] for n in names)
        return names, block, self.state.shape[0] // block

    def apply(self, in_names: Iterable, u: np.ndarray | None,
              out_regs: Iterable[tuple]) -> None:
        """Apply `u` to the named registers (in order) and regroup the image
        into `out_regs`; `u=None` only regroups.  A density matrix takes u
        on the row block and conj(u) on the column block, each side one
        GEMM: O(D^2 block), not kron's O(D^3)."""
        in_names, block, rest = self._front(in_names)
        out_regs = list(out_regs)
        if math.prod(d for _, d in out_regs) != block:
            raise ValueError(f"cannot regroup registers {in_names} of "
                             f"dimension {block} into {out_regs}")
        if u is not None:
            if u.shape != (block, block):
                raise ValueError(f"operator shape {u.shape} does not match "
                                 f"register block {in_names} of dimension "
                                 f"{block}")
            t = u @ self.state.reshape(block, -1)
            if self.state.ndim == 2:  # column block in front for one GEMM
                t = t.reshape(-1, block, rest).swapaxes(0, 1)
                t = (u.conj() @ t.reshape(block, -1)).reshape(block, -1, rest)
                t = t.swapaxes(0, 1)
            self.state = t.reshape(self.state.shape)
        kept = {n: d for n, d in self.regs.items() if n not in in_names}
        self.regs = {n: d for n, d in out_regs if d > 1} | kept

    def matrix(self, order: Iterable) -> np.ndarray:
        """Operator mode: the D x D operator with its rows in register
        `order`, which must name every present register."""
        names, block, rest = self._front(order)
        if block != rest:  # only then is the column register all that is left
            raise ValueError(
                f"read-out order {names} does not name every register of "
                f"{[n for n in self.regs if n is not _COLUMN]}")
        return self.state.reshape(block, rest)

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

    def reduced(self, names: Iterable) -> np.ndarray:
        """Reduced density matrix of the named register block (in order)."""
        _, block, rest = self._front(names)
        t = self.state.reshape((block, rest) * self.state.ndim)
        return t @ t.conj().T if t.ndim == 2 else np.einsum("irjr->ij", t)

    def probs(self, names: Iterable, povm: Povm) -> np.ndarray:
        """Born probabilities of a POVM on the named register block."""
        reduced = self.reduced(names)
        return np.array([np.einsum("ij,ji->", e, reduced).real
                         for e in povm.elements])


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


def max_entangled(d: int) -> PureState:
    """|Phi+> = sum_i |ii> / sqrt(d) on two d-dimensional registers."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(vec)


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
